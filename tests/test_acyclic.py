import random

import pytest

from petrialign import (AcceptingSystem, Budgets, Label, Marking, PetriNet,
                        brute_force_oracle, dispatch_align, fire_sequence,
                        gen_shuffle_tsystem, optimal_alignment,
                        optimal_alignment_acyclic, realize_parikh_acyclic,
                        standard_costs, structural_class, trace_system,
                        tree_to_wfnet, validate_alignment)
from petrialign.engine import _plan
from petrialign.errors import BudgetExceeded, NotAcyclic, NotEasySound, StuckContradiction
from petrialign.petri import DEFAULT_STATE_BUDGET, _schedule_counts
from randgen import random_acyclic_system, random_trace, random_tree

TRACE = ("a", "b", "a", "a")


def test_acyclic_variant_agrees_with_generic(ex1_acyclic):
    """The acyclic route is the generic search under another name: the same
    alignment and states, and its own stored result on the system's plan."""
    special = optimal_alignment_acyclic(TRACE, ex1_acyclic)
    generic = optimal_alignment(TRACE, ex1_acyclic)
    assert special.cost == generic.cost == 2
    assert special.algorithm == "acyclic"
    assert special.alignment == generic.alignment
    assert special.states_expanded == generic.states_expanded
    assert validate_alignment(special.alignment, TRACE, ex1_acyclic,
                              standard_costs(ex1_acyclic)) == special.cost
    assert optimal_alignment_acyclic(TRACE, ex1_acyclic) is special
    stored = _plan(ex1_acyclic, DEFAULT_STATE_BUDGET).results
    assert stored.get((TRACE, "acyclic", DEFAULT_STATE_BUDGET)) is special


def test_wide_shuffle_fitting_trace():
    """A 5x6 shuffle T-system and a round-robin interleaving of its words,
    which fits: the search settles 33 states, where a branch and bound over
    the marking equation exceeds 10^6 nodes."""
    words = [tuple(w) for w in ("ecfcff", "feadbf", "abacdb", "deaeba", "fbdcbd")]
    trace = tuple(w[i] for i in range(6) for w in words)
    result = optimal_alignment_acyclic(trace, gen_shuffle_tsystem(words))
    assert (result.cost, result.algorithm, result.states_expanded) == (0, "acyclic", 33)


def test_identity_instance_is_free():
    system = trace_system(("a", "b", "c"))
    result = optimal_alignment_acyclic(("a", "b", "c"), system)
    assert result.cost == 0
    assert all(m.kind == "sync" for m in result.alignment)


def test_infeasible_final_marking():
    net = PetriNet(("p", "q", "island"), ("t",),
                   [("p", "t"), ("t", "q")], {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("island"))
    with pytest.raises(NotEasySound):
        optimal_alignment_acyclic((), system)


def test_rejects_cyclic_model(ex1):
    with pytest.raises(NotAcyclic):
        optimal_alignment_acyclic(TRACE, ex1)


def test_crossing_sync_pairs_need_scheduling():
    """Model is b-then-a; the cheap equation solution syncing both letters of
    the trace <a,b> is unrealizable, so the solver must return 2."""
    net = PetriNet(("q0", "q1", "q2"), ("tb", "ta"),
                   [("q0", "tb"), ("tb", "q1"), ("q1", "ta"), ("ta", "q2")],
                   {"tb": Label("b"), "ta": Label("a")})
    system = AcceptingSystem(net, Marking.of("q0"), Marking.of("q2"))
    special = optimal_alignment_acyclic(("a", "b"), system)
    assert special.cost == optimal_alignment(("a", "b"), system).cost == 2
    assert validate_alignment(special.alignment, ("a", "b"), system,
                              standard_costs(system)) == 2


def test_schedule_counts_step_budget():
    """Scheduling a line of four transitions enters five states (one per
    firing plus the final check); a budget of four stops it."""
    net = trace_system(("a", "b", "c", "d")).net
    counts = {"t1": 1, "t2": 1, "t3": 1, "t4": 1}
    assert _schedule_counts(net, Marking.of("p0"), counts, 5) == ("t1", "t2", "t3", "t4")
    with pytest.raises(BudgetExceeded, match="schedule steps"):
        _schedule_counts(net, Marking.of("p0"), counts, 4)


def test_realize_line():
    net = trace_system(("a", "b")).net
    assert realize_parikh_acyclic(net, Marking.of("p0"), {"t1": 1, "t2": 1}) \
        == ("t1", "t2")


def test_realize_zero_vector(ex1_acyclic):
    assert realize_parikh_acyclic(ex1_acyclic.net, ex1_acyclic.initial, {}) == ()


def test_realize_parallel_branches():
    net = PetriNet(("s", "u", "v", "w"), ("t0", "t1", "t2", "t3"),
                   [("s", "t0"), ("t0", "u"), ("t0", "v"),
                    ("u", "t1"), ("t1", "w"), ("v", "t2"), ("t2", "w"),
                    ("w", "t3")],
                   {t: Label(a) for t, a in
                    zip(("t0", "t1", "t2", "t3"), "xyzq")})
    counts = {"t0": 1, "t1": 1, "t2": 1}
    seq = realize_parikh_acyclic(net, Marking.of("s"), counts)
    end = fire_sequence(net, Marking.of("s"), seq)
    assert end == Marking({"w": 2})
    assert sorted(seq) == ["t0", "t1", "t2"]


def test_realize_a_long_line():
    """A 1,202-firing schedule needs no Python frame per firing."""
    system = gen_shuffle_tsystem([tuple("ab" * 600)])
    seq = realize_parikh_acyclic(system.net, system.initial,
                                 dict.fromkeys(system.net.transitions, 1))
    assert len(seq) == 1202
    assert fire_sequence(system.net, system.initial, seq) == system.final


def test_realize_stuck_contradiction():
    net = trace_system(("a", "b")).net
    with pytest.raises(StuckContradiction):
        realize_parikh_acyclic(net, Marking.of("p0"), {"t2": 1})
    for counts in ({"t9": 1}, {"t1": -1}):
        with pytest.raises(StuckContradiction):
            realize_parikh_acyclic(net, Marking.of("p0"), counts)


def test_realize_stops_without_backtracking():
    """30 independent transitions fire, then one whose input place is empty
    is stuck: the greedy order fails at once, where a backtrack over the 30
    would take 2^30 steps.  Every transition feeds one sink place."""
    n = 30
    places = [f"p{i}" for i in range(n + 1)]
    transitions = [f"t{i}" for i in range(n + 1)]
    arcs = [a for p, t in zip(places, transitions) for a in ((p, t), (t, "sink"))]
    net = PetriNet((*places, "sink"), transitions, arcs,
                   {t: Label("a") for t in transitions})
    m0 = Marking({p: 1 for p in places[:n]})
    with pytest.raises(StuckContradiction):
        realize_parikh_acyclic(net, m0, dict.fromkeys(transitions, 1))


def test_agreement_and_realizability_on_random_acyclic():
    rng = random.Random(23)
    done = 0
    while done < 25:
        system = random_acyclic_system(rng)
        if system is None:
            continue
        trace = random_trace(rng, max_len=4)
        special = optimal_alignment_acyclic(trace, system)
        generic = optimal_alignment(trace, system)
        assert (special.cost, special.alignment) == (generic.cost, generic.alignment)
        assert special.cost == brute_force_oracle(trace, system)
        assert validate_alignment(special.alignment, trace, system,
                                  standard_costs(system)) == special.cost
        done += 1


def _rerouted_systems(rng):
    """Acyclic systems of three families that are not single-token S-systems,
    so the dispatcher sends each to the generic search: random layered DAGs,
    shuffle T-systems over 2-4 words and loop-free process-tree nets."""
    systems = []
    while len(systems) < 36:
        kind = len(systems) % 3
        if kind == 0:
            system = random_acyclic_system(rng)
        elif kind == 1:
            words = [tuple(random_trace(rng, max_len=2)) or ("a",)
                     for _ in range(rng.randint(2, 4))]
            system = gen_shuffle_tsystem(words)
        else:
            system = tree_to_wfnet(random_tree(rng, 3, operators=("seq", "xor", "par")))
        if system is None:
            continue
        srep = structural_class(system.net, system.initial, system.final)
        assert srep.acyclic
        if not (srep.s_net and system.initial.total() == 1):
            systems.append(system)
    return systems


def test_dispatch_sends_acyclic_systems_to_the_search():
    rng = random.Random(61)
    for system in _rerouted_systems(rng):
        trace = random_trace(rng, max_len=4)
        routed = dispatch_align(trace, system)
        searched = optimal_alignment(trace, system)
        assert routed == searched
        assert routed.algorithm == "generic"
        assert routed.cost == optimal_alignment_acyclic(trace, system).cost
        assert routed.cost == brute_force_oracle(trace, system)
        assert validate_alignment(routed.alignment, trace, system,
                                  standard_costs(system)) == routed.cost


def test_dispatch_on_an_acyclic_system_that_is_not_easy_sound():
    # A fork into q and r whose final marking asks for q alone.
    net = PetriNet(("p", "q", "r"), ("t",),
                   [("p", "t"), ("t", "q"), ("t", "r")], {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("q"))
    with pytest.raises(NotEasySound):
        optimal_alignment_acyclic(("a",), system)
    with pytest.raises(NotEasySound):
        dispatch_align(("a",), system)


def test_acyclic_dispatch_honours_the_state_budget():
    shuffle = gen_shuffle_tsystem([("a", "b"), ("c",)])
    assert dispatch_align(("a", "c", "b"), shuffle).states_expanded > 2
    with pytest.raises(BudgetExceeded):
        dispatch_align(("a", "c", "b"), shuffle, budgets=Budgets(states=2))
