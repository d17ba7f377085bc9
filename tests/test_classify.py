import random

import pytest

from petrialign import (AcceptingSystem, Label, Marking, PetriNet,
                        behavioral_class, bounded_and_safe,
                        build_reachability_graph, fire_sequence,
                        gen_shuffle_ssystem, gen_shuffle_tsystem, is_enabled,
                        structural_class, trace_system, tree_to_wfnet)
from petrialign.errors import BudgetExceeded
from randgen import (ahead_of, behavioral_reference, marked_cycle_tsystem,
                     random_safe_system, random_single_token_ssystem,
                     random_tree)


def test_ex1_structural(ex1):
    rep = structural_class(ex1.net, ex1.initial, ex1.final)
    assert rep.free_choice
    assert rep.workflow_shape
    assert rep.source == "p_init" and rep.sink == "p_final"
    assert not rep.s_net
    assert not rep.t_net
    assert not rep.acyclic


def test_trace_system_structural():
    system = trace_system(("a", "b"))
    rep = structural_class(system.net, system.initial, system.final)
    assert rep.s_net and rep.t_net and rep.acyclic and rep.conflict_free
    assert rep.free_choice and rep.workflow_shape


def test_shuffle_tsystem_structural():
    system = gen_shuffle_tsystem([("a", "b"), ("c",)])
    rep = structural_class(system.net, system.initial, system.final)
    assert rep.t_net and rep.acyclic and rep.conflict_free
    assert not rep.s_net  # silent fork has two output places


def test_conflict_free_with_self_loops():
    net = PetriNet(("p", "q"), ("t1", "t2"),
                   [("p", "t1"), ("t1", "p"), ("p", "t2"), ("t2", "p"), ("t2", "q")],
                   {"t1": Label("a"), "t2": Label("b")})
    rep = structural_class(net, Marking.of("p"), Marking.of("q"))
    assert rep.conflict_free  # both output transitions loop back to p
    assert not rep.t_net


def test_ex1_bounded_safe(ex1):
    rep = bounded_and_safe(ex1)
    assert rep.bound_found == 1
    assert rep.safe
    assert rep.states_explored == 6
    place, marking, access = rep.certificates["bound"]
    assert fire_sequence(ex1.net, ex1.initial, access) == marking
    assert marking[place] == 1


def test_multi_token_line_bound():
    system = gen_shuffle_ssystem(tuple("PETRI"), 3)
    rep = bounded_and_safe(system)
    assert rep.bound_found == 3
    assert rep.safe is False


def test_unbounded_growth_witness():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], {"t": Label("a")})
    # Token-generating variant: t consumes p and produces p twice is not
    # expressible with unweighted arcs, so use a two-place pump instead.
    net = PetriNet(("p", "q"), ("t",), [("p", "t"), ("t", "p"), ("t", "q")],
                   {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    rep = bounded_and_safe(system, b_max=4, state_budget=100)
    assert rep.bound_found is None
    place, marking, access = rep.certificates["exceeded"]
    assert place == "q" and marking[place] == 5
    assert fire_sequence(net, system.initial, access) == marking


def test_ex1_behavioral(ex1):
    rep = behavioral_class(ex1)
    assert rep.sound and rep.easy_sound
    assert rep.safe and rep.bound_found == 1
    assert rep.quasi_live
    assert not rep.live          # the final marking is a deadlock
    assert not rep.cyclic
    assert rep.states_explored == 6


def test_ex1_alternate_final_marking(ex1):
    system = AcceptingSystem(ex1.net, ex1.initial, Marking({"p1": 1, "p4": 1}))
    rep = behavioral_class(system)
    assert rep.easy_sound
    assert not rep.sound
    assert "option_counterexample" in rep.certificates
    # proper completion still holds: nothing strictly covers {p1, p4}
    assert "proper_counterexample" not in rep.certificates


def test_trace_system_behavioral():
    system = trace_system(("a", "b"))
    rep = behavioral_class(system)
    assert rep.sound and rep.easy_sound and rep.safe
    assert not rep.live
    assert not rep.cyclic


def test_certificates_replay(ex1):
    rep = behavioral_class(ex1)
    for t, access in rep.certificates["quasi_live"].items():
        marking = fire_sequence(ex1.net, ex1.initial, access)
        assert is_enabled(ex1.net, marking, t)
    assert fire_sequence(ex1.net, ex1.initial, rep.certificates["easy_sound"]) \
        == ex1.final
    t, access = rep.certificates["live_counterexample"]
    fire_sequence(ex1.net, ex1.initial, access)   # must replay


def test_proper_completion_counterexample():
    net = PetriNet(("p", "q", "r"), ("t",), [("p", "t"), ("t", "q"), ("t", "r")],
                   {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("q"))
    rep = behavioral_class(system)
    assert not rep.sound
    marking, access = rep.certificates["proper_counterexample"]
    assert marking >= system.final and marking != system.final
    assert fire_sequence(net, system.initial, access) == marking


def test_budget_exceeded_raises(ex1):
    with pytest.raises(BudgetExceeded):
        behavioral_class(ex1, state_budget=3)


def test_budget_monotone(ex1):
    """Enlarging the budget never flips a decided flag."""
    decided = {}
    for budget in (6, 50, 1000):
        rep = behavioral_class(ex1, state_budget=budget)
        for flag in ("safe", "quasi_live", "live", "cyclic", "easy_sound", "sound"):
            value = getattr(rep, flag)
            if flag in decided:
                assert decided[flag] == value
            else:
                decided[flag] = value


def test_cyclic_system():
    net = PetriNet(("p", "q"), ("t1", "t2"),
                   [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")],
                   {"t1": Label("a"), "t2": Label("b")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    rep = behavioral_class(system)
    assert rep.cyclic and rep.live and rep.sound


def test_bounded_and_safe_budget_raises(ex1):
    with pytest.raises(BudgetExceeded):
        bounded_and_safe(ex1, state_budget=2)


def _with_random_final(rng, system):
    reach = sorted(build_reachability_graph(system).vertices,
                   key=lambda m: tuple(m.items()))
    return AcceptingSystem(system.net, system.initial, reach[rng.randrange(len(reach))])


def _two_terminal_sccs():
    """One terminal scc fires every transition, the other is the deadlock
    {d, n}: a transition live in the first terminal scc only is not live."""
    flow = [("s", "ta"), ("ta", "a"), ("s", "td"), ("td", "d"),
            ("a", "tm"), ("n", "tm"), ("tm", "a"), ("tm", "r"),
            ("a", "tn"), ("r", "tn"), ("tn", "a"), ("tn", "n"),
            ("a", "tb"), ("r", "tb"), ("tb", "s"), ("tb", "r"),
            ("d", "te"), ("r", "te"), ("te", "s"), ("te", "r")]
    transitions = ("ta", "td", "tm", "tn", "tb", "te")
    net = PetriNet(("s", "a", "d", "r", "n"), transitions, flow,
                   {t: Label("x") for t in transitions})
    return AcceptingSystem(net, Marking.of("s", "n"), Marking.of("s", "r"))


def test_live_needs_every_terminal_scc():
    system = _two_terminal_sccs()
    rep = behavioral_class(system)
    assert rep.quasi_live and not rep.live and not rep.cyclic
    assert behavioral_reference(system) == (False, False, False)


def _classifier_suite(seed):
    """Safe systems and single-token S-systems (random reachable finals, drawn
    by the generators), tree workflow nets and marked cycles, each also with a
    random reachable final marking; at most 120 markings each."""
    rng = random.Random(seed)
    suite = [_two_terminal_sccs()]
    while len(suite) < 70:
        draw = random_safe_system(rng) if len(suite) % 2 else random_single_token_ssystem(rng)
        if draw is not None:
            suite.append(draw)
    for _ in range(40):
        system = tree_to_wfnet(random_tree(rng, depth=3))
        try:
            build_reachability_graph(system, state_budget=120)
        except BudgetExceeded:
            continue
        suite += [system, _with_random_final(rng, system)]
    for _ in range(20):
        system, _ = marked_cycle_tsystem(rng)
        suite += [system, _with_random_final(rng, system)]
    return suite


def test_terminal_scc_flags_match_their_definitions():
    seen = set()
    for system in _classifier_suite(31):
        rep = behavioral_class(system)
        live, cyclic, option = behavioral_reference(system)
        assert rep.live == live
        assert rep.cyclic == cyclic
        assert ("option_counterexample" not in rep.certificates) == option
        seen |= {("live", live), ("cyclic", cyclic), ("option", option)}
    # Both verdicts of every flag occur, so each side is checked.
    assert len(seen) == 6


def test_counterexamples_witness_their_failure():
    for system in _classifier_suite(32):
        net, certs = system.net, behavioral_class(system).certificates
        if "live_counterexample" in certs:
            t, access = certs["live_counterexample"]
            ahead = ahead_of(system, fire_sequence(net, system.initial, access))
            assert t not in {u for _, u, _ in ahead.arcs}
        if "cyclic_counterexample" in certs:
            ahead = ahead_of(system, fire_sequence(net, system.initial,
                                                   certs["cyclic_counterexample"]))
            assert system.initial not in ahead.vertices
        if "option_counterexample" in certs:
            ahead = ahead_of(system, fire_sequence(net, system.initial,
                                                   certs["option_counterexample"]))
            assert system.final not in ahead.vertices


def test_free_choice_matches_the_pairwise_definition():
    """Per place, all consumers share one preset, iff any two transitions
    have equal or disjoint presets."""
    rng = random.Random(33)
    for _ in range(300):
        places = tuple(f"p{i}" for i in range(rng.randint(1, 5)))
        transitions = tuple(f"t{i}" for i in range(rng.randint(1, 5)))
        flow = {(p, t) for t in transitions
                for p in rng.sample(places, rng.randint(0, len(places)))}
        net = PetriNet(places, transitions, flow, {t: Label("a") for t in transitions})
        presets = [set(net.preset(t)) for t in transitions]
        pairwise = all(a == b or not a & b for a in presets for b in presets)
        assert structural_class(net, Marking(), Marking()).free_choice == pairwise
