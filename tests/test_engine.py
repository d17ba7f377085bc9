import dataclasses
import random
from fractions import Fraction

import pytest

from petrialign import (AcceptingSystem, Budgets, CostFunction, Label, Marking,
                        PetriNet, brute_force_oracle, build_reachability_graph,
                        dispatch_align, ex1_system, fire_sequence,
                        gen_shuffle_tsystem, lbfc_length_bound, membership,
                        min_cost_reach, optimal_alignment,
                        optimal_alignment_ssystem, parse_net, serialize_net,
                        standard_costs, trace_system, tree_to_wfnet,
                        validate_alignment)
from petrialign import engine
from petrialign.errors import (BudgetExceeded, CapExhausted, NotEasySound,
                               PetriAlignError, Unreachable)
from randgen import (product_search_cost, random_safe_system,
                     random_single_token_ssystem, random_trace, random_tree,
                     render_moves)

TRACE = ("a", "b", "a", "a")


def test_min_cost_reach_to_initial(ex1):
    cost, seq = min_cost_reach(ex1.net, ex1.initial, {}, ex1.initial)
    assert cost == 0 and seq == ()


def test_min_cost_reach_unit_costs(ex1):
    costs = {t: 1 for t in ex1.net.transitions}
    cost, seq = min_cost_reach(ex1.net, ex1.initial, costs, Marking.of("p_final"))
    assert cost == 4
    assert fire_sequence(ex1.net, ex1.initial, seq) == Marking.of("p_final")
    # deterministic witness across runs
    assert seq == min_cost_reach(ex1.net, ex1.initial, costs,
                                 Marking.of("p_final"))[1]


def test_min_cost_reach_zero_costs_is_reachability(ex1):
    reach = build_reachability_graph(ex1).vertices
    for target in reach:
        cost, seq = min_cost_reach(ex1.net, ex1.initial, {}, target)
        assert cost == 0
        assert fire_sequence(ex1.net, ex1.initial, seq) == target
    with pytest.raises(Unreachable):
        min_cost_reach(ex1.net, ex1.initial, {}, Marking.of("p1"))


def test_min_cost_reach_target_outside_the_net(ex1):
    with pytest.raises(Unreachable):
        min_cost_reach(ex1.net, ex1.initial, {}, Marking.of("p_final", "elsewhere"))


def test_optimal_alignment_deviating_trace(ex1):
    result = optimal_alignment(TRACE, ex1)
    assert result.cost == 2
    assert result.algorithm == "generic"
    assert validate_alignment(result.alignment, TRACE, ex1,
                              standard_costs(ex1)) == 2


def test_optimal_alignment_accepted_traces(ex1):
    assert optimal_alignment(("a", "b", "a", "b"), ex1).cost == 0
    assert optimal_alignment(("a", "a", "b", "b"), ex1).cost == 0


def test_optimal_alignment_empty_trace(ex1):
    result = optimal_alignment((), ex1)
    assert result.cost == 4
    assert all(m.log_part is None for m in result.alignment)


def test_optimal_alignment_letters_absent_from_the_model(ex1):
    trace = ("z", "a", "y")
    result = optimal_alignment(trace, ex1)
    assert result.cost == 5 == brute_force_oracle(trace, ex1)
    assert [m.log_part for m in result.alignment if m.model_part is None] == ["z", "y"]
    assert not membership(trace, ex1)


@pytest.mark.parametrize("letter", ["a b", "", "a,b", "é"])
def test_trace_letters_are_checked(ex1, letter):
    with pytest.raises(ValueError):
        optimal_alignment(("a", letter), ex1)
    with pytest.raises(ValueError):
        optimal_alignment_ssystem((letter,), trace_system(("a",)))


def test_zero_cost_silent_cycle_terminates():
    net = PetriNet(("p0", "p1", "p2"), ("u", "v", "ta"),
                   [("p0", "u"), ("u", "p1"), ("p1", "v"), ("v", "p0"),
                    ("p1", "ta"), ("ta", "p2")],
                   {"u": Label(None), "v": Label(None), "ta": Label("a")})
    system = AcceptingSystem(net, Marking.of("p0"), Marking.of("p2"))
    for trace in ((), ("a",), ("b", "b"), ("a", "a")):
        generic = optimal_alignment(trace, system)
        assert generic.cost == brute_force_oracle(trace, system)
        assert optimal_alignment_ssystem(trace, system) == \
            dataclasses.replace(generic, algorithm="ssystem")
        assert membership(trace, system) == (generic.cost == 0)


# Alignments and settled-state counts of the pinned tie-break
# (cost, (kind, component id), insertion order).
EX1_PINNED = {
    (): ("4", 6, ">>/t1 >>/t2 >>/t3 >>/t5"),
    ("a", "b", "a", "a"): ("2", 27, "a/t1 b/t3 a/t2 >>/t5 a/>>"),
    ("a", "b", "a", "b"): ("0", 5, "a/t1 b/t3 a/t2 b/t5"),
    ("a", "a", "b", "b"): ("0", 5, "a/t1 a/t2 b/t3 b/t5"),
    ("b", "b"): ("2", 7, ">>/t1 b/t3 >>/t2 b/t5"),
    ("a", "a", "a", "b", "b", "b", "a"): ("3", 43, "a/t1 a/t2 a/>> b/t3 b/t5 b/>> a/>>"),
}


@pytest.mark.parametrize("trace", list(EX1_PINNED))
def test_pinned_tie_break_running_example(ex1, trace):
    result = optimal_alignment(trace, ex1)
    assert (str(result.cost), result.states_expanded,
            render_moves(result.alignment)) == EX1_PINNED[trace]


def test_search_matches_product_and_oracle():
    """The on-the-fly search against least-cost reachability over the
    materialised synchronous product and against the oracle."""
    rng = random.Random(2024)
    done = 0
    while done < 60:
        if done % 2:
            system = random_single_token_ssystem(rng)
        else:
            system = random_safe_system(rng, max_places=6, max_transitions=6)
        if system is None:
            continue
        trace = random_trace(rng, max_len=5)
        result = optimal_alignment(trace, system)
        assert result.cost == product_search_cost(trace, system) == \
            brute_force_oracle(trace, system)
        if done % 2:
            assert optimal_alignment_ssystem(trace, system).cost == result.cost
        done += 1


def test_optimal_alignment_not_easy_sound(ex1):
    broken = AcceptingSystem(ex1.net, ex1.initial, Marking.of("p1"))
    with pytest.raises(NotEasySound):
        optimal_alignment((), broken)


def test_optimal_alignment_budget(ex1):
    with pytest.raises(BudgetExceeded):
        optimal_alignment(TRACE, ex1, state_budget=3)


def test_membership_running_example(ex1):
    assert membership(("a", "a", "b", "b"), ex1)
    assert membership(("a", "b", "a", "b"), ex1)
    assert not membership(TRACE, ex1)


def test_membership_empty_trace():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    assert membership((), system)


def test_membership_without_easy_soundness(ex1):
    broken = AcceptingSystem(ex1.net, ex1.initial, Marking.of("p1"))
    assert not membership(("a",), broken)


def test_oracle_running_example(ex1):
    assert brute_force_oracle(TRACE, ex1) == 2
    assert brute_force_oracle(("a", "b", "a", "b"), ex1) == 0
    assert brute_force_oracle((), ex1) == 4


def test_oracle_cap_exhausted(ex1):
    with pytest.raises(CapExhausted):
        brute_force_oracle(TRACE, ex1, cost_cap=Fraction(1))
    with pytest.raises(CapExhausted):
        brute_force_oracle(TRACE, ex1, length_cap=2)


def test_oracle_respects_length_cap(ex1):
    # 8 moves suffice for the cost-2 optimum of the running example.
    assert brute_force_oracle(TRACE, ex1, length_cap=8) == 2


def test_lbfc_length_bound_values():
    assert lbfc_length_bound(5, 1, 4) == 180
    assert lbfc_length_bound(0, 1, 3) == 4
    assert lbfc_length_bound(7, 1, 0) == 1 * 7 * 8 * 9 // 6 + 1
    with pytest.raises(ValueError):
        lbfc_length_bound(3, 0, 1)


def test_dispatch_routes(ex1):
    assert dispatch_align(TRACE, ex1).algorithm == "generic"
    line = trace_system(("a", "b"))
    assert dispatch_align(("a",), line).algorithm == "ssystem"
    shuffle = gen_shuffle_tsystem([("a", "b"), ("c",)])
    assert dispatch_align(("a", "c", "b"), shuffle).algorithm == "acyclic"


def test_dispatch_attaches_lbfc_cap(ex1):
    result = dispatch_align(TRACE, ex1)
    assert result.lbfc_cap == 180   # (4+1) * (5*6*7/6 + 1)


def test_dispatch_reads_a_one_shot_trace(ex1):
    assert dispatch_align(("a", "a", "b", "b"), ex1).cost == 0
    assert dispatch_align(iter(("a", "a", "b", "b")), ex1) == \
        dispatch_align(("a", "a", "b", "b"), ex1)
    line = trace_system(("a", "b"))
    assert dispatch_align(iter(("a",)), line) == dispatch_align(("a",), line)
    assert dispatch_align(iter(("a",)), line).cost == 1


def _outcome(f, *args, **kwargs):
    """The call's result, or the class of the package error it raised."""
    try:
        return f(*args, **kwargs)
    except PetriAlignError as exc:
        return type(exc)


def _fresh(system):
    """An equal system that no earlier call has seen."""
    return parse_net(serialize_net(system))


def _mixed_systems(rng):
    """Systems of every route: safe systems, single-token S-systems, tree
    workflow nets and shuffle T-systems.  Each tree net also comes with its
    initial marking as the final one, a second system on the same net."""
    systems = []
    while len(systems) < 15:
        kind = len(systems) % 5
        if kind == 0:
            system = random_safe_system(rng, max_places=6, max_transitions=6)
        elif kind == 1:
            system = random_single_token_ssystem(rng)
        elif kind == 2:
            system = tree_to_wfnet(random_tree(rng, 3))
        elif kind == 3:
            tree = systems[-1]
            system = AcceptingSystem(tree.net, tree.initial, tree.initial)
        else:
            words = [tuple(random_trace(rng, max_len=3)) or ("a",) for _ in range(2)]
            system = gen_shuffle_tsystem(words)
        if system is not None:
            systems.append(system)
    return systems


def test_consecutive_calls_match_fresh_systems():
    """A run that returns to a system, stays on it and leaves it again gives
    every result and verdict that a system no call has seen gives."""
    rng = random.Random(23)
    systems = _mixed_systems(rng)
    run = []
    for _ in range(40):
        system = rng.choice(systems)
        run += [(system, random_trace(rng, max_len=5)) for _ in range(rng.randint(1, 3))]
    # Each system right after another one on the same net.
    for tree, same_net in zip(systems[2::5], systems[3::5]):
        run += [(system, random_trace(rng, max_len=5)) for system in (tree, same_net, tree)]
    for f in (dispatch_align, membership):
        got = [_outcome(f, trace, system) for system, trace in run]
        # In reverse, so that no call follows the one it follows in the run.
        fresh = [_outcome(f, trace, _fresh(system)) for system, trace in reversed(run)]
        assert got == fresh[::-1]
    routes = {r.algorithm for r in (_outcome(dispatch_align, t, s) for s, t in run)
              if not isinstance(r, type)}
    assert routes == {"generic", "ssystem", "acyclic"}


def test_consecutive_calls_classify_once(monkeypatch):
    calls = []
    behavioral_class = engine.behavioral_class

    def counted(*args, **kwargs):
        calls.append(args[0])
        return behavioral_class(*args, **kwargs)

    monkeypatch.setattr(engine, "behavioral_class", counted)
    a = ex1_system()
    for _ in range(3):
        dispatch_align(TRACE, a)
    assert len(calls) == 1
    # An equal system is not the same system.
    calls.clear()
    a, b = ex1_system(), ex1_system()
    for system in (a, b, a):
        dispatch_align(TRACE, system)
    assert calls == [a, b, a]


def test_budget_keys_the_cap(ex1):
    # Classifying ex1 explores 6 markings; aligning this trace settles 5 states.
    trace = ("a", "a", "b", "b")
    caps = [dispatch_align(trace, ex1, budgets=budgets).lbfc_cap
            for budgets in (Budgets(), Budgets(states=5), Budgets())]
    assert caps == [180, None, 180]


def test_caller_costs_are_never_cached(ex1):
    c = CostFunction(labels=dict(ex1.net.labels),
                     log_overrides={"a": Fraction(1, 3), "b": Fraction(5, 2)},
                     sync_overrides={(ex1.net.label(t).name, t): Fraction(1, 5)
                                     for t in ex1.net.transitions
                                     if not ex1.net.label(t).silent},
                     model_overrides={t: Fraction(1, 7) for t in ex1.net.transitions})
    traces = [TRACE, ("b",), ("a", "b", "b"), ()]
    got = []
    for trace in traces:
        for costs in (None, c, None, c):
            got.append(dispatch_align(trace, ex1, costs))
            got.append(optimal_alignment(trace, ex1, costs))
    expected = []
    for trace in traces:
        for costs in (None, c, None, c):
            expected.append(dispatch_align(trace, _fresh(ex1), costs))
            expected.append(optimal_alignment(trace, _fresh(ex1), costs))
    assert got == expected
    # The caller's costs change the results.
    assert [r.cost for r in got[0::4]] != [r.cost for r in got[2::4]]


def test_dispatch_cost_matches_generic(ex1):
    for trace in (TRACE, (), ("b", "b")):
        auto = dispatch_align(trace, ex1)
        generic = optimal_alignment(trace, ex1)
        assert auto.cost == generic.cost


def test_exact_rational_costs(ex1):
    from petrialign.costs import CostFunction
    c = CostFunction(labels=dict(ex1.net.labels),
                     log_overrides={"a": Fraction(1, 3), "b": Fraction(1, 2)},
                     model_overrides={t: Fraction(1, 7)
                                      for t in ex1.net.transitions})
    result = optimal_alignment(TRACE, ex1, c)
    assert result.cost == brute_force_oracle(TRACE, ex1, c)
    assert result.cost == validate_alignment(result.alignment, TRACE, ex1, c)
    assert result.cost.denominator in (1, 3, 7, 21)


def test_solver_agreement_small_sample(ex1):
    rng = random.Random(5)
    done = 0
    while done < 25:
        system = random_safe_system(rng, max_places=6, max_transitions=6)
        if system is None:
            continue
        trace = random_trace(rng, max_len=4)
        assert optimal_alignment(trace, system).cost == \
            brute_force_oracle(trace, system)
        done += 1


def test_alignment_cost_never_exceeds_trivial(ex1):
    c = standard_costs(ex1)
    result = optimal_alignment(TRACE, ex1, c)
    trivial_model_cost, _ = min_cost_reach(
        ex1.net, ex1.initial,
        {t: c.model(t) for t in ex1.net.transitions}, ex1.final)
    assert result.cost <= len(TRACE) + trivial_model_cost


def test_membership_budget(ex1):
    with pytest.raises(BudgetExceeded):
        membership(("a", "b"), ex1, state_budget=1)


def test_perfect_alignment_equivalence():
    """membership(trace, S) holds iff the optimum under standard costs is 0."""
    rng = random.Random(77)
    done = 0
    while done < 40:
        system = random_safe_system(rng, max_places=6, max_transitions=6)
        if system is None:
            continue
        trace = random_trace(rng, max_len=5)
        member = membership(trace, system)
        cost = optimal_alignment(trace, system).cost
        assert member == (cost == 0)
        done += 1
