import collections
import dataclasses
import functools
import heapq
import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from petrialign import (AcceptingSystem, Budgets, CostFunction, Label, Marking,
                        PetriNet, behavioral_class, brute_force_oracle,
                        build_reachability_graph, dispatch_align, enabled_transitions,
                        ex1_system, fire, fire_sequence,
                        gen_shuffle_tsystem, lbfc_cap, lbfc_length_bound, membership,
                        min_cost_reach, optimal_alignment,
                        optimal_alignment_ssystem, parse_net, parse_tree,
                        serialize_net, standard_costs, trace_system,
                        tree_to_wfnet, validate_alignment)
from petrialign import classify, engine
from petrialign.costs import Move
from petrialign.errors import (BudgetExceeded, CapExhausted, NotEasySound, NotSSystem,
                               PetriAlignError, UnknownTransition, Unreachable)
from petrialign import petri
from petrialign.petri import DEFAULT_STATE_BUDGET
from randgen import (LABEL_POOL, assert_numbered_once, assert_pinned, make_suite,
                     marked_cycle_tsystem, product_search_cost, random_acyclic_system,
                     random_replayable_walk, random_guarded_ssystem, random_safe_system,
                     random_single_token_ssystem, random_trace, random_tree,
                     random_unguarded_ssystem, render_moves, transition_sets)
from test_cli import FORK, TREE
from test_ssystem import PINNED as SSYSTEM_PINNED
from test_ssystem import bound_at, caller_costs, check_letter_bound, letter_cover

TRACE = ("a", "b", "a", "a")


def _capped_tree():
    """The sound workflow net of `test_cli.TREE`: its LBFC cap for n
    letters is (n + 1) * 287."""
    return tree_to_wfnet(parse_tree(TREE))


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
    # Tokens outside the net on which both markings agree never move.
    costs = {t: 1 for t in ex1.net.transitions}
    assert min_cost_reach(ex1.net, Marking.of("p_init", "elsewhere"), costs,
                          Marking.of("p_final", "elsewhere")) == \
        min_cost_reach(ex1.net, ex1.initial, costs, Marking.of("p_final"))


def test_min_cost_reach_rejects_unknown_cost_keys(ex1):
    with pytest.raises(UnknownTransition, match="t99"):
        min_cost_reach(ex1.net, ex1.initial, {"t1": 1, "t99": 5, "t98": 1},
                       Marking.of("p_final"))


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
    with pytest.raises(ValueError):
        trace_system(("a", letter))


def _silent_cycle_system():
    net = PetriNet(("p0", "p1", "p2"), ("u", "v", "ta"),
                   [("p0", "u"), ("u", "p1"), ("p1", "v"), ("v", "p0"),
                    ("p1", "ta"), ("ta", "p2")],
                   {"u": Label(None), "v": Label(None), "ta": Label("a")})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p2"))


def test_zero_cost_silent_cycle_terminates():
    """Every route ends on a cycle of zero-cost silent moves, at the
    oracle's cost, with a valid alignment."""
    system = _silent_cycle_system()
    costs = standard_costs(system)
    for trace in ((), ("a",), ("b", "b"), ("a", "a")):
        generic = optimal_alignment(trace, system)
        assert generic.cost == brute_force_oracle(trace, system)
        special = optimal_alignment_ssystem(trace, system)
        for result in (generic, special):
            assert validate_alignment(result.alignment, trace, system, costs) == \
                result.cost == generic.cost
        assert membership(trace, system) == (generic.cost == 0)


# Alignments and settled-state counts of the pinned tie-break: cost, then the
# later trace position, then the rank of the move's (kind, id) key, then
# insertion order (see `dijkstra_least_cost`).  ex1's ids t1 to t5 sort the
# same as strings and in declaration order; CHAINS_PINNED covers ids where
# the two orders differ.
EX1_PINNED = {
    (): ("4", 6, ">>/t1 >>/t2 >>/t3 >>/t5"),
    ("a", "b", "a", "a"): ("2", 22, "a/t1 b/t3 a/t2 a/>> >>/t5"),
    ("a", "b", "a", "b"): ("0", 5, "a/t1 b/t3 a/t2 b/t5"),
    ("a", "a", "b", "b"): ("0", 5, "a/t1 a/t2 b/t3 b/t5"),
    ("b", "b"): ("2", 9, ">>/t1 b/t3 >>/t2 b/t5"),
    ("a", "a", "a", "b", "b", "b", "a"): ("3", 32, "a/t1 a/t2 a/>> b/t3 b/t5 b/>> a/>>"),
}


@pytest.mark.parametrize("trace", list(EX1_PINNED))
def test_pinned_tie_break_running_example(ex1, trace):
    assert_pinned(optimal_alignment(trace, ex1), trace, ex1, None, EX1_PINNED[trace])


def _four_chains():
    """Four concurrent chains of three transitions each, t1 to t12, whose ids
    sort differently as strings ("t10" < "t2") than in declaration order.
    Every chain starts with an a-move, so sync moves on a tie."""
    labels = "abcabcabcacb"
    places, flow = [], []
    for k, chain in enumerate("ABCD"):
        places += [f"{chain}{j}" for j in range(4)]
        for j in range(3):
            t = f"t{3 * k + j + 1}"
            flow += [(f"{chain}{j}", t), (t, f"{chain}{j + 1}")]
    ts = tuple(f"t{i}" for i in range(1, 13))
    net = PetriNet(tuple(places), ts, flow, {t: Label(a) for t, a in zip(ts, labels)})
    return AcceptingSystem(net, Marking.of("A0", "B0", "C0", "D0"),
                           Marking.of("A3", "B3", "C3", "D3"))


def _coprime_costs(system):
    """Caller costs equal within each kind of move, whose denominators have
    an lcm of 7 * 11 * 13 * 17 * 19."""
    net = system.net
    return CostFunction(labels=dict(net.labels),
                        log_overrides={a: Fraction(5, 7 * 11) for a in "abcx"},
                        sync_overrides={(net.label(t).name, t): Fraction(1, 13)
                                        for t in net.transitions},
                        model_overrides={t: Fraction(4, 17 * 19) for t in net.transitions})


# Pinned where the string order of the ids, which the tie-break follows, and
# their declaration order disagree: sync and model moves of t1 against t10 to
# t12.  Log moves tie on position only when they leave the same one, so
# their ids decide no order.
CHAINS_PINNED = {
    ("aabbccxaabbcc", False): (
        "3", 646, "a/t1 a/t4 b/t2 b/t5 c/t3 c/t6 x/>> a/t10 a/t7 b/t8 b/>> c/t11 c/t9 >>/t12"),
    ("aabbccxaabbcc", True): (
        "319575/323323", 3584,
        ">>/t10 a/t4 a/t7 b/t5 b/t8 c/t11 c/t6 x/>> a/>> a/t1 b/t12 b/t2 c/t3 c/t9"),
    ("cabbacabcaxbc", False): (
        "3", 412, ">>/t10 c/t11 a/t1 b/t12 b/t2 a/t4 c/t3 a/t7 b/t5 c/t6 a/>> x/>> b/t8 c/t9"),
    ("cabbacabcaxbc", True): (
        "319575/323323", 3584,
        ">>/t10 c/t11 a/t7 b/t12 b/t8 a/>> c/t9 a/t4 b/t5 c/t6 a/t1 x/>> b/t2 c/t3"),
}


@pytest.mark.parametrize("word, caller_costs", list(CHAINS_PINNED))
def test_pinned_tie_break_follows_string_order(word, caller_costs):
    system = _four_chains()
    c = _coprime_costs(system) if caller_costs else None
    result = optimal_alignment(tuple(word), system, c)
    assert_pinned(result, tuple(word), system, c, CHAINS_PINNED[word, caller_costs])


# Per trace, the result with an ample budget, on ex1 and on three systems of
# random_safe_system(random.Random(65), 8, 8) with random traces.
BUDGET_PINNED = [
    [((), ("4", 6, ">>/t1 >>/t2 >>/t3 >>/t5")),
     (TRACE, ("2", 22, "a/t1 b/t3 a/t2 a/>> >>/t5")),
     (tuple("aabaabb"), ("0", 9, "a/t1 a/t2 b/t3 >>/t4 a/t1 a/t2 b/t3 b/t5")),
     (("z", "b"), ("4", 15, "z/>> >>/t1 b/t3 >>/t2 >>/t5"))],
    [(tuple("bazbzc"), ("5", 31, ">>/t3 b/>> a/t0 z/>> b/>> z/>> c/>>")),
     (tuple("baa"), ("2", 14, ">>/t3 b/>> a/t0 a/>>"))],
    [(tuple("bb"), ("3", 10, "b/>> b/>> >>/t5")),
     (tuple("czbbbba"), ("6", 28, "c/t5 z/>> b/>> b/>> b/>> b/>> a/>>"))],
    [(tuple("caabbc"), ("6", 7, "c/>> a/>> a/>> b/>> b/>> c/>>")),
     (tuple("zzc"), ("3", 4, "z/>> z/>> c/>>"))],
]


def _budget_systems():
    rng = random.Random(65)
    systems = [ex1_system()]
    while len(systems) < 4:
        system = random_safe_system(rng, max_places=8, max_transitions=8)
        if system is not None:
            systems.append(system)
    return systems


def test_budget_raise_points_are_pinned():
    """Budgets 1 to 30: a search that would settle more states than its
    budget raises on settling one more, and any other returns the pinned
    result."""
    for system, cases in zip(_budget_systems(), BUDGET_PINNED):
        for trace, expected in cases:
            assert_pinned(optimal_alignment(trace, system), trace, system, None, expected)
            for budget in range(1, 31):
                try:
                    result = optimal_alignment(trace, system, None, budget)
                except BudgetExceeded as exc:
                    assert budget < expected[1]
                    assert exc.discovered == budget + 1
                else:
                    assert (str(result.cost), result.states_expanded,
                            render_moves(result.alignment)) == expected


# Per reachable marking of ex1: the states min_cost_reach settles, and its
# witness with unit costs, which is also the one with zero costs.
REACH_PINNED = {
    ("p_init",): (1, ()),
    ("p1", "p2"): (2, ("t1",)),
    ("p2", "p3"): (3, ("t1", "t2")),
    ("p1", "p4"): (4, ("t1", "t3")),
    ("p3", "p4"): (5, ("t1", "t2", "t3")),
    ("p_final",): (6, ("t1", "t2", "t3", "t5")),
}


def test_min_cost_reach_raise_points_are_pinned(ex1):
    assert {tuple(sorted(m.support())) for m in build_reachability_graph(ex1).vertices} \
        == set(REACH_PINNED)
    for places, (settled, seq) in REACH_PINNED.items():
        for costs in ({}, {t: 1 for t in ex1.net.transitions}):
            for budget in range(1, 31):
                try:
                    got = min_cost_reach(ex1.net, ex1.initial, costs,
                                         Marking.of(*places), budget)
                except BudgetExceeded as exc:
                    assert budget < settled
                    assert exc.discovered == budget + 1
                else:
                    assert budget >= settled
                    assert got == (len(seq) if costs else 0, seq)


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


def _reference_bound(system, trace, costs):
    """The S-system route's lower bound as `_Plan.bound` defines it, on
    `Marking`s and exact costs, or None when it is off: a function of (pos,
    marking), the optimum of the relaxation on (position, transition) pairs
    from there, taken as the least cost over the first kept pair (j, t) with
    j >= pos directly: unit per letter logged before j, unit when t (or ""
    at the end) is not in the marking's `ahead`, and W(j, t), the least cost
    after the sync of letter j on t, itself the least over the next kept
    pair in O(n) pairs each (`transition_sets`)."""
    net = system.net
    visible = [t for t in net.transitions if not net.label(t).silent]
    unit = min([costs.log(a) for a in trace] + [costs.model(t) for t in visible], default=0)
    if not unit:
        return None
    ahead, follow = transition_sets(system)
    n = len(trace)
    pairs = [[t for t in visible if net.label(t).name == a] for a in trace] + [[""]]
    least = {(n, ""): Fraction(0)}
    for j in range(n - 1, -1, -1):
        for t in pairs[j]:
            least[j, t] = min(unit * (k - j - 1 + (u not in follow[t])) + least[k, u]
                              for k in range(j + 1, n + 1) for u in pairs[k])

    def h(pos, m):
        return min(unit * (j - pos + (t not in ahead[m])) + least[j, t]
                   for j in range(pos, n + 1) for t in pairs[j])

    return h


def _reference_search(system, trace, costs, must, budget, ceiling=None, h=None):
    """The search in the order `dijkstra_least_cost`'s docstring gives, on
    `Marking`s and exact costs: a plain heap of (cost + h, n - pos, rank,
    counter, cost, pos, marking) tuples, h 0 when `h` is None.  A settled
    state pushes each move that lowers its target's best cost: sync moves on
    the next letter, the log move, then model moves, each kind in
    declaration order; a marking that enables a transition of `must` yields
    the first such one's model move alone.  Ranks are the (kind, id) keys:
    sync moves by sorted id, then model moves, then the log move.  Returns
    (cost, moves, settled), and raises as the search does: BudgetExceeded on
    settling more than `budget` states, Unreachable at the first pop whose
    cost + h is above `ceiling` or when the heap runs dry."""
    net = system.net
    order = sorted(net.transitions)
    t_count = len(order)
    rank = {t: k for k, t in enumerate(order)}
    n = len(trace)
    if h is None:
        def h(pos, m):
            return 0
    best = {(0, system.initial): (Fraction(0), None, None)}
    heap = [(h(0, system.initial), n, 0, 0, Fraction(0), 0, system.initial)]
    counter = 1
    settled = 0
    while heap:
        priority, _, _, _, cost, pos, m = heapq.heappop(heap)
        if ceiling is not None and priority > ceiling:
            break
        state = (pos, m)
        if best[state][0] != cost:
            continue
        settled += 1
        if settled > budget:
            raise BudgetExceeded(settled)
        if state == (n, system.final):
            moves = []
            _, parent, move = best[state]
            while parent is not None:
                moves.append(move)
                _, parent, move = best[parent]
            return cost, tuple(reversed(moves)), settled
        enabled = enabled_transitions(net, m)
        forced = [t for t in enabled if t in must][:1]
        steps = []   # (target state, weight, rank, move)
        if pos < n and not forced:
            a = trace[pos]
            steps += [((pos + 1, fire(net, m, t)), costs.sync(a, t), rank[t], Move(a, t))
                      for t in enabled if net.label(t).name == a]
            steps.append(((pos + 1, m), costs.log(a), 2 * t_count, Move(a, None)))
        steps += [((pos, fire(net, m, t)), costs.model(t), t_count + rank[t], Move(None, t))
                  for t in forced or enabled]
        for target, w, r, move in steps:
            if target not in best or cost + w < best[target][0]:
                best[target] = (cost + w, state, move)
                heapq.heappush(heap, (cost + w + h(*target), n - target[0], r, counter,
                                      cost + w, *target))
                counter += 1
    raise Unreachable("the final state is not reached")


def _search_outcome(f, *args):
    try:
        return f(*args)
    except BudgetExceeded as exc:
        return BudgetExceeded, exc.discovered
    except Unreachable:
        return (Unreachable,)


def order_campaign(seed, suite_seed, suite_size, trees, ssystems):
    """`dijkstra_least_cost` returns the reference's cost, moves and settled
    count exactly, and raises where it raises: under the standard costs and
    seeded caller costs, with the must cut on and off, with no ceiling and
    at ceilings of cost 0 and 1, on `make_suite(suite_seed, suite_size)` and
    `trees` random trees; and, with its bound, on the S-system pins and
    random single-token S-systems, `ssystems` cases in all; on every fifth
    case also at small budgets.  Returns the outcome `Counter`s of the two
    parts: (outcome, whether the cut was on) and outcome."""
    rng = random.Random(seed)
    cases = make_suite(suite_seed, suite_size)
    cases += [(tree_to_wfnet(random_tree(rng, 3)), random_trace(rng)) for _ in range(trees)]
    outcomes = collections.Counter()
    for k, (system, trace) in enumerate(cases):
        net = system.net
        plan, uncut = engine._Plan(system), engine._Plan(system)
        uncut.must = frozenset()
        for costs in (standard_costs(system), _random_overrides(rng, system)):
            table = engine._MoveTable(plan, costs)
            scale = table.scale
            for searched, ceiling, budget in itertools.product(
                    (plan, uncut), (None, 0, scale),
                    (DEFAULT_STATE_BUDGET, 1, 3, 10) if k % 5 == 0 else (DEFAULT_STATE_BUDGET,)):
                must = searched.must
                got = _search_outcome(engine.dijkstra_least_cost, searched, trace, table,
                                      budget, ceiling)
                if type(got[0]) is int:
                    got = (Fraction(got[0], scale), *got[1:])
                assert got == _search_outcome(
                    _reference_search, system, trace, costs,
                    {net.transitions[t] for t in must}, budget,
                    None if ceiling is None else Fraction(ceiling, scale))
                outcomes[got[0] if len(got) < 3 else "aligned", bool(must)] += 1
    # The S-system route's order, g + h first: on the S-system pins and on
    # random single-token S-systems with sink and silent transitions, whose
    # traces hold a letter, d, that no transition carries.
    cases = [(make(), trace) for make, trace, _ in SSYSTEM_PINNED]
    while len(cases) < ssystems:
        system = random_guarded_ssystem(rng)
        if system is not None:
            cases.append((system, random_trace(rng, max_len=6, alphabet=(*LABEL_POOL, "d"))))
    guided = collections.Counter()
    for k, (system, trace) in enumerate(cases):
        plan, uncut = engine._Plan(system), engine._Plan(system)
        uncut.must = frozenset()
        for costs in (standard_costs(system), caller_costs(rng, system)):
            table = engine._MoveTable(plan, costs)
            bound, h = plan.bound(trace, table), _reference_bound(system, trace, costs)
            assert (bound is None) == (h is None)
            if bound is None:
                continue
            for m in plan.rows:
                for pos in range(len(trace) + 1):
                    assert Fraction(bound_at(bound, pos, m), table.scale) == \
                        h(pos, plan.markings[m])
            for searched, budget in itertools.product(
                    (plan, uncut),
                    (DEFAULT_STATE_BUDGET, 1, 3) if k % 5 == 0 else (DEFAULT_STATE_BUDGET,)):
                got = _search_outcome(engine.dijkstra_least_cost, searched, trace, table,
                                      budget, None, searched.bound(trace, table))
                if type(got[0]) is int:
                    got = (Fraction(got[0], table.scale), *got[1:])
                assert got == _search_outcome(
                    _reference_search, system, trace, costs,
                    {system.net.transitions[t] for t in searched.must}, budget, None, h)
                guided[got[0] if len(got) < 3 else "aligned"] += 1
    return outcomes, guided


def test_search_follows_its_documented_order():
    """The order campaign on its tier-1 seeds and sizes reaches every
    outcome, with the cut on and off, and the guided search both aligns and
    runs out of budget."""
    outcomes, guided = order_campaign(35, 29, 300, 40, 45)
    assert len(outcomes) == 6 and min(outcomes.values()) > 10
    assert guided[BudgetExceeded] > 5 and guided["aligned"] > 100


def _edge_system():
    """p0 -a-> p1 -b-> p0, from and to p0; c only on tc, whose input place
    p2 no reachable marking marks; and a silent ts from p1 to p3, a dead end
    whose silent closure never holds the final marking."""
    net = PetriNet(("p0", "p1", "p2", "p3"), ("ta", "tb", "tc", "ts"),
                   [("p0", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "p0"),
                    ("p2", "tc"), ("tc", "p1"), ("p1", "ts"), ("ts", "p3")],
                   {"ta": Label("a"), "tb": Label("b"), "tc": Label("c"), "ts": Label(None)})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p0"))


@pytest.mark.parametrize("trace,start", [
    ((), (0, 0)),                       # the empty trace
    (("x", "y"), (2, 2)),               # letters no transition carries
    (("c",), (1, Fraction(1, 2))),      # a letter only an unreachable transition carries
    (("a", "c", "b"), (1, Fraction(1, 2))),   # c between a and b: log it
])
def test_letter_bound_edge_cases(trace, start):
    """The bound equals `_reference_bound` at every state (pos, reachable
    marking), takes the pinned value at the start under the standard costs
    and under caller costs on a scale of 4, where it is at most the optimum,
    and is unit at the end on the dead end p3; `check_letter_bound` finds it
    consistent and the route exact."""
    system = _edge_system()
    quarters = CostFunction(labels=dict(system.net.labels),
                            log_overrides={"x": Fraction(3, 2), "c": Fraction(1, 2)},
                            model_overrides={"tb": Fraction(5, 4)})
    for costs, value in zip((None, quarters), start):
        table_costs = costs or standard_costs(system)
        plan = engine._Plan(system)
        table = engine._MoveTable(plan, table_costs)
        bound = plan.bound(trace, table)
        h = _reference_bound(system, trace, table_costs)
        assert table.scale == (1 if costs is None else 4)
        markings = {plan.markings[m]: m for m in plan.rows}
        assert set(markings) == {Marking.of(p) for p in ("p0", "p1", "p3")}
        for marking, m in markings.items():
            for pos in range(len(trace) + 1):
                assert Fraction(bound_at(bound, pos, m), table.scale) == h(pos, marking)
        assert h(0, system.initial) == value <= brute_force_oracle(trace, system, table_costs)
        assert h(len(trace), Marking.of("p3")) == Fraction(bound[3], table.scale)
        assert check_letter_bound(system, trace, costs)[0]


def _two_a_system():
    """A single-token S-system from and to p0 whose letter a is on two
    transitions to different places: ta1 from p0 to p1, which reaches no b
    silently, and ta2 from p4 to p2, whose silent cycle with p3 reaches tb,
    back to p0.  From p1, c leads on to p4 and a silent sink tz empties the
    net."""
    net = PetriNet(("p0", "p1", "p2", "p3", "p4"), ("ta1", "ta2", "tb", "tc", "ts", "tr", "tz"),
                   [("p0", "ta1"), ("ta1", "p1"), ("p4", "ta2"), ("ta2", "p2"),
                    ("p3", "tb"), ("tb", "p0"), ("p1", "tc"), ("tc", "p4"),
                    ("p2", "ts"), ("ts", "p3"), ("p3", "tr"), ("tr", "p2"), ("p1", "tz")],
                   {"ta1": Label("a"), "ta2": Label("a"), "tb": Label("b"), "tc": Label("c"),
                    "ts": Label(None), "tr": Label(None), "tz": Label(None)})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p0"))


def test_transition_bound_beats_letter_bound():
    """On trace a b the letter relaxation lets a (on ta1, from p0) be
    followed by b (through ta2's place) for free, so it reads 0 at the
    start; keeping transitions, the bound pays for a b after ta1, or for
    ta2 out of p0, and reads unit.  Both are at most the optimum, 2 log
    moves.  Under the standard costs and caller costs on a scale of 4, the
    bound equals `_reference_bound` at every (pos, reachable marking), the
    empty one included, and is at least `letter_cover` there."""
    system = _two_a_system()
    trace = ("a", "b")
    quarters = CostFunction(labels=dict(system.net.labels),
                            log_overrides={"a": Fraction(1, 2), "b": Fraction(3, 4)},
                            model_overrides={"tc": Fraction(5, 4)})
    for costs, unit in ((None, 1), (quarters, Fraction(1, 2))):
        table_costs = costs or standard_costs(system)
        plan = engine._Plan(system)
        table = engine._MoveTable(plan, table_costs)
        bound = plan.bound(trace, table)
        h = _reference_bound(system, trace, table_costs)
        letter = letter_cover(system, trace, unit)
        markings = {plan.markings[m]: m for m in plan.rows}
        assert set(markings) == {*(Marking.of(p) for p in system.net.places), Marking()}
        for marking, m in markings.items():
            for pos in range(len(trace) + 1):
                assert Fraction(bound_at(bound, pos, m), table.scale) == h(pos, marking) >= \
                    letter(pos, marking)
        assert letter(0, system.initial) == 0
        assert h(0, system.initial) == unit < brute_force_oracle(trace, system, table_costs)
        assert check_letter_bound(system, trace, costs) == (True, True)


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


def test_oracle_not_easy_sound_without_caps(ex1):
    """With no length cap the oracle decides that no alignment exists, and
    raises what optimal_alignment raises; with one it cannot tell."""
    broken = AcceptingSystem(ex1.net, ex1.initial, Marking.of("p1"))
    for trace in (("a",), ()):
        with pytest.raises(NotEasySound):
            optimal_alignment(trace, broken)
        with pytest.raises(NotEasySound):
            brute_force_oracle(trace, broken)
        with pytest.raises(NotEasySound):
            brute_force_oracle(trace, broken, cost_cap=Fraction(5))
        with pytest.raises(CapExhausted):
            brute_force_oracle(trace, broken, length_cap=50)


def test_lbfc_length_bound_values():
    assert lbfc_length_bound(5, 1, 4) == 180
    assert lbfc_length_bound(0, 1, 3) == 4
    assert lbfc_length_bound(7, 1, 0) == 1 * 7 * 8 * 9 // 6 + 1
    for t_count, b, trace_len in ((3, 0, 1), (-1, 1, 1), (3, 1, -1)):
        with pytest.raises(ValueError):
            lbfc_length_bound(t_count, b, trace_len)


def test_dispatch_routes(ex1):
    assert dispatch_align(TRACE, ex1).algorithm == "generic"
    line = trace_system(("a", "b"))
    assert dispatch_align(("a",), line).algorithm == "ssystem"
    shuffle = gen_shuffle_tsystem([("a", "b"), ("c",)])
    assert dispatch_align(("a", "c", "b"), shuffle).algorithm == "generic"


def test_dispatch_attaches_lbfc_cap(ex1):
    tree = _capped_tree()
    assert lbfc_cap(tree, len(TRACE)) == 1435   # (4+1) * (1*11*12*13/6 + 1)
    assert lbfc_cap(tree, 0) == 287
    with pytest.raises(ValueError):
        lbfc_cap(tree, -1)
    # ex1 is neither live nor a workflow net.
    assert lbfc_cap(ex1, len(TRACE)) is None and lbfc_cap(ex1, 0) is None
    with pytest.raises(ValueError):
        lbfc_cap(ex1, -1)


def test_a_source_place_with_an_input_arc_gets_no_workflow_cap(ex1):
    """A workflow net's source place has no input arc.  t4 refills ex1's
    p_init, and tc the first place p0 of `back`: both systems are sound,
    safe and free-choice but not live, and neither is a workflow net, so
    neither gets the cap of a sound workflow net.  Without tc, `back` is
    one and gets it."""
    line = ("place p0 init=1\nplace p1\nplace pf final=1\n"
            "trans ta label=a in=p0 out=p1\ntrans tb label=b in=p1 out=pf\n")
    back = parse_net(line + "trans tc label=c in=p1 out=p0\n")
    for system in (ex1, back):
        rep = behavioral_class(system)
        assert rep.sound and rep.safe and not rep.live
        srep = classify.structural_class(system.net, system.initial, system.final)
        assert srep.free_choice and not srep.workflow_shape
        assert system.net.preset(system.initial.support()[0])
        assert lbfc_cap(system, 4) is None
    assert lbfc_cap(parse_net(line), 4) == lbfc_length_bound(2, 1, 4)


# The search's work as counts: per family and route, the ops, the states
# settled and the cost summed over a seeded suite (random.Random(2121); 20
# systems a family, four random traces each).  Costs are fixed by the
# problem; the states change with any change of the search's order or
# pruning, and this table shows it.  The "ssystem" rows count the S-system
# route's A* (see `dijkstra_least_cost`).
WORK_PINNED = {
    ("acyclic", "generic"): (76, 1246, 366),
    ("acyclic", "ssystem"): (4, 42, 23),
    ("safe", "generic"): (80, 716, 398),
    ("ssystem", "ssystem"): (80, 613, 268),
    ("tree", "generic"): (40, 4014, 117),
    ("tree", "ssystem"): (40, 287, 167),
}


def test_dispatch_work_is_pinned():
    families = {
        "safe": random_safe_system,
        "ssystem": random_single_token_ssystem,
        "acyclic": random_acyclic_system,
        "tree": lambda rng: tree_to_wfnet(random_tree(rng, 4)),
    }
    rng = random.Random(2121)
    work = {}
    for family, make in families.items():
        systems = []
        while len(systems) < 20:
            system = make(rng)
            if system is not None:
                systems.append(system)
        for system in systems:
            for _ in range(4):
                trace = random_trace(rng, max_len=10)
                result = dispatch_align(trace, system)
                if result.algorithm == "ssystem":
                    # The polynomial bound of single-token S-systems.
                    assert result.states_expanded <= \
                        (len(trace) + 1) * (len(system.net.places) + 1)
                ops, states, cost = work.get((family, result.algorithm), (0, 0, 0))
                work[family, result.algorithm] = (
                    ops + 1, states + result.states_expanded, cost + result.cost)
    assert work == WORK_PINNED


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
    assert routes == {"generic", "ssystem"}


def test_consecutive_calls_classify_once(monkeypatch):
    """Each cap classifies its system once, and the dispatcher classifies
    nothing for the cap."""
    calls = []
    behavioral = engine.behavioral_class

    def counted(*args, **kwargs):
        calls.append(args[0])
        return behavioral(*args, **kwargs)

    monkeypatch.setattr(engine, "behavioral_class", counted)
    a = _capped_tree()
    assert [lbfc_cap(a, n) for n in (0, 1, 2)] == [287, 574, 861]
    assert calls == [a, a, a]
    # An equal system is not the same system.
    calls.clear()
    a, b = _capped_tree(), _capped_tree()
    for system in (a, b, a):
        lbfc_cap(system, len(TRACE))
    assert calls == [a, b, a]
    # The dispatcher computes no cap.
    calls.clear()
    for system in (a, b, a):
        dispatch_align(TRACE, system)
    assert calls == []
    # ex1 is classified too, and gets no cap.
    e = ex1_system()
    assert lbfc_cap(e, 0) is None and calls == [e]


def test_budget_keys_the_cap(ex1):
    # Classifying the tree's net explores 11 markings.
    tree = _capped_tree()
    caps = [lbfc_cap(tree, 4, budget)
            for budget in (DEFAULT_STATE_BUDGET, 10, DEFAULT_STATE_BUDGET)]
    assert caps == [1435, None, 1435]
    # ex1 gets none under any budget.
    caps = [lbfc_cap(ex1, 4, budget) for budget in (DEFAULT_STATE_BUDGET, 5, DEFAULT_STATE_BUDGET)]
    assert caps == [None, None, None]


@pytest.mark.parametrize("text", [
    # src makes tokens on p1 from nothing.
    "place p0 init=1\nplace p1\nplace pf final=1\ntrans ta label=a in=p0 out=p1\n"
    "trans tb label=b in=p1 out=pf\ntrans src label=c in= out=p1\ntrans tk label=d in=p1 out=\n",
    # u reads p and puts it back, and makes a token on q.
    "place p init=1\nplace q\nplace f final=1\ntrans u label=~ in=p out=p,q\n"
    "trans ta label=a in=p out=p\ntrans tz label=z in=p out=f\n",
], ids=["visible_source", "silent_self_loop"])
def test_a_pump_gives_no_cap_without_a_walk(monkeypatch, text):
    """A transition that consumes nothing and produces a token leaves the net
    unbounded or itself dead, so the cap is None before any walk."""
    def walk(*args, **kwargs):
        raise AssertionError("lbfc_cap walked the net")

    monkeypatch.setattr(engine, "behavioral_class", walk)
    assert lbfc_cap(parse_net(text), 8) is None


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
    # Int and float costs price as the Fractions they equal exactly.
    net = ex1.net
    visible = [t for t in net.transitions if not net.label(t).silent]

    def costs(log_b, sync, model):
        return CostFunction(labels=dict(net.labels), log_overrides={"a": 2, "b": log_b},
                            sync_overrides={(net.label(t).name, t): sync for t in visible},
                            model_overrides={t: model for t in net.transitions})

    numbers = costs(0.5, 0.1, 3)
    fractions = costs(Fraction(1, 2), Fraction(0.1), Fraction(3))
    for trace in (TRACE, ("b", "a", "b"), ()):
        got = optimal_alignment(trace, ex1, numbers)
        assert got == optimal_alignment(trace, ex1, fractions)
        assert dispatch_align(trace, ex1, numbers).cost == got.cost
        assert type(got.cost) is Fraction
        # The oracle and the replay price the same exact values.
        for cost in (brute_force_oracle(trace, ex1, numbers),
                     validate_alignment(got.alignment, trace, ex1, numbers)):
            assert cost == got.cost and type(cost) is Fraction
    assert optimal_alignment(TRACE, ex1, numbers).cost.denominator == 2**55


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


# Membership on the model graph: consecutive calls on one system object reuse
# the rows and views of the markings earlier calls visited.

def _warm_and_fresh_calls(system, calls):
    """The outcomes of the (op, word, state budget) calls, made in order on
    `system`, and those of each call made on a system no call has seen.  The
    fresh calls come first, so that none of them replaces `system`'s plan."""
    fresh = [_outcome(op, word, _fresh(system), budget) for op, word, budget in calls]
    warm = [_outcome(op, word, system, budget) for op, word, budget in calls]
    return warm, fresh


def _warm_and_fresh(system, calls):
    """`_warm_and_fresh_calls` for (word, state budget) membership calls."""
    return _warm_and_fresh_calls(system, [(membership, word, budget) for word, budget in calls])


PUMP_LETTERS = "abcdefgh"


def _pump_system():
    """A silent transition pumps tokens onto p1 without bound; each letter of
    PUMP_LETTERS loops on p0, and only `z` reaches the final marking."""
    letters = PUMP_LETTERS
    transitions = ("u", "tz") + tuple(f"t{a}" for a in letters)
    flow = [("p0", "u"), ("u", "p0"), ("u", "p1"), ("p0", "tz"), ("tz", "p_end")]
    flow += [arc for a in letters for arc in (("p0", f"t{a}"), (f"t{a}", "p0"))]
    labels = {"u": Label(None), "tz": Label("z")}
    labels.update({f"t{a}": Label(a) for a in letters})
    net = PetriNet(("p0", "p1", "p_end"), transitions, flow, labels)
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p_end"))


def test_warm_membership_matches_fresh_systems():
    """Every word of length at most 4 over a system's alphabet, words with a
    letter no transition carries and the empty word, asked in a shuffled
    order of one system object, get the verdicts of fresh systems."""
    rng = random.Random(41)
    systems = [ex1_system()]
    while len(systems) < 7:
        system = random_safe_system(rng, max_places=6, max_transitions=6)
        if system is not None:
            systems.append(system)
    systems += [tree_to_wfnet(random_tree(rng, 3)) for _ in range(6)]
    accepted = 0
    for system in systems:
        labels = [system.net.label(t) for t in system.net.transitions]
        alphabet = sorted({label.name for label in labels if not label.silent})
        assert "z" not in alphabet
        words = [w for n in range(5) for w in itertools.product(alphabet, repeat=n)]
        words += [("z",), ("z", "z")] + [w for a in alphabet for w in ((a, "z"), ("z", a))]
        rng.shuffle(words)
        warm, fresh = _warm_and_fresh(system, [(word, DEFAULT_STATE_BUDGET) for word in words])
        assert warm == fresh, str(system.net)
        accepted += warm.count(True)
        for word, verdict in list(zip(words, warm))[::9]:
            assert verdict == (optimal_alignment(word, system).cost == 0)
    assert accepted > 10


def test_a_raise_leaves_a_usable_cache(ex1):
    """Calls that exceed their budget part-way, followed by calls with larger
    budgets, give every verdict and every raise that fresh systems give.  A
    letter that is no token is carried by no transition, so it reads False
    at every budget, whether the automaton or the search answers.  A final
    marking that no firing reaches reads False, never NotEasySound."""
    words = [(), ("a", "a", "b", "b"), ("a", "b", "a", "b"), TRACE,
             ("a", "a", "b", "a", "a", "b", "b"), ("b",), ("a b",)]
    calls = [(word, budget) for budget in range(1, 21) for word in words]
    calls += [(word, DEFAULT_STATE_BUDGET) for word in words]
    warm, fresh = _warm_and_fresh(ex1, calls)
    assert warm == fresh
    assert BudgetExceeded in warm and True in warm and False in warm
    assert all(got is False for (word, _), got in zip(calls, warm) if word == ("a b",))
    pump = _pump_system()
    calls = [(word, budget) for budget in range(1, 21)
             for word in [("z",), (), ("a", "z"), ("z", "a"), ("b", "a", "z"), ("a b",)]]
    warm, fresh = _warm_and_fresh(pump, calls)
    assert warm == fresh
    assert BudgetExceeded in warm and True in warm
    assert all(got is False for (word, _), got in zip(calls, warm) if word == ("a b",))
    fork = parse_net(FORK)
    calls = [(word, budget) for budget in [*range(1, 6), DEFAULT_STATE_BUDGET]
             for word in [(), ("a",), ("a", "a"), ("b",)]]
    warm, fresh = _warm_and_fresh(fork, calls)
    assert warm == fresh
    assert NotEasySound not in warm
    assert all(got is False for (_, budget), got in zip(calls, warm)
               if budget == DEFAULT_STATE_BUDGET)


def test_a_pumping_closure_is_given_up_at_once():
    """The pump's silent transition makes its start closure infinite: the
    first row shows it, so a cold call answers through the search with the
    graph holding that row alone, not a closure walked to the budget."""
    pump = _pump_system()
    assert membership(("z",), pump, 50_000)
    graph = engine._plan(pump, DEFAULT_STATE_BUDGET)
    assert graph.size <= 3 and len(graph.markings) <= 3, (graph.size, len(graph.markings))
    assert graph.states == [] and graph.start is None


def _automaton_entries(graph):
    """The graph's subset-automaton entries as `size` counts them: the
    markings of each state, and one per step."""
    return sum(graph.sizes) + sum(map(len, graph.steps))


def test_successor_cache_stays_within_its_bound():
    """On an unbounded net, membership calls get an empty graph once it holds
    more markings, or rows and automaton entries, than their budget.  A call
    with budget b adds at most b rows and automaton entries while it walks
    the subset automaton, and its search at cost ceiling 0 settles at most b
    states, each adding at most one row, so after it the graph holds at most
    3b rows and automaton entries, and 3b markings, whatever the budgets of
    the calls before.  A word that never reaches `z` is no member, and the
    pump gives it endless states of cost 0, so it passes every budget."""
    pump = _pump_system()
    budgets = [60, 10, 50, 20, 40, 5, 30, 15]
    calls = [((a, "a"), budget) for a, budget in zip(PUMP_LETTERS * 2, budgets * 2)]
    warm, fresh = _warm_and_fresh(pump, calls)
    assert warm == fresh == [BudgetExceeded] * len(calls)
    entries, markings = [], []
    for word, budget in calls:
        _outcome(membership, word, pump, budget)
        graph = engine._plan(pump, DEFAULT_STATE_BUDGET)
        entries.append(graph.size)
        markings.append(len(graph.markings))
        assert graph.size == len(graph.rows) + _automaton_entries(graph)
        assert graph.size <= 3 * budget, (budget, graph.size)
        assert len(graph.markings) <= 3 * budget, (budget, len(graph.markings))
    # Without the emptying, the graph would keep at least the first call's 30
    # rows, above 3b for the budgets below 10.
    assert any(later < earlier for earlier, later in zip(entries, entries[1:]))
    assert any(later < earlier for earlier, later in zip(markings, markings[1:]))


# Per word, in `itertools.product` order from the shortest: T or F and the
# least state budget at which membership answers True or False, or R when it
# raises at every budget up to 30.  Recorded on the search at cost ceiling 0,
# which counts the states it settles, where the depth-first search it
# replaced counted the states it kept.
MEMBER_TREE = "seq(a, loop(par(b, xor(c, tau)), tau), xor(a, seq(c, b)))"
MEMBER_PINNED = [
    (ex1_system, "ab", 5, """
    F1 F2 F1 F3 F3 F1 F1 F3 F5 F5 F3 F1 F1 F1 F1 F3 F3 F6 T5 F6 T5 F3 F3 F1 F1
    F1 F1 F1 F1 F1 F1 F3 F3 F3 F3 F7 F7 F6 F6 F7 F7 F6 F6 F3 F3 F3 F3 F1 F1 F1
    F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1
    """),
    (_pump_system, "az", 3, """
    R R T2 R T3 R R R T4 R R R R R R
    """),
    (lambda: tree_to_wfnet(parse_tree(MEMBER_TREE)), "abc", 4, """
    F1 F5 F1 F1 F5 F12 F6 F1 F1 F1 F1 F1 F1 F5 F5 F5 T10 F19 F19 F6 F12 F6 F1 F1
    F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F5 F5 F5 F5 F5 F5 F5 F5 F5
    F13 F13 F13 T16 F26 F26 T10 T24 F21 F6 F6 F6 T10 F19 F14 F6 F6 F6 F1 F1 F1
    F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1
    F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1 F1
    F1
    """),
]


def test_membership_raise_points_are_pinned():
    """Budgets 1 to 30, asked in turn of one system object: a call that would
    settle more states than its budget raises on settling one more, and any
    other gives the pinned verdict."""
    for make, alphabet, longest, pinned in MEMBER_PINNED:
        system = make()
        words = [w for n in range(longest + 1) for w in itertools.product(alphabet, repeat=n)]
        pinned = pinned.split()
        assert len(pinned) == len(words)
        for word, token in zip(words, pinned):
            least = 31 if token == "R" else int(token[1:])
            for budget in range(1, 31):
                try:
                    got = membership(word, system, budget)
                except BudgetExceeded as exc:
                    got = ("raised", exc.discovered)
                assert got == (("raised", budget + 1) if budget < least
                               else token[0] == "T"), (word, budget)


def test_warm_membership_on_a_zero_cost_silent_cycle():
    system = _silent_cycle_system()
    words = [w for n in range(5) for w in itertools.product(("a", "b"), repeat=n)]
    warm, fresh = _warm_and_fresh(system, [(word, DEFAULT_STATE_BUDGET) for word in words * 2])
    assert warm == fresh
    assert warm.count(True) == 2


def _counted_fires(monkeypatch):
    """A list that collects each transition fired through `petri.fire` from
    now on: the model graph fires through that module-global function."""
    fired = []
    fire = petri.fire

    def counted(net, marking, t):
        fired.append(t)
        return fire(net, marking, t)

    monkeypatch.setattr(petri, "fire", counted)
    return fired


def test_successor_cache_is_scoped_to_one_system_object(monkeypatch):
    fired = _counted_fires(monkeypatch)
    word = ("a", "a", "b", "b")
    a, b = ex1_system(), ex1_system()
    assert membership(word, a)
    first = len(fired)
    assert first > 0
    # The same word on the same object fires nothing again.
    assert membership(word, a)
    assert len(fired) == first
    # An equal but distinct system shares nothing with it.
    assert membership(word, b)
    assert len(fired) == 2 * first
    # A call on another system in between dropped `a`'s successors.
    assert membership(word, a)
    assert len(fired) == 3 * first


# Membership on the subset automaton against the search it falls back to,
# the alignment search at cost ceiling 0: the fallback on a fresh graph is
# the reference.

def _raised_with_count(f, *args):
    """The call's result, or ("raised", the count) when it exceeds its budget."""
    try:
        return f(*args)
    except BudgetExceeded as exc:
        return ("raised", exc.discovered)


def _fallback_outcomes(system, calls):
    """The outcome of each (word, state budget) membership call, with its
    count when it raises, made on one fresh system object with the automaton
    switched off: membership's fallback on a graph that no automaton reads."""
    fresh = _fresh(system)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine._Plan, "_state", lambda *args: None)
        return [_raised_with_count(membership, word, fresh, budget) for word, budget in calls]


def _automaton_systems():
    """(system, letters, whether its state space is finite): `make_suite`
    systems, tree nets, shuffle T-systems, the silent cycle and the pump,
    each with its alphabet plus `z`, which only the pump's transitions carry."""
    rng = random.Random(97)
    systems = [system for system, _ in make_suite(97, 10)]
    systems += [tree_to_wfnet(random_tree(rng, 3)) for _ in range(4)]
    systems += [gen_shuffle_tsystem([tuple(random_trace(rng, max_len=3)) or ("a",)
                                     for _ in range(2)]) for _ in range(2)]
    systems.append(_silent_cycle_system())
    # A silent cycle under a letter's self-loop: a word a...a passes one
    # state of two markings once per letter, so its states outnumber what
    # the graph holds, and small budgets find the automaton warm.
    net = PetriNet(("p0", "p1", "p2"), ("u", "v", "ta", "tb"),
                   [("p0", "u"), ("u", "p1"), ("p1", "v"), ("v", "p0"),
                    ("p0", "ta"), ("ta", "p0"), ("p1", "tb"), ("tb", "p2")],
                   {"u": Label(None), "v": Label(None), "ta": Label("a"), "tb": Label("b")})
    systems.append(AcceptingSystem(net, Marking.of("p0"), Marking.of("p2")))
    cases = [(system, _visible_alphabet(system) + ["z"], True) for system in systems]
    return cases + [(_pump_system(), ["a", "b", "z"], False)]


def test_the_automaton_gives_the_outcomes_of_the_search(monkeypatch):
    """Every word of length at most 4 over a system's letters, at budgets 1 to
    30 and the default, asked in a shuffled order of one system object, and a
    sample of them each asked first of a fresh object, get the verdict or the
    raise, with its count, of membership's fallback on a fresh graph.  The
    pump's state space is infinite, so it gets the small budgets only.  At
    the default budget the automaton answers every call, and a repeated call
    fires nothing and adds nothing to the graph."""
    rng = random.Random(98)
    cases = []
    for system, letters, finite in _automaton_systems():
        words = [w for n in range(5) for w in itertools.product(letters, repeat=n)]
        budgets = list(range(1, 31)) + ([DEFAULT_STATE_BUDGET] if finite else [])
        calls = [(word, budget) for word in words for budget in budgets]
        rng.shuffle(calls)
        cases.append((system, words, finite, calls, _fallback_outcomes(system, calls)))
    search = engine.dijkstra_least_cost
    searched = []

    def counted(*args, **kwargs):
        searched.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(engine, "dijkstra_least_cost", counted)
    fired = _counted_fires(monkeypatch)
    asked = 0
    for system, words, finite, calls, expected in cases:
        warm = [_raised_with_count(membership, word, system, budget) for word, budget in calls]
        assert warm == expected, str(system.net)
        fresh = [_raised_with_count(membership, word, _fresh(system), budget)
                 for word, budget in calls[::13]]
        assert fresh == expected[::13], str(system.net)
        asked += len(calls) + len(fresh)
        if not finite:
            continue
        searches = len(searched)
        for word in words:
            membership(word, system)
            graph = engine._plan(system, DEFAULT_STATE_BUDGET)
            assert graph.size == len(graph.rows) + _automaton_entries(graph)
            before = len(fired), graph.size, len(graph.markings)
            membership(word, system)
            assert (len(fired), graph.size, len(graph.markings)) == before
        assert len(searched) == searches
    # The small budgets send some words to the search, but fewer than half.
    assert 0 < len(searched) < asked / 2


def _markings_after(graph, system, word, limit):
    """The markings m with (m, len(word)) reachable from (initial, 0) by the
    moves of cost 0 for `word`, its sync moves and the silent model moves,
    found by a plain search over `graph`'s rows, or None when that space
    holds more than `limit` states."""
    labels = graph.labels
    start = (graph.number(system.initial), 0)
    seen, stack = {start}, [start]
    while stack:
        m, pos = stack.pop()
        for t, s in graph.row(m):
            if labels[t] is None:
                nxt = (s, pos)
            elif pos < len(word) and labels[t] == word[pos]:
                nxt = (s, pos + 1)
            else:
                continue
            if nxt not in seen:
                if len(seen) == limit:
                    return None
                seen.add(nxt)
                stack.append(nxt)
    return {graph.markings[m] for m, pos in seen if pos == len(word)}


def test_each_automaton_state_is_the_searchs_markings_at_its_position():
    """After each prefix of every word of length at most 3 over a system's
    letters, the state the subset automaton reaches holds exactly the
    markings that the moves of cost 0 reach at that position, and
    accepts iff the final marking is one of them.  Under a small ceiling a
    step may be refused, but never made wrong or made past the ceiling;
    under a large one every finite state is made.  The pump's start closure
    is infinite, so no state of it is ever made."""
    limit = 1_000
    made = refused = 0
    for system, letters, finite in _automaton_systems():
        reference = engine._Plan(system)
        words = [w for n in range(4) for w in itertools.product(letters, repeat=n)]
        # Every prefix of a word is one of the words.
        expected = {w: _markings_after(reference, system, w, limit) for w in words}
        assert {v is None for v in expected.values()} == {not finite}
        for budget in [1, 2, 3, 5, 8, 13, 30] + ([limit] if finite else []):
            graph = engine._Plan(system)
            for word in words:
                top = graph.size + budget
                k = graph._state({graph.ends[0]}, top)
                for n in range(len(word) + 1):
                    if n:
                        k = graph.subset_step(k, word[n - 1], top)
                    assert graph.size <= top
                    if k is None:
                        assert budget < limit, (str(system.net), word[:n])
                        refused += 1
                        break
                    markings = {graph.markings[m] for m in graph.states[k]}
                    assert markings == expected[word[:n]], (str(system.net), word[:n])
                    assert graph.accepting[k] == (system.final in markings)
                    made += 1
    assert made > 10_000 and refused > 100


# The search's model graph: consecutive alignments on one system object share
# its numbered markings and each marking's enabled moves, whatever the costs.

def _generic(trace, system, budget, costs=None):
    return optimal_alignment(trace, system, costs, budget)


def _dispatch(trace, system, budget, costs=None):
    return dispatch_align(trace, system, costs, Budgets(states=budget))


def _visible_alphabet(system):
    net = system.net
    return sorted({net.label(t).name for t in net.transitions if not net.label(t).silent})


def _noisy_run(rng, system, max_len=24):
    """The letters of a random firing sequence, each dropped, replaced or
    followed by another letter with probability 0.1."""
    net = system.net
    word = []
    for t in random_replayable_walk(rng, system, max_len):
        label = net.label(t)
        if label.silent:
            continue
        roll = rng.random()
        if roll < 0.1:
            continue
        word.append(rng.choice(LABEL_POOL) if roll < 0.2 else label.name)
        if roll > 0.9:
            word.append(rng.choice(LABEL_POOL + ("z",)))
    return tuple(word)


def _route_systems(rng):
    """ex1 plus seeded systems of every route: safe systems, single-token
    S-systems, tree workflow nets and shuffle T-systems."""
    def shuffle(rng):
        return gen_shuffle_tsystem([tuple(random_trace(rng, max_len=3)) or ("a",)
                                    for _ in range(2)])

    def safe(rng):
        return random_safe_system(rng, max_places=6, max_transitions=6)

    def tree(rng):
        return tree_to_wfnet(random_tree(rng, 3))

    systems = [ex1_system()]
    for draw in (safe, random_single_token_ssystem, tree, shuffle):
        drawn = []
        while len(drawn) < 3:
            system = draw(rng)
            if system is not None:
                drawn.append(system)
        systems += drawn
    return systems


def test_warm_alignments_match_fresh_systems():
    """Shuffled traces (the empty one, ones with the absent letter z, long
    noisy runs) aligned in turn by the dispatcher and the generic search on
    one system object give the results of fresh systems: alignment, cost,
    algorithm, settled states and cap."""
    rng = random.Random(53)
    routes, longest = set(), 0
    for system in _route_systems(rng):
        alphabet = _visible_alphabet(system)
        assert "z" not in alphabet
        traces = [(), ("z",), ("z", "z")] + [(a, "z") for a in alphabet]
        traces += [_noisy_run(rng, system, 40) for _ in range(6)]
        traces += [random_trace(rng, 30, tuple(alphabet) or ("a",)) for _ in range(3)]
        calls = [(op, trace, DEFAULT_STATE_BUDGET) for trace in traces
                 for op in (_dispatch, _generic)]
        rng.shuffle(calls)
        warm, fresh = _warm_and_fresh_calls(system, calls)
        assert warm == fresh, str(system.net)
        assert all(isinstance(r, engine.AlignResult) for r in warm)
        routes |= {r.algorithm for r in warm}
        longest = max(longest, *map(len, traces))
    assert routes == {"generic", "ssystem"}
    assert longest >= 20


def _fraction_costs(system):
    net = system.net
    visible = [t for t in net.transitions if not net.label(t).silent]
    return CostFunction(labels=dict(net.labels),
                        log_overrides={a: Fraction(1, 3) for a in _visible_alphabet(system)},
                        sync_overrides={(net.label(t).name, t): Fraction(1, 5) for t in visible},
                        model_overrides={t: Fraction(2, 7) for t in net.transitions})


def test_caller_costs_share_the_model_graph():
    """Fraction costs of the caller, asked between standard-cost calls on one
    system object, give the results of fresh calls."""
    rng = random.Random(59)
    changed = 0
    for system in _route_systems(rng)[::2]:
        c = _fraction_costs(system)
        traces = [(), ("z",)] + [_noisy_run(rng, system, 12) for _ in range(3)]
        calls = [(functools.partial(op, costs=costs), trace, DEFAULT_STATE_BUDGET)
                 for trace in traces for costs in (None, c, None, c)
                 for op in (_dispatch, _generic)]
        warm, fresh = _warm_and_fresh_calls(system, calls)
        assert warm == fresh, str(system.net)
        changed += sum(a.cost != b.cost for a, b in zip(warm[0::4], warm[2::4]))
    assert changed > 0


def test_one_cost_function_object_gives_a_fresh_systems_outcomes():
    """Repeated calls with one `CostFunction` object, and with an equal but
    distinct one, on one system give the outcomes of a fresh system."""
    rng = random.Random(67)
    for system in _route_systems(rng):
        c, other = _fraction_costs(system), _fraction_costs(system)
        assert c == other and c is not other
        traces = [(), ("z",)] + [_noisy_run(rng, system, 12) for _ in range(3)]
        calls = [(op, trace, costs) for costs in (c, c, other, c) for trace in traces
                 for op in (dispatch_align, optimal_alignment)]
        warm = [_outcome(op, trace, system, costs) for op, trace, costs in calls]
        fresh = [_outcome(op, trace, _fresh(system), costs) for op, trace, costs in calls]
        assert warm == fresh, str(system.net)


def test_a_cost_function_changed_between_calls_prices_anew(ex1):
    """A caller's `CostFunction` whose overrides change between two calls on
    one system is priced as it stands at each call: the second result is a
    fresh system's, and `validate_alignment` prices it at its cost."""
    c = CostFunction(labels=dict(ex1.net.labels), log_overrides={"a": 1})
    for op in (dispatch_align, optimal_alignment):
        system = ex1_system()
        assert op(TRACE, system, c).cost == 2
        c.log_overrides["a"] = Fraction(5)
        got = op(TRACE, system, c)
        assert got == op(TRACE, _fresh(system), c)
        assert got.cost == 3
        assert validate_alignment(got.alignment, TRACE, system, c) == got.cost
        c.log_overrides["a"] = Fraction(1)


def test_dispatch_reads_no_structural_report(monkeypatch):
    """A new system's route is read off the net's S-net flag: the dispatcher
    and the S-system solver build no structural report."""
    rng = random.Random(71)
    ssystem = None
    while ssystem is None:
        ssystem = random_single_token_ssystem(rng)
    acyclic = None
    while acyclic is None:
        acyclic = random_acyclic_system(rng)
    tree = tree_to_wfnet(parse_tree("loop(seq(a, xor(b, tau)), par(c, d))"))
    cases = [(ssystem, "ssystem"), (acyclic, None), (tree, "generic"),
             (ex1_system(), "generic")]
    traces = [(), TRACE, ("c", "a", "d", "b")]
    expected = [[_outcome(dispatch_align, t, _fresh(system)) for t in traces]
                for system, _ in cases]

    def refused(*args):
        raise AssertionError("structural_class called")

    monkeypatch.setattr(engine, "structural_class", refused)
    for (system, route), outcomes in zip(cases, expected):
        system = _fresh(system)
        assert [_outcome(dispatch_align, t, system) for t in traces] == outcomes
        algorithms = {r.algorithm for r in outcomes if not isinstance(r, type)}
        assert route is None or algorithms == {route}


def test_the_s_net_flag_has_one_definition():
    """The view's flag, the report's and the definition over presets and
    postsets agree on every suite system, and both values occur."""
    flags = []
    for system, _ in make_suite(29, 60):
        net = system.net
        flag = petri._NetView(net).s_net
        assert flag == classify.structural_class(net, system.initial, system.final).s_net
        assert flag == all(len(net.preset(t)) <= 1 and len(net.postset(t)) <= 1
                           for t in net.transitions)
        flags.append(flag)
    assert set(flags) == {True, False}


def test_the_flags_read_off_the_net_agree_with_the_view(monkeypatch):
    """Three callers read a flag off the net rather than a view of it: the
    structural report's S-net flag, the S-system solver's precondition and
    the LBFC cap's check for a transition that consumes nothing.  On the
    suite, random trees, and random guarded and unguarded single-token
    S-systems, each agrees with the view (`petri._NetView`): the report's
    flag is the view's `s_net`; the solver raises NotSSystem iff the view
    has no S-net flag or an unguarded transition; and the cap gives None
    before any walk iff an entry of `first` or `unguarded` produces a token
    and consumes none.  Each flag takes both values."""

    class Walked(Exception):
        pass

    def refused(*args):
        raise Walked

    rng = random.Random(45)
    systems = [system for system, _ in make_suite(45, 100)]
    systems += [tree_to_wfnet(random_tree(rng, 3)) for _ in range(20)]
    for draw in (random_guarded_ssystem, random_unguarded_ssystem):
        systems += [s for s in (draw(rng) for _ in range(60)) if s is not None]
    seen = collections.Counter()
    for system in systems:
        net = system.net
        view = petri._NetView(net)
        s_net = classify.structural_class(net, system.initial, system.final).s_net
        assert s_net == view.s_net
        try:
            optimal_alignment_ssystem((), system, state_budget=1)
            refused_route = False
        except NotSSystem:
            refused_route = True
        except PetriAlignError:
            refused_route = False
        assert refused_route == (not view.s_net or bool(view.unguarded))
        with monkeypatch.context() as patch:
            patch.setattr(engine, "structural_class", refused)
            try:
                early = lbfc_cap(system, 0) is None
            except Walked:
                early = False
        assert early == any(produce and not consume for row in (view.unguarded, *view.first)
                            for _, _, consume, produce in row)
        seen.update([("s_net", s_net), ("refused", refused_route), ("early", early)])
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def _random_overrides(rng, system):
    def price():
        return Fraction(rng.randint(0, 12), rng.randint(2, 13))

    net = system.net
    visible = [t for t in net.transitions if not net.label(t).silent]
    return CostFunction(labels=dict(net.labels),
                        sync_overrides={(net.label(t).name, t): price()
                                        for t in visible if rng.random() < 0.6},
                        log_overrides={a: price() for a in LABEL_POOL if rng.random() < 0.6},
                        model_overrides={t: price() for t in net.transitions
                                         if rng.random() < 0.6})


def _restated_defaults(rng, system):
    """Overrides that restate the standard cost of some moves: sync 0, log
    1, model 1 when visible and 0 when silent."""
    net = system.net
    visible = [t for t in net.transitions if not net.label(t).silent]
    return CostFunction(labels=dict(net.labels),
                        sync_overrides={(net.label(t).name, t): 0
                                        for t in visible if rng.random() < 0.6},
                        log_overrides={a: 1 for a in LABEL_POOL if rng.random() < 0.6},
                        model_overrides={t: int(not net.label(t).silent)
                                         for t in net.transitions if rng.random() < 0.6})


def _assert_tables_price_as(costs):
    """Each entry's weight is its move's exact cost, under the cost function
    `costs(rng, system)`, times the table's scale, and its rank the move's
    tie-break key; the alignments the tables give replay at the cost
    returned.  When `costs` gives None, the table is the plan's own
    standard one, which no `CostFunction` prices, and the expected costs
    are `standard_costs(system)`."""
    rng = random.Random(73)
    aligned = 0
    for system, trace in make_suite(31, 40):
        net = system.net
        given = costs(rng, system)
        plan = engine._Plan(system)
        table = plan.standard_moves if given is None else engine._MoveTable(plan, given)
        c = standard_costs(system) if given is None else given
        order = sorted(net.transitions)
        t_count = len(order)
        entries = []
        for k, t in enumerate(net.transitions):
            name = net.label(t).name
            if name is None:
                assert table.sync[k] is None
            else:
                entries.append((table.sync[k], Move(name, t), order.index(t)))
            entries.append((table.model[k], Move(None, t), t_count + order.index(t)))
        for a in LABEL_POOL + ("z",):
            entries.append((table.log(a), Move(a, None), 2 * t_count))
        for (w, rank, move), expected, expected_rank in entries:
            assert move == expected and hash(move) == hash(expected)
            assert type(w) is int and w == c.move_cost(expected) * table.scale
            assert rank == expected_rank
        for f in (dispatch_align, optimal_alignment):
            result = _outcome(f, trace, system, given)
            if not isinstance(result, type):
                assert validate_alignment(result.alignment, trace, system, c) == result.cost
                aligned += 1
    assert aligned > 40


def test_move_table_prices_each_move_as_the_cost_function():
    _assert_tables_price_as(_random_overrides)


@pytest.mark.parametrize("costs", [_restated_defaults,
                                   lambda rng, system: standard_costs(system),
                                   lambda rng, system: None],
                         ids=["restated_defaults", "standard", "plan_standard_moves"])
def test_move_table_prices_unlisted_moves_at_the_standard_costs(costs):
    """The standard costs, overrides that restate them, and the plan's own
    standard table, made with no cost function, check the table's default
    weight of each move, entry by entry."""
    _assert_tables_price_as(costs)


def _table_moves(table, net, letters):
    """The moves of a table by (log part, model part): each transition's sync
    and model moves, and the log moves of `letters`."""
    moves = {}
    for k, t in enumerate(net.transitions):
        if table.sync[k] is not None:
            move = table.sync[k][2]
            moves[move.log_part, t] = move
        moves[None, t] = table.model[k][2]
    for a in letters:
        moves[a, None] = table.log(a)[2]
    return moves


SHARED_TREES = ("seq(a, par(b, c), xor(d, tau))", "seq(a, xor(b, c), loop(d, e))")


def test_move_tables_share_their_moves_across_models(monkeypatch):
    """Two tree nets declare the same transition ids: their standard tables
    and caller-cost tables hold one `Move` object per (log part, model part),
    log moves included, each equal to and hashing like the constructor's."""
    monkeypatch.setattr(engine, "_moves", {})
    letters = ("a", "b", "c", "d", "e", "z")
    seen, owners = {}, collections.Counter()
    for text in SHARED_TREES:
        system = tree_to_wfnet(parse_tree(text))
        plan = engine._Plan(system)
        keys = set()
        for table in (plan.standard_moves, engine._MoveTable(plan, _fraction_costs(system))):
            for key, move in _table_moves(table, system.net, letters).items():
                assert move is seen.setdefault(key, move)
                expected = Move(*key)
                assert move == expected and hash(move) == hash(expected)
                keys.add(key)
        owners.update(keys)
    # Both nets hold a's sync move on t4, the model moves of t4, t5, t6 and
    # t12, and every log move.
    assert {key for key, n in owners.items() if n == 2} == {
        ("a", "t4"), (None, "t4"), (None, "t5"), (None, "t6"), (None, "t12"),
        *((a, None) for a in letters)}
    assert engine._moves == seen


def test_a_full_move_dict_is_emptied_and_changes_no_result(monkeypatch):
    """With room for 8 moves, a net of more transitions empties the shared
    dict, and every table still holds moves equal to the constructor's and
    gives the alignments that the tables of fresh systems gave with the
    dict's own bound."""
    rng = random.Random(131)
    systems = [tree_to_wfnet(parse_tree(text)) for text in SHARED_TREES]
    systems.append(tree_to_wfnet(parse_tree("seq(a, b, par(c, d, a), xor(b, e, tau), "
                                            "loop(d, e))")))
    traces = [[_noisy_run(rng, system, 10) for _ in range(4)] for system in systems]

    def align(systems):
        return [_outcome(f, trace, system, costs) for system, ts in zip(systems, traces)
                for trace in ts for f in (dispatch_align, optimal_alignment)
                for costs in (None, _fraction_costs(system))]

    expected = align([_fresh(s) for s in systems])
    monkeypatch.setattr(engine, "_MOVES_MAX", 8)
    monkeypatch.setattr(engine, "_moves", {})
    assert len(systems[-1].net.transitions) > 8
    for system in systems:
        plan = engine._Plan(system)
        for table in (plan.standard_moves, engine._MoveTable(plan, _fraction_costs(system))):
            for key, move in _table_moves(table, system.net, ("a", "z")).items():
                assert move == Move(*key) and hash(move) == hash(Move(*key))
            assert len(engine._moves) <= 9
    assert align(systems) == expected


def test_search_results_are_made_as_the_constructor_makes_them(ex1):
    """A result of `align_by_search` equals, hashes and prints like the one
    that `AlignResult` makes of its fields, refuses every assignment, and
    carries a `Fraction` cost under the standard costs and under a caller's
    cost function with weights that are not integers."""
    fractions = 0
    for costs in (None, _fraction_costs(ex1)):
        for trace in [(), ("a", "b"), ("a", "b", "a", "a"), ("b", "z", "a")]:
            result = engine.align_by_search(trace, ex1, costs, DEFAULT_STATE_BUDGET, "generic")
            made = engine.AlignResult(*(getattr(result, f.name)
                                        for f in dataclasses.fields(engine.AlignResult)))
            assert result == made and hash(result) == hash(made) and repr(result) == repr(made)
            assert type(result.cost) is Fraction
            fractions += result.cost.denominator > 1
            for f in dataclasses.fields(engine.AlignResult):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(result, f.name, getattr(result, f.name))
    assert fractions >= 2


def test_a_replaced_graph_numbers_the_ends_of_the_search_again():
    """Calls whose state budget is below the markings of the graph get a
    new, empty one, on which the plan numbers the initial and final markings
    again: the searches on it, under the small budget and then the default
    one, give a fresh system's alignment, cost and settled states, and the
    oracle's cost, on every route."""
    rng = random.Random(103)
    replaced = 0
    for system in _route_systems(rng):
        traces = [_noisy_run(rng, system, 16) for _ in range(3)] + [()]

        def fill(system):
            """The graph that aligning every trace leaves on `system`."""
            for trace in traces:
                _outcome(_dispatch, trace, system, DEFAULT_STATE_BUDGET)
            return engine._plan(system, DEFAULT_STATE_BUDGET)

        small = len(fill(_fresh(system)).markings) - 1
        if small < 1:
            continue
        calls = [(op, trace, budget) for budget in (small, DEFAULT_STATE_BUDGET)
                 for trace in traces for op in (_dispatch, _generic)]
        fresh = [_outcome(op, trace, _fresh(system), budget) for op, trace, budget in calls]
        graph = fill(system)
        warm = [_outcome(op, trace, system, budget) for op, trace, budget in calls]
        assert warm == fresh, str(system.net)
        assert engine._plan(system, DEFAULT_STATE_BUDGET) is not graph
        replaced += 1
        for (op, trace, budget), result in zip(calls, warm):
            if isinstance(result, engine.AlignResult):
                assert result.cost == brute_force_oracle(trace, system)
    assert replaced >= 8


def test_budgets_none_is_the_default_budgets():
    """`budgets=None` and `Budgets()` give equal results on every route,
    under the standard costs and the caller's."""
    rng = random.Random(107)
    routes = set()
    for system in _route_systems(rng):
        c = _fraction_costs(system)
        for trace in [(), ("z",)] + [_noisy_run(rng, system, 12) for _ in range(3)]:
            for costs in (None, c):
                none = _outcome(dispatch_align, trace, _fresh(system), costs, None)
                default = _outcome(dispatch_align, trace, _fresh(system), costs, Budgets())
                assert none == default
                routes.add(getattr(none, "algorithm", none))
    assert {"generic", "ssystem"} <= routes


def test_a_raise_leaves_a_usable_model_graph(ex1):
    """Searches that exceed their budget part-way, followed by searches with
    larger budgets, give every result and every raise of fresh systems."""
    traces = [(), ("a", "a", "b", "b"), TRACE, ("a", "a", "b", "a", "a", "b", "b"), ("z", "b")]
    calls = [(op, trace, budget) for budget in range(1, 31) for trace in traces
             for op in (_generic, _dispatch)]
    calls += [(_generic, trace, DEFAULT_STATE_BUDGET) for trace in traces]
    warm, fresh = _warm_and_fresh_calls(ex1, calls)
    assert warm == fresh
    assert BudgetExceeded in warm
    assert isinstance(warm[-1], engine.AlignResult)
    pump = _pump_system()
    calls = [(_generic, trace, budget) for budget in range(1, 21)
             for trace in [("z",), (), ("a", "z"), ("z", "a"), ("b", "a", "z")]]
    warm, fresh = _warm_and_fresh_calls(pump, calls)
    assert warm == fresh
    assert BudgetExceeded in warm and any(isinstance(r, engine.AlignResult) for r in warm)


def test_model_graph_stays_within_its_bound():
    """On an unbounded net, a call gets an empty graph when the graph holds
    more markings or rows than the call's budget.  A search adds at most one
    row per state it settles, so after a call with budget b the graph holds
    at most 2b rows and 3b markings, whatever the budgets of the calls
    before."""
    pump = _pump_system()
    budgets = [200, 10, 150, 20, 100, 5, 60, 30]
    calls = [(op, (a,), budget) for a, budget in zip(PUMP_LETTERS, budgets)
             for op in (_generic, _dispatch)]
    warm, fresh = _warm_and_fresh_calls(pump, calls)
    assert warm == fresh == [BudgetExceeded] * len(calls)
    for op, trace, budget in calls:
        _outcome(op, trace, pump, budget)
        graph = engine._plan(pump, DEFAULT_STATE_BUDGET)
        assert graph.size == len(graph.rows)
        # Without the emptying, the calls after the first would leave about
        # 200 rows and 400 markings.
        assert graph.size <= 2 * budget, (budget, graph.size)
        assert len(graph.markings) <= 3 * budget, (budget, len(graph.markings))


def _two_dead_ends_system():
    """a b e leads to the final marking p4, c f to the dead end p5: a search
    on a b e numbers p4 before p5, which breadth-first order puts first."""
    arcs = {"a": ("p0", "p1"), "b": ("p1", "p2"), "e": ("p2", "p4"),
            "c": ("p0", "p3"), "f": ("p3", "p5")}
    net = PetriNet([f"p{i}" for i in range(6)], tuple(arcs),
                   [(src, t) for t, (src, _) in arcs.items()]
                   + [(t, dst) for t, (_, dst) in arcs.items()],
                   {t: Label(t) for t in arcs})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p4"))


def test_a_warm_graph_classifies_like_a_fresh_one():
    """Alignment searches, then dispatcher calls, number a system's markings
    in their own order, and number its final marking even where no firing
    sequence reaches it.  The cap of that system is then the cap of a fresh
    system at budgets 1 to 30 and the default.  The pump net is unbounded,
    so it is asked at budgets up to 40 only."""
    rng = random.Random(71)
    bounded = _route_systems(rng)
    # The same nets with a final marking that no firing sequence reaches.
    unsound = [AcceptingSystem(s.net, s.initial, s.initial + s.initial) for s in bounded[::3]]
    for system in bounded + unsound + [_two_dead_ends_system(), _pump_system()]:
        top = 40 if system.net.has_transition("u") else DEFAULT_STATE_BUDGET
        budgets = list(range(1, 31)) + [top]
        traces = [("a", "b", "e"), ("z",)] + [_noisy_run(rng, system, 12) for _ in range(3)]
        calls = [(op, trace, top) for op in (_generic, _dispatch) for trace in traces]
        warm, fresh = _warm_and_fresh_calls(system, calls)
        assert warm == fresh, str(system.net)
        graph = engine._plan(system, DEFAULT_STATE_BUDGET)
        numbered = len(graph.markings)
        assert graph.number(system.final) < numbered == len(graph.markings)
        caps = [lbfc_cap(system, 3, budget) for budget in budgets]
        assert caps == [lbfc_cap(_fresh(system), 3, budget) for budget in budgets]


def _bound_by_report(system, budget, workflow_shape):
    """The bound the LBFC cap takes from behavioral_class's report, None when
    the cap does not apply, or "raised" past the budget; and why: "live",
    "sound_workflow" (sound, workflow-shaped and not live), "neither",
    "unmarked" (no token on any marking), or None when raised."""
    try:
        rep = behavioral_class(_fresh(system), budget)
    except BudgetExceeded:
        return "raised", None
    if not rep.bound_found:
        return None, "unmarked"
    if rep.live:
        return rep.bound_found, "live"
    if rep.sound and workflow_shape:
        return rep.bound_found, "sound_workflow"
    return None, "neither"


def test_lbfc_bound_matches_the_behavioral_report():
    """The LBFC cap takes what `behavioral_class`'s report decides
    (bound_found, when live or sound and workflow-shaped) on free-choice
    systems, and is None on the others, on the randomised suite, tree nets,
    marked cycles, ex1, nets whose final marking no firing sequence
    reaches, an unbounded net and a net with two dead ends, at budgets 1 to
    30 and the default.  It does so on fresh systems and on systems whose
    plan alignment searches filled first.  The cases include live systems,
    sound workflow nets that are not live, systems that are neither, and
    walks cut by the budget."""
    rng = random.Random(83)
    systems = [system for system, _ in make_suite(83, 40)]
    systems += [tree_to_wfnet(random_tree(rng, 3)) for _ in range(12)]
    systems += [marked_cycle_tsystem(rng)[0] for _ in range(6)]
    systems.append(ex1_system())
    # Not easy sound: a final marking that no firing sequence reaches.
    systems += [AcceptingSystem(s.net, s.initial, s.initial + s.initial) for s in systems[::4]]
    systems += [_two_dead_ends_system(), _pump_system()]
    reasons = dict.fromkeys(("live", "sound_workflow", "neither", None), 0)
    pairs = 0
    for system in systems:
        top = 40 if system.net.has_transition("u") else DEFAULT_STATE_BUDGET
        budgets = list(range(1, 31)) + [top]
        srep = classify.structural_class(system.net, system.initial, system.final)
        warm = _fresh(system)
        for trace in (("a", "b", "e"), ("z",), _noisy_run(rng, system, 12)):
            _outcome(_generic, trace, warm, top)
        for budget in budgets:
            expected, reason = _bound_by_report(system, budget, srep.workflow_shape)
            cap = None
            if srep.free_choice:
                reasons[reason] = reasons.get(reason, 0) + 1
                pairs += 2
                if expected not in (None, "raised"):
                    cap = lbfc_length_bound(len(system.net.transitions), expected, 3)
            assert lbfc_cap(_fresh(system), 3, budget) == cap
            assert lbfc_cap(warm, 3, budget) == cap
    # Each reason on free-choice systems, where the cap reads the report.
    assert min(reasons.values()) > 0, reasons
    assert pairs > 2500


def test_model_graph_is_scoped_to_one_system_object(monkeypatch):
    fired = _counted_fires(monkeypatch)
    a, b = ex1_system(), ex1_system()
    result = optimal_alignment(TRACE, a)
    first = len(fired)
    assert first > 0
    # The same trace on the same object fires nothing again, whatever the costs.
    assert optimal_alignment(TRACE, a) == result
    assert optimal_alignment(TRACE, a, _fraction_costs(a)).cost != result.cost
    assert len(fired) == first
    # An equal but distinct system shares nothing with it.
    assert optimal_alignment(TRACE, b) == result
    assert len(fired) == 2 * first
    # A call on another system in between dropped `a`'s graph.
    assert optimal_alignment(TRACE, a) == result
    assert len(fired) == 3 * first
    # A search without a plan starts from an empty graph each time.
    fired.clear()
    costs = {t: 1 for t in a.net.transitions}
    assert min_cost_reach(a.net, a.initial, costs, a.final) == \
        min_cost_reach(a.net, a.initial, costs, a.final)
    assert len(fired) % 2 == 0 and len(fired) > 0


def _own_graphs(rounds_graphs, rounds):
    """Asserts that, in each round, every thread's graph was made for the
    round's system, that no two threads share one, and that each numbers
    every marking once."""
    for graphs, (system, _, _) in zip(rounds_graphs, rounds):
        assert all(graph.net is system.net for graph in graphs)
        assert len({id(graph) for graph in graphs}) == len(graphs)
        for graph in graphs:
            assert graph.markings
            assert_numbered_once(graph)


def test_threads_keep_a_model_graph_each():
    """Searches in more threads than cores, started together on each new
    system object and switching as often as the interpreter allows, give
    the results of fresh systems, each thread on a plan and graph of its
    own that numbers every marking once."""
    rng = random.Random(61)
    workers = 6
    words = [("a", "b", "c"), ("d", "e", "f"), ("g", "h"), ("i", "j"), ("k", "l")]
    rounds = []
    for _ in range(10):
        system = gen_shuffle_tsystem(words)
        traces = [tuple(rng.choice("abcdefghijkl") for _ in range(6)) for _ in range(workers)]
        rounds.append((system, traces, [optimal_alignment(trace, _fresh(system))
                                        for trace in traces]))
    barrier = threading.Barrier(workers, timeout=60)
    got = [[None] * workers for _ in rounds]
    graphs = [[None] * workers for _ in rounds]

    def work(k):
        for r, (system, traces, _) in enumerate(rounds):
            barrier.wait()
            got[r][k] = optimal_alignment(traces[k], system)
            graphs[r][k] = engine._memo.plan

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [expected for _, _, expected in rounds]
    _own_graphs(graphs, rounds)


def _interleaving(rng, words):
    """A random shuffle of the words, each word's letters kept in order."""
    rest = [list(word) for word in words]
    shuffled = []
    while any(rest):
        shuffled.append(rng.choice([word for word in rest if word]).pop(0))
    return tuple(shuffled)


def test_threads_keep_a_membership_graph_each():
    """Membership calls in more threads than cores, started together on each
    new system object and switching as often as the interpreter allows, give
    the verdicts of fresh systems, each thread on a plan and graph of its
    own that numbers every marking once."""
    rng = random.Random(67)
    workers = 6
    words = [("a", "b", "c"), ("d", "e", "f"), ("g", "h"), ("i", "j"), ("k", "l")]
    rounds = []
    # A lost update in numbering shows in about one round in fifty.
    for _ in range(200):
        system = gen_shuffle_tsystem(words)
        traces = [[_interleaving(rng, words) for _ in range(3)]
                  + [tuple(rng.choice("abcdefghijkl") for _ in range(6))]
                  for _ in range(workers)]
        fresh = _fresh(system)
        rounds.append((system, traces, [[membership(trace, fresh) for trace in mine]
                                        for mine in traces]))
    barrier = threading.Barrier(workers, timeout=60)
    got = [[None] * workers for _ in rounds]
    graphs = [[None] * workers for _ in rounds]

    def work(k):
        for r, (system, traces, _) in enumerate(rounds):
            barrier.wait()
            got[r][k] = [membership(trace, system) for trace in traces[k]]
            graphs[r][k] = engine._memo.plan

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [expected for _, _, expected in rounds]
    assert any(False in verdicts for _, _, expected in rounds for verdicts in expected)
    _own_graphs(graphs, rounds)
    for graph in itertools.chain.from_iterable(graphs):
        n = len(graph.states)
        assert n > 0
        assert len(graph.steps) == n == len(graph.sizes) == len(graph.accepting)
        assert all(0 <= j < n for table in graph.steps for j in table.values())


def test_membership_reads_the_rows_the_cap_filled():
    """dispatch_align, membership and optimal_alignment, interleaved on one
    system object, give the outcomes of fresh systems, and membership holds
    exactly where the optimal cost is 0.  On a free-choice system the
    LBFC cap classifies it, and membership calls after it give the same
    verdicts."""
    rng = random.Random(79)
    systems = []
    while len(systems) < 6:
        system = random_safe_system(rng, max_places=6, max_transitions=6)
        if system is not None:
            systems.append(system)
    systems += [tree_to_wfnet(random_tree(rng, 3)) for _ in range(6)]
    classified = accepted = 0
    for system in systems:
        alphabet = _visible_alphabet(system)
        assert "z" not in alphabet
        words = [w for n in range(4) for w in itertools.product(alphabet, repeat=n)]
        words = rng.sample(words, min(len(words), 25)) + [("z",), _noisy_run(rng, system, 8)]
        calls = [(op, word, DEFAULT_STATE_BUDGET) for word in words
                 for op in (_dispatch, membership, _generic)]
        rng.shuffle(calls)
        warm, fresh = _warm_and_fresh_calls(system, calls)
        assert warm == fresh, str(system.net)
        verdicts = {word: got for (op, word, _), got in zip(calls, warm) if op is membership}
        costs = {word: got.cost for (op, word, _), got in zip(calls, warm) if op is _generic}
        assert verdicts == {word: cost == 0 for word, cost in costs.items()}
        accepted += sum(verdicts.values())
        # A system no call has seen, classified by the cap first.
        system = _fresh(system)
        lbfc_cap(system, len(words[-1]))
        if classify.structural_class(system.net, system.initial, system.final).free_choice:
            classified += 1
            assert [membership(word, system) for word in words] == \
                [verdicts[word] for word in words]
    assert classified >= 6 and accepted > 10


# The plan's store of standard-cost results: a trace repeated on one system
# object, under the same route and budget, is not searched again.

def _ssystem(trace, system, budget, costs=None):
    return optimal_alignment_ssystem(trace, system, costs, budget)


def test_stored_results_match_fresh_systems():
    """Standard-cost traces asked again and again on one system object,
    between calls with the caller's costs, with smaller budgets, with a
    budget that raises and on systems that are not easy-sound, give the
    outcomes of fresh systems: alignment, cost, algorithm, settled states,
    cap and every raise."""
    rng = random.Random(83)
    systems = _route_systems(rng)
    # Each fourth one again, with a final marking no firing sequence reaches.
    systems += [AcceptingSystem(s.net, s.initial, s.initial + s.initial) for s in systems[::4]]
    outcomes = set()
    for system in systems:
        c = _fraction_costs(system)
        traces = [(), ("z",)] + [_noisy_run(rng, system, 12) for _ in range(3)]
        calls = [(functools.partial(op, costs=costs), trace, budget)
                 for trace in traces for op in (_generic, _dispatch, _ssystem)
                 for costs in (None, c) for budget in (2, 60, DEFAULT_STATE_BUDGET)]
        calls *= 2
        rng.shuffle(calls)
        warm, fresh = _warm_and_fresh_calls(system, calls)
        assert warm == fresh, str(system.net)
        outcomes |= {r if isinstance(r, type) else r.algorithm for r in warm}
    assert {"generic", "ssystem", BudgetExceeded, NotEasySound} <= outcomes


def _counted_searches(monkeypatch):
    """A list that collects the trace of each `dijkstra_least_cost` call
    from now on."""
    searched = []
    search = engine.dijkstra_least_cost

    def counted(net, trace, *args, **kwargs):
        searched.append(tuple(trace))
        return search(net, trace, *args, **kwargs)

    monkeypatch.setattr(engine, "dijkstra_least_cost", counted)
    return searched


def test_a_repeat_makes_no_search(monkeypatch):
    """A standard-cost trace is searched once per route and budget on one
    system object; a trace with the caller's costs is searched on every call."""
    searched = _counted_searches(monkeypatch)
    rng = random.Random(89)
    for system in _route_systems(rng):
        c = _fraction_costs(system)
        trace = _noisy_run(rng, system, 12)
        first = dispatch_align(trace, system)
        for op in (_dispatch, _generic, _ssystem):
            searched.clear()
            assert _outcome(op, trace, system, DEFAULT_STATE_BUDGET) == \
                _outcome(op, trace, system, DEFAULT_STATE_BUDGET)
            assert len(searched) <= 1
        searched.clear()
        assert dispatch_align(trace, system) == first
        assert optimal_alignment(trace, system, state_budget=10**5) == \
            optimal_alignment(trace, system, state_budget=10**5)
        assert searched == [trace]
        searched.clear()
        for _ in range(3):
            assert dispatch_align(trace, system, c) == dispatch_align(trace, _fresh(system), c)
        assert searched == [trace] * 6
        if first.algorithm == "ssystem":
            # Under one budget, each route still gets a result of its own.
            generic = _generic(trace, _fresh(system), DEFAULT_STATE_BUDGET)
            budget = max(first.states_expanded, generic.states_expanded)
            assert _ssystem(trace, system, budget) == first
            assert _generic(trace, system, budget) == generic


def test_a_cap_leaves_the_plan_alone(monkeypatch):
    """A cap on another free-choice system, between two alignments of one
    trace on a system, keeps that system's plan: the second alignment is
    the stored result, with no search."""
    searched = _counted_searches(monkeypatch)
    a, b = ex1_system(), _capped_tree()
    first = dispatch_align(TRACE, a)
    assert searched == [TRACE]
    assert lbfc_cap(b, 4) == 1435
    assert dispatch_align(TRACE, a) is first
    assert searched == [TRACE] and engine._memo.plan.sys is a


def test_a_call_in_another_thread_leaves_the_plan_alone(monkeypatch):
    """Thread A aligns a trace on one system, then thread B one on another
    system, then A the first trace again: A's plan outlived B's call, so the
    repeat is A's stored result, with no search."""
    x, y = ex1_system(), ex1_system()
    other = ("a", "b")
    expected = dispatch_align(other, _fresh(y))
    searched = _counted_searches(monkeypatch)
    barrier = threading.Barrier(2, timeout=60)
    got = {}

    def thread_a():
        got["first"] = dispatch_align(TRACE, x)
        barrier.wait()   # B aligns now
        barrier.wait()
        got["again"] = dispatch_align(TRACE, x)
        got["plan"] = engine._memo.plan.sys

    def thread_b():
        barrier.wait()
        got["other"] = dispatch_align(other, y)
        barrier.wait()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert got["again"] is got["first"] and got["plan"] is x
    assert got["other"] == expected
    assert searched == [TRACE, other]


def test_a_raise_is_stored_as_nothing(ex1, monkeypatch):
    """A search that raised raises again when asked again, and the same
    trace then succeeds, and is stored, under a larger budget."""
    searched = _counted_searches(monkeypatch)
    trace = ("a", "a", "b", "a", "a", "b", "b")
    expected = optimal_alignment(trace, _fresh(ex1))
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            optimal_alignment(trace, ex1, state_budget=expected.states_expanded - 1)
    for _ in range(2):
        assert optimal_alignment(trace, ex1, state_budget=expected.states_expanded) == expected
    assert len(searched) == 4


def test_stored_results_stay_within_their_bound():
    """A result's size is its moves plus one, at most the states its search
    settled; a call finds the store emptied when it held more than the
    call's budget, so after a call with budget b it holds at most 2b.  A
    call on another system object drops the store."""
    rng = random.Random(97)
    system = ex1_system()
    traces = [tuple(rng.choice("ab") for _ in range(rng.randint(8, 16))) for _ in range(8)]
    sizes = []
    for k, trace in enumerate(traces * 3):
        budget = [DEFAULT_STATE_BUDGET, 100, 60][k // len(traces)]
        _outcome(optimal_alignment, trace, system, None, budget)
        plan = engine._plan(system, DEFAULT_STATE_BUDGET)
        assert all(len(r.alignment) + 1 <= r.states_expanded
                   for r in plan.results.values())
        assert plan.results_size == sum(len(r.alignment) + 1 for r in plan.results.values())
        assert plan.results_size <= 2 * budget, (budget, plan.results_size)
        sizes.append(plan.results_size)
    # Without the emptying, the later budgets would add to the first ones.
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    other = ex1_system()
    dispatch_align(TRACE, other)
    assert (engine._plan(other, DEFAULT_STATE_BUDGET).results_size
            == len(dispatch_align(TRACE, other).alignment) + 1)
    # Back on the first system, one result again.
    optimal_alignment(traces[0], system)
    assert len(engine._plan(system, DEFAULT_STATE_BUDGET).results) == 1


def _cap(trace, system, budget):
    return lbfc_cap(system, len(trace), budget)


def test_a_plan_keeps_its_graph_ends_and_must_for_life():
    """Seeded mixed calls on one system (alignments by both entry points,
    membership and the LBFC cap) at budgets 1 to 30 and the default: every
    plan the calls leave, itself the system's marking graph, keeps the
    `ends` and `must` it was made with, its `ends` are the numbers of the
    system's initial and final markings on it, and every outcome is a fresh
    system's."""
    rng = random.Random(29)
    budgets = list(range(1, 31)) + [DEFAULT_STATE_BUDGET]
    plans = {}
    systems = _route_systems(rng) + [_pump_system()]
    for system in systems:
        traces = [(), ("z",)] + [_noisy_run(rng, system, 12) for _ in range(4)]
        calls = [(rng.choice((_dispatch, _generic, membership, _cap)), rng.choice(traces),
                  rng.choice(budgets)) for _ in range(60)]
        if system.net.has_transition("u"):   # unbounded: small budgets only
            calls = [(op, trace, min(budget, 40)) for op, trace, budget in calls]
        fresh = [_outcome(op, trace, _fresh(system), budget) for op, trace, budget in calls]
        warm = []
        for op, trace, budget in calls:
            warm.append(_outcome(op, trace, system, budget))
            plan = getattr(engine._memo, "plan", None)
            if plan is not None and plan.sys is system:
                plans.setdefault(plan, (plan.ends, plan.must))
        assert warm == fresh, str(system.net)
    for plan, (ends, must) in plans.items():
        assert plan.ends is ends and plan.must is must
        assert ends == (plan.number(plan.sys.initial), plan.number(plan.sys.final))
    # The small budgets replace plans: most systems see more than one.
    assert len(plans) > 2 * len(systems)
