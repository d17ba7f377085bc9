"""Silent transitions that must fire: the search expands their model move
alone (`petri._NetView.forced`, `engine._Plan.must` and
`engine.dijkstra_least_cost`), and every solver still agrees with the
exhaustive oracle, under the standard costs and under the caller's."""

import random
from fractions import Fraction

import pytest

from petrialign import (AcceptingSystem, CostFunction, Label, Marking, PetriNet,
                        brute_force_oracle, dispatch_align, fire_sequence, min_cost_reach,
                        optimal_alignment_acyclic, optimal_alignment_ssystem, standard_costs,
                        tree_to_wfnet, validate_alignment)
from petrialign import classify, engine
from petrialign.engine import _MoveTable, _Plan, _plan, dijkstra_least_cost
from petrialign.errors import NotAcyclic
from petrialign.petri import DEFAULT_STATE_BUDGET, _NetView
from randgen import (random_acyclic_system, random_safe_system, random_single_token_ssystem,
                     random_trace, random_tree)


def _net(flow, visible=()):
    """A net over the places and transitions of `flow`, in order of first
    mention, with the transitions in `visible` labelled by their own name
    and the others silent."""
    transitions = list(dict.fromkeys(v for arc in flow for v in arc if v.startswith("t_")))
    places = list(dict.fromkeys(v for arc in flow for v in arc if not v.startswith("t_")))
    labels = {t: Label(t[2:]) if t in visible else Label(None) for t in transitions}
    return PetriNet(places, transitions, flow, labels)


def _forced(net):
    return {net.transitions[k] for k, _ in _NetView(net).forced}


# One silent transition of each kind: t_split qualifies; t_shared shares
# its input place with t_a, t_self has a self-loop and t_pump no input place.
KINDS = [("i", "t_split"), ("t_split", "p"), ("t_split", "q"),
         ("p", "t_shared"), ("p", "t_a"), ("t_shared", "o"), ("t_a", "o"),
         ("q", "t_self"), ("t_self", "q"), ("t_self", "r"),
         ("t_pump", "s"),
         ("r", "t_b"), ("t_b", "o")]


def test_the_view_keeps_only_sole_consumers_without_a_self_loop():
    """Of the silent transitions, only the one that alone reads each of its
    input places, has one and has no self-loop qualifies: not one sharing
    an input place with another transition, not a self-loop, not a pump
    (no input place), and no visible transition."""
    assert _forced(_net(KINDS, visible=("t_a", "t_b"))) == {"t_split"}
    # Made visible, the split no longer qualifies.
    assert _forced(_net(KINDS, visible=("t_a", "t_b", "t_split"))) == set()


# t_a splits i into p and y, t_b moves y to x, and the silent t_tau alone
# empties p.
PINCH = [("i", "t_a"), ("t_a", "p"), ("t_a", "y"), ("y", "t_b"), ("t_b", "x"),
         ("p", "t_tau"), ("t_tau", "o")]


def test_a_final_marking_on_an_input_place_keeps_the_other_moves():
    """When the final marking marks an input place of a qualifying
    transition, it need not fire, so the search still takes the other
    moves: {p, x} is reached only by leaving p alone."""
    net = _net(PINCH, visible=("t_a", "t_b"))
    assert _forced(net) == {"t_tau"}
    initial = Marking.of("i")
    assert _Plan(AcceptingSystem(net, initial, Marking.of("p", "x"))).must == frozenset()
    assert _Plan(AcceptingSystem(net, initial, Marking.of("o", "x"))).must == {2}
    kept = AcceptingSystem(net, initial, Marking.of("p", "x"))
    result = dispatch_align(("a", "b"), kept)
    assert result.cost == 0 and [m.model_part for m in result.alignment] == ["t_a", "t_b"]
    assert dispatch_align(("a", "b", "c"), kept).cost == 1
    assert min_cost_reach(net, initial, {"t_a": 1, "t_b": 1}, Marking.of("p", "x")) == \
        (2, ("t_a", "t_b"))
    # With p empty at the end, t_tau must fire, and does.
    emptied = AcceptingSystem(net, initial, Marking.of("o", "x"))
    assert dispatch_align(("a", "b"), emptied).cost == 0
    assert min_cost_reach(net, initial, {"t_tau": 3}, Marking.of("o", "x"))[0] == 3


# t_a and then t_b each put a token on p, which the silent t_tau alone reads;
# t_a also puts one on q, which the silent t_s alone reads.
DOUBLE = [("i", "t_a"), ("t_a", "p"), ("t_a", "y"), ("t_a", "q"), ("y", "t_b"),
          ("t_b", "p"), ("p", "t_tau"), ("t_tau", "o"), ("q", "t_s"), ("t_s", "r")]


def test_a_final_marking_with_two_tokens_on_an_input_place_keeps_it_unforced():
    """A final marking of 2 tokens on p, which the graph keys by token
    counts, leaves t_tau out of `must`, and `must` is its definition: the
    forced transitions none of whose input places the final marking
    marks."""
    net = _net(DOUBLE, visible=("t_a", "t_b"))
    view = _NetView(net)
    assert _forced(net) == {"t_tau", "t_s"}
    for final in (Marking([("p", 2), ("r", 1)]), Marking([("o", 2), ("r", 1)]),
                  Marking([("p", 2), ("q", 1)])):
        system = AcceptingSystem(net, Marking.of("i"), final)
        plan = _Plan(system)
        assert plan.must == {k for k, pre in view.forced
                             if not any(net.places[p] in final for p in pre)}
        assert dispatch_align(("a", "b"), system).cost == 0
    kept = _Plan(AcceptingSystem(net, Marking.of("i"), Marking([("p", 2), ("r", 1)])))
    assert kept.must == {net.transitions.index("t_s")}


def test_the_cut_keeps_the_optimum_and_settles_fewer_states():
    """On tree nets, the search with the cut and the search without it
    (`must` empty) find equal costs, and the cut settles fewer states in
    all."""
    rng = random.Random(2707)
    settled = {True: 0, False: 0}
    for _ in range(25):
        system = tree_to_wfnet(random_tree(rng, 3))
        trace = random_trace(rng, max_len=6)
        costs = set()
        for cut in (True, False):
            plan = _Plan(system)
            if not cut:
                plan.must = frozenset()
            table = _MoveTable(plan, standard_costs(system))
            cost, _, states = dijkstra_least_cost(plan, trace, table, DEFAULT_STATE_BUDGET)
            costs.add(cost)
            settled[cut] += states
        assert len(costs) == 1
    assert settled[True] < settled[False]


def _silenced(system, rng, share=0.5):
    """The system with each transition made silent with probability
    `share`: its markings are unchanged, and more of its transitions
    qualify for the cut."""
    net = system.net
    labels = {t: Label(None) if rng.random() < share else net.label(t) for t in net.transitions}
    return AcceptingSystem(PetriNet(net.places, net.transitions, net.flow, labels),
                           system.initial, system.final)


def _systems(rng):
    """Seeded systems of every route, half their transitions silenced, and
    tree workflow nets; each with its kind."""
    draws = [("safe", random_safe_system), ("ssystem", random_single_token_ssystem),
             ("acyclic", random_acyclic_system)]
    systems = []
    for kind, draw in draws:
        drawn = 0
        while drawn < 30:
            system = draw(rng)
            if system is not None:
                systems.append((kind, _silenced(system, rng)))
                drawn += 1
    systems += [("tree", tree_to_wfnet(random_tree(rng, 3))) for _ in range(16)]
    return systems


def _caller_costs(system, rng):
    """Positive fraction prices for every move, silent model moves included."""
    net = system.net

    def price():
        return Fraction(rng.randint(1, 6), rng.randint(1, 4))

    visible = [t for t in net.transitions if not net.label(t).silent]
    return CostFunction(labels=dict(net.labels),
                        log_overrides={a: price() for a in "abcz"},
                        sync_overrides={(net.label(t).name, t): price() for t in visible},
                        model_overrides={t: price() for t in net.transitions})


def test_every_solver_agrees_with_the_oracle():
    """dispatch_align, and the acyclic and S-system solvers where they
    apply, give the oracle's cost and a witness that `validate_alignment`
    prices at it; min_cost_reach gives the oracle's cost of the empty trace
    under model prices, and a firing sequence that reaches the final
    marking at that cost.  The systems must exercise the cut: many have a
    transition that must fire, and some a final marking that marks an
    input place of a qualifying transition."""
    rng = random.Random(2727)
    with_cut = final_marked = 0
    for kind, system in _systems(rng):
        net = system.net
        must = _plan(system, DEFAULT_STATE_BUDGET).must
        with_cut += bool(must)
        final_marked += len(must) < len(_NetView(net).forced)
        for c in (None, _caller_costs(system, rng)):
            priced = c or standard_costs(system)
            for trace in [()] + [random_trace(rng, max_len=5, alphabet="abcz")
                                 for _ in range(2)]:
                expected = brute_force_oracle(trace, system, c)
                solvers = [dispatch_align]
                if kind == "acyclic":
                    solvers.append(optimal_alignment_acyclic)
                if kind == "ssystem":
                    solvers.append(optimal_alignment_ssystem)
                for solve in solvers:
                    result = solve(trace, system, c)
                    assert result.cost == expected, (solve.__name__, trace, str(net))
                    assert validate_alignment(result.alignment, trace, system, priced) == \
                        expected
            prices = {t: priced.model(t) for t in net.transitions}
            model_only = CostFunction(labels=dict(net.labels), model_overrides=prices)
            cost, seq = min_cost_reach(net, system.initial, prices, system.final)
            assert cost == brute_force_oracle((), system, model_only)
            assert fire_sequence(net, system.initial, seq) == system.final
            assert sum(prices[t] for t in seq) == cost
    assert with_cut >= 30 and final_marked >= 8, (with_cut, final_marked)


def test_the_acyclic_solver_decides_acyclicity_once(monkeypatch, ex1, ex1_acyclic):
    """The acyclic solver reads the net's own flag, not the structural
    report, and decides it on the first call only; a cyclic net still
    raises NotAcyclic."""
    reports = []
    for module in (classify, engine):
        monkeypatch.setattr(module, "structural_class", lambda *args: reports.append(args))
    orders = []
    order = PetriNet.topological_order
    monkeypatch.setattr(PetriNet, "topological_order",
                        lambda net: orders.append(net) or order(net))
    for _ in range(3):
        assert optimal_alignment_acyclic(("a", "b", "c"), ex1_acyclic).algorithm == "acyclic"
    for _ in range(2):
        with pytest.raises(NotAcyclic):
            optimal_alignment_acyclic(("a", "b", "c"), ex1)
    assert reports == [] and orders == [ex1_acyclic.net, ex1.net]
