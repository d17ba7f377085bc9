import inspect
import random

import pytest

from petrialign import (Marking, build_reachability_graph, fire,
                        product_of_reach_graphs, product_parts, products,
                        synchronous_product, trace_system)
from petrialign.errors import BudgetExceeded
from petrialign.petri import DEFAULT_STATE_BUDGET
from randgen import random_safe_system


def enumerate_complete_sequences(system, max_len=10):
    """Independent oracle: DFS enumeration of all complete firing sequences."""
    out = []

    def walk(marking, prefix):
        if marking == system.final:
            out.append(tuple(prefix))
        if len(prefix) >= max_len:
            return
        for t in system.net.transitions:
            if all(marking[p] > 0 for p in system.net.preset(t)):
                walk(fire(system.net, marking, t), prefix + [t])

    walk(system.initial, [])
    return out


def test_trace_system_shape():
    system = trace_system(("a", "b"))
    assert len(system.net.places) == 3
    assert len(system.net.transitions) == 2
    assert [system.net.label(t).name for t in system.net.transitions] == ["a", "b"]
    assert system.initial == Marking.of("p0")
    assert system.final == Marking.of("p2")


def test_trace_system_empty():
    system = trace_system(())
    assert len(system.net.places) == 1
    assert not system.net.transitions
    assert system.initial == system.final


def test_trace_system_language_is_singleton():
    system = trace_system(("a", "b", "a", "a"))
    runs = enumerate_complete_sequences(system)
    assert len(runs) == 1
    labels = tuple(system.net.label(t).name for t in runs[0])
    assert labels == ("a", "b", "a", "a")


def test_product_transition_breakdown(ex1):
    product = synchronous_product(trace_system(("a",)), ex1)
    kinds = {"sync": 0, "log": 0, "model": 0}
    for tid in product.net.transitions:
        left, right = product_parts(tid)
        if left and right:
            kinds["sync"] += 1
        elif left:
            kinds["log"] += 1
        else:
            kinds["model"] += 1
    assert len(product.net.transitions) == 8
    assert kinds == {"sync": 2, "log": 1, "model": 5}


def test_product_reach_is_cartesian(ex1):
    """reach(S1 x S2) equals reach(S1) x reach(S2), as marking sums."""
    tsys = trace_system(("a", "b", "a", "a"))
    product = synchronous_product(tsys, ex1)
    reach = build_reachability_graph(product).vertices
    left = build_reachability_graph(tsys).vertices
    right = build_reachability_graph(ex1).vertices
    assert len(reach) == len(left) * len(right) == 30
    expected = {Marking({"L:" + p: n for p, n in a.items()}) +
                Marking({"R:" + p: n for p, n in b.items()})
                for a in left for b in right}
    assert reach == expected


def test_product_of_safe_systems_is_safe(ex1):
    product = synchronous_product(trace_system(("a", "b")), ex1)
    for marking in build_reachability_graph(product).vertices:
        assert marking.max_count() <= 1


def test_reach_graph_ex1(ex1):
    graph = build_reachability_graph(ex1)
    expected = {Marking.of("p_init"), Marking({"p1": 1, "p2": 1}),
                Marking({"p3": 1, "p2": 1}), Marking({"p1": 1, "p4": 1}),
                Marking({"p3": 1, "p4": 1}), Marking.of("p_final")}
    assert graph.vertices == expected
    assert graph.root == ex1.initial


def test_reach_graph_line():
    graph = build_reachability_graph(trace_system(("a", "b")))
    assert len(graph.vertices) == 3
    assert len(graph.arcs) == 2


def test_reach_graph_budget(ex1):
    with pytest.raises(BudgetExceeded) as err:
        build_reachability_graph(ex1, state_budget=2)
    assert err.value.discovered == 3
    with pytest.raises(ValueError):
        build_reachability_graph(ex1, state_budget=0)


def test_reach_graph_arcs_replay(ex1):
    graph = build_reachability_graph(ex1)
    for src, t, dst in graph.arcs:
        assert fire(ex1.net, src, t) == dst


def test_rg_product_equals_rg_of_product(ex1):
    tsys = trace_system(("a", "b", "a", "a"))
    direct = build_reachability_graph(synchronous_product(tsys, ex1))
    composed = product_of_reach_graphs(build_reachability_graph(tsys),
                                       build_reachability_graph(ex1))
    assert composed.root == direct.root
    assert composed.vertices == direct.vertices
    assert composed.arc_set() == direct.arc_set()


def test_rg_product_budget(ex1, monkeypatch):
    """The product of reachability graphs with |V1| * |V2| vertices raises
    BudgetExceeded under a smaller budget, before it builds any marking;
    the default budget is the package's state budget."""
    r1 = build_reachability_graph(trace_system(("a", "b", "a", "a")))
    r2 = build_reachability_graph(ex1)
    pairs = len(r1.vertices) * len(r2.vertices)
    assert pairs == 30
    built = []
    prefix = products._prefix_marking

    def counted(marking, side):
        built.append(marking)
        return prefix(marking, side)

    monkeypatch.setattr(products, "_prefix_marking", counted)
    with pytest.raises(BudgetExceeded) as err:
        product_of_reach_graphs(r1, r2, state_budget=pairs - 1)
    assert err.value.discovered == pairs
    assert built == []
    assert len(product_of_reach_graphs(r1, r2, state_budget=pairs).vertices) == pairs
    default = inspect.signature(product_of_reach_graphs).parameters["state_budget"].default
    assert default == DEFAULT_STATE_BUDGET


def test_rg_product_equality_on_random_pairs():
    rng = random.Random(99)
    done = 0
    while done < 10:
        s1 = random_safe_system(rng, max_places=4, max_transitions=3)
        s2 = random_safe_system(rng, max_places=4, max_transitions=3)
        if s1 is None or s2 is None:
            continue
        direct = build_reachability_graph(synchronous_product(s1, s2))
        composed = product_of_reach_graphs(build_reachability_graph(s1),
                                           build_reachability_graph(s2))
        assert composed.root == direct.root
        assert composed.vertices == direct.vertices
        assert composed.arc_set() == direct.arc_set()
        done += 1


def test_rg_product_neutral_factor(ex1):
    """Multiplying with the one-vertex, zero-arc graph pads arcs with no-moves."""
    neutral = build_reachability_graph(trace_system(()))
    graph = build_reachability_graph(ex1)
    product = product_of_reach_graphs(neutral, graph)
    assert len(product.vertices) == len(graph.vertices)
    assert len(product.arcs) == len(graph.arcs)
    for _, tid, _ in product.arcs:
        left, right = product_parts(tid)
        assert left is None and right is not None
