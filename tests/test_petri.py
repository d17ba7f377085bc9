import random

import pytest

from petrialign import (Label, Marking, PetriNet, enabled_transitions, fire,
                        fire_sequence, incidence_matrix, parikh)
from petrialign.errors import EmptyNet, NotEnabled, UnknownTransition
from petrialign.petri import _MarkingGraph
from randgen import (random_replayable_walk, random_safe_system,
                     random_single_token_ssystem)


def test_fire_fork(ex1):
    after = fire(ex1.net, Marking.of("p_init"), "t1")
    assert after == Marking({"p1": 1, "p2": 1})


def test_fire_not_enabled_reports_first_empty_place(ex1):
    with pytest.raises(NotEnabled) as err:
        fire(ex1.net, Marking({"p1": 1, "p2": 1}), "t5")
    assert err.value.place == "p3"
    assert err.value.transition == "t5"


def test_fire_unknown_transition(ex1):
    with pytest.raises(UnknownTransition):
        fire(ex1.net, ex1.initial, "nope")


def test_fire_self_loop_leaves_marking_unchanged():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], {"t": Label("a")})
    assert fire(net, Marking.of("p"), "t") == Marking.of("p")


def test_fire_sequence_complete_run(ex1):
    end = fire_sequence(ex1.net, ex1.initial, ("t1", "t3", "t2", "t5"))
    assert end == Marking.of("p_final")


def test_fire_sequence_empty(ex1):
    assert fire_sequence(ex1.net, ex1.initial, ()) == ex1.initial


def test_fire_sequence_reports_step_index(ex1):
    with pytest.raises(NotEnabled) as err:
        fire_sequence(ex1.net, ex1.initial, ("t2",))
    assert err.value.step == 0


def test_enabled_transitions_in_declaration_order(ex1):
    assert enabled_transitions(ex1.net, Marking({"p3": 1, "p4": 1})) == ["t4", "t5"]


def _fire_by_definition(net, marking, t):
    """The firing rule as first written: take one token from each input place
    and add one to each output place, rebuilt through Marking's validating
    constructor."""
    for p in net.preset(t):
        if marking[p] == 0:
            raise NotEnabled(t, p)
    counts = marking.counts
    for p in net.preset(t):
        counts[p] -= 1
    for p in net.postset(t):
        counts[p] = counts.get(p, 0) + 1
    return Marking(counts)


def test_firing_rule_matches_its_definition():
    """On random nets and markings (tokens off the net included), enabledness
    and firing agree with the definitions, down to the key order, the hash
    and the place NotEnabled names."""
    rng = random.Random(42)
    nets = 0
    while nets < 300:
        system = random_safe_system(rng) if nets % 2 else random_single_token_ssystem(rng)
        if system is None:
            continue
        nets += 1
        net = system.net
        for _ in range(3):
            marking = Marking({p: rng.choice((0, 0, 1, 2))
                               for p in net.places + ("elsewhere",)})
            assert enabled_transitions(net, marking) == \
                [t for t in net.transitions if all(marking[p] > 0 for p in net.preset(t))]
            for t in net.transitions:
                try:
                    expected = _fire_by_definition(net, marking, t)
                except NotEnabled as want:
                    with pytest.raises(NotEnabled) as got:
                        fire(net, marking, t)
                    assert (got.value.transition, got.value.place) == \
                        (want.transition, want.place)
                    continue
                after = fire(net, marking, t)
                assert after == expected and hash(after) == hash(expected)
                assert list(after.items()) == list(expected.items())
                assert after.support() == expected.support()
                assert repr(after) == repr(expected)
        with pytest.raises(UnknownTransition):
            fire(net, marking, "elsewhere")


def test_parikh_counts():
    assert parikh(("t1", "t3", "t1")) == {"t1": 2, "t3": 1}
    assert parikh(()) == {}


def test_parikh_order_insensitive():
    rng = random.Random(7)
    for _ in range(25):
        seq = [rng.choice("abcd") for _ in range(rng.randint(0, 10))]
        perm = list(seq)
        rng.shuffle(perm)
        assert parikh(seq) == parikh(perm)


def test_incidence_column(ex1):
    matrix = incidence_matrix(ex1.net)
    assert matrix.column("t1") == {"p_init": -1, "p1": 1, "p2": 1}
    for p in ("p3", "p4", "p_final"):
        assert matrix[(p, "t1")] == 0


def test_incidence_self_loop_is_zero():
    net = PetriNet(("p", "q"), ("t",), [("p", "t"), ("t", "p"), ("t", "q")],
                   {"t": Label("a")})
    matrix = incidence_matrix(net)
    assert matrix[("p", "t")] == 0
    assert matrix[("q", "t")] == 1


def test_incidence_empty_net():
    net = PetriNet(("p",), (), [], {})
    with pytest.raises(EmptyNet):
        incidence_matrix(net)


def test_marking_equation_on_random_replays():
    """M0 + N*parikh(seq) must equal replaying the sequence, pointwise."""
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        system = random_safe_system(rng)
        if system is None:
            continue
        seq = random_replayable_walk(rng, system)
        end = fire_sequence(system.net, system.initial, seq)
        matrix = incidence_matrix(system.net)
        delta = matrix.displacement(parikh(seq))
        predicted = {p: system.initial[p] + delta.get(p, 0)
                     for p in system.net.places}
        assert {p: n for p, n in predicted.items() if n} == end.counts
        checked += 1


def test_marking_graph_rows_follow_the_firing_rule():
    """A row lists each enabled transition by declaration index, in
    declaration order, with the number of the marking firing it leads to;
    a marking keeps its number and its row object."""
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        system = random_safe_system(rng)
        if system is None:
            continue
        net = system.net
        graph = _MarkingGraph(net)
        marking = system.initial
        for t in random_replayable_walk(rng, system):
            i = graph.number(marking)
            row = graph.row(i)
            assert [(net.transitions[k], graph.markings[s]) for k, s in row] == \
                [(u, fire(net, marking, u)) for u in enabled_transitions(net, marking)]
            assert graph.row(i) is row and graph.number(marking) == i
            marking = fire(net, marking, t)
        assert graph.size == len(graph.rows)
        assert all(graph.numbers[m] == i for i, m in enumerate(graph.markings))
        checked += 1


def test_topological_order_is_last_in_first_out():
    net = PetriNet(("i", "p", "q", "o"), ("t1", "t2", "t3"),
                   [("i", "t1"), ("t1", "p"), ("t1", "q"), ("p", "t2"),
                    ("q", "t3"), ("t2", "o"), ("t3", "o")],
                   {t: Label("a") for t in ("t1", "t2", "t3")})
    assert net.topological_order() == ["i", "t1", "q", "t3", "p", "t2", "o"]


def test_topological_order_leaves_out_cycles(ex1, ex1_acyclic):
    # Every vertex of ex1 is on or behind the loop back to p_init.
    assert ex1.net.topological_order() == []
    net = ex1_acyclic.net
    assert sorted(net.topological_order()) == sorted(net.places + net.transitions)


def test_marking_semantics():
    assert Marking({"p": 1, "q": 0}) == Marking({"p": 1})
    assert Marking({"p": 1}) + Marking({"p": 1, "q": 2}) == Marking({"p": 2, "q": 2})
    assert Marking({"p": 1}) <= Marking({"p": 2, "q": 1})
    assert not Marking({"p": 1, "r": 1}) <= Marking({"p": 2})
    assert Marking({"p": 2}).max_count() == 2
    assert Marking.of("p", "p").counts == {"p": 2}
    with pytest.raises(ValueError):
        Marking({"p": -1})


def test_net_validation():
    with pytest.raises(ValueError):
        PetriNet(("p",), ("p",), [], {"p": Label("a")})
    with pytest.raises(ValueError):
        PetriNet(("p",), ("t",), [("p", "x")], {"t": Label("a")})
    with pytest.raises(ValueError):
        PetriNet(("p", "p"), ("t",), [], {"t": Label("a")})


def test_label_rules():
    assert Label(None).silent
    assert not Label("a").silent
    assert str(Label(None)) == "τ"
    with pytest.raises(ValueError):
        Label("not ok")
