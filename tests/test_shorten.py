import random

import pytest

from petrialign import (Label, Marking, PetriNet, compute_clusters,
                        conflict_order_from_sequence, fire_sequence,
                        is_biased, parikh, shorten, shorten_biased, shorten_lbfc)
from petrialign.errors import BoundAssumptionViolated, NotBiased, NotReplayable
from petrialign.petri import parikh_dominated
from randgen import marked_cycle_tsystem, random_replayable_walk


def two_place_cycle():
    net = PetriNet(("p1", "p2"), ("u1", "u2"),
                   [("p1", "u1"), ("u1", "p2"), ("p2", "u2"), ("u2", "p1")],
                   {"u1": Label("a"), "u2": Label("b")})
    return net


def test_clusters_ex1(ex1):
    clusters = {c.members for c in compute_clusters(ex1.net)}
    assert clusters == {("t1",), ("t2",), ("t3",), ("t4", "t5")}


def test_clusters_exact_preset_equality():
    # two transitions sharing only one of two input places are not clustered
    net = PetriNet(("p", "q"), ("t1", "t2"),
                   [("p", "t1"), ("q", "t1"), ("p", "t2")],
                   {"t1": Label("a"), "t2": Label("b")})
    clusters = {c.members for c in compute_clusters(net)}
    assert clusters == {("t1",), ("t2",)}


def test_is_biased(ex1):
    assert is_biased(ex1.net, ())
    assert is_biased(ex1.net, ("t1", "t2", "t3", "t4"))
    assert not is_biased(ex1.net, ("t4", "t5"))


def test_tsystem_sequences_always_biased():
    rng = random.Random(3)
    for _ in range(20):
        system, _ = marked_cycle_tsystem(rng)
        walk = random_replayable_walk(rng, system)
        assert is_biased(system.net, walk)


def test_conflict_order_agrees_with_sequence(ex1):
    order = conflict_order_from_sequence(ex1.net, ("t5", "t4", "t1", "t4"))
    # t4 occurs last within its cluster, so it must be maximal
    assert order.precedes("t5", "t4")
    assert order.comparable("t4", "t5")
    assert not order.comparable("t1", "t4")


def test_shorten_biased_cycle_to_empty():
    net = two_place_cycle()
    out = shorten_biased(net, Marking.of("p1"), ("u1", "u2", "u1", "u2"), 1)
    assert out == ()


def test_shorten_biased_distinct_kept():
    net = two_place_cycle()
    out = shorten_biased(net, Marking.of("p1"), ("u1", "u2"), 1)
    assert parikh(out) == {"u1": 1, "u2": 1}
    assert len(out) == 2


def test_shorten_biased_singleton():
    net = two_place_cycle()
    assert shorten_biased(net, Marking.of("p1"), ("u1",), 1) == ("u1",)


def test_shorten_biased_rejects_unbiased(ex1):
    with pytest.raises(NotBiased):
        shorten_biased(ex1.net, Marking({"p3": 1, "p4": 1}), ("t5", "t4"), 1)


@pytest.mark.parametrize("bound", [0, -3])
def test_shorten_biased_rejects_nonpositive_bounds(bound):
    with pytest.raises(ValueError, match="bound must be >= 1"):
        shorten_biased(two_place_cycle(), Marking.of("p1"), ("u1",), bound)


def test_shorten_biased_rejects_a_run_that_moves_the_marking():
    """t takes from p and puts back on p and q, so its run of two equal
    blocks grows q: the system is not 1-bounded, and the run cannot go."""
    net = PetriNet(("p", "q"), ("t",), [("p", "t"), ("t", "p"), ("t", "q")],
                   {"t": Label("a")})
    with pytest.raises(BoundAssumptionViolated, match="equal-support block changes the marking"):
        shorten_biased(net, Marking.of("p"), ("t", "t"), 1)


def _self_loops(*ts):
    """Place p1 and, per id, a transition labelled by it with a self-loop on p1."""
    return PetriNet(("p1",), ts, [arc for t in ts for arc in (("p1", t), (t, "p1"))],
                    {t: Label(t) for t in ts})


@pytest.mark.parametrize("solve, patched, fault, net, seq, message", [
    (shorten_biased, "_first_occurrence_blocks", lambda seq: [],
     two_place_cycle(), ("u1",), "misses the end marking"),
    (shorten_biased, "_first_occurrence_blocks", lambda seq: [("t",), ("u",)],
     _self_loops("t", "u"), ("t",), "length bound violated"),
    (shorten_biased, "_first_occurrence_blocks", lambda seq: [("u",)],
     _self_loops("t", "u"), ("t",), "Parikh domination violated"),
    (shorten_lbfc, "shorten_biased", lambda net, m, segment, bound: (),
     two_place_cycle(), ("u1",), "misses the end marking"),
    (shorten_lbfc, "shorten_biased", lambda net, m, segment, bound: ("u",),
     _self_loops("t", "u"), ("t",), "Parikh domination violated"),
    (shorten_lbfc, "shorten_biased", lambda net, m, segment, bound: segment,
     _self_loops("t"), ("t", "t"), "length bound violated"),
], ids=["biased_end", "biased_length", "biased_parikh", "lbfc_end", "lbfc_parikh",
        "lbfc_length"])
def test_a_faulty_step_is_caught_by_the_post_checks(monkeypatch, solve, patched, fault, net,
                                                    seq, message):
    """Each post-check of the shortening, reached by one fault in the step
    before it: blocks that drop or add transitions, or a segment shortened
    to a wrong sequence or not at all."""
    monkeypatch.setattr(shorten, patched, fault)
    with pytest.raises(BoundAssumptionViolated, match=message):
        solve(net, Marking.of("p1"), seq, 1)


def test_shorten_biased_rejects_unreplayable():
    net = two_place_cycle()
    with pytest.raises(NotReplayable):
        shorten_biased(net, Marking.of("p1"), ("u2",), 1)


def test_shorten_biased_guarantees_on_random_walks():
    rng = random.Random(17)
    for _ in range(60):
        system, tokens = marked_cycle_tsystem(rng)
        walk = random_replayable_walk(rng, system)
        out = shorten_biased(system.net, system.initial, walk, tokens)
        assert fire_sequence(system.net, system.initial, out) == \
            fire_sequence(system.net, system.initial, walk)
        assert parikh_dominated(parikh(out), parikh(walk))
        k = len(set(walk))
        assert len(out) <= tokens * k * (k + 1) // 2


def test_shorten_lbfc_repeated_run(ex1):
    seq = ("t1", "t2", "t3", "t4") * 2 + ("t1", "t3", "t2", "t5")
    result = shorten_lbfc(ex1.net, ex1.initial, seq, 1)
    assert not result.search_exhausted
    assert result.bound_value == 35
    assert result.output_length <= 35
    assert fire_sequence(ex1.net, ex1.initial, result.sequence) == \
        Marking.of("p_final")
    assert parikh_dominated(parikh(result.sequence), parikh(seq))


def test_shorten_lbfc_long_run(ex1):
    """A run of 1,204 firings is scheduled without one Python frame per
    firing, and shortens to the same four firings as a short one."""
    seq = ("t1", "t2", "t3", "t4") * 300 + ("t1", "t3", "t2", "t5")
    result = shorten_lbfc(ex1.net, ex1.initial, seq, 1)
    assert (result.input_length, result.output_length, result.bound_value) == (1204, 4, 35)
    assert fire_sequence(ex1.net, ex1.initial, result.sequence) == Marking.of("p_final")


def test_shorten_lbfc_empty(ex1):
    result = shorten_lbfc(ex1.net, ex1.initial, (), 1)
    assert result.sequence == ()
    assert result.output_length == 0


def test_shorten_lbfc_biased_input_delegates():
    net = two_place_cycle()
    result = shorten_lbfc(net, Marking.of("p1"), ("u1", "u2", "u1", "u2"), 1)
    assert result.sequence == ()


def test_shorten_lbfc_budget_flag(ex1):
    seq = ("t1", "t2", "t3", "t4") * 2 + ("t1", "t3", "t2", "t5")
    result = shorten_lbfc(ex1.net, ex1.initial, seq, 1, search_budget=1)
    assert result.search_exhausted
    assert result.sequence == seq


def test_shorten_lbfc_without_an_ordered_permutation():
    """A free-choice net that is not bounded (r2 pumps): within cluster {a, b}
    a must use up its count before b fires, and no permutation of the run
    does that and replays.  That is a failed precondition, not a budget
    overrun, whatever the budget."""
    net = PetriNet(("p", "q", "r", "r2"), ("a", "b", "c", "d"),
                   [("p", "a"), ("a", "q"), ("p", "b"), ("b", "r"),
                    ("q", "c"), ("r2", "c"), ("c", "p"),
                    ("r", "d"), ("d", "p"), ("d", "r2")],
                   {t: Label(t) for t in "abcd"})
    seq = ("b", "d", "a", "c", "b", "d")
    for budget in (200_000, 2):
        with pytest.raises(BoundAssumptionViolated, match="conflict order"):
            shorten_lbfc(net, Marking.of("p"), seq, 2, search_budget=budget)
    assert shorten_lbfc(net, Marking.of("p"), seq, 2,
                        search_budget=1).search_exhausted


@pytest.mark.parametrize("bound", [0, -3])
def test_shorten_lbfc_rejects_nonpositive_bounds(ex1, bound):
    for seq in ((), ("t1", "t2", "t3", "t5")):
        with pytest.raises(ValueError, match="bound"):
            shorten_lbfc(ex1.net, ex1.initial, seq, bound)


def test_shorten_lbfc_rejects_unreplayable(ex1):
    with pytest.raises(NotReplayable):
        shorten_lbfc(ex1.net, ex1.initial, ("t5",), 1)
