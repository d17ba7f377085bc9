import random
from decimal import Decimal
from fractions import Fraction

import pytest

from petrialign import (AcceptingSystem, CostFunction, Label, Marking, Move,
                        PetriNet, brute_force_oracle, dispatch_align, min_cost_reach,
                        optimal_alignment, optimal_alignment_acyclic, parse_cost,
                        render_alignment, standard_costs, structural_class,
                        validate_alignment)
from petrialign.errors import (IllegalMove, NotCompleteFiringSequence,
                               ProjectionMismatch, UnknownTransition)
from randgen import (random_acyclic_system, random_replayable_walk,
                     random_safe_system, random_single_token_ssystem, random_trace)

TRACE = ("a", "b", "a", "a")

# The two alignments of the running example: first with four synchronous
# moves, three visible inserts and one silent insert; second with one insert
# and one deletion.
ALIGNMENT_A = (Move("a", "t1"), Move("b", "t3"), Move(None, "t2"),
               Move(None, "t4"), Move("a", "t1"), Move("a", "t2"),
               Move(None, "t3"), Move(None, "t5"))
ALIGNMENT_B = (Move("a", "t1"), Move("b", "t3"), Move("a", "t2"),
               Move(None, "t5"), Move("a", None))


def test_standard_costs(ex1):
    c = standard_costs(ex1)
    assert c.model("t4") == 0          # silent insert
    assert c.model("t2") == 1          # visible insert
    assert c.log("a") == 1             # deletion
    assert c.sync("a", "t1") == 0


def test_validate_alignment_b(ex1):
    assert validate_alignment(ALIGNMENT_B, TRACE, ex1, standard_costs(ex1)) == 2


def test_validate_alignment_a(ex1):
    assert validate_alignment(ALIGNMENT_A, TRACE, ex1, standard_costs(ex1)) == 3


def test_validate_empty_alignment():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    assert validate_alignment((), (), system, standard_costs(system)) == 0


def test_illegal_move_label_mismatch(ex1):
    gamma = (Move("b", "t1"),)   # t1 is labeled a
    with pytest.raises(IllegalMove) as err:
        validate_alignment(gamma, ("b",), ex1, standard_costs(ex1))
    assert err.value.index == 0


def test_illegal_move_unknown_transition(ex1):
    with pytest.raises(IllegalMove, match="unknown transition 't99'") as err:
        validate_alignment((Move("a", "t99"),), ("a",), ex1, standard_costs(ex1))
    assert err.value.index == 0


def test_illegal_move_sync_with_silent(ex1):
    gamma = (Move("a", "t4"),)
    with pytest.raises(IllegalMove):
        validate_alignment(gamma, ("a",), ex1, standard_costs(ex1))


def test_projection_mismatch(ex1):
    with pytest.raises(ProjectionMismatch):
        validate_alignment(ALIGNMENT_B, ("a", "b"), ex1, standard_costs(ex1))


def test_not_complete_firing_sequence(ex1):
    gamma = (Move("a", "t2"),)   # t2 not enabled initially
    with pytest.raises(NotCompleteFiringSequence) as err:
        validate_alignment(gamma, ("a",), ex1, standard_costs(ex1))
    assert err.value.index == 0


def test_wrong_end_marking(ex1):
    gamma = (Move("a", "t1"),)
    with pytest.raises(NotCompleteFiringSequence):
        validate_alignment(gamma, ("a",), ex1, standard_costs(ex1))


def test_move_validation():
    with pytest.raises(ValueError):
        Move(None, None)
    assert Move("a", "t1").kind == "sync"
    assert Move("a", None).kind == "log"
    assert Move(None, "t1").kind == "model"


def test_parse_cost_forms():
    assert parse_cost("2") == 2
    assert parse_cost("2.5") == Fraction(5, 2)
    assert parse_cost("5/2") == Fraction(5, 2)
    with pytest.raises(ValueError):
        parse_cost("-1")


def test_cost_overrides_and_exactness(ex1):
    c = CostFunction(labels=dict(ex1.net.labels),
                     log_overrides={"a": Fraction(1, 3)},
                     model_overrides={"t2": Fraction(5, 2)})
    assert c.log("a") == Fraction(1, 3)
    assert c.log("b") == 1
    assert c.model("t2") == Fraction(5, 2)
    assert c.move_cost(Move("a", None)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        CostFunction(labels={}, log_overrides={"a": Fraction(-1)})
    # Ints and floats are stored as the Fractions they equal; strings are refused.
    c = CostFunction(labels=dict(ex1.net.labels), log_overrides={"a": 0.1, "b": 2},
                     sync_overrides={("a", "t1"): 0.5})
    for v, exact in ((c.log("a"), Fraction(0.1)), (c.log("b"), 2),
                     (c.sync("a", "t1"), Fraction(1, 2))):
        assert v == exact and type(v) is Fraction
    with pytest.raises(ValueError):
        CostFunction(labels={}, model_overrides={"t1": -0.5})
    with pytest.raises(TypeError):
        CostFunction(labels={}, log_overrides={"a": "1/2"})


@pytest.mark.parametrize("v", [float("inf"), float("-inf"), float("nan"), Decimal("NaN"),
                               Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity")])
def test_a_non_finite_cost_is_a_value_error(ex1, v):
    """A cost with no Fraction is refused as a negative one is, by the
    caller's cost function and by min_cost_reach, whose costs take the same
    path, in all three override tables: a decimal NaN too, whose comparison
    raises InvalidOperation."""
    for overrides in ({"log_overrides": {"a": v}}, {"model_overrides": {"t2": v}},
                      {"sync_overrides": {("a", "t1"): v}}):
        with pytest.raises(ValueError, match="finite and non-negative"):
            CostFunction(labels=dict(ex1.net.labels), **overrides)
    with pytest.raises(ValueError, match="finite and non-negative"):
        min_cost_reach(ex1.net, ex1.initial, {"t1": v}, ex1.final)


def test_cost_overrides_name_legal_moves(ex1):
    labels = dict(ex1.net.labels)
    with pytest.raises(UnknownTransition):
        CostFunction(labels, model_overrides={"t99": 5})
    with pytest.raises(UnknownTransition):
        CostFunction(labels, sync_overrides={("a", "t99"): 5})
    # t1 carries a, and the silent t4 carries no label.
    for key in (("b", "t1"), ("a", "t4"), (None, "t4")):
        with pytest.raises(ValueError, match="no synchronous move"):
            CostFunction(labels, sync_overrides={key: 7})
    # A letter the model lacks is still a legal log move.
    c = CostFunction(labels, log_overrides={"z": 3}, sync_overrides={("a", "t1"): 2},
                     model_overrides={"t4": 1})
    assert (c.log("z"), c.sync("a", "t1"), c.model("t4")) == (3, 2, 1)


def test_render_alignment(ex1):
    block = render_alignment(ALIGNMENT_B, ex1)
    rows = block.splitlines()
    assert len(rows) == 3
    assert rows[0].split() == ["a", "b", "a", "≫", "a"]
    assert rows[1].split() == ["a", "b", "a", "b", "≫"]
    assert rows[2].split() == ["t1", "t3", "t2", "t5", "≫"]


def test_render_silent_as_tau(ex1):
    block = render_alignment((Move(None, "t4"),), ex1)
    assert block.splitlines()[1] == "τ"


def _per_transition_costs(system):
    """Sync prices that differ between transitions sharing a label, by
    transition index, with log and model overrides besides."""
    net = system.net
    return CostFunction(labels=dict(net.labels),
                        sync_overrides={(net.label(t).name, t): Fraction(k % 3, 2)
                                        for k, t in enumerate(net.transitions)
                                        if not net.label(t).silent},
                        log_overrides={"a": Fraction(3, 4), "c": Fraction(5, 3)},
                        model_overrides={t: Fraction(k % 4 + 1, 3)
                                         for k, t in enumerate(net.transitions)
                                         if not net.label(t).silent})


def _shares_a_label_at_two_prices(system, c):
    net = system.net
    prices: dict[str, set] = {}
    for t in net.transitions:
        if not net.label(t).silent:
            prices.setdefault(net.label(t).name, set()).add(c.sync(net.label(t).name, t))
    return any(len(v) > 1 for v in prices.values())


def test_sync_prices_per_transition_agree_with_the_oracle():
    """Random safe systems, whose labels repeat from a three-letter pool,
    single-token S-systems and acyclic systems, under sync prices of each
    transition's own: every solver that applies returns the oracle's cost,
    with a witness that validates at that cost."""
    rng = random.Random(131)
    draws = [random_safe_system, random_single_token_ssystem, random_acyclic_system]
    checked = shared = acyclic = 0
    while checked < 45:
        system = draws[checked % 3](rng)
        if system is None:
            continue
        checked += 1
        c = _per_transition_costs(system)
        shared += _shares_a_label_at_two_prices(system, c)
        walk = random_replayable_walk(rng, system, max_len=6)
        traces = [random_trace(rng, max_len=5),
                  tuple(system.net.label(t).name for t in walk
                        if not system.net.label(t).silent)]
        solvers = [optimal_alignment, dispatch_align]
        if structural_class(system.net, system.initial, system.final).acyclic:
            solvers.append(optimal_alignment_acyclic)
            acyclic += 1
        for trace in traces:
            expected = brute_force_oracle(trace, system, c)
            for solve in solvers:
                result = solve(trace, system, c)
                assert result.cost == expected, (solve.__name__, trace, str(system.net))
                assert validate_alignment(result.alignment, trace, system, c) == expected
    assert shared >= 10 and acyclic >= 10, (shared, acyclic)

