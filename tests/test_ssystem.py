import random

import pytest

from petrialign import (AcceptingSystem, Label, Marking, PetriNet,
                        brute_force_oracle, gen_shuffle_ssystem,
                        optimal_alignment, optimal_alignment_ssystem,
                        standard_costs, trace_system, validate_alignment)
from petrialign.errors import (BudgetExceeded, NotEasySound, NotSingleToken,
                               NotSSystem)
from randgen import (assert_pinned, dying_token_system, random_single_token_ssystem,
                     random_trace)


def cycle_system():
    net = PetriNet(("p0", "p1"), ("ta", "tb"),
                   [("p0", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "p0")],
                   {"ta": Label("a"), "tb": Label("b")})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p0"))


def test_line_perfect_match():
    system = trace_system(("a", "b"))
    result = optimal_alignment_ssystem(("a", "b"), system)
    assert result.cost == 0
    assert result.algorithm == "ssystem"


def test_cycle_perfect_match():
    result = optimal_alignment_ssystem(("a", "b", "a", "b"), cycle_system())
    assert result.cost == 0


def test_cycle_deviating_trace_agrees_with_generic_and_oracle():
    system = cycle_system()
    trace = ("a", "a")
    special = optimal_alignment_ssystem(trace, system)
    assert special.cost == 2
    assert special.cost == optimal_alignment(trace, system).cost
    assert special.cost == brute_force_oracle(trace, system)
    assert validate_alignment(special.alignment, trace, system,
                              standard_costs(system)) == special.cost


def test_rejects_non_ssystem(ex1):
    with pytest.raises(NotSSystem):
        optimal_alignment_ssystem(("a",), ex1)


def test_rejects_multi_token():
    system = gen_shuffle_ssystem(("a", "b"), 2)
    with pytest.raises(NotSingleToken):
        optimal_alignment_ssystem(("a", "b"), system)


def test_not_easy_sound():
    net = PetriNet(("p0", "p1", "p2"), ("ta",),
                   [("p0", "ta"), ("ta", "p1")],
                   {"ta": Label("a")})
    system = AcceptingSystem(net, Marking.of("p0"), Marking.of("p2"))
    with pytest.raises(NotEasySound):
        optimal_alignment_ssystem(("a",), system)


def test_agreement_on_random_ssystems():
    rng = random.Random(11)
    done = 0
    while done < 30:
        system = random_single_token_ssystem(rng)
        if system is None:
            continue
        trace = random_trace(rng, max_len=5)
        special = optimal_alignment_ssystem(trace, system)
        generic = optimal_alignment(trace, system)
        assert special.cost == generic.cost
        assert validate_alignment(special.alignment, trace, system,
                                  standard_costs(system)) == special.cost
        done += 1


def test_dying_token_reaches_empty_marking():
    system = dying_token_system()
    special = optimal_alignment_ssystem(("a", "b"), system)
    assert special.cost == optimal_alignment(("a", "b"), system).cost == 0


def test_empty_trace():
    result = optimal_alignment_ssystem((), cycle_system())
    assert result.cost == 0 and result.alignment == ()
    result = optimal_alignment_ssystem((), dying_token_system())
    assert result.cost == 2 == brute_force_oracle((), dying_token_system())


def test_state_budget():
    with pytest.raises(BudgetExceeded):
        optimal_alignment_ssystem(("a", "b"), cycle_system(), state_budget=1)


def test_source_transition_result_depends_on_the_trace():
    """A transition with no input place makes the net unbounded, so the
    (|trace| + 1)(|P| + 1) state bound no longer holds: a trace whose optimum
    the search settles within the bound is aligned, another one raises."""
    net = PetriNet(("p0", "p1"), ("ta", "ts"),
                   [("p0", "ta"), ("ta", "p1"), ("ts", "p0")],
                   {"ta": Label("a"), "ts": Label(None)})
    system = AcceptingSystem(net, Marking.of("p0"), Marking.of("p1"))
    assert optimal_alignment_ssystem(("a",), system).cost == 0
    with pytest.raises(BudgetExceeded):
        optimal_alignment_ssystem(("b",), system)


# Alignments and settled-state counts of the pinned tie-break, the same on
# the S-system and the generic route.
PINNED = [
    (cycle_system, ("a", "a"), ("2", 6, "a/ta a/>> >>/tb")),
    (cycle_system, ("a", "b", "a", "b"), ("0", 5, "a/ta b/tb a/ta b/tb")),
    (cycle_system, ("b", "a", "a", "b", "b"), ("3", 9, "b/>> a/ta a/>> b/tb b/>>")),
    (dying_token_system, ("a", "b"), ("0", 3, "a/ta b/tdie")),
    (dying_token_system, ("b", "a", "c"), ("3", 11, "b/>> a/ta c/>> >>/tdie")),
]


@pytest.mark.parametrize("make,trace,expected", PINNED)
def test_pinned_tie_break(make, trace, expected):
    for solve in (optimal_alignment_ssystem, optimal_alignment):
        system = make()
        assert_pinned(solve(trace, system), trace, system, None, expected)
