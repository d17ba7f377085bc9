"""Alignment solver for acyclic systems.

Alignments on acyclic systems are NP-complete.  The solver is the exact
least-cost search over the synchronous product, behind the acyclicity check,
as the S-system solver is that search behind its own checks.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .costs import CostFunction
from .engine import AlignResult, align_by_search
from .errors import BudgetExceeded, NotAcyclic, StuckContradiction
from .petri import DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet, _schedule_counts


def realize_parikh_acyclic(net: PetriNet, m0: Marking,
                           x: Mapping[str, int]) -> tuple[str, ...]:
    """Schedule the counts in x into a firing sequence from m0.

    Greedy: repeatedly fire the first enabled transition, in declaration
    order, with remaining count.  On structurally acyclic nets this always
    exhausts a marking-equation solution; getting stuck signals a violated
    precondition.  The greedy sequence is `_schedule_counts`' first branch,
    n firings plus the final check; a budget of n + 1 steps stops any
    backtrack, which on n independent transitions could visit 2^n states.
    """
    for t, n in x.items():
        if not net.has_transition(t):
            raise StuckContradiction(f"unknown transition {t!r} in Parikh vector")
        if n < 0:
            raise StuckContradiction("negative count in Parikh vector")
    try:
        seq = _schedule_counts(net, m0, x, sum(x.values()) + 1)
    except BudgetExceeded:
        seq = None
    if seq is None:
        raise StuckContradiction(f"no schedule of the counts from {m0!r}")
    return seq


def optimal_alignment_acyclic(trace: Sequence[str], sys: AcceptingSystem,
                              c: CostFunction | None = None,
                              state_budget: int = DEFAULT_STATE_BUDGET) -> AlignResult:
    """Optimal alignment for an acyclic system: the least-cost search,
    reported as "acyclic".  state_budget bounds the states it settles.  The
    net decides its acyclicity once (`PetriNet.is_acyclic`)."""
    if not sys.net.is_acyclic():
        raise NotAcyclic("model net has a cycle")
    return align_by_search(trace, sys, c, state_budget, "acyclic")
