"""Alignment solver for acyclic systems via the marking equation.

On a structurally acyclic net every non-negative integer solution of the
marking equation is realizable, so the equation characterizes reachability.
The synchronous product of a trace system with an acyclic model is bounded and
never revisits a marking, but crossing synchronous pairs can create directed
cycles in its graph, and equation solutions over it may be unrealizable.  The
solver therefore uses the equation as the bounding relaxation of a
branch-and-bound over transition counts and accepts a candidate solution only
after scheduling it into an actual firing sequence; candidates are visited in
cost order, so the first realizable one is the optimum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .costs import CostFunction, Move, standard_costs
from .engine import AlignResult, scale_weights
from .errors import BudgetExceeded, Infeasible, NotAcyclic, StuckContradiction
from .petri import (AcceptingSystem, Marking, PetriNet, incidence_matrix, fire,
                    fire_sequence)
from .products import product_parts, synchronous_product, trace_system


def realize_parikh_acyclic(net: PetriNet, m0: Marking,
                           x: Mapping[str, int]) -> tuple[str, ...]:
    """Schedule the counts in x into a firing sequence from m0.

    Greedy: repeatedly fire the first enabled transition with remaining count.
    On structurally acyclic nets this always exhausts a marking-equation
    solution; getting stuck signals a violated precondition.
    """
    remaining = {}
    for t, n in x.items():
        if not net.has_transition(t):
            raise StuckContradiction(f"unknown transition {t!r} in Parikh vector")
        if n < 0:
            raise StuckContradiction("negative count in Parikh vector")
        if n:
            remaining[t] = int(n)
    seq: list[str] = []
    m = m0
    while remaining:
        for t in net.transitions:
            if t in remaining and all(m[p] > 0 for p in net.preset(t)):
                m = fire(net, m, t)
                seq.append(t)
                if remaining[t] == 1:
                    del remaining[t]
                else:
                    remaining[t] -= 1
                break
        else:
            raise StuckContradiction(
                f"no enabled transition with remaining count at {m!r}")
    return tuple(seq)


def _schedule_counts(net: PetriNet, m0: Marking, x: Mapping[str, int],
                     step_budget: int) -> tuple[str, ...] | None:
    """Backtracking scheduler: some firing order exhausting x, or None.

    The marking after any prefix depends only on the remaining counts, so dead
    remaining-count vectors are memoized.  More than step_budget recursion
    steps raise BudgetExceeded.
    """
    items = sorted(t for t, n in x.items() if n)
    remaining = {t: x[t] for t in items}
    seq: list[str] = []
    dead: set[tuple[int, ...]] = set()
    steps = 0

    def rec(m: Marking) -> bool:
        nonlocal steps
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded(steps, what="schedule steps")
        if not remaining:
            return True
        state = tuple(remaining.get(t, 0) for t in items)
        if state in dead:
            return False
        for t in items:
            if remaining.get(t, 0) and all(m[p] > 0 for p in net.preset(t)):
                remaining[t] -= 1
                if remaining[t] == 0:
                    del remaining[t]
                seq.append(t)
                if rec(fire(net, m, t)):
                    return True
                seq.pop()
                remaining[t] = remaining.get(t, 0) + 1
        dead.add(state)
        return False

    return tuple(seq) if rec(m0) else None


def _firing_caps(net: PetriNet, initial: Marking) -> dict[str, float]:
    """Token-flow upper bound on how often each transition can fire.

    cap(p) = initial tokens plus caps of all producers; cap(t) = min over its
    input places.  Well-founded on acyclic nets; transitions with no inputs
    get an infinite cap.
    """
    place_cap: dict[str, float] = {}
    trans_cap: dict[str, float] = {}
    for v in net.topological_order():
        if net.has_place(v):
            place_cap[v] = initial[v] + sum(trans_cap[t] for t in net.preset(v))
        else:
            pres = net.preset(v)
            trans_cap[v] = min((place_cap[p] for p in pres), default=math.inf)
    return trans_cap


def _variable_order(net: PetriNet) -> list[str]:
    """Transitions in topological order where the graph allows, remaining ones
    (on cycles) appended in declaration order."""
    out = [v for v in net.topological_order() if net.has_transition(v)]
    seen = set(out)
    out.extend(t for t in net.transitions if t not in seen)
    return out


def _min_cost_parikh(net: PetriNet, initial: Marking, final: Marking,
                     weight: Mapping[str, int], bounds_by_tid: Mapping[str, float],
                     node_budget: int):
    """Branch-and-bound for a cost-minimal realizable solution of the marking
    equation; returns (cost, counts, sequence, nodes) or raises Infeasible."""
    matrix = incidence_matrix(net)
    variables = _variable_order(net)
    columns: list[list[tuple[str, int]]] = []
    bounds: list[float] = []
    for t in variables:
        columns.append(sorted(matrix.column(t).items()))
        cap = bounds_by_tid[t]
        if cap == math.inf and weight[t] == 0:
            raise BudgetExceeded(0, what="unbounded zero-cost transition counts")
        bounds.append(cap)

    places = net.places
    n = len(variables)
    # Suffix windows: how much each place can still gain / lose from the
    # remaining variables, for feasibility pruning.
    pos_cap = [dict() for _ in range(n + 1)]
    neg_cap = [dict() for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        pos_cap[i] = dict(pos_cap[i + 1])
        neg_cap[i] = dict(neg_cap[i + 1])
        for p, v in columns[i]:
            if v > 0:
                pos_cap[i][p] = pos_cap[i].get(p, 0) + bounds[i]
            else:
                neg_cap[i][p] = neg_cap[i].get(p, 0) + bounds[i]
    last_touch: dict[str, int] = {}
    for i, col in enumerate(columns):
        for p, _ in col:
            last_touch[p] = i

    residual = {p: final[p] - initial[p] for p in places}
    for p in places:
        if p not in last_touch and residual[p] != 0:
            raise Infeasible(f"place {p!r} cannot change by firing")

    best: list = [None, None, None]   # cost, counts, sequence
    nodes = 0
    assignment = [0] * n

    def feasible(i) -> bool:
        for p, r in residual.items():
            if r > 0 and r > pos_cap[i].get(p, 0):
                return False
            if r < 0 and -r > neg_cap[i].get(p, 0):
                return False
        return True

    def rec(i, partial_cost):
        nonlocal nodes
        if best[0] is not None and partial_cost >= best[0]:
            return
        if i == n:
            if any(residual.values()):
                return
            counts = {variables[j]: assignment[j] for j in range(n) if assignment[j]}
            seq = _schedule_counts(net, initial, counts, node_budget)
            if seq is not None:
                best[0] = partial_cost
                best[1] = counts
                best[2] = seq
            return
        t = variables[i]
        w = weight[t]
        col = columns[i]
        count = 0
        while count <= bounds[i]:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(nodes, what="search nodes")
            cost2 = partial_cost + count * w
            # Larger counts only cost more once w > 0.
            if best[0] is not None and cost2 >= best[0] and count > 0 and w > 0:
                break
            assignment[i] = count
            for p, v in col:
                residual[p] -= v * count
            ok = feasible(i + 1)
            if ok:
                for p, _ in col:
                    if last_touch[p] == i and residual[p] != 0:
                        ok = False
                        break
            if ok:
                rec(i + 1, cost2)
            for p, v in col:
                residual[p] += v * count
            count += 1
        assignment[i] = 0

    rec(0, 0)
    if best[0] is None:
        raise Infeasible("marking equation has no realizable solution")
    return best[0], best[1], best[2], nodes


def optimal_alignment_acyclic(trace: Sequence[str], sys: AcceptingSystem,
                              c: CostFunction | None = None,
                              node_budget: int = 10**6) -> AlignResult:
    """Optimal alignment for acyclic systems via the marking-equation solver.

    node_budget bounds the branch-and-bound nodes and, separately, the
    recursion steps of each candidate's scheduling.
    """
    net = sys.net
    if len(net.topological_order()) != len(net.places) + len(net.transitions):
        raise NotAcyclic("model net has a cycle")
    if c is None:
        c = standard_costs(sys)
    trace = tuple(trace)
    product = synchronous_product(trace_system(trace), sys)

    # Trace places carry at most one token ever, so every synchronous or log
    # transition fires at most once; model moves are capped by the token flow
    # of the acyclic model net.
    model_caps = _firing_caps(sys.net, sys.initial)
    costs: dict[str, Fraction] = {}
    moves: dict[str, Move] = {}
    bounds_by_tid: dict[str, float] = {}
    for tid in product.net.transitions:
        left, right = product_parts(tid)
        letter = product.net.label(tid).name if left is not None else None
        moves[tid] = Move(letter, right)
        costs[tid] = c.move_cost(moves[tid])
        bounds_by_tid[tid] = 1 if left is not None else model_caps[right]
    weight, scale = scale_weights(costs)

    cost, counts, seq, nodes = _min_cost_parikh(
        product.net, product.initial, product.final, weight, bounds_by_tid,
        node_budget)
    end = fire_sequence(product.net, product.initial, seq)
    if end != product.final:
        raise StuckContradiction("scheduled sequence does not reach the final marking")
    return AlignResult(tuple(moves[t] for t in seq), Fraction(cost, scale),
                       "acyclic", nodes)
