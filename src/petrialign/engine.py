"""Cost-minimal reachability search, the generic alignment solver, membership,
the exhaustive oracle, and the class-aware dispatcher.

All searches work on integer-scaled exact costs: the least common multiple of
the cost denominators turns every weight into a non-negative int, so heap and
DP arithmetic stay exact and fast; results are converted back to Fractions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .classify import StructuralReport, behavioral_class, structural_class
from .costs import CostFunction, Move, standard_costs
from .errors import (BudgetExceeded, CapExhausted, NotEasySound, Unreachable)
from .petri import (DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet,
                    _enabled_among, fire, is_token)


@dataclass(frozen=True)
class AlignResult:
    alignment: tuple[Move, ...]
    cost: Fraction
    algorithm: str
    states_expanded: int
    lbfc_cap: int | None = None


@dataclass(frozen=True)
class Budgets:
    states: int = DEFAULT_STATE_BUDGET
    nodes: int = DEFAULT_STATE_BUDGET


def scale_weights(costs: Mapping[object, Fraction]) -> tuple[dict, int]:
    """Common-denominator integer weights plus the scale factor."""
    scale = math.lcm(*(Fraction(v).denominator for v in costs.values())) if costs else 1
    scaled = {}
    for t, v in costs.items():
        v = Fraction(v)
        if v < 0:
            raise ValueError(f"cost of {t!r} is negative")
        scaled[t] = int(v * scale)
    return scaled, scale


# Expansion preference among equal-cost moves.
_KIND_SYNC, _KIND_MODEL, _KIND_LOG = 0, 1, 2


def dijkstra_least_cost(net: PetriNet, trace: Sequence[str], initial: Marking,
                        final: Marking, moves, state_budget: int):
    """Least-cost move sequence over the states (trace position, marking) of
    the synchronous product of the trace and the net, generated on the fly
    from (0, initial) to (len(trace), final).

    `moves` is (sync, log, model): sync maps each trace letter to its
    (transition index, weight, tie-break key, move) entries, log maps it to
    (weight, move), and model holds one entry per transition, all in
    declaration order.  A state yields its moves in the product's declaration
    order: sync moves on the next letter, the log move, then model moves.
    Equal-cost frontier entries expand in (key, insertion) order, which pins
    down a reproducible witness.  Returns (cost, moves, settled).
    """
    cnet = net.compiled()
    pre, cfire = cnet.pre, cnet.fire
    sync, log, model = moves
    n = len(trace)
    # A log move breaks ties on the id trace_system gives its position.
    log_keys = [(_KIND_LOG, f"t{i}") for i in range(1, n + 1)]
    start = (0, cnet.encode(initial))
    goal = (n, cnet.encode(final))
    best = {start: (0, None, None)}   # state -> (cost, parent state, move)
    settled = set()
    heap: list = [(0, (), 0, start)]
    counter = 1
    while heap:
        cost, _, _, state = heapq.heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        if len(settled) > state_budget:
            raise BudgetExceeded(len(settled))
        if state == goal:
            path = []
            _, parent, move = best[state]
            while parent is not None:
                path.append(move)
                _, parent, move = best[parent]
            return cost, tuple(reversed(path)), len(settled)
        pos, m = state
        steps = []
        if pos < n:
            letter = trace[pos]
            for t, w, key, move in sync[letter]:
                for p in pre[t]:
                    if not m[p]:
                        break
                else:
                    steps.append(((pos + 1, cfire(m, t)), w, key, move))
            w, move = log[letter]
            steps.append(((pos + 1, m), w, log_keys[pos], move))
        for t, w, key, move in model:
            for p in pre[t]:
                if not m[p]:
                    break
            else:
                steps.append(((pos, cfire(m, t)), w, key, move))
        for nxt, w, key, move in steps:
            if nxt in settled:
                continue
            nc = cost + w
            old = best.get(nxt)
            if old is None or nc < old[0]:
                best[nxt] = (nc, state, move)
                heapq.heappush(heap, (nc, key, counter, nxt))
                counter += 1
    raise Unreachable(f"marking {final!r} is not reachable")


def min_cost_reach(net: PetriNet, initial: Marking,
                   costs: Mapping[str, Fraction | int],
                   target: Marking,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> tuple[Fraction, tuple[str, ...]]:
    """Least-cost firing sequence from `initial` to `target`.

    Transitions missing from `costs` count as free, so an all-empty mapping
    reduces the problem to plain reachability.
    """
    weight, scale = scale_weights({t: Fraction(costs.get(t, 0)) for t in net.transitions})
    # Tokens on places outside the net never move.
    outside = [p for p in initial.support() + target.support() if not net.has_place(p)]
    if any(initial[p] != target[p] for p in outside):
        raise Unreachable(f"marking {target!r} is not reachable")
    model = [(i, weight[t], (_KIND_MODEL, t), t) for i, t in enumerate(net.transitions)]
    cost, seq, _ = dijkstra_least_cost(net, (), initial, target, ({}, {}, model),
                                       state_budget)
    return Fraction(cost, scale), seq


class _MoveTable:
    """The search's move rows for one net under one cost function.

    Exact costs are kept per group: the model rows, built on first use, and
    the sync rows plus the log row of each letter, built when a trace first
    holds that letter.  A trace's integer scale is the lcm of the cost
    denominators over its letters' groups and the model rows, so it and the
    integer weights equal those of a table built for that trace alone;
    weighed rows are kept per scale.
    """

    def __init__(self, net: PetriNet, c: CostFunction):
        self.net = net
        self.c = c
        self._model = None
        self._letters: dict[str, tuple] = {}
        self._weighed: dict[int, tuple[dict, dict, list]] = {}

    def _priced(self, entries) -> tuple[list, int]:
        """(transition, key, move, exact cost) per entry, and the lcm of the
        costs' denominators."""
        rows = []
        for t, key, move in entries:
            v = Fraction(self.c.move_cost(move))
            if v < 0:
                raise ValueError(f"cost of {move!r} is negative")
            rows.append((t, key, move, v))
        return rows, math.lcm(*(v.denominator for *_, v in rows))

    def moves(self, trace: tuple[str, ...]):
        """The move table for aligning the trace, plus its cost scale.  The
        table may hold rows of letters the trace lacks."""
        ts = self.net.transitions
        letters = self._letters
        present = dict.fromkeys(trace)
        for a in present:
            if a not in letters:
                if not is_token(a):
                    raise ValueError(f"trace letter must match [A-Za-z0-9_]+: {a!r}")
                # The letter's sync rows, then its log row.
                letters[a] = self._priced(
                    [(t, (_KIND_SYNC, ts[t]), Move(a, ts[t]))
                     for t in self.net.compiled().by_label.get(a, ())]
                    + [(None, None, Move(a, None))])
        if self._model is None:
            self._model = self._priced([(t, (_KIND_MODEL, ts[t]), Move(None, ts[t]))
                                        for t in range(len(ts))])
        scale = math.lcm(self._model[1], *(letters[a][1] for a in present))
        weighed = self._weighed.get(scale)
        if weighed is None:
            weighed = self._weighed[scale] = ({}, {}, _weigh(self._model[0], scale))
        sync, log, _ = weighed
        for a in present:
            if a not in sync:
                *rows, (_, w, _, move) = _weigh(letters[a][0], scale)
                sync[a], log[a] = rows, (w, move)
        return weighed, scale


def _weigh(rows, scale: int) -> list:
    return [(t, int(v * scale), key, move) for t, key, move, v in rows]


class _Plan:
    """What aligning a trace against a system, or deciding its membership,
    needs of the system alone, each part computed on first use: the
    structural report, the LBFC cap per state budget, the move table of the
    standard costs and membership's label index.  Every part depends on the
    system only, so concurrent callers that both compute one agree."""

    def __init__(self, sys: AcceptingSystem):
        self.sys = sys
        self._lbfc: dict[int, int | None] = {}

    @cached_property
    def structure(self) -> StructuralReport:
        sys = self.sys
        return structural_class(sys.net, sys.initial, sys.final)

    @cached_property
    def standard_moves(self) -> _MoveTable:
        return _MoveTable(self.sys.net, standard_costs(self.sys))

    @cached_property
    def label_index(self) -> tuple[list[str], dict[str, list[str]]]:
        """The silent transitions, and the transitions of each visible label,
        in declaration order."""
        net = self.sys.net
        silents = [t for t in net.transitions if net.label(t).silent]
        by_letter: dict[str, list[str]] = {}
        for t in net.transitions:
            label = net.label(t)
            if not label.silent:
                by_letter.setdefault(label.name, []).append(t)
        return silents, by_letter

    def lbfc_cap(self, state_budget: int, trace_len: int) -> int | None:
        """The alignment-length cap for a trace of `trace_len` letters on a
        live (or sound workflow-shaped) bounded free-choice system, or None
        when it does not apply or the classification exceeds the budget."""
        if state_budget not in self._lbfc:
            base = None
            srep = self.structure
            if srep.free_choice:
                try:
                    brep = behavioral_class(self.sys, state_budget)
                    if brep.bound_found and (brep.live or (brep.sound and srep.workflow_shape)):
                        base = lbfc_length_bound(len(self.sys.net.transitions),
                                                 brep.bound_found, 0)
                except BudgetExceeded:
                    pass
            self._lbfc[state_budget] = base
        base = self._lbfc[state_budget]
        return None if base is None else (trace_len + 1) * base


_last_plan: _Plan | None = None


def _plan(sys: AcceptingSystem) -> _Plan:
    """The plan of `sys`, remembered for the last system only: consecutive
    calls on one system share it, and no older system is kept alive.  The
    plan holds its system, so a match by identity is never a reused id."""
    global _last_plan
    plan = _last_plan
    if plan is None or plan.sys is not sys:
        plan = _last_plan = _Plan(sys)
    return plan


def align_by_search(trace: Sequence[str], sys: AcceptingSystem, c: CostFunction | None,
                    state_budget: int, algorithm: str) -> AlignResult:
    """Optimal alignment by least-cost search, reported under `algorithm`.

    The final state is unreachable exactly when the model is not easy-sound,
    which surfaces as NotEasySound.
    """
    table = _plan(sys).standard_moves if c is None else _MoveTable(sys.net, c)
    trace = tuple(trace)
    moves, scale = table.moves(trace)
    try:
        cost, seq, settled = dijkstra_least_cost(
            sys.net, trace, sys.initial, sys.final, moves, state_budget)
    except Unreachable as exc:
        raise NotEasySound("final marking unreachable; the model accepts no trace") from exc
    return AlignResult(seq, Fraction(cost, scale), algorithm, settled)


def optimal_alignment(trace: Sequence[str], sys: AcceptingSystem,
                      c: CostFunction | None = None,
                      state_budget: int = DEFAULT_STATE_BUDGET) -> AlignResult:
    """Globally optimal alignment via least-cost search on the synchronous product."""
    return align_by_search(trace, sys, c, state_budget, "generic")


def membership(trace: Sequence[str], sys: AcceptingSystem,
               state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Language membership: does a perfect (cost-0) alignment exist?

    Searches synchronous and silent model moves only, so easy-soundness of the
    model is not required for termination.
    """
    trace = tuple(trace)
    net = sys.net
    silents, by_letter = _plan(sys).label_index
    goal = (len(trace), sys.final)
    start = (0, sys.initial)
    if start == goal:
        return True
    seen = {start}
    stack = [start]
    while stack:
        pos, m = stack.pop()
        nexts = []
        if pos < len(trace):
            for t in _enabled_among(net, m, by_letter.get(trace[pos], ())):
                nexts.append((pos + 1, fire(net, m, t)))
        for t in _enabled_among(net, m, silents):
            nexts.append((pos, fire(net, m, t)))
        for state in nexts:
            if state == goal:
                return True
            if state not in seen:
                seen.add(state)
                if len(seen) > state_budget:
                    raise BudgetExceeded(len(seen), what="states")
                stack.append(state)
    return False


def lbfc_length_bound(t_count: int, b: int, trace_len: int) -> int:
    """Alignment-length cap for live b-bounded free-choice systems:
    (trace_len + 1) * (b * t * (t+1) * (t+2) / 6 + 1)."""
    if t_count < 0 or trace_len < 0:
        raise ValueError("counts must be non-negative")
    if b < 1:
        raise ValueError("bound must be >= 1")
    return (trace_len + 1) * (b * t_count * (t_count + 1) * (t_count + 2) // 6 + 1)


def brute_force_oracle(trace: Sequence[str], sys: AcceptingSystem,
                       c: CostFunction | None = None,
                       cost_cap: Fraction | None = None,
                       length_cap: int | None = None,
                       state_cap: int = 500_000) -> Fraction:
    """Exhaustive least-cost over move sequences of length <= length_cap and
    cost <= cost_cap, by bounded-horizon value iteration over
    (trace position, marking) states.

    With no caps the iteration runs to its fixed point, which is the exact
    optimum.  CapExhausted means the optimum may exceed the caps.
    """
    if c is None:
        c = standard_costs(sys)
    trace = tuple(trace)
    net = sys.net
    by_letter: dict[str, list[str]] = {}
    for t in net.transitions:
        label = net.label(t)
        if not label.silent:
            by_letter.setdefault(label.name, []).append(t)

    start = (0, sys.initial)
    goal = (len(trace), sys.final)
    index = {start: 0}
    states = [start]
    raw_succ: list[list[tuple[int, Fraction]]] = []
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            pos, m = state
            outs: list[tuple[tuple[int, Marking], Fraction]] = []
            if pos < len(trace):
                letter = trace[pos]
                for t in _enabled_among(net, m, by_letter.get(letter, ())):
                    outs.append(((pos + 1, fire(net, m, t)), c.sync(letter, t)))
                outs.append(((pos + 1, m), c.log(letter)))
            for t in _enabled_among(net, m, net.transitions):
                outs.append(((pos, fire(net, m, t)), c.model(t)))
            row = []
            for succ_state, w in outs:
                j = index.get(succ_state)
                if j is None:
                    j = len(states)
                    index[succ_state] = j
                    states.append(succ_state)
                    if len(states) > state_cap:
                        raise BudgetExceeded(len(states), what="states")
                    nxt.append(succ_state)
                row.append((j, w))
            raw_succ.append(row)
        frontier = nxt

    denoms = [w.denominator for row in raw_succ for _, w in row]
    scale = math.lcm(*denoms) if denoms else 1
    succ = [[(j, int(w * scale)) for j, w in row] for row in raw_succ]

    inf = float("inf")
    dp = [inf] * len(states)
    goal_idx = index.get(goal)
    if goal_idx is not None:
        dp[goal_idx] = 0
        steps = 0
        while length_cap is None or steps < length_cap:
            changed = False
            new = list(dp)
            for i, row in enumerate(succ):
                best = dp[i]
                for j, w in row:
                    cand = w + dp[j]
                    if cand < best:
                        best = cand
                if best < new[i]:
                    new[i] = best
                    changed = True
            dp = new
            steps += 1
            if not changed:
                break
    answer = dp[0]
    if answer == inf:
        raise CapExhausted("no alignment within the length cap")
    result = Fraction(int(answer), scale)
    if cost_cap is not None and result > cost_cap:
        raise CapExhausted(f"optimum {result} exceeds cost cap {cost_cap}")
    return result


def dispatch_align(trace: Sequence[str], sys: AcceptingSystem,
                   c: CostFunction | None = None,
                   budgets: Budgets | None = None) -> AlignResult:
    """Route to the cheapest applicable solver based on the classifiers.

    Single-token S-systems go to the S-system solver (the generic search,
    capped at (|trace| + 1)(|P| + 1) states), acyclic systems to the
    marking-equation solver, everything else to the generic search.  For
    live (or sound workflow-shaped) bounded free-choice systems an
    alignment-length certificate cap is attached.  Consecutive calls on one
    system classify it once; only the last system is remembered.
    """
    from .acyclic import optimal_alignment_acyclic
    from .ssystem import optimal_alignment_ssystem

    trace = tuple(trace)
    if budgets is None:
        budgets = Budgets()
    plan = _plan(sys)
    srep = plan.structure
    cap = plan.lbfc_cap(budgets.states, len(trace))
    if srep.s_net and sys.initial.total() == 1:
        result = optimal_alignment_ssystem(trace, sys, c, state_budget=budgets.states)
    elif srep.acyclic:
        result = optimal_alignment_acyclic(trace, sys, c, node_budget=budgets.nodes)
    else:
        result = optimal_alignment(trace, sys, c, state_budget=budgets.states)
    return replace(result, lbfc_cap=cap)
