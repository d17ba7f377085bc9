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
from typing import Mapping, Sequence

from .classify import behavioral_class, structural_class
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
                if cnet.enabled(m, t):
                    steps.append(((pos + 1, cnet.fire(m, t)), w, key, move))
            w, move = log[letter]
            steps.append(((pos + 1, m), w, log_keys[pos], move))
        for t, w, key, move in model:
            if cnet.enabled(m, t):
                steps.append(((pos, cnet.fire(m, t)), w, key, move))
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


def _alignment_moves(trace: tuple[str, ...], net: PetriNet, c: CostFunction):
    """The search's move table for aligning the trace, plus its cost scale."""
    for a in trace:
        if not is_token(a):
            raise ValueError(f"trace letter must match [A-Za-z0-9_]+: {a!r}")
    ts = net.transitions
    by_label = net.compiled().by_label
    letters = set(trace)
    sync = {a: [(t, (_KIND_SYNC, ts[t]), Move(a, ts[t])) for t in by_label.get(a, ())]
            for a in letters}
    log = {a: Move(a, None) for a in letters}
    model = [(t, (_KIND_MODEL, ts[t]), Move(None, ts[t])) for t in range(len(ts))]
    every = [m for entries in sync.values() for _, _, m in entries]
    every += list(log.values()) + [m for _, _, m in model]
    weight, scale = scale_weights({m: c.move_cost(m) for m in every})
    sync = {a: [(t, weight[m], key, m) for t, key, m in entries]
            for a, entries in sync.items()}
    log = {a: (weight[m], m) for a, m in log.items()}
    model = [(t, weight[m], key, m) for t, key, m in model]
    return (sync, log, model), scale


def align_by_search(trace: Sequence[str], sys: AcceptingSystem, c: CostFunction | None,
                    state_budget: int, algorithm: str) -> AlignResult:
    """Optimal alignment by least-cost search, reported under `algorithm`.

    The final state is unreachable exactly when the model is not easy-sound,
    which surfaces as NotEasySound.
    """
    if c is None:
        c = standard_costs(sys)
    trace = tuple(trace)
    moves, scale = _alignment_moves(trace, sys.net, c)
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
    silents = [t for t in net.transitions if net.label(t).silent]
    by_letter: dict[str, list[str]] = {}
    for t in net.transitions:
        label = net.label(t)
        if not label.silent:
            by_letter.setdefault(label.name, []).append(t)
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
    alignment-length certificate cap is attached.
    """
    from .acyclic import optimal_alignment_acyclic
    from .ssystem import optimal_alignment_ssystem

    if c is None:
        c = standard_costs(sys)
    if budgets is None:
        budgets = Budgets()
    srep = structural_class(sys.net, sys.initial, sys.final)

    cap = None
    if srep.free_choice:
        try:
            brep = behavioral_class(sys, budgets.states)
            if brep.bound_found and (brep.live or (brep.sound and srep.workflow_shape)):
                cap = lbfc_length_bound(len(sys.net.transitions), brep.bound_found,
                                        len(tuple(trace)))
        except BudgetExceeded:
            cap = None

    if srep.s_net and sys.initial.total() == 1:
        result = optimal_alignment_ssystem(trace, sys, c, state_budget=budgets.states)
    elif srep.acyclic:
        result = optimal_alignment_acyclic(trace, sys, c, node_budget=budgets.nodes)
    else:
        result = optimal_alignment(trace, sys, c, state_budget=budgets.states)
    return replace(result, lbfc_cap=cap)
