"""Structural and behavioral classification of accepting systems.

Structural flags are purely syntactic.  Behavioral flags come from an
exhaustive reachability exploration under a state budget; when the budget is
hit, BudgetExceeded is raised and callers treat the flags as inconclusive
(never as false).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

from .petri import (DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet,
                    _closure, _MarkingGraph)

DEFAULT_B_MAX = 8


@dataclass(frozen=True)
class StructuralReport:
    free_choice: bool
    s_net: bool
    t_net: bool
    conflict_free: bool
    acyclic: bool
    workflow_shape: bool
    source: str | None = None
    sink: str | None = None


def structural_class(net: PetriNet, init: Marking, final: Marking) -> StructuralReport:
    """Decide free-choice, S-net, T-net, conflict-free, acyclic, workflow shape."""
    # Free choice: all consumers of a place share one preset.
    free_choice = all(len({net.preset(t) for t in net.postset(p)}) <= 1
                      for p in net.places)
    s_net = all(len(net.preset(t)) <= 1 and len(net.postset(t)) <= 1 for t in net.transitions)
    t_net = all(len(net.preset(p)) <= 1 and len(net.postset(p)) <= 1 for p in net.places)
    # A place with several output transitions is fine only if all of them are
    # on a self-loop with it.
    conflict_free = all(
        len(net.postset(p)) <= 1 or set(net.postset(p)) <= set(net.preset(p))
        for p in net.places)
    acyclic = net.is_acyclic()

    # Workflow shape: one token on a source place i that no transition marks,
    # one on a sink place o that no transition reads, and every place and
    # transition on a path from i to o.
    workflow_shape = False
    source = sink = None
    if (init.total() == 1 and final.total() == 1):
        i = init.support()[0]
        o = final.support()[0]
        if not net.preset(i) and not net.postset(o):
            everything = set(net.places) | set(net.transitions)
            if (_closure(i, net.postset) >= everything
                    and _closure(o, net.preset) >= everything):
                workflow_shape = True
                source, sink = i, o
    return StructuralReport(free_choice, s_net, t_net, conflict_free, acyclic,
                            workflow_shape, source, sink)


class _Explored(NamedTuple):
    """The markings reachable from a system's initial marking, numbered in
    the BFS order of `_MarkingGraph.explore`: its graph, whose rows hold the
    arcs, its BFS tree `parent` and `via` (see there), and markings[k],
    marking k."""

    graph: _MarkingGraph
    parent: list[int]
    via: list[int | None]
    markings: list[Marking]


def _explore(sys: AcceptingSystem, state_budget: int, b_max: int | None = None) -> _Explored:
    """Explore `sys` over a fresh graph's rows.  With `b_max` the search
    stops at the first marking with more than b_max tokens on some place."""
    if b_max is not None and b_max < 1:
        raise ValueError("b_max must be >= 1")
    graph, parent, via = _MarkingGraph.explore(sys.net, sys.initial, state_budget, b_max)
    return _Explored(graph, parent, via, graph.markings[:len(parent)])


def _access(ex: _Explored, k: int) -> tuple[str, ...]:
    """The BFS-tree firing sequence to the k-th marking explored."""
    seq, ts = [], ex.graph.net.transitions
    while ex.parent[k] >= 0:
        seq.append(ts[ex.via[k]])
        k = ex.parent[k]
    return tuple(reversed(seq))


def _witness(ex: _Explored, n: int) -> tuple[str, Marking, tuple[str, ...]]:
    """(place, marking, access sequence) of the first marking explored with
    at least n >= 1 tokens on some place, naming the first such place by
    name."""
    k, m = next((k, m) for k, m in enumerate(ex.markings) if m.max_count() >= n)
    return next(p for p, c in m.items() if c >= n), m, _access(ex, k)


@dataclass(frozen=True)
class BoundReport:
    """Result of the bounded/safe check; bound_found is None when some place
    exceeded b_max (see certificates['exceeded'])."""

    bound_found: int | None
    safe: bool
    states_explored: int
    certificates: Mapping[str, Any] = field(default_factory=dict)


def _bound_report(ex: _Explored, b_max: int) -> BoundReport:
    best = max(map(Marking.max_count, ex.markings))
    over = best > b_max   # only the last marking explored can exceed b_max
    certs: dict[str, Any] = {}
    if over:
        certs["exceeded"] = _witness(ex, b_max + 1)
    elif best:
        certs["bound"] = _witness(ex, best)
    if best >= 2:
        certs["unsafe"] = _witness(ex, 2)
    return BoundReport(None if over else best, best <= 1, len(ex.markings), certs)


def bounded_and_safe(sys: AcceptingSystem, b_max: int = DEFAULT_B_MAX,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> BoundReport:
    """Explore reachable markings and report the smallest witnessed bound <= b_max.

    A marking exceeding b_max stops the search with a (place, marking) witness.
    Exhausting the state budget without a verdict raises BudgetExceeded.
    """
    return _bound_report(_explore(sys, state_budget, b_max), b_max)


@dataclass(frozen=True)
class BehavioralReport:
    bound_found: int | None
    safe: bool
    quasi_live: bool
    live: bool
    cyclic: bool
    easy_sound: bool
    sound: bool
    states_explored: int
    certificates: Mapping[str, Any] = field(default_factory=dict)


def _sccs(rows: dict[int, tuple[tuple[int, int], ...]], n: int
          ) -> tuple[list[int], dict[int, int]]:
    """Tarjan condensation over the explored graph, markings 0 to n - 1 and
    their rows: one depth-first walk from marking 0, from which every
    explored marking is reachable, then one pass over the rows.

    Returns (scc id per marking, terminal sccs): a terminal scc has no arc
    leaving it.  The terminal sccs map each id to the scc's first marking in
    BFS order, and are listed in the BFS order of those markings.

    A found marking not yet in an scc is on the stack.  When v's walk ends
    with low[v] == index[v], v and the markings above it on the stack form
    its scc; otherwise v is not marking 0 and passes low[v] to its parent.
    """
    index = [0] + [-1] * (n - 1)
    low = [0] * n
    scc_of = [-1] * n
    stack = [0]
    work = [(0, iter(rows[0]))]
    count, found = 0, 1
    while work:
        v, it = work[-1]
        for _, w in it:
            if index[w] < 0:
                index[w] = low[w] = found
                found += 1
                stack.append(w)
                work.append((w, iter(rows[w])))
                break
            if scc_of[w] < 0 and index[w] < low[v]:
                low[v] = index[w]
        else:
            work.pop()
            if low[v] == index[v]:
                while scc_of[v] < 0:
                    scc_of[stack.pop()] = count
                count += 1
            elif low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
    left = {scc_of[v] for v in range(n) for _, w in rows[v] if scc_of[w] != scc_of[v]}
    terminal: dict[int, int] = {}
    for v, s in enumerate(scc_of):
        if s not in left:
            terminal.setdefault(s, v)
    return scc_of, terminal


def _other_terminal(scc: int, terminal: dict[int, int]) -> int | None:
    """First marking of a terminal scc other than `scc`, or None when `scc` is
    the only terminal one, i.e. every explored marking can reach it."""
    return next((i for s, i in terminal.items() if s != scc), None)


def _behavioral_report(sys: AcceptingSystem, ex: _Explored) -> BehavioralReport:
    """`behavioral_class`'s report over a full exploration.  The flags are
    decided on marking numbers, the graph's rows and its `Marking`s, and
    the certificates read off what decides them: the first transition, in
    declaration order, that fires at no marking; the first (transition,
    marking) pair of a terminal scc that never fires the transition; the
    first marking of a terminal scc other than the root's; the final
    marking; the first marking of a terminal scc other than the final
    marking's; and the first marking that covers the final one and differs
    from it.

    Liveness, cyclicity and the option to complete come from the terminal
    (bottom) sccs of one condensation of the graph: every reachable marking
    reaches a terminal scc and never leaves it, so a transition is live iff
    it fires inside every terminal scc, and a marking is reachable from
    every reachable marking iff it lies in the only terminal scc.
    """
    markings, rows, ts = ex.markings, ex.graph.rows, sys.net.transitions
    # Each transition's first marking: later ones are overwritten.
    enabling = {t: k for k in reversed(range(len(markings))) for t, _ in rows[k]}
    dead = next((t for t in range(len(ts)) if t not in enabling), None)
    scc_of, terminal = _sccs(rows, len(markings))
    fired_in: dict[int, set[int]] = {s: set() for s in terminal}
    for k, s in enumerate(scc_of):
        if s in fired_in:
            fired_in[s].update(t for t, _ in rows[k])
    dead_end = next(((next(t for t in range(len(ts)) if t not in fired_in[s]), k)
                     for s, k in terminal.items() if len(fired_in[s]) < len(ts)), None)
    # Filtered place by place rather than by `sys.final <= m`: on a final
    # marking of one place that is one count read per marking.
    covering = range(len(markings))
    for p, n in sys.final.items():
        covering = [k for k in covering if markings[k][p] >= n]
    final = next((k for k in covering if markings[k] == sys.final), None)
    improper = next((k for k in covering if markings[k] != sys.final), None)
    away = _other_terminal(scc_of[0], terminal)
    final_away = None if final is None else _other_terminal(scc_of[final], terminal)
    bound = max(map(Marking.max_count, markings))
    sound = final is not None and final_away is None and improper is None and dead is None
    certs: dict[str, Any] = {}
    if bound:
        certs["bound"] = _witness(ex, bound)
    if bound > 1:
        certs["unsafe"] = certs["bound"]
    if dead is None:
        certs["quasi_live"] = {name: _access(ex, enabling[t]) for t, name in enumerate(ts)}
    else:
        certs["dead"] = ts[dead]
    if dead_end is not None:
        certs["live_counterexample"] = (ts[dead_end[0]], _access(ex, dead_end[1]))
    if away is not None:
        certs["cyclic_counterexample"] = _access(ex, away)
    if final is None:
        certs["option_counterexample"] = ()
    else:
        certs["easy_sound"] = _access(ex, final)
        if final_away is not None:
            certs["option_counterexample"] = _access(ex, final_away)
    if improper is not None:
        certs["proper_counterexample"] = (markings[improper], _access(ex, improper))
    return BehavioralReport(bound, bound <= 1, dead is None, dead_end is None, away is None,
                            final is not None, sound, len(markings), certs)


def behavioral_class(sys: AcceptingSystem, state_budget: int = DEFAULT_STATE_BUDGET
                     ) -> BehavioralReport:
    """Exact behavioral flags over the fully explored state space.

    The flags come from one breadth-first search from the initial marking
    over the rows of a fresh marking graph of the net (see
    `_behavioral_report` for how); the certificates are read off it, and
    counterexamples name a marking in an offending terminal scc.
    """
    return _behavioral_report(sys, _explore(sys, state_budget))


def _bounded_then_behavioral(sys: AcceptingSystem, b_max: int, state_budget: int
                             ) -> BoundReport | BehavioralReport:
    """bounded_and_safe's report when some place exceeds b_max, otherwise
    behavioral_class's, both from one exploration."""
    ex = _explore(sys, state_budget, b_max)
    if ex.markings[-1].max_count() > b_max:
        return _bound_report(ex, b_max)
    return _behavioral_report(sys, ex)
