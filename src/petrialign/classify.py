"""Structural and behavioral classification of accepting systems.

Structural flags are purely syntactic.  Behavioral flags come from an
exhaustive reachability exploration under a state budget; when the budget is
hit, BudgetExceeded is raised and callers treat the flags as inconclusive
(never as false).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .petri import (DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet,
                    _MarkingGraph)

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


def _closure(net: PetriNet, start: str, forward: bool) -> set[str]:
    seen = {start}
    stack = [start]
    step = net.postset if forward else net.preset
    while stack:
        v = stack.pop()
        for w in step(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def structural_class(net: PetriNet, init: Marking, final: Marking) -> StructuralReport:
    """Decide free-choice, S-net, T-net, conflict-free, acyclic, workflow shape."""
    ts = net.transitions
    # Free choice: all consumers of a place share one preset.
    free_choice = all(len({net.preset(t) for t in net.postset(p)}) <= 1
                      for p in net.places)
    s_net = all(len(net.preset(t)) <= 1 and len(net.postset(t)) <= 1 for t in ts)
    t_net = all(len(net.preset(p)) <= 1 and len(net.postset(p)) <= 1 for p in net.places)
    # A place with several output transitions is fine only if all of them are
    # on a self-loop with it.
    conflict_free = all(
        len(net.postset(p)) <= 1 or set(net.postset(p)) <= set(net.preset(p))
        for p in net.places)
    acyclic = len(net.topological_order()) == len(net.places) + len(ts)

    workflow_shape = False
    source = sink = None
    if (init.total() == 1 and final.total() == 1):
        i = init.support()[0]
        o = final.support()[0]
        if not net.postset(o):
            everything = set(net.places) | set(net.transitions)
            if _closure(net, i, forward=True) >= everything and \
               _closure(net, o, forward=False) >= everything:
                workflow_shape = True
                source, sink = i, o
    return StructuralReport(free_choice, s_net, t_net, conflict_free, acyclic,
                            workflow_shape, source, sink)


def _explore(sys: AcceptingSystem, state_budget: int, b_max: int | None):
    """The reachable markings in the BFS order of `_MarkingGraph.explore`
    from the initial marking, over a fresh graph's rows: (markings, access,
    succ, fired, final).  `access(i)` is the BFS-tree firing sequence to
    marking i, `succ[i]` and `fired[i]` list the targets and transitions of
    the arcs leaving it, and `final` is the index of the final marking, or
    None when it was not found.  With `b_max` the search stops at the first
    marking with more than b_max tokens on some place."""
    if b_max is not None and b_max < 1:
        raise ValueError("b_max must be >= 1")
    graph = _MarkingGraph(sys.net)
    order, parent, via, succ, fired = graph.explore(sys.initial, state_budget, b_max)

    def access(i: int) -> tuple[str, ...]:
        seq = []
        while parent[i] >= 0:
            seq.append(via[i])
            i = parent[i]
        return tuple(reversed(seq))

    final = graph.find(sys.final)
    final = order.index(final) if final in order else None
    return [graph.markings[i] for i in order], access, succ, fired, final


@dataclass(frozen=True)
class BoundReport:
    """Result of the bounded/safe check; bound_found is None when some place
    exceeded b_max (see certificates['exceeded'])."""

    bound_found: int | None
    safe: bool | None
    states_explored: int
    certificates: Mapping[str, Any] = field(default_factory=dict)


def _bound_report(ex: tuple, b_max: int) -> BoundReport:
    markings, access, *_ = ex
    best = 0
    best_witness = unsafe_witness = bad = None
    for i, m in enumerate(markings):
        for p, n in m.items():
            if n > best:
                best = n
                best_witness = (p, i)
            if n >= 2 and unsafe_witness is None:
                unsafe_witness = (p, i)
            if n > b_max:
                # Only the last marking explored can exceed b_max.
                bad = (p, i)
                break
    certs: dict[str, Any] = {}
    for name, witness in (("exceeded", bad), ("bound", None if bad else best_witness),
                          ("unsafe", unsafe_witness)):
        if witness:
            p, i = witness
            certs[name] = (p, markings[i], access(i))
    if bad:
        return BoundReport(None, False if best >= 2 else None, len(markings), certs)
    return BoundReport(best, best <= 1, len(markings), certs)


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
    safe: bool | None
    quasi_live: bool | None
    live: bool | None
    cyclic: bool | None
    easy_sound: bool | None
    sound: bool | None
    states_explored: int
    certificates: Mapping[str, Any] = field(default_factory=dict)


def _sccs(succ: list[list[int]]) -> tuple[list[int], dict[int, int]]:
    """Tarjan condensation over the explored graph, in one depth-first pass.

    Returns (scc id per marking, terminal sccs): a terminal scc has no arc
    leaving it.  The terminal sccs map each id to the scc's first marking in
    BFS order, and are listed in the BFS order of those markings.

    A marking that is found and not yet in an scc is on the stack, so an
    arc to a marking already in an scc leaves the arc's own scc, as does a
    tree arc to a marking that closed an scc.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    scc_of = [-1] * n
    leaves = [False] * n   # whether some arc from the marking leaves its scc
    stack: list[int] = []
    closed: set[int] = set()
    count = found = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = found
        found += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if scc_of[w] >= 0:
                    leaves[v] = True
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    exits = False
                    while True:
                        w = stack.pop()
                        scc_of[w] = count
                        exits = exits or leaves[w]
                        if w == v:
                            break
                    if not exits:
                        closed.add(count)
                    count += 1
                    if work:
                        leaves[work[-1][0]] = True
                elif work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    terminal: dict[int, int] = {}
    for v in range(n):
        if scc_of[v] in closed:
            terminal.setdefault(scc_of[v], v)
    return scc_of, terminal


def _other_terminal(scc: int, terminal: dict[int, int]) -> int | None:
    """First marking of a terminal scc other than `scc`, or None when `scc` is
    the only terminal one, i.e. every explored marking can reach it."""
    return next((i for s, i in terminal.items() if s != scc), None)


def _behavioral_report(sys: AcceptingSystem, ex: tuple) -> BehavioralReport:
    net = sys.net
    markings, access, succ, fired_at, final = ex
    certs: dict[str, Any] = {}
    tops = [m.max_count() for m in markings]
    bound = max(tops)
    if bound > 0:
        i = tops.index(bound)
        p = next(p for p, n in markings[i].items() if n == bound)
        certs["bound"] = (p, markings[i], access(i))
    safe = bound <= 1
    if not safe:
        certs["unsafe"] = certs["bound"]

    enabling: dict[str, int] = {}
    for i, ts in enumerate(fired_at):
        for t in ts:
            enabling.setdefault(t, i)
    quasi = all(t in enabling for t in net.transitions)
    if quasi:
        certs["quasi_live"] = {t: access(enabling[t]) for t in net.transitions}
    else:
        certs["dead"] = next(t for t in net.transitions if t not in enabling)

    scc_of, terminal = _sccs(succ)
    fired: dict[int, set[str]] = {s: set() for s in terminal}
    for i, s in enumerate(scc_of):
        if s in fired:
            fired[s].update(fired_at[i])
    dead_end = next(((t, i) for s, i in terminal.items()
                     for t in net.transitions if t not in fired[s]), None)
    live = dead_end is None
    if not live:
        t, i = dead_end
        certs["live_counterexample"] = (t, access(i))

    away = _other_terminal(scc_of[0], terminal)
    cyclic = away is None
    if not cyclic:
        certs["cyclic_counterexample"] = access(away)

    easy_sound = final is not None
    if easy_sound:
        certs["easy_sound"] = access(final)
        away = _other_terminal(scc_of[final], terminal)
        option = away is None
        if not option:
            certs["option_counterexample"] = access(away)
    else:
        option = False
        certs["option_counterexample"] = ()
    # Improper: a reachable marking that covers the final one and differs.
    proper = True
    goal = sys.final
    need = tuple(goal.items())
    for i, m in enumerate(markings):
        for p, n in need:
            if m[p] < n:
                break
        else:
            if m != goal:
                proper = False
                certs["proper_counterexample"] = (m, access(i))
                break

    sound = option and proper and quasi
    return BehavioralReport(bound, safe, quasi, live, cyclic, easy_sound, sound,
                            len(markings), certs)


def _lbfc_bound(sys: AcceptingSystem, graph: _MarkingGraph, state_budget: int,
                workflow_shape: bool) -> int | None:
    """The bound the LBFC cap needs: `behavioral_class`'s `bound_found` when
    it is nonzero and the system is live, or sound and workflow-shaped
    (`workflow_shape`, from the structural report), else None.  Raises
    BudgetExceeded where `behavioral_class` does.

    The same exploration and condensation as `behavioral_class`, over
    `graph`'s rows and on marking numbers and token-count keys, with no
    certificate: the bound is the largest key entry; the system is live iff
    every terminal scc fires every transition, and sound iff the final
    marking's scc is the only terminal one, every transition fires
    somewhere, and the final key is the only key that covers it.
    """
    order, _, _, succ, fired = graph.explore(sys.initial, state_budget)
    keys = [graph._keys[i] for i in order]
    bound = max(map(max, keys)) if sys.net.places else 0
    if not bound:
        return None
    everything = len(sys.net.transitions)
    scc_of, terminal = _sccs(succ)
    fired_in: dict[int, set[str]] = {s: set() for s in terminal}
    for v, s in enumerate(scc_of):
        if s in fired_in:
            fired_in[s].update(fired[v])
    if all(len(f) == everything for f in fired_in.values()):
        return bound
    final = graph.find(sys.final)
    if not workflow_shape or final not in order:
        return None
    final = order.index(final)
    if list(terminal) != [scc_of[final]] or len(set().union(*fired)) != everything:
        return None
    goal = keys[final]
    covering = keys
    for p, n in enumerate(goal):
        if n:
            covering = [key for key in covering if key[p] >= n]
    return bound if all(key == goal for key in covering) else None


def behavioral_class(sys: AcceptingSystem, state_budget: int = DEFAULT_STATE_BUDGET
                     ) -> BehavioralReport:
    """Exact behavioral flags over the fully explored state space.

    Liveness, cyclicity and the option to complete come from the terminal
    (bottom) sccs of one condensation of the reachability graph: every
    reachable marking reaches a terminal scc and never leaves it, so a
    transition is live iff it fires inside every terminal scc, and a marking
    is reachable from every reachable marking iff it lies in the only
    terminal scc.  Counterexamples name a marking in an offending terminal
    scc.

    The exploration is one breadth-first search from the initial marking
    over the rows of a fresh marking graph of the net.
    """
    return _behavioral_report(sys, _explore(sys, state_budget, None))


def _bounded_then_behavioral(sys: AcceptingSystem, b_max: int, state_budget: int
                             ) -> BoundReport | BehavioralReport:
    """bounded_and_safe's report when some place exceeds b_max, otherwise
    behavioral_class's, both from one exploration."""
    ex = _explore(sys, state_budget, b_max)
    if ex[0][-1].max_count() > b_max:
        return _bound_report(ex, b_max)
    return _behavioral_report(sys, ex)
