"""Structural and behavioral classification of accepting systems.

Structural flags are purely syntactic.  Behavioral flags come from an
exhaustive reachability exploration under a state budget; when the budget is
hit, BudgetExceeded is raised and callers treat the flags as inconclusive
(never as false).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .petri import DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet
from .products import _bfs_arcs

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


class _Exploration:
    """Reachable markings numbered in BFS order from 0, the initial marking.

    `parent[i]` and `via[i]` give the arc that discovered marking i (-1 and
    None at the root); `succ[i]` and `fired[i]` list the targets and the
    transitions of the arcs leaving it, in arc order.
    """

    __slots__ = ("ids", "markings", "parent", "via", "succ", "fired")

    def __init__(self, sys: AcceptingSystem, state_budget: int, b_max: int | None):
        """Explore the whole state space, or with `b_max` up to and including
        the first marking with more than b_max tokens on some place."""
        if b_max is not None and b_max < 1:
            raise ValueError("b_max must be >= 1")
        root = sys.initial
        self.ids = ids = {root: 0}
        self.markings = markings = [root]
        self.parent = parent = [-1]
        self.via = via = [None]
        self.succ = succ = [[]]
        self.fired = fired = [[]]
        if b_max is not None and root.max_count() > b_max:
            return
        src = 0
        # The initial marking is always explored, so budgets below 1 act as 1.
        for m, t, m2 in _bfs_arcs(sys, max(state_budget, 1)):
            # Arcs leave markings in BFS order, so src only moves forward.
            while markings[src] is not m:
                src += 1
            j = ids.get(m2)
            if j is None:
                j = ids[m2] = len(markings)
                markings.append(m2)
                parent.append(src)
                via.append(t)
                succ.append([])
                fired.append([])
                if b_max is not None and m2.max_count() > b_max:
                    return
            succ[src].append(j)
            fired[src].append(t)

    def access(self, i: int) -> tuple[str, ...]:
        """The BFS-tree firing sequence from the initial marking to marking i."""
        seq = []
        while self.parent[i] >= 0:
            seq.append(self.via[i])
            i = self.parent[i]
        return tuple(reversed(seq))


@dataclass(frozen=True)
class BoundReport:
    """Result of the bounded/safe check; bound_found is None when some place
    exceeded b_max (see certificates['exceeded'])."""

    bound_found: int | None
    safe: bool | None
    states_explored: int
    certificates: Mapping[str, Any] = field(default_factory=dict)


def _bound_report(ex: _Exploration, b_max: int) -> BoundReport:
    best = 0
    best_witness = unsafe_witness = bad = None
    for i, m in enumerate(ex.markings):
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
            certs[name] = (p, ex.markings[i], ex.access(i))
    if bad:
        return BoundReport(None, False if best >= 2 else None, len(ex.markings), certs)
    return BoundReport(best, best <= 1, len(ex.markings), certs)


def bounded_and_safe(sys: AcceptingSystem, b_max: int = DEFAULT_B_MAX,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> BoundReport:
    """Explore reachable markings and report the smallest witnessed bound <= b_max.

    A marking exceeding b_max stops the search with a (place, marking) witness.
    Exhausting the state budget without a verdict raises BudgetExceeded.
    """
    return _bound_report(_Exploration(sys, state_budget, b_max), b_max)


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
    """Kosaraju condensation over the explored graph.

    Returns (scc id per marking, terminal sccs): a terminal scc has no arc
    leaving it.  The terminal sccs map each id to the scc's first marking in
    BFS order, and are listed in the BFS order of those markings.
    """
    n = len(succ)
    finish: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(succ[start]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                finish.append(v)
                stack.pop()
    radj: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            radj[w].append(v)
    scc_of = [-1] * n
    count = 0
    for v in reversed(finish):
        if scc_of[v] >= 0:
            continue
        stack = [v]
        scc_of[v] = count
        while stack:
            x = stack.pop()
            for w in radj[x]:
                if scc_of[w] < 0:
                    scc_of[w] = count
                    stack.append(w)
        count += 1
    exits = {scc_of[v] for v in range(n) for w in succ[v] if scc_of[w] != scc_of[v]}
    terminal: dict[int, int] = {}
    for v in range(n):
        if scc_of[v] not in exits:
            terminal.setdefault(scc_of[v], v)
    return scc_of, terminal


def _other_terminal(scc: int, terminal: dict[int, int]) -> int | None:
    """First marking of a terminal scc other than `scc`, or None when `scc` is
    the only terminal one, i.e. every explored marking can reach it."""
    return next((i for s, i in terminal.items() if s != scc), None)


def _behavioral_report(sys: AcceptingSystem, ex: _Exploration) -> BehavioralReport:
    net = sys.net
    markings = ex.markings
    certs: dict[str, Any] = {}
    tops = [m.max_count() for m in markings]
    bound = max(tops)
    if bound > 0:
        i = tops.index(bound)
        p = next(p for p, n in markings[i].items() if n == bound)
        certs["bound"] = (p, markings[i], ex.access(i))
    safe = bound <= 1
    if not safe:
        certs["unsafe"] = certs["bound"]

    enabling: dict[str, int] = {}
    for i, ts in enumerate(ex.fired):
        for t in ts:
            enabling.setdefault(t, i)
    quasi = all(t in enabling for t in net.transitions)
    if quasi:
        certs["quasi_live"] = {t: ex.access(enabling[t]) for t in net.transitions}
    else:
        certs["dead"] = next(t for t in net.transitions if t not in enabling)

    scc_of, terminal = _sccs(ex.succ)
    fired: dict[int, set[str]] = {s: set() for s in terminal}
    for i, s in enumerate(scc_of):
        if s in fired:
            fired[s].update(ex.fired[i])
    dead_end = next(((t, i) for s, i in terminal.items()
                     for t in net.transitions if t not in fired[s]), None)
    live = dead_end is None
    if not live:
        t, i = dead_end
        certs["live_counterexample"] = (t, ex.access(i))

    away = _other_terminal(scc_of[0], terminal)
    cyclic = away is None
    if not cyclic:
        certs["cyclic_counterexample"] = ex.access(away)

    final = ex.ids.get(sys.final)
    easy_sound = final is not None
    if easy_sound:
        certs["easy_sound"] = ex.access(final)
        away = _other_terminal(scc_of[final], terminal)
        option = away is None
        if not option:
            certs["option_counterexample"] = ex.access(away)
    else:
        option = False
        certs["option_counterexample"] = ()
    proper = True
    for i, m in enumerate(markings):
        if m >= sys.final and m != sys.final:
            proper = False
            certs["proper_counterexample"] = (m, ex.access(i))
            break

    sound = option and proper and quasi
    return BehavioralReport(bound, safe, quasi, live, cyclic, easy_sound, sound,
                            len(markings), certs)


def behavioral_class(sys: AcceptingSystem,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> BehavioralReport:
    """Exact behavioral flags over the fully explored state space.

    Liveness, cyclicity and the option to complete come from the terminal
    (bottom) sccs of one condensation of the reachability graph: every
    reachable marking reaches a terminal scc and never leaves it, so a
    transition is live iff it fires inside every terminal scc, and a marking
    is reachable from every reachable marking iff it lies in the only
    terminal scc.  Counterexamples name a marking in an offending terminal
    scc.
    """
    return _behavioral_report(sys, _Exploration(sys, state_budget, None))


def _bounded_then_behavioral(sys: AcceptingSystem, b_max: int, state_budget: int
                             ) -> BoundReport | BehavioralReport:
    """bounded_and_safe's report when some place exceeds b_max, otherwise
    behavioral_class's, both from one exploration."""
    ex = _Exploration(sys, state_budget, b_max)
    if ex.markings[-1].max_count() > b_max:
        return _bound_report(ex, b_max)
    return _behavioral_report(sys, ex)
