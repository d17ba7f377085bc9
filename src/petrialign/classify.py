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
from .products import _bfs_arcs, build_reachability_graph

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


def _access(parents, marking) -> tuple[str, ...]:
    seq = []
    m = marking
    while parents[m] is not None:
        m, t = parents[m]
        seq.append(t)
    return tuple(reversed(seq))


@dataclass(frozen=True)
class BoundReport:
    """Result of the bounded/safe check; bound_found is None when some place
    exceeded b_max (see certificates['exceeded'])."""

    bound_found: int | None
    safe: bool | None
    states_explored: int
    certificates: Mapping[str, Any] = field(default_factory=dict)


def bounded_and_safe(sys: AcceptingSystem, b_max: int = DEFAULT_B_MAX,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> BoundReport:
    """Explore reachable markings and report the smallest witnessed bound <= b_max.

    A marking exceeding b_max stops the search with a (place, marking) witness.
    Exhausting the state budget without a verdict raises BudgetExceeded.
    """
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    root = sys.initial
    parents: dict[Marking, tuple[Marking, str] | None] = {root: None}
    best = 0
    best_witness = None
    unsafe_witness = None

    def scan(m):
        nonlocal best, best_witness, unsafe_witness
        for p, n in m.items():
            if n > best:
                best = n
                best_witness = (p, m)
            if n >= 2 and unsafe_witness is None:
                unsafe_witness = (p, m)
            if n > b_max:
                return (p, m)
        return None

    bad = scan(root)
    if bad is None:
        # The initial marking is always explored, so budgets below 1 act as 1.
        for src, t, m in _bfs_arcs(sys, max(state_budget, 1)):
            if m not in parents:
                parents[m] = (src, t)
                bad = scan(m)
                if bad is not None:
                    break
    certs: dict[str, Any] = {}
    if bad is not None:
        p, m = bad
        certs["exceeded"] = (p, m, _access(parents, m))
        if unsafe_witness:
            p, m = unsafe_witness
            certs["unsafe"] = (p, m, _access(parents, m))
        return BoundReport(None, False if best >= 2 else None, len(parents), certs)
    if best_witness:
        p, m = best_witness
        certs["bound"] = (p, m, _access(parents, m))
    if unsafe_witness:
        p, m = unsafe_witness
        certs["unsafe"] = (p, m, _access(parents, m))
    return BoundReport(best, best <= 1, len(parents), certs)


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


def _sccs(order, adjacency):
    """Kosaraju condensation over the explored graph.

    Returns (scc id per marking, terminal sccs): a terminal scc has no arc
    leaving it.  The terminal sccs map each id to the scc's first marking in
    BFS order, and are listed in the BFS order of those markings.
    """
    finish: list[Marking] = []
    seen: set[Marking] = set()
    for start in order:
        if start in seen:
            continue
        stack = [(start, iter(adjacency[start]))]
        seen.add(start)
        while stack:
            v, it = stack[-1]
            advanced = False
            for _, w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(adjacency[w])))
                    advanced = True
                    break
            if not advanced:
                finish.append(v)
                stack.pop()
    radj: dict[Marking, list[Marking]] = {m: [] for m in order}
    for m in order:
        for _, w in adjacency[m]:
            radj[w].append(m)
    scc_of: dict[Marking, int] = {}
    count = 0
    for v in reversed(finish):
        if v in scc_of:
            continue
        stack = [v]
        scc_of[v] = count
        while stack:
            x = stack.pop()
            for w in radj[x]:
                if w not in scc_of:
                    scc_of[w] = count
                    stack.append(w)
        count += 1
    exits = {scc_of[m] for m in order for _, w in adjacency[m] if scc_of[w] != scc_of[m]}
    terminal: dict[int, Marking] = {}
    for m in order:
        if scc_of[m] not in exits:
            terminal.setdefault(scc_of[m], m)
    return scc_of, terminal


def _other_terminal(scc: int, terminal: dict[int, Marking]) -> Marking | None:
    """First marking of a terminal scc other than `scc`, or None when `scc` is
    the only terminal one, i.e. every explored marking can reach it."""
    return next((m for s, m in terminal.items() if s != scc), None)


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
    net = sys.net
    # The initial marking is always explored, so budgets below 1 act as 1.
    graph = build_reachability_graph(sys, max(state_budget, 1))
    arcs = graph.arcs
    vertices = graph.vertices
    # Arcs come in BFS order, so first discoveries give the BFS tree.
    parents: dict[Marking, tuple[Marking, str] | None] = {sys.initial: None}
    order = [sys.initial]
    for src, t, dst in arcs:
        if dst not in parents:
            parents[dst] = (src, t)
            order.append(dst)
    adjacency: dict[Marking, list[tuple[str, Marking]]] = {m: [] for m in order}
    for src, t, dst in arcs:
        adjacency[src].append((t, dst))

    certs: dict[str, Any] = {}
    bound = max((m.max_count() for m in order), default=0)
    for m in order:
        if m.max_count() == bound and bound > 0:
            for p, n in m.items():
                if n == bound:
                    certs["bound"] = (p, m, _access(parents, m))
                    break
            break
    safe = bound <= 1
    if not safe:
        p, m, acc = certs["bound"]
        certs["unsafe"] = (p, m, acc)

    enabling: dict[str, Marking] = {}
    for src, t, _ in arcs:
        enabling.setdefault(t, src)
    quasi = all(t in enabling for t in net.transitions)
    if quasi:
        certs["quasi_live"] = {t: _access(parents, enabling[t]) for t in net.transitions}
    else:
        certs["dead"] = next(t for t in net.transitions if t not in enabling)

    scc_of, terminal = _sccs(order, adjacency)
    fired: dict[int, set[str]] = {s: set() for s in terminal}
    for src, t, _ in arcs:
        if scc_of[src] in fired:
            fired[scc_of[src]].add(t)
    dead_end = next(((t, m) for s, m in terminal.items()
                     for t in net.transitions if t not in fired[s]), None)
    live = dead_end is None
    if not live:
        t, m = dead_end
        certs["live_counterexample"] = (t, _access(parents, m))

    away = _other_terminal(scc_of[sys.initial], terminal)
    cyclic = away is None
    if not cyclic:
        certs["cyclic_counterexample"] = _access(parents, away)

    easy_sound = sys.final in vertices
    if easy_sound:
        certs["easy_sound"] = _access(parents, sys.final)
        away = _other_terminal(scc_of[sys.final], terminal)
        option = away is None
        if not option:
            certs["option_counterexample"] = _access(parents, away)
    else:
        option = False
        certs["option_counterexample"] = ()
    proper = True
    for m in order:
        if m >= sys.final and m != sys.final:
            proper = False
            certs["proper_counterexample"] = (m, _access(parents, m))
            break

    sound = option and proper and quasi
    return BehavioralReport(bound, safe, quasi, live, cyclic, easy_sound, sound,
                            len(order), certs)
