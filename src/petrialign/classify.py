"""Structural and behavioral classification of accepting systems.

Structural flags are purely syntactic.  Behavioral flags come from an
exhaustive reachability exploration under a state budget; when the budget is
hit, BudgetExceeded is raised and callers treat the flags as inconclusive
(never as false).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import BudgetExceeded
from .petri import (DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet,
                    enabled_transitions, fire)
from .products import build_reachability_graph

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


def _is_acyclic(net: PetriNet) -> bool:
    vertices = net.places + net.transitions
    indeg = {v: len(net.preset(v)) for v in vertices}
    queue = deque(v for v in vertices if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in net.postset(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(vertices)


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
    presets = {t: frozenset(net.preset(t)) for t in net.transitions}
    ts = net.transitions
    free_choice = True
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            a, b = presets[ts[i]], presets[ts[j]]
            if a != b and a & b:
                free_choice = False
                break
        if not free_choice:
            break
    s_net = all(len(net.preset(t)) <= 1 and len(net.postset(t)) <= 1 for t in ts)
    t_net = all(len(net.preset(p)) <= 1 and len(net.postset(p)) <= 1 for p in net.places)
    # A place with several output transitions is fine only if all of them are
    # on a self-loop with it.
    conflict_free = all(
        len(net.postset(p)) <= 1 or set(net.postset(p)) <= set(net.preset(p))
        for p in net.places)
    acyclic = _is_acyclic(net)

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
    net = sys.net
    root = sys.initial
    parents: dict[Marking, tuple[Marking, str] | None] = {root: None}
    queue = deque([root])
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
    while queue and bad is None:
        m = queue.popleft()
        for t in enabled_transitions(net, m):
            m2 = fire(net, m, t)
            if m2 not in parents:
                parents[m2] = (m, t)
                if len(parents) > state_budget:
                    raise BudgetExceeded(len(parents))
                queue.append(m2)
                bad = scan(m2)
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

    Returns (scc id per marking, number of sccs, reverse condensation
    adjacency: scc -> set of sccs with an edge INTO it).
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
    rev_cond: dict[int, set[int]] = {i: set() for i in range(count)}
    for m in order:
        for _, w in adjacency[m]:
            a, b = scc_of[m], scc_of[w]
            if a != b:
                rev_cond[b].add(a)
    return scc_of, count, rev_cond


def _co_reachable_sccs(targets: set[int], rev_cond) -> set[int]:
    """All sccs from which some target scc is reachable."""
    seen = set(targets)
    stack = list(targets)
    while stack:
        s = stack.pop()
        for pred in rev_cond[s]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return seen


def behavioral_class(sys: AcceptingSystem,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> BehavioralReport:
    """Exact behavioral flags over the fully explored state space.

    Liveness uses the two-phase scheme: one condensation of the reachability
    graph, then per-transition co-reachability of the enabling markings over
    scc representatives.
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
    enabling_all: dict[str, set[Marking]] = {t: set() for t in net.transitions}
    for src, t, _ in arcs:
        enabling_all[t].add(src)
        enabling.setdefault(t, src)
    quasi = all(t in enabling for t in net.transitions)
    if quasi:
        certs["quasi_live"] = {t: _access(parents, enabling[t]) for t in net.transitions}
    else:
        certs["dead"] = next(t for t in net.transitions if t not in enabling)

    scc_of, scc_count, rev_cond = _sccs(order, adjacency)
    scc_repr: dict[int, Marking] = {}
    for m in order:
        scc_repr.setdefault(scc_of[m], m)

    live = quasi
    if quasi:
        for t in net.transitions:
            targets = {scc_of[m] for m in enabling_all[t]}
            covered = _co_reachable_sccs(targets, rev_cond)
            if len(covered) != scc_count:
                live = False
                bad = next(s for s in range(scc_count) if s not in covered)
                certs["live_counterexample"] = (t, _access(parents, scc_repr[bad]))
                break
    else:
        certs["live_counterexample"] = (certs["dead"], ())

    covered = _co_reachable_sccs({scc_of[sys.initial]}, rev_cond)
    cyclic = len(covered) == scc_count
    if not cyclic:
        bad = next(s for s in range(scc_count) if s not in covered)
        certs["cyclic_counterexample"] = _access(parents, scc_repr[bad])

    easy_sound = sys.final in vertices
    if easy_sound:
        certs["easy_sound"] = _access(parents, sys.final)

    if easy_sound:
        covered = _co_reachable_sccs({scc_of[sys.final]}, rev_cond)
        option = len(covered) == scc_count
        if not option:
            bad = next(s for s in range(scc_count) if s not in covered)
            certs["option_counterexample"] = _access(parents, scc_repr[bad])
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
