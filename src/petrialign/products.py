"""Trace systems, synchronous products, and reachability graphs.

Product transition ids encode their component pair as "left|right" where the
missing side is the no-move symbol ">>"; component ids are prefixed "L:"/"R:"
so the two id spaces never collide.  `product_parts` decodes back to the
original component ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BudgetExceeded
from .petri import (DEFAULT_STATE_BUDGET, AcceptingSystem, Label, Marking,
                    _MarkingGraph, _NetBuilder, is_token)

NO_MOVE = ">>"

_LEFT = "L:"
_RIGHT = "R:"


def trace_system(trace: Sequence[str]) -> AcceptingSystem:
    """Line-shaped accepting system whose language is exactly the given trace."""
    for a in trace:
        if not is_token(a):
            raise ValueError(f"trace letter must match [A-Za-z0-9_]+: {a!r}")
    b = _NetBuilder()
    b.places += [f"p{i}" for i in range(len(trace) + 1)]
    for i, a in enumerate(trace, start=1):
        b.transition(f"t{i}", a, [f"p{i - 1}"], [f"p{i}"])
    return b.system(Marking.of("p0"), Marking.of(f"p{len(trace)}"))


def _prefix_marking(marking: Marking, prefix: str) -> Marking:
    return Marking({prefix + p: n for p, n in marking.items()})


def encode_pair(left: str | None, right: str | None) -> str:
    lt = _LEFT + left if left is not None else NO_MOVE
    rt = _RIGHT + right if right is not None else NO_MOVE
    return f"{lt}|{rt}"


def product_parts(tid: str) -> tuple[str | None, str | None]:
    """Original (unprefixed) component ids of a product transition."""
    lt, rt = tid.split("|", 1)
    left = lt[len(_LEFT):] if lt != NO_MOVE else None
    right = rt[len(_RIGHT):] if rt != NO_MOVE else None
    return left, right


def synchronous_product(s1: AcceptingSystem, s2: AcceptingSystem) -> AcceptingSystem:
    """Synchronous product: label-matching pairs plus one-sided moves.

    The effective label of a pair transition is the shared label for
    synchronous pairs and the component label for one-sided moves.
    """
    n1, n2 = s1.net, s2.net
    b = _NetBuilder()
    b.places += [_LEFT + p for p in n1.places] + [_RIGHT + p for p in n2.places]
    left = {t: ([_LEFT + p for p in n1.preset(t)], [_LEFT + p for p in n1.postset(t)])
            for t in n1.transitions}
    right = {t: ([_RIGHT + p for p in n2.preset(t)], [_RIGHT + p for p in n2.postset(t)])
             for t in n2.transitions}
    for t1, (pre1, post1) in left.items():
        for t2, (pre2, post2) in right.items():
            if n1.label(t1) == n2.label(t2):
                b.transition(encode_pair(t1, t2), n1.label(t1).name, pre1 + pre2, post1 + post2)
    for t1, (pre1, post1) in left.items():
        b.transition(encode_pair(t1, None), n1.label(t1).name, pre1, post1)
    for t2, (pre2, post2) in right.items():
        b.transition(encode_pair(None, t2), n2.label(t2).name, pre2, post2)
    initial = _prefix_marking(s1.initial, _LEFT) + _prefix_marking(s2.initial, _RIGHT)
    final = _prefix_marking(s1.final, _LEFT) + _prefix_marking(s2.final, _RIGHT)
    return b.system(initial, final)


@dataclass(frozen=True)
class ReachabilityGraph:
    """Rooted labeled digraph over reachable markings.

    Arc labels are transition ids of the generating system (encoded pair ids
    for products); `labels` maps each arc label to its effective Label.
    """

    root: Marking
    vertices: frozenset[Marking]
    arcs: tuple[tuple[Marking, str, Marking], ...]
    labels: Mapping[str, Label]

    def arc_set(self) -> frozenset[tuple[Marking, str, Marking]]:
        return frozenset(self.arcs)


def build_reachability_graph(sys: AcceptingSystem,
                             state_budget: int = DEFAULT_STATE_BUDGET) -> ReachabilityGraph:
    """Breadth-first closure of the firing rule from the initial marking.
    Arcs leave markings in BFS order, each marking's in declaration order;
    each marking is one object throughout.  Discovering a marking past the
    budget raises BudgetExceeded."""
    if state_budget < 1:
        raise ValueError("state_budget must be >= 1")
    graph, parent, _ = _MarkingGraph.explore(sys.net, sys.initial, state_budget)
    markings, ts = graph.markings, sys.net.transitions
    arcs = tuple((markings[i], ts[t], markings[j]) for i in range(len(parent))
                 for t, j in graph.rows[i])
    return ReachabilityGraph(sys.initial, frozenset(markings), arcs, dict(sys.net.labels))


def product_of_reach_graphs(r1: ReachabilityGraph, r2: ReachabilityGraph,
                            state_budget: int = DEFAULT_STATE_BUDGET) -> ReachabilityGraph:
    """Synchronous product of two reachability graphs.

    Vertices are the pairwise marking sums (with "L:"/"R:" prefixes matching
    `synchronous_product`), arcs combine label-matching component arcs and
    no-move-padded one-sided arcs.  The result equals
    build_reachability_graph(synchronous_product(s1, s2)).  More than
    `state_budget` vertex pairs raise BudgetExceeded before any is built.
    """
    pairs = len(r1.vertices) * len(r2.vertices)
    if pairs > state_budget:
        raise BudgetExceeded(pairs, what="vertices")
    left_m = {m: _prefix_marking(m, _LEFT) for m in r1.vertices}
    right_m = {m: _prefix_marking(m, _RIGHT) for m in r2.vertices}
    vertices = frozenset(left_m[a] + right_m[b] for a in r1.vertices for b in r2.vertices)
    root = left_m[r1.root] + right_m[r2.root]
    arcs: list[tuple[Marking, str, Marking]] = []
    labels: dict[str, Label] = {}
    for src1, t1, dst1 in r1.arcs:
        for src2, t2, dst2 in r2.arcs:
            if r1.labels[t1] == r2.labels[t2]:
                tid = encode_pair(t1, t2)
                labels[tid] = r1.labels[t1]
                arcs.append((left_m[src1] + right_m[src2], tid, left_m[dst1] + right_m[dst2]))
    for src1, t1, dst1 in r1.arcs:
        tid = encode_pair(t1, None)
        labels[tid] = r1.labels[t1]
        for b in r2.vertices:
            arcs.append((left_m[src1] + right_m[b], tid, left_m[dst1] + right_m[b]))
    for src2, t2, dst2 in r2.arcs:
        tid = encode_pair(None, t2)
        labels[tid] = r2.labels[t2]
        for a in r1.vertices:
            arcs.append((left_m[a] + right_m[src2], tid, left_m[a] + right_m[dst2]))
    return ReachabilityGraph(root, vertices, tuple(arcs), labels)
