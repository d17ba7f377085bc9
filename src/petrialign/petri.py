"""Petri-net data model and firing semantics.

Nets are immutable after construction; markings are hashable multisets over
place ids.  All iteration orders derive from the declaration order of places
and transitions, so every computation downstream is deterministic.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from .errors import BudgetExceeded, NotEnabled, UnknownTransition

DEFAULT_STATE_BUDGET = 10**6

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")


def is_token(text: str) -> bool:
    return bool(_TOKEN.match(text))


@dataclass(frozen=True)
class Label:
    """Transition label: a visible activity name, or the silent label."""

    name: str | None = None

    def __post_init__(self):
        if self.name is not None and not is_token(self.name):
            raise ValueError(f"label name must match [A-Za-z0-9_]+: {self.name!r}")

    @property
    def silent(self) -> bool:
        return self.name is None

    def __str__(self) -> str:
        return self.name if self.name is not None else "τ"


TAU = Label(None)


class Marking:
    """Multiset of tokens over places; places not mentioned count zero.

    Comparison, addition, and equality work pointwise over the union of
    supports, so markings over different declaration sets compare naturally.
    The sorted (place, count) pairs and the hash are made on first use, so a
    marking that is never hashed, listed or printed never sorts its places;
    threads that race to make them store equal values.
    """

    __slots__ = ("_counts", "_sorted", "_hash")

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]] | None = None):
        cleaned: dict[str, int] = {}
        if counts:
            items = counts.items() if isinstance(counts, Mapping) else counts
            for place, n in items:
                n = int(n)
                if n < 0:
                    raise ValueError(f"negative token count for {place!r}")
                if n:
                    cleaned[place] = cleaned.get(place, 0) + n
        self._counts = cleaned
        self._sorted = self._hash = None

    def _items(self) -> tuple[tuple[str, int], ...]:
        """The (place, count) pairs in place order, made on first use."""
        items = self._sorted
        if items is None:
            items = self._sorted = tuple(sorted(self._counts.items()))
        return items

    @classmethod
    def of(cls, *places: str) -> "Marking":
        """Set-style constructor: one token on each listed place."""
        return cls(Counter(places))

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def support(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self._items())

    def items(self):
        return iter(self._items())

    def total(self) -> int:
        return sum(self._counts.values())

    def is_set(self) -> bool:
        return all(n <= 1 for n in self._counts.values())

    def max_count(self) -> int:
        return max(self._counts.values(), default=0)

    def __getitem__(self, place: str) -> int:
        return self._counts.get(place, 0)

    def __contains__(self, place: str) -> bool:
        return place in self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other) -> bool:
        # Counts hold positive entries only, so equal markings have equal dicts.
        return isinstance(other, Marking) and self._counts == other._counts

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._items())
        return h

    def __le__(self, other: "Marking") -> bool:
        return all(n <= other[p] for p, n in self._counts.items())

    def __ge__(self, other: "Marking") -> bool:
        return other.__le__(self)

    def __add__(self, other: "Marking") -> "Marking":
        merged = dict(self._counts)
        for p, n in other._counts.items():
            merged[p] = merged.get(p, 0) + n
        return Marking(merged)

    def __repr__(self) -> str:
        inner = ", ".join(p if n == 1 else f"{p}:{n}" for p, n in self._items())
        return "{" + inner + "}"


class PetriNet:
    """Labeled Petri net with unweighted flow.

    `places` and `transitions` keep declaration order; `flow` holds
    (place, transition) and (transition, place) pairs.
    """

    __slots__ = ("places", "transitions", "labels", "flow", "_pre", "_post",
                 "_consume", "_produce", "_place_set", "_trans_set", "_acyclic")

    def __init__(self, places: Iterable[str], transitions: Iterable[str],
                 flow: Iterable[tuple[str, str]], labels: Mapping[str, Label]):
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self._place_set = frozenset(self.places)
        self._trans_set = frozenset(self.transitions)
        if len(self._place_set) != len(self.places):
            raise ValueError("duplicate place ids")
        if len(self._trans_set) != len(self.transitions):
            raise ValueError("duplicate transition ids")
        if self._place_set & self._trans_set:
            raise ValueError("place and transition ids must be disjoint")
        self.flow = flow = frozenset(flow)
        place_set, trans_set = self._place_set, self._trans_set
        vertices = self.places + self.transitions
        pre: dict[str, list[str]] = {v: [] for v in vertices}
        post: dict[str, list[str]] = {v: [] for v in vertices}
        loops = set()   # the transitions with a self-loop place
        for src, dst in flow:
            if src in place_set and dst in trans_set:
                if (dst, src) in flow:
                    loops.add(dst)
            elif not (src in trans_set and dst in place_set):
                raise ValueError(f"flow pair {(src, dst)!r} does not connect a place and a transition")
            post[src].append(dst)
            pre[dst].append(src)
        order = {v: i for i, v in enumerate(self.places)}
        order.update({v: i for i, v in enumerate(self.transitions)})
        for vs in (*pre.values(), *post.values()):
            if len(vs) > 1:
                vs.sort(key=order.__getitem__)
        self._pre = {v: tuple(vs) for v, vs in pre.items()}
        self._post = {v: tuple(vs) for v, vs in post.items()}
        self.labels = {t: labels[t] for t in self.transitions}
        # pre \ post and post \ pre per transition: the two effect cases of the
        # firing rule (self-loop places fall through unchanged).  Without a
        # self-loop they are the preset and postset tuples themselves.
        self._consume = {t: self._pre[t] for t in self.transitions}
        self._produce = {t: self._post[t] for t in self.transitions}
        for t in loops:
            ins, outs = self._pre[t], self._post[t]
            self._consume[t] = tuple(p for p in ins if p not in outs)
            self._produce[t] = tuple(p for p in outs if p not in ins)
        self._acyclic = None   # decided on first use, see `is_acyclic`

    def has_place(self, p: str) -> bool:
        return p in self._place_set

    def has_transition(self, t: str) -> bool:
        return t in self._trans_set

    def preset(self, v: str) -> tuple[str, ...]:
        return self._pre[v]

    def postset(self, v: str) -> tuple[str, ...]:
        return self._post[v]

    def label(self, t: str) -> Label:
        return self.labels[t]

    def is_weakly_connected(self) -> bool:
        vertices = self.places + self.transitions
        pre, post = self._pre, self._post
        return not vertices or len(_closure(vertices[0],
                                            lambda v: pre[v] + post[v])) == len(vertices)

    def topological_order(self) -> list[str]:
        """Places and transitions in Kahn order, last in first out, with the
        first-declared source on top of the stack.  Vertices on or behind a
        cycle are left out, so the net is acyclic iff every vertex is listed."""
        vertices = self.places + self.transitions
        indeg = {v: len(self._pre[v]) for v in vertices}
        stack = [v for v in reversed(vertices) if indeg[v] == 0]
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in self._post[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return order

    def is_acyclic(self) -> bool:
        """Whether the net has no cycle, decided on first use and kept."""
        flag = self._acyclic
        if flag is None:
            flag = self._acyclic = (len(self.topological_order())
                                    == len(self.places) + len(self.transitions))
        return flag

    def __eq__(self, other) -> bool:
        return (isinstance(other, PetriNet)
                and self.places == other.places
                and self.transitions == other.transitions
                and self.flow == other.flow
                and self.labels == other.labels)

    def __repr__(self) -> str:
        return f"PetriNet(|P|={len(self.places)}, |T|={len(self.transitions)}, |F|={len(self.flow)})"


_V = TypeVar("_V", bound=Hashable)


def _closure(start: _V, step: Callable[[_V], Iterable[_V]]) -> set[_V]:
    """The vertices that `step`, applied again and again, reaches from
    `start`, `start` included: one depth-first walk."""
    seen = {start}
    stack = [start]
    while stack:
        for w in step(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class AcceptingSystem:
    """Petri net together with an initial and a final marking."""

    net: PetriNet
    initial: Marking
    final: Marking

    def __post_init__(self):
        for marking, role in ((self.initial, "initial"), (self.final, "final")):
            for p in marking.support():
                if not self.net.has_place(p):
                    raise ValueError(f"{role} marking mentions unknown place {p!r}")


class _NetBuilder:
    """A net as it is declared: its places, transitions, arcs and labels in
    declaration order, which callers may extend directly.  It starts empty,
    or from a copy of `net`'s declarations.  The fixtures, the generators and
    their easy-soundness gadgets, the tree translation, the synchronous
    product and the net parser declare their nets through it, and it is the
    one caller of `PetriNet(...)` in the package."""

    def __init__(self, net: PetriNet | None = None):
        self.places: list[str] = list(net.places) if net else []
        self.transitions: list[str] = list(net.transitions) if net else []
        self.flow: list[tuple[str, str]] = list(net.flow) if net else []
        self.labels: dict[str, Label] = dict(net.labels) if net else {}
        self._shared: dict[str | None, Label] = {None: TAU}   # one Label per name

    def transition(self, t: str, name: str | None = None,
                   pre: Iterable[str] = (), post: Iterable[str] = ()) -> str:
        """Declare transition `t`, labelled `name` (silent when None), with an
        arc from each place of `pre` and to each place of `post`."""
        label = self._shared.get(name)
        if label is None:
            label = self._shared[name] = Label(name)
        self.transitions.append(t)
        self.labels[t] = label
        self.flow += [(p, t) for p in pre]
        self.flow += [(t, p) for p in post]
        return t

    def system(self, initial: Marking, final: Marking) -> AcceptingSystem:
        net = PetriNet(self.places, self.transitions, self.flow, self.labels)
        return AcceptingSystem(net, initial, final)


def is_enabled(net: PetriNet, marking: Marking, t: str) -> bool:
    if not net.has_transition(t):
        raise UnknownTransition(t)
    return all(marking[p] > 0 for p in net.preset(t))


def _enabled_among(net: PetriNet, marking: Marking, ts: Iterable[str]) -> list[str]:
    """The transitions of `ts` enabled at the marking, in the order given.
    A marking's counts hold positive entries only, so a place is marked iff
    it is a key."""
    counts = marking._counts
    pre = net._pre
    out = []
    for t in ts:
        for p in pre[t]:
            if p not in counts:
                break
        else:
            out.append(t)
    return out


def enabled_transitions(net: PetriNet, marking: Marking) -> list[str]:
    """All enabled transitions, in declaration order."""
    return _enabled_among(net, marking, net.transitions)


def fire(net: PetriNet, marking: Marking, t: str) -> Marking:
    """Fire one transition; raises NotEnabled naming the first empty input place."""
    if t not in net._trans_set:
        raise UnknownTransition(t)
    counts = marking._counts
    for p in net._pre[t]:
        if p not in counts:
            raise NotEnabled(t, p)
    counts = counts.copy()
    for p in net._consume[t]:
        n = counts[p]
        if n == 1:
            del counts[p]
        else:
            counts[p] = n - 1
    for p in net._produce[t]:
        counts[p] = counts.get(p, 0) + 1
    # Every count stays positive, so the successor adopts the dict unchecked.
    m = Marking.__new__(Marking)
    m._counts = counts
    m._sorted = m._hash = None
    return m


class _NetView:
    """The integer view of one net that its marking graphs, its move tables
    and the dispatcher read, per transition in declaration order:

    - `bits`, each place's bit, 1 << its index;
    - `first`, per place index, (index, rest, consume, produce) of each
      transition whose first input place it is, and `unguarded`, those with
      no input place, each as place masks over `bits`: rest holds its input
      places after the first, consume those of pre minus post, produce
      those of post minus pre (so 0 when it consumes or produces nothing);
    - `labels`, the label name of each transition, None when silent;
    - `pumps`, the silent transitions that produce a token and consume none
      for good: one enabled at a marking stays enabled as it pumps, so the
      marking's silent closure is infinite;
    - `ranks`, each transition's rank among the ids in string order ("t10"
      < "t2");
    - `s_net`, whether every transition has at most one input and one
      output place;
    - `forced`, (index, input place indices) of each silent transition that
      has an input place and no self-loop, and is the only transition that
      reads each of its input places.  Such a transition must fire on
      every path from a marking that enables it to a final marking that
      marks none of its input places, since nothing else takes their
      tokens; and firing it first disables nothing, since nothing else
      reads them.  So `dijkstra_least_cost` expands its model move alone
      (see `engine._Plan`, whose `must` holds those of its final marking).

    Each marking graph of the net makes its own (`_MarkingGraph.view`)."""

    __slots__ = ("bits", "first", "unguarded", "labels", "pumps", "ranks", "s_net", "forced")

    def __init__(self, net: PetriNet):
        self.bits = bits = {p: 1 << i for i, p in enumerate(net.places)}
        first: list[list] = [[] for _ in net.places]
        unguarded = []
        labels = []
        pumps = set()
        forced = []
        s_net = True
        pre_of, post_of, labels_of = net._pre, net._post, net.labels
        consume_of, produce_of = net._consume, net._produce
        for k, t in enumerate(net.transitions):
            ins, outs, cs, ps = pre_of[t], post_of[t], consume_of[t], produce_of[t]
            pre = bits[ins[0]] if len(ins) == 1 else sum(map(bits.__getitem__, ins))
            # Without a self-loop, the net's consume tuple is its preset tuple.
            consume = pre if cs is ins else sum(map(bits.__getitem__, cs))
            produce = bits[ps[0]] if len(ps) == 1 else sum(map(bits.__getitem__, ps))
            # The lowest bit of pre is its first place, in declaration order.
            entry = (k, pre & (pre - 1), consume, produce)
            (first[(pre & -pre).bit_length() - 1] if pre else unguarded).append(entry)
            name = labels_of[t].name
            labels.append(name)
            if name is None:
                if produce and not consume:
                    pumps.add(k)
                if pre and consume == pre:
                    for p in cs:
                        if len(post_of[p]) != 1:
                            break
                    else:
                        forced.append((k, tuple([bits[p].bit_length() - 1 for p in ins])))
            if len(ins) > 1 or len(outs) > 1:
                s_net = False
        ts = net.transitions
        ranks = [0] * len(ts)
        for r, k in enumerate(sorted(range(len(ts)), key=ts.__getitem__)):
            ranks[k] = r
        self.first = tuple(map(tuple, first))
        self.unguarded = tuple(unguarded)
        self.labels = tuple(labels)
        self.pumps = frozenset(pumps)
        self.ranks = tuple(ranks)
        self.s_net = s_net
        self.forced = tuple(forced)


class _MarkingGraph:
    """The markings of one net that callers find, one `Marking` object per
    number, and per marking number its row: one (transition index, successor
    number) pair per enabled transition, in declaration order.  A row is
    filled the first time a caller asks for it, and `size` counts the rows
    (a plan adds its automaton's entries).  No row depends on a root or a
    trace, and a caller may number markings that are not reachable (a
    search's goal).  The breadth-first search (`explore`) walks a fresh
    graph of its own, whose rows the classifier and reachability graphs
    read; each system's plan (`engine._Plan`) is a graph of its net.

    Each marking is found by its key, in one of two formats.  While every
    marking numbered is a set, the key is an int whose bit p is set iff
    place p holds a token (the view's `bits`).  A row walks the key's set
    bits to their transitions through the view's `first` table (`view`, a
    `_NetView` of the graph's own), and checks those and the transitions
    with no input place: t is enabled iff `key & rest == rest`, and its
    successor's key is `(key ^ consume) | produce`.  A nonzero
    `(key ^ consume) & produce` means the successor would hold two tokens
    on a place: on that first unsafe arc, and when `number` gets a marking
    with a count above 1, the graph converts every key to its token counts,
    a tuple in place declaration order, and makes the count loop's tables
    of place indices from the view's masks (`_tables`), once.  A row then
    reads each transition's input places' entries, and keys its successor
    by minus one on each place it consumes from and plus one on each it
    produces on.  Conversion changes no marking's number, and the row being
    filled is filled again in the count format.

    Only a key not yet numbered fires through `fire`, which makes the
    successor's `Marking`: a marking gets one `Marking` however many arcs
    lead to it, and a marking made here is never hashed or sorted.  A row
    numbers each new successor in place, writing its number, `Marking` and
    key as `number` does, with no call per marking.  Only methods of this
    class read a key: callers find a `Marking`'s number by `number` and
    read the `Marking`s."""

    # Slots keep the reads of `row` fast on a plan (`engine._Plan`) too,
    # whose own attributes live in a dict that its cached properties write.
    __slots__ = ("net", "view", "labels", "markings", "rows", "size", "_by_key", "_keys",
                 "_tables")

    def __init__(self, net: PetriNet):
        self.net = net
        self.markings: list[Marking] = []
        self.rows: dict[int, tuple[tuple[int, int], ...]] = {}
        self.size = 0
        self._by_key: dict[int | tuple, int] = {}   # key -> number
        self._keys: list[int | tuple] = []          # number -> key
        self._tables: tuple | None = None   # the count loop's (unguarded, first)
        self.view = _NetView(net)
        self.labels = self.view.labels   # label name by index, None when silent

    def _key(self, m: Marking) -> int | tuple:
        counts = m._counts
        if self._tables is None and max(counts.values(), default=0) > 1:
            self._convert()
        if self._tables is None:
            return sum(map(self.view.bits.__getitem__, counts))
        return tuple([counts.get(p, 0) for p in self.net.places])

    def _convert(self) -> None:
        """Key every marking by its token counts from now on."""
        n = len(self.net.places)
        self._keys = [tuple([key >> p & 1 for p in range(n)]) for key in self._keys]
        self._by_key = {key: i for i, key in enumerate(self._keys)}

        def places(mask):
            return tuple([p for p in range(n) if mask >> p & 1])

        def entries(masks):
            return tuple([(k, places(rest), places(consume), places(produce))
                          for k, rest, consume, produce in masks])

        self._tables = entries(self.view.unguarded), tuple(map(entries, self.view.first))

    def number(self, m: Marking) -> int:
        """The number of the marking, numbering it when it has none."""
        key = self._key(m)
        i = self._by_key.get(key)
        if i is None:
            i = self._by_key[key] = len(self.markings)
            self.markings.append(m)
            self._keys.append(key)
        return i

    def row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Marking i's row, computed and stored on first use."""
        row = self.rows.get(i)
        if row is None:
            if self._tables is None:
                row = self._set_row(i)
            if row is None:
                row = self._count_row(i)
            self.rows[i] = row
            self.size += 1
        return row

    def _set_row(self, i: int) -> tuple[tuple[int, int], ...] | None:
        """Marking i's row over bit keys, or None once an arc turns out
        unsafe, which converts the keys."""
        key = self._keys[i]
        first = self.view.first
        candidates = [*self.view.unguarded]
        marked = key
        while marked:
            low = marked & -marked
            candidates += first[low.bit_length() - 1]
            marked ^= low
        candidates.sort()
        by_key, markings, keys = self._by_key, self.markings, self._keys
        out = []
        for k, rest, consume, produce in candidates:
            if key & rest == rest:
                s = key ^ consume
                if s & produce:
                    self._convert()
                    return None
                s |= produce
                j = by_key.get(s)
                if j is None:
                    j = by_key[s] = len(markings)
                    markings.append(fire(self.net, markings[i], self.net.transitions[k]))
                    keys.append(s)
                out.append((k, j))
        return tuple(out)

    def _count_row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Marking i's row over count keys."""
        key = self._keys[i]
        unguarded, first = self._tables
        candidates = [*unguarded, *chain.from_iterable(compress(first, key))]
        candidates.sort()
        by_key, markings, keys = self._by_key, self.markings, self._keys
        out = []
        for k, rest, consume, produce in candidates:
            for p in rest:
                if not key[p]:
                    break
            else:
                counts = list(key)
                for p in consume:
                    counts[p] -= 1
                for p in produce:
                    counts[p] += 1
                counts = tuple(counts)
                s = by_key.get(counts)
                if s is None:
                    s = by_key[counts] = len(markings)
                    markings.append(fire(self.net, markings[i], self.net.transitions[k]))
                    keys.append(counts)
                out.append((k, s))
        return tuple(out)

    @staticmethod
    def explore(net: PetriNet, root: Marking, state_budget: int,
                b_max: int | None = None):
        """Breadth-first search from `root`, a marking of `net`, over the rows
        of a fresh graph of the net, which numbers the markings it finds 0,
        1, ... in the order found.  Returns (graph, parent, via): parent[k]
        and via[k] are the number of the marking and the index of the
        transition whose arc found marking k (-1 and None at the root); they
        hold one entry per marking found, which the graph's first markings
        are, and the graph holds the row of each, the arcs leaving it.
        Finding a marking past the budget raises BudgetExceeded; the root is
        always explored, so budgets below 1 act as 1.  With `b_max`, the
        search stops on finding the first marking with more than b_max tokens
        on some place, in the row of some marking k; the markings numbered
        after k then have no row yet.
        """
        graph = _MarkingGraph(net)
        graph.number(root)
        parent, via = [-1], [None]
        result = graph, parent, via
        if b_max is not None and root.max_count() > b_max:
            return result
        budget = max(state_budget, 1)
        # Marking k's row numbers the markings first found from it, in row
        # order, so a target numbered len(parent) is the next one found.
        for k, _ in enumerate(parent):
            for t, s in graph.row(k):
                if s == len(parent):
                    if s >= budget:
                        raise BudgetExceeded(s + 1)
                    parent.append(k)
                    via.append(t)
                    if b_max is not None and graph.markings[s].max_count() > b_max:
                        return result
        return result


def fire_sequence(net: PetriNet, marking: Marking, seq: Iterable[str]) -> Marking:
    """Fold fire over the sequence; the empty sequence returns the marking unchanged."""
    current = marking
    for i, t in enumerate(seq):
        if not net.has_transition(t):
            raise UnknownTransition(f"{t!r} at step {i}")
        for p in net.preset(t):
            if current[p] == 0:
                raise NotEnabled(t, p, step=i)
        current = fire(net, current, t)
    return current


def _schedule_counts(net: PetriNet, m0: Marking, x: Mapping[str, int], step_budget: int,
                     before: Mapping[str, Iterable[str]] | None = None
                     ) -> tuple[str, ...] | None:
    """A firing sequence from m0 that fires each t exactly x[t] times, or None.

    Depth-first search over the transitions in declaration order, on an
    explicit stack, so a long sequence needs no deep recursion; with
    `before`, t fires only once every transition in before[t] has used up
    its count.  The counts still to fire decide the marking and what
    `before` allows, so dead states are remembered by those counts alone.
    Each state entered is one step; more than step_budget steps raise
    BudgetExceeded.
    """
    items = [t for t in net.transitions if x.get(t)]
    remaining = [x[t] for t in items]
    position = {t: i for i, t in enumerate(items)}
    waits = [[position[u] for u in (before or {}).get(t, ()) if u in position]
             for t in items]
    total = sum(remaining)
    seq: list[str] = []
    dead: set[tuple[int, ...]] = set()
    # Per state on the current path: its marking and the index of the next
    # transition to try; a dead state gets none to try.
    frames: list[list] = []
    m, steps = m0, 0
    while True:
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded(steps, what="schedule steps")
        if len(seq) == total:
            return tuple(seq)
        frames.append([m, len(items) if tuple(remaining) in dead else 0])
        while frames:
            frame = frames[-1]
            m, i = frame
            while i < len(items) and not (
                    remaining[i] and not any(remaining[j] for j in waits[i])
                    and all(m[p] > 0 for p in net.preset(items[i]))):
                i += 1
            if i < len(items):
                frame[1] = i + 1
                remaining[i] -= 1
                seq.append(items[i])
                m = fire(net, m, items[i])
                break
            # No firing is left here: the state is dead, and the firing
            # that led into it is undone.
            frames.pop()
            dead.add(tuple(remaining))
            if frames:
                remaining[frames[-1][1] - 1] += 1
                seq.pop()
        else:
            return None


def parikh(seq: Iterable[str]) -> dict[str, int]:
    """Occurrence counts per transition id."""
    return dict(Counter(seq))


def parikh_dominated(smaller: Mapping[str, int], larger: Mapping[str, int]) -> bool:
    return all(n <= larger.get(t, 0) for t, n in smaller.items())
