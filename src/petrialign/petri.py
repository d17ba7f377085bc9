"""Petri-net data model and firing semantics.

Nets are immutable after construction; markings are hashable multisets over
place ids.  All iteration orders derive from the declaration order of places
and transitions, so every computation downstream is deterministic.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EmptyNet, NotEnabled, UnknownTransition

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
    """

    __slots__ = ("_counts", "_key", "_hash")

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
        self._key = tuple(sorted(cleaned.items()))
        self._hash = hash(self._key)

    @classmethod
    def _trusted(cls, counts: dict[str, int]) -> "Marking":
        """Adopt `counts`, which must map places to positive ints only."""
        m = cls.__new__(cls)
        m._counts = counts
        m._key = key = tuple(sorted(counts.items()))
        m._hash = hash(key)
        return m

    @classmethod
    def of(cls, *places: str) -> "Marking":
        """Set-style constructor: one token on each listed place."""
        return cls(Counter(places))

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def support(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self._key)

    def items(self):
        return iter(self._key)

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
        return isinstance(other, Marking) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "Marking") -> bool:
        return all(n <= other[p] for p, n in self._key)

    def __ge__(self, other: "Marking") -> bool:
        return other.__le__(self)

    def __add__(self, other: "Marking") -> "Marking":
        merged = dict(self._counts)
        for p, n in other._key:
            merged[p] = merged.get(p, 0) + n
        return Marking(merged)

    def __repr__(self) -> str:
        inner = ", ".join(p if n == 1 else f"{p}:{n}" for p, n in self._key)
        return "{" + inner + "}"


class PetriNet:
    """Labeled Petri net with unweighted flow.

    `places` and `transitions` keep declaration order; `flow` holds
    (place, transition) and (transition, place) pairs.
    """

    __slots__ = ("places", "transitions", "labels", "flow", "_pre", "_post",
                 "_consume", "_produce", "_place_set", "_trans_set", "_compiled")

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
        self.flow = frozenset(flow)
        order = {v: i for i, v in enumerate(self.places)}
        order.update({v: i for i, v in enumerate(self.transitions)})
        pre: dict[str, list[str]] = {v: [] for v in self.places + self.transitions}
        post: dict[str, list[str]] = {v: [] for v in self.places + self.transitions}
        for src, dst in self.flow:
            ok = (src in self._place_set and dst in self._trans_set) or \
                 (src in self._trans_set and dst in self._place_set)
            if not ok:
                raise ValueError(f"flow pair {(src, dst)!r} does not connect a place and a transition")
            post[src].append(dst)
            pre[dst].append(src)
        self._pre = {v: tuple(sorted(vs, key=order.__getitem__)) for v, vs in pre.items()}
        self._post = {v: tuple(sorted(vs, key=order.__getitem__)) for v, vs in post.items()}
        self.labels = {t: labels[t] for t in self.transitions}
        # pre \ post and post \ pre per transition: the two effect cases of the
        # firing rule (self-loop places fall through unchanged).
        self._consume = {}
        self._produce = {}
        for t in self.transitions:
            pre_set = set(self._pre[t])
            post_set = set(self._post[t])
            self._consume[t] = tuple(p for p in self._pre[t] if p not in post_set)
            self._produce[t] = tuple(p for p in self._post[t] if p not in pre_set)
        self._compiled = None

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

    def compiled(self) -> "CompiledNet":
        """The integer-indexed form of this net, built on first use."""
        if self._compiled is None:
            self._compiled = CompiledNet(self)
        return self._compiled

    def is_weakly_connected(self) -> bool:
        vertices = self.places + self.transitions
        if not vertices:
            return True
        seen = {vertices[0]}
        stack = [vertices[0]]
        while stack:
            v = stack.pop()
            for w in self._pre[v] + self._post[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vertices)

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, PetriNet)
                and self.places == other.places
                and self.transitions == other.transitions
                and self.flow == other.flow
                and self.labels == other.labels)

    def __repr__(self) -> str:
        return f"PetriNet(|P|={len(self.places)}, |T|={len(self.transitions)}, |F|={len(self.flow)})"


class CompiledNet:
    """A net with places and transitions replaced by their declaration indices.

    Markings are tuples of token counts in place order.  `pre[t]` lists the
    input places of transition t and `delta[t]` its (place, change) effects;
    `by_label` maps each visible label to its transitions in declaration order.
    """

    __slots__ = ("places", "pre", "delta", "by_label")

    def __init__(self, net: PetriNet):
        self.places = net.places
        index = {p: i for i, p in enumerate(net.places)}
        self.pre = tuple(tuple(index[p] for p in net.preset(t)) for t in net.transitions)
        self.delta = tuple(tuple((index[p], -1) for p in net._consume[t])
                           + tuple((index[p], 1) for p in net._produce[t])
                           for t in net.transitions)
        by_label: dict[str, list[int]] = {}
        for i, t in enumerate(net.transitions):
            label = net.label(t)
            if not label.silent:
                by_label.setdefault(label.name, []).append(i)
        self.by_label = {a: tuple(ts) for a, ts in by_label.items()}

    def encode(self, marking: Marking) -> tuple[int, ...]:
        """Token counts in place order; tokens on places outside the net are dropped."""
        return tuple(marking[p] for p in self.places)

    def enabled(self, m: tuple[int, ...], t: int) -> bool:
        for p in self.pre[t]:
            if not m[p]:
                return False
        return True

    def fire(self, m: tuple[int, ...], t: int) -> tuple[int, ...]:
        """Successor marking; the caller checks that t is enabled."""
        counts = list(m)
        for p, d in self.delta[t]:
            counts[p] += d
        return tuple(counts)


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
    counts = dict(counts)
    for p in net._consume[t]:
        n = counts[p] - 1
        if n:
            counts[p] = n
        else:
            del counts[p]
    for p in net._produce[t]:
        counts[p] = counts.get(p, 0) + 1
    return Marking._trusted(counts)


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


def parikh(seq: Iterable[str]) -> dict[str, int]:
    """Occurrence counts per transition id."""
    return dict(Counter(seq))


def parikh_dominated(smaller: Mapping[str, int], larger: Mapping[str, int]) -> bool:
    return all(n <= larger.get(t, 0) for t, n in smaller.items())


@dataclass(frozen=True)
class IncidenceMatrix:
    """Sparse {-1, 0, +1} incidence matrix; absent entries are zero."""

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    entries: Mapping[tuple[str, str], int]

    def __getitem__(self, key: tuple[str, str]) -> int:
        return self.entries.get(key, 0)

    def column(self, t: str) -> dict[str, int]:
        return {p: v for (p, tt), v in self.entries.items() if tt == t}

    def displacement(self, counts: Mapping[str, int]) -> dict[str, int]:
        """Matrix-vector product: net token change per place for firing counts."""
        delta: dict[str, int] = {}
        for (p, t), v in self.entries.items():
            n = counts.get(t, 0)
            if n:
                delta[p] = delta.get(p, 0) + v * n
        return {p: d for p, d in delta.items() if d}


def incidence_matrix(net: PetriNet) -> IncidenceMatrix:
    """Incidence matrix of the net; self-loop place/transition pairs yield 0."""
    if not net.places or not net.transitions:
        raise EmptyNet("incidence matrix needs at least one place and one transition")
    entries: dict[tuple[str, str], int] = {}
    for t in net.transitions:
        for p in net._consume[t]:
            entries[(p, t)] = -1
        for p in net._produce[t]:
            entries[(p, t)] = 1
    return IncidenceMatrix(net.places, net.transitions, entries)
