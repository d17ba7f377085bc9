"""Process trees: parsing, language semantics with shuffle, and translation to
safe sound free-choice workflow nets."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import ArityError, BudgetExceeded, ParseError
from .petri import AcceptingSystem, Label, Marking, PetriNet, is_token

OPERATORS = ("seq", "xor", "par", "loop")
KEYWORDS = OPERATORS + ("tau",)


@dataclass(frozen=True)
class ProcessTree:
    kind: str  # activity | silent | seq | xor | par | loop
    label: str | None = None
    children: tuple["ProcessTree", ...] = ()

    def __post_init__(self):
        if self.kind == "activity":
            if self.label is None or not is_token(self.label):
                raise ValueError(f"bad activity label {self.label!r}")
        elif self.kind == "loop":
            if len(self.children) != 2:
                raise ValueError("loop takes exactly 2 children")
        elif self.kind in ("seq", "xor", "par"):
            if not self.children:
                raise ValueError(f"{self.kind} needs at least one child")
        elif self.kind != "silent":
            raise ValueError(f"unknown node kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "activity":
            return self.label
        if self.kind == "silent":
            return "tau"
        return f"{self.kind}({', '.join(str(c) for c in self.children)})"


def activity(label: str) -> ProcessTree:
    return ProcessTree("activity", label)


def silent() -> ProcessTree:
    return ProcessTree("silent")


def seq(*children: ProcessTree) -> ProcessTree:
    return ProcessTree("seq", children=children)


def xor(*children: ProcessTree) -> ProcessTree:
    return ProcessTree("xor", children=children)


def par(*children: ProcessTree) -> ProcessTree:
    return ProcessTree("par", children=children)


def loop(do: ProcessTree, redo: ProcessTree) -> ProcessTree:
    return ProcessTree("loop", children=(do, redo))


_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


class _Parser:
    """Recursive-descent parser for
    tree := 'tau' | IDENT | ('seq'|'xor'|'par') '(' tree (',' tree)* ')'
          | 'loop' '(' tree ',' tree ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _position(self, at=None):
        at = self.pos if at is None else at
        consumed = self.text[:at]
        line = consumed.count("\n") + 1
        column = at - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message, at=None):
        line, column = self._position(at)
        raise ParseError(message, line=line, column=column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, char):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.pos = m.end()
        return m.group(), m.start()

    def tree(self) -> ProcessTree:
        name, start = self.ident()
        if name == "tau":
            return silent()
        if name in OPERATORS:
            self.expect("(")
            children = [self.tree()]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.tree())
            self.expect(")")
            if name == "loop" and len(children) != 2:
                line, column = self._position(start)
                raise ArityError(f"loop takes exactly 2 children, got {len(children)}",
                                 line=line, column=column)
            return ProcessTree(name, children=tuple(children))
        return activity(name)

    def parse(self) -> ProcessTree:
        result = self.tree()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input after tree")
        return result


def parse_tree(text: str) -> ProcessTree:
    return _Parser(text).parse()


def tree_alphabet(tree: ProcessTree) -> tuple[str, ...]:
    seen: list[str] = []

    def walk(node):
        if node.kind == "activity" and node.label not in seen:
            seen.append(node.label)
        for child in node.children:
            walk(child)

    walk(tree)
    return tuple(sorted(seen))


def has_unique_labels(tree: ProcessTree) -> bool:
    """True iff no visible activity label occurs twice; silent nodes are exempt."""
    seen = set()

    def walk(node):
        if node.kind == "activity":
            if node.label in seen:
                return False
            seen.add(node.label)
        return all(walk(child) for child in node.children)

    return walk(tree)


def tree_language_member(tree: ProcessTree, word: Sequence[str],
                         budget: int = 1_000_000) -> bool:
    """Decide word membership in the tree language by recursive descent.

    seq carries the word offsets its children reach one after another, xor
    tries each child, par solves shuffle membership by partitioning word
    positions among the children, and loop unrolls to the fixed point of its
    prefix positions (at most |word|+1 distinct positions).  Each descent
    into a node on a subword is one step; more than `budget` steps raise
    BudgetExceeded.
    """
    word = tuple(word)
    ids: dict[int, int] = {}

    def node_id(node):
        key = id(node)
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    memo: dict[tuple, bool] = {}
    calls = 0

    def match(node: ProcessTree, w: tuple[str, ...]) -> bool:
        nonlocal calls
        calls += 1
        if calls > budget:
            raise BudgetExceeded(calls, what="membership steps")
        key = (node_id(node), w)
        if key in memo:
            return memo[key]
        result = _match(node, w)
        memo[key] = result
        return result

    def seq_match(node, w) -> bool:
        """Carry the set of word offsets that a prefix of the children can
        reach, child by child, trying only the lengths a child's words have."""
        reached = {0}
        for child in node.children:
            lo, hi = lengths(child)
            reached = {end for start in reached
                       for end in range(start + lo, min(start + hi, len(w)) + 1)
                       if match(child, w[start:end])}
            if not reached:
                return False
        return len(w) in reached

    bounds: dict[int, tuple[int, float]] = {}

    def lengths(node) -> tuple[int, float]:
        """Bounds on the lengths of the node's words: the least, and the
        greatest or inf under a loop."""
        key = node_id(node)
        if key not in bounds:
            if node.kind in ("activity", "silent"):
                n = int(node.kind == "activity")
                bounds[key] = (n, n)
            elif node.kind == "loop":
                bounds[key] = (lengths(node.children[0])[0], math.inf)
            else:
                los, his = zip(*map(lengths, node.children))
                bounds[key] = ((min(los), max(his)) if node.kind == "xor"
                               else (sum(los), sum(his)))
        return bounds[key]

    alphabets: dict[int, frozenset] = {}

    def alphabet(node) -> frozenset:
        """The visible letters of the node."""
        key = node_id(node)
        if key not in alphabets:
            if node.kind == "activity":
                alphabets[key] = frozenset((node.label,))
            else:
                alphabets[key] = frozenset().union(*map(alphabet, node.children))
        return alphabets[key]

    owners: dict[int, dict[str, int]] = {}

    def last_owner(node) -> dict[str, int]:
        """Each letter of the node's children mapped to the last child that
        has it, in one backward pass: a letter is in the alphabet of the
        children after child k iff it maps above k."""
        key = node_id(node)
        if key not in owners:
            last: dict[str, int] = {}
            for k in range(len(node.children) - 1, -1, -1):
                for a in alphabet(node.children[k]):
                    last.setdefault(a, k)
            owners[key] = last
        return owners[key]

    def par_match(node, w) -> bool:
        """Split the word between each child and the children after it, on
        an explicit stack with one frame per child whose split is open, so
        a wide node recurses no deeper than one.  A frame holds its subword,
        the positions forced to its child and the free ones, and the next
        subset of the free ones to give its child (None when none is left);
        subsets are tried from all the free positions down to none."""
        children = node.children
        last = last_owner(node)
        frames: list[list] = []
        while True:
            # Open the split of w among the children from len(frames) on.
            k = len(frames)
            if k == len(children) - 1:
                if match(children[k], w):
                    return True
            else:
                # A position whose letter only child k has goes to it, one
                # whose letter only the later children have goes to them,
                # and a letter neither has fails the subword; only the other
                # positions are split both ways.
                mine = alphabet(children[k])
                forced = free = 0
                for i, a in enumerate(w):
                    later = last.get(a, -1) > k
                    if a in mine:
                        if later:
                            free |= 1 << i
                        else:
                            forced |= 1 << i
                    elif not later:
                        break
                else:
                    frames.append([w, forced, free, free])
            # Give the next subset of the top frame's positions to its child,
            # and open the rest for the children after it once it matches.
            while frames:
                frame = frames[-1]
                w, forced, free, sub = frame
                if sub is None:
                    frames.pop()
                    continue
                frame[3] = (sub - 1) & free if sub else None
                taken = sub | forced
                first = tuple(a for i, a in enumerate(w) if taken >> i & 1)
                if match(children[len(frames) - 1], first):
                    w = tuple(a for i, a in enumerate(w) if not taken >> i & 1)
                    break
            else:
                return False

    def _match(node, w) -> bool:
        if node.kind == "activity":
            return w == (node.label,)
        if node.kind == "silent":
            return w == ()
        if node.kind == "xor":
            return any(match(c, w) for c in node.children)
        if node.kind == "seq":
            return seq_match(node, w)
        if node.kind == "par":
            return par_match(node, w)
        # loop: L(T1) . (L(T2) . L(T1))*
        do, redo = node.children
        reached = {cut for cut in range(len(w) + 1) if match(do, w[:cut])}
        frontier = set(reached)
        while frontier:
            new = set()
            for start in frontier:
                for mid in range(start, len(w) + 1):
                    if match(redo, w[start:mid]):
                        for end in range(mid, len(w) + 1):
                            if end not in reached and match(do, w[mid:end]):
                                new.add(end)
            reached |= new
            frontier = new
        return len(w) in reached

    return match(tree, word)


class _NetBuilder:
    def __init__(self):
        self.places: list[str] = []
        self.transitions: list[str] = []
        self.flow: list[tuple[str, str]] = []
        self.labels: dict[str, Label] = {}
        self.counter = 0

    def place(self) -> str:
        name = f"p{self.counter}"
        self.counter += 1
        self.places.append(name)
        return name

    def transition(self, label: Label) -> str:
        name = f"t{self.counter}"
        self.counter += 1
        self.transitions.append(name)
        self.labels[name] = label
        return name

    def arc(self, src, dst):
        self.flow.append((src, dst))


def tree_to_wfnet(tree: ProcessTree) -> AcceptingSystem:
    """Translate a process tree to an equivalent safe, sound, free-choice
    workflow net.

    activity/tau become place-transition-place, seq chains shared places, xor
    branches between a shared entry and exit, par forks and joins with silent
    transitions, and loop wraps a do/redo place pair in silent entry/exit."""
    b = _NetBuilder()

    def build(node: ProcessTree, src: str, snk: str):
        if node.kind == "activity":
            t = b.transition(Label(node.label))
            b.arc(src, t)
            b.arc(t, snk)
        elif node.kind == "silent":
            t = b.transition(Label(None))
            b.arc(src, t)
            b.arc(t, snk)
        elif node.kind == "seq":
            stops = [src] + [b.place() for _ in node.children[:-1]] + [snk]
            for child, (a, z) in zip(node.children, zip(stops, stops[1:])):
                build(child, a, z)
        elif node.kind == "xor":
            for child in node.children:
                build(child, src, snk)
        elif node.kind == "par":
            split = b.transition(Label(None))
            join = b.transition(Label(None))
            b.arc(src, split)
            b.arc(join, snk)
            for child in node.children:
                a, z = b.place(), b.place()
                b.arc(split, a)
                b.arc(z, join)
                build(child, a, z)
        else:  # loop
            enter = b.transition(Label(None))
            leave = b.transition(Label(None))
            do_start, do_end = b.place(), b.place()
            b.arc(src, enter)
            b.arc(enter, do_start)
            b.arc(do_end, leave)
            b.arc(leave, snk)
            build(node.children[0], do_start, do_end)
            build(node.children[1], do_end, do_start)

    source = b.place()
    sink = b.place()
    build(tree, source, sink)
    net = PetriNet(tuple(b.places), tuple(b.transitions), b.flow, b.labels)
    return AcceptingSystem(net, Marking.of(source), Marking.of(sink))


@dataclass(frozen=True)
class ShuffleInstance:
    """Target word plus component words over a shared alphabet."""

    target: tuple[str, ...]
    components: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component word")


def shuffle_member(inst: ShuffleInstance, state_cap: int = 2_000_000) -> bool:
    """Is the target an order-preserving interleaving of the component words?

    Dynamic program over tuples of component positions; exact, exponential in
    the number of components."""
    v = inst.target
    words = inst.components
    if sum(len(w) for w in words) != len(v):
        return False
    start = (0,) * len(words)
    goal = tuple(len(w) for w in words)
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        if state == goal:
            return True
        i = sum(state)
        letter = v[i]
        for j, w in enumerate(words):
            p = state[j]
            if p < len(w) and w[p] == letter:
                nxt = state[:j] + (p + 1,) + state[j + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > state_cap:
                        raise BudgetExceeded(len(seen), what="position tuples")
                    stack.append(nxt)
    return False
