"""Process trees: parsing, language semantics with shuffle, and translation to
safe sound free-choice workflow nets."""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass
from typing import Sequence

from .errors import ArityError, BudgetExceeded, ParseError
from .petri import AcceptingSystem, Marking, _NetBuilder, is_token

OPERATORS = ("seq", "xor", "par", "loop")


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


# Term kinds of the reference matcher; term 0 is the empty word.
_EPS, _ACT, _CAT, _XOR, _PAR, _STAR = range(6)


class _Terms:
    """The partial derivatives of one tree's terms (Antimirov, TCS 1996),
    with the shuffle rule for par (Sulzmann and Thiemann, LATA 2015).

    A term is an interned int: `nodes[t]` is its (kind, x, y), `nullable[t]`
    says whether it accepts the empty word, and `letters[t]` holds at least
    its letters, so a letter outside it has no derivative.  A derived term
    carries its parent's letters.  loop(do, redo) is do.(redo.do)*, a seq is
    a right-nested chain of concatenations, and par and xor are balanced
    binary nodes, so a derivative descends only into the children that hold
    its letter.  `derived` keeps the derivatives of (term, letter) and
    `steps` the derivatives of (set of terms, letter)."""

    def __init__(self, tree: ProcessTree):
        self.tree = tree
        self.ids: dict[tuple, int] = {(_EPS, None, None): 0}
        self.nodes: list[tuple] = [(_EPS, None, None)]
        self.nullable = [True]
        self.letters = [frozenset()]
        self.derived: dict[tuple[int, str], frozenset[int]] = {}
        self.steps: dict[tuple[frozenset[int], str], frozenset[int]] = {}
        self.start = frozenset((self.compile(tree),))

    def make(self, kind, x, y, nullable: bool, letters: frozenset) -> int:
        key = (kind, x, y)
        t = self.ids.get(key)
        if t is None:
            t = len(self.nodes)
            self.nodes.append(key)
            self.nullable.append(nullable)
            self.letters.append(letters)
            self.ids[key] = t
        return t

    def cat(self, x: int, y: int, letters: frozenset) -> int:
        if x == 0 or y == 0:
            return x or y
        return self.make(_CAT, x, y, self.nullable[x] and self.nullable[y], letters)

    def par(self, x: int, y: int, letters: frozenset) -> int:
        if x == 0 or y == 0:
            return x or y
        return self.make(_PAR, x, y, self.nullable[x] and self.nullable[y], letters)

    def xor(self, x: int, y: int, letters: frozenset) -> int:
        if x == y:
            return x
        return self.make(_XOR, x, y, self.nullable[x] or self.nullable[y], letters)

    def balanced(self, join, terms: list[int]) -> int:
        """The terms joined pairwise, round by round, into one binary node of
        logarithmic depth whose every node holds exactly its letters."""
        while len(terms) > 1:
            pairs = [join(x, y, self.letters[x] | self.letters[y])
                     for x, y in zip(terms[::2], terms[1::2])]
            terms = pairs + terms[len(pairs) * 2:]
        return terms[0]

    def compile(self, node: ProcessTree) -> int:
        if node.kind == "silent":
            return 0
        if node.kind == "activity":
            return self.make(_ACT, node.label, None, False, frozenset((node.label,)))
        children = [self.compile(child) for child in node.children]
        if node.kind == "xor":
            return self.balanced(self.xor, children)
        if node.kind == "par":
            return self.balanced(self.par, children)
        letters = frozenset().union(*(self.letters[c] for c in children))
        if node.kind == "seq":
            t = children[-1]
            for child in reversed(children[:-1]):
                t = self.cat(child, t, letters)
            return t
        do, redo = children
        body = self.cat(redo, do, letters)
        return self.cat(do, self.make(_STAR, body, None, True, letters), letters)

    def derive(self, t: int, a: str) -> frozenset[int]:
        key = (t, a)
        got = self.derived.get(key)
        if got is None:
            got = self.derived[key] = frozenset(self._derive(t, a))
        return got

    def _derive(self, t: int, a: str) -> set[int]:
        out: set[int] = set()
        # A chain of concatenations whose heads are nullable is walked here,
        # link by link, so a long seq recurses no deeper than one; the walk
        # stops at a link whose derivative is already known.
        while a in self.letters[t]:
            kind, x, y = self.nodes[t]
            letters = self.letters[t]
            if kind == _ACT:
                out.add(0)
            elif kind == _XOR:
                out |= self.derive(x, a)
                out |= self.derive(y, a)
            elif kind == _PAR:
                out.update(self.par(d, y, letters) for d in self.derive(x, a))
                out.update(self.par(x, d, letters) for d in self.derive(y, a))
            elif kind == _STAR:
                out.update(self.cat(d, t, letters) for d in self.derive(x, a))
            else:
                out.update(self.cat(d, y, letters) for d in self.derive(x, a))
                if self.nullable[x]:
                    known = self.derived.get((y, a))
                    if known is None:
                        t = y
                        continue
                    out |= known
            break
        return out

    def member(self, word: Sequence[str], budget: int) -> bool:
        current = self.start
        steps = 0
        for a in word:
            steps += len(current)
            if steps > budget:
                raise BudgetExceeded(budget + 1, what="membership steps")
            key = (current, a)
            following = self.steps.get(key)
            if following is None:
                following = self.steps[key] = frozenset().union(
                    *[self.derive(t, a) for t in current])
            current = following
        return any(self.nullable[t] for t in current)


_memo = threading.local()   # `terms`: this thread's last tree's terms


def tree_language_member(tree: ProcessTree, word: Sequence[str],
                         budget: int = 1_000_000) -> bool:
    """Decide word membership in the tree language by partial derivatives:
    the word is accepted iff the set of its derivatives holds a nullable term.

    Each term of the current set at each letter is one step, counted whether
    or not an earlier call derived it, so a verdict never depends on earlier
    calls; the first step past `budget` raises BudgetExceeded(budget + 1).
    Each thread keeps the terms and their derivatives of its last tree only,
    matched by identity: consecutive calls on one tree in one thread share
    them, and no older tree is kept alive."""
    terms = getattr(_memo, "terms", None)
    if terms is None or terms.tree is not tree:
        terms = _memo.terms = _Terms(tree)
    return terms.member(word, budget)


def tree_to_wfnet(tree: ProcessTree) -> AcceptingSystem:
    """Translate a process tree to an equivalent safe, sound, free-choice
    workflow net.

    activity/tau become place-transition-place, seq chains shared places, xor
    branches between a shared entry and exit, par forks and joins with silent
    transitions, and loop wraps a do/redo place pair in silent entry/exit."""
    b = _NetBuilder()
    counter = itertools.count()   # places and transitions share one numbering

    def place() -> str:
        b.places.append(f"p{next(counter)}")
        return b.places[-1]

    def transition(label=None, pre=(), post=()) -> str:
        return b.transition(f"t{next(counter)}", label, pre, post)

    def build(node: ProcessTree, src: str, snk: str):
        if node.kind == "activity":
            transition(node.label, [src], [snk])
        elif node.kind == "silent":
            transition(None, [src], [snk])
        elif node.kind == "seq":
            stops = [src] + [place() for _ in node.children[:-1]] + [snk]
            for child, (a, z) in zip(node.children, zip(stops, stops[1:])):
                build(child, a, z)
        elif node.kind == "xor":
            for child in node.children:
                build(child, src, snk)
        elif node.kind == "par":
            split = transition(None, [src])
            join = transition(None, (), [snk])
            for child in node.children:
                a, z = place(), place()
                b.flow += [(split, a), (z, join)]
                build(child, a, z)
        else:  # loop
            enter = transition(None, [src])
            leave = transition(None, (), [snk])
            do_start, do_end = place(), place()
            b.flow += [(enter, do_start), (do_end, leave)]
            build(node.children[0], do_start, do_end)
            build(node.children[1], do_end, do_start)

    source, sink = place(), place()
    build(tree, source, sink)
    return b.system(Marking.of(source), Marking.of(sink))


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
