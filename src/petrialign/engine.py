"""Cost-minimal reachability search, the generic alignment solver, membership,
the exhaustive oracle, and the class-aware dispatcher.

A move table prices a cost function's exact `Fraction`s on one integer scale,
the lcm of the denominators of its overrides, so every weight is a
non-negative int, heap arithmetic stays exact and fast, and results are
converted back to Fractions.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush, heappushpop
from typing import Mapping, Sequence

from .classify import behavioral_class, structural_class
from .costs import (LOG_DEFAULT, SILENT_MODEL_DEFAULT, SYNC_DEFAULT, VISIBLE_MODEL_DEFAULT,
                    CostFunction, Move, standard_costs)
from .errors import (BudgetExceeded, CapExhausted, NotEasySound, UnknownTransition,
                     Unreachable)
from .petri import (DEFAULT_STATE_BUDGET, AcceptingSystem, Marking, PetriNet, _closure,
                    _enabled_among, _MarkingGraph, fire, is_token)


@dataclass(frozen=True)
class AlignResult:
    alignment: tuple[Move, ...]
    cost: Fraction
    algorithm: str
    states_expanded: int

    @classmethod
    def _trusted(cls, alignment: tuple[Move, ...], cost: Fraction, algorithm: str,
                 states_expanded: int) -> "AlignResult":
        """The result of these fields, made without the dataclass
        constructor, as `Move._trusted` makes a move, for the search's
        results."""
        result = cls.__new__(cls)
        fields = result.__dict__
        fields["alignment"] = alignment
        fields["cost"] = cost
        fields["algorithm"] = algorithm
        fields["states_expanded"] = states_expanded
        return result


@dataclass(frozen=True)
class Budgets:
    """`states` bounds the states a search settles, not bytes: where a silent
    source transition keeps adding tokens, a settled state held 1.8-1.9 KB
    (201-211 MB peak RSS at 10^5 states, Python 3.11), so the default of
    10^6 states can need about 2 GB before `BudgetExceeded`."""

    states: int = DEFAULT_STATE_BUDGET


def _layer(layers: dict, costs: list, f: int) -> list:
    """A new, empty layer of the frontier at f, its key pushed on `costs`."""
    heappush(costs, f)
    layer = layers[f] = []
    return layer


def dijkstra_least_cost(plan: _Plan, trace: Sequence[str], table: _MoveTable,
                        state_budget: int, ceiling: int | None = None,
                        h: tuple[list[int], list[int], list[int], int] | None = None):
    """Least-cost move sequence over the states (trace position, marking) of
    the synchronous product of the trace and the net of `plan`, generated
    on the fly from (0, start) to (len(trace), final), where (start, final)
    are the numbers of the system's ends on `plan` (`plan.ends`).

    Markings are numbered, and their enabled transitions read, through the
    plan's marking graph (see `_MarkingGraph`), and moves are priced by
    `table` (see `_MoveTable`).  A row entry (t, s) of a marking is a sync
    move on the next letter when `plan.labels[t]` is that letter, as
    membership matches moves, and always a model move.  A state yields its moves in
    the product's declaration order: sync moves on the next letter, the log
    move, then model moves.  Frontier entries expand in (cost, later trace
    position, rank, insertion) order, which pins down a reproducible witness
    and, as A*-based alignment does, reads on along a tie of costs.  Ranks
    follow the tie-break keys (kind, id): sync before model before log
    moves, ids in string order ("t10" < "t2").  With T transitions, sync
    ranks lie in [0, T), model ranks in [T, 2T), and every log move ranks
    2T: two log moves tie on position only when they leave the same one.
    Returns (cost, moves, settled).  With a `ceiling`, a weight on the
    table's scale, the search ends once every cost left on its frontier
    (cost plus h when `h` is given) is higher: the final state is then
    Unreachable within the ceiling.

    With `h`, a lower bound on the cost from a state to the goal, the search
    is A* (Hart, Nilsson and Raphael, *A formal basis for the heuristic
    determination of minimum cost paths*, 1968): entries expand in (cost +
    h, later trace position, rank, insertion) order, and `best` still keeps
    the cost.  `h` is (amask, near, lmask, unit) from `_Plan.bound`, made
    only for single-token S-nets whose every transition has an input place,
    where the marking after a transition is its output place (or none).
    Each visible transition is a bit, and "" the bit 1; `amask[m]` holds the
    visible transitions that m's silent closure enables, and "" when it
    holds the final marking; `fmask[t]` is `amask` of the marking that t
    leads to; unit the least weight of a log or visible model move.  h(pos,
    m) is the optimum of a relaxation on (position, transition) pairs: each
    letter from pos on is logged, at cost unit, or kept with one of the
    transitions that carry it; two adjacent kept pairs (t, t') cost unit
    when t' is not in fmask[t], and so does a first kept pair outside
    amask[m]; the end is a kept pair "".  It is a lower bound: an alignment
    logs the letters it does not sync, and between the sync moves on two
    kept transitions (t, t') it makes a visible model move unless silent
    moves join them, which puts t' in fmask[t].  h(pos, m) = near[pos] + (0
    if amask[m] & lmask[pos] else unit), lmask[pos] the first kept pairs of
    the optimal choices from pos.  h is consistent, h(s) <= c(s, s') +
    h(s'), on every move:
    - a sync move on transition t at pos, from m to s: m enables t, so
      keeping t first at (pos, m) costs what follows it, and `amask[s]` is
      fmask[t], so that is h(s') and h(s) <= h(s');
    - a silent model move: `amask` shrinks along it, so h(s) <= h(s');
    - a visible model move costs at least unit, and the first-pair
      indicator is at most 1, so h(s) <= unit + h(s');
    - a log move costs at least unit, and every choice at (pos + 1, m) with
      its next kept pair is one at (pos, m) with letter pos logged, so h(s)
      <= unit + h(s').
    The goal's h is 0.  So each state settles once, at its least cost, the
    first goal pop is optimal, and the search settles no state that plain
    Dijkstra would not, but for ties; it may return another optimal
    alignment.  These moves are those of the cut search below too.

    `plan.must` holds the silent transitions that must fire (see `_Plan`
    and `_NetView.forced`): a state whose row holds one yields that
    transition's model move alone, the first such in row order, and no
    sync, log or other model move.  The cut keeps an optimal alignment
    under any cost function, by an exchange argument: such a t has input
    places that no other transition reads and that `final` leaves empty,
    so every completion from the state fires t, and moving t's first model
    move to the front disables no move after it (none reads t's input
    places; t only adds tokens elsewhere).  That gives a completion with the
    same moves, so the same cost and trace projection, that starts with t.
    It is a singleton stubborn set (Valmari, *Stubborn sets for reduced
    state space generation*, 1991).  The cut search is a search over a
    subgraph, so a state it settles below the optimum's cost the full
    search settles too.

    The frontier is kept in layers of f = cost + h, h 0 without `h`, a
    bucket queue (Dial, *Algorithm 360: Shortest-path forest with
    topological ordering*, 1969): a heap holds the current layer F, each
    layer above it is a list in push order, and a heap of their keys,
    `costs`, names the next F once the heap runs dry; its list is then
    heapified, and the ceiling is checked there, once per layer.  No entry
    lands below F: F is the f of the state expanding, and f never falls
    along a move, as h is consistent (without `h`, weights are
    non-negative).  A layer's entries share f, so an entry is (offset,
    counter, pos, marking number, cost), offset = (n - pos) * radix + rank,
    n = len(trace), radix = 2T + 1 > every rank, and pops come in the order
    above.  `best` keys a state by marking number * (n + 1) + pos; a pop
    whose cost is not best is stale.  Each settled state reads its marking's
    one row in one pass, for its sync moves and its model moves alike, so
    the search adds at most one row per state it settles, and numbers only
    the markings of the states it reaches.  A forced row is read as its one
    entry, with a letter that no label equals, and yields no log move.

    An expansion keeps its first new entry in layer F back as `pending`
    instead of pushing it, and the next pop is `heappushpop(heap, pending)`.
    The heap and `pending` hold the entries that pushing would have put on
    the heap, and (offset, counter) is unique, so every pop is the same.
    When the pending entry is the least, mostly a zero-cost sync or silent
    move that reads on along the trace, the call returns it without touching
    the heap, so such a settled state costs one heap call instead of a push
    and a pop.  The pass pushes each row entry's sync move and then its
    model move, and the log move after the row, not in the order in which a
    state yields its moves, and that changes no pop: the entries of one
    expansion have pairwise distinct offsets, even in different layers (sync
    moves land at pos + 1 and model moves at pos, each with its own
    transition's rank, and the log move ranks 2T, and an offset splits
    uniquely into (pos, rank), since rank < radix), so their counters never
    decide a tie, and counters still rise from one expansion to the next.
    Nor does it change which move `best` keeps: only moves of one kind, or a
    sync move and the log move, reach the same state (a self-loop sync
    reaches the log move's), and those keep their order, the log move after
    every sync move.
    """
    expand, rows, labels, must = plan.row, plan.rows, plan.labels, plan.must
    start, final = plan.ends
    sync, model = table.sync, table.model
    n = len(trace)
    width = n + 1
    radix = 2 * len(model) + 1       # above every rank
    # What the search reads at each position: the letter, its log move's
    # entry, and the priority offset of a state there; past the last letter
    # a sentinel letter that no label equals, with no log move.
    logs = {a: table.log(a) for a in dict.fromkeys(trace)}
    at = [(a, *logs[a], (n - i) * radix) for i, a in enumerate(trace)]
    at.append(("", 0, 0, None, 0))
    h_start = 0
    if h is not None:
        # Per position the bound's two parts there; one more entry past the
        # end, read by the final position's expansion, which makes no move
        # onto it.
        amask, near, lmask, unit = h
        hs = [*zip(near, lmask), (0, 0)]
        h_start = near[0] if amask[start] & lmask[0] else near[0] + unit
    goal = final * width + n
    best = {start * width: (0, None, None)}   # state -> (cost, parent state, move)
    # The frontier by layers of cost + h (see above): the heap of the current
    # one, F, and the lists above it, whose keys `costs` holds.
    heap: list = []
    layers = {h_start: [(n * radix, 0, 0, start, 0)]}
    costs = [h_start]
    F = pending = None    # the current layer; the entry not yet pushed
    counter = 1
    settled = 0
    while True:
        if pending is not None:
            _, _, pos, m, cost = heappushpop(heap, pending)
            pending = None
        elif heap:
            _, _, pos, m, cost = heappop(heap)
        elif costs and (ceiling is None or costs[0] <= ceiling):
            F = heappop(costs)
            heap = layers.pop(F)
            heapify(heap)
            continue
        else:
            break
        state = m * width + pos
        if best[state][0] != cost:
            continue
        settled += 1
        if settled > state_budget:
            raise BudgetExceeded(settled, what="settled states")
        if state == goal:
            path = []
            _, parent, move = best[state]
            while parent is not None:
                path.append(move)
                _, parent, move = best[parent]
            return cost, tuple(reversed(path)), settled
        row = rows.get(m)
        if row is None:
            row = expand(m)
        a, w, log_rank, move, here = at[pos]
        if h is not None:
            near_here, l_here = hs[pos]
            near_next, l_next = hs[pos + 1]
        if must:
            for t, s in row:
                if t in must:
                    row, a = ((t, s),), ""
                    break
        later = here - radix
        for t, s in row:
            if labels[t] == a:
                sw, rank, smove = sync[t]
                nc = cost + sw
                nxt = s * width + pos + 1
                old = best.get(nxt)
                if old is None or nc < old[0]:
                    best[nxt] = (nc, state, smove)
                    f = nc
                    if h is not None:
                        f += near_next if amask[s] & l_next else near_next + unit
                    entry = (later + rank, counter, pos + 1, s, nc)
                    counter += 1
                    if f != F:
                        (layers.get(f) or _layer(layers, costs, f)).append(entry)
                    elif pending is None:
                        pending = entry
                    else:
                        heappush(heap, entry)
            mw, rank, mmove = model[t]
            nc = cost + mw
            nxt = s * width + pos
            old = best.get(nxt)
            if old is None or nc < old[0]:
                best[nxt] = (nc, state, mmove)
                f = nc
                if h is not None:
                    f += near_here if amask[s] & l_here else near_here + unit
                entry = (here + rank, counter, pos, s, nc)
                counter += 1
                if f != F:
                    (layers.get(f) or _layer(layers, costs, f)).append(entry)
                elif pending is None:
                    pending = entry
                else:
                    heappush(heap, entry)
        if a:
            nc = cost + w
            old = best.get(state + 1)
            if old is None or nc < old[0]:
                best[state + 1] = (nc, state, move)
                f = nc
                if h is not None:
                    f += near_next if amask[m] & l_next else near_next + unit
                entry = (later + log_rank, counter, pos + 1, m, nc)
                counter += 1
                if f != F:
                    (layers.get(f) or _layer(layers, costs, f)).append(entry)
                elif pending is None:
                    pending = entry
                else:
                    heappush(heap, entry)
    raise Unreachable(f"marking {plan.markings[final]!r} is not reachable")


def min_cost_reach(net: PetriNet, initial: Marking,
                   costs: Mapping[str, Fraction | int],
                   target: Marking,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> tuple[Fraction, tuple[str, ...]]:
    """Least-cost firing sequence from `initial` to `target`: the search of
    `dijkstra_least_cost` on the empty trace, over a fresh plan of the
    system from `initial` to `target`, with its must-fire cut.

    Transitions missing from `costs` count as free, so an all-empty mapping
    reduces the problem to plain reachability.  A key that is not a
    transition of the net raises UnknownTransition.
    """
    for t in costs:
        if not net.has_transition(t):
            raise UnknownTransition(t)
    c = CostFunction(net.labels, model_overrides={t: costs.get(t, 0) for t in net.transitions})
    # Tokens on places outside the net never move.
    outside = [p for p in initial.support() + target.support() if not net.has_place(p)]
    if any(initial[p] != target[p] for p in outside):
        raise Unreachable(f"marking {target!r} is not reachable")
    if outside:
        initial, target = (Marking([(p, n) for p, n in m.items() if net.has_place(p)])
                           for m in (initial, target))
    plan = _Plan(AcceptingSystem(net, initial, target))
    table = _MoveTable(plan, c)
    cost, seq, _ = dijkstra_least_cost(plan, (), table, state_budget)
    return Fraction(cost, table.scale), tuple(move.model_part for move in seq)


class _MoveTable:
    """The search's move entries for the net of one marking graph under one
    cost function, each (weight, rank, move) with the tie-break rank of
    `dijkstra_least_cost`: per transition, in declaration order, one sync
    entry (None when silent) and one model entry; and per letter, the log
    move's entry, priced when a trace first holds the letter.  The ranks are
    those of the graph's view (`_NetView`).

    A sync move pairs a transition with its own label (`CostFunction`
    admits no other), so its entry depends on the transition alone.  Every
    price is the cost function's exact `Fraction` times `scale`, the lcm of
    the denominators of its overrides (1 under the standard costs), so every
    weight is a non-negative int.  `c` None stands for the standard costs,
    priced with no `CostFunction` made.  One loop prices the transitions,
    and `log` the letters: each reads the function's override of a move, or
    else the standard cost of `costs.py` that `CostFunction` falls back to;
    so the standard costs and the caller's are priced alike (the standard
    costs override nothing, so their loop reads no dict).  Each entry holds
    its `Move`, so a search returns its path as it walks it back.  Every
    table, standard or the caller's, takes its moves from `_moves`, shared
    across models: a model whose transition ids and labels an earlier one
    declared makes no move while the dict still holds them.
    """

    def __init__(self, graph: _MarkingGraph, c: CostFunction | None):
        sync_costs, log_costs, model_costs = (
            ({}, {}, {}) if c is None else (c.sync_overrides, c.log_overrides, c.model_overrides))
        self._log_costs = log_costs
        scale = 1
        if sync_costs or log_costs or model_costs:
            scale = math.lcm(*(v.denominator for table in (sync_costs, log_costs, model_costs)
                               for v in table.values()))
        self.scale = scale
        sync_w = _weight(SYNC_DEFAULT, scale)
        visible_w = _weight(VISIBLE_MODEL_DEFAULT, scale)
        silent_w = _weight(SILENT_MODEL_DEFAULT, scale)
        view = graph.view
        t_count = len(view.labels)
        shared = _moves.get
        self.sync: list[tuple[int, int, Move] | None] = []
        self.model: list[tuple[int, int, Move]] = []
        sync, model = self.sync.append, self.model.append
        for a, t, rank in zip(view.labels, graph.net.transitions, view.ranks):
            if a is None:
                sync(None)
                w = silent_w
            else:
                v = sync_costs.get((a, t)) if sync_costs else None
                sync((sync_w if v is None else _weight(v, scale), rank,
                      shared((a, t)) or _new_move(a, t)))
                w = visible_w
            if model_costs:
                v = model_costs.get(t)
                if v is not None:
                    w = _weight(v, scale)
            model((w, t_count + rank, shared((None, t)) or _new_move(None, t)))
        self._logs: dict[str, tuple[int, int, Move]] = {}

    @cached_property
    def visible_min(self) -> int | float:
        """The least weight of a visible model move, inf when none is."""
        return min((w for (w, _, _), s in zip(self.model, self.sync) if s is not None),
                   default=math.inf)

    def log(self, a: str) -> tuple[int, int, Move]:
        """The log move's entry on letter `a`."""
        entry = self._logs.get(a)
        if entry is None:
            if not is_token(a):
                raise ValueError(f"trace letter must match [A-Za-z0-9_]+: {a!r}")
            w = _weight(self._log_costs.get(a, LOG_DEFAULT), self.scale)
            entry = self._logs[a] = (w, 2 * len(self.model),
                                     _moves.get((a, None)) or _new_move(a, None))
        return entry


# The moves of every move table by (log part, model part), made on first use
# with `Move._trusted`, since a table pairs a transition with its own label
# only.  A move is frozen and compares by value, so sharing one changes no
# result, and two threads that race on a miss make two equal moves.  The
# dict is emptied once it holds more than `_MOVES_MAX` moves.
_MOVES_MAX = 4096
_moves: dict[tuple[str | None, str | None], Move] = {}


def _new_move(log_part: str | None, model_part: str | None) -> Move:
    """The move of these parts, made and shared on a miss of `_moves`."""
    if len(_moves) > _MOVES_MAX:
        _moves.clear()
    move = _moves[log_part, model_part] = Move._trusted(log_part, model_part)
    return move


def _weight(v: Fraction, scale: int) -> int:
    """The integer weight of cost `v` on a table's scale, a multiple of its
    denominator."""
    return v.numerator * (scale // v.denominator)


class _Plan(_MarkingGraph):
    """What aligning a trace against a system, or deciding its membership,
    needs of the system alone: the marking graph of its net, which the plan
    is, the numbers of the system's ends on it, the silent transitions that
    must fire, membership's subset automaton, the standard-cost results
    found so far and, made on first use, the move table of the standard
    costs, which `_MoveTable` prices with no `CostFunction` and fills with
    the moves that every table shares.  A plan is
    reached only from the thread that made it (see `_plan`), and an
    over-budget plan is replaced whole.  A call with the caller's costs
    prices them in a table of its own.

    `results` maps (trace, route, state budget) to the `AlignResult` that
    `align_by_search` returned for it under the standard costs: a repeated
    trace gets it back with no search.  The route is the solver's algorithm
    name and the budget the one its search ran under.
    Calls with the caller's costs and calls that raise store nothing.  A
    result's size is the number of states on its path, its moves plus one,
    which is at most the states its search settled.

    The graph (`petri._MarkingGraph`) numbers the markings that the
    alignment searches and the membership calls on the system find, and
    keeps per marking its row: the enabled transitions, each with the
    number of the marking it leads to.  The rows that a search fills are
    read by the calls that follow instead of firing again.  It holds no
    weight, so calls with the standard costs and calls with their own costs
    share it; weights come from the move tables.  `ends` holds the numbers
    of the system's initial and final markings, where the searches start
    and end, and `must` the indices of the transitions of `_NetView.forced`
    with no input place that the final marking marks: each fires on every
    path to the final marking from a marking that enables it.  The plan
    reads the final marking's place indices into one set and keeps each
    forced transition whose input indices lie outside it; no key is read.

    Membership reads the graph through a subset automaton (Rabin and Scott,
    *Finite automata and their decision problems*, 1959), built on demand
    from the rows and `labels`.  A state is the frozenset of the marking
    numbers that a prefix of a word leads to, closed under silent moves, and
    is numbered the first time it is made: `states`, `sizes`, `accepting`
    and `steps` hold, per state number, its markings, how many they are,
    whether the final marking is one of them, and its transition table,
    which maps a letter to the number of the state that the letter leads
    to: the silent closure of the successors, by the letter's transitions,
    of the state's markings.  `start` is the state of the initial marking.
    A closure in which a row enables a pump (`_NetView.pumps`) is infinite,
    and is given up at that row.  The start and each step are made the
    first time a caller asks for them, under a ceiling on `size`: the
    caller gets None, and no state, when more would be needed.  `size`
    counts rows and automaton entries: one per row and per step, and per
    state the markings it holds.

    `transition_masks`, made on first use by the S-system route's A*, holds
    per marking and per transition the transitions that can follow through
    silent moves, from which `bound` makes the search's lower bound for one
    trace."""

    def __init__(self, sys: AcceptingSystem):
        super().__init__(sys.net)
        self.sys = sys
        self.ends = (self.number(sys.initial), self.number(sys.final))
        bits = self.view.bits
        final = {bits[p].bit_length() - 1 for p in sys.final.support()}
        self.must = frozenset([k for k, pre in self.view.forced if final.isdisjoint(pre)])
        self._state_numbers: dict[frozenset[int], int] = {}
        self.states: list[frozenset[int]] = []
        self.sizes: list[int] = []
        self.accepting: list[bool] = []
        self.steps: list[dict[str, int]] = []
        self.start: int | None = None
        self.results: dict[tuple, AlignResult] = {}
        self.results_size = 0

    def subset_step(self, k: int, letter: str, top: int) -> int | None:
        """The number of the state that state k leads to by `letter`, made on
        first use, or None when making it would bring `size` above `top`."""
        table = self.steps[k]
        j = table.get(letter)
        if j is None:
            rows, labels = self.rows, self.labels
            j = self._state({s for m in self.states[k] for t, s in rows[m]
                             if labels[t] == letter}, top - 1)   # room for the step
            if j is not None:
                table[letter] = j
                self.size += 1
        return j

    def _state(self, seen: set[int], top: int) -> int | None:
        """The number of the state of the silent closure of the markings in
        `seen`, a set that the walk over the rows extends, numbered when it
        has none, or None when that would bring `size` above `top`, as it
        does at once when a row in it enables a pump."""
        rows, labels, pumps = self.rows, self.labels, self.view.pumps
        stack = list(seen)
        while stack:
            m = stack.pop()
            row = rows.get(m)
            if row is None:
                # A marking with no row is in no state yet, so the state is
                # new and will hold every marking seen.
                if self.size + len(seen) >= top:
                    return None
                row = self.row(m)
            for t, s in row:
                if labels[t] is None and s not in seen:
                    if t in pumps:
                        return None
                    seen.add(s)
                    stack.append(s)
        markings = frozenset(seen)
        j = self._state_numbers.get(markings)
        if self.size + (len(markings) if j is None else 0) > top:
            return None
        if j is None:
            j = self._state_numbers[markings] = len(self.states)
            self.states.append(markings)
            self.sizes.append(len(markings))
            self.accepting.append(self.ends[1] in markings)
            self.steps.append({})
            self.size += len(markings)
        return j

    @cached_property
    def standard_moves(self) -> _MoveTable:
        return _MoveTable(self, None)

    @cached_property
    def transition_masks(self) -> tuple[list[int], dict[str, tuple[int, tuple]]]:
        """(amask, follow) of a system whose initial marking reaches finitely
        many markings, with transitions as int bits: bit 1 for "", and bit 2
        << t for visible transition t.  `amask`, per marking number, holds
        the visible transitions that its silent closure enables, and ""
        when that closure holds the final marking; `follow` maps each
        visible label to (every, pairs): every, the bits of the transitions
        that carry it, and pairs, (bit, fmask) per such transition, fmask
        the union of `amask` over the markings that it leads to (one at
        most, on a single-token S-net).  Both read the rows of every
        reachable marking, which this fills: `petri._closure` walks the
        reachable set and each silent closure.  A marking numbered but not
        reachable has no bit."""
        initial, final = self.ends
        labels, row = self.labels, self.row
        tbits = [0 if a is None else 2 << t for t, a in enumerate(labels)]
        reachable = _closure(initial, lambda m: [s for _, s in row(m)])
        amask = [0] * len(self.markings)
        for m in reachable:
            closure = _closure(m, lambda k: [s for t, s in row(k) if labels[t] is None])
            mask = 1 if final in closure else 0
            for k in closure:
                for t, _ in row(k):
                    mask |= tbits[t]
            amask[m] = mask
        fmask = [0] * len(labels)
        for m in reachable:
            for t, s in row(m):
                fmask[t] |= amask[s]
        follow: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {}
        for t, a in enumerate(labels):
            if a is not None:
                every, pairs = follow.get(a, (0, ()))
                follow[a] = (every | tbits[t], (*pairs, (tbits[t], fmask[t])))
        return amask, follow

    def bound(self, trace: tuple[str, ...], table: _MoveTable):
        """The lower bound `h` of `dijkstra_least_cost` for `trace` under
        `table`, the optimum of the relaxation on (position, transition)
        pairs defined there: (amask, near, lmask, unit), None when `unit` is
        0 or no such move exists.  `unit` is the least weight of a log move
        on a letter of the trace or of a visible model move.  Let W(k, t) be
        the relaxation's least cost after the sync of trace[k] on t, and
        M(k) the least over j >= k and t' of unit * (j - k) + W(j, t'), M(n)
        = 0 with the end pair "" alone.  Every cost is a multiple of unit,
        and a first kept pair costs 0 or unit more, so W(k, t) is M(k + 1)
        when fmask[t] holds a pair that attains M(k + 1) (t hits) and M(k +
        1) + unit otherwise.  So M(k) = M(k + 1), attained by the hits alone,
        when some t of trace[k] hits, and M(k + 1) + unit otherwise,
        attained by every pair of trace[k] and every one that attained M(k +
        1).  One backward pass keeps M(k) in `near[k]` and the pairs that
        attain it in `lmask[k]`; a state (pos, m) keeps first one of
        lmask[pos]'s pairs, at no extra cost when amask[m] holds it."""
        amask, follow = self.transition_masks
        unit = min([table.visible_min, *(table.log(a)[0] for a in set(trace))])
        if not 0 < unit < math.inf:
            return None
        near, lmask = [0], [1]
        w, l = 0, 1
        none = (0, ())
        for a in reversed(trace):
            every, pairs = follow.get(a, none)
            hits = 0
            for bit, f in pairs:
                if f & l:
                    hits |= bit
            if hits:
                l = hits
            else:
                l |= every
                w += unit
            near.append(w)
            lmask.append(l)
        near.reverse()
        lmask.reverse()
        return amask, near, lmask, unit


# The standard costs are integers: each result of one cost shares a Fraction.
_standard_cost = lru_cache(maxsize=256)(Fraction)

_memo = threading.local()   # `plan`: this thread's last plan


def _plan(sys: AcceptingSystem, state_budget: int) -> _Plan:
    """The plan of `sys`, remembered per thread for the thread's last system
    only: consecutive calls on one system in one thread share it, and no
    older system is kept alive.  Threads share no plan, so a call never
    evicts another thread's.  The plan holds its system, so a match by
    identity is never a reused id.

    One rule bounds what the plan keeps: each call asks for the plan with
    its state budget, and gets a new one when the plan holds more markings,
    or rows and automaton entries (`size`), or results of more path states,
    than that budget.  A search adds at most one row per state it settles
    and one result no larger (the S-system route's A*, under the caller's
    budget as every route, fills the rows of its at most |P| + 1 reachable
    markings in `transition_masks`, and its search adds none), and a
    membership call at most its budget in rows and automaton entries on the
    automaton, plus, when the automaton does not answer, one row per state
    that the search at cost ceiling 0 settles, at most its budget.  So after a call the plan
    holds at most three times the budget, or |P| + 1 more, in rows and
    automaton entries, and besides the markings it held, the markings that
    call reached and their successors; the results hold at most twice the
    budget."""
    plan = getattr(_memo, "plan", None)
    if plan is not None and plan.sys is sys:
        if (len(plan.markings) <= state_budget and plan.size <= state_budget
                and plan.results_size <= state_budget):
            return plan
    plan = _memo.plan = _Plan(sys)
    return plan


def align_by_search(trace: Sequence[str], sys: AcceptingSystem, c: CostFunction | None,
                    state_budget: int, algorithm: str) -> AlignResult:
    """Optimal alignment by least-cost search, reported under `algorithm`.

    The final state is unreachable exactly when the model is not easy-sound,
    which surfaces as NotEasySound.  Under the standard costs (`c` None) a
    trace already aligned on the system object under the same algorithm and
    budget gets the plan's stored result (see `_Plan`), with no search.
    Results are made as `Move`s are, without the dataclass constructor, and
    a standard-cost result's cost is the `Fraction` that `_standard_cost`
    shares per integer.
    """
    plan = _plan(sys, state_budget)
    trace = tuple(trace)
    if c is None:
        key = (trace, algorithm, state_budget)
        result = plan.results.get(key)
        if result is not None:
            return result
        table = plan.standard_moves
    else:
        table = _MoveTable(plan, c)
    bound = plan.bound(trace, table) if algorithm == "ssystem" else None
    try:
        cost, seq, settled = dijkstra_least_cost(plan, trace, table, state_budget, None, bound)
    except Unreachable as exc:
        raise NotEasySound("final marking unreachable; the model accepts no trace") from exc
    if c is None:
        result = AlignResult._trusted(seq, _standard_cost(cost), algorithm, settled)
        plan.results[key] = result
        plan.results_size += len(seq) + 1
        return result
    return AlignResult._trusted(seq, Fraction(cost, table.scale), algorithm, settled)


def optimal_alignment(trace: Sequence[str], sys: AcceptingSystem,
                      c: CostFunction | None = None,
                      state_budget: int = DEFAULT_STATE_BUDGET) -> AlignResult:
    """Globally optimal alignment via least-cost search on the synchronous product."""
    return align_by_search(trace, sys, c, state_budget, "generic")


def membership(trace: Sequence[str], sys: AcceptingSystem,
               state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Language membership: does a perfect (cost-0) alignment exist?

    Reads synchronous and silent model moves only, so easy-soundness of the
    model is not required for termination.  The word is walked on the plan's
    subset automaton (see `_Plan`), whose rows the alignment searches on the
    system in the thread share: one dict lookup per letter, in the current
    state's table, once the steps are made, and the verdict is whether the
    last state holds the final marking.  A step or the start, the silent
    closure of the initial marking, that no call has made yet is made from
    the rows, under a ceiling on the plan's size: its size when the call
    began plus `state_budget`, less the sizes of the states the walk has
    passed.

    The answer comes from the automaton only while the plan stays within
    that ceiling: while what the call added, plus the sizes of the states
    the walk passes, is at most `state_budget`.  Any other word goes to the
    alignment search under the standard costs at a cost ceiling of 0.  Sync
    and silent model moves alone cost 0, so that search settles only states
    (m, k) with m in the automaton's state after k letters: within the
    budget it can neither raise nor answer otherwise, and every verdict and
    every BudgetExceeded is that of the search on a fresh plan.  A perfect
    alignment syncs every letter, so a word with a letter that no transition
    carries is not in the language.
    """
    trace = tuple(trace)
    plan = _plan(sys, state_budget)
    top = plan.size + state_budget
    k = plan.start
    if k is None:
        k = plan.start = plan._state({plan.ends[0]}, top)
    if k is not None:
        steps, sizes = plan.steps, plan.sizes
        top -= sizes[k]
        for a in trace:
            try:
                k = steps[k][a]
            except KeyError:
                k = plan.subset_step(k, a, top)
                if k is None:
                    break
            top -= sizes[k]
        else:
            if plan.size <= top:
                return plan.accepting[k]
    if not set(trace) <= set(plan.labels):
        return False
    try:
        dijkstra_least_cost(plan, trace, plan.standard_moves, state_budget, ceiling=0)
    except Unreachable:
        return False
    return True


def lbfc_length_bound(t_count: int, b: int, trace_len: int) -> int:
    """Alignment-length cap for live b-bounded free-choice systems:
    (trace_len + 1) * (b * t * (t+1) * (t+2) / 6 + 1)."""
    if t_count < 0 or trace_len < 0:
        raise ValueError("counts must be non-negative")
    if b < 1:
        raise ValueError("bound must be >= 1")
    return (trace_len + 1) * (b * t_count * (t_count + 1) * (t_count + 2) // 6 + 1)


def lbfc_cap(sys: AcceptingSystem, trace_len: int,
             state_budget: int = DEFAULT_STATE_BUDGET) -> int | None:
    """The length cap for `trace_len` letters on a live (or sound workflow-shaped)
    bounded free-choice system, read off `structural_class` and
    `behavioral_class`; None otherwise or when the latter passes the budget.

    A transition that consumes nothing and produces a token gives None before
    any walk: if a reachable marking enables it, the net is unbounded, and if
    none does, it is dead, so the system is neither live nor sound."""
    if trace_len < 0:
        raise ValueError("trace_len must be non-negative")
    net = sys.net
    if any(net._produce[t] and not net._consume[t] for t in net.transitions):
        return None
    srep = structural_class(net, sys.initial, sys.final)
    if not srep.free_choice:
        return None
    try:
        rep = behavioral_class(sys, state_budget)
    except BudgetExceeded:
        return None
    bound = rep.bound_found
    if bound and (rep.live or srep.workflow_shape and rep.sound):
        return lbfc_length_bound(len(net.transitions), bound, trace_len)
    return None


def brute_force_oracle(trace: Sequence[str], sys: AcceptingSystem,
                       c: CostFunction | None = None,
                       cost_cap: Fraction | None = None,
                       length_cap: int | None = None,
                       state_cap: int = 500_000) -> Fraction:
    """Exhaustive least-cost over move sequences of length <= length_cap and
    cost <= cost_cap, by bounded-horizon value iteration over
    (trace position, marking) states.

    With no caps the iteration runs to its fixed point, which is the exact
    optimum.  CapExhausted means the optimum may exceed the caps; without a
    length cap, an unreachable final state raises NotEasySound, as
    `optimal_alignment` does.
    """
    if c is None:
        c = standard_costs(sys)
    trace = tuple(trace)
    net = sys.net
    by_letter: dict[str, list[str]] = {}
    for t in net.transitions:
        label = net.label(t)
        if not label.silent:
            by_letter.setdefault(label.name, []).append(t)

    start = (0, sys.initial)
    goal = (len(trace), sys.final)
    index = {start: 0}
    states = [start]
    raw_succ: list[list[tuple[int, Fraction]]] = []
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            pos, m = state
            outs: list[tuple[tuple[int, Marking], Fraction]] = []
            if pos < len(trace):
                letter = trace[pos]
                for t in _enabled_among(net, m, by_letter.get(letter, ())):
                    outs.append(((pos + 1, fire(net, m, t)), c.sync(letter, t)))
                outs.append(((pos + 1, m), c.log(letter)))
            for t in _enabled_among(net, m, net.transitions):
                outs.append(((pos, fire(net, m, t)), c.model(t)))
            row = []
            for succ_state, w in outs:
                j = index.get(succ_state)
                if j is None:
                    j = len(states)
                    index[succ_state] = j
                    states.append(succ_state)
                    if len(states) > state_cap:
                        raise BudgetExceeded(len(states), what="states")
                    nxt.append(succ_state)
                row.append((j, w))
            raw_succ.append(row)
        frontier = nxt

    scale = math.lcm(*(w.denominator for row in raw_succ for _, w in row))
    succ = [[(j, int(w * scale)) for j, w in row] for row in raw_succ]

    inf = float("inf")
    dp = [inf] * len(states)
    goal_idx = index.get(goal)
    if goal_idx is not None:
        dp[goal_idx] = 0
        steps = 0
        while length_cap is None or steps < length_cap:
            changed = False
            new = list(dp)
            for i, row in enumerate(succ):
                best = dp[i]
                for j, w in row:
                    cand = w + dp[j]
                    if cand < best:
                        best = cand
                if best < new[i]:
                    new[i] = best
                    changed = True
            dp = new
            steps += 1
            if not changed:
                break
    answer = dp[0]
    if answer == inf:
        if length_cap is None:
            raise NotEasySound("final marking unreachable; the model accepts no trace")
        raise CapExhausted("no alignment within the length cap")
    result = Fraction(int(answer), scale)
    if cost_cap is not None and result > cost_cap:
        raise CapExhausted(f"optimum {result} exceeds cost cap {cost_cap}")
    return result


def dispatch_align(trace: Sequence[str], sys: AcceptingSystem,
                   c: CostFunction | None = None,
                   budgets: Budgets | None = None) -> AlignResult:
    """Route to the cheapest applicable solver based on the classifiers.

    Single-token S-systems, whose every transition has one input place and
    at most one output place, take the S-system route, reported as
    "ssystem" (`optimal_alignment_ssystem` is this route behind its
    checks): A* with the bound of `_Plan.bound`, the optimum of a
    relaxation on the trace's (position, transition) pairs (see
    `dijkstra_least_cost`), off when a log or visible model move costs 0.
    Every other system, acyclic ones and unbounded S-nets included, goes to
    the generic search.  Both routes run under `budgets.states`, which bounds
    settled states, not bytes: at about 1.9 KB a state where markings keep
    growing, the default of 10^6 can need 2 GB before `BudgetExceeded`.
    The acyclic route, the same search behind an acyclicity check, is
    reached only by calling `optimal_alignment_acyclic`, and the LBFC cap, a
    reachability walk, by calling `lbfc_cap`.  Consecutive calls on one
    system share its plan (`_Plan`), whose view of the net (`petri._NetView`)
    the route reads, and search a trace they repeat under the standard costs
    once; each thread remembers its last system.
    """
    states = DEFAULT_STATE_BUDGET if budgets is None else budgets.states
    view = _plan(sys, states).view
    if view.s_net and not view.unguarded and sys.initial.total() == 1:
        return align_by_search(trace, sys, c, states, "ssystem")
    return optimal_alignment(trace, sys, c, states)
