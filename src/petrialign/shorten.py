"""Constructive sequence shortening for bounded free-choice systems.

shorten_biased rearranges a biased firing sequence into no-repeat blocks with
shrinking support and deletes marking-invariant block runs, meeting the
b*k*(k+1)/2 length bound.  shorten_lbfc first searches for a replayable
permutation ordered by a conflict order derived from the input, splits it into
maximal biased segments, and shortens each segment, meeting the cubic bound
b*|T|*(|T|+1)*(|T|+2)/6.  Every rearrangement is verified by replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (BoundAssumptionViolated, BudgetExceeded, NotBiased,
                     NotReplayable)
from .petri import (Marking, PetriNet, _schedule_counts, fire_sequence, parikh,
                    parikh_dominated)


@dataclass(frozen=True)
class Cluster:
    """Maximal set of transitions sharing exactly the same pre-set."""

    preset: tuple[str, ...]
    members: tuple[str, ...]


def compute_clusters(net: PetriNet) -> tuple[Cluster, ...]:
    """Partition of the transitions by pre-set equality, in declaration order."""
    groups: dict[frozenset, list[str]] = {}
    for t in net.transitions:
        groups.setdefault(frozenset(net.preset(t)), []).append(t)
    return tuple(Cluster(tuple(sorted(key)), tuple(members)) for key, members in groups.items())


@dataclass(frozen=True)
class ConflictOrder:
    """Per-cluster total order; transitions are comparable iff they share a cluster."""

    cluster_of: dict[str, int]
    rank: dict[str, int]

    def comparable(self, t1: str, t2: str) -> bool:
        return self.cluster_of[t1] == self.cluster_of[t2]

    def precedes(self, t1: str, t2: str) -> bool:
        """Strict order: same cluster and strictly smaller rank."""
        return self.comparable(t1, t2) and self.rank[t1] < self.rank[t2]


def conflict_order_from_sequence(net: PetriNet, seq: Sequence[str]) -> ConflictOrder:
    """A conflict order agreeing with seq: within each cluster, occurring
    members are ranked by last occurrence (last fired = maximal), non-occurring
    members sit below them in lexicographic order."""
    last: dict[str, int] = {}
    for i, t in enumerate(seq):
        last[t] = i
    cluster_of: dict[str, int] = {}
    rank: dict[str, int] = {}
    for ci, cluster in enumerate(compute_clusters(net)):
        absent = sorted(t for t in cluster.members if t not in last)
        present = sorted((t for t in cluster.members if t in last),
                         key=lambda t: last[t])
        for r, t in enumerate(absent + present):
            cluster_of[t] = ci
            rank[t] = r
    return ConflictOrder(cluster_of, rank)


def is_biased(net: PetriNet, seq: Sequence[str]) -> bool:
    """True iff all distinct occurring transitions have pairwise disjoint pre-sets."""
    presets = [frozenset(net.preset(t)) for t in set(seq)]
    return len(frozenset().union(*presets)) == sum(map(len, presets))


def _first_occurrence_blocks(seq: Sequence[str]) -> list[tuple[str, ...]]:
    """Decompose into blocks: each block is the first occurrences (in order) of
    the distinct transitions of the remainder.  Blocks have no repeats and
    non-increasing supports."""
    blocks = []
    rest = list(seq)
    while rest:
        taken = set()
        block = []
        remainder = []
        for t in rest:
            if t in taken:
                remainder.append(t)
            else:
                taken.add(t)
                block.append(t)
        blocks.append(tuple(block))
        rest = remainder
    return blocks


def shorten_biased(net: PetriNet, marking: Marking, seq: Sequence[str],
                   bound: int) -> tuple[str, ...]:
    """Shorten a biased firing sequence to length <= bound*k*(k+1)/2 where k is
    its support size, preserving the end marking and never firing a transition
    more often than the input did."""
    seq = tuple(seq)
    if not is_biased(net, seq):
        raise NotBiased("distinct transitions share pre-set places")
    try:
        goal = fire_sequence(net, marking, seq)
    except Exception as exc:
        raise NotReplayable(str(exc)) from exc
    if bound < 1:
        raise ValueError("bound must be >= 1")

    result: list[str] = []
    current = marking
    blocks = _first_occurrence_blocks(seq)
    while blocks:
        head_support = set(blocks[0])
        run = 1
        while run < len(blocks) and set(blocks[run]) == head_support:
            run += 1
        if run >= bound + 1:
            # With more than b equal-support no-repeat blocks, each block must
            # leave the marking unchanged in a b-bounded system; drop the run.
            probe = fire_sequence(net, current, blocks[0])
            if probe != current:
                raise BoundAssumptionViolated(
                    f"equal-support block changes the marking; "
                    f"system is not {bound}-bounded on this run")
            blocks = blocks[run:]
        else:
            for block in blocks[:run]:
                result.extend(block)
                current = fire_sequence(net, current, block)
            blocks = blocks[run:]

    if fire_sequence(net, marking, result) != goal:
        raise BoundAssumptionViolated("shortened sequence misses the end marking")
    k = len(set(seq))
    if len(result) > bound * k * (k + 1) // 2:
        raise BoundAssumptionViolated("length bound violated")
    if not parikh_dominated(parikh(result), parikh(seq)):
        raise BoundAssumptionViolated("Parikh domination violated")
    return tuple(result)


@dataclass(frozen=True)
class ShortenResult:
    sequence: tuple[str, ...]
    input_length: int
    output_length: int
    bound_value: int
    search_exhausted: bool = False


def _split_biased_segments(net: PetriNet, seq: Sequence[str]) -> list[tuple[str, ...]]:
    """Split into maximal prefixes that are biased."""
    segments: list[tuple[str, ...]] = []
    current: list[str] = []
    presets: list[frozenset] = []
    support: set[str] = set()
    for t in seq:
        pre = frozenset(net.preset(t))
        if t not in support and any(pre & other for other in presets):
            segments.append(tuple(current))
            current = []
            presets = []
            support = set()
        if t not in support:
            support.add(t)
            presets.append(pre)
        current.append(t)
    if current:
        segments.append(tuple(current))
    return segments


def shorten_lbfc(net: PetriNet, marking: Marking, seq: Sequence[str], bound: int,
                 search_budget: int = 200_000) -> ShortenResult:
    """Shorten a firing sequence of a live b-bounded free-choice system to at
    most bound*|T|*(|T|+1)*(|T|+2)/6 steps with the same end marking and a
    dominated Parikh vector.

    The caller asserts the class preconditions; the construction itself is
    replay-verified.  When the search for an ordered permutation enters more
    than search_budget states (see `petri._schedule_counts`), the original
    sequence is returned flagged; when no ordered permutation exists,
    BoundAssumptionViolated is raised."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    seq = tuple(seq)
    t_count = len(net.transitions)
    bound_value = bound * t_count * (t_count + 1) * (t_count + 2) // 6
    try:
        goal = fire_sequence(net, marking, seq)
    except Exception as exc:
        raise NotReplayable(str(exc)) from exc
    if not seq:
        return ShortenResult((), 0, 0, bound_value)

    # A replayable permutation of seq ordered by the conflict order: within a
    # cluster, a transition fires only once its predecessors have used up
    # their counts.
    order = conflict_order_from_sequence(net, seq)
    counts = parikh(seq)
    before = {t: [u for u in counts if order.precedes(u, t)] for t in counts}
    try:
        permuted = _schedule_counts(net, marking, counts, search_budget, before)
    except BudgetExceeded:
        return ShortenResult(seq, len(seq), len(seq), bound_value,
                             search_exhausted=True)
    if permuted is None:
        raise BoundAssumptionViolated("no replayable permutation follows the conflict "
                                      "order: the system is not live, bounded and free-choice")

    result: list[str] = []
    current = marking
    for segment in _split_biased_segments(net, permuted):
        shortened = shorten_biased(net, current, segment, bound)
        result.extend(shortened)
        current = fire_sequence(net, current, shortened)

    if current != goal:
        raise BoundAssumptionViolated("shortened sequence misses the end marking")
    if not parikh_dominated(parikh(result), parikh(seq)):
        raise BoundAssumptionViolated("Parikh domination violated")
    if len(result) > bound_value:
        raise BoundAssumptionViolated("length bound violated")
    return ShortenResult(tuple(result), len(seq), len(result), bound_value)
