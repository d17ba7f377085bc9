"""Independent reference answers for the benchmark's correctness gate.

`align_cost` computes the optimal alignment cost under the standard cost
function by a 0-1 breadth-first search over (trace position, marking) pairs,
with markings held as place bitmasks.  It shares no code with any solver in
`petrialign`: it reads only the net's places, presets, postsets, labels and
markings, so it is a route other than the generic, S-system and acyclic ones
that `dispatch_align` may choose.  Every benchmark model is safe, which the
search checks as it goes.
"""

from __future__ import annotations

from collections import deque


class ReferenceCapped(Exception):
    """The reference search hit its state cap; only validity can be checked."""


def _mask(marking, bit) -> int:
    out = 0
    for place, count in marking.items():
        if count != 1:
            raise ValueError(f"reference needs a safe marking, {place!r} holds {count}")
        out |= bit[place]
    return out


def align_cost(trace, system, state_cap: int = 2_000_000) -> int:
    """Least standard cost over all alignments of trace with the system.

    Standard costs: synchronous and silent model moves cost 0, log moves and
    visible model moves cost 1.
    """
    net = system.net
    bit = {p: 1 << i for i, p in enumerate(net.places)}
    moves = []
    for t in net.transitions:
        pre = sum(bit[p] for p in net.preset(t))
        post = sum(bit[p] for p in net.postset(t))
        moves.append((pre, post, net.label(t).name))
    start = (0, _mask(system.initial, bit))
    goal = (len(trace), _mask(system.final, bit))
    dist = {start: 0}
    queue = deque([(0, start)])
    while queue:
        d, state = queue.popleft()
        if d > dist[state]:
            continue
        if state == goal:
            return d
        pos, m = state
        letter = trace[pos] if pos < len(trace) else None
        succ = [((pos + 1, m), 1)] if letter is not None else []
        for pre, post, label in moves:
            if m & pre != pre:
                continue
            rest = m & ~pre
            if rest & post:
                raise ValueError("reference needs a safe net")
            m2 = rest | post
            if label is None:
                succ.append(((pos, m2), 0))
            else:
                succ.append(((pos, m2), 1))
                if label == letter:
                    succ.append(((pos + 1, m2), 0))
        for nxt, w in succ:
            d2 = d + w
            if d2 < dist.get(nxt, d2 + 1):
                dist[nxt] = d2
                if w:
                    queue.append((d2, nxt))
                else:
                    queue.appendleft((d2, nxt))
        if len(dist) > state_cap:
            raise ReferenceCapped(len(dist))
    raise ValueError("final marking unreachable")
