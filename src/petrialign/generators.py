"""Hardness-instance generators: easy-soundness gadgets, shuffle nets, and the
deterministic-machine to safe sound workflow net encoding with its verifying
interpreter."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (CycleDetected, GadgetError, NonCanonicalHalt,
                     NotSafeMarkings, SpaceBoundViolated, StepCapExceeded)
from .petri import AcceptingSystem, Marking, _NetBuilder, is_token
from .products import trace_system


@dataclass(frozen=True)
class GadgetRecord:
    """Provenance of a gadget edit: fresh ids and their move-cost overrides."""

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    cost_overrides: Mapping[str, Fraction] = field(default_factory=dict)


def _fresh(base: str, used: set[str]) -> str:
    name = base
    i = 1
    while name in used:
        name = f"{base}_{i}"
        i += 1
    used.add(name)
    return name


def make_easy_sound_safe(sys: AcceptingSystem, k: Fraction) -> tuple[AcceptingSystem, GadgetRecord]:
    """Add a skip transition from supp(M_init) to supp(M_final), costed k+1.

    Requires set-valued markings (the safe case); firing the skip moves the
    initial marking to the final marking in one expensive step, so the system
    becomes easy-sound without disturbing optima below cost k+1."""
    if not (sys.initial.is_set() and sys.final.is_set()):
        raise NotSafeMarkings("skip gadget needs set-valued initial/final markings")
    net = sys.net
    b = _NetBuilder(net)
    skip = b.transition(_fresh("t_skip", set(net.places) | set(net.transitions)),
                        _fresh("skip", {lab.name for lab in net.labels.values()}),
                        sys.initial.support(), sys.final.support())
    record = GadgetRecord((), (skip,), {skip: Fraction(k) + 1})
    return b.system(sys.initial, sys.final), record


def make_easy_sound_general(sys: AcceptingSystem, k: Fraction) -> tuple[AcceptingSystem, GadgetRecord]:
    """Easy-soundness gadget for arbitrary (multi-token) markings.

    Adds d+1 buffer places (d the maximal per-place token difference), input
    transitions draining the surplus of the initial marking into the buffers,
    and output transitions refilling the deficit of the final marking, each
    costed (k+1)/2; firing all inputs then all outputs moves M_init to M_final
    and the per-place balance M0(p) - |p* in| + |*p out| = M(p) holds."""
    net = sys.net
    m0, mf = sys.initial, sys.final
    places = set(m0.support()) | set(mf.support())
    drain = {p: max(0, m0[p] - mf[p]) for p in places}
    refill = {p: max(0, mf[p] - m0[p]) for p in places}
    d = max((abs(mf[p] - m0[p]) for p in places), default=0)

    if not m0.support():
        raise GadgetError("input transitions need a marked place at the initial marking")
    if not mf.support():
        raise GadgetError("output transitions need a legal output place in the final marking")
    # Both sides need at least one transition; route one neutral token through
    # the gadget when a side would otherwise be empty.
    if not any(drain.values()):
        p = next(p for p in net.places if m0[p] > 0 and mf[p] > 0)
        drain[p] = 1
        refill[p] = refill.get(p, 0) + 1
    elif not any(refill.values()):
        p = next(p for p in net.places if mf[p] > 0)
        drain[p] = drain.get(p, 0) + 1
        refill[p] = 1

    used = set(net.places) | set(net.transitions)
    buffers = [_fresh(f"gbuf{i}", used) for i in range(d + 1)]
    n_in = max(drain.values())
    n_out = max(refill.values())
    label = _fresh("gadget", {lab.name for lab in net.labels.values()})
    b = _NetBuilder(net)
    b.places += buffers
    t_in = [b.transition(_fresh(f"gin{i}", used), label,
                         [p for p in net.places if drain.get(p, 0) > i], buffers[i::n_in])
            for i in range(n_in)]
    t_out = [b.transition(_fresh(f"gout{j}", used), label,
                          buffers[j::n_out], [p for p in net.places if refill.get(p, 0) > j])
             for j in range(n_out)]
    fresh = tuple(t_in + t_out)
    record = GadgetRecord(tuple(buffers), fresh, dict.fromkeys(fresh, (Fraction(k) + 1) / 2))
    return b.system(m0, mf), record


def gen_shuffle_tsystem(words: Sequence[Sequence[str]]) -> AcceptingSystem:
    """Workflow net accepting the shuffle of the given words: a silent fork
    into one trace-system branch per word, rejoined by a silent join.

    The result is a safe acyclic T-net (hence conflict-free and free-choice)."""
    words = [tuple(w) for w in words]
    if not words or any(not w for w in words):
        raise ValueError("need at least one non-empty word")
    for w in words:
        for a in w:
            if not is_token(a):
                raise ValueError(f"letter must match [A-Za-z0-9_]+: {a!r}")
    b = _NetBuilder()
    b.places.append("p_src")
    b.transition("t_start", None, ["p_src"], [f"b{i}_p0" for i in range(len(words))])
    for i, w in enumerate(words):
        line = [f"b{i}_p{j}" for j in range(len(w) + 1)]
        b.places += line
        for j, letter in enumerate(w, start=1):
            b.transition(f"b{i}_t{j}", letter, [line[j - 1]], [line[j]])
    b.places.append("p_snk")
    b.transition("t_end", None, [f"b{i}_p{len(w)}" for i, w in enumerate(words)], ["p_snk"])
    return b.system(Marking.of("p_src"), Marking.of("p_snk"))


def gen_shuffle_ssystem(word: Sequence[str], n: int) -> AcceptingSystem:
    """Single trace-system line for the word with n tokens on the first place;
    accepts the n-fold shuffle of the word with itself.  An S-net and T-net."""
    word = tuple(word)
    if n < 1 or not word:
        raise ValueError("need n >= 1 and a non-empty word")
    line = trace_system(word)
    initial = Marking({line.initial.support()[0]: n})
    final = Marking({line.final.support()[0]: n})
    return AcceptingSystem(line.net, initial, final)


@dataclass(frozen=True)
class TuringMachine:
    """Deterministic single-tape machine with an explicit tape window.

    The rule table must be total over (states minus accept/reject) x tape
    alphabet; moves are -1 (left), 0 (stay), +1 (right)."""

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    blank: str
    initial: str
    accept: str
    reject: str
    rules: Mapping[tuple[str, str], tuple[str, str, int]]
    space_bound: int

    def __post_init__(self):
        if self.accept == self.reject:
            raise ValueError("accept and reject states must differ")
        if self.blank not in self.tape_alphabet or self.blank in self.input_alphabet:
            raise ValueError("blank must be a tape symbol outside the input alphabet")
        if not set(self.input_alphabet) <= set(self.tape_alphabet):
            raise ValueError("input alphabet must be contained in the tape alphabet")
        for s in (self.initial, self.accept, self.reject):
            if s not in self.states:
                raise ValueError(f"undeclared state {s!r}")
        if self.space_bound < 1:
            raise ValueError("space bound must be >= 1")
        working = [q for q in self.states if q not in (self.accept, self.reject)]
        for q in working:
            for a in self.tape_alphabet:
                if (q, a) not in self.rules:
                    raise ValueError(f"rule table not total: missing ({q!r}, {a!r})")
        for (q, a), (q2, b, move) in self.rules.items():
            if q in (self.accept, self.reject):
                raise ValueError("halting states take no rules")
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"rule ({q!r},{a!r}) uses undeclared state")
            if a not in self.tape_alphabet or b not in self.tape_alphabet:
                raise ValueError(f"rule ({q!r},{a!r}) uses undeclared symbol")
            if move not in (-1, 0, 1):
                raise ValueError("move must be -1, 0, or +1")


@dataclass(frozen=True)
class MachineRun:
    accepted: bool
    steps: int
    canonical_halt: bool
    halting_state: str


def run_machine(tm: TuringMachine, word: Sequence[str], step_cap: int = 100_000) -> MachineRun:
    """Simulate the machine inside its tape window.

    Raises SpaceBoundViolated when the head leaves [0, space_bound],
    CycleDetected on a repeated configuration, StepCapExceeded when the run
    does not halt in time."""
    word = tuple(word)
    for a in word:
        if a not in tm.input_alphabet:
            raise ValueError(f"input letter {a!r} not in the input alphabet")
    if len(word) > tm.space_bound + 1:
        raise SpaceBoundViolated(f"input length {len(word)} exceeds the tape window")
    tape = list(word) + [tm.blank] * (tm.space_bound + 1 - len(word))
    state, head = tm.initial, 0
    seen = {(state, head, tuple(tape))}
    steps = 0
    while state not in (tm.accept, tm.reject):
        if steps >= step_cap:
            raise StepCapExceeded(f"no halt within {step_cap} steps")
        state, write, move = tm.rules[(state, tape[head])]
        tape[head] = write
        head += move
        if head < 0 or head > tm.space_bound:
            raise SpaceBoundViolated(f"head moved to cell {head}")
        steps += 1
        config = (state, head, tuple(tape))
        if config in seen:
            raise CycleDetected(f"configuration repeated after {steps} steps")
        seen.add(config)
    canonical = head == 0 and all(cell == tm.blank for cell in tape)
    return MachineRun(state == tm.accept, steps, canonical, state)


def tm_accepts(tm: TuringMachine, word: Sequence[str], step_cap: int = 100_000) -> bool:
    return run_machine(tm, word, step_cap).accepted


def gen_tm_wfnet(tm: TuringMachine, word: Sequence[str],
                 step_cap: int = 100_000) -> tuple[AcceptingSystem, tuple[str, ...]]:
    """Encode the run of the machine on the word as a safe sound workflow net.

    The net aligns the trace <acc> with cost 0 exactly when the machine
    accepts the word.  Generation refuses machines that violate their tape
    window, repeat a configuration, or halt non-canonically on this word."""
    word = tuple(word)
    run = run_machine(tm, word, step_cap)
    if not run.canonical_halt:
        raise NonCanonicalHalt(
            "machine must halt with a cleared tape and the head on cell 0")

    pn = tm.space_bound
    b = _NetBuilder()
    b.places += ["p_init", "p_final", "p_aux"]
    b.places += [f"st_{q}" for q in tm.states]
    b.places += [f"hd_{i}" for i in range(pn + 1)]
    b.places += [f"cell_{i}_{a}" for i in range(pn + 1) for a in tm.tape_alphabet]

    initial_cells = [f"cell_{i}_{word[i]}" for i in range(len(word))] + \
                    [f"cell_{i}_{tm.blank}" for i in range(len(word), pn + 1)]
    b.transition("t_start", None, ["p_init"], [f"st_{tm.initial}", "hd_0"] + initial_cells)

    halt_cells = [f"cell_{i}_{tm.blank}" for i in range(pn + 1)]
    b.transition("t_acc", "acc", [f"st_{tm.accept}", "hd_0"] + halt_cells, ["p_final"])
    b.transition("t_rej", "rej", [f"st_{tm.reject}", "hd_0"] + halt_cells, ["p_final"])
    b.transition("on_acc", "aux", ["p_init"], [f"st_{tm.accept}", "hd_0"] + halt_cells)
    b.transition("on_rej", "aux", ["p_init"], [f"st_{tm.reject}", "hd_0"] + halt_cells)

    for (q, a), (q2, write, move) in sorted(tm.rules.items()):
        for i in range(pn + 1):
            if not 0 <= i + move <= pn:
                continue
            pre = [f"st_{q}", f"hd_{i}", f"cell_{i}_{a}"]
            post = [f"st_{q2}", f"hd_{i + move}", f"cell_{i}_{write}"]
            b.transition(f"d_{q}_{a}_{i}", None, pre, post)
            b.transition(f"on_{q}_{a}_{i}", "aux", ["p_init"], ["p_aux"] + pre)
            b.transition(f"off_{q}_{a}_{i}", "aux", ["p_aux"] + post, ["p_final"])

    return b.system(Marking.of("p_init"), Marking.of("p_final")), ("acc",)
