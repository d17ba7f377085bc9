"""Line-directive text formats: nets, traces, cost tables, and machine files.

Net files hold `place` and `trans` directives plus `#` comments; serialization
emits the canonical form, and parse(serialize(sys)) is the identity on it.
"""

from __future__ import annotations

from fractions import Fraction

from .costs import CostFunction, parse_cost
from .errors import DisconnectedNet, DuplicateId, ParseError
from .generators import TuringMachine
from .petri import AcceptingSystem, Marking, _NetBuilder, is_token


def _split_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _is_count(text: str) -> bool:
    """Whether `text` is a count in ASCII digits; `str.isdigit` also takes
    other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


def parse_net(text: str) -> AcceptingSystem:
    """Parse a net file into an accepting system; validates weak connectivity."""
    b = _NetBuilder()
    init: dict[str, int] = {}
    final: dict[str, int] = {}
    kinds: dict[str, str] = {}   # directive per declared id

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw)
        if not line:
            continue
        fields = line.split()
        directive = fields[0]
        if directive not in ("place", "trans"):
            raise ParseError(f"unknown directive {directive!r}", line=lineno)
        if len(fields) < 2:
            raise ParseError(f"{directive} needs an id", line=lineno)
        vid = fields[1]
        if not is_token(vid):
            kind = "place" if directive == "place" else "transition"
            raise ParseError(f"bad {kind} id {vid!r}", line=lineno)
        if vid in kinds:
            raise DuplicateId(f"id {vid!r} declared twice", line=lineno)
        kinds[vid] = directive
        if directive == "place":
            b.places.append(vid)
            for option in fields[2:]:
                key, _, value = option.partition("=")
                marks = init if key == "init" else final
                if key not in ("init", "final") or not _is_count(value) or vid in marks:
                    raise ParseError(f"bad place option {option!r}", line=lineno)
                marks[vid] = int(value)
        else:
            options = {"label": None, "in": None, "out": None}
            for option in fields[2:]:
                key, eq, value = option.partition("=")
                if key not in options or not eq or options[key] is not None:
                    raise ParseError(f"bad transition option {option!r}", line=lineno)
                options[key] = value
            if None in options.values():
                raise ParseError("trans needs label=, in=, out=", line=lineno)
            name = options["label"]
            if name != "~" and not is_token(name):
                raise ParseError(f"bad label {name!r}", line=lineno)
            arcs = []
            for key in ("in", "out"):
                value = options[key]
                ids = value.split(",") if value else []
                # The net model is unweighted: each place is listed once.
                if "" in ids or len(set(ids)) < len(ids):
                    raise ParseError(f"empty or repeated place id in {key}={value}",
                                     line=lineno)
                for pid in ids:
                    if kinds.get(pid) != "place":
                        raise ParseError(f"undeclared place {pid!r} in {key}=", line=lineno)
                arcs.append(ids)
            b.transition(vid, None if name == "~" else name, *arcs)

    if not b.places:
        raise ParseError("net file declares no places")
    system = b.system(Marking(init), Marking(final))
    if not system.net.is_weakly_connected():
        raise DisconnectedNet("underlying graph must be weakly connected")
    return system


def serialize_net(sys: AcceptingSystem) -> str:
    """Canonical net file: places in order with markings, then transitions."""
    net = sys.net
    lines = []
    for p in net.places:
        parts = [f"place {p}"]
        if sys.initial[p]:
            parts.append(f"init={sys.initial[p]}")
        if sys.final[p]:
            parts.append(f"final={sys.final[p]}")
        lines.append(" ".join(parts))
    for t in net.transitions:
        label = net.label(t)
        name = "~" if label.silent else label.name
        ins = ",".join(net.preset(t))
        outs = ",".join(net.postset(t))
        lines.append(f"trans {t} label={name} in={ins} out={outs}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[str, ...]:
    """Comma-separated activity labels; empty text is the empty trace."""
    if not text.strip():
        return ()
    letters = []
    for part in text.split(","):
        letter = part.strip()
        if not is_token(letter):
            raise ParseError(f"bad activity {part!r}")
        letters.append(letter)
    return tuple(letters)


def parse_cost_file(text: str, sys: AcceptingSystem) -> CostFunction:
    """Cost overrides: `sync <label> <t> <cost>`, `log <label> <cost>`,
    `model <t> <cost>`; unlisted moves keep standard costs.  A line naming a
    transition not in the net, or not carrying the sync line's label, or
    repeating an earlier line's move, is a ParseError."""
    net = sys.net
    sync: dict[tuple[str, str], Fraction] = {}
    log: dict[str, Fraction] = {}
    model: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw)
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "sync" and len(fields) == 4 and tuple(fields[1:3]) not in sync:
                _, label, t, cost = fields
                if not net.has_transition(t) or net.label(t).name != label:
                    raise ParseError(f"no transition {t!r} labelled {label!r}", line=lineno)
                sync[(label, t)] = parse_cost(cost)
            elif fields[0] == "log" and len(fields) == 3 and fields[1] not in log:
                log[fields[1]] = parse_cost(fields[2])
            elif fields[0] == "model" and len(fields) == 3 and fields[1] not in model:
                if not net.has_transition(fields[1]):
                    raise ParseError(f"unknown transition {fields[1]!r}", line=lineno)
                model[fields[1]] = parse_cost(fields[2])
            else:
                raise ParseError(f"bad cost line {line!r}", line=lineno)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return CostFunction(labels=dict(net.labels), sync_overrides=sync,
                        log_overrides=log, model_overrides=model)


def parse_tm(text: str) -> TuringMachine:
    """Machine file directives:
    `states <initial> <accept> <reject>`, `blank <symbol>`,
    `tape <symbols...>`, `space <int>`, `delta <q> <a> -> <q'> <b> <L|R|S>`."""
    initial = accept = reject = blank = None
    tape: list[str] = []
    space = None
    rules: dict[tuple[str, str], tuple[str, str, int]] = {}
    states: list[str] = []

    def remember(state):
        if state not in states:
            states.append(state)

    moves = {"L": -1, "R": 1, "S": 0}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw)
        if not line:
            continue
        fields = line.split()
        if fields[0] == "states" and len(fields) == 4 and initial is None:
            initial, accept, reject = fields[1:]
            for s in fields[1:]:
                remember(s)
        elif fields[0] == "blank" and len(fields) == 2 and blank is None:
            blank = fields[1]
        elif fields[0] == "tape" and len(fields) >= 2 and not tape:
            tape = fields[1:]
        elif (fields[0] == "space" and len(fields) == 2 and _is_count(fields[1])
              and space is None):
            space = int(fields[1])
        elif fields[0] == "delta" and len(fields) == 7 and fields[3] == "->" \
                and fields[6] in moves:
            q, a = fields[1], fields[2]
            q2, b = fields[4], fields[5]
            if (q, a) in rules:
                raise ParseError(f"duplicate rule for ({q}, {a})", line=lineno)
            remember(q)
            remember(q2)
            rules[(q, a)] = (q2, b, moves[fields[6]])
        else:
            raise ParseError(f"bad machine line {line!r}", line=lineno)
    if None in (initial, accept, reject, blank, space) or not tape:
        raise ParseError("machine file needs states, blank, tape, and space directives")
    try:
        return TuringMachine(
            states=tuple(states),
            input_alphabet=tuple(a for a in tape if a != blank),
            tape_alphabet=tuple(tape),
            blank=blank,
            initial=initial,
            accept=accept,
            reject=reject,
            rules=rules,
            space_bound=space,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
