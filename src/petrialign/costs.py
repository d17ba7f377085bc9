"""Legal moves, exact-rational cost functions, and alignment validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (IllegalMove, NotCompleteFiringSequence, NotEnabled,
                     ProjectionMismatch, UnknownTransition)
from .petri import AcceptingSystem, Label, fire

NO_MOVE_SYMBOL = "≫"
SILENT_SYMBOL = "τ"

# The standard costs, which a cost function charges for every move it does
# not override; a Fraction is immutable, so every lookup shares these.
SYNC_DEFAULT = Fraction(0)
LOG_DEFAULT = Fraction(1)
VISIBLE_MODEL_DEFAULT = Fraction(1)
SILENT_MODEL_DEFAULT = Fraction(0)


@dataclass(frozen=True)
class Move:
    """One alignment move: log activity and/or model transition, never neither."""

    log_part: str | None
    model_part: str | None

    def __post_init__(self):
        if self.log_part is None and self.model_part is None:
            raise ValueError("a move needs a log part or a model part")

    @classmethod
    def _trusted(cls, log_part: str | None, model_part: str | None) -> "Move":
        """The move of these parts, which the caller knows make a legal
        move, made without the check in about half the dataclass
        constructor's time, for the moves that the move tables share."""
        move = cls.__new__(cls)
        fields = move.__dict__
        fields["log_part"] = log_part
        fields["model_part"] = model_part
        return move

    @property
    def kind(self) -> str:
        if self.log_part is not None and self.model_part is not None:
            return "sync"
        return "log" if self.log_part is not None else "model"


Alignment = tuple[Move, ...]

Cost = Fraction


def parse_cost(text: str) -> Fraction:
    """Exact cost from integer, decimal, or p/q syntax."""
    text = text.strip()
    value = Fraction(text)
    if value < 0:
        raise ValueError(f"costs must be non-negative: {text!r}")
    return value


@dataclass(frozen=True)
class CostFunction:
    """Total cost assignment over the legal moves of one system.

    Unlisted moves fall back to the standard cost function: 0 for synchronous
    and silent model moves, 1 for log moves and visible model moves.
    Overrides are stored as the `Fraction`s they equal exactly; a negative
    or non-finite one raises ValueError.  A model or sync override of a
    transition not in `labels` raises UnknownTransition, and a sync override
    (a, t) where t is not labelled a raises ValueError.
    """

    labels: Mapping[str, Label]
    sync_overrides: Mapping[tuple[str, str], Fraction] = field(default_factory=dict)
    log_overrides: Mapping[str, Fraction] = field(default_factory=dict)
    model_overrides: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("sync_overrides", "log_overrides", "model_overrides"):
            table = getattr(self, name)
            # A float NaN fails both comparisons, a decimal NaN raises
            # InvalidOperation on one, and an infinity has no Fraction.
            try:
                finite = all(0 <= v < math.inf for v in table.values())
            except ArithmeticError:
                finite = False
            if not finite:
                raise ValueError("costs must be finite and non-negative")
            object.__setattr__(self, name, {k: Fraction(v) for k, v in table.items()})
        # Log keys stay free: a letter the model lacks is still a legal log move.
        for t in [*self.model_overrides, *(t for _, t in self.sync_overrides)]:
            if t not in self.labels:
                raise UnknownTransition(t)
        for a, t in self.sync_overrides:
            if self.labels[t].silent or self.labels[t].name != a:
                raise ValueError(f"({a!r}, {t!r}) is no synchronous move: "
                                 f"{t} is labelled {self.labels[t]}")

    def sync(self, label: str, transition: str) -> Fraction:
        return self.sync_overrides.get((label, transition), SYNC_DEFAULT)

    def log(self, label: str) -> Fraction:
        return self.log_overrides.get(label, LOG_DEFAULT)

    def model(self, transition: str) -> Fraction:
        override = self.model_overrides.get(transition)
        if override is not None:
            return override
        if self.labels[transition].silent:
            return SILENT_MODEL_DEFAULT
        return VISIBLE_MODEL_DEFAULT

    def move_cost(self, move: Move) -> Fraction:
        if move.kind == "sync":
            return self.sync(move.log_part, move.model_part)
        if move.kind == "log":
            return self.log(move.log_part)
        return self.model(move.model_part)


def standard_costs(sys: AcceptingSystem) -> CostFunction:
    """The standard cost function over the system's legal moves."""
    return CostFunction(labels=dict(sys.net.labels))


def validate_alignment(gamma: Sequence[Move], trace: Sequence[str],
                       sys: AcceptingSystem, c: CostFunction) -> Fraction:
    """Check both projection conditions by replay and return the total cost.

    Raises IllegalMove, ProjectionMismatch, or NotCompleteFiringSequence.
    """
    net = sys.net
    log_projection = []
    total = Fraction(0)
    for i, move in enumerate(gamma):
        if move.model_part is not None:
            if not net.has_transition(move.model_part):
                raise IllegalMove(i, f"unknown transition {move.model_part!r}")
            if move.log_part is not None:
                label = net.label(move.model_part)
                if label.silent or label.name != move.log_part:
                    raise IllegalMove(i, f"label of {move.model_part!r} is {label}, "
                                         f"not {move.log_part!r}")
        if move.log_part is not None:
            log_projection.append(move.log_part)
        total += c.move_cost(move)
    if tuple(log_projection) != tuple(trace):
        raise ProjectionMismatch(f"log projection {log_projection!r} != trace {list(trace)!r}")
    marking = sys.initial
    last = None
    for i, move in enumerate(gamma):
        if move.model_part is None:
            continue
        last = i
        try:
            marking = fire(net, marking, move.model_part)
        except (NotEnabled, UnknownTransition) as exc:
            raise NotCompleteFiringSequence(i, str(exc)) from exc
    if marking != sys.final:
        raise NotCompleteFiringSequence(
            last if last is not None else len(gamma),
            f"model projection ends at {marking!r}, final marking is {sys.final!r}")
    return total


def render_alignment(gamma: Sequence[Move], sys: AcceptingSystem) -> str:
    """Three-row block: log parts, model labels (tau for silent), transition ids."""
    rows = [[], [], []]
    for move in gamma:
        rows[0].append(move.log_part if move.log_part is not None else NO_MOVE_SYMBOL)
        if move.model_part is None:
            rows[1].append(NO_MOVE_SYMBOL)
            rows[2].append(NO_MOVE_SYMBOL)
        else:
            label = sys.net.label(move.model_part)
            rows[1].append(SILENT_SYMBOL if label.silent else label.name)
            rows[2].append(move.model_part)
    widths = [max((len(rows[r][i]) for r in range(3)), default=0)
              for i in range(len(gamma))]
    lines = []
    for row in rows:
        lines.append(" ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
