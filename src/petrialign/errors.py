"""Exception hierarchy shared by all petrialign modules."""


class PetriAlignError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PetriAlignError):
    """Malformed textual input (net, trace, cost, tree, or machine file)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{where}")


class DuplicateId(ParseError):
    """The same place or transition id was declared twice."""


class ArityError(ParseError):
    """A process-tree operator was given the wrong number of children."""


class DisconnectedNet(PetriAlignError):
    """The underlying undirected graph of the net is not weakly connected."""


class UnknownTransition(PetriAlignError):
    """Transition id does not exist in the net."""


class NotEnabled(PetriAlignError):
    """Firing was attempted for a transition with an unmarked input place."""

    def __init__(self, transition, place, step=None):
        self.transition = transition
        self.place = place
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"transition {transition!r} not enabled{at}: place {place!r} is empty")


class BudgetExceeded(PetriAlignError):
    """State exploration hit its budget before finishing."""

    def __init__(self, discovered, what="markings"):
        self.discovered = discovered
        super().__init__(f"budget exceeded after discovering {discovered} {what}")


class Unreachable(PetriAlignError):
    """Target marking is not reachable from the start marking."""


class NotEasySound(PetriAlignError):
    """The final marking is not reachable; no alignment exists."""


class NotSSystem(PetriAlignError):
    """Solver requires every transition to have exactly one input place and at
    most one output place."""


class NotSingleToken(PetriAlignError):
    """Solver requires an initial marking with exactly one token."""


class NotAcyclic(PetriAlignError):
    """Solver requires an acyclic net."""


class StuckContradiction(PetriAlignError):
    """Parikh realization got stuck; input was not acyclic or not a valid solution."""


class IllegalMove(PetriAlignError):
    def __init__(self, index, reason):
        self.index = index
        super().__init__(f"illegal move at index {index}: {reason}")


class ProjectionMismatch(PetriAlignError):
    """Log projection of the alignment does not equal the trace."""


class NotCompleteFiringSequence(PetriAlignError):
    """Model projection of the alignment does not replay from initial to final marking."""

    def __init__(self, index, reason):
        self.index = index
        super().__init__(f"model projection fails at move index {index}: {reason}")


class NotBiased(PetriAlignError):
    """Sequence contains distinct transitions with overlapping pre-sets."""


class NotReplayable(PetriAlignError):
    """Sequence does not replay from the given marking."""


class BoundAssumptionViolated(PetriAlignError):
    """Replay evidence contradicts the claimed place bound b."""


class NotSafeMarkings(PetriAlignError):
    """Gadget requires set-valued (at most one token per place) markings."""


class GadgetError(PetriAlignError):
    """The easy-soundness gadget cannot be built for these markings."""


class SpaceBoundViolated(PetriAlignError):
    """The machine head left the declared tape window."""


class StepCapExceeded(PetriAlignError):
    """The machine did not halt within the step cap."""


class CycleDetected(PetriAlignError):
    """The machine repeated a configuration."""


class NonCanonicalHalt(PetriAlignError):
    """The machine halted without clearing the tape and returning the head to cell 0."""


class CapExhausted(PetriAlignError):
    """Oracle caps were too small; the optimum may exceed them."""
