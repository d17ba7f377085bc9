"""Built-in example systems used by the benchmark, demos, and docs."""

from __future__ import annotations

from .petri import AcceptingSystem, Marking, _NetBuilder


def _ex1(loop_back: bool) -> AcceptingSystem:
    b = _NetBuilder()
    b.places += ["p_init", "p1", "p2", "p3", "p4", "p_final"]
    b.transition("t1", "a", ["p_init"], ["p1", "p2"])
    b.transition("t2", "a", ["p1"], ["p3"])
    b.transition("t3", "b", ["p2"], ["p4"])
    if loop_back:
        b.transition("t4", None, ["p3", "p4"], ["p_init"])
    b.transition("t5", "b", ["p3", "p4"], ["p_final"])
    return b.system(Marking.of("p_init"), Marking.of("p_final"))


def ex1_system() -> AcceptingSystem:
    """Two-activity sound free-choice net with language (aab|aba)+b.

    A fork into an a-branch and a b-branch that either restarts through a
    silent loop-back transition or completes with a final b.  The loop-back
    refills p_init, so the net is no workflow net (p_init is no source
    place), and the final marking enables nothing, so the system is not live.
    """
    return _ex1(loop_back=True)


def choice_ssystem() -> AcceptingSystem:
    """Single-token S-system in which two transitions carry the letter a.

    From p_init, a (t1) then c, or b then a (t4), leads to p3, which loops
    back to p_init silently or ends with d.
    """
    b = _NetBuilder()
    b.places += ["p_init", "p1", "p2", "p3", "p_final"]
    b.transition("t1", "a", ["p_init"], ["p1"])
    b.transition("t2", "b", ["p_init"], ["p2"])
    b.transition("t3", "c", ["p1"], ["p3"])
    b.transition("t4", "a", ["p2"], ["p3"])
    b.transition("t5", None, ["p3"], ["p_init"])
    b.transition("t6", "d", ["p3"], ["p_final"])
    return b.system(Marking.of("p_init"), Marking.of("p_final"))


def ex1_acyclic_system() -> AcceptingSystem:
    """The example net without its silent loop-back transition: acyclic."""
    return _ex1(loop_back=False)
