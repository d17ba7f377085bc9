"""Built-in example systems used by the benchmark, demos, and docs."""

from __future__ import annotations

from .petri import AcceptingSystem, Label, Marking, PetriNet


def ex1_system() -> AcceptingSystem:
    """Two-activity sound free-choice net with language (aab|aba)+b.

    A fork into an a-branch and a b-branch that either restarts through a
    silent loop-back transition or completes with a final b.  The loop-back
    refills p_init, so the net is no workflow net (p_init is no source
    place), and the final marking enables nothing, so the system is not live.
    """
    net = PetriNet(
        places=("p_init", "p1", "p2", "p3", "p4", "p_final"),
        transitions=("t1", "t2", "t3", "t4", "t5"),
        flow=[
            ("p_init", "t1"), ("t1", "p1"), ("t1", "p2"),
            ("p1", "t2"), ("t2", "p3"),
            ("p2", "t3"), ("t3", "p4"),
            ("p3", "t4"), ("p4", "t4"), ("t4", "p_init"),
            ("p3", "t5"), ("p4", "t5"), ("t5", "p_final"),
        ],
        labels={
            "t1": Label("a"),
            "t2": Label("a"),
            "t3": Label("b"),
            "t4": Label(None),
            "t5": Label("b"),
        },
    )
    return AcceptingSystem(net, Marking.of("p_init"), Marking.of("p_final"))


def choice_ssystem() -> AcceptingSystem:
    """Single-token S-system in which two transitions carry the letter a.

    From p_init, a (t1) then c, or b then a (t4), leads to p3, which loops
    back to p_init silently or ends with d.
    """
    net = PetriNet(
        places=("p_init", "p1", "p2", "p3", "p_final"),
        transitions=("t1", "t2", "t3", "t4", "t5", "t6"),
        flow=[
            ("p_init", "t1"), ("t1", "p1"),
            ("p_init", "t2"), ("t2", "p2"),
            ("p1", "t3"), ("t3", "p3"),
            ("p2", "t4"), ("t4", "p3"),
            ("p3", "t5"), ("t5", "p_init"),
            ("p3", "t6"), ("t6", "p_final"),
        ],
        labels={
            "t1": Label("a"),
            "t2": Label("b"),
            "t3": Label("c"),
            "t4": Label("a"),
            "t5": Label(None),
            "t6": Label("d"),
        },
    )
    return AcceptingSystem(net, Marking.of("p_init"), Marking.of("p_final"))


def ex1_acyclic_system() -> AcceptingSystem:
    """The example net without its silent loop-back transition: acyclic."""
    base = ex1_system()
    net = base.net
    keep = tuple(t for t in net.transitions if t != "t4")
    flow = [(a, b) for (a, b) in net.flow if a != "t4" and b != "t4"]
    labels = {t: net.label(t) for t in keep}
    return AcceptingSystem(PetriNet(net.places, keep, flow, labels),
                           base.initial, base.final)
