import dataclasses
import itertools
from fractions import Fraction

import pytest

from petrialign import (AcceptingSystem, Label, Marking, PetriNet,
                        TuringMachine, behavioral_class,
                        build_reachability_graph, fire,
                        gen_shuffle_ssystem, gen_shuffle_tsystem, gen_tm_wfnet,
                        make_easy_sound_general, make_easy_sound_safe,
                        membership, optimal_alignment, run_machine,
                        structural_class, tm_accepts)
from petrialign.costs import CostFunction
from petrialign.errors import (CycleDetected, GadgetError, NonCanonicalHalt,
                               NotSafeMarkings, SpaceBoundViolated,
                               StepCapExceeded)


def overridden_costs(system, record):
    return CostFunction(labels=dict(system.net.labels),
                        model_overrides=dict(record.cost_overrides))


# ---------------------------------------------------------------- gadgets

def test_skip_gadget_bridges_dead_system():
    net = PetriNet(("p", "q"), ("t0",), [("p", "t0"), ("t0", "q")],
                   {"t0": Label("x")})
    system = AcceptingSystem(net, Marking.of("q"), Marking.of("p"))
    fixed, record = make_easy_sound_safe(system, Fraction(2))
    assert record.transitions == ("t_skip",)
    assert behavioral_class(fixed).easy_sound
    assert fire(fixed.net, fixed.initial, "t_skip") == fixed.final


def test_skip_gadget_takes_fresh_ids():
    """A net that already has a t_skip and a skip label gets t_skip_1 and
    skip_1."""
    net = PetriNet(("p", "q"), ("t_skip",), [("p", "t_skip"), ("t_skip", "q")],
                   {"t_skip": Label("skip")})
    fixed, record = make_easy_sound_safe(AcceptingSystem(net, Marking.of("p"), Marking.of("q")),
                                         Fraction(2))
    assert record.transitions == ("t_skip_1",)
    assert fixed.net.transitions == ("t_skip", "t_skip_1")
    assert fixed.net.label("t_skip_1") == Label("skip_1")


def test_skip_gadget_preserves_optima(ex1):
    k = Fraction(10)
    gadgeted, record = make_easy_sound_safe(ex1, k)
    costs = overridden_costs(gadgeted, record)
    for trace in (("a", "b", "a", "a"), (), ("a", "b", "a", "b")):
        before = optimal_alignment(trace, ex1)
        after = optimal_alignment(trace, gadgeted, costs)
        assert before.cost == after.cost


def test_skip_gadget_self_loop():
    net = PetriNet(("p",), ("t0",), [("p", "t0"), ("t0", "p")],
                   {"t0": Label("x")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    fixed, _ = make_easy_sound_safe(system, Fraction(1))
    assert set(fixed.net.preset("t_skip")) == set(fixed.net.postset("t_skip")) == {"p"}


def test_skip_gadget_rejects_multisets():
    net = PetriNet(("p",), ("t0",), [("p", "t0"), ("t0", "p")],
                   {"t0": Label("x")})
    system = AcceptingSystem(net, Marking({"p": 2}), Marking({"p": 2}))
    with pytest.raises(NotSafeMarkings):
        make_easy_sound_safe(system, Fraction(1))


def _replay_gadget(system, record):
    marking = system.initial
    for t in record.transitions:
        if t.startswith("gin"):
            marking = fire(system.net, marking, t)
    for t in record.transitions:
        if t.startswith("gout"):
            marking = fire(system.net, marking, t)
    return marking


def test_general_gadget_drain_and_fill():
    net = PetriNet(("p", "q"), ("t0",), [("p", "t0"), ("t0", "q")],
                   {"t0": Label("x")})
    system = AcceptingSystem(net, Marking({"p": 2}), Marking({"q": 1}))
    fixed, record = make_easy_sound_general(system, Fraction(3))
    assert len(record.places) == 3   # d = 2 buffers are d + 1
    assert _replay_gadget(fixed, record) == fixed.final
    assert set(record.cost_overrides.values()) == {Fraction(2)}


def test_general_gadget_identity_markings():
    net = PetriNet(("p", "q"), ("t0",), [("p", "t0"), ("t0", "q")],
                   {"t0": Label("x")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    fixed, record = make_easy_sound_general(system, Fraction(1))
    assert len(record.places) == 1
    assert _replay_gadget(fixed, record) == fixed.final == fixed.initial


def test_general_gadget_costs_exceed_threshold():
    net = PetriNet(("p", "q"), ("t0",), [("q", "t0"), ("t0", "q")],
                   {"t0": Label("x")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("q"))
    k = Fraction(5)
    fixed, record = make_easy_sound_general(system, k)
    costs = overridden_costs(fixed, record)
    result = optimal_alignment((), fixed, costs)
    assert result.cost > k    # both gadget transitions cost (k+1)/2


def test_general_gadget_rejects_empty_supports():
    net = PetriNet(("p",), ("t0",), [("p", "t0"), ("t0", "p")],
                   {"t0": Label("x")})
    with pytest.raises(GadgetError):
        make_easy_sound_general(AcceptingSystem(net, Marking(), Marking.of("p")),
                                Fraction(1))
    with pytest.raises(GadgetError):
        make_easy_sound_general(AcceptingSystem(net, Marking.of("p"), Marking()),
                                Fraction(1))


# ------------------------------------------------------- shuffle instances

def test_shuffle_tsystem_counts():
    system = gen_shuffle_tsystem([tuple("PETRI"), tuple("TURING"), tuple("GOEDEL")])
    silent = [t for t in system.net.transitions if system.net.label(t).silent]
    labeled = [t for t in system.net.transitions if not system.net.label(t).silent]
    assert len(silent) == 2
    assert len(labeled) == 17
    assert len(system.net.places) == 2 + 6 + 7 + 7


def test_shuffle_tsystem_single_word_language():
    system = gen_shuffle_tsystem([("a", "b")])
    assert membership(("a", "b"), system)
    for word in (("b", "a"), ("a",), ("a", "b", "a")):
        assert not membership(word, system)


def test_shuffle_tsystem_classes():
    system = gen_shuffle_tsystem([("a", "b"), ("c", "d")])
    srep = structural_class(system.net, system.initial, system.final)
    assert srep.t_net and srep.acyclic and srep.workflow_shape and srep.conflict_free
    brep = behavioral_class(system)
    assert brep.safe and brep.sound


def test_shuffle_ssystem_shape():
    system = gen_shuffle_ssystem(tuple("PETRI"), 3)
    assert len(system.net.places) == 6
    assert len(system.net.transitions) == 5
    assert system.initial == Marking({"p0": 3})
    srep = structural_class(system.net, system.initial, system.final)
    assert srep.s_net and srep.t_net


def test_shuffle_ssystem_single_token_is_trace_system():
    system = gen_shuffle_ssystem(("a", "b"), 1)
    assert membership(("a", "b"), system)
    assert not membership(("b", "a"), system)


def test_shuffle_ssystem_membership():
    """Brute-force enumeration of ab-shuffle-ab leaves exactly aabb and abab."""
    system = gen_shuffle_ssystem(("a", "b"), 2)
    members = set()
    for first in itertools.combinations(range(4), 2):
        word = [None] * 4
        second = [i for i in range(4) if i not in first]
        for i, letter in zip(first, "ab"):
            word[i] = letter
        for i, letter in zip(second, "ab"):
            word[i] = letter
        members.add(tuple(word))
    assert members == {("a", "a", "b", "b"), ("a", "b", "a", "b")}
    assert not membership(("a", "b", "b", "a"), system)
    for word in itertools.product("ab", repeat=4):
        assert membership(word, system) == (word in members)


# ------------------------------------------------------------- machines

def immediate_accept():
    return TuringMachine(
        states=("q0", "qacc", "qrej"), input_alphabet=("a",),
        tape_alphabet=("a", "_"), blank="_", initial="q0",
        accept="qacc", reject="qrej",
        rules={("q0", "_"): ("qacc", "_", 0), ("q0", "a"): ("qacc", "_", 0)},
        space_bound=1)


def immediate_reject():
    return TuringMachine(
        states=("q0", "qacc", "qrej"), input_alphabet=("a",),
        tape_alphabet=("a", "_"), blank="_", initial="q0",
        accept="qacc", reject="qrej",
        rules={("q0", "_"): ("qrej", "_", 0), ("q0", "a"): ("qrej", "_", 0)},
        space_bound=1)


def scanner(space=4):
    rules = {
        ("q0", "a"): ("qa", "X", 1), ("q0", "b"): ("qb", "X", 1),
        ("q0", "_"): ("qacc", "_", 0), ("q0", "X"): ("qrej", "_", 0),
        ("qa", "a"): ("qa", "_", 1), ("qa", "b"): ("qb", "_", 1),
        ("qa", "_"): ("ra", "_", -1), ("qa", "X"): ("ra", "X", -1),
        ("qb", "a"): ("qb", "_", 1), ("qb", "b"): ("qb", "_", 1),
        ("qb", "_"): ("rb", "_", -1), ("qb", "X"): ("rb", "X", -1),
        ("ra", "_"): ("ra", "_", -1), ("ra", "X"): ("qacc", "_", 0),
        ("ra", "a"): ("ra", "_", -1), ("ra", "b"): ("rb", "_", -1),
        ("rb", "_"): ("rb", "_", -1), ("rb", "X"): ("qrej", "_", 0),
        ("rb", "a"): ("rb", "_", -1), ("rb", "b"): ("rb", "_", -1),
    }
    return TuringMachine(
        states=("q0", "qa", "qb", "ra", "rb", "qacc", "qrej"),
        input_alphabet=("a", "b"), tape_alphabet=("a", "b", "X", "_"),
        blank="_", initial="q0", accept="qacc", reject="qrej",
        rules=rules, space_bound=space)


def test_interpreter_immediate_machines():
    assert tm_accepts(immediate_accept(), ())
    assert not tm_accepts(immediate_reject(), ())


def test_interpreter_scanner():
    tm = scanner()
    assert tm_accepts(tm, ("a", "a"))
    assert not tm_accepts(tm, ("a", "b"))
    assert tm_accepts(tm, ())
    assert not tm_accepts(tm, ("b",))


def test_interpreter_canonical_halt_flag():
    run = run_machine(scanner(), ("a", "a"))
    assert run.canonical_halt and run.accepted


def test_interpreter_space_violation():
    tm = TuringMachine(
        states=("q0", "qacc", "qrej"), input_alphabet=("a",),
        tape_alphabet=("a", "_"), blank="_", initial="q0",
        accept="qacc", reject="qrej",
        rules={("q0", "_"): ("q0", "_", 1), ("q0", "a"): ("q0", "a", 1)},
        space_bound=2)
    with pytest.raises(SpaceBoundViolated):
        run_machine(tm, ())


def test_interpreter_cycle_detection():
    tm = TuringMachine(
        states=("q0", "q1", "qacc", "qrej"), input_alphabet=("a",),
        tape_alphabet=("a", "_"), blank="_", initial="q0",
        accept="qacc", reject="qrej",
        rules={("q0", "_"): ("q1", "_", 0), ("q0", "a"): ("qrej", "_", 0),
               ("q1", "_"): ("q0", "_", 0), ("q1", "a"): ("qrej", "_", 0)},
        space_bound=1)
    with pytest.raises(CycleDetected):
        run_machine(tm, ())


def test_interpreter_step_cap():
    with pytest.raises(StepCapExceeded):
        run_machine(scanner(), ("a", "a"), step_cap=2)


def test_gen_refuses_non_canonical_halt():
    tm = TuringMachine(
        states=("q0", "qacc", "qrej"), input_alphabet=("a",),
        tape_alphabet=("a", "_"), blank="_", initial="q0",
        accept="qacc", reject="qrej",
        rules={("q0", "_"): ("qacc", "_", 0), ("q0", "a"): ("qacc", "a", 0)},
        space_bound=1)
    with pytest.raises(NonCanonicalHalt):
        gen_tm_wfnet(tm, ("a",))


def test_tm_net_alignment_equivalence():
    cases = [
        (immediate_accept(), (), True),
        (immediate_accept(), ("a",), True),
        (immediate_reject(), (), False),
        (scanner(), ("a", "a"), True),
        (scanner(), ("a", "b"), False),
    ]
    for tm, word, expected in cases:
        assert tm_accepts(tm, word) == expected
        system, trace = gen_tm_wfnet(tm, word)
        cost = optimal_alignment(trace, system).cost
        assert (cost == 0) == expected


def test_tm_net_rejecting_costs_one():
    system, trace = gen_tm_wfnet(immediate_reject(), ())
    assert optimal_alignment(trace, system).cost == 1


def test_tm_net_classes():
    system, _ = gen_tm_wfnet(scanner(), ("a",))
    srep = structural_class(system.net, system.initial, system.final)
    assert srep.workflow_shape
    brep = behavioral_class(system, state_budget=10**5)
    assert brep.safe and brep.sound


def test_tm_net_aux_isolation():
    """No marking reachable through t_start ever marks the auxiliary place."""
    system, _ = gen_tm_wfnet(immediate_accept(), ())
    after_start = fire(system.net, system.initial, "t_start")
    probe = AcceptingSystem(system.net, after_start, system.final)
    for marking in build_reachability_graph(probe).vertices:
        assert marking["p_aux"] == 0


@pytest.mark.parametrize("generate, args, message", [
    (gen_shuffle_tsystem, ([],), "need at least one non-empty word"),
    (gen_shuffle_tsystem, ([()],), "need at least one non-empty word"),
    (gen_shuffle_tsystem, ([("a", "-")],), "letter must match"),
    (gen_shuffle_ssystem, (("a",), 0), "need n >= 1 and a non-empty word"),
    (gen_shuffle_ssystem, ((), 1), "need n >= 1 and a non-empty word"),
], ids=["no_word", "empty_word", "bad_letter", "no_token", "ssystem_empty_word"])
def test_shuffle_generators_check_their_input(generate, args, message):
    with pytest.raises(ValueError, match=message):
        generate(*args)


@pytest.mark.parametrize("change", [
    {"blank": "a"},                                   # blank is an input letter
    {"input_alphabet": ("a", "b")},                   # b is no tape symbol
    {"initial": "q9"},                                # undeclared state
    {"space_bound": 0},
    {"rules": {**immediate_accept().rules, ("qacc", "_"): ("qacc", "_", 0)}},
    {"rules": {**immediate_accept().rules, ("q0", "_"): ("q9", "_", 0)}},
    {"rules": {**immediate_accept().rules, ("q0", "_"): ("qacc", "z", 0)}},
    {"rules": {**immediate_accept().rules, ("q0", "_"): ("qacc", "_", 2)}},
], ids=["blank", "input", "initial", "space", "halting_rule", "rule_state", "rule_symbol",
        "move"])
def test_machine_checks(change):
    with pytest.raises(ValueError):
        dataclasses.replace(immediate_accept(), **change)


def test_run_checks_its_input():
    with pytest.raises(ValueError):
        run_machine(immediate_accept(), ("b",))
    with pytest.raises(SpaceBoundViolated):
        run_machine(immediate_accept(), ("a", "a", "a"))


def test_machine_validation():
    with pytest.raises(ValueError):
        TuringMachine(states=("q0", "qacc", "qrej"), input_alphabet=("a",),
                      tape_alphabet=("a", "_"), blank="_", initial="q0",
                      accept="qacc", reject="qrej",
                      rules={("q0", "_"): ("qacc", "_", 0)},  # not total
                      space_bound=1)
    with pytest.raises(ValueError):
        TuringMachine(states=("q0", "qacc"), input_alphabet=("a",),
                      tape_alphabet=("a", "_"), blank="_", initial="q0",
                      accept="qacc", reject="qacc", rules={}, space_bound=1)


def test_general_gadget_balance_across_marking_shapes():
    """Replay all inputs then all outputs and check the per-place balance
    M0(p) - |p. in T_in| + |.p in T_out| = M(p) on several marking shapes."""
    net = PetriNet(("p", "q", "r"), ("t0",), [("p", "t0"), ("t0", "q")],
                   {"t0": Label("x")})
    cases = [
        ({"p": 2}, {"q": 1}),
        ({"p": 1}, {"p": 3}),
        ({"p": 3}, {"p": 1}),
        ({"p": 2, "q": 1}, {"q": 1}),
        ({"p": 1, "q": 2}, {"r": 3}),
        ({"p": 5}, {"q": 5}),
    ]
    for m0, mf in cases:
        system = AcceptingSystem(net, Marking(m0), Marking(mf))
        fixed, record = make_easy_sound_general(system, Fraction(7))
        assert _replay_gadget(fixed, record) == fixed.final
        d = max(abs(Marking(mf)[p] - Marking(m0)[p]) for p in ("p", "q", "r"))
        assert len(record.places) == d + 1
        for p in ("p", "q", "r"):
            into = sum(1 for t in record.transitions if t.startswith("gin")
                       and p in fixed.net.preset(t))
            out = sum(1 for t in record.transitions if t.startswith("gout")
                      and p in fixed.net.postset(t))
            assert Marking(m0)[p] - into + out == Marking(mf)[p]
        for b in record.places:
            assert len(fixed.net.preset(b)) == 1
            assert len(fixed.net.postset(b)) == 1
        for t in record.transitions:
            assert fixed.net.preset(t) and fixed.net.postset(t)
