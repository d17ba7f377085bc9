import random

import pytest

from petrialign import (AcceptingSystem, BehavioralReport, Label, Marking,
                        PetriNet, behavioral_class, bounded_and_safe,
                        build_reachability_graph, ex1_system, fire_sequence,
                        gen_shuffle_ssystem, gen_shuffle_tsystem, is_enabled,
                        structural_class, trace_system, tree_to_wfnet)
from petrialign.errors import BudgetExceeded
from randgen import (ahead_of, behavioral_reference, dying_token_system,
                     marked_cycle_tsystem, random_safe_system,
                     random_single_token_ssystem, random_tree)


def test_ex1_structural(ex1):
    rep = structural_class(ex1.net, ex1.initial, ex1.final)
    assert rep.free_choice
    assert rep.workflow_shape
    assert rep.source == "p_init" and rep.sink == "p_final"
    assert not rep.s_net
    assert not rep.t_net
    assert not rep.acyclic


def test_trace_system_structural():
    system = trace_system(("a", "b"))
    rep = structural_class(system.net, system.initial, system.final)
    assert rep.s_net and rep.t_net and rep.acyclic and rep.conflict_free
    assert rep.free_choice and rep.workflow_shape


def test_shuffle_tsystem_structural():
    system = gen_shuffle_tsystem([("a", "b"), ("c",)])
    rep = structural_class(system.net, system.initial, system.final)
    assert rep.t_net and rep.acyclic and rep.conflict_free
    assert not rep.s_net  # silent fork has two output places


def test_conflict_free_with_self_loops():
    net = PetriNet(("p", "q"), ("t1", "t2"),
                   [("p", "t1"), ("t1", "p"), ("p", "t2"), ("t2", "p"), ("t2", "q")],
                   {"t1": Label("a"), "t2": Label("b")})
    rep = structural_class(net, Marking.of("p"), Marking.of("q"))
    assert rep.conflict_free  # both output transitions loop back to p
    assert not rep.t_net


def test_ex1_bounded_safe(ex1):
    rep = bounded_and_safe(ex1)
    assert rep.bound_found == 1
    assert rep.safe
    assert rep.states_explored == 6
    place, marking, access = rep.certificates["bound"]
    assert fire_sequence(ex1.net, ex1.initial, access) == marking
    assert marking[place] == 1


def test_multi_token_line_bound():
    system = gen_shuffle_ssystem(tuple("PETRI"), 3)
    rep = bounded_and_safe(system)
    assert rep.bound_found == 3
    assert rep.safe is False


def test_unbounded_growth_witness():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], {"t": Label("a")})
    # Token-generating variant: t consumes p and produces p twice is not
    # expressible with unweighted arcs, so use a two-place pump instead.
    net = PetriNet(("p", "q"), ("t",), [("p", "t"), ("t", "p"), ("t", "q")],
                   {"t": Label("a")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    rep = bounded_and_safe(system, b_max=4, state_budget=100)
    assert rep.bound_found is None
    place, marking, access = rep.certificates["exceeded"]
    assert place == "q" and marking[place] == 5
    assert fire_sequence(net, system.initial, access) == marking


def test_ex1_behavioral(ex1):
    rep = behavioral_class(ex1)
    assert rep.sound and rep.easy_sound
    assert rep.safe and rep.bound_found == 1
    assert rep.quasi_live
    assert not rep.live          # the final marking is a deadlock
    assert not rep.cyclic
    assert rep.states_explored == 6


def test_ex1_alternate_final_marking(ex1):
    system = AcceptingSystem(ex1.net, ex1.initial, Marking({"p1": 1, "p4": 1}))
    rep = behavioral_class(system)
    assert rep.easy_sound
    assert not rep.sound
    assert "option_counterexample" in rep.certificates
    # proper completion still holds: nothing strictly covers {p1, p4}
    assert "proper_counterexample" not in rep.certificates


def test_trace_system_behavioral():
    system = trace_system(("a", "b"))
    rep = behavioral_class(system)
    assert rep.sound and rep.easy_sound and rep.safe
    assert not rep.live
    assert not rep.cyclic


def test_certificates_replay(ex1):
    rep = behavioral_class(ex1)
    for t, access in rep.certificates["quasi_live"].items():
        marking = fire_sequence(ex1.net, ex1.initial, access)
        assert is_enabled(ex1.net, marking, t)
    assert fire_sequence(ex1.net, ex1.initial, rep.certificates["easy_sound"]) \
        == ex1.final
    t, access = rep.certificates["live_counterexample"]
    fire_sequence(ex1.net, ex1.initial, access)   # must replay


def _improper():
    """t puts tokens on q and r, but the final marking is q alone."""
    net = PetriNet(("p", "q", "r"), ("t",), [("p", "t"), ("t", "q"), ("t", "r")],
                   {"t": Label("a")})
    return AcceptingSystem(net, Marking.of("p"), Marking.of("q"))


def test_proper_completion_counterexample():
    system = _improper()
    rep = behavioral_class(system)
    assert not rep.sound
    marking, access = rep.certificates["proper_counterexample"]
    assert marking >= system.final and marking != system.final
    assert fire_sequence(system.net, system.initial, access) == marking


def test_budget_exceeded_raises(ex1):
    for budget in (1, 2, 3):
        with pytest.raises(BudgetExceeded) as err:
            behavioral_class(ex1, state_budget=budget)
        assert err.value.discovered == budget + 1


def test_budget_monotone(ex1):
    """Enlarging the budget never flips a decided flag."""
    decided = {}
    for budget in (6, 50, 1000):
        rep = behavioral_class(ex1, state_budget=budget)
        for flag in ("safe", "quasi_live", "live", "cyclic", "easy_sound", "sound"):
            value = getattr(rep, flag)
            if flag in decided:
                assert decided[flag] == value
            else:
                decided[flag] = value


def test_cyclic_system():
    net = PetriNet(("p", "q"), ("t1", "t2"),
                   [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")],
                   {"t1": Label("a"), "t2": Label("b")})
    system = AcceptingSystem(net, Marking.of("p"), Marking.of("p"))
    rep = behavioral_class(system)
    assert rep.cyclic and rep.live and rep.sound


def test_bounded_and_safe_budget_raises(ex1):
    with pytest.raises(BudgetExceeded):
        bounded_and_safe(ex1, state_budget=2)


def _with_random_final(rng, system):
    reach = sorted(build_reachability_graph(system).vertices,
                   key=lambda m: tuple(m.items()))
    return AcceptingSystem(system.net, system.initial, reach[rng.randrange(len(reach))])


def _two_terminal_sccs():
    """One terminal scc fires every transition, the other is the deadlock
    {d, n}: a transition live in the first terminal scc only is not live."""
    flow = [("s", "ta"), ("ta", "a"), ("s", "td"), ("td", "d"),
            ("a", "tm"), ("n", "tm"), ("tm", "a"), ("tm", "r"),
            ("a", "tn"), ("r", "tn"), ("tn", "a"), ("tn", "n"),
            ("a", "tb"), ("r", "tb"), ("tb", "s"), ("tb", "r"),
            ("d", "te"), ("r", "te"), ("te", "s"), ("te", "r")]
    transitions = ("ta", "td", "tm", "tn", "tb", "te")
    net = PetriNet(("s", "a", "d", "r", "n"), transitions, flow,
                   {t: Label("x") for t in transitions})
    return AcceptingSystem(net, Marking.of("s", "n"), Marking.of("s", "r"))


def test_live_needs_every_terminal_scc():
    system = _two_terminal_sccs()
    rep = behavioral_class(system)
    assert rep.quasi_live and not rep.live and not rep.cyclic
    assert behavioral_reference(system) == (False, False, False)


def _classifier_suite(seed):
    """Safe systems and single-token S-systems (random reachable finals, drawn
    by the generators), tree workflow nets and marked cycles, each also with a
    random reachable final marking; at most 120 markings each."""
    rng = random.Random(seed)
    suite = [_two_terminal_sccs()]
    while len(suite) < 70:
        draw = random_safe_system(rng) if len(suite) % 2 else random_single_token_ssystem(rng)
        if draw is not None:
            suite.append(draw)
    for _ in range(40):
        system = tree_to_wfnet(random_tree(rng, depth=3))
        try:
            build_reachability_graph(system, state_budget=120)
        except BudgetExceeded:
            continue
        suite += [system, _with_random_final(rng, system)]
    for _ in range(20):
        system, _ = marked_cycle_tsystem(rng)
        suite += [system, _with_random_final(rng, system)]
    return suite


def test_terminal_scc_flags_match_their_definitions():
    seen = set()
    for system in _classifier_suite(31):
        rep = behavioral_class(system)
        live, cyclic, option = behavioral_reference(system)
        assert rep.live == live
        assert rep.cyclic == cyclic
        assert ("option_counterexample" not in rep.certificates) == option
        seen |= {("live", live), ("cyclic", cyclic), ("option", option)}
    # Both verdicts of every flag occur, so each side is checked.
    assert len(seen) == 6


def test_counterexamples_witness_their_failure():
    for system in _classifier_suite(32):
        net, certs = system.net, behavioral_class(system).certificates
        if "live_counterexample" in certs:
            t, access = certs["live_counterexample"]
            ahead = ahead_of(system, fire_sequence(net, system.initial, access))
            assert t not in {u for _, u, _ in ahead.arcs}
        if "cyclic_counterexample" in certs:
            ahead = ahead_of(system, fire_sequence(net, system.initial,
                                                   certs["cyclic_counterexample"]))
            assert system.initial not in ahead.vertices
        if "option_counterexample" in certs:
            ahead = ahead_of(system, fire_sequence(net, system.initial,
                                                   certs["option_counterexample"]))
            assert system.final not in ahead.vertices


def test_free_choice_matches_the_pairwise_definition():
    """Per place, all consumers share one preset, iff any two transitions
    have equal or disjoint presets."""
    rng = random.Random(33)
    for _ in range(300):
        places = tuple(f"p{i}" for i in range(rng.randint(1, 5)))
        transitions = tuple(f"t{i}" for i in range(rng.randint(1, 5)))
        flow = {(p, t) for t in transitions
                for p in rng.sample(places, rng.randint(0, len(places)))}
        net = PetriNet(places, transitions, flow, {t: Label("a") for t in transitions})
        presets = [set(net.preset(t)) for t in transitions]
        pairwise = all(a == b or not a & b for a in presets for b in presets)
        assert structural_class(net, Marking(), Marking()).free_choice == pairwise


def _random_tree_system(seed, random_final):
    rng = random.Random(seed)
    system = tree_to_wfnet(random_tree(rng, depth=2))
    return _with_random_final(rng, system) if random_final else system


# Whole reports, certificates included, as the classifier gave them when it
# still ran on build_reachability_graph's arc tuple with Marking-keyed dicts.
PINNED_REPORTS = {
    "ex1": (ex1_system, dict(
        bound_found=1, safe=True, quasi_live=True, live=False, cyclic=False,
        easy_sound=True, sound=True, states_explored=6,
        certificates={"bound": ("p_init", Marking.of("p_init"), ()),
                      "quasi_live": {"t1": (),
                                     "t2": ("t1",),
                                     "t3": ("t1",),
                                     "t4": ("t1", "t2", "t3"),
                                     "t5": ("t1", "t2", "t3")},
                      "live_counterexample": ("t1", ("t1", "t2", "t3", "t5")),
                      "cyclic_counterexample": ("t1", "t2", "t3", "t5"),
                      "easy_sound": ("t1", "t2", "t3", "t5")})),
    "dying_token": (dying_token_system, dict(
        bound_found=1, safe=True, quasi_live=True, live=False, cyclic=False,
        easy_sound=True, sound=False, states_explored=3,
        certificates={"bound": ("p0", Marking.of("p0"), ()),
                      "quasi_live": {"ta": (), "tdie": ("ta",)},
                      "live_counterexample": ("ta", ("ta", "tdie")),
                      "cyclic_counterexample": ("ta", "tdie"),
                      "easy_sound": ("ta", "tdie"),
                      "proper_counterexample": (Marking.of("p0"), ())})),
    "deadlock_beside_live_scc": (_two_terminal_sccs, dict(
        bound_found=1, safe=True, quasi_live=True, live=False, cyclic=False,
        easy_sound=True, sound=False, states_explored=6,
        certificates={"bound": ("n", Marking.of("n", "s"), ()),
                      "quasi_live": {"ta": (),
                                     "td": (),
                                     "tm": ("ta",),
                                     "tn": ("ta", "tm"),
                                     "tb": ("ta", "tm"),
                                     "te": ("ta", "tm", "tb", "td")},
                      "live_counterexample": ("ta", ("td",)),
                      "cyclic_counterexample": ("ta",),
                      "easy_sound": ("ta", "tm", "tb"),
                      "option_counterexample": ("td",)})),
    "improper": (_improper, dict(
        bound_found=1, safe=True, quasi_live=True, live=False, cyclic=False,
        easy_sound=False, sound=False, states_explored=2,
        certificates={"bound": ("p", Marking.of("p"), ()),
                      "quasi_live": {"t": ()},
                      "live_counterexample": ("t", ("t",)),
                      "cyclic_counterexample": ("t",),
                      "option_counterexample": (),
                      "proper_counterexample": (Marking.of("q", "r"), ("t",))})),
    # loop(b, par(a, b))
    "tree_0": (lambda: _random_tree_system(0, random_final=False), dict(
        bound_found=1, safe=True, quasi_live=True, live=False, cyclic=False,
        easy_sound=True, sound=True, states_explored=8,
        certificates={"bound": ("p0", Marking.of("p0"), ()),
                      "quasi_live": {"t2": (),
                                     "t3": ("t2", "t6"),
                                     "t6": ("t2",),
                                     "t7": ("t2", "t6"),
                                     "t8": ("t2", "t6", "t7", "t11", "t14"),
                                     "t11": ("t2", "t6", "t7"),
                                     "t14": ("t2", "t6", "t7")},
                      "live_counterexample": ("t2", ("t2", "t6", "t3")),
                      "cyclic_counterexample": ("t2", "t6", "t3"),
                      "easy_sound": ("t2", "t6", "t3")})),
    # par(a, loop(a, c)) with the final marking {p0}
    "tree_9": (lambda: _random_tree_system(9, random_final=True), dict(
        bound_found=1, safe=True, quasi_live=True, live=False, cyclic=False,
        easy_sound=True, sound=False, states_explored=10,
        certificates={"bound": ("p0", Marking.of("p0"), ()),
                      "quasi_live": {"t2": (),
                                     "t3": ("t2", "t6", "t9", "t13", "t10"),
                                     "t6": ("t2",),
                                     "t9": ("t2",),
                                     "t10": ("t2", "t9", "t13"),
                                     "t13": ("t2", "t9"),
                                     "t14": ("t2", "t9", "t13")},
                      "live_counterexample": ("t2", ("t2", "t6", "t9", "t13", "t10", "t3")),
                      "cyclic_counterexample": ("t2", "t6", "t9", "t13", "t10", "t3"),
                      "easy_sound": (),
                      "option_counterexample": ("t2", "t6", "t9", "t13", "t10", "t3")})),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_behavioral_report_is_pinned(name):
    make, fields = PINNED_REPORTS[name]
    rep = behavioral_class(make())
    assert rep == BehavioralReport(**fields)
    # Certificate keys come in a fixed order too.
    assert list(rep.certificates) == list(fields["certificates"])
