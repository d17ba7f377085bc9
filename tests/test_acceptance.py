"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact (no float tolerances anywhere).
"""

import itertools
import random
import time

import pytest

from petrialign import (ShuffleInstance, behavioral_class,
                        brute_force_oracle, build_reachability_graph,
                        fire_sequence, gen_shuffle_tsystem, gen_tm_wfnet,
                        lbfc_length_bound, membership, optimal_alignment,
                        optimal_alignment_acyclic, optimal_alignment_ssystem,
                        parikh, shorten_biased, shuffle_member,
                        standard_costs, structural_class, synchronous_product,
                        tm_accepts, tree_alphabet, tree_language_member,
                        tree_to_wfnet, validate_alignment)
from petrialign.fixtures import ex1_system
from petrialign.petri import Marking, parikh_dominated
from randgen import (LABEL_POOL, make_suite, marked_cycle_tsystem,
                     random_replayable_walk, random_tree)
from test_generators import immediate_accept, immediate_reject, scanner

SEED = 20260808


@pytest.fixture(scope="module")
def suite500():
    return make_suite(SEED, 500)


def test_criterion_01_running_example_fidelity():
    ex1 = ex1_system()
    started = time.perf_counter()
    assert membership(("a", "a", "b", "b"), ex1) is True
    assert membership(("a", "b", "a", "b"), ex1) is True
    assert membership(("a", "b", "a", "a"), ex1) is False
    assert optimal_alignment(("a", "b", "a", "a"), ex1).cost == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: running-example fidelity ({elapsed:.3f}s)")


def test_criterion_02_oracle_equivalence(suite500):
    started = time.perf_counter()
    for system, trace in suite500:
        generic = optimal_alignment(trace, system)
        oracle = brute_force_oracle(trace, system)
        assert generic.cost == oracle, (trace, generic.cost, oracle)
        assert validate_alignment(generic.alignment, trace, system,
                                  standard_costs(system)) == generic.cost
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"PASS criterion 2: generic = oracle on {len(suite500)} instances "
          f"({elapsed:.1f}s)")


def test_criterion_03_specialized_agreement(suite500):
    s_checked = a_checked = 0
    for system, trace in suite500:
        srep = structural_class(system.net, system.initial, system.final)
        generic_cost = optimal_alignment(trace, system).cost
        if srep.s_net and system.initial.total() == 1:
            assert optimal_alignment_ssystem(trace, system).cost == generic_cost
            s_checked += 1
        if srep.acyclic:
            assert optimal_alignment_acyclic(trace, system).cost == generic_cost
            a_checked += 1
    assert s_checked >= 50 and a_checked >= 50
    print(f"PASS criterion 3: specialized agreement "
          f"(ssystem on {s_checked}, acyclic on {a_checked})")


def _tree_sample(count, depth, seed_offset=0):
    rng = random.Random(SEED + seed_offset)
    trees = []
    while len(trees) < count:
        trees.append(random_tree(rng, depth=depth))
    return rng, trees


@pytest.mark.slow
def test_criterion_04_tree_translation():
    rng, trees = _tree_sample(100, depth=4, seed_offset=4)
    words_checked = 0
    for tree in trees:
        system = tree_to_wfnet(tree)
        srep = structural_class(system.net, system.initial, system.final)
        assert srep.free_choice and srep.workflow_shape
        brep = behavioral_class(system, state_budget=200_000)
        assert brep.safe and brep.sound
        alphabet = tree_alphabet(tree)
        for n in range(7):
            for word in itertools.product(alphabet, repeat=n):
                assert tree_language_member(tree, word) == \
                    membership(word, system), (str(tree), word)
                words_checked += 1
    print(f"PASS criterion 4: 100 tree translations, {words_checked} words checked")


def test_criterion_05_lbfc_length_bound():
    rng = random.Random(SEED + 5)
    checked = 0
    while checked < 50:
        tree = random_tree(rng, depth=3)
        system = tree_to_wfnet(tree)
        trace = tuple(rng.choice(LABEL_POOL)
                      for _ in range(rng.randint(0, 6)))
        cap = lbfc_length_bound(len(system.net.transitions), 1, len(trace))
        unrestricted = optimal_alignment(trace, system).cost
        capped = brute_force_oracle(trace, system, length_cap=cap)
        assert capped == unrestricted, (str(tree), trace, capped, unrestricted)
        checked += 1
    print(f"PASS criterion 5: length-capped oracle matches on {checked} "
          f"sound free-choice workflow nets")


def test_criterion_06_shortening_guarantees():
    rng = random.Random(SEED + 6)
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            system, bound = marked_cycle_tsystem(rng)
        else:
            words = [tuple(rng.choice(LABEL_POOL)
                           for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(1, 3))]
            system, bound = gen_shuffle_tsystem(words), 1
        walk = random_replayable_walk(rng, system)
        out = shorten_biased(system.net, system.initial, walk, bound)
        assert fire_sequence(system.net, system.initial, out) == \
            fire_sequence(system.net, system.initial, walk)
        assert parikh_dominated(parikh(out), parikh(walk))
        k = len(set(walk))
        assert len(out) <= bound * k * (k + 1) // 2
        checked += 1
    print(f"PASS criterion 6: shortening guarantees on {checked} T-system walks")


def test_criterion_07_tm_gadget_equivalence():
    cases = [
        (immediate_accept(), [(), ("a",)]),
        (immediate_reject(), [(), ("a",)]),
        (scanner(), [("a", "a"), ("a", "b"), (), ("b",)]),
    ]
    nets_checked = 0
    for tm, inputs in cases:
        for word in inputs:
            accepted = tm_accepts(tm, word)
            system, trace = gen_tm_wfnet(tm, word)
            cost = optimal_alignment(trace, system).cost
            assert (cost == 0) == accepted, (word, cost, accepted)
            srep = structural_class(system.net, system.initial, system.final)
            assert srep.workflow_shape
            brep = behavioral_class(system, state_budget=100_000)
            assert brep.safe and brep.sound
            nets_checked += 1
    print(f"PASS criterion 7: machine-net equivalence on {nets_checked} "
          f"(machine, input) pairs")


def test_criterion_08_shuffle_reduction():
    rng = random.Random(SEED + 8)
    instances = 0
    candidates_checked = 0
    while instances < 20:
        n = rng.randint(1, 3)
        alphabet = rng.sample(LABEL_POOL, rng.randint(2, 3))
        words = []
        total = 0
        for _ in range(n):
            length = rng.randint(1, min(5, 6 - total - (n - len(words) - 1)))
            words.append(tuple(rng.choice(alphabet) for _ in range(length)))
            total += length
            if len(words) < n and total >= 6:
                break
        if len(words) < n or total > 6:
            continue
        system = gen_shuffle_tsystem(words)
        for candidate in itertools.product(alphabet, repeat=total):
            expected = shuffle_member(ShuffleInstance(candidate, tuple(words)))
            got = membership(candidate, system)
            assert got == expected, (words, candidate)
            candidates_checked += 1
        instances += 1
    print(f"PASS criterion 8: shuffle reduction on {instances} instances, "
          f"{candidates_checked} candidate words")


def test_criterion_09_synchronous_product_laws():
    rng = random.Random(SEED + 9)
    suite = make_suite(SEED + 90, 60, include_special=True)
    pairs_checked = 0
    while pairs_checked < 50:
        s1, _ = suite[rng.randrange(len(suite))]
        if pairs_checked % 3 == 0:
            s2, _ = marked_cycle_tsystem(rng)
        else:
            s2, _ = suite[rng.randrange(len(suite))]
        r1 = build_reachability_graph(s1)
        r2 = build_reachability_graph(s2)
        product = synchronous_product(s1, s2)
        reach = build_reachability_graph(product).vertices
        expected = {Marking({"L:" + p: k for p, k in a.items()}) +
                    Marking({"R:" + p: k for p, k in b.items()})
                    for a in r1.vertices for b in r2.vertices}
        assert reach == expected
        b1 = max(m.max_count() for m in r1.vertices)
        b2 = max(m.max_count() for m in r2.vertices)
        bound = max(m.max_count() for m in reach)
        assert bound == max(b1, b2)
        pairs_checked += 1
    print(f"PASS criterion 9: product laws on {pairs_checked} system pairs")


def test_criterion_10_acyclic_realizability(suite500):
    checked = 0
    for system, trace in suite500:
        srep = structural_class(system.net, system.initial, system.final)
        if not srep.acyclic:
            continue
        result = optimal_alignment_acyclic(trace, system)
        # the alignment is the realized schedule: its model projection must
        # replay to the model final marking with the trace fully consumed,
        # which is exactly reaching the product final marking
        assert validate_alignment(result.alignment, trace, system,
                                  standard_costs(system)) == result.cost
        checked += 1
    assert checked >= 50
    print(f"PASS criterion 10: realizability on {checked} acyclic instances")
