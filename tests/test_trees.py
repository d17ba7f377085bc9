import itertools
import random
import re
import sys
import threading

import pytest

from petrialign import trees
from petrialign import (ProcessTree, ShuffleInstance, behavioral_class, has_unique_labels,
                        membership, parse_tree, shuffle_member,
                        structural_class, tree_alphabet, tree_language_member,
                        tree_to_wfnet)
from petrialign.errors import ArityError, BudgetExceeded, ParseError
from petrialign.trees import activity, loop, par, seq, silent, xor
from randgen import random_tree


def all_words(alphabet, up_to):
    for n in range(up_to + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_parse_nested():
    tree = parse_tree("seq(a, par(b, c))")
    assert tree.kind == "seq"
    assert tree.children[0].label == "a"
    assert tree.children[1].kind == "par"


def test_parse_whitespace_insensitive():
    assert parse_tree(" seq ( a ,\n par( b , c ) ) ") == parse_tree("seq(a,par(b,c))")


def test_parse_loop():
    tree = parse_tree("loop(a, b)")
    assert tree.kind == "loop"
    assert len(tree.children) == 2


def test_parse_loop_arity_error():
    with pytest.raises(ArityError):
        parse_tree("loop(a, b, c)")


@pytest.mark.parametrize("kind, label, children", [
    ("activity", None, ()), ("activity", "a b", ()), ("loop", None, (silent(),)),
    ("seq", None, ()), ("xor", None, ()), ("par", None, ()), ("star", None, ())])
def test_tree_nodes_are_checked(kind, label, children):
    with pytest.raises(ValueError):
        ProcessTree(kind, label, children)


def test_a_shuffle_instance_needs_a_component():
    with pytest.raises(ValueError, match="at least one component word"):
        ShuffleInstance(("a",), ())


def test_a_tree_prints_as_its_text():
    tree = seq(activity("a"), par(activity("b"), silent()), xor(activity("c"), silent()),
               loop(activity("d"), activity("e")))
    assert str(tree) == "seq(a, par(b, tau), xor(c, tau), loop(d, e))"
    rng = random.Random(7)
    for _ in range(50):
        tree = random_tree(rng, 4)
        assert parse_tree(str(tree)) == tree


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_tree("seq(a,")
    assert err.value.line == 1


@pytest.mark.parametrize("text, message, column", [
    ("seq(a b)", "expected ')'", 7),
    ("seq(a) x", "trailing input after tree", 8),
])
def test_parse_errors_name_their_place(text, message, column):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_tree(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_language_seq_par():
    tree = parse_tree("seq(a, par(b, c))")
    assert tree_language_member(tree, ("a", "b", "c"))
    assert tree_language_member(tree, ("a", "c", "b"))
    assert not tree_language_member(tree, ("b", "c", "a"))


def test_language_loop():
    tree = parse_tree("loop(a, b)")
    assert tree_language_member(tree, ("a",))
    assert tree_language_member(tree, ("a", "b", "a"))
    assert not tree_language_member(tree, ("a", "b"))
    assert not tree_language_member(tree, ())


def test_language_xor_tau():
    tree = parse_tree("xor(tau, a)")
    assert tree_language_member(tree, ())
    assert tree_language_member(tree, ("a",))
    assert not tree_language_member(tree, ("a", "a"))


def test_wfnet_shapes():
    system = tree_to_wfnet(parse_tree("par(a, b)"))
    assert len(system.net.places) == 6
    assert len(system.net.transitions) == 4
    single = tree_to_wfnet(parse_tree("a"))
    assert len(single.net.places) == 2
    assert len(single.net.transitions) == 1


def test_wfnet_loop_language_matches_tree():
    tree = parse_tree("loop(a, b)")
    system = tree_to_wfnet(tree)
    for word in all_words(("a", "b"), 7):
        assert membership(word, system) == tree_language_member(tree, word)


def test_wfnet_class_guarantees():
    rng = random.Random(31)
    for _ in range(20):
        tree = random_tree(rng, depth=3)
        system = tree_to_wfnet(tree)
        srep = structural_class(system.net, system.initial, system.final)
        assert srep.free_choice and srep.workflow_shape
        brep = behavioral_class(system, state_budget=20_000)
        assert brep.safe and brep.sound


def test_translation_language_equivalence_sample():
    rng = random.Random(13)
    for _ in range(10):
        tree = random_tree(rng, depth=3)
        system = tree_to_wfnet(tree)
        alphabet = tree_alphabet(tree) or ("a",)
        for word in all_words(alphabet, 4):
            assert tree_language_member(tree, word) == membership(word, system)


def test_a_long_seq_is_matched_without_deep_recursion():
    """seq carries its reachable word offsets child by child, so 1,200
    children recurse no deeper than one."""
    tree = seq(*[activity("a")] * 1200)
    system = tree_to_wfnet(tree)
    word = ("a",) * 1200
    assert tree_language_member(tree, word) and membership(word, system)
    assert not tree_language_member(tree, word[1:])
    assert not tree_language_member(tree, word + ("a",))
    letters = tuple(f"a{i}" for i in range(1200))
    tree = seq(*map(activity, letters))
    assert tree_language_member(tree, letters)
    assert not tree_language_member(tree, letters[:600] + letters[601:] + letters[600:601])


def test_a_wide_par_is_matched_without_deep_recursion():
    """par splits a word among its children on an explicit stack, so 1,200
    children recurse no deeper than one."""
    letters = tuple(f"a{i}" for i in range(1200))
    tree = par(*map(activity, letters))
    assert tree_language_member(tree, letters)
    assert tree_language_member(tree, letters[::-1])
    assert not tree_language_member(tree, letters[:600] + letters[601:])


TAU, A = silent(), activity("a")
WIDE = tuple(f"a{i}" for i in range(1200))


@pytest.mark.parametrize("tree, accepted, rejected", [
    (loop(TAU, TAU), [()], [("a",), ("a", "a")]),
    (loop(TAU, A), [(), ("a",), ("a", "a")], [("b",)]),
    (loop(A, TAU), [("a",), ("a", "a")], [(), ("b",)]),
    (seq(*[TAU] * 1200, A), [("a",)], [(), ("a", "a")]),
    (seq(*[xor(TAU, activity("b"))] * 1200, A), [("a",), ("b", "a")],
     [(), ("a", "a"), ("a", "b")]),
    (xor(*map(activity, WIDE)), [("a7",)], [(), ("a1", "a2"), ("a",)]),
    (par(*[TAU] * 1200), [()], [("a",)]),
], ids=["loop(tau,tau)", "loop(tau,a)", "loop(a,tau)", "seq-of-tau", "seq-of-xor(tau,b)",
        "wide-xor", "par-of-tau"])
def test_nullable_chains_and_star_bodies(tree, accepted, rejected):
    """Silent loop bodies, long chains of nullable seq children and wide
    xor and par nodes, each with the words it accepts and some it rejects."""
    for word in accepted:
        assert tree_language_member(tree, word), word
    for word in rejected:
        assert not tree_language_member(tree, word), word


def _verdict_under_a_small_budget(tree, word):
    try:
        return tree_language_member(tree, word, budget=4)
    except BudgetExceeded:
        return None


def test_a_verdict_does_not_depend_on_the_calls_before_it():
    """The calls on 8 trees, two of them equal by value but distinct
    objects, give in shuffled order the verdicts they give in order, and
    raise past the budget where they raise in order."""
    rng = random.Random(8)
    trees = [random_tree(rng, depth=4) for _ in range(7)]
    twin = parse_tree(str(trees[0]))
    assert twin == trees[0] and twin is not trees[0]
    trees.append(twin)
    calls = [(tree, word) for tree in trees
             for word in all_words(tree_alphabet(tree) + ("z",), 3)]
    in_order = [_verdict_under_a_small_budget(*call) for call in calls]
    order = list(range(len(calls)))
    rng.shuffle(order)
    assert all(_verdict_under_a_small_budget(*calls[k]) == in_order[k] for k in order)
    assert set(in_order) == {True, False, None}


def test_threads_match_one_tree_with_terms_of_their_own():
    """Calls in more threads than cores on one tree, started together on
    each new tree, in an order of their own and switching as often as the
    interpreter allows, give the verdicts of one thread, each thread on
    terms of its own."""
    rng = random.Random(12)
    workers = 4
    rounds = []
    for _ in range(20):
        tree = random_tree(rng, depth=4)
        words = list(all_words(tree_alphabet(tree) + ("z",), 4))
        rounds.append((tree, words, [tree_language_member(tree, word) for word in words]))
    mine = trees._memo.terms
    orders = [[rng.sample(range(len(words)), len(words)) for _ in range(workers)]
              for _, words, _ in rounds]
    barrier = threading.Barrier(workers, timeout=60)
    got = [[None] * workers for _ in rounds]
    terms = [[None] * workers for _ in rounds]

    def work(k):
        for r, (tree, words, _) in enumerate(rounds):
            barrier.wait()
            verdicts = [None] * len(words)
            for i in orders[r][k]:
                verdicts[i] = tree_language_member(tree, words[i])
            got[r][k] = verdicts
            terms[r][k] = trees._memo.terms

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[expected] * workers for _, _, expected in rounds]
    assert {True, False} <= {v for _, _, expected in rounds for v in expected}
    for (tree, _, _), made in zip(rounds, terms):
        assert all(t.tree is tree for t in made)
        assert len({id(t) for t in made}) == workers
    assert all(t is not mine for t in itertools.chain.from_iterable(terms))


@pytest.mark.parametrize("seed", range(4))
def test_wide_par_trees_match_the_translated_net(seed):
    """The verdict on every word of length <= 2 and on sampled longer ones,
    over the tree's letters and one it lacks, is membership's in the
    translated net, for par nodes of 3 to 6 random children."""
    rng = random.Random(100 + seed)
    verdicts = set()
    for _ in range(4):
        tree = par(*(random_tree(rng, depth=2) for _ in range(rng.randint(3, 6))))
        system = tree_to_wfnet(tree)
        alphabet = tree_alphabet(tree) + ("z",)
        words = list(all_words(alphabet, 2))
        words += [tuple(rng.choice(alphabet) for _ in range(rng.randint(3, 8)))
                  for _ in range(150)]
        for word in words:
            verdict = tree_language_member(tree, word)
            assert verdict == membership(word, system), (tree, word)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_tree_language_matches_the_translated_net(seed):
    """The verdict on every word of length <= 3, over the tree's letters
    and one it lacks, is membership's in the translated net."""
    rng = random.Random(seed)
    for _ in range(8):
        tree = random_tree(rng, depth=4)
        system = tree_to_wfnet(tree)
        for word in all_words(tree_alphabet(tree) + ("z",), 3):
            assert tree_language_member(tree, word) == membership(word, system), (tree, word)


def test_shuffle_member_examples():
    assert shuffle_member(ShuffleInstance(("a", "c", "b", "d"),
                                          (("a", "b"), ("c", "d"))))
    assert not shuffle_member(ShuffleInstance(("b", "a"), (("a", "b"),)))
    assert not shuffle_member(ShuffleInstance(("a",), (("a", "b"),)))


def test_shuffle_member_count():
    """|ab shuffle cd| = 6: enumerate interleavings independently."""
    members = set()
    for positions in itertools.combinations(range(4), 2):
        word = [None] * 4
        first = iter(("a", "b"))
        second = iter(("c", "d"))
        for i in range(4):
            word[i] = next(first) if i in positions else next(second)
        members.add(tuple(word))
    assert len(members) == 6
    for word in members:
        assert shuffle_member(ShuffleInstance(word, (("a", "b"), ("c", "d"))))
    non_members = {w for w in itertools.product("abcd", repeat=4)} - members
    hits = [w for w in non_members
            if shuffle_member(ShuffleInstance(w, (("a", "b"), ("c", "d"))))]
    assert not hits


def test_shuffle_symmetry():
    rng = random.Random(41)
    words = (("a", "b"), ("b", "a"), ("a",))
    for _ in range(20):
        target = tuple(rng.choice("ab") for _ in range(5))
        base = shuffle_member(ShuffleInstance(target, words))
        for perm in itertools.permutations(words):
            assert shuffle_member(ShuffleInstance(target, perm)) == base


def test_par_shuffle_coherence():
    """par of word-leaf sequences agrees with shuffle_member."""
    tree = parse_tree("par(seq(a, b), seq(c, d))")
    words = (("a", "b"), ("c", "d"))
    for target in itertools.product("abcd", repeat=4):
        assert tree_language_member(tree, target) == \
            shuffle_member(ShuffleInstance(target, words))


def test_unique_labels():
    assert has_unique_labels(parse_tree("seq(a, b)"))
    assert not has_unique_labels(parse_tree("par(a, a)"))
    assert has_unique_labels(parse_tree("seq(tau, xor(tau, a))"))


def test_tree_membership_budget():
    from petrialign.errors import BudgetExceeded
    tree = parse_tree("par(seq(a, b), seq(a, b), seq(a, b))")
    with pytest.raises(BudgetExceeded):
        tree_language_member(tree, ("a",) * 6, budget=3)


PAR_TREES = ["par(tau, a, tau)", "par(tau, tau)", "par(xor(tau, a), b)",
             "par(seq(a, b), seq(a, c))", "par(a, loop(a, b))", "seq(par(a, b), c)",
             "par(par(a, b), seq(b, c))", "par(seq(a, xor(b, tau)), loop(c, tau), a)"]


@pytest.mark.parametrize("text", PAR_TREES)
def test_par_language_matches_the_translated_net(text):
    """Silent children, letters shared by siblings and letters no child has
    (z), against membership in the translated net."""
    tree = parse_tree(text)
    system = tree_to_wfnet(tree)
    for word in all_words(tree_alphabet(tree) + ("z",), 5):
        assert tree_language_member(tree, word) == membership(word, system), word


def test_par_with_silent_children():
    tree = parse_tree("par(tau, a, tau)")
    assert tree_language_member(tree, ("a",))
    assert not tree_language_member(tree, ())
    assert not tree_language_member(tree, ("a", "a"))
    assert tree_language_member(parse_tree("par(tau, tau)"), ())
    assert not tree_language_member(parse_tree("par(tau, tau)"), ("a",))


def test_par_with_a_letter_shared_by_siblings():
    tree = parse_tree("par(seq(a, b), seq(a, c))")
    for word in (("a", "a", "b", "c"), ("a", "b", "a", "c"), ("a", "a", "c", "b"),
                 ("a", "c", "a", "b")):
        assert tree_language_member(tree, word), word
    for word in (("a", "b", "c"), ("b", "a", "a", "c"), ("a", "a", "b", "b")):
        assert not tree_language_member(tree, word), word


def test_par_with_a_letter_no_child_has():
    assert not tree_language_member(parse_tree("par(a, b)"), ("a", "z", "b"))
    tree = parse_tree("seq(par(a, b), c)")
    assert tree_language_member(tree, ("b", "a", "c"))
    assert not tree_language_member(tree, ("c", "a", "b"))


def test_par_fixes_the_positions_of_unshared_letters():
    """Each letter belongs to one child, so there is one split per child,
    not 2^24: a small step budget suffices."""
    first, second = "abcdefghijkl", "mnopqrstuvwx"
    tree = parse_tree(f"par(seq({', '.join(first)}), seq({', '.join(second)}))")
    word = tuple(c for pair in zip(first, second) for c in pair)
    assert tree_language_member(tree, word, budget=2000)
    assert not tree_language_member(tree, word[1:] + word[:1], budget=2000)


def test_tree_membership_budget_with_every_position_fixed():
    tree = parse_tree("par(seq(a, b), seq(c, d), seq(e, f))")
    word = ("a", "c", "e", "b", "d", "f")
    assert tree_language_member(tree, word)
    with pytest.raises(BudgetExceeded):
        tree_language_member(tree, word, budget=3)
