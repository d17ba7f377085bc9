"""Loops that take a cap of their own raise BudgetExceeded past it."""

import pytest

from petrialign import (ShuffleInstance, behavioral_class, brute_force_oracle, ex1_system,
                        membership, min_cost_reach, parse_net, parse_tree,
                        shuffle_member, tree_language_member)
from petrialign.errors import BudgetExceeded
from petrialign.petri import _schedule_counts, parikh


def _oracle(cap):
    return brute_force_oracle(("a", "b", "a", "a"), ex1_system(), state_cap=cap)


def _shuffle(cap):
    inst = ShuffleInstance(("a",) * 6, (("a",) * 3, ("a",) * 3))
    return shuffle_member(inst, state_cap=cap)


def _reach(cap):
    ex1 = ex1_system()
    return min_cost_reach(ex1.net, ex1.initial, {}, ex1.final, state_budget=cap)[0]


def _explore(cap):
    return behavioral_class(ex1_system(), cap).states_explored


def _schedule(cap):
    ex1 = ex1_system()
    counts = parikh(("t1", "t2", "t3", "t4", "t1", "t3", "t2", "t5"))
    return _schedule_counts(ex1.net, ex1.initial, counts, cap)


# One tree object for every cap: the derivatives an earlier call kept must
# not change where the next call's cap falls.
_THREE_AB = parse_tree("par(seq(a, b), seq(a, b), seq(a, b))")


def _tree(cap):
    return tree_language_member(_THREE_AB, ("a", "a", "b", "a", "b", "b"), budget=cap)


# A silent transition pumps tokens onto q; the letter a loops on p, and only
# z reaches the final marking.  The start's silent closure is infinite, so
# membership goes to its fallback search, and a word without z never answers.
_PUMP = parse_net("place p init=1\nplace q\nplace f final=1\n"
                  "trans u label=~ in=p out=p,q\ntrans ta label=a in=p out=p\n"
                  "trans tz label=z in=p out=f\n")


def _member(cap):
    return membership(("a", "a"), _PUMP, cap)


@pytest.mark.parametrize("run, answer",
                         [(_oracle, 2), (_shuffle, True), (_reach, 0), (_tree, True),
                          (_member, None), (_explore, 6),
                          (_schedule, ("t1", "t2", "t3", "t4", "t1", "t2", "t3", "t5"))],
                         ids=["brute_force_oracle", "shuffle_member", "min_cost_reach",
                              "tree_language_member", "membership", "behavioral_class",
                              "schedule_counts"])
def test_a_loop_raises_past_its_cap(run, answer):
    """Every cap below the least one that answers raises, having counted
    one state more than the cap allows; a loop whose states never end
    (answer None) raises at every cap up to 100."""
    got = None
    for cap in range(1, 101):
        try:
            got = run(cap)
        except BudgetExceeded as exc:
            assert exc.discovered == cap + 1
            continue
        break
    assert cap > 1 and got == answer
