"""Metamorphic relations of the optimal alignment cost: exact identities and
bounds that check the search against itself under seeded caller costs,
where no oracle is run (Chen et al., *Metamorphic testing: a review of
challenges and opportunities*, ACM Computing Surveys 2018)."""

import random
from fractions import Fraction

from petrialign import (AcceptingSystem, Budgets, CostFunction, Label, Marking, PetriNet,
                        dispatch_align, membership, tree_to_wfnet)
from petrialign.errors import BudgetExceeded
from petrialign.petri import _NetView
from randgen import LABEL_POOL, make_suite, random_trace, random_tree

# A letter that no transition of the suite carries.
ABSENT = "z"


def _draw(rng):
    """A random cost: a fraction in [0, 6], zero included."""
    return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))


def _caller_costs(rng, net):
    """A cost on every move of the net and every letter the traces hold,
    each drawn by `_draw`."""
    labels = net.labels
    return CostFunction(dict(labels),
                        {(labels[t].name, t): _draw(rng) for t in net.transitions
                         if not labels[t].silent},
                        {a: _draw(rng) for a in (*LABEL_POOL, ABSENT)},
                        {t: _draw(rng) for t in net.transitions})


def _scaled(c, k):
    return CostFunction(c.labels, *({move: k * v for move, v in table.items()}
                                    for table in (c.sync_overrides, c.log_overrides,
                                                  c.model_overrides)))


def _renamed(rng, system, c):
    """The system and costs with every place and transition renamed and
    each declaration order shuffled."""
    net = system.net
    ids = net.places + net.transitions
    name = dict(zip(ids, (f"x{i}" for i in rng.sample(range(len(ids)), len(ids)))))
    places = rng.sample([name[p] for p in net.places], len(net.places))
    transitions = rng.sample([name[t] for t in net.transitions], len(net.transitions))
    labels = {name[t]: label for t, label in net.labels.items()}
    renamed = AcceptingSystem(
        PetriNet(places, transitions, {(name[u], name[v]) for u, v in net.flow}, labels),
        *(Marking({name[p]: n for p, n in m.items()}) for m in (system.initial, system.final)))
    costs = CostFunction(labels, {(a, name[t]): v for (a, t), v in c.sync_overrides.items()},
                         c.log_overrides, {name[t]: v for t, v in c.model_overrides.items()})
    return renamed, costs


def test_metamorphic_relations_of_the_optimum():
    """On 150 suite systems and 30 random process trees, each with a trace
    and seeded caller costs: scaling every cost by k scales the optimum by
    k; appending a letter a raises the optimum by at most the log cost of
    a, and lowers it by at most the largest model cost of a transition
    labelled a (0 when none is); renaming places and transitions and
    shuffling their declaration order keeps the optimum, under the caller's
    costs and the standard ones; and under the standard costs the trace is
    in the language iff its optimum is 0."""
    rng = random.Random(11)
    trees = [(tree_to_wfnet(random_tree(rng, 3)), random_trace(rng)) for _ in range(30)]
    for system, trace in make_suite(11, 150) + trees:
        net = system.net
        c = _caller_costs(rng, net)
        cost = dispatch_align(trace, system, c).cost
        k = rng.choice((2, 3, Fraction(1, 2), Fraction(5, 3)))
        assert dispatch_align(trace, system, _scaled(c, k)).cost == k * cost, str(net)
        a = rng.choice((*LABEL_POOL, ABSENT))
        longer = dispatch_align((*trace, a), system, c).cost
        drop = max((c.model(t) for t in net.transitions if net.labels[t].name == a),
                   default=0)
        assert cost - drop <= longer <= cost + c.log(a), (str(net), trace, a)
        renamed, renamed_costs = _renamed(rng, system, c)
        assert dispatch_align(trace, renamed, renamed_costs).cost == cost, str(net)
        standard = dispatch_align(trace, system).cost
        assert dispatch_align(trace, renamed).cost == standard, str(net)
        assert membership(trace, system) == (standard == 0), (str(net), trace)


def _with_fresh_transition(rng, system, c, source=None):
    """The system with one more transition, `fresh`, declared last, from
    place `source` (drawn from the net when None) to a place drawn from the
    net, labelled by a letter of the pool or silent; and the costs with a
    drawn model cost for it and, when it is visible, a drawn sync cost."""
    net = system.net
    fresh = "fresh"
    assert not net.has_place(fresh) and not net.has_transition(fresh)
    source = source or rng.choice(net.places)
    label = Label(rng.choice((*LABEL_POOL, None)))
    labels = {**net.labels, fresh: label}
    flow = {*net.flow, (source, fresh), (fresh, rng.choice(net.places))}
    bigger = AcceptingSystem(PetriNet(net.places, (*net.transitions, fresh), flow, labels),
                             system.initial, system.final)
    sync = dict(c.sync_overrides)
    if not label.silent:
        sync[(label.name, fresh)] = _draw(rng)
    return bigger, CostFunction(labels, sync, c.log_overrides,
                                {**c.model_overrides, fresh: _draw(rng)})


def test_a_fresh_transition_never_raises_the_optimum():
    """On 120 suite systems and 40 random process trees, each with a trace
    and seeded caller costs, adding a transition with a fresh id, one input
    and one output place never raises the optimum, and never turns a member
    into a non-member: every run of the old net is a run of the new one.
    Half the nets with a silent transition that must fire get the fresh
    transition on one of its input places, which takes it out of the cut.
    A case whose new system passes a small state budget is counted and
    skipped."""
    rng = random.Random(13)
    budget = 3000
    trees = [(tree_to_wfnet(random_tree(rng, 3)), random_trace(rng)) for _ in range(40)]
    cases = make_suite(13, 120) + trees
    ran = skipped = cut_off = 0
    for system, trace in cases:
        net = system.net
        c = _caller_costs(rng, net)
        forced = _NetView(net).forced
        source = None
        if forced and rng.random() < 0.5:
            _, ins = rng.choice(forced)
            source = net.places[rng.choice(ins)]
        bigger, bigger_costs = _with_fresh_transition(rng, system, c, source)
        try:
            cost = dispatch_align(trace, bigger, bigger_costs, Budgets(budget)).cost
            member = membership(trace, bigger, budget)
        except BudgetExceeded:
            skipped += 1
            continue
        ran += 1
        cut_off += len(_NetView(bigger.net).forced) < len(forced)
        assert cost <= dispatch_align(trace, system, c).cost, (str(bigger.net), trace)
        assert member or not membership(trace, system), (str(bigger.net), trace)
    assert cut_off >= 20 and ran >= 0.9 * len(cases), (ran, skipped, cut_off)
