"""Metamorphic relations of the optimal alignment cost: exact identities and
bounds that check the search against itself under seeded caller costs,
where no oracle is run (Chen et al., *Metamorphic testing: a review of
challenges and opportunities*, ACM Computing Surveys 2018)."""

import random
from fractions import Fraction

from petrialign import (AcceptingSystem, CostFunction, Marking, PetriNet,
                        dispatch_align, membership, tree_to_wfnet)
from randgen import LABEL_POOL, make_suite, random_trace, random_tree

# A letter that no transition of the suite carries.
ABSENT = "z"


def _caller_costs(rng, net):
    """A cost on every move of the net and every letter the traces hold,
    each a random fraction in [0, 6], zero included."""
    def draw():
        return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
    labels = net.labels
    return CostFunction(dict(labels),
                        {(labels[t].name, t): draw() for t in net.transitions
                         if not labels[t].silent},
                        {a: draw() for a in (*LABEL_POOL, ABSENT)},
                        {t: draw() for t in net.transitions})


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
