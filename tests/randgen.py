"""Seeded random instance generators shared by the property and acceptance
suites.  Everything is driven by an explicit random.Random, so suites are
reproducible run to run."""

from __future__ import annotations

import random

from petrialign import (AcceptingSystem, Label, Marking, Move, PetriNet,
                        ProcessTree, enabled_transitions, fire, min_cost_reach,
                        product_parts, standard_costs, synchronous_product,
                        trace_system)
from petrialign.classify import bounded_and_safe
from petrialign.errors import BudgetExceeded
from petrialign.products import build_reachability_graph
from petrialign.trees import activity, loop, par, seq, silent, xor

LABEL_POOL = ("a", "b", "c")


def _reachable_markings(system, budget=800):
    return sorted(build_reachability_graph(system, state_budget=budget).vertices,
                  key=lambda m: tuple(m.items()))


def _finish(net, rng, initial_places, state_budget=600):
    """Shared tail: require connectivity and safety, then pick a reachable
    final marking.  Returns None when the candidate net fails a check."""
    if not net.is_weakly_connected():
        return None
    initial = Marking.of(*initial_places)
    probe = AcceptingSystem(net, initial, initial)
    try:
        report = bounded_and_safe(probe, b_max=1, state_budget=state_budget)
    except BudgetExceeded:
        return None
    if not report.safe:
        return None
    reach = _reachable_markings(probe, budget=state_budget)
    final = reach[rng.randrange(len(reach))]
    return AcceptingSystem(net, initial, final)


def random_safe_system(rng: random.Random, max_places=8, max_transitions=8):
    """One random safe, weakly connected, easy-sound accepting system, or None
    when the draw fails a requirement (caller retries)."""
    n_p = rng.randint(2, max_places)
    n_t = rng.randint(1, max_transitions)
    places = tuple(f"p{i}" for i in range(n_p))
    transitions = tuple(f"t{i}" for i in range(n_t))
    flow = []
    labels = {}
    for t in transitions:
        for p in rng.sample(places, rng.randint(1, 2)):
            flow.append((p, t))
        for p in rng.sample(places, rng.randint(1, 2)):
            flow.append((t, p))
        labels[t] = Label(None) if rng.random() < 0.15 else \
            Label(rng.choice(LABEL_POOL))
    net = PetriNet(places, transitions, set(flow), labels)
    marked = rng.sample(places, rng.randint(1, 2))
    return _finish(net, rng, marked)


def random_single_token_ssystem(rng: random.Random, max_places=6, max_transitions=8):
    """Random S-net (every transition one input, one output place) with a
    single-token initial marking."""
    n_p = rng.randint(2, max_places)
    n_t = rng.randint(1, max_transitions)
    places = tuple(f"p{i}" for i in range(n_p))
    transitions = tuple(f"t{i}" for i in range(n_t))
    flow = []
    labels = {}
    for t in transitions:
        src = rng.choice(places)
        dst = rng.choice(places)
        flow.append((src, t))
        flow.append((t, dst))
        labels[t] = Label(None) if rng.random() < 0.1 else \
            Label(rng.choice(LABEL_POOL))
    net = PetriNet(places, transitions, set(flow), labels)
    return _finish(net, rng, [rng.choice(places)])


def random_acyclic_system(rng: random.Random, layers=3, width=3):
    """Random layered DAG system: transitions only point forward, so the net
    is structurally acyclic."""
    place_layers = [[f"p{i}_{j}" for j in range(rng.randint(1, width))]
                    for i in range(layers)]
    places = tuple(p for layer in place_layers for p in layer)
    transitions = []
    flow = []
    labels = {}
    idx = 0
    for i in range(layers - 1):
        for _ in range(rng.randint(1, width)):
            t = f"t{idx}"
            idx += 1
            transitions.append(t)
            for p in rng.sample(place_layers[i], rng.randint(1, min(2, len(place_layers[i])))):
                flow.append((p, t))
            for p in rng.sample(place_layers[i + 1], rng.randint(1, min(2, len(place_layers[i + 1])))):
                flow.append((t, p))
            labels[t] = Label(None) if rng.random() < 0.1 else \
                Label(rng.choice(LABEL_POOL))
    if not transitions:
        return None
    net = PetriNet(places, tuple(transitions), set(flow), labels)
    marked = rng.sample(place_layers[0], rng.randint(1, len(place_layers[0])))
    return _finish(net, rng, marked)


def random_trace(rng: random.Random, max_len=6, alphabet=LABEL_POOL):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def make_suite(seed: int, total: int, include_special=True):
    """The randomized solver-agreement suite: mostly general safe systems,
    seeded with S-system and acyclic families so the specialized solvers get
    exercised."""
    rng = random.Random(seed)
    suite = []
    while len(suite) < total:
        kind = len(suite) % 5
        if include_special and kind == 3:
            system = random_single_token_ssystem(rng)
        elif include_special and kind == 4:
            system = random_acyclic_system(rng)
        else:
            system = random_safe_system(rng)
        if system is None:
            continue
        suite.append((system, random_trace(rng)))
    return suite


def random_tree(rng: random.Random, depth: int, alphabet=LABEL_POOL) -> ProcessTree:
    """Random process tree of at most the given depth over a small alphabet."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return silent()
        return activity(rng.choice(alphabet))
    kind = rng.choice(("seq", "xor", "par", "loop"))
    if kind == "loop":
        return loop(random_tree(rng, depth - 1, alphabet),
                    random_tree(rng, depth - 1, alphabet))
    count = rng.randint(1, 3)
    children = tuple(random_tree(rng, depth - 1, alphabet) for _ in range(count))
    return {"seq": seq, "xor": xor, "par": par}[kind](*children)


def random_replayable_walk(rng: random.Random, system, max_len=24):
    """A replayable firing sequence sampled by a random walk."""
    seq = []
    marking = system.initial
    for _ in range(rng.randint(0, max_len)):
        enabled = enabled_transitions(system.net, marking)
        if not enabled:
            break
        t = rng.choice(enabled)
        seq.append(t)
        marking = fire(system.net, marking, t)
    return tuple(seq)


def marked_cycle_tsystem(rng: random.Random, max_places=5, max_tokens=3):
    """Single directed cycle of places and transitions with several tokens on
    the first place: a live, bounded T-system (and S-system)."""
    n = rng.randint(2, max_places)
    tokens = rng.randint(1, max_tokens)
    places = tuple(f"p{i}" for i in range(n))
    transitions = tuple(f"t{i}" for i in range(n))
    flow = []
    labels = {}
    for i in range(n):
        flow.append((places[i], transitions[i]))
        flow.append((transitions[i], places[(i + 1) % n]))
        labels[transitions[i]] = Label(rng.choice(LABEL_POOL))
    net = PetriNet(places, transitions, flow, labels)
    initial = Marking({places[0]: tokens})
    return AcceptingSystem(net, initial, initial), tokens


def dying_token_system():
    """A single-token S-system whose token leaves the net through tdie; the
    final marking is the empty one."""
    net = PetriNet(("p0", "p1"), ("ta", "tdie"),
                   [("p0", "ta"), ("ta", "p1"), ("p1", "tdie")],
                   {"ta": Label("a"), "tdie": Label("b")})
    return AcceptingSystem(net, Marking.of("p0"), Marking())


def ahead_of(system, marking, budget=2000):
    """Reachability graph of the system's net from `marking`."""
    return build_reachability_graph(AcceptingSystem(system.net, marking, marking),
                                    state_budget=budget)


def behavioral_reference(system, budget=2000):
    """(live, cyclic, option to complete) decided from their definitions:
    explore forward from every reachable marking.  Live: every transition
    fires somewhere ahead of each one; cyclic: each one reaches the initial
    marking; option to complete: each one reaches the final marking."""
    live = cyclic = option = True
    for m in build_reachability_graph(system, state_budget=budget).vertices:
        ahead = ahead_of(system, m, budget)
        live = live and {t for _, t, _ in ahead.arcs} == set(system.net.transitions)
        cyclic = cyclic and system.initial in ahead.vertices
        option = option and system.final in ahead.vertices
    return live, cyclic, option


def product_search_cost(trace, system, c=None):
    """Optimal alignment cost as least-cost reachability over the materialised
    synchronous product of the trace system and the model: the reference the
    on-the-fly search is checked against."""
    if c is None:
        c = standard_costs(system)
    product = synchronous_product(trace_system(trace), system)
    costs = {}
    for tid in product.net.transitions:
        left, right = product_parts(tid)
        letter = product.net.label(tid).name if left is not None else None
        costs[tid] = c.move_cost(Move(letter, right))
    return min_cost_reach(product.net, product.initial, costs, product.final)[0]


def render_moves(alignment):
    """Compact one-line form of an alignment: log/model per move, >> for none."""
    return " ".join(f"{m.log_part or '>>'}/{m.model_part or '>>'}" for m in alignment)
