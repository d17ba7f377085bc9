import random
from fractions import Fraction

import pytest

from petrialign import (AcceptingSystem, Budgets, CostFunction, Label, Marking, PetriNet,
                        brute_force_oracle, dispatch_align, engine, gen_shuffle_ssystem,
                        optimal_alignment, optimal_alignment_ssystem,
                        standard_costs, trace_system, validate_alignment)
from petrialign.errors import (BudgetExceeded, NotEasySound, NotSingleToken,
                               NotSSystem)
from randgen import (LABEL_POOL, assert_pinned, dying_token_system, letter_sets,
                     random_guarded_ssystem, random_single_token_ssystem, random_trace)


def cycle_system():
    net = PetriNet(("p0", "p1"), ("ta", "tb"),
                   [("p0", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "p0")],
                   {"ta": Label("a"), "tb": Label("b")})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p0"))


def test_line_perfect_match():
    system = trace_system(("a", "b"))
    result = optimal_alignment_ssystem(("a", "b"), system)
    assert result.cost == 0
    assert result.algorithm == "ssystem"


def test_cycle_perfect_match():
    result = optimal_alignment_ssystem(("a", "b", "a", "b"), cycle_system())
    assert result.cost == 0


def test_cycle_deviating_trace_agrees_with_generic_and_oracle():
    system = cycle_system()
    trace = ("a", "a")
    special = optimal_alignment_ssystem(trace, system)
    assert special.cost == 2
    assert special.cost == optimal_alignment(trace, system).cost
    assert special.cost == brute_force_oracle(trace, system)
    assert validate_alignment(special.alignment, trace, system,
                              standard_costs(system)) == special.cost


def test_rejects_non_ssystem(ex1):
    with pytest.raises(NotSSystem):
        optimal_alignment_ssystem(("a",), ex1)


def test_rejects_multi_token():
    system = gen_shuffle_ssystem(("a", "b"), 2)
    with pytest.raises(NotSingleToken):
        optimal_alignment_ssystem(("a", "b"), system)


def test_not_easy_sound():
    net = PetriNet(("p0", "p1", "p2"), ("ta",),
                   [("p0", "ta"), ("ta", "p1")],
                   {"ta": Label("a")})
    system = AcceptingSystem(net, Marking.of("p0"), Marking.of("p2"))
    with pytest.raises(NotEasySound):
        optimal_alignment_ssystem(("a",), system)


def test_agreement_on_random_ssystems():
    rng = random.Random(11)
    done = 0
    while done < 30:
        system = random_single_token_ssystem(rng)
        if system is None:
            continue
        trace = random_trace(rng, max_len=5)
        special = optimal_alignment_ssystem(trace, system)
        generic = optimal_alignment(trace, system)
        assert special.cost == generic.cost
        assert validate_alignment(special.alignment, trace, system,
                                  standard_costs(system)) == special.cost
        done += 1


def test_dying_token_reaches_empty_marking():
    system = dying_token_system()
    special = optimal_alignment_ssystem(("a", "b"), system)
    assert special.cost == optimal_alignment(("a", "b"), system).cost == 0


def test_empty_trace():
    result = optimal_alignment_ssystem((), cycle_system())
    assert result.cost == 0 and result.alignment == ()
    result = optimal_alignment_ssystem((), dying_token_system())
    assert result.cost == 2 == brute_force_oracle((), dying_token_system())


def test_state_budget():
    with pytest.raises(BudgetExceeded):
        optimal_alignment_ssystem(("a", "b"), cycle_system(), state_budget=1)


def silent_pump_system():
    """A silent source transition pumps p0, so the net is unbounded."""
    net = PetriNet(("p0", "p1"), ("ta", "ts"),
                   [("p0", "ta"), ("ta", "p1"), ("ts", "p0")],
                   {"ta": Label("a"), "ts": Label(None)})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("p1"))


def visible_source_system():
    """src puts tokens on p1 with no input place, and tk takes them away:
    an unbounded S-net."""
    net = PetriNet(("p0", "p1", "pf"), ("ta", "tb", "src", "tk"),
                   [("p0", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "pf"),
                    ("src", "p1"), ("p1", "tk")],
                   {"ta": Label("a"), "tb": Label("b"), "src": Label("c"), "tk": Label("d")})
    return AcceptingSystem(net, Marking.of("p0"), Marking.of("pf"))


def _outcome(solve, *args):
    """The call's result, or the settled count its BudgetExceeded names."""
    try:
        return solve(*args)
    except BudgetExceeded as exc:
        return exc.discovered


def test_a_source_transition_takes_the_generic_route():
    """A transition with no input place makes the net unbounded, so not an
    S-system: the dispatcher gives it the generic search under the
    caller's budget, and the S-system solver rejects it.  The silent pump
    settles unboundedly many states at cost 0, so the budget is small."""
    for trace in (("a",), ("b",)):
        routed = _outcome(dispatch_align, trace, silent_pump_system(), None, Budgets(50))
        assert routed == _outcome(optimal_alignment, trace, silent_pump_system(), None, 50)
        assert isinstance(routed, int) or routed.algorithm == "generic"
        with pytest.raises(NotSSystem):
            optimal_alignment_ssystem(trace, silent_pump_system())


@pytest.mark.parametrize("trace,cost", [
    ("cccccdab", 4), ("addddddb", 6), ("ccccccccab", 8), ("ddddddddddab", 10),
    ("acccddddddddb", 5)])
def test_a_visible_source_is_aligned_by_the_generic_search(trace, cost):
    """Three of the five optima fire src while a token is in the net, so
    pass markings of several tokens: the dispatcher aligns the net exactly,
    as the generic search does on a system of its own, and the S-system
    solver rejects it."""
    trace = tuple(trace)
    routed = dispatch_align(trace, visible_source_system())
    generic = optimal_alignment(trace, visible_source_system())
    assert routed == generic and routed.algorithm == "generic" and routed.cost == cost
    system = visible_source_system()
    assert validate_alignment(routed.alignment, trace, system, standard_costs(system)) == cost
    with pytest.raises(NotSSystem):
        optimal_alignment_ssystem(trace, system)


# Alignments and settled-state counts of the pinned tie-break, per route:
# the generic search settles every state cheaper than the optimum, and the
# S-system route's A* (see `dijkstra_least_cost`) only those whose cost plus
# the bound of `engine._Plan.bound` is.
PINNED = [
    (cycle_system, ("a", "a"),
     {"generic": ("2", 6, "a/ta a/>> >>/tb"), "ssystem": ("2", 4, "a/ta a/>> >>/tb")}),
    (cycle_system, ("a", "b", "a", "b"),
     {"generic": ("0", 5, "a/ta b/tb a/ta b/tb"), "ssystem": ("0", 5, "a/ta b/tb a/ta b/tb")}),
    (cycle_system, ("b", "a", "a", "b", "b"),
     {"generic": ("3", 9, "b/>> a/ta a/>> b/tb b/>>"),
      "ssystem": ("3", 6, "b/>> a/ta a/>> b/tb b/>>")}),
    (dying_token_system, ("a", "b"),
     {"generic": ("0", 3, "a/ta b/tdie"), "ssystem": ("0", 3, "a/ta b/tdie")}),
    (dying_token_system, ("b", "a", "c"),
     {"generic": ("3", 11, "b/>> a/ta c/>> >>/tdie"),
      "ssystem": ("3", 5, "b/>> a/ta c/>> >>/tdie")}),
]


@pytest.mark.parametrize("make,trace,expected", PINNED)
def test_pinned_tie_break(make, trace, expected):
    """Each route's pinned result, and under budgets 1 to 30 the same
    result, or BudgetExceeded on settling one state more than a budget
    below the pinned count."""
    for solve in (optimal_alignment_ssystem, optimal_alignment):
        system = make()
        result = solve(trace, system)
        pinned = expected[result.algorithm]
        assert_pinned(result, trace, system, None, pinned)
        for budget in range(1, 31):
            outcome = _outcome(solve, trace, make(), None, budget)
            assert outcome == (budget + 1 if budget < pinned[1] else result)


def caller_costs(rng, system):
    """Seeded overrides of about half the moves of each kind.  Log and
    visible model moves cost at least 1/13 but for one draw in eight, which
    turns the bound off."""
    def price(low):
        return Fraction(rng.randint(low, 12), rng.randint(1, 13))

    net = system.net
    low = 0 if rng.random() < 0.125 else 1
    visible = [t for t in net.transitions if not net.label(t).silent]
    return CostFunction(labels=dict(net.labels),
                        sync_overrides={(net.label(t).name, t): price(0)
                                        for t in visible if rng.random() < 0.5},
                        log_overrides={a: price(low) for a in (*LABEL_POOL, "d")
                                       if rng.random() < 0.5},
                        model_overrides={t: price(low if t in visible else 0)
                                         for t in net.transitions if rng.random() < 0.5})


def bound_at(bound, pos, m):
    """The value of `engine._Plan.bound`'s `bound` at state (pos, marking
    number m)."""
    amask, near, lmask, unit = bound
    return near[pos] + (0 if amask[m] & lmask[pos] else unit)


def letter_cover(system, trace, unit):
    """The S-system route's bound before it kept transitions, the optimum of
    the relaxation on letters, kept as one that the route's bound must
    dominate: a function of (pos, marking), the least cost over the first
    kept position j >= pos: unit per letter logged before j, unit when
    letter j (or "" at the end) is not in the marking's `ahead`, and W(j),
    the least cost after the sync of letter j, itself the least over the
    next kept position in O(n) each (`letter_sets`)."""
    ahead, follow = letter_sets(system)
    n = len(trace)
    letters = (*trace, "")
    least = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        least[j] = min(unit * (k - j - 1 + (letters[k] not in follow[trace[j]])) + least[k]
                       for k in range(j + 1, n + 1))

    def h(pos, m):
        return min(unit * (j - pos + (letters[j] not in ahead[m])) + least[j]
                   for j in range(pos, n + 1))

    return h


def pair_cover(system, trace, unit):
    """The S-system route's first bound, kept as one that `letter_cover`
    must dominate: a function of (pos, marking), unit times the fewest pairs
    of adjacent positions that cover the breaks at or after pos (j < n is a
    break when letter j + 1, or "" at the end, is not in follow[trace[j]]),
    and pos - 1 when the marking's `ahead` misses the letter at pos (""
    at the end); the pairs are taken greedily from the left."""
    ahead, follow = letter_sets(system)
    letters = (*trace, "")
    breaks = [j for j in range(len(trace)) if letters[j + 1] not in follow[trace[j]]]

    def h(pos, m):
        due = [j for j in breaks if j >= pos]
        if letters[pos] not in ahead[m]:
            due.insert(0, pos - 1)
        covered, pairs = -2, 0
        for j in due:
            if j > covered:
                pairs, covered = pairs + 1, j + 1
        return unit * pairs

    return h


def check_letter_bound(system, trace, costs):
    """The S-system route's bound (`engine._Plan.bound`) under `costs` (None
    for the standard costs) is consistent on every edge of the product of
    `trace` and the system that the start reaches, h(s) <= c(s, s') + h(s'),
    0 at the goal, and at least the letter relaxation (`letter_cover`), in
    turn at least the pair cover (`pair_cover`), at every state that the
    start reaches; the route's cost is the oracle's, and it settles at most
    (n + 1)(|P| + 1) states.  Returns (whether the bound was on, whether it
    beat the letter relaxation at some state)."""
    table_costs = costs or standard_costs(system)
    plan = engine._Plan(system)
    table = engine._MoveTable(plan, table_costs)
    bound = plan.bound(trace, table)
    n = len(trace)
    expected = brute_force_oracle(trace, system, table_costs)
    result = dispatch_align(trace, system, costs)
    assert result.algorithm == "ssystem" and result.cost == expected
    assert validate_alignment(result.alignment, trace, system, table_costs) == expected
    assert result.states_expanded <= (n + 1) * (len(system.net.places) + 1)
    if bound is None:
        return False, False

    def h(pos, m):
        return bound_at(bound, pos, m)

    graph, (start, final) = plan, plan.ends
    labels = graph.labels
    seen = {(0, start)}
    stack = [(0, start)]
    while stack:
        pos, m = stack.pop()
        edges = []
        for t, s in graph.rows[m]:
            if pos < n and labels[t] == trace[pos]:
                edges.append((table.sync[t][0], (pos + 1, s)))
            edges.append((table.model[t][0], (pos, s)))
        if pos < n:
            edges.append((table.log(trace[pos])[0], (pos + 1, m)))
        for w, target in edges:
            assert h(pos, m) <= w + h(*target), (trace, pos, m, target)
            if target not in seen:
                seen.add(target)
                stack.append(target)
    assert (n, final) in seen and h(n, final) == 0
    letter = letter_cover(system, trace, bound[3])
    pair = pair_cover(system, trace, bound[3])
    tighter = False
    for pos, m in seen:
        marking = graph.markings[m]
        was = letter(pos, marking)
        assert h(pos, m) >= was >= pair(pos, marking), (trace, pos, m)
        tighter = tighter or h(pos, m) > was
    return True, tighter


def bound_campaign(seed, count):
    """`check_letter_bound` on `count` seeded single-token S-systems with
    sink and silent transitions, each with a trace of up to six letters over
    a, b, c and d, which no transition carries, under the standard costs and
    a seeded caller cost function.  Returns (how many checks had the bound
    on, how many of those beat the letter relaxation at some state); the
    bound beats it somewhere."""
    rng = random.Random(seed)
    on = tighter = 0
    for _ in range(count):
        system = None
        while system is None:
            system = random_guarded_ssystem(rng)
        trace = random_trace(rng, max_len=6, alphabet=(*LABEL_POOL, "d"))
        for costs in (None, caller_costs(rng, system)):
            was_on, was_tighter = check_letter_bound(system, trace, costs)
            on += was_on
            tighter += was_tighter
    assert tighter > 0
    return on, tighter


def test_letter_bound_is_consistent():
    """The bound is consistent, at least the letter relaxation and the route
    exact on a seeded campaign, and on the pinned systems; both the standard
    and the caller's costs mostly leave it on."""
    on, tighter = bound_campaign(36, 400)
    assert on > 700 and tighter > 20
    for make, trace, _ in PINNED:
        assert check_letter_bound(make(), trace, None)[0]
