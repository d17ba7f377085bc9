import random

import pytest

from petrialign import (AcceptingSystem, Label, Marking, PetriNet, enabled_transitions,
                        fire, fire_sequence, gen_shuffle_tsystem, is_enabled, parikh,
                        tree_to_wfnet)
from petrialign import petri
from petrialign.errors import BudgetExceeded, NotEnabled, UnknownTransition
from petrialign.petri import _enabled_among, _MarkingGraph, _schedule_counts
from randgen import (assert_numbered_once, make_suite, random_replayable_walk,
                     random_safe_system, random_single_token_ssystem, random_tree)


def test_fire_fork(ex1):
    after = fire(ex1.net, Marking.of("p_init"), "t1")
    assert after == Marking({"p1": 1, "p2": 1})


def test_marking_membership_and_net_repr(ex1):
    marking = Marking({"p1": 2, "p2": 0})
    assert "p1" in marking and "p2" not in marking and "p3" not in marking
    assert repr(ex1.net) == "PetriNet(|P|=6, |T|=5, |F|=13)"


def test_fire_not_enabled_reports_first_empty_place(ex1):
    with pytest.raises(NotEnabled) as err:
        fire(ex1.net, Marking({"p1": 1, "p2": 1}), "t5")
    assert err.value.place == "p3"
    assert err.value.transition == "t5"


def test_fire_unknown_transition(ex1):
    with pytest.raises(UnknownTransition):
        fire(ex1.net, ex1.initial, "nope")
    with pytest.raises(UnknownTransition):
        is_enabled(ex1.net, ex1.initial, "nope")
    with pytest.raises(UnknownTransition, match="step 1"):
        fire_sequence(ex1.net, ex1.initial, ("t1", "nope"))


def test_fire_self_loop_leaves_marking_unchanged():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], {"t": Label("a")})
    assert fire(net, Marking.of("p"), "t") == Marking.of("p")


def test_fire_sequence_complete_run(ex1):
    end = fire_sequence(ex1.net, ex1.initial, ("t1", "t3", "t2", "t5"))
    assert end == Marking.of("p_final")


def test_fire_sequence_empty(ex1):
    assert fire_sequence(ex1.net, ex1.initial, ()) == ex1.initial


def test_fire_sequence_reports_step_index(ex1):
    with pytest.raises(NotEnabled) as err:
        fire_sequence(ex1.net, ex1.initial, ("t2",))
    assert err.value.step == 0


def test_enabled_transitions_in_declaration_order(ex1):
    assert enabled_transitions(ex1.net, Marking({"p3": 1, "p4": 1})) == ["t4", "t5"]


def _fire_by_definition(net, marking, t):
    """The firing rule as first written: take one token from each input place
    and add one to each output place, rebuilt through Marking's validating
    constructor."""
    for p in net.preset(t):
        if marking[p] == 0:
            raise NotEnabled(t, p)
    counts = marking.counts
    for p in net.preset(t):
        counts[p] -= 1
    for p in net.postset(t):
        counts[p] = counts.get(p, 0) + 1
    return Marking(counts)


def test_firing_rule_matches_its_definition():
    """On random nets and markings (tokens off the net included), enabledness
    and firing agree with the definitions, down to the key order, the hash
    and the place NotEnabled names; firing leaves its input marking as it
    was, and the result shares no counts with it."""
    rng = random.Random(42)
    nets = 0
    while nets < 300:
        system = random_safe_system(rng) if nets % 2 else random_single_token_ssystem(rng)
        if system is None:
            continue
        nets += 1
        net = system.net
        for _ in range(3):
            marking = Marking({p: rng.choice((0, 0, 1, 2))
                               for p in net.places + ("elsewhere",)})
            assert enabled_transitions(net, marking) == \
                [t for t in net.transitions if all(marking[p] > 0 for p in net.preset(t))]
            before = Marking(marking.counts)
            for t in net.transitions:
                try:
                    expected = _fire_by_definition(net, marking, t)
                except NotEnabled as want:
                    with pytest.raises(NotEnabled) as got:
                        fire(net, marking, t)
                    assert (got.value.transition, got.value.place) == \
                        (want.transition, want.place)
                    continue
                after = fire(net, marking, t)
                assert after == expected and hash(after) == hash(expected)
                assert list(after.items()) == list(expected.items())
                assert after.support() == expected.support()
                assert repr(after) == repr(expected)
                assert marking == before and hash(marking) == hash(before)
                assert list(marking.items()) == list(before.items())
                assert after._counts is not marking._counts
        with pytest.raises(UnknownTransition):
            fire(net, marking, "elsewhere")


def test_parikh_counts():
    assert parikh(("t1", "t3", "t1")) == {"t1": 2, "t3": 1}
    assert parikh(()) == {}


def test_parikh_order_insensitive():
    rng = random.Random(7)
    for _ in range(25):
        seq = [rng.choice("abcd") for _ in range(rng.randint(0, 10))]
        perm = list(seq)
        rng.shuffle(perm)
        assert parikh(seq) == parikh(perm)


def test_marking_equation_on_random_replays():
    """M0 + C*parikh(seq) must equal replaying the sequence, pointwise, where
    column t of the incidence matrix C is t's postset less its preset."""
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        system = random_safe_system(rng)
        if system is None:
            continue
        seq = random_replayable_walk(rng, system)
        end = fire_sequence(system.net, system.initial, seq)
        predicted = dict(system.initial.counts)
        for t, n in parikh(seq).items():
            for p in system.net.postset(t):
                predicted[p] = predicted.get(p, 0) + n
            for p in system.net.preset(t):
                predicted[p] = predicted.get(p, 0) - n
        assert {p: n for p, n in predicted.items() if n} == end.counts
        checked += 1


def test_marking_graph_rows_follow_the_firing_rule():
    """A row lists each enabled transition by declaration index, in
    declaration order, with the number of the marking firing it leads to;
    a marking keeps its number and its row object."""
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        system = random_safe_system(rng)
        if system is None:
            continue
        net = system.net
        graph = _MarkingGraph(net)
        marking = system.initial
        for t in random_replayable_walk(rng, system):
            i = graph.number(marking)
            row = graph.row(i)
            assert [(net.transitions[k], graph.markings[s]) for k, s in row] == \
                [(u, fire(net, marking, u)) for u in enabled_transitions(net, marking)]
            assert graph.row(i) is row and graph.number(marking) == i
            marking = fire(net, marking, t)
        assert graph.size == len(graph.rows)
        assert_numbered_once(graph)
        checked += 1


def _random_counted_system(rng):
    """A net of 1-5 places and 1-7 transitions whose presets and postsets are
    random subsets of the places: self-loop places, transitions with no
    input or no output place, and unbounded nets all occur.  The initial
    marking puts 0-3 tokens on each place."""
    places = tuple(f"p{i}" for i in range(rng.randint(1, 5)))
    transitions = tuple(f"t{i}" for i in range(rng.randint(1, 7)))
    flow = set()
    for t in transitions:
        for p in places:
            if rng.random() < 0.35:
                flow.add((p, t))
            if rng.random() < 0.35:
                flow.add((t, p))
    net = PetriNet(places, transitions, flow,
                   {t: Label(rng.choice(("a", "b", None))) for t in transitions})
    return net, Marking({p: rng.randint(0, 3) for p in places})


def _explore_by_firing(net, root, budget, b_max=None):
    """`_MarkingGraph.explore` written out over `fire` and the full scan of
    `_enabled_among`, with the markings found, in order, in place of the
    graph, and transition ids in place of indices."""
    order, local = [root], {root: 0}
    parent, via = [-1], [None]
    result = order, parent, via
    if b_max is not None and root.max_count() > b_max:
        return result
    for k, m in enumerate(order):
        for t in _enabled_among(net, m, net.transitions):
            s = fire(net, m, t)
            j = local.get(s)
            if j is None:
                j = local[s] = len(order)
                if j >= max(budget, 1):
                    raise BudgetExceeded(j + 1)
                order.append(s)
                parent.append(k)
                via.append(t)
                if b_max is not None and s.max_count() > b_max:
                    return result
    return result


def _explored(f, *args):
    try:
        return f(*args)
    except BudgetExceeded as exc:
        return ("raised", exc.discovered)


def test_keyed_marking_graph_matches_the_firing_rule(monkeypatch):
    """On random nets with counts above one, self-loop places, transitions
    with no input or no output place and unbounded growth cut by a budget,
    the count-keyed graph gives the rows, the numbers and the explorations
    that firing every arc gives.  An exploration numbers the markings it
    finds in breadth-first order on a graph of its own, so each is found
    from a lower number, and a `b_max` stop lists only the markings found
    even when the row it stops in numbered more.  Every `Marking` a graph
    holds is the root, a marking numbered by a caller, or one that `fire`
    made."""
    made = set()
    fire_ = petri.fire

    def recorded(net, marking, t):
        m = fire_(net, marking, t)
        made.add(id(m))
        return m

    monkeypatch.setattr(petri, "fire", recorded)
    rng = random.Random(43)
    shapes = dict.fromkeys(("self_loop", "no_input", "no_output", "count_2", "raised",
                            "cut_in_a_row"), 0)
    for _ in range(400):
        net, root = _random_counted_system(rng)
        budget = rng.choice((1, 5, 40))
        b_max = rng.choice((None, 2, 4))
        got = _explored(_MarkingGraph.explore, net, root, budget, b_max)
        expected = _explored(_explore_by_firing, net, root, budget, b_max)
        graphs = []
        if got[0] == "raised":
            assert got == expected
            shapes["raised"] += 1
        else:
            graph, parent, via = got
            n = len(parent)
            assert all(p < k for k, p in enumerate(parent))
            names = [None] + [net.transitions[t] for t in via[1:]]
            assert (graph.markings[:n], parent, names) == expected
            shapes["cut_in_a_row"] += len(graph.markings) > n
            graphs.append((graph, root))
        # Rows filled in number order on a graph that numbered a marking
        # first, as a search's goal is.
        graph = _MarkingGraph(net)
        goal = Marking({p: rng.randint(0, 2) for p in net.places})
        graph.number(goal)
        graph.number(root)
        i = 0
        while i < min(len(graph.markings), budget):
            graph.row(i)
            i += 1
        graphs.append((graph, goal))
        for graph, goal in graphs:
            assert_numbered_once(graph)
            assert all(m is root or m is goal or id(m) in made for m in graph.markings)
            for i, row in graph.rows.items():
                m = graph.markings[i]
                assert [(net.transitions[k], graph.markings[s]) for k, s in row] == \
                    [(t, fire_(net, m, t)) for t in _enabled_among(net, m, net.transitions)]
            shapes["count_2"] += any(m.max_count() >= 2 for m in graph.markings)
        shapes["self_loop"] += any(set(net.preset(t)) & set(net.postset(t))
                                   for t in net.transitions)
        shapes["no_input"] += any(not net.preset(t) for t in net.transitions)
        shapes["no_output"] += any(not net.postset(t) for t in net.transitions)
    assert min(shapes.values()) >= 20, shapes


def _view_by_definition(net):
    """The net's presets, postsets, consume and produce tuples and its
    integer view, each read off the flow relation by its definition.  Each
    `first` and `unguarded` entry holds place masks, bit i for place i: rest
    is the preset after its first place, consume pre minus post and produce
    post minus pre."""
    order = {v: i for i, v in enumerate(net.places + net.transitions)}
    vertices = net.places + net.transitions
    pre = {v: tuple(sorted((u for u, w in net.flow if w == v), key=order.get))
           for v in vertices}
    post = {v: tuple(sorted((w for u, w in net.flow if u == v), key=order.get))
            for v in vertices}
    consume = {t: tuple(p for p in pre[t] if p not in post[t]) for t in net.transitions}
    produce = {t: tuple(p for p in post[t] if p not in pre[t]) for t in net.transitions}
    index = {p: i for i, p in enumerate(net.places)}.__getitem__

    def mask(places):
        return sum(2 ** index(p) for p in places)

    first = [[] for _ in net.places]
    unguarded, pumps, forced = [], set(), []
    for k, t in enumerate(net.transitions):
        ins = tuple(map(index, pre[t]))
        entry = (k, mask(pre[t][1:]), mask(consume[t]), mask(produce[t]))
        (first[ins[0]] if ins else unguarded).append(entry)
        if net.labels[t].silent:
            if produce[t] and not consume[t]:
                pumps.add(k)
            if ins and consume[t] == pre[t] and all(len(post[p]) == 1 for p in pre[t]):
                forced.append((k, ins))
    by_id = sorted(net.transitions)
    view = {"bits": {p: 2 ** index(p) for p in net.places},
            "first": tuple(map(tuple, first)), "unguarded": tuple(unguarded),
            "labels": tuple(net.labels[t].name for t in net.transitions),
            "pumps": frozenset(pumps),
            "ranks": tuple(by_id.index(t) for t in net.transitions),
            "s_net": all(len(pre[t]) <= 1 and len(post[t]) <= 1 for t in net.transitions),
            "forced": tuple(forced)}
    return (pre, post, consume, produce), view


def test_compiled_net_matches_its_definition():
    """On 300 suite nets, 60 random process trees, random nets with
    self-loops, multi-input and input-less transitions, and hand-made nets
    of each of those shapes: presets and postsets are sorted in declaration
    order, consume is pre minus post and produce post minus pre, and every
    field of the integer view equals its definition."""
    rng = random.Random(29)
    nets = [system.net for system, _ in make_suite(29, 300)]
    nets += [tree_to_wfnet(random_tree(rng, 3)).net for _ in range(60)]
    nets += [_random_counted_system(rng)[0] for _ in range(200)]
    a, b, tau = Label("a"), Label("b"), Label(None)
    nets += [
        # A silent self-loop that also produces, beside a visible self-loop.
        PetriNet(("p", "q", "f"), ("u", "ta", "tz"),
                 [("p", "u"), ("u", "p"), ("u", "q"), ("p", "ta"), ("ta", "p"),
                  ("p", "tz"), ("tz", "f")], {"u": tau, "ta": a, "tz": b}),
        # Inputs and outputs declared out of order, a two-input silent join
        # and a transition with no input place.
        PetriNet(("z", "y", "x"), ("t2", "t1", "t0"),
                 [("x", "t2"), ("y", "t2"), ("z", "t2"), ("t2", "x"), ("t1", "y"),
                  ("t1", "z"), ("z", "t0"), ("y", "t0"), ("t0", "x")],
                 {"t2": a, "t1": tau, "t0": tau}),
        # No flow at all.
        PetriNet(("p",), ("t",), [], {"t": b}),
    ]
    shapes = dict.fromkeys(("self_loop", "two_inputs", "no_input", "forced", "pump"), 0)
    for net in nets:
        (pre, post, consume, produce), expected = _view_by_definition(net)
        assert (net._pre, net._post, net._consume, net._produce) == (pre, post, consume, produce)
        view = petri._NetView(net)
        assert {field: getattr(view, field) for field in expected} == expected, repr(net)
        shapes["self_loop"] += any(consume[t] != pre[t] for t in net.transitions)
        shapes["two_inputs"] += any(len(pre[t]) > 1 for t in net.transitions)
        shapes["no_input"] += bool(expected["unguarded"])
        shapes["forced"] += bool(expected["forced"])
        shapes["pump"] += bool(expected["pumps"])
    assert min(shapes.values()) >= 20, shapes


def test_keyed_marking_graph_is_exact_for_any_count():
    """Keys are exact at 2**40 tokens: no field width to overflow."""
    net = PetriNet(("p", "q", "r"), ("take", "loop", "make"),
                   [("p", "take"), ("take", "q"), ("q", "loop"), ("loop", "q"),
                    ("make", "r")],
                   {t: Label("a") for t in ("take", "loop", "make")})
    root = Marking({"p": 2**40, "q": 1})
    graph = _MarkingGraph(net)
    row = graph.row(graph.number(root))
    assert [(net.transitions[k], graph.markings[s]) for k, s in row] == [
        ("take", Marking({"p": 2**40 - 1, "q": 2})),
        ("loop", root),
        ("make", Marking({"p": 2**40, "q": 1, "r": 1}))]
    assert graph.number(Marking({"p": 2**40 - 1, "q": 2})) == row[0][1]


def _reference_graph(net, numbered, limit):
    """The marking graph by its definition, over `Marking`s and `fire`: the
    markings of `numbered` take the numbers 0, 1, ... in turn, then the rows
    of numbers 0, 1, ... are filled in turn, at most `limit` of them.  A row
    lists (transition index, successor number) per enabled transition in
    declaration order, and a successor not yet numbered takes the next
    number.  Returns (markings, rows)."""
    markings, number, rows = [], {}, []
    for m in numbered:
        if m not in number:
            number[m] = len(markings)
            markings.append(m)
    for m in markings:   # grows as rows number markings
        if len(rows) == limit:
            break
        row = []
        for t in enabled_transitions(net, m):
            s = fire(net, m, t)
            if s not in number:
                number[s] = len(markings)
                markings.append(s)
            row.append((net.transitions.index(t), number[s]))
        rows.append(tuple(row))
    return markings, rows


def _converting_nets():
    """Hand nets whose marking graphs convert to count keys, each with the
    markings to number first and where it converts.  Each arc is (transition,
    input places, output places), a place list written as a string of
    one-letter place ids."""
    a = Label("a")

    def net(places, arcs, initial, *more, where):
        transitions = sorted({t for t, _, _ in arcs})
        flow = [(p, t) for t, ins, _ in arcs for p in ins]
        flow += [(t, p) for t, _, outs in arcs for p in outs]
        return (PetriNet(places, transitions, flow, {t: a for t in transitions}),
                [Marking(initial), *map(Marking, more)], where)

    return [
        # Two transitions that fill one place: row 1 converts.
        net(("x", "y", "r"), [("t1", "x", "r"), ("t2", "y", "r")], {"x": 1, "y": 1},
            where="row"),
        # An input-less producer: row 1 puts a second token on p.
        net(("p",), [("t", "", "p"), ("u", "p", "")], {}, where="row"),
        # A 2-token initial marking.
        net(("p", "q"), [("t", "p", "q"), ("u", "q", "p")], {"p": 2}, where="number"),
        # A 2-token goal numbered before any row.
        net(("p", "q"), [("t", "p", "q"), ("u", "q", "p")], {"p": 1}, {"q": 2},
            where="number"),
        # Unsafe mid-row: t0 numbers {q, r} safely, then t1 puts a second
        # token on p, so the row is filled again on count keys.
        net(("p", "q", "r"), [("t0", "p", "r"), ("t1", "q", "p"), ("t2", "r", "")],
            {"p": 1, "q": 1}, where="row"),
    ]


def conversion_campaign(seed):
    """Graphs of randgen's suite, counted random nets, random process trees,
    word shuffles and the converting hand nets against `_reference_graph`.
    Process trees and shuffles are safe: their graphs fill every reachable
    row and keep bit keys.  Each hand net converts where it says.  Returns
    how many graphs converted on `number` and in a row."""
    rng = random.Random(seed)
    cases = [(s.net, [s.initial, s.final], None) for s, _ in make_suite(seed, 100)]
    for _ in range(150):
        # Half of the roots and goals are sets, so a row converts.
        net, root = _random_counted_system(rng)
        goal = Marking({p: rng.randint(0, rng.choice((1, 2))) for p in net.places})
        root = rng.choice((root, Marking.of(*root.support())))
        cases.append((net, [goal, root], None))
    for _ in range(40):
        s = tree_to_wfnet(random_tree(rng, 3))
        cases.append((s.net, [s.initial, s.final], "safe"))
    for _ in range(20):
        words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(2, 3))]
        s = gen_shuffle_tsystem(words)
        cases.append((s.net, [s.initial, s.final], "safe"))
    cases += _converting_nets()
    converted = {"number": 0, "row": 0}
    for net, numbered, kind in cases:
        limit = 20000 if kind == "safe" else 60
        markings, rows = _reference_graph(net, numbered, limit)
        graph = _MarkingGraph(net)
        assert [graph.number(m) for m in numbered] == [markings.index(m) for m in numbered]
        on_number = graph._tables is not None
        i = 0
        while i < min(len(graph.markings), limit):
            graph.row(i)
            i += 1
        assert graph.markings == markings, repr(net)
        assert [graph.rows[i] for i in range(len(rows))] == rows and \
            len(graph.rows) == len(rows), repr(net)
        assert_numbered_once(graph)
        where = None if graph._tables is None else "number" if on_number else "row"
        if kind == "safe":
            assert len(rows) == len(markings) and where is None, repr(net)
        elif kind is not None:
            assert where == kind, repr(net)
        if where is not None:
            converted[where] += 1
    return converted


def test_marking_graphs_number_and_fill_rows_as_the_reference_graph():
    """Bit keys and their conversion to count keys change no number, no
    marking and no row: on every graph the numbers of the markings numbered
    first, the markings in number order and every row filled equal those of
    a breadth-first walk over `Marking`s by `fire`.  No process-tree or
    shuffle net converts once all its reachable rows are filled, and both
    ways of converting occur."""
    converted = conversion_campaign(48)
    assert min(converted.values()) >= 20, converted


def test_schedule_counts_with_before():
    """Cluster {a, b} on p; c returns q's token and d returns r's to p.
    Declaration order gives a,c,b,d; making b use up its count before a may
    fire gives b,d,a,c; making a wait for c, which needs a's token, leaves no
    order at all."""
    net = PetriNet(("p", "q", "r"), ("a", "b", "c", "d"),
                   [("p", "a"), ("a", "q"), ("p", "b"), ("b", "r"),
                    ("q", "c"), ("c", "p"), ("r", "d"), ("d", "p")],
                   {t: Label(t) for t in "abcd"})
    counts = {"a": 1, "b": 1, "c": 1, "d": 1}
    p = Marking.of("p")
    assert _schedule_counts(net, p, counts, 100) == ("a", "c", "b", "d")
    assert _schedule_counts(net, p, counts, 100, {"a": ["b"]}) == ("b", "d", "a", "c")
    assert _schedule_counts(net, p, counts, 100, {"a": ["c"]}) is None
    assert _schedule_counts(net, p, {"a": 2, "c": 2}, 100) == ("a", "c", "a", "c")
    with pytest.raises(BudgetExceeded, match="schedule steps"):
        _schedule_counts(net, p, counts, 4, {"a": ["b"]})


def test_schedule_counts_along_a_long_before_chain():
    """2,000 self-loops on p, each waiting for the one declared before it:
    the one order fires them in declaration order, one step per state it
    enters, and a wait of the first on the last leaves no order at all."""
    ts = tuple(f"t{i}" for i in range(2000))
    net = PetriNet(("p",), ts, [arc for t in ts for arc in (("p", t), (t, "p"))],
                   {t: Label("a") for t in ts})
    counts = dict.fromkeys(ts, 1)
    chain = {t: [u] for u, t in zip(ts, ts[1:])}
    p = Marking.of("p")
    assert _schedule_counts(net, p, counts, len(ts) + 1, chain) == ts
    with pytest.raises(BudgetExceeded, match="schedule steps"):
        _schedule_counts(net, p, counts, len(ts), chain)
    assert _schedule_counts(net, p, counts, 10, {**chain, ts[0]: [ts[-1]]}) is None


def test_topological_order_is_last_in_first_out():
    net = PetriNet(("i", "p", "q", "o"), ("t1", "t2", "t3"),
                   [("i", "t1"), ("t1", "p"), ("t1", "q"), ("p", "t2"),
                    ("q", "t3"), ("t2", "o"), ("t3", "o")],
                   {t: Label("a") for t in ("t1", "t2", "t3")})
    assert net.topological_order() == ["i", "t1", "q", "t3", "p", "t2", "o"]


def test_topological_order_leaves_out_cycles(ex1, ex1_acyclic):
    # Every vertex of ex1 is on or behind the loop back to p_init.
    assert ex1.net.topological_order() == []
    net = ex1_acyclic.net
    assert sorted(net.topological_order()) == sorted(net.places + net.transitions)


def test_marking_semantics():
    assert Marking({"p": 1, "q": 0}) == Marking({"p": 1})
    assert Marking({"p": 1}) + Marking({"p": 1, "q": 2}) == Marking({"p": 2, "q": 2})
    assert Marking({"p": 1}) <= Marking({"p": 2, "q": 1})
    assert not Marking({"p": 1, "r": 1}) <= Marking({"p": 2})
    assert Marking({"p": 2}).max_count() == 2
    assert Marking.of("p", "p").counts == {"p": 2}
    with pytest.raises(ValueError):
        Marking({"p": -1})


def test_net_validation():
    with pytest.raises(ValueError):
        PetriNet(("p",), ("p",), [], {"p": Label("a")})
    with pytest.raises(ValueError):
        PetriNet(("p",), ("t",), [("p", "x")], {"t": Label("a")})
    with pytest.raises(ValueError):
        PetriNet(("p", "p"), ("t",), [], {"t": Label("a")})
    with pytest.raises(ValueError):
        PetriNet(("p",), ("t", "t"), [], {"t": Label("a")})


def test_system_markings_name_places_of_the_net(ex1):
    for initial, final in ((Marking.of("nowhere"), ex1.final),
                           (ex1.initial, Marking.of("nowhere"))):
        with pytest.raises(ValueError, match="nowhere"):
            AcceptingSystem(ex1.net, initial, final)


def test_label_rules():
    assert Label(None).silent
    assert not Label("a").silent
    assert str(Label(None)) == "τ"
    with pytest.raises(ValueError):
        Label("not ok")
