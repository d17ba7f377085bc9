"""Seeded workload generators for the conformance-checking benchmark.

Every workload is a log: a list of models plus operations ``(model index,
trace)`` grouped by model, in the order the generator emitted them.  A run
measures several independent logs of one workload, its parts; all randomness
of part k comes from one ``random.Random`` seeded with the workload, the seed
and k, so one seed gives one sequence of logs and one fingerprint each.  The
generators live here, not in the test suite, so that edits to the tests
cannot change what the benchmark measures.

Generator parameters are fixed per workload.  No instance is ever redrawn
because a solver fails or is slow on it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import statistics
from dataclasses import dataclass

import petrialign as pa
from petrialign.trees import ProcessTree

LETTERS = tuple("abcdefghij")
CYCLIC = ("seq", "xor", "par", "loop")
ACYCLIC = ("seq", "xor", "par")

# Share of a replayed trace's letters that are deleted, inserted or substituted.
NOISE = 0.12


@dataclass
class Workload:
    name: str
    kind: str                  # "align" or "member"
    models: list               # AcceptingSystem, after serialize_net -> parse_net
    trees: list                # ProcessTree per model, or None when not a tree
    labels: list               # name of each model
    ops: list                  # (model index, trace) in log order
    fingerprint: str


# ---------------------------------------------------------------- process trees

def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of total into parts positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def draw_tree(rng: random.Random, leaves: int, alphabet, kinds, par_depth: int = 1,
              silent_share: float = 0.1, root: str | None = None) -> ProcessTree:
    """Random process tree with exactly `leaves` leaves and, if given, the
    operator `root` at the top.

    `par_depth` limits how many `par` operators may nest on one root-to-leaf
    path, which caps the width of the state space.
    """
    if leaves == 1:
        if rng.random() < silent_share:
            return ProcessTree("silent")
        return ProcessTree("activity", rng.choice(alphabet))
    choices = [k for k in kinds if k != "par" or par_depth > 0]
    kind = root or rng.choice(choices)
    arity = 2 if kind == "loop" else rng.randint(2, min(3, leaves))
    depth = par_depth - (kind == "par")
    children = tuple(draw_tree(rng, n, alphabet, kinds, depth, silent_share)
                     for n in _split(rng, leaves, arity))
    return ProcessTree(kind, children=children)


def _has_loop(tree: ProcessTree) -> bool:
    return tree.kind == "loop" or any(_has_loop(c) for c in tree.children)


def inner_states(tree: ProcessTree) -> int:
    """Token configurations strictly inside the tree's workflow net fragment:
    an estimate of its reachable markings, computed from the tree alone."""
    inner = [inner_states(c) for c in tree.children]
    if tree.kind == "seq":
        return sum(inner) + len(inner) - 1
    if tree.kind == "xor":
        return sum(inner)
    if tree.kind == "loop":
        return sum(inner) + 2
    if tree.kind == "par":
        product = 1
        for n in inner:
            product *= n + 2
        return product
    return 0


def draw_bounded_tree(rng: random.Random, leaves: int, alphabet, kinds,
                      states: tuple[int, int], root: str, need_loop: bool = False,
                      silent_share: float = 0.1, par_depth: int = 1) -> ProcessTree:
    """draw_tree with the given root operator, redrawn until inner_states
    lies in the closed range `states`, every letter of the alphabet occurs
    and, if asked, a loop occurs.  The root and the range fix the shape and
    size of the state space, so that per-model cost, and with it the
    workload's figures, vary little by seed."""
    for _ in range(5000):
        tree = draw_tree(rng, leaves, alphabet, kinds, par_depth, silent_share, root)
        if states[0] <= inner_states(tree) <= states[1] \
                and (_has_loop(tree) or not need_loop) \
                and len(pa.tree_alphabet(tree)) == len(alphabet):
            return tree
    raise ValueError(f"no {leaves}-leaf tree with {states} states")


def sample_word(rng: random.Random, tree: ProcessTree, repeat: float = 0.4) -> list[str]:
    """One word of the tree's language; a loop repeats with probability `repeat`."""
    if tree.kind == "activity":
        return [tree.label]
    if tree.kind == "silent":
        return []
    if tree.kind == "seq":
        return [a for c in tree.children for a in sample_word(rng, c, repeat)]
    if tree.kind == "xor":
        return sample_word(rng, rng.choice(tree.children), repeat)
    if tree.kind == "par":
        return shuffle_words(rng, [sample_word(rng, c, repeat) for c in tree.children])
    do, redo = tree.children
    word = sample_word(rng, do, repeat)
    while rng.random() < repeat:
        word += sample_word(rng, redo, repeat) + sample_word(rng, do, repeat)
    return word


def shuffle_words(rng: random.Random, words) -> list[str]:
    """Uniformly random interleaving of the words, each kept in order."""
    slots = [i for i, w in enumerate(words) for _ in w]
    rng.shuffle(slots)
    cursors = [0] * len(words)
    out = []
    for i in slots:
        out.append(words[i][cursors[i]])
        cursors[i] += 1
    return out


def add_noise(rng: random.Random, word, alphabet, slot: int) -> tuple[str, ...]:
    """Delete, insert or substitute letters at distinct random positions.

    A trace of n letters gets int(NOISE * n + d) edits, where the dither d
    cycles through 0, 1/4, 1/2, 3/4 with `slot`, and the kinds of edit cycle
    with `slot` too: the number and kinds of edits per trace then follow the
    same schedule under every seed, which keeps the cost of the log from
    varying with the seed more than it must.
    """
    word = list(word)
    edits = min(int(NOISE * len(word) + (slot % 4) / 4), len(word))
    for e, pos in enumerate(sorted(rng.sample(range(len(word)), edits), reverse=True)):
        edit = (slot + e) % 3
        if edit == 0:
            del word[pos]
        elif edit == 1:
            word.insert(pos, rng.choice(alphabet))
        else:
            word[pos] = rng.choice(alphabet)
    return tuple(word)


# ---------------------------------------------------------------- S-systems

def draw_ssystem(rng: random.Random, places: int, transitions: int, alphabet):
    """Single-token S-system: a spanning path p0 -> ... -> p_last keeps the
    final place reachable from every place, one visible arc leaves the final
    place, and the other transitions join random places (back arcs make
    cycles).
    Returns (system, out-arcs per place)."""
    names = [f"p{i}" for i in range(places)]
    arcs = [(names[i], names[i + 1]) for i in range(places - 1)]
    arcs.append((names[-1], rng.choice(names[:-1])))
    while len(arcs) < transitions:
        arcs.append((rng.choice(names), rng.choice(names)))
    flow, labels, out = [], {}, {p: [] for p in names}
    for j, (src, dst) in enumerate(arcs):
        t = f"t{j}"
        # The arc leaving the final place is visible, so a walk can always
        # reach a visible arc and never circles on silent arcs alone.
        silent = j != places - 1 and rng.random() < 0.1
        label = pa.Label(None) if silent else pa.Label(rng.choice(alphabet))
        flow += [(src, t), (t, dst)]
        labels[t] = label
        out[src].append((label.name, dst))
    net = pa.PetriNet(names, [f"t{j}" for j in range(len(arcs))], flow, labels)
    system = pa.AcceptingSystem(net, pa.Marking.of(names[0]), pa.Marking.of(names[-1]))
    return system, out


def ssystem_word(rng: random.Random, out, first: str, last: str, length: int) -> list[str]:
    """Random walk of at least `length` letters that ends on the final place:
    once long enough it follows the spanning path (each place's first arc)."""
    word, place = [], first
    while not (place == last and len(word) >= length):
        label, place = out[place][0] if len(word) >= length else rng.choice(out[place])
        if label is not None:
            word.append(label)
    return word


# ---------------------------------------------------------------- workloads

def draw_word(rng: random.Random, tree: ProcessTree, lo: int, hi: int) -> list[str]:
    """A word of the tree's language with lo..hi letters, redrawn until it
    fits; the draw closest to the range after 200 tries otherwise."""
    best, miss = None, None
    for _ in range(200):
        word = sample_word(rng, tree)
        off = max(lo - len(word), len(word) - hi, 0)
        if off == 0:
            return word
        if miss is None or off < miss:
            best, miss = word, off
    return best


def _ex1_word(rng: random.Random, reps: int) -> list[str]:
    """A word of ex1's language (aab|aba)+b with the given repetitions."""
    word = []
    for _ in range(reps):
        word += rng.choice((["a", "a", "b"], ["a", "b", "a"]))
    return word + ["b"]


def _variants(rng: random.Random, tree: ProcessTree, alphabet, lengths, slot: int) -> list:
    """Two noisy variants of about lengths[0] and lengths[1] letters, the
    first seen twice and the second once, in random order."""
    traces = []
    for k, (n, count) in enumerate(zip(lengths, (2, 1))):
        variant = add_noise(rng, draw_word(rng, tree, n - 2, n + 2), alphabet, slot + k)
        traces += [variant] * count
    rng.shuffle(traces)
    return traces


def gen_tree_log(rng: random.Random):
    """56 narrow cyclic process trees (13-55 transitions, about 2-3 markings
    per leaf), each with skewed repeated variants, and 16 wide ones (20-48
    transitions, nested `par`, 300-450 markings) whose state space makes
    `behavioral_class` weigh about as much as the search, with one trace
    each; plus ex1 traces of about 8, 16, 32 and 64 letters."""
    drawn = []
    for i in range(56):
        leaves = 9 + (18 * i) // 55
        alphabet = LETTERS[:4 + i % 4]
        tree = draw_bounded_tree(rng, leaves, alphabet, CYCLIC, (2 * leaves, 3 * leaves),
                                 CYCLIC[i % 4], need_loop=True)
        # Which length is the frequent variant alternates with the tree.
        lengths = (5, 10) if i % 2 else (10, 5)
        drawn.append((f"tree{i}", tree, None, _variants(rng, tree, alphabet, lengths, i)))
    # One trace per wide tree: their ops are then about 8% of the log, so the
    # p95 falls near the middle of the wide ops' latencies, and 16 trees per
    # log keep the seed from moving it much.
    for i in range(16):
        leaves = 14 + (10 * i) // 15
        alphabet = LETTERS[:4 + i % 4]
        tree = draw_bounded_tree(rng, leaves, alphabet, CYCLIC, (300, 450), "par",
                                 need_loop=True, par_depth=2)
        n = 4 if i % 2 else 6
        trace = add_noise(rng, draw_word(rng, tree, n - 2, n + 2), alphabet, i)
        drawn.append((f"wide{i}", tree, None, [trace]))
    ex1_traces = []
    for reps in (2, 5, 10, 21):
        ex1_traces.append(add_noise(rng, _ex1_word(rng, reps), ("a", "b"), reps))
    drawn.append(("ex1", None, pa.ex1_system(), ex1_traces))
    return "align", drawn


def gen_ssystem_long(rng: random.Random):
    """20 single-token S-systems (5-15 places, 6-18 transitions) with long,
    mostly distinct noisy traces of 40-100 events."""
    drawn = []
    alphabet = LETTERS[:8]
    for i in range(20):
        places = 5 + (10 * i) // 19
        system, out = draw_ssystem(rng, places, places + places // 4, alphabet)
        first, last = system.initial.support()[0], system.final.support()[0]
        traces = [add_noise(rng, ssystem_word(rng, out, first, last,
                                              rng.randint(40, 100)), alphabet, k)
                  for k in range(5)]
        drawn.append((f"ssys{i}", None, system, traces))
    return "align", drawn


def _unique_labels(rng: random.Random, tree: ProcessTree) -> ProcessTree:
    """The tree with its activities relabelled by distinct letters."""
    letters = iter(rng.sample(LETTERS, len(LETTERS)))

    def walk(node):
        if node.kind == "activity":
            return ProcessTree("activity", next(letters))
        return ProcessTree(node.kind, children=tuple(walk(c) for c in node.children))

    return walk(tree)


def overlapping_words(rng: random.Random, pool, lengths, pattern: int) -> list[list[str]]:
    """Words of distinct letters where each word after the first shares
    exactly one letter with the word before it and no other letter with any
    word.  Shared letters are what make the acyclic search branch, so their
    number and places are fixed by `pattern`, and only the letters drawn."""
    letters = rng.sample(pool, sum(lengths) - len(lengths) + 1)
    words = [letters[:lengths[0]]]
    used = lengths[0]
    for n in lengths[1:]:
        shared = words[-1][pattern % len(words[-1])]
        word = letters[used:used + n - 1]
        used += n - 1
        word.insert((pattern // 2) % n, shared)
        words.append(word)
    return words


SHUFFLE_SHAPES = ((2, 2, 2), (3, 3), (3, 3, 3), (4, 4))


def gen_acyclic_log(rng: random.Random):
    """Loop-free process trees with unique labels, and shuffle T-systems of
    2-3 words over an 8-letter pool, with interleaved noisy traces."""
    drawn = []
    for i in range(48):
        leaves = 4 + (4 * i) // 47
        tree = _unique_labels(rng, draw_bounded_tree(rng, leaves, ("a",), ACYCLIC,
                                                     (leaves, 3 * leaves), ACYCLIC[i % 3]))
        alphabet = pa.tree_alphabet(tree)
        traces = [add_noise(rng, sample_word(rng, tree), alphabet, k) for k in range(4)]
        drawn.append((f"tree{i}", tree, None, traces))
    pool = LETTERS[:8]
    for i in range(48):
        shape = SHUFFLE_SHAPES[i % len(SHUFFLE_SHAPES)]
        words = overlapping_words(rng, pool, shape, i // len(SHUFFLE_SHAPES))
        system = pa.gen_shuffle_tsystem(words)
        traces = [add_noise(rng, shuffle_words(rng, words), pool, k) for k in range(4)]
        drawn.append((f"shuffle{i}", None, system, traces))
    return "align", drawn


def gen_tree_membership(rng: random.Random, max_len: int = 4):
    """Every word up to max_len over each tree's alphabet, as in the tree
    translation acceptance criterion."""
    drawn = []
    for i in range(96):
        leaves = 5 + (7 * i) // 95
        tree = draw_bounded_tree(rng, leaves, LETTERS[:3], CYCLIC, (2 * leaves, (5 * leaves) // 2),
                                 CYCLIC[i % 4], silent_share=0)
        letters = pa.tree_alphabet(tree)
        words = [w for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)]
        drawn.append((f"tree{i}", tree, None, words))
    return "member", drawn


GENERATORS = {
    "tree_log": gen_tree_log,
    "ssystem_long": gen_ssystem_long,
    "acyclic_log": gen_acyclic_log,
    "tree_membership": gen_tree_membership,
}


def build(name: str, seed: int, part: int = 0, spans=None) -> Workload:
    """Generate part `part` of the workload's logs, translate its trees, and
    round-trip every model through the net file format.  `spans` (optional)
    records the generation phase; the traced run records tree translation
    and parsing at the package's own functions."""
    rng = random.Random(f"{name}:{seed}:{part}")
    if spans is not None:
        spans.begin("generators.gen")
    kind, drawn = GENERATORS[name](rng)
    if spans is not None:
        spans.end()
    systems = [pa.tree_to_wfnet(tree) if tree is not None else system
               for _, tree, system, _ in drawn]
    texts = [pa.serialize_net(s) for s in systems]
    models = [pa.parse_net(t) for t in texts]
    ops = [(i, tuple(trace)) for i, (_, _, _, traces) in enumerate(drawn) for trace in traces]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode() + b"\0")
    for i, trace in ops:
        digest.update(f"{i}:{','.join(trace)}\n".encode())
    return Workload(name, kind, models, [d[1] for d in drawn], [d[0] for d in drawn],
                    ops, digest.hexdigest()[:16])


def fingerprint(fingerprints) -> str:
    """One hash over the fingerprints of a run's logs, in order."""
    return hashlib.sha256(" ".join(fingerprints).encode()).hexdigest()[:16]


def shape(w: Workload) -> dict:
    """The input properties of one log that `describe` summarises."""
    return {"sizes": [(len(m.net.places), len(m.net.transitions)) for m in w.models],
            "lengths": [len(t) for _, t in w.ops], "distinct": len(set(w.ops))}


def describe(shapes) -> dict:
    """Input properties that later performance claims depend on, over all of
    a run's logs."""
    sizes = [s for sh in shapes for s in sh["sizes"]]
    lengths = [n for sh in shapes for n in sh["lengths"]]
    q = statistics.quantiles(lengths, n=4) if len(lengths) > 1 else [lengths[0]] * 3
    return {
        "logs": len(shapes),
        "models": len(sizes),
        "places": [min(p for p, _ in sizes), max(p for p, _ in sizes)],
        "transitions": [min(t for _, t in sizes), max(t for _, t in sizes)],
        "ops": len(lengths),
        "trace_len_quartiles": [round(x, 1) for x in q],
        "distinct_share": round(sum(sh["distinct"] for sh in shapes) / len(lengths), 3),
    }
