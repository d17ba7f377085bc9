"""Command-line surface: classify, align, member, shorten, gen, bench.

Exit codes: 0 success, 2 parse/usage error, 3 budget exceeded, 4 precondition
violated.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import errors
from .classify import DEFAULT_B_MAX, _bounded_then_behavioral, structural_class
from .costs import render_alignment
from .engine import Budgets, dispatch_align, lbfc_cap, membership, optimal_alignment
from .fixtures import choice_ssystem, ex1_system
from .acyclic import optimal_alignment_acyclic
from .generators import gen_shuffle_ssystem, gen_shuffle_tsystem, gen_tm_wfnet
from .netio import parse_cost_file, parse_net, parse_tm, parse_trace, serialize_net
from .petri import DEFAULT_STATE_BUDGET
from .shorten import shorten_lbfc
from .ssystem import optimal_alignment_ssystem
from .trees import parse_tree, tree_to_wfnet

USAGE_ERROR, BUDGET_ERROR, PRECONDITION_ERROR = 2, 3, 4

_BUDGET_ERRORS = (errors.BudgetExceeded, errors.CapExhausted, errors.StepCapExceeded)
_PARSE_ERRORS = (errors.ParseError, errors.DisconnectedNet)


def _load_system(path: str):
    return parse_net(Path(path).read_text())


def _budget(text: str) -> int:
    """Argument type of the budget and bound options: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _flag(value: bool) -> str:
    return "true" if value else "false"


_BEHAVIORAL_FLAGS = ("safe", "quasi_live", "live", "cyclic", "easy_sound", "sound")


def _cmd_classify(args) -> int:
    sys_ = _load_system(args.net)
    srep = structural_class(sys_.net, sys_.initial, sys_.final)
    for name in ("free_choice", "s_net", "t_net", "conflict_free", "acyclic",
                 "workflow_shape"):
        print(f"{name}={_flag(getattr(srep, name))}")
    try:
        # One exploration: a place blowing past --bound stops it with a
        # witness instead of burning the full state budget.
        rep = _bounded_then_behavioral(sys_, args.bound, args.states)
        if rep.bound_found is None:
            place, marking, _ = rep.certificates["exceeded"]
            print(f"bound_found=exceeds_{args.bound}")
            print(f"safe={_flag(rep.safe)}")
            for name in _BEHAVIORAL_FLAGS[1:]:
                print(f"{name}=inconclusive")
            print(f"states_explored={rep.states_explored}")
            print(f"note: place {place} holds {marking[place]} tokens at "
                  f"{marking}", file=sys.stderr)
            return 0
        print(f"bound_found={rep.bound_found}")
        for name in _BEHAVIORAL_FLAGS:
            print(f"{name}={_flag(getattr(rep, name))}")
        print(f"states_explored={rep.states_explored}")
    except errors.BudgetExceeded as exc:
        print("bound_found=inconclusive")
        for name in _BEHAVIORAL_FLAGS:
            print(f"{name}=inconclusive")
        print(f"states_explored={exc.discovered}")
        print(f"note: {exc}", file=sys.stderr)
    return 0


def _cmd_align(args) -> int:
    sys_ = _load_system(args.net)
    trace = parse_trace(args.trace)
    c = parse_cost_file(Path(args.costs).read_text(), sys_) if args.costs else None
    if args.algo == "auto":
        result = dispatch_align(trace, sys_, c, Budgets(states=args.states))
    elif args.algo == "generic":
        result = optimal_alignment(trace, sys_, c, state_budget=args.states)
    elif args.algo == "ssystem":
        result = optimal_alignment_ssystem(trace, sys_, c, state_budget=args.states)
    else:
        result = optimal_alignment_acyclic(trace, sys_, c, state_budget=args.states)
    print(f"cost={result.cost}")
    print(f"algorithm={result.algorithm}")
    print(f"states={result.states_expanded}")
    if args.algo == "auto" and (cap := lbfc_cap(sys_, len(trace), args.states)) is not None:
        print(f"lbfc_cap={cap}")
    block = render_alignment(result.alignment, sys_)
    if block:
        print(block)
    return 0


def _cmd_member(args) -> int:
    sys_ = _load_system(args.net)
    trace = parse_trace(args.trace)
    verdict = membership(trace, sys_, state_budget=args.states)
    print(f"member={'true' if verdict else 'false'}")
    return 0


def _cmd_shorten(args) -> int:
    sys_ = _load_system(args.net)
    seq = parse_trace(args.seq)
    result = shorten_lbfc(sys_.net, sys_.initial, seq, args.bound,
                          search_budget=args.budget)
    print(f"original_length={result.input_length}")
    print(f"shortened_length={result.output_length}")
    print(f"bound={result.bound_value}")
    print(f"sequence={','.join(result.sequence)}")
    if result.search_exhausted:
        print("search budget exhausted; returned the original sequence",
              file=sys.stderr)
        return BUDGET_ERROR
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "shuffle":
        system = gen_shuffle_tsystem([tuple(w) for w in args.words])
    elif args.kind == "sshuffle":
        system = gen_shuffle_ssystem(tuple(args.word), args.tokens)
    elif args.kind == "tree":
        system = tree_to_wfnet(parse_tree(Path(args.file).read_text()))
    else:  # tm
        tm = parse_tm(Path(args.file).read_text())
        system, trace = gen_tm_wfnet(tm, parse_trace(args.input), step_cap=args.steps)
        print(f"# trace: {','.join(trace)}")
    sys.stdout.write(serialize_net(system))
    return 0


_BENCH_TRACES = {
    "ex1_deviating": "a,b,a,a",
    "ex1_fitting": "a,b,a,b",
    "ex1_empty": "",
}


def _bench_instances():
    ex1 = ex1_system()
    for name, text in sorted(_BENCH_TRACES.items()):
        yield name, ex1, parse_trace(text)
    shuffle = gen_shuffle_tsystem([("a", "b"), ("c", "d")])
    yield "shuffle_ab_cd", shuffle, ("a", "c", "b", "d")
    sline = gen_shuffle_ssystem(("a", "b"), 2)
    yield "sshuffle_ab_2", sline, ("a", "a", "b", "b")
    yield "choice_ssystem", choice_ssystem(), ("a", "c", "b", "a", "c", "a", "d")
    tree = parse_tree("seq(a, par(b, c), xor(d, tau))")
    yield "tree_seq_par_xor", tree_to_wfnet(tree), ("a", "c", "b")


def _cmd_bench(args) -> int:
    budgets = Budgets(states=args.states)
    rows = []
    for name, system, trace in _bench_instances():
        started = time.perf_counter()
        result = dispatch_align(trace, system, budgets=budgets)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append((name, result.algorithm, str(result.cost),
                     result.states_expanded, elapsed_ms))
    width = max(len(r[0]) for r in rows)
    print(f"{'instance'.ljust(width)}  algorithm  cost  states  ms")
    for name, algo, cost, states, ms in rows:
        print(f"{name.ljust(width)}  {algo:<9}  {cost:<4}  {states:<6}  {ms:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrialign",
        description="Conformance checking for Petri-net process models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_states(p, what="states explored"):
        p.add_argument("--states", type=_budget, default=DEFAULT_STATE_BUDGET,
                       help=f"search budget: {what} (default 10^6)")

    p = sub.add_parser("classify", help="structural and behavioral class report")
    p.add_argument("net")
    p.add_argument("--bound", type=_budget, default=DEFAULT_B_MAX,
                   help="place bound checked before deeper analysis")
    add_states(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("align", help="optimal alignment of a trace against a net")
    p.add_argument("net")
    p.add_argument("--trace", required=True)
    p.add_argument("--algo", choices=("auto", "generic", "ssystem", "acyclic"),
                   default="auto")
    p.add_argument("--costs", help="cost override file")
    add_states(p, "settled states of the search")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("member", help="language membership of a trace")
    p.add_argument("net")
    p.add_argument("--trace", required=True)
    add_states(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("shorten", help="shorten a replayable firing sequence")
    p.add_argument("net")
    p.add_argument("--seq", required=True, help="comma-separated transition ids")
    p.add_argument("--bound", type=_budget, default=1, help="place bound b")
    p.add_argument("--budget", type=_budget, default=200_000,
                   help="states the search for an ordered permutation enters")
    p.set_defaults(func=_cmd_shorten)

    p = sub.add_parser("gen", help="generate instance nets")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("shuffle", help="shuffle T-system from words")
    g.add_argument("words", nargs="+")
    g = gen_sub.add_parser("sshuffle", help="multi-token S-system from one word")
    g.add_argument("word")
    g.add_argument("tokens", type=int)
    g = gen_sub.add_parser("tm", help="workflow net from a machine file")
    g.add_argument("file")
    g.add_argument("--input", default="", help="input word (comma-separated)")
    g.add_argument("--steps", type=_budget, default=100_000)
    g = gen_sub.add_parser("tree", help="workflow net from a process-tree file")
    g.add_argument("file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run the built-in benchmark table")
    add_states(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except _BUDGET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except errors.PetriAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
