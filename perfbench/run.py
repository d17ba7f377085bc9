"""Conformance-checking benchmark: one seeded workload per run, timed from
outside the package, every output checked against an independent reference.

    python3 perfbench/run.py --workload tree_log --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

An op is one `dispatch_align(trace, system)` call with default costs and
budgets, or one `membership(word, system)` call on `tree_membership`.  One
client, one process, one thread, closed loop.  A run measures several
independent logs of the workload, each generated just before its timed pass
and run exactly once, ops in log order, so an op repeats an earlier one only
by chance or where a log itself repeats a trace.  A run has
round(--seconds / PART_SECONDS[workload]) logs: its inputs depend on the seed
and --seconds, never on how fast the code is.

`--trace 0` prints the end-to-end metrics, with every time taken at the
reference speed of `speed.py` and the wall times as measured printed beside
them; `--trace 1` runs the first log traced and then untraced, and prints
the per-layer metrics.  The last line of
standard output is one JSON object.  The exit code is 1 when any output is
wrong or an op was never started, 2 when the package sources are missing.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("tree_log", "ssystem_long", "acyclic_log", "tree_membership")

# Wall time of one log of each workload at the commit that introduced this
# benchmark (2-vCPU Xeon, 2.1 GHz), which sets how many logs a run measures.
PART_SECONDS = {"tree_log": 4.2, "ssystem_long": 4.5, "acyclic_log": 2.2,
                "tree_membership": 1.6}

# Per-op wall-clock guard.  The slowest op that succeeds at the commit that
# introduced this benchmark takes under 1 s; an op running this long is a
# runaway and counts as failed, charged its full time.
GUARD_S = 20.0
# No op starts later than this after process start, so a run always ends
# within the 180 s a run may take.  An op left unstarted makes the run fail.
DEADLINE_S = 120.0


@dataclass(frozen=True)
class Failed:
    """An op that gave no answer: the exception it raised, or NotStarted."""
    kind: str


NOT_STARTED = Failed("NotStarted")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def use_checkout_sources() -> bool:
    """Import petrialign from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "petrialign" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def call(pa, kind: str, model, trace):
    if kind == "align":
        return pa.dispatch_align(trace, model)
    return pa.membership(trace, model)


def run_op(pa, kind, model, trace):
    """One guarded op: (result or Failed, wall seconds)."""
    signal.setitimer(signal.ITIMER_REAL, GUARD_S)
    started = time.perf_counter()
    try:
        result = call(pa, kind, model, trace)
    except pa.errors.PetriAlignError as exc:
        result = Failed(type(exc).__name__)
    except OpTimeout:
        result = Failed("OpTimeout")
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed


def run_pass(pa, w, spans=None, cal=None):
    """Every op of the log once, in order.  Returns (results, wall time of
    each op that ran, its start time).  With `cal`, the host's speed is
    sampled between ops, outside their times.  Ops due more than DEADLINE_S
    after process start are not started and come back as NOT_STARTED."""
    deadline = T0 + DEADLINE_S
    signal.signal(signal.SIGALRM, _on_alarm)
    results: list = []
    latencies, starts = array("d"), array("d")
    gc.collect()
    for k, (i, trace) in enumerate(w.ops):
        now = time.perf_counter()
        if now > deadline:
            results.append(NOT_STARTED)
            continue
        if cal is not None and cal.due(now):
            cal.sample()
        if spans is not None:
            spans.op = k
        starts.append(time.perf_counter())
        result, elapsed = run_op(pa, w.kind, w.models[i], trace)
        results.append(result)
        latencies.append(elapsed)
    if cal is not None:
        cal.sample()
    return results, latencies, starts


def at_reference_speed(cal, latencies, starts) -> array:
    return array("d", (t * cal.scale(s, s + t) for t, s in zip(latencies, starts)))


def warm_up(pa, kind: str) -> float:
    """One op on a two-letter instance that no log contains, so that lazy
    imports and first-call costs fall into set-up and no log model is seen
    before its timed op.  Returns its wall time."""
    system = pa.gen_shuffle_tsystem([["x"], ["y"]])
    started = time.perf_counter()
    call(pa, kind, system, ("x", "y"))
    return time.perf_counter() - started


def check_outputs(pa, w, results):
    """Correctness gate over one pass.  Returns (wrong op indices, number of
    ops checked for validity only because the reference hit its cap)."""
    import reference

    wrong: list[int] = []
    capped = 0
    answers: dict = {}
    for k, (i, trace) in enumerate(w.ops):
        result = results[k]
        if isinstance(result, Failed):
            continue
        model = w.models[i]
        key = (i, trace)
        if w.kind == "member":
            if key not in answers:
                answers[key] = pa.tree_language_member(w.trees[i], trace)
            if result != answers[key]:
                wrong.append(k)
            continue
        try:
            total = pa.validate_alignment(result.alignment, trace, model,
                                          pa.standard_costs(model))
        except pa.errors.PetriAlignError:
            wrong.append(k)
            continue
        if total != result.cost:
            wrong.append(k)
            continue
        if key not in answers:
            try:
                answers[key] = reference.align_cost(trace, model)
            except reference.ReferenceCapped:
                answers[key] = None
        if answers[key] is None:
            capped += 1
        elif answers[key] != result.cost:
            wrong.append(k)
    return wrong, capped


def parts(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PART_SECONDS[workload]))


class Tally:
    """What the correctness gate and the report need from each log, so that
    a log and its results can be dropped once it is checked."""

    def __init__(self):
        self.fingerprints: list[str] = []
        self.shapes: list[dict] = []
        self.routes: dict[str, int] = {}
        # An op never started counts as attempted and unanswered.
        self.attempted = self.unanswered = self.unstarted = self.capped = 0
        self.wrong: list[str] = []

    def add(self, pa, w, results, mismatched=()) -> None:
        import workloads

        part = len(self.fingerprints)
        self.fingerprints.append(w.fingerprint)
        self.shapes.append(workloads.shape(w))
        for r in results:
            name = r.kind if isinstance(r, Failed) else getattr(r, "algorithm", "member")
            self.routes[name] = self.routes.get(name, 0) + 1
        self.attempted += len(results)
        self.unstarted += results.count(NOT_STARTED)
        self.unanswered += sum(isinstance(r, Failed) for r in results)
        bad, capped = check_outputs(pa, w, results)
        self.capped += capped
        for k in sorted(set(bad) | set(mismatched)):
            i, trace = w.ops[k]
            self.wrong.append(f"op {k} of log {part}: model {w.labels[i]} trace {','.join(trace)}")

    @property
    def failed(self) -> int:
        return self.unanswered + len(self.wrong)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unstarted


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, pa, import_s: float, tally: Tally):
    """Build, run and check the run's logs one after another.  A log is
    checked after its timed pass and then dropped, so no pass carries the
    results of earlier ones.  Times are reported at the reference speed of
    `speed.py`; the wall times as measured are printed beside them."""
    import speed
    import workloads

    cal = speed.Calibration()
    # Arrays, not lists: on tree_membership a run times 139,392 ops, and the
    # benchmark's own records should add little to peak_rss_mb.
    raw, latencies, builds = array("d"), array("d"), []
    warm = peak_rss_mb = 0.0
    ok = 0
    for part in range(parts(args.workload, args.seconds)):
        started = time.perf_counter()
        w = workloads.build(args.workload, args.seed, part)
        builds.append((started, time.perf_counter()))
        if part == 0:
            warm = warm_up(pa, w.kind)
            setup_end = time.perf_counter()
        results, lat, starts = run_pass(pa, w, cal=cal)
        # Read before the gate of this log runs; the gates of earlier logs
        # leave the high-water mark where the passes left it, except that
        # tree_language_member adds about 1 MB on tree_membership.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw += lat
        latencies += at_reference_speed(cal, lat, starts)
        ok += sum(not isinstance(r, Failed) for r in results)
        tally.add(pa, w, results)
    if not latencies:
        return {}, {"timed_s": 0.0}
    build_s = [(t1 - t0) * cal.scale(t0, t1) for t0, t1 in builds]
    metrics = {
        # Process start to the first timed op, with the log's generation,
        # translation and round trip taken as the median over the run's logs.
        "setup_s": metric((import_s + warm) * cal.scale(T0, setup_end)
                          + statistics.median(build_s), "s"),
        "ops_per_s": metric(ok / sum(latencies), "ops/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": metric(statistics.quantiles(latencies, n=20)[18] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, {"host_speed": round(cal.speed(), 3), "timed_s": round(sum(raw), 3),
                     "wall_ops_per_s": round(ok / sum(raw), 2),
                     "wall_latency_p50_ms": round(statistics.median(raw) * 1e3, 4),
                     "wall_latency_p95_ms": round(statistics.quantiles(raw, n=20)[18] * 1e3, 4),
                     "build_s": [round(t1 - t0, 4) for t0, t1 in builds],
                     "import_s": round(import_s, 4), "warm_up_s": round(warm, 4)}


def traced(args, pa, tally: Tally):
    """The first log traced, then the same log rebuilt and run untraced.
    The traced pass runs first, so that its per-layer figures are those of
    a log the process has not seen."""
    import speed
    import tracing
    import workloads

    warm_up(pa, "member" if args.workload == "tree_membership" else "align")
    cal = speed.Calibration()
    spans = tracing.Spans()
    tracer = tracing.Tracer(spans)
    tracer.install()
    try:
        tw = workloads.build(args.workload, args.seed, 0, spans)
        first, traced_lat, traced_starts = run_pass(pa, tw, spans, cal)
    finally:
        tracer.uninstall()
    w = workloads.build(args.workload, args.seed, 0)
    plain, plain_lat, plain_starts = run_pass(pa, w, cal=cal)
    mismatched = [k for k in range(len(w.ops)) if first[k] != plain[k]]
    if tw.fingerprint != w.fingerprint:
        mismatched = list(range(len(w.ops)))
    tally.add(pa, w, plain, mismatched)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    spans.write(span_file)

    plain_s = sum(at_reference_speed(cal, plain_lat, plain_starts))
    overhead = sum(at_reference_speed(cal, traced_lat, traced_starts)) / plain_s if plain_s else 0.0
    metrics = layer_metrics(spans, tracer.absent, first, overhead)
    return metrics, {"span_file": str(span_file.relative_to(ROOT)),
                     "trace_mismatches": len(mismatched), "absent": sorted(tracer.absent)}


def layer_metrics(spans, absent: set, results, overhead: float) -> dict:
    """Per-layer metrics from the traced pass; a metric whose source is
    absent from the package is left out (and listed by the caller)."""
    algos = [r.algorithm for r in results if hasattr(r, "algorithm")]
    settled = {a: sum(r.states_expanded for r in results
                      if getattr(r, "algorithm", None) == a) for a in ("generic", "ssystem", "acyclic")}
    amounts = spans.amounts
    out: dict = {}

    def put(name, unit, needs, value):
        if not set(needs) & absent:
            out[name] = metric(value() if callable(value) else value, unit)

    put("classify.structural_s", "s", ["classify.structural"], lambda: spans.total("classify.structural"))
    put("classify.structural_calls", "count", ["classify.structural"],
        lambda: len(spans.by_name("classify.structural")))
    put("classify.behavioral_s", "s", ["classify.behavioral"], lambda: spans.total("classify.behavioral"))
    put("classify.behavioral_calls", "count", ["classify.behavioral"],
        lambda: len(spans.by_name("classify.behavioral")))
    put("classify.behavioral_states", "count", ["classify.behavioral"],
        lambda: amounts.get("classify.behavioral", 0))
    put("classify.behavioral_budget_hits", "count", ["classify.behavioral"],
        lambda: spans.errors("classify.behavioral", "BudgetExceeded"))
    put("products.sync_product_s", "s", ["products.trace_system", "products.sync_product"],
        lambda: spans.total("products.trace_system") + spans.total("products.sync_product"))
    put("products.sync_product_transitions", "count", ["products.sync_product"],
        lambda: amounts.get("products.sync_product", 0))
    put("products.reach_graph_s", "s", ["products.reach_graph"], lambda: spans.total("products.reach_graph"))
    put("products.rg_product_s", "s", ["products.rg_product"], lambda: spans.total("products.rg_product"))
    put("products.rg_product_vertices", "count", ["products.rg_product"],
        lambda: amounts.get("products.rg_product", 0))
    put("engine.dispatch_self_s", "s", ["engine.dispatch"], lambda: spans.self_time("engine.dispatch"))
    put("engine.search_s", "s", ["engine.search"], lambda: spans.total("engine.search"))
    put("engine.states_settled", "count", [], settled["generic"])
    put("engine.us_per_state", "us", ["engine.search"],
        lambda: spans.total("engine.search") * 1e6 / settled["generic"] if settled["generic"] else 0.0)
    put("engine.budget_hits", "count", ["engine.generic"],
        lambda: spans.errors("engine.generic", "BudgetExceeded"))
    put("engine.member_s", "s", ["engine.member"], lambda: spans.total("engine.member"))
    put("engine.member_calls", "count", ["engine.member"], lambda: len(spans.by_name("engine.member")))
    for route in ("generic", "ssystem", "acyclic"):
        put(f"engine.route.{route}", "count", [], algos.count(route))
    put("petri.fire_calls", "count", ["petri.fire"], lambda: spans.counts["petri.fire"])
    put("petri.enabled_scans", "count", ["petri.enabled"], lambda: spans.counts["petri.enabled"])
    put("ssystem.self_s", "s", ["ssystem.solve"], lambda: spans.self_time("ssystem.solve"))
    put("ssystem.states_settled", "count", [], settled["ssystem"])
    put("acyclic.self_s", "s", ["acyclic.solve"], lambda: spans.self_time("acyclic.solve"))
    put("acyclic.nodes", "count", [], settled["acyclic"])
    put("acyclic.schedule_calls", "count", ["acyclic.schedule"],
        lambda: len(spans.by_name("acyclic.schedule")))
    put("acyclic.schedule_s", "s", ["acyclic.schedule"], lambda: spans.total("acyclic.schedule"))
    put("acyclic.accept_ratio", "ratio", ["acyclic.schedule"],
        lambda: (amounts.get("acyclic.schedule", 0) / len(spans.by_name("acyclic.schedule"))
                 if spans.by_name("acyclic.schedule") else 0.0))
    put("acyclic.budget_hits", "count", ["acyclic.solve"],
        lambda: spans.errors("acyclic.solve", "BudgetExceeded"))
    put("netio.parse_s", "s", ["netio.parse"], lambda: spans.total("netio.parse"))
    put("trees.to_wfnet_s", "s", ["trees.to_wfnet"], lambda: spans.total("trees.to_wfnet"))
    put("generators.gen_s", "s", [], lambda: spans.self_time("generators.gen"))
    put("trace.overhead_ratio", "ratio", [], overhead)
    return out


def run_one(args, import_s: float) -> int:
    import petrialign as pa
    import workloads

    tally = Tally()
    if args.trace:
        metrics, info = traced(args, pa, tally)
    else:
        metrics, info = end_to_end(args, pa, import_s, tally)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"fingerprint {workloads.fingerprint(tally.fingerprints)}")
    print("inputs " + json.dumps(workloads.describe(tally.shapes)))
    print("routes " + json.dumps(tally.routes))
    print(f"attempted {tally.attempted}  failed {tally.failed}  wrong {len(tally.wrong)}  "
          f"not-started {tally.unstarted}  error_rate {tally.failed / tally.attempted:.4f}  "
          f"validity-only {tally.capped}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for line in tally.wrong[:10]:
        print(f"WRONG {line}")
    for name, m in metrics.items():
        extra = f"  (over {tally.attempted} ops)" if name.startswith("latency_") else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no package sources at {ROOT / 'src' / 'petrialign'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import petrialign  # noqa: F401
    import workloads  # noqa: F401
    return run_one(args, time.perf_counter() - T0)


if __name__ == "__main__":
    sys.exit(main())
