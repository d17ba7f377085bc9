"""Tests of the benchmark itself: determinism of its inputs and counts, and
that its correctness gate rejects wrong outputs.  Run with

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import petrialign as pa
import pytest

import reference
import run
import speed
import tracing
import workloads


def sliced(name, seed, count):
    w = workloads.build(name, seed)
    return dataclasses.replace(w, ops=w.ops[:count])


def traced_pass(w):
    spans = tracing.Spans()
    tracer = tracing.Tracer(spans)
    tracer.install()
    try:
        first, *_ = run.run_pass(pa, w, spans)
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(spans, tracer.absent, first, 1.0)
    return first, {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_gives_one_fingerprint(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.fingerprint == b.fingerprint
    assert a.ops == b.ops
    assert workloads.build(name, 8).fingerprint != a.fingerprint
    # The logs of one run are independent draws, not one log repeated.
    assert workloads.build(name, 7, 1).fingerprint != a.fingerprint


@pytest.mark.parametrize("name,count", [("tree_log", 40), ("ssystem_long", 10),
                                        ("acyclic_log", 60), ("tree_membership", 400)])
def test_counts_repeat_and_tracing_changes_no_result(name, count):
    w = sliced(name, 3, count)
    plain, *_ = run.run_pass(pa, w)
    first, counts = traced_pass(w)
    again, counts_again = traced_pass(w)
    assert first == plain == again
    assert counts == counts_again
    assert counts["petri.fire_calls"] > 0
    assert sum(counts[f"engine.route.{r}"] for r in ("generic", "ssystem", "acyclic")) \
        == (count if w.kind == "align" else 0)


def test_calibration_scales_by_the_samples_around_an_interval():
    cal = speed.Calibration()
    cal.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    cal.kernel_s = [speed.REF_S] * 4 + [2 * speed.REF_S] * 4
    # Two samples on each side of [2.5, 2.6], all four at the reference speed.
    assert cal.scale(2.5, 2.6) == 1.0
    # Half the host's speed halves the time at the reference speed.
    assert cal.scale(6.5, 6.6) == 0.5
    # At the start of the record the four first samples count.
    assert cal.scale(0.0, 0.5) == 1.0
    # The samples inside a long interval count too.
    assert cal.scale(2.5, 7.5) == pytest.approx(1 / 1.5)


def test_tracer_restores_the_package():
    before = {k: v for k, v in vars(pa.engine).items() if callable(v)}
    tracer = tracing.Tracer(tracing.Spans())
    tracer.install()
    assert pa.engine.structural_class is not before["structural_class"]
    tracer.uninstall()
    assert {k: v for k, v in vars(pa.engine).items() if callable(v)} == before


def test_absent_traced_name_is_reported_not_raised(monkeypatch):
    monkeypatch.delattr(pa.acyclic, "_schedule_counts")
    spans = tracing.Spans()
    tracer = tracing.Tracer(spans)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"acyclic.schedule"}
    metrics = run.layer_metrics(spans, tracer.absent, [], 1.0)
    assert "acyclic.schedule_calls" not in metrics
    assert "acyclic.nodes" in metrics


def _detour(result, model):
    """The same firing sequence with its first visible sync move split into a
    log move and a model move: still a valid alignment, but costlier."""
    moves = list(result.alignment)
    k = next(k for k, m in enumerate(moves) if m.kind == "sync"
             and not model.net.label(m.model_part).silent)
    sync = moves[k]
    moves[k:k + 1] = [pa.Move(sync.log_part, None), pa.Move(None, sync.model_part)]
    return dataclasses.replace(result, alignment=tuple(moves), cost=result.cost + 2)


def test_gate_rejects_corrupted_costs():
    w = sliced("tree_log", 1, 30)
    first, *_ = run.run_pass(pa, w)
    assert run.check_outputs(pa, w, first) == ([], 0)

    k = next(k for k, r in enumerate(first) if any(m.kind == "sync" for m in r.alignment))
    model = w.models[w.ops[k][0]]
    bad = list(first)
    bad[k] = dataclasses.replace(first[k], cost=first[k].cost + 1)
    assert run.check_outputs(pa, w, bad)[0] == [k]

    # Valid and self-consistent, so only the reference can tell it is not optimal.
    bad[k] = _detour(first[k], model)
    assert pa.validate_alignment(bad[k].alignment, w.ops[k][1], model,
                                 pa.standard_costs(model)) == bad[k].cost
    assert run.check_outputs(pa, w, bad)[0] == [k]


def test_gate_rejects_a_flipped_verdict():
    w = sliced("tree_membership", 1, 50)
    first, *_ = run.run_pass(pa, w)
    assert run.check_outputs(pa, w, first) == ([], 0)
    bad = list(first)
    bad[10] = not bad[10]
    assert run.check_outputs(pa, w, bad)[0] == [10]


def test_wrong_output_makes_the_run_fail(monkeypatch, capsys):
    real = pa.dispatch_align

    def corrupted(trace, system, *args, **kwargs):
        result = real(trace, system, *args, **kwargs)
        return dataclasses.replace(result, cost=result.cost + 1) if len(trace) == 4 else result

    monkeypatch.setattr(pa, "dispatch_align", corrupted)
    code = run.main(["--workload", "acyclic_log", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_ops_past_the_deadline_fail_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "DEADLINE_S", -1.0)
    code = run.main(["--workload", "acyclic_log", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


@pytest.mark.parametrize("name,step", [("tree_log", 13), ("ssystem_long", 37),
                                       ("acyclic_log", 11)])
def test_reference_agrees_with_the_package(name, step):
    w = workloads.build(name, 5)
    for i, trace in w.ops[::step]:
        model = w.models[i]
        assert reference.align_cost(trace, model) == pa.optimal_alignment(trace, model).cost


def test_reference_agrees_with_the_oracle():
    w = workloads.build("acyclic_log", 2)
    for i, trace in w.ops[::9]:
        model = w.models[i]
        assert reference.align_cost(trace, model) == pa.brute_force_oracle(trace, model)


def test_without_sources_the_run_fails(tmp_path):
    root = Path(run.ROOT)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (root / "BENCHMARK.json").exists():
        shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tree_log",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
