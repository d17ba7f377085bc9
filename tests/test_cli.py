import inspect

import pytest

from petrialign import (build_reachability_graph, cli, errors, products,
                        serialize_net, trace_system)
from petrialign.cli import run_cli


PUMP = "place p init=1 final=1\nplace q\ntrans t label=a in=p out=p,q\n"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_align_running_example(ex1_path, capsys):
    code, out, _ = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cost=2"
    assert lines[1] == "algorithm=generic"
    assert lines[2].startswith("states=")
    assert len([l for l in lines if l]) >= 6   # three-row block follows


def test_align_deterministic_output(ex1_path, capsys):
    first = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a")
    second = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a")
    assert first == second


def test_member_false(ex1_path, capsys):
    code, out, _ = run(capsys, "member", str(ex1_path), "--trace", "a,b,a,a")
    assert code == 0
    assert out.strip() == "member=false"


def test_member_true(ex1_path, capsys):
    code, out, _ = run(capsys, "member", str(ex1_path), "--trace", "a,a,b,b")
    assert code == 0
    assert out.strip() == "member=true"


def test_algo_precondition_exit_code(ex1_path, capsys):
    code, _, err = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
                       "--algo", "ssystem")
    assert code == 4
    assert err


def test_budget_exit_code(ex1_path, capsys):
    code, _, err = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
                       "--states", "2")
    assert code == 3
    assert err


def test_ssystem_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "line.net"
    path.write_text(serialize_net(trace_system(("a", "b"))))
    code, _, err = run(capsys, "align", str(path), "--trace", "a,b",
                       "--algo", "ssystem", "--states", "1")
    assert code == 3
    assert err
    code, out, _ = run(capsys, "align", str(path), "--trace", "a,b",
                       "--algo", "ssystem", "--states", "3")
    assert code == 0
    assert out.splitlines()[:3] == ["cost=0", "algorithm=ssystem", "states=3"]


def test_align_has_no_bound_option(ex1_path, capsys):
    code, _, _ = run(capsys, "align", str(ex1_path), "--trace", "a", "--bound", "3")
    assert code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nope")[0] == 2


def test_classify_output(ex1_path, capsys):
    code, out, _ = run(capsys, "classify", str(ex1_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "free_choice=true"
    assert "workflow_shape=true" in lines
    assert "sound=true" in lines
    assert "live=false" in lines
    assert lines[-1] == "states_explored=6"


def test_classify_inconclusive_under_budget(ex1_path, capsys):
    code, out, err = run(capsys, "classify", str(ex1_path), "--states", "2")
    assert code == 0
    assert "sound=inconclusive" in out.splitlines()
    assert err


def test_cost_file_roundtrip(ex1_path, tmp_path, capsys):
    costs = tmp_path / "costs.txt"
    costs.write_text("log a 1/2\nlog b 1/2\n")
    code, out, _ = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
                       "--costs", str(costs))
    assert code == 0
    assert out.splitlines()[0] == "cost=3/2"


def test_gen_shuffle_member_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "shuffle", "ab", "cd")
    assert code == 0
    netfile = tmp_path / "shuffle.net"
    netfile.write_text(out)
    code, out, _ = run(capsys, "member", str(netfile), "--trace", "a,c,b,d")
    assert code == 0
    assert out.strip() == "member=true"


def test_gen_sshuffle(capsys):
    code, out, _ = run(capsys, "gen", "sshuffle", "ab", "2")
    assert code == 0
    assert "place p0 init=2" in out


def test_gen_tree(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("seq(a, xor(b, tau))\n")
    code, out, _ = run(capsys, "gen", "tree", str(tree))
    assert code == 0
    netfile = tmp_path / "tree.net"
    netfile.write_text(out)
    assert run(capsys, "member", str(netfile), "--trace", "a")[1].strip() == "member=true"


def test_gen_tm(tmp_path, capsys):
    machine = tmp_path / "machine.tm"
    machine.write_text(
        "states q0 qacc qrej\nblank _\ntape a _\nspace 1\n"
        "delta q0 a -> qacc _ S\ndelta q0 _ -> qacc _ S\n")
    code, out, _ = run(capsys, "gen", "tm", str(machine), "--input", "")
    assert code == 0
    assert out.startswith("# trace: acc")
    netfile = tmp_path / "tm.net"
    netfile.write_text(out)
    code, out, _ = run(capsys, "align", str(netfile), "--trace", "acc")
    assert code == 0
    assert out.splitlines()[0] == "cost=0"


def test_shorten(ex1_path, capsys):
    code, out, _ = run(capsys, "shorten", str(ex1_path), "--seq",
                       "t1,t2,t3,t4,t1,t2,t3,t4,t1,t3,t2,t5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "original_length=12"
    assert lines[1] == "shortened_length=4"
    assert lines[2] == "bound=35"


def test_shorten_budget_flag(ex1_path, capsys):
    code, out, err = run(capsys, "shorten", str(ex1_path), "--seq",
                         "t1,t2,t3,t4,t1,t2,t3,t4,t1,t3,t2,t5",
                         "--budget", "1")
    assert code == 3
    assert "original_length=12" in out
    assert err


def test_bench_table(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["instance", "algorithm", "cost", "states"]
    assert len(lines) == 7
    assert any("ex1_deviating" in line and " 2 " in line for line in lines)


def test_auto_equals_generic_cost(ex1_path, capsys):
    auto = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
               "--algo", "auto")[1].splitlines()[0]
    generic = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
                  "--algo", "generic")[1].splitlines()[0]
    assert auto == generic == "cost=2"


@pytest.mark.parametrize("case", ["ex1", "pump"])
def test_classify_explores_once(case, ex1, ex1_path, tmp_path, capsys, monkeypatch):
    """classify takes the bound verdict and the behavioral flags from one
    breadth-first exploration, which fires each reachability arc once."""
    if case == "ex1":
        path, arcs = ex1_path, len(build_reachability_graph(ex1).arcs)
    else:
        # {p} -> {p, q} -> ... -> {p, q:4}, the first marking past --bound 3.
        path, arcs = tmp_path / "pump.net", 4
        path.write_text(PUMP)
    fired = []

    def counted(*args):
        fired.append(args)
        return fire(*args)

    fire = products.fire
    monkeypatch.setattr(products, "fire", counted)
    code, out, err = run(capsys, "classify", str(path), "--bound", "3")
    assert code == 0
    assert len(fired) == arcs
    if case == "ex1":
        assert out.splitlines()[6:] == [
            "bound_found=1", "safe=true", "quasi_live=true", "live=false",
            "cyclic=false", "easy_sound=true", "sound=true", "states_explored=6"]
        assert err == ""
    else:
        assert out.splitlines()[6:] == [
            "bound_found=exceeds_3", "safe=false", "quasi_live=inconclusive",
            "live=inconclusive", "cyclic=inconclusive", "easy_sound=inconclusive",
            "sound=inconclusive", "states_explored=5"]
        assert err == "note: place q holds 4 tokens at {p, q:4}\n"


def test_classify_bound_exceeded(tmp_path, capsys):
    pump = tmp_path / "pump.net"
    pump.write_text(PUMP)
    code, out, err = run(capsys, "classify", str(pump), "--bound", "3")
    assert code == 0
    lines = out.splitlines()
    assert "bound_found=exceeds_3" in lines
    assert "safe=false" in lines
    assert "sound=inconclusive" in lines
    assert err


def _error_classes(base=errors.PetriAlignError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


BUDGET_CLASSES = (errors.BudgetExceeded, errors.CapExhausted, errors.StepCapExceeded)
PARSE_CLASSES = (errors.ParseError, errors.DisconnectedNet)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_maps_to_its_exit_code(cls, ex1_path, capsys, monkeypatch):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    required = [p for p in params
                if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty]
    exc = cls(*["x"] * len(required))

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_member", fail)
    code, _, err = run(capsys, "member", str(ex1_path), "--trace", "a")
    expected = 3 if issubclass(cls, BUDGET_CLASSES) else \
        2 if issubclass(cls, PARSE_CLASSES) else 4
    assert code == expected
    assert err.startswith("error: ")
