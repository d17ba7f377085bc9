import inspect
import shlex
from pathlib import Path

import pytest

from petrialign import (build_reachability_graph, cli, errors, gen_shuffle_tsystem,
                        parse_tree, petri, serialize_net, trace_system, tree_to_wfnet)
from petrialign.cli import run_cli


PUMP = "place p init=1 final=1\nplace q\ntrans t label=a in=p out=p,q\n"
# An acyclic fork whose final marking, q alone, is unreachable.
FORK = "place p init=1\nplace q final=1\nplace r\ntrans t label=a in=p out=q,r\n"
# Free-choice but unbounded (r2 pumps): no permutation of b,d,a,c,b,d both
# replays and follows the conflict order, where a must use up its count
# before b fires.
UNORDERED = ("place p init=1\nplace q\nplace r\nplace r2\n"
             "trans a label=a in=p out=q\ntrans b label=b in=p out=r\n"
             "trans c label=c in=q,r2 out=p\ntrans d label=d in=r out=p,r2\n")
# An S-net whose transition src has no input place, so it is unbounded.
SOURCE = ("place p0 init=1\nplace p1\nplace pf final=1\n"
          "trans ta label=a in=p0 out=p1\ntrans tb label=b in=p1 out=pf\n"
          "trans src label=c in= out=p1\ntrans tk label=d in=p1 out=\n")
# A process tree whose workflow net is sound, safe and free-choice but not
# live, so its LBFC cap comes from the sound-workflow branch: 11 transitions
# and bound 1 give (n + 1) * 287 for n letters.
TREE = "seq(a, par(b, c), xor(d, tau), loop(e, f))"
# A machine that accepts at once.
TM = ("states q0 qacc qrej\nblank _\ntape a _\nspace 1\n"
      "delta q0 a -> qacc _ S\ndelta q0 _ -> qacc _ S\n")


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


def test_align_prints_the_cap_on_the_auto_route_only(ex1_path, tmp_path, capsys):
    """`align` asks for the LBFC cap, its own call, when it dispatches, and
    prints it when there is one: the tree's sound workflow net has one, and
    ex1, neither live nor a workflow net, has none."""
    path = tmp_path / "tree.net"
    path.write_text(serialize_net(tree_to_wfnet(parse_tree(TREE))))
    code, out, _ = run(capsys, "align", str(path), "--trace", "a,c,x,e")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "cost=2" and lines[3] == "lbfc_cap=1435"
    code, out, _ = run(capsys, "align", str(path), "--trace", "a,c,x,e", "--algo", "generic")
    assert code == 0 and out.splitlines()[0] == "cost=2"
    assert not any(line.startswith("lbfc_cap=") for line in out.splitlines())
    code, out, _ = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a")
    assert code == 0 and out.splitlines()[0] == "cost=2"
    assert not any(line.startswith("lbfc_cap=") for line in out.splitlines())


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


def test_an_unbounded_s_net_takes_the_generic_search(tmp_path, capsys):
    """The dispatcher aligns it by the generic search, and the S-system
    solver rejects it.  A small budget keeps the cap's walk of the
    unbounded net short."""
    path = tmp_path / "source.net"
    path.write_text(SOURCE)
    code, out, _ = run(capsys, "align", str(path), "--trace", "c,c,c,c,c,d,a,b",
                       "--states", "2000")
    assert code == 0 and out.splitlines()[:2] == ["cost=4", "algorithm=generic"]
    code, _, err = run(capsys, "align", str(path), "--trace", "c,c,c,c,c,d,a,b",
                       "--algo", "ssystem")
    assert code == 4 and "input place" in err


@pytest.fixture
def shuffle_path(tmp_path):
    path = tmp_path / "shuffle.net"
    path.write_text(serialize_net(gen_shuffle_tsystem([("a", "b"), ("c",)])))
    return path


def test_states_budgets_algo_acyclic(shuffle_path, capsys):
    """--states bounds the settled states of --algo acyclic."""
    code, out, _ = run(capsys, "align", str(shuffle_path), "--trace", "a,c,b",
                       "--algo", "acyclic")
    assert code == 0
    assert out.splitlines()[:2] == ["cost=0", "algorithm=acyclic"]
    nodes = int(out.splitlines()[2].removeprefix("states="))
    code, out, _ = run(capsys, "align", str(shuffle_path), "--trace", "a,c,b",
                       "--algo", "acyclic", "--states", str(nodes))
    assert code == 0
    assert out.splitlines()[2] == f"states={nodes}"
    code, _, err = run(capsys, "align", str(shuffle_path), "--trace", "a,c,b",
                       "--algo", "acyclic", "--states", str(nodes - 1))
    assert code == 3
    assert err
    code, out, err = run(capsys, "align", str(shuffle_path), "--trace", "a,c,b",
                         "--algo", "acyclic", "--states", "1")
    assert code == 3
    assert out == ""
    assert "settled states" in err


def test_align_exit_codes_on_acyclic_dispatch(shuffle_path, tmp_path, capsys):
    """Acyclic systems take the generic search: a final marking it cannot
    reach is a failed precondition, and --states bounds it."""
    fork = tmp_path / "fork.net"
    fork.write_text(FORK)
    assert run(capsys, "align", str(fork), "--trace", "a")[0] == 4
    assert run(capsys, "align", str(shuffle_path), "--trace", "a,c,b",
               "--states", "2")[0] == 3
    code, out, _ = run(capsys, "align", str(shuffle_path), "--trace", "a,c,b")
    assert code == 0
    assert out.splitlines()[1] == "algorithm=generic"


@pytest.mark.parametrize("algo", [None, "auto", "generic", "ssystem", "acyclic"])
def test_nodes_is_a_usage_error_without_algo_acyclic(algo, shuffle_path, capsys):
    """There is no --nodes option: --states bounds every --algo."""
    argv = ["align", str(shuffle_path), "--trace", "a,c,b", "--nodes", "5"]
    if algo is not None:
        argv += ["--algo", algo]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--nodes" in err


@pytest.mark.parametrize("command, option", [
    ("classify", "--states"), ("align", "--states"), ("member", "--states"),
    ("bench", "--states"), ("shorten", "--budget"),
    ("shorten", "--bound"), ("classify", "--bound"), ("gen", "--steps")])
@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_budgets_below_one_are_usage_errors(command, option, value, ex1_path, tmp_path,
                                            capsys):
    machine = tmp_path / "machine.tm"
    machine.write_text(TM)
    argv = {"classify": [str(ex1_path)], "align": [str(ex1_path), "--trace", "a,b"],
            "member": [str(ex1_path), "--trace", "a,b"], "bench": [],
            "shorten": [str(ex1_path), "--seq", "t1,t2,t3,t5"],
            "gen": ["tm", str(machine)]}[command]
    code, out, err = run(capsys, command, *argv, f"{option}={value}")
    assert code == 2
    assert out == ""
    assert option in err


def test_a_budget_of_one_is_accepted(ex1_path, capsys):
    assert run(capsys, "align", str(ex1_path), "--trace", "a,b", "--states", "1")[0] == 3
    assert run(capsys, "member", str(ex1_path), "--trace", "a,b", "--states", "1")[0] == 3
    assert run(capsys, "classify", str(ex1_path), "--states", "1")[0] == 0


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


def test_a_missing_net_file_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "classify", str(tmp_path / "missing.net"))
    assert code == 2 and out == "" and err.startswith("error: ")


# Two terminal components: the final marking and the self-loop on p2.
TWO_TERMINAL = ("place p0 init=1\nplace p1\nplace p2\nplace pf final=1\n"
                "trans ta label=a in=p0 out=p1\ntrans tb label=b in=p1 out=p0\n"
                "trans tc label=c in=p0 out=p2\ntrans td label=d in=p2 out=p2\n"
                "trans te label=e in=p1 out=pf\n")
# One component, which is terminal and holds the final marking.
TWO_PLACE_CYCLE = ("place p0 init=1 final=1\nplace p1\n"
                   "trans ta label=a in=p0 out=p1\ntrans tb label=b in=p1 out=p0\n")


def test_classify_output(ex1_path, tmp_path, capsys):
    code, out, _ = run(capsys, "classify", str(ex1_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "free_choice=true"
    # t4 refills p_init, so ex1 is no workflow net.
    assert "workflow_shape=false" in lines
    assert "sound=true" in lines
    assert "live=false" in lines
    assert lines[-1] == "states_explored=6"
    tree = tmp_path / "tree.net"
    tree.write_text(serialize_net(tree_to_wfnet(parse_tree(TREE))))
    code, out, _ = run(capsys, "classify", str(tree))
    lines = out.splitlines()
    assert code == 0 and "workflow_shape=true" in lines and "sound=true" in lines
    for text, flags in (
            (TWO_TERMINAL, "free_choice=true s_net=true t_net=false conflict_free=false "
                           "acyclic=false workflow_shape=false bound_found=1 safe=true "
                           "quasi_live=true live=false cyclic=false easy_sound=true "
                           "sound=false states_explored=4"),
            (TWO_PLACE_CYCLE, "free_choice=true s_net=true t_net=true conflict_free=true "
                              "acyclic=false workflow_shape=false bound_found=1 safe=true "
                              "quasi_live=true live=true cyclic=true easy_sound=true "
                              "sound=true states_explored=2")):
        path = tmp_path / "net.net"
        path.write_text(text)
        code, out, err = run(capsys, "classify", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == flags.split()


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


@pytest.mark.parametrize("line", ["sync a t99 1/2", "sync b t1 5"])
def test_bad_sync_cost_lines_exit_2(line, ex1_path, tmp_path, capsys):
    costs = tmp_path / "costs.txt"
    costs.write_text(f"{line}\n")
    code, out, err = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
                         "--costs", str(costs))
    assert code == 2
    assert not out and "(line 1)" in err


def test_readme_commands_run(capsys):
    """Every `petrialign ...` line of README's command-line block whose file
    arguments exist exits 0."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    ran = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv or argv[0] != "petrialign":
            continue
        files = [a for a in argv[1:] if Path(a).suffix[1:].isalpha()]
        if not all((root / f).is_file() for f in files):
            continue
        argv = [str(root / a) if a in files else a for a in argv[1:]]
        assert run(capsys, *argv)[0] == 0, line
        ran.append(line)
    assert len(ran) >= 8


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
    machine.write_text(TM)
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


def test_shorten_a_long_run(ex1_path, capsys):
    seq = ",".join(["t1,t2,t3,t4"] * 300 + ["t1,t3,t2,t5"])
    code, out, _ = run(capsys, "shorten", str(ex1_path), "--seq", seq)
    assert code == 0
    assert out.splitlines()[:3] == ["original_length=1204", "shortened_length=4", "bound=35"]


def test_shorten_budget_flag(ex1_path, capsys):
    code, out, err = run(capsys, "shorten", str(ex1_path), "--seq",
                         "t1,t2,t3,t4,t1,t2,t3,t4,t1,t3,t2,t5",
                         "--budget", "1")
    assert code == 3
    assert "original_length=12" in out
    assert err


def test_shorten_without_an_ordered_permutation_exits_4(tmp_path, capsys):
    net = tmp_path / "unordered.net"
    net.write_text(UNORDERED)
    code, out, err = run(capsys, "shorten", str(net), "--seq", "b,d,a,c,b,d",
                         "--bound", "2")
    assert code == 4
    assert out == ""
    assert "conflict order" in err


def test_bench_table(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["instance", "algorithm", "cost", "states"]
    assert len(lines) == 8
    assert any("ex1_deviating" in line and " 2 " in line for line in lines)
    assert [line.split()[0] for line in lines if line.split()[1] == "ssystem"] == \
        ["choice_ssystem"]


def test_auto_equals_generic_cost(ex1_path, capsys):
    auto = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
               "--algo", "auto")[1].splitlines()[0]
    generic = run(capsys, "align", str(ex1_path), "--trace", "a,b,a,a",
                  "--algo", "generic")[1].splitlines()[0]
    assert auto == generic == "cost=2"


@pytest.mark.parametrize("case", ["ex1", "pump"])
def test_classify_explores_once(case, ex1, ex1_path, tmp_path, capsys, monkeypatch):
    """classify takes the bound verdict and the behavioral flags from one
    breadth-first exploration, which fires once per marking it finds beyond
    the initial one; a second exploration would double the count."""
    if case == "ex1":
        path, found = ex1_path, len(build_reachability_graph(ex1).vertices) - 1
    else:
        # {p} -> {p, q} -> ... -> {p, q:4}, the first marking past --bound 3.
        path, found = tmp_path / "pump.net", 4
        path.write_text(PUMP)
    fired = []

    def counted(*args):
        fired.append(args)
        return fire(*args)

    fire = petri.fire
    monkeypatch.setattr(petri, "fire", counted)
    code, out, err = run(capsys, "classify", str(path), "--bound", "3")
    assert code == 0
    assert len(fired) == found
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
