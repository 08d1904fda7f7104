import io
import os
import re
import time

import pytest

from bdtw.cli import main
from bdtw.game import GameConfig, solve
from bdtw.graphs import MAX_VERTICES, Graph, bit_indices, closure, dumps_graph
from bdtw.corpus import corpus_instances, named_graph
from oracles import component


@pytest.fixture
def graph_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.gr"
        path.write_text(dumps_graph(named_graph(name)))
        return str(path)

    return write


@pytest.fixture
def recording_pool(monkeypatch):
    """The worker counts that multiprocessing.Pool is asked for; the pool
    runs the work in this process."""
    import multiprocessing

    requested = []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return requested


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of CPUs this process may run on."""
    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return pin


class TestDecide:
    def test_member_exit_zero(self, graph_file, capsys):
        assert main(["decide", graph_file("E1"), "--k", "2", "--q", "2"]) == 0
        assert "IN T^2_2" in capsys.readouterr().out

    def test_nonmember_exit_one(self, graph_file, capsys):
        assert main(["decide", graph_file("K3"), "--k", "2", "--q", "6"]) == 1
        assert "NOT IN" in capsys.readouterr().out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("nonsense\n")
        assert main(["decide", str(bad), "--k", "1", "--q", "1"]) == 2

    def test_certificate_revalidates(self, graph_file, tmp_path, capsys):
        cert = str(tmp_path / "out.td")
        g = graph_file("P3")
        assert main(["decide", g, "--k", "2", "--q", "2", "--certificate", cert]) == 0
        assert main(["verify", cert, "--graph", g]) == 0

    def test_verified_certificate(self, graph_file, tmp_path):
        cert = str(tmp_path / "out.td")
        g = graph_file("K3")
        rc = main(["decide", g, "--k", "3", "--q", "3", "--certificate", cert, "--verify"])
        assert rc == 0
        assert main(["verify", cert, "--graph", g]) == 0

    def test_ptd_certificate_format(self, graph_file, tmp_path):
        cert = str(tmp_path / "out.ptd")
        g = graph_file("E1")
        assert main(["decide", g, "--k", "2", "--q", "2", "--certificate", cert,
                     "--format", "ptd"]) == 0
        assert main(["verify", cert]) == 0

    def test_nonmember_says_no_certificate_written(self, graph_file, tmp_path, capsys):
        # An older certificate at the path stays; stderr says it is not
        # this run's, and stdout is the verdict alone.
        cert = tmp_path / "out.td"
        cert.write_text("old\n")
        assert main(["decide", graph_file("K3"), "--k", "2", "--q", "3",
                     "--certificate", str(cert)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "NOT IN T^2_3\n"
        assert captured.err == f"no certificate written to {cert}: the graph is not a member\n"
        assert cert.read_text() == "old\n"

    def test_member_certificate_says_nothing_on_stderr(self, graph_file, tmp_path, capsys):
        cert = str(tmp_path / "out.td")
        assert main(["decide", graph_file("P3"), "--k", "2", "--q", "2",
                     "--certificate", cert]) == 0
        assert capsys.readouterr().err == ""

    def test_empty_graph_member(self, tmp_path):
        path = tmp_path / "empty.gr"
        path.write_text("p tw 0 0\n")
        assert main(["decide", str(path), "--k", "1", "--q", "1"]) == 0


class TestSolve:
    def test_winner_and_dump(self, graph_file, tmp_path, capsys):
        dump = str(tmp_path / "sigma.txt")
        rc = main(["solve", graph_file("K3"), "--k", "3", "--q", "3",
                   "--closure", "--strategy-out", dump])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner: cop" in out
        text = open(dump).read()
        assert "->" in text and "|" in text

    def test_robber_win_says_no_strategy_written(self, graph_file, tmp_path, capsys):
        dump = tmp_path / "sigma.txt"
        assert main(["solve", graph_file("K3"), "--k", "3", "--q", "3",
                     "--closure", "--strategy-out", str(dump)]) == 0
        capsys.readouterr()
        assert main(["solve", graph_file("K3"), "--k", "1", "--q", "3",
                     "--closure", "--strategy-out", str(dump)]) == 0
        captured = capsys.readouterr()
        assert "winner: robber" in captured.out
        assert "written" not in captured.out
        assert captured.err == f"no strategy written to {dump}: the robber wins\n"

    def test_monotone_flag(self, graph_file, capsys):
        rc = main(["solve", graph_file("K3"), "--k", "2", "--q", "4", "--monotone"])
        assert rc == 0
        assert "winner: robber" in capsys.readouterr().out


class TestMonotonizeCmd:
    def test_round_trip_through_files(self, tmp_path, capsys):
        from bdtw.game import GameConfig, solve
        from bdtw.graphs import closure
        from bdtw.pre_tree import dumps_ptd
        from bdtw.strategy_tree import build, fuzz_nonmonotone

        g = closure(named_graph("P3"))
        res = solve(g, GameConfig(2, 2))
        fz = fuzz_nonmonotone(g, res.strategy, GameConfig(2, 2), 1, seed=5)
        st = build(g, fz.strategy, GameConfig(2, fz.placements_bound))
        tree_path = tmp_path / "tree.ptd"
        tree_path.write_text(dumps_ptd(st.ptd))
        out_path = str(tmp_path / "exact.ptd")
        assert main(["monotonize", str(tree_path), "--verify", "-o", out_path]) == 0
        assert main(["verify", out_path]) == 0

    def test_input_is_checked_in_full_once(self, tmp_path, monkeypatch, capsys):
        # run checks its input against the axioms; the reader does not
        # check the same object again.
        from bdtw import cli, monotonize, pre_tree
        from bdtw.pre_tree import dumps_ptd
        from bdtw.strategy_tree import build, fuzz_nonmonotone

        g = closure(named_graph("C4"))
        res = solve(g, GameConfig(3, 3))
        fz = fuzz_nonmonotone(g, res.strategy, GameConfig(3, 3), 2, seed=0)
        st = build(g, fz.strategy, GameConfig(3, fz.placements_bound))
        path = tmp_path / "tree.ptd"
        path.write_text(dumps_ptd(st.ptd))
        full = []
        validate_ptd = pre_tree.validate_ptd

        def counting(ptd, changed=None):
            if changed is None:
                full.append(ptd)
            return validate_ptd(ptd, changed)

        for module in (cli, monotonize, pre_tree):
            monkeypatch.setattr(module, "validate_ptd", counting)
        assert main(["monotonize", str(path)]) == 0
        assert len(full) == 1

    @pytest.mark.parametrize("record", ["B 1", "m 1 : place 0"], ids=["branching-mark", "move"])
    def test_old_st_record_exits_two(self, tmp_path, capsys, record):
        from bdtw.pre_tree import dumps_ptd
        from bdtw.strategy_tree import build

        g = closure(named_graph("E1"))
        st = build(g, solve(g, GameConfig(2, 2)).strategy, GameConfig(2, 2))
        text = dumps_ptd(st.ptd)
        path = tmp_path / "tree.st"
        path.write_text(text + record + "\n")
        assert main(["monotonize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = len(text.splitlines()) + 1
        assert captured.err.splitlines() == [
            f"error: line {line}: unknown record '{record.split()[0]}'"]

    def test_verify_accepts_a_padded_bag(self, tmp_path, capsys):
        # Node 1's bag padded beyond its local boundary {0} hides node 3's
        # vertex 1 in the input; the step's child claim reads the local
        # boundaries, so the padded tree verifies.
        from bdtw.pre_tree import PreTreeDecomposition, dumps_ptd, local_boundary
        from bdtw.strategy_tree import build

        g = closure(Graph(3, [(0, 1)]))
        ptd = build(g, solve(g, GameConfig(2, 2)).strategy, GameConfig(2, 2)).ptd
        assert ptd.tree.size == 8 and ptd.bags[1] == local_boundary(ptd, 1) == 0b01
        bags = list(ptd.bags)
        bags[1] = 0b11
        path = tmp_path / "padded.ptd"
        path.write_text(dumps_ptd(PreTreeDecomposition(ptd.tree, g, tuple(bags), ptd.cones)))
        assert main(["monotonize", str(path), "--verify"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("p ") and err == "exact: width=1 depth=2\n"


class TestVerifyCmd:
    def test_corrupted_td_reports(self, graph_file, tmp_path, capsys):
        cert = tmp_path / "out.td"
        g = graph_file("P3")
        main(["decide", g, "--k", "2", "--q", "2", "--certificate", str(cert)])
        # Drop a vertex from one bag: T1 or T2 must trip.  One bag only, so
        # the header's largest bag size stays true and the file still parses.
        lines = cert.read_text().splitlines()
        mangled = []
        dropped = False
        for line in lines:
            if not dropped and line.startswith("b") and line.count(" ") >= 2:
                parts = line.split()
                mangled.append(" ".join(parts[:-1]))
                dropped = True
            else:
                mangled.append(line)
        cert.write_text("\n".join(mangled) + "\n")
        rc = main(["verify", str(cert), "--graph", g])
        assert rc == 1

    def test_ptd_breaking_the_axioms_reports(self, graph_file, tmp_path, capsys):
        # Drop a boundary vertex from one bag of an exact certificate: the
        # file still parses but breaks PT3.  verify reports it; monotonize,
        # which takes only a valid decomposition, refuses it as a bad
        # argument, with the report of its one full check.
        cert = tmp_path / "out.ptd"
        main(["decide", graph_file("P3"), "--k", "2", "--q", "2",
              "--certificate", str(cert), "--format", "ptd"])
        lines = cert.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("n ") and not line.endswith(":"))
        lines[i] = lines[i].rsplit(" ", 1)[0]
        cert.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 1
        out, err = capsys.readouterr()
        assert "[PT3]" in out
        assert err == ""
        assert main(["monotonize", str(cert)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: input decomposition violates the axioms:"]
        assert "[PT3]" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "monotonize"])
    def test_ptd_without_nodes_is_a_format_error(self, tmp_path, capsys, command):
        # A decomposition has a root, as a .td file has a bag.
        path = tmp_path / "empty.ptd"
        path.write_text("p tw 0 0\n")
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: node ids must be dense 0..N-1, with at least one node\n"

    def test_td_needs_graph(self, graph_file, tmp_path):
        cert = str(tmp_path / "out.td")
        main(["decide", graph_file("P3"), "--k", "2", "--q", "2", "--certificate", cert])
        assert main(["verify", cert]) == 2


class TestGraphHeader:
    @pytest.mark.parametrize("count", ["99999999999999999999", "1000001"])
    @pytest.mark.parametrize("command", [["decide", "--k", "1", "--q", "1"], ["verify"]],
                             ids=["decide", "verify"])
    def test_huge_vertex_count_is_a_format_error(self, tmp_path, capsys, command, count):
        path = tmp_path / "h.gr"
        path.write_text(f"p tw {count} 0\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 1: vertex count {count} is above 64\n"

    def test_largest_header_is_decided_in_bounded_memory(self, tmp_path, capsys):
        # The reader accepts MAX_VERTICES vertices; with no edges the closure
        # has one component per vertex.  Measured peak: about 1 MB.
        import tracemalloc

        path = tmp_path / "e.gr"
        path.write_text(f"p tw {MAX_VERTICES} 0\n")
        tracemalloc.start()
        try:
            rc = main(["decide", str(path), "--k", "1", "--q", "1"])
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc in (0, 1, 2)
        assert peak < 8 << 20


class TestParameterCaps:
    @pytest.mark.parametrize("argv", [
        ["decide", "K3", "--k", "1", "--q", "99999999999"],
        ["solve", "K3", "--k", "1", "--q", "65"],
        ["play", "K3", "--k", "1", "--q", "99999999999", "--as", "cop"],
        ["equivalence", "--corpus", "named:K3", "--k", "1", "--q", "1-99999999999"],
        ["equivalence", "--corpus", "named:K3", "--k", "1-99999999", "--q", "1"],
        ["decide", "K3", "--k", "65", "--q", "1"],
        ["solve", "K3", "--k", "65", "--q", "1"],
        ["play", "K3", "--k", "65", "--q", "1", "--as", "cop"],
    ], ids=["decide", "solve", "play", "equivalence-q", "equivalence-k",
            "decide-k", "solve-k", "play-k"])
    def test_above_the_cap_exits_2_at_once(self, graph_file, capsys, argv):
        # GameConfig caps k and q where no accepted graph can need more, at
        # its vertex cap, and every command builds one before any solve.
        argv = [graph_file(a) if a == "K3" else a for a in argv]
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert re.fullmatch(r"error: [kq] \d+ is above the cap of 64\n", err)
        assert elapsed < 0.5

    def test_cap_itself_is_accepted(self, graph_file, capsys):
        assert main(["decide", graph_file("K3"), "--k", "3", "--q", "64"]) == 0
        rc = main(["equivalence", "--corpus", "named:K3", "--k", "64", "--q", "63-64"])
        assert rc == 0
        assert "grid points: 2 " in capsys.readouterr().out


class TestEquivalenceCmd:
    def test_small_sweep(self, capsys):
        rc = main(["equivalence", "--corpus", "all-graphs:3", "--k", "1-2", "--q", "1-3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "disagreements: 0" in out

    def test_named_corpus(self, capsys):
        rc = main(["equivalence", "--corpus", "named:E1,K3", "--k", "2-3", "--q", "1-3"])
        assert rc == 0

    def test_every_corpus_family(self, capsys):
        specs = ["all-graphs:2", "named:E1, K3", "named:K2,3", "paths:2-3", "cycles:3-4",
                 "stars:3", "complete:2-3", "grids:2x2,1x3", "P4"]
        names = [name for spec in specs for name, _g in corpus_instances(spec)]
        assert names == ["all-graphs-2#0", "all-graphs-2#1", "E1", "K3", "K2,3", "paths-2",
                         "paths-3", "cycles-3", "cycles-4", "stars-3", "complete-2",
                         "complete-3", "grid-2x2", "grid-1x3", "P4"]
        argv = ["equivalence", "--k", "2", "--q", "1-2"]
        for spec in specs:
            argv += ["--corpus", spec]
        assert main(argv) == 0
        assert "instances: 15 " in capsys.readouterr().out

    def test_named_corpus_keeps_names_with_commas(self):
        # K2 is a name too, yet K2,3 stays whole.
        assert [name for name, _g in corpus_instances("named:E1,K2,3,C4")] == ["E1", "K2,3", "C4"]
        assert [name for name, _g in corpus_instances("named:K2, C4")] == ["K2", "C4"]
        for spec in ["named:E1,K9", "named:K2,4"]:
            with pytest.raises(ValueError, match="unknown graph name"):
                corpus_instances(spec)

    @pytest.mark.parametrize("spec, cap", [
        ("paths:1-99999999999", 64), ("all-graphs:7", 6), ("grids:100x100", 64)],
        ids=["paths", "all-graphs", "grids"])
    def test_corpus_above_cap_exits_two_at_once(self, spec, cap, capsys):
        # The cap is checked before any graph is built.
        start = time.perf_counter()
        assert main(["equivalence", "--corpus", spec, "--k", "1", "--q", "1"]) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: corpus spec {spec!r} has a graph above the cap of {cap} vertices\n"

    def test_workers_capped_at_items(self, recording_pool, cpus, capsys):
        cpus(64)
        argv = ["equivalence", "--corpus", "named:E1,K3", "--k", "2", "--q", "1-3"]
        assert main(argv + ["--jobs", "64"]) == 0
        assert recording_pool == [2]
        assert "disagreements: 0" in capsys.readouterr().out
        # One item needs no pool at all.
        assert main(["equivalence", "--corpus", "named:E1", "--k", "2", "--q", "1-3",
                     "--jobs", "64"]) == 0
        assert recording_pool == [2]

    def test_workers_capped_at_usable_cpus(self, recording_pool, cpus, monkeypatch, capsys):
        # 8 graphs are 8 items, one per instance with all its k; --jobs
        # 5000 gets one worker per usable CPU, and none on a single CPU.
        argv = ["equivalence", "--corpus", "all-graphs:3", "--k", "1-2", "--q", "1-3",
                "--jobs", "5000"]
        cpus(3)
        assert main(argv) == 0
        assert recording_pool == [3]
        cpus(1)
        assert main(argv) == 0
        assert recording_pool == [3]
        # Without an affinity mask the CPU count is the cap, and an unknown
        # count is one CPU.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert main(argv) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert main(argv) == 0
        assert recording_pool == [3, 4]
        assert capsys.readouterr().out.count("disagreements: 0") == 4


@pytest.mark.parametrize("argv", [
    ["decide", "K3", "--k", "0", "--q", "3"],
    ["decide", "K3", "--k", "-1", "--q", "3"],
    ["equivalence", "--corpus", "all-graphs:3", "--k", "0", "--q", "1-2"],
    ["equivalence", "--corpus", "all-graphs:3", "--k", "3-1", "--q", "1-2"],
    ["equivalence", "--corpus", "all-graphs:3", "--k", "1-2", "--q", "0"],
    ["equivalence", "--corpus", "paths:4-3", "--k", "1-2", "--q", "1-2"],
    ["equivalence", "--corpus", "trees:3", "--k", "1", "--q", "1"],
    ["equivalence", "--corpus", "named:E1", "--k", "1", "--q", "1", "--jobs", "0"],
    ["equivalence", "--corpus", "named:E1", "--k", "1", "--q", "1", "--jobs", "-2"],
    ["decide", "K3", "--k", "2", "--q", "3", "--verify"],
    ["decide", "K3", "--k", "3", "--q", "3", "--format", "ptd"],
    ["decide", "K3", "--k", "3", "--q", "3", "--format", "td"],
], ids=["decide-k0", "decide-k-1", "equivalence-k0", "equivalence-k3-1", "equivalence-q0",
        "equivalence-corpus4-3", "equivalence-unknown-family", "equivalence-jobs0", "equivalence-jobs-2",
        "decide-verify-alone", "decide-format-alone", "decide-format-without-certificate"])
def test_invalid_game_parameters_exit_two(argv, graph_file, tmp_path, capsys):
    edgeless = tmp_path / "E0.gr"
    edgeless.write_text(dumps_graph(Graph(1, [])))
    argv = [graph_file(a) if a == "K3" else str(edgeless) if a == "E0" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, text", [
    (["--corpus", "named:E1", "--k", "3-", "--q", "1"], "'3-'"),
    (["--corpus", "named:E1", "--k", "1", "--q", "-2"], "'-2'"),
    (["--corpus", "grids:2x", "--k", "1", "--q", "1"], "'2x'"),
    (["--corpus", "all-graphs:x", "--k", "1", "--q", "1"], "'all-graphs:x'"),
    (["--corpus", "grids:-1x2", "--k", "1", "--q", "1"], "'-1x2'"),
    (["--corpus", "grids:-2x-3", "--k", "1", "--q", "1"], "'-2x-3'"),
    (["--corpus", "cycles:1-4", "--k", "1", "--q", "1"], "'cycles:1-4'"),
], ids=["k-open-range", "q-negative", "grid-without-columns", "all-graphs-not-a-number",
        "grid-negative-rows", "grid-negative-rows-and-columns", "cycles-below-three"])
def test_malformed_equivalence_text_is_named(argv, text, capsys):
    assert main(["equivalence", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and text in err, err
    assert "int()" not in err


def test_repeated_calls_give_identical_outputs(graph_file, tmp_path, capsys):
    # The argument parser is built once per process; no call may see state
    # an earlier one left behind.
    g = graph_file("P3")
    cert = tmp_path / "out.td"
    calls = [
        ["decide", g, "--k", "2", "--q", "2", "--certificate", str(cert)],
        ["solve", g, "--k", "2", "--q", "3", "--closure"],
        ["decide", g, "--k", "0", "--q", "2"],
        ["solve", g, "--q", "3"],
    ]

    def outputs(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejecting the call
            rc = exc.code
        out, err = capsys.readouterr()
        return rc, out, err, cert.read_text() if cert.exists() else None

    first = [outputs(argv) for argv in calls]
    assert [o[0] for o in first] == [0, 0, 2, 2]
    assert [outputs(argv) for argv in calls] == first


def test_internal_error_exits_two(graph_file, monkeypatch, capsys):
    # An unexpected exception must not leak a traceback or pass for the
    # negative answer (exit 1).
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("bdtw.cli.cmd_decide", crash)
    assert main(["decide", graph_file("K3"), "--k", "3", "--q", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("argv", [
    ["decide", "K3", "--k", "3", "--q", "3"],
    ["decide", "K3", "--k", "3", "--q", "3", "--certificate", "CERT"],
    ["solve", "K3", "--k", "3", "--q", "3"],
    ["equivalence", "--corpus", "named:K3", "--k", "1-3", "--q", "1-3", "--jobs", "1"],
    ["play", "K3", "--k", "3", "--q", "3", "--as", "cop"],
], ids=["decide", "decide-certificate", "solve", "equivalence", "play"])
def test_exhausted_budget_exits_two(argv, graph_file, tmp_path, monkeypatch, capsys):
    # The limit, not argparse, ends the run: the same command answers at
    # the real limit and names the solver's expansions at a limit of 1.
    argv = [graph_file(a) if a == "K3" else str(tmp_path / "c.td") if a == "CERT" else a
            for a in argv]
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr("bdtw.game.EXPANSION_BUDGET", 1)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "error: solver expanded 2 positions (budget 1)\n"
    assert out == ""


class TestPlayCmd:
    @pytest.mark.parametrize("side", ["robber", "cop"])
    def test_input_ending_exits_two(self, side, graph_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main(["play", graph_file("P3"), "--k", "2", "--q", "2", "--as", side])
        assert rc == 2
        assert capsys.readouterr().err == "error: input ended mid-session\n"

    def test_scripted_capture_as_cop(self, graph_file, tmp_path, monkeypatch, capsys):
        log = str(tmp_path / "session.log")
        monkeypatch.setattr("sys.stdin", io.StringIO("place 0\nplace 1\n"))
        rc = main(["play", graph_file("E1"), "--k", "2", "--q", "2",
                   "--as", "cop", "--closure", "--log", log])
        assert rc == 0
        text = open(log).read()
        assert "captured: cops win" in text
        assert "round 2" in text

    def test_robber_survives_k3_with_two_cops(self, graph_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n" * 10))
        rc = main(["play", graph_file("K3"), "--k", "2", "--q", "3",
                   "--as", "robber", "--closure"])
        assert rc == 0
        assert "robber wins" in capsys.readouterr().out

    def test_quit_exits_cleanly(self, graph_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        rc = main(["play", graph_file("E1"), "--k", "2", "--q", "2",
                   "--as", "cop", "--closure"])
        assert rc == 0
        assert "session ended" in capsys.readouterr().out

    @pytest.mark.parametrize("bad, message", [
        ("place 9", "illegal move"),
        ("place 1 remove x", "could not parse"),
        ("place 0 1", "could not parse"),
        ("place " + "1" * 5000, "illegal move"),  # too long for int()
    ], ids=["unknown-vertex", "stray-remove-token", "stray-place-token", "5000-digit-vertex"])
    def test_illegal_move_reprompts(self, bad, message, graph_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{bad}\nplace 0\nplace 1\n"))
        rc = main(["play", graph_file("E1"), "--k", "2", "--q", "2",
                   "--as", "cop", "--closure"])
        assert rc == 0
        out = capsys.readouterr().out
        assert message in out
        assert "cops {0}" in out
        assert "captured" in out

    # Unicode digits pass str.isdigit; int() rejects the first and reads
    # the second as 0.  Only ASCII digits are an index, and one too long
    # for int() is out of range.
    @pytest.mark.parametrize("bad", ["\u00b2", "\u0660", "1" * 5000],
                             ids=["superscript-two", "arabic-indic-zero", "5000-digits"])
    def test_bad_index_reprompts(self, bad, graph_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{bad}\n" + "0\n" * 10))
        rc = main(["play", graph_file("K3"), "--k", "2", "--q", "3",
                   "--as", "robber", "--closure"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "enter a number in 0..0" in out
        assert "robber wins" in out

    def test_computer_cop_plays_the_certificate(self, tmp_path, monkeypatch, capsys):
        # A cop win on which a cop ranking of its own, not the certificate's
        # rule, picks a different (also winning) move.
        g = Graph(6, [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (3, 5)])
        path = tmp_path / "g.gr"
        path.write_text(dumps_graph(g))
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n" * 10))
        rc = main(["play", str(path), "--k", "4", "--q", "3", "--as", "robber"])
        assert rc == 0
        sigma = solve(g, GameConfig(4, 3)).strategy
        lines = capsys.readouterr().out.splitlines()
        moves = 0
        for here, nxt in zip(lines, lines[1:]):
            if nxt.startswith("cops move to "):
                cops, part = re.fullmatch(
                    r"round \d+: cops \{(.*)\} j=\d+ robber-part \{(.*)\}", here).groups()
                x_mask = sum(1 << int(v) for v in cops.split(",") if v)
                part = sum(1 << int(e) for e in part.split(","))
                chosen = ",".join(
                    str(v) for v in bit_indices(sigma.moves[(x_mask, component(g, x_mask, part))]))
                assert nxt == f"cops move to {{{chosen}}}"
                moves += 1
        assert moves >= 2
        assert lines[-1] == "captured: cops win"

    def test_computer_robber_survives_k3(self, graph_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("place 0\nplace 1\nplace 2 remove 0\n"))
        rc = main(["play", graph_file("K3"), "--k", "2", "--q", "3",
                   "--as", "cop", "--closure"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "robber moves to" in out
        assert out.splitlines()[-1] == "placements exhausted: robber wins"
