"""Cross-cutting checks: degenerate hosts, determinism and process-level
entry points."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from bdtw.corpus import named_graph
from bdtw.game import GameConfig, solve
from bdtw.graphs import Graph, closure, dumps_graph
from bdtw.monotonize import monotonize_pipeline
from bdtw.pre_tree import dumps_ptd
from bdtw.tree_decomp import dumps_td, td_depth, td_width, validate_td


class TestDegenerateHosts:
    def test_empty_graph_pipeline(self):
        from bdtw.monotonize import check_branching_depth_bound

        r = monotonize_pipeline(Graph(0, []), 1, 1)
        assert r.member
        assert validate_td(r.td).ok
        assert td_depth(r.td) == 0
        # Edgeless host: zero depth against zero branching nodes.
        assert check_branching_depth_bound(r.exact_ptd, r.strategy_tree)

    def test_single_vertex_pipeline(self):
        r = monotonize_pipeline(Graph(1, []), 1, 1, verify=True)
        assert r.member
        assert validate_td(r.td).ok
        assert td_width(r.td) == 0
        assert td_depth(r.td) == 1

    def test_loop_only_graph(self):
        g = Graph(2, [(0, 0)])
        r = monotonize_pipeline(g, 1, 1, verify=True)
        assert r.member
        assert validate_td(r.td).ok
        covered = 0
        for b in r.td.bags:
            covered |= b
        assert covered == 0b11

    def test_host_with_own_loops(self):
        g = Graph(3, [(0, 1), (1, 1), (2, 2)])
        r = monotonize_pipeline(g, 2, 2, verify=True)
        assert r.member
        assert validate_td(r.td).ok


class TestDeterminism:
    def test_pipeline_is_reproducible(self):
        outs = []
        for _ in range(2):
            r = monotonize_pipeline(named_graph("C4"), 3, 3, fuzz_slack=2, seed=13)
            outs.append(
                (
                    dumps_ptd(r.strategy_tree.ptd),
                    dumps_ptd(r.exact_ptd),
                    dumps_td(r.td),
                )
            )
        assert outs[0] == outs[1]

    # Member cases whose strategy trees, exact PTDs and TDs are hashed below:
    # (graph, k, q, fuzz_slack, seed).
    GOLDEN_CASES = [
        (name, k, q, 0, 0)
        for name, k, q in [("E1", 2, 2), ("P4", 2, 3), ("C4", 3, 3), ("K3", 3, 3),
                           ("GRID2x3", 3, 4), ("K2,3", 3, 3)]
    ] + [("C4", 3, 3, 2, 13)]
    GOLDEN_DIGEST = "a66814cec146c14c316800e4e628921cb4aa9a657e8c12051e1612c6b0dc58bc"

    def test_certificates_match_recorded_digest(self):
        # Certificates are part of the interface: a refactor of the solver,
        # the tree builder or exactification must leave them byte-identical.
        digest = hashlib.sha256()
        for name, k, q, slack, seed in self.GOLDEN_CASES:
            r = monotonize_pipeline(named_graph(name), k, q, fuzz_slack=slack, seed=seed)
            assert r.member, (name, k, q)
            for text in (dumps_ptd(r.strategy_tree.ptd), dumps_ptd(r.exact_ptd),
                         dumps_td(r.td)):
                digest.update(text.encode())
        assert digest.hexdigest() == self.GOLDEN_DIGEST

    # The strategy dumps of `solve --strategy-out` (both variants, closure)
    # and the transcripts of scripted `play` sessions (each side, plain and
    # closure) over the distinct (graph, k, q) of GOLDEN_CASES.
    GOLDEN_TEXT_DIGEST = "42b8b48a16c1f8906c85618e0787a60b8bb48ec13cf192dc3b3a681e9eeba4ad"

    @staticmethod
    def _scripts(g: Graph, k: int) -> dict[str, str]:
        """The stdin of each scripted side: the cop places 0, 1, ... and,
        once k cops stand, lifts the oldest; the robber asks for reply 1,
        then 0, alternately (an index out of range reprompts)."""
        cop = "".join(f"place {v}" + (f" remove {v - k}" if v >= k else "") + "\n"
                      for v in range(g.n)) + "quit\n"
        return {"cop": cop, "robber": "1\n0\n" * 20}

    def test_strategy_dumps_and_play_transcripts_match_recorded_digest(
            self, tmp_path, monkeypatch, capsys):
        import io

        from bdtw.cli import main

        digest = hashlib.sha256()
        cases = dict.fromkeys((name, k, q) for name, k, q, _, _ in self.GOLDEN_CASES)
        for name, k, q in cases:
            g = named_graph(name)
            path = tmp_path / f"{name}.gr"
            path.write_text(dumps_graph(g))
            game = [str(path), "--k", str(k), "--q", str(q)]
            for variant in ([], ["--monotone"]):
                dump = tmp_path / "sigma.txt"
                assert main(["solve", *game, "--closure", "--strategy-out", str(dump),
                             *variant]) == 0
                digest.update(dump.read_text().encode())
            capsys.readouterr()  # solve's own lines name the temporary file
            for side, script in self._scripts(g, k).items():
                for host in ([], ["--closure"]):
                    monkeypatch.setattr("sys.stdin", io.StringIO(script))
                    assert main(["play", *game, "--as", side, *host]) == 0
                    digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.GOLDEN_TEXT_DIGEST

    def test_solver_strategy_is_reproducible(self):
        gc = closure(named_graph("GRID2x3"))
        a = solve(gc, GameConfig(3, 4)).strategy
        b = solve(gc, GameConfig(3, 4)).strategy
        assert a.moves == b.moves


class TestProcessLevel:
    def test_console_module_entry(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text(dumps_graph(named_graph("E1")))
        proc = subprocess.run(
            [sys.executable, "-m", "bdtw.cli", "decide", str(path), "--k", "2", "--q", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "IN T^2_2" in proc.stdout

    def test_exhausted_budget_exits_two(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text(dumps_graph(named_graph("K3")))
        # The command line with the solver's limit set to `limit` first.
        code = ("import sys, bdtw.game, bdtw.cli; bdtw.game.EXPANSION_BUDGET = int(sys.argv[1]); "
                "sys.exit(bdtw.cli.main(sys.argv[2:]))")

        def run(limit):
            return subprocess.run(
                [sys.executable, "-c", code, limit, "decide", str(path), "--k", "3", "--q", "3"],
                capture_output=True, text=True)

        # Control: at the search's 2 expansions the command answers.
        proc = run("2")
        assert proc.returncode == 0
        assert "IN T^3_3" in proc.stdout

        proc = run("1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: solver expanded 2 positions (budget 1)\n"

    def test_fuzz_campaign_script(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline_fuzz.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--max-n", "3", "--k", "1-3",
             "--slack", "2", "--seeds", "1"],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # One run per seed and member (graph, k): --max-n 3 covers n = 1, 2
        # and 3, with 3, 5 and 16 members at k 1-3; n = 3 alone gives 16.
        assert proc.stdout.startswith("24 pipeline runs")

    @pytest.mark.parametrize("option, value", [
        ("--slack", "-1"), ("--seeds", "0"), ("--seeds", "-2"), ("--max-n", "0"),
        ("--seeds", "two"), ("--k", "3-1"), ("--k", "x"), ("--k", "0-2"),
    ])
    def test_fuzz_campaign_script_rejects_bad_counts(self, option, value):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline_fuzz.py"
        proc = subprocess.run([sys.executable, str(script), option, value],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert option in proc.stderr
        assert proc.stdout == ""

    def test_equivalence_parallel_jobs(self, capsys):
        from bdtw.cli import main

        rc = main(["equivalence", "--corpus", "all-graphs:3", "--k", "1-2",
                   "--q", "1-3", "--jobs", "2"])
        assert rc == 0
        assert "disagreements: 0" in capsys.readouterr().out
