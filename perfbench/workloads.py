"""The benchmark's three workloads: seeded inputs, one op, and its output check.

Every op builds fresh ``Graph`` objects, so the per-graph part-table caches
start cold, as they do on every CLI call.  Inputs are drawn in blocks that
hold every stratum (a combination of vertex count and parameters) once, in
a seeded order, so each run sees the same mix of input kinds however many
ops fit into it.

``check`` returns None for a good output, ``("error", name)`` when the CLI
exited with 2, or ``("wrong", message)`` when an output check failed.
``digest_text`` is what the output digest hashes: verdicts, cost vectors
and certificate texts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from typing import Iterator

from bdtw import cli, game, monotonize
from bdtw.errors import BdtwError
from bdtw.graphs import Graph, closure, dumps_graph
from bdtw.monotonize import check_branching_depth_bound
from bdtw.tree_decomp import dumps_td, read_td, td_depth, td_width, validate_td

SWEEP_Q = 7
FUZZ_Q = 7
MAX_SLACK = 3
# The extension search's default free-edge cap when the benchmark was
# defined; fixed here so that the corpus does not follow a change to it.
FREE_EDGE_CAP = 20


def random_edges_exactly(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """m of the n(n-1)/2 vertex pairs, uniformly at random."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return tuple(sorted(rng.sample(pairs, m)))


def half_density_edge_counts(n: int, levels: int = 8) -> list[int]:
    """Edge counts at the midpoints of ``levels`` equal slices of the
    Binomial(n(n-1)/2, 1/2) distribution: a graph with a uniformly drawn
    one of these counts and its edges uniformly placed is a stratified
    draw from G(n, 1/2)."""
    pairs = n * (n - 1) // 2
    out = []
    for j in range(levels):
        target = (j + 0.5) / levels
        m, cdf = 0, math.comb(pairs, 0) / 2**pairs
        while cdf < target:
            m += 1
            cdf += math.comb(pairs, m) / 2**pairs
        out.append(m)
    return out


def blocked(rng: random.Random, strata: list[tuple],
            levels=lambda stratum: (None,)) -> Iterator[tuple[tuple, object]]:
    """An endless stream of (stratum, level) pairs.

    Strata come in blocks that hold every stratum once, shuffled; each
    stratum walks through its levels in shuffled rounds.  Any run of whole
    blocks thus holds the same mix of strata, and each stratum an even mix
    of its levels.  Draws are lazy, so a corpus's first ops do not depend on
    its size.
    """
    rounds: dict[tuple, list] = {}
    while True:
        block = list(strata)
        rng.shuffle(block)
        for stratum in block:
            pending = rounds.get(stratum)
            if not pending:
                pending = rounds[stratum] = list(levels(stratum))
                rng.shuffle(pending)
            yield stratum, pending.pop()


class Workload:
    """Seeded inputs for one workload, the op on one input and its checks."""

    name: str
    prefix: int  # ops in the output digest and in each traced pass
    corpus_size: int
    grid_points_per_op = 1

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def before(self, spec) -> None:
        """Untimed preparation of one op."""


class Sweep(Workload):
    """Equivalence of the four game variants on random labeled graphs.

    One op is one (graph, k): four ``minimum_placements`` calls, plain and
    closure times monotone and non-monotone, each capped at q = 7.  Graphs
    are stratified draws from G(n, 1/2), n = 6 or 7.
    """

    name = "sweep"
    prefix = 300
    corpus_size = 4000
    grid_points_per_op = SWEEP_Q
    strata = [(n, k) for n in (6, 7) for k in range(1, 6)]

    def setup(self, rng: random.Random) -> list[tuple]:
        counts = {n: half_density_edge_counts(n) for n in (6, 7)}
        drawn = blocked(rng, self.strata, lambda s: counts[s[0]])
        return [(n, random_edges_exactly(rng, n, m), k)
                for (n, k), m in itertools.islice(drawn, self.corpus_size)]

    def op(self, spec):
        n, edges, k = spec
        g = Graph(n, edges)
        costs = []
        for host in (g, closure(g)):
            for monotone in (False, True):
                costs.append(game.minimum_placements(host, k, monotone, SWEEP_Q))
        return tuple(costs)

    def check(self, spec, costs):
        for q in range(1, SWEEP_Q + 1):
            if len({c is not None and c <= q for c in costs}) != 1:
                return ("wrong", f"variants disagree at k={spec[2]} q={q}: {costs}")
        return None

    def digest_text(self, spec, costs) -> str:
        return repr(costs)


class Certify(Workload):
    """``bdtw decide --certificate`` called in-process.

    The op's .gr file is written, and a stale certificate removed, before
    the op's timer starts.
    """

    name = "certify"
    prefix = 200
    corpus_size = 640
    strata = [(n, k, q) for n in (8, 9) for k in range(2, 6) for q in range(3, 8)]

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.graph_path = os.path.join(self.workdir, "g.gr")
        self.out_path = os.path.join(self.workdir, "out.td")

    def setup(self, rng: random.Random) -> list[tuple]:
        # Edge densities at the midpoints of four equal slices of [0.25, 0.5].
        counts = {n: [round(d * n * (n - 1) / 2) for d in (0.28125, 0.34375, 0.40625, 0.46875)]
                  for n in (8, 9)}
        specs = []
        drawn = blocked(rng, self.strata, lambda s: counts[s[0]])
        for (n, k, q), m in itertools.islice(drawn, self.corpus_size):
            edges = random_edges_exactly(rng, n, m)
            specs.append((n, edges, k, q, dumps_graph(Graph(n, edges))))
        return specs

    def before(self, spec) -> None:
        with open(self.graph_path, "w") as f:
            f.write(spec[4])
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)

    def op(self, spec):
        _n, _edges, k, q, _text = spec
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(["decide", self.graph_path, "--k", str(k), "--q", str(q),
                               "--certificate", self.out_path])
            except SystemExit as exc:  # argparse rejecting the call
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def check(self, spec, output):
        n, edges, k, q, _text = spec
        rc, _stdout, stderr = output
        if rc == 2:
            return ("error", "exit 2: " + stderr.strip().partition(":")[2].strip()[:80])
        if rc not in (0, 1):
            return ("wrong", f"exit code {rc}")
        g = Graph(n, edges)
        reference = game.minimum_placements(closure(g), k, False, q)
        if (rc == 0) != (reference is not None):
            return ("wrong", f"verdict exit {rc} but non-monotone cost {reference} at q={q}")
        if rc == 1:
            return None
        try:
            with open(self.out_path) as f:
                td = read_td(f, g)
            report = validate_td(td)
        except (BdtwError, OSError, ValueError) as exc:
            return ("wrong", f"certificate unreadable: {exc}")
        if not report.ok:
            return ("wrong", f"certificate invalid: {report}")
        if td_width(td) > k - 1 or td_depth(td) > q:
            return ("wrong", f"certificate width {td_width(td)} depth {td_depth(td)}")
        return None

    def digest_text(self, spec, output) -> str:
        rc, stdout, _stderr = output
        if rc != 0 or not os.path.exists(self.out_path):
            return f"exit {rc} {stdout}"
        with open(self.out_path) as f:
            return f"exit 0 {stdout}" + f.read()


class Fuzz(Workload):
    """The fuzz campaign's path: fuzzed non-monotone strategies exactified
    with every per-step check on.

    Graphs have 7 or 8 vertices and 30, 40 or 50 % of the vertex pairs as
    edges, but never so many that the closure has more edges than the
    extension search's free-edge cap: the free edges at a node are edges of
    the closure, so no op can exceed the cap, and no op fails.  Slack stops
    at 3: ops with slack 7 or 8 take up to a second each, and a run's total
    would hinge on how many of them it drew.

    Inputs beyond the cap are the probe: 9-vertex graphs whose closures
    have 23 or 25 edges, on which about one pipeline in twelve fails with
    ``BudgetExceededError`` on the code the benchmark was defined on.  Only
    the traced run runs them, apart from the ops, and counts the cap hits.
    """

    name = "fuzz"
    prefix = 200
    corpus_size = 1800
    strata = [(n, k, min(round(d * n * (n - 1) / 2), FREE_EDGE_CAP - n))
              for n in (7, 8) for k in range(2, 5) for d in (0.3, 0.4, 0.5)]
    probe_strata = [(9, 4, 14), (9, 5, 16)]
    probe_size = 96

    def setup(self, rng: random.Random) -> list[tuple]:
        return self._draw(rng, self.strata, self.corpus_size)

    def probe(self, rng: random.Random) -> list[tuple]:
        return self._draw(rng, self.probe_strata, self.probe_size)

    @staticmethod
    def _draw(rng: random.Random, strata: list[tuple], size: int) -> list[tuple]:
        drawn = blocked(rng, strata, lambda s: range(MAX_SLACK + 1))
        return [(n, random_edges_exactly(rng, n, m), k, slack, rng.randrange(2**31))
                for (n, k, m), slack in itertools.islice(drawn, size)]

    def op(self, spec):
        n, edges, k, slack, seed = spec
        return monotonize.monotonize_pipeline(
            Graph(n, edges), k, FUZZ_Q, fuzz_slack=slack, seed=seed, verify=True
        )

    def check(self, spec, r):
        if not r.member:
            return None
        k = spec[2]
        report = validate_td(r.td)
        if not report.ok:
            return ("wrong", f"decomposition invalid: {report}")
        if td_width(r.td) > k - 1 or td_depth(r.td) > r.placements_bound:
            return ("wrong", f"width {td_width(r.td)} depth {td_depth(r.td)} "
                             f"bound {r.placements_bound}")
        if not check_branching_depth_bound(r.exact_ptd, r.strategy_tree):
            return ("wrong", "depth exceeds the branching-node bound")
        return None

    def digest_text(self, spec, r) -> str:
        if not r.member:
            return "NOT IN"
        return f"IN bound={r.placements_bound} injected={r.fuzz_injected}\n" + dumps_td(r.td)


WORKLOADS = {w.name: w for w in (Sweep, Certify, Fuzz)}
