#!/usr/bin/env python3
"""Fuzz campaign: perturb winning strategies with redundant detours, run the
exactification with all per-step checks on, and summarize the results.
The campaign covers every labeled graph on 1..--max-n vertices.

Example:
    python3 scripts/run_pipeline_fuzz.py --max-n 4 --k 1-4 --slack 2 --seeds 3
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bdtw.corpus import all_graphs, parse_range
from bdtw.game import minimum_placements
from bdtw.graphs import closure
from bdtw.monotonize import check_branching_depth_bound, monotonize_pipeline
from bdtw.pre_tree import is_exact_edge, ptd_depth, ptd_width
from bdtw.tree_decomp import td_depth, td_width, validate_td


def _int_at_least(low):
    """An argparse type: an integer no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _k_range(text):
    """An argparse type: a value 'a' or a range 'a-b' of positive integers."""
    message = f"not a nonempty range of positive integers: {text!r}"
    try:
        return parse_range(text, 1, message)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=_int_at_least(1), default=4)
    ap.add_argument("--k", type=_k_range, default="1-4")
    ap.add_argument("--slack", type=_int_at_least(0), default=2)
    ap.add_argument("--seeds", type=_int_at_least(1), default=2)
    args = ap.parse_args()

    start = time.monotonic()
    runs = injected_runs = nonexact_edges = 0
    width_slack_total = depth_recovered = 0
    graphs = [g for n in range(1, args.max_n + 1) for g in all_graphs(n)]
    for gi, g in enumerate(graphs):
        gc = closure(g)
        for k in args.k:
            cost = minimum_placements(gc, k, False, 8)
            if cost is None:
                continue
            for s in range(args.seeds):
                seed = gi * 1000 + s
                r = monotonize_pipeline(
                    g, k, cost, fuzz_slack=args.slack, seed=seed, verify=True,
                )
                runs += 1
                checks = {
                    "valid": validate_td(r.td).ok,
                    "width": td_width(r.td) <= k - 1,
                    "depth": td_depth(r.td) <= r.placements_bound,
                    "branching bound": check_branching_depth_bound(r.exact_ptd, r.strategy_tree),
                }
                failed = [name for name, ok in checks.items() if not ok]
                if failed:
                    print(f"FAILED {', '.join(failed)}: n={g.n} edges={list(g.edges)} "
                          f"k={k} q={cost} slack={args.slack} seed={seed}", file=sys.stderr)
                    return 1
                st = r.strategy_tree
                if r.fuzz_injected:
                    injected_runs += 1
                    nonexact_edges += sum(
                        not is_exact_edge(st.ptd, p, c) for p, c in st.ptd.tree.edges()
                    )
                    width_slack_total += ptd_width(st.ptd) - ptd_width(r.exact_ptd)
                    depth_recovered += ptd_depth(st.ptd) - ptd_depth(r.exact_ptd)
    elapsed = time.monotonic() - start
    print(f"{runs} pipeline runs ({injected_runs} with detours injected), "
          f"{nonexact_edges} non-exact input edges repaired")
    print(f"width slack removed: {width_slack_total}, "
          f"depth recovered: {depth_recovered}, elapsed {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
