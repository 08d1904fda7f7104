#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py DIR_A DIR_B --workload fuzz --seed 4 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in DIR_A and once in
DIR_B, strictly one after the other; even pairs run A first, odd pairs B
first, so that a drift in the machine's speed falls on both sides alike.
DIR_A is normally the parent commit and DIR_B the change.

Every run lasts ``--seconds`` (default 8, so that runs recorded in
different ``BENCH_*.json`` files compare; ``BENCHMARK.json``'s
``run_seconds`` is 40, and ``peak_rss_mb`` grows with the number of ops a
run fits in).

One JSON record goes to stdout, ready for a ``BENCH_*.json`` file: every
run's end-to-end metrics and its op count (``attempted``), per metric each side's quartiles and median, the
median change in percent and the number of pairs in which B did better and
worse (in the direction ``BENCHMARK.json`` gives), each side's output
digests and whether the two sides gave the same ones (``same_outputs``).
Per metric it also judges B against the metric's relative ``bound`` from
``BENCHMARK.json``: ``within_bound`` when B's median is no worse than A's
by more than the bound, and ``unresolved`` when A's quartile spread,
relative to its median, exceeds the bound and not every run of B beats
every run of A, so that the runs cannot tell a change within the bound
from one outside it.
The exit code is 1 when a run fails or gives a wrong output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# The default length of every run, on both sides.
RUN_SECONDS = 8


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The detail and result records of one untraced benchmark run in root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[0]), json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values * 3
    return [round(v, 4) for v in statistics.quantiles(values, n=4, method="inclusive")]


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (name, better, bound),
    the summary of A's and B's runs in ``pairs``."""
    summary = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a = [p["a"][name] for p in pairs]
        b = [p["b"][name] for p in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        quart_a = quartiles(a)
        med_a, med_b = statistics.median(a), statistics.median(b)
        b_beats_every_a = min(b) > max(a) if sign > 0 else max(b) < min(a)
        summary[name] = {
            "a_q1_median_q3": quart_a,
            "b_q1_median_q3": quartiles(b),
            "median_change_pct": round(100 * (med_b - med_a) / med_a, 1) if med_a else None,
            "b_better_pairs": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "b_worse_pairs": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            "bound": bound,
            "within_bound": sign * (med_a - med_b) <= bound * abs(med_a),
            "unresolved": quart_a[2] - quart_a[0] > bound * abs(med_a) and not b_beats_every_a,
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--workload", required=True, choices=("sweep", "certify", "fuzz"))
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    spec = json.loads((args.dir_a / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    pairs, digests, correct = [], {"a": set(), "b": set()}, True
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        pair: dict = {"first": order[0]}
        for side in order:
            root = args.dir_a if side == "a" else args.dir_b
            detail, result = run_once(root, args.workload, args.seed, args.seconds)
            correct &= result["correct"]
            digests[side].add(detail["digest"])
            pair[side] = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            pair[side]["attempted"] = result["attempted"]
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: "
              + "  ".join(f"{s} {pair[s]['ops_per_s']:.1f}" for s in "ab") + " ops/s",
              file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "dir_a": str(args.dir_a),
        "dir_b": str(args.dir_b),
        "pairs": pairs,
        "summary": compare(pairs, metrics),
        "digests": {side: sorted(d) for side, d in digests.items()},
        "same_outputs": digests["a"] == digests["b"],
        "correct": correct,
    }
    print(json.dumps(record, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
