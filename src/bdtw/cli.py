"""Command-line interface.

Subcommands: decide membership with optional certificate, solve a game,
exactify a pre-tree decomposition file, verify artifacts, sweep the
equivalence of the game variants over a corpus, and play interactively
against the solver.

Exit codes follow a 0/1/2 contract where a yes/no answer exists: 0 for the
positive answer (member, valid, all-agree), 1 for the negative one, 2 for
errors such as unreadable files or an exhausted solver (game.EXPANSION_BUDGET).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time

from . import __version__
from .corpus import corpus_instances, parse_range
from .errors import BdtwError
from .game import (
    GameConfig,
    Strategy,
    _Solver,
    _is_move,
    _replies,
    _stage,
    cops_win,
    initial_components,
    solve,
    variant_costs,
)
from .graphs import (MAX_VERTICES, Graph, bit_indices, bitmask, closure, incident_edges,
                     read_graph, records)
from .monotonize import monotonize_pipeline, run
from .pre_tree import read_ptd, validate_ptd, write_ptd, ptd_depth, ptd_width
from .tree_decomp import read_td, td_depth, td_width, validate_td, write_td

def _check_cap(flag: str, value: int) -> None:
    """Reject a --k or --q above MAX_VERTICES, the most vertices a graph
    may have: width + 1 and depth never exceed the vertex count, so a
    larger value gives no other answer, while the solver's work grows
    with q."""
    if value > MAX_VERTICES:
        raise ValueError(f"{flag} {value} is above the cap of {MAX_VERTICES}")


def _load_graph(path: str) -> Graph:
    with open(path) as f:
        return read_graph(f)


def _fmt_set(x_mask: int) -> str:
    return "{" + ",".join(str(v) for v in bit_indices(x_mask)) + "}"


def _fmt_edge_ids(g: Graph, part: int) -> str:
    return "{" + ",".join(str(e) for e in g.edge_ids(part)) + "}"


def _format_round(g: Graph, i: int, x_mask: int, part: int) -> str:
    return f"round {i}: cops {_fmt_set(x_mask)} j={i} robber-part {_fmt_edge_ids(g, part)}"


def cmd_decide(args) -> int:
    for flag, value in (("--verify", args.verify), ("--format", args.format)):
        if value and not args.certificate:
            raise ValueError(f"{flag} needs --certificate")
    _check_cap("--q", args.q)
    g = _load_graph(args.graph)
    if args.certificate:
        result = monotonize_pipeline(g, args.k, args.q, verify=args.verify)
        member = result.member
        if member:
            with open(args.certificate, "w") as f:
                if args.format == "ptd":
                    write_ptd(result.exact_ptd, f)
                else:
                    write_td(result.td, f)
        else:
            print(f"no certificate written to {args.certificate}: the graph is not a member",
                  file=sys.stderr)
    else:
        member = cops_win(closure(g), args.k, args.q)
    print(f"{'IN' if member else 'NOT IN'} T^{args.k}_{args.q}")
    return 0 if member else 1


def cmd_solve(args) -> int:
    _check_cap("--q", args.q)
    g = _load_graph(args.graph)
    if args.closure:
        g = closure(g)
    cfg = GameConfig(args.k, args.q, monotone=args.monotone)
    result = solve(g, cfg)
    print(f"winner: {result.winner}")
    print(f"positions: {result.position_count}")
    if args.strategy_out and isinstance(result.strategy, Strategy):
        with open(args.strategy_out, "w") as f:
            moves = sorted(result.strategy.moves.items(),
                           key=lambda kv: (bit_indices(kv[0][0]), incident_edges(g, kv[0][1])))
            for (x_mask, c_mask), nxt in moves:
                # The robber's position is written as its part's edge ids.
                part_ids = _fmt_edge_ids(g, incident_edges(g, c_mask))
                f.write(f"({_fmt_set(x_mask)} | {part_ids}) -> {_fmt_set(nxt)}\n")
        print(f"strategy dump written to {args.strategy_out}")
    elif args.strategy_out:
        print(f"no strategy written to {args.strategy_out}: the robber wins", file=sys.stderr)
    return 0


def cmd_monotonize(args) -> int:
    with open(args.tree) as f:
        ptd = read_ptd(f)  # run checks it against the axioms
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    exact = run(ptd, verify=args.verify, trace=trace)
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        write_ptd(exact, out)
    finally:
        if args.output:
            out.close()
    print(
        f"exact: width={ptd_width(exact)} depth={ptd_depth(exact)}",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args) -> int:
    with open(args.artifact) as f:
        lines = f.readlines()
    kind = "td" if any(parts[0] == "s" for _, parts in records(lines)) else "ptd"
    if kind == "td":
        if not args.graph:
            raise ValueError("verifying a .td file needs --graph")
        td = read_td(lines, _load_graph(args.graph))
        report = validate_td(td)
        extra = f"width={td_width(td)} depth={td_depth(td)}"
    else:
        ptd = read_ptd(lines)
        report = validate_ptd(ptd)
        extra = f"width={ptd_width(ptd)} depth={ptd_depth(ptd)}"
    if report.ok:
        print(f"ok ({kind}, {extra})")
        return 0
    print(report)
    return 1


def _equivalence_worker(item):
    """(name, k, costs) for each k of one instance, on one host."""
    name, n, edges, ks, q_max = item
    return [(name, k, costs) for k, costs in zip(ks, variant_costs(Graph(n, edges), ks, q_max))]


def _usable_cpus() -> int:
    """The CPUs this process may run on: the sweep is CPU-bound, so more
    workers than these only add processes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_equivalence(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    instances = []
    for spec_text in args.corpus:
        instances.extend(corpus_instances(spec_text))
    ks, qs = (parse_range(text, 1, f"{text!r} is not a nonempty range of positive integers")
              for text in (args.k, args.q))
    _check_cap("--k", ks[-1])
    _check_cap("--q", qs[-1])
    q_max = qs[-1]
    items = [(name, g.n, g.edges, ks, q_max) for name, g in instances]
    start = time.monotonic()
    workers = min(args.jobs, len(items), _usable_cpus())
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            per_instance = pool.map(_equivalence_worker, items)
    else:
        per_instance = [_equivalence_worker(item) for item in items]
    results = [row for rows in per_instance for row in rows]
    elapsed = time.monotonic() - start
    # The variants agree at q when all or none of them win within q.
    disagreements = [(name, k, q) for name, k, costs in results for q in qs
                     if len({c is not None and c <= q for c in costs}) != 1]
    print(f"instances: {len(instances)}  grid points: {len(results) * len(qs)}  "
          f"disagreements: {len(disagreements)}  elapsed: {elapsed:.1f}s")
    for name, k, q in disagreements:
        print(f"DISAGREE {name} k={k} q={q}")
    return 1 if disagreements else 0


def cmd_play(args) -> int:
    _check_cap("--q", args.q)
    g = _load_graph(args.graph)
    if args.closure:
        g = closure(g)
    cfg = GameConfig(args.k, args.q)
    solver = _Solver(g, cfg.k, cfg.monotone)
    stdin = sys.stdin
    log_lines: list[str] = []

    def emit(line: str) -> None:
        print(line)
        log_lines.append(line)

    starts = initial_components(g)
    if not starts:
        emit("the graph has no edges; cops win immediately")
        return _write_log(args, log_lines)

    # The robber's position is shown as its part, incident_edges(g, c).
    if args.side == "robber":
        emit("choose a starting component:")
        for i, c in enumerate(starts):
            emit(f"  [{i}] {g.format_edges(incident_edges(g, c))}")
        c_mask = starts[_read_index(stdin, emit, len(starts))]
    else:
        c_mask = solver.robber_move(0, starts, cfg.q)
        emit(f"robber starts in {g.format_edges(incident_edges(g, c_mask))}")

    x_mask = 0
    used = 0
    while True:
        emit(_format_round(g, used, x_mask, incident_edges(g, c_mask)))
        if used >= cfg.q:
            emit("placements exhausted: robber wins")
            break
        if args.side == "cop":
            emit("your move: 'place <v> [remove <v...>]' or 'quit'")
            new_mask = _read_cop_move(
                stdin, emit, g.n, x_mask,
                functools.partial(_is_move, g, cfg.k, cfg.monotone, x_mask, c_mask))
            if new_mask is None:
                emit("session ended")
                break
        else:
            new_mask = solver.cop_move(x_mask, c_mask, cfg.q - used)
            emit(f"cops move to {_fmt_set(new_mask)}")
        live = _replies(g, x_mask, c_mask, new_mask)
        if not live:
            # Every edge of the stage set's part is under cops; show the
            # lowest one.
            stage = incident_edges(g, _stage(g, x_mask & new_mask, c_mask))
            emit(_format_round(g, used + 1, new_mask, stage & -stage))
            emit("captured: cops win")
            break
        if args.side == "robber":
            emit("choose your part:")
            for i, c in enumerate(live):
                emit(f"  [{i}] {g.format_edges(incident_edges(g, c))}")
            c_mask = live[_read_index(stdin, emit, len(live))]
        else:
            c_mask = solver.robber_move(new_mask, live, cfg.q - used - 1)
            emit(f"robber moves to {g.format_edges(incident_edges(g, c_mask))}")
        x_mask = new_mask
        used += 1
    return _write_log(args, log_lines)


def _write_log(args, lines: list[str]) -> int:
    if args.log:
        with open(args.log, "w") as f:
            f.write("\n".join(lines) + "\n")
    return 0


def _capped(digits: str, n: int) -> int:
    """The value of a string of ASCII digits, or n if it is n or more; a
    number too long for int() counts as out of range."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(n)) else n


def _read_index(stdin, emit, n: int) -> int:
    while True:
        raw = stdin.readline()
        if not raw:
            raise BdtwError("input ended mid-session")
        token = raw.strip()
        if re.fullmatch("[0-9]+", token) and (index := _capped(token, n)) < n:
            return index
        emit(f"enter a number in 0..{n - 1}")


def _read_cop_move(stdin, emit, n: int, x_mask: int, is_legal) -> int | None:
    """The next cop set typed as a move from x_mask that is_legal accepts,
    or None on 'quit'.  Removing a vertex that holds no cop is ignored;
    placing one outside 0..n-1 is illegal."""
    while True:
        raw = stdin.readline()
        if not raw:
            raise BdtwError("input ended mid-session")
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "quit":
            return None
        move = re.fullmatch(r"place ([0-9]+)(?: remove((?: [0-9]+)+))?", " ".join(tokens))
        if move is None:
            emit("could not parse; use 'place <v> [remove <v...>]'")
            continue
        placed = _capped(move[1], n)
        removed = bitmask(v for v in (_capped(t, n) for t in (move[2] or "").split()) if v < n)
        # A vertex placed outside 0..n-1 is bit n, which no legal move has.
        candidate = x_mask & ~removed | 1 << placed
        if is_legal(candidate):
            return candidate
        emit("illegal move, try again")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdtw",
        description="bounded-depth treewidth via the placement-limited cops-and-robber game",
    )
    parser.add_argument("--version", action="version", version=f"bdtw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("graph")
    game.add_argument("--k", type=int, required=True)
    game.add_argument("--q", type=int, required=True)

    p = sub.add_parser("decide", parents=[game],
                       help="decide membership, optionally with a certificate")
    p.add_argument("--certificate", metavar="FILE")
    p.add_argument("--verify", action="store_true",
                   help="re-check every exactification step (needs --certificate)")
    p.add_argument("--format", choices=["td", "ptd"], help="certificate format (default td)")

    p = sub.add_parser("solve", parents=[game], help="solve one game instance")
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--closure", action="store_true", help="play on the closure graph")
    p.add_argument("--strategy-out", metavar="FILE")

    p = sub.add_parser("monotonize", help="exactify a pre-tree decomposition (.ptd) file")
    p.add_argument("tree")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--verify", action="store_true",
                   help="re-check every step; a failed check exits 2")
    p.add_argument("--trace", action="store_true",
                   help="print one line per step, that is per internal node, on stderr")

    p = sub.add_parser("verify", help="validate a decomposition artifact")
    p.add_argument("artifact")
    p.add_argument("--graph", metavar="FILE", help="host graph for .td artifacts")

    p = sub.add_parser("equivalence", help="check the game variants agree over a corpus")
    p.add_argument("--corpus", action="append", required=True,
                   help="e.g. all-graphs:3, paths:2-5, named:K4,C5 (repeatable)")
    p.add_argument("--k", required=True, help="value or range, e.g. 1-3")
    p.add_argument("--q", required=True, help="value or range, e.g. 1-5")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("play", parents=[game], help="play one side against the solver")
    p.add_argument("--as", dest="side", choices=["robber", "cop"], required=True)
    p.add_argument("--closure", action="store_true")
    p.add_argument("--log", metavar="FILE")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up per call, like the module's other globals, so that the
        # cached parser does not pin the command functions.
        return globals()[f"cmd_{args.command}"](args)
    except (BdtwError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must never read as a "no" answer (exit 1)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
