"""Outside-in layer tracing for the benchmark.

A ``Tracer`` replaces a layer's public functions with wrappers in the
namespace of the module that calls them (``bdtw.monotonize.validate_ptd``,
``bdtw.game.part_table``, ...), for the duration of a ``with
tracer.installed():`` block.  The traced pipeline therefore runs the same
code as the untraced one; no source file of the package is edited.

Each wrapped call records a span: layer name, start, end, parent span and
op id.  Spans of one op are kept in memory and folded into per-layer
totals when the op ends.  A layer's self time is its span's duration minus
the durations of its child spans.  ``part_table`` is called far too often
for spans; it only counts calls and the distinct (graph, cop mask) pairs
it was asked for, i.e. the tables built, since every op starts from fresh
``Graph`` objects whose caches are cold.

A hook whose attribute no longer exists is skipped and listed in
``missing``, so a refactored package still gets a traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from bdtw.errors import BudgetExceededError

# (module looked up by the caller, attribute, layer name)
SPAN_HOOKS = (
    ("bdtw.cli", "main", "cli.main"),
    ("bdtw.cli", "read_graph", "graphs.read_graph"),
    ("bdtw.cli", "monotonize_pipeline", "monotonize.monotonize_pipeline"),
    ("bdtw.cli", "write_td", "tree_decomp.write_td"),
    ("bdtw.game", "minimum_placements", "game.minimum_placements"),
    ("bdtw.monotonize", "monotonize_pipeline", "monotonize.monotonize_pipeline"),
    ("bdtw.monotonize", "solve", "game.solve"),
    ("bdtw.monotonize", "fuzz_nonmonotone", "strategy_tree.fuzz_nonmonotone"),
    ("bdtw.strategy_tree", "replay_cop_strategy", "game.replay_cop_strategy"),
    ("bdtw.monotonize", "build", "strategy_tree.build"),
    ("bdtw.monotonize", "run", "monotonize.run"),
    ("bdtw.monotonize", "choose_extensions", "monotonize.choose_extensions"),
    ("bdtw.monotonize", "apply_step", "monotonize.apply_step"),
    ("bdtw.monotonize", "verify_step", "monotonize.verify_step"),
    ("bdtw.monotonize", "validate_ptd", "pre_tree.validate_ptd"),
    ("bdtw.monotonize", "is_exact", "pre_tree.is_exact"),
    ("bdtw.pre_tree", "is_exact", "pre_tree.is_exact"),
    ("bdtw.monotonize", "to_tree_decomposition", "pre_tree.to_tree_decomposition"),
    ("bdtw.monotonize", "validate_td", "tree_decomp.validate_td"),
)
COUNT_HOOKS = (
    ("bdtw.game", "part_table"),
    ("bdtw.strategy_tree", "part_table"),
)
# Layers of the strategy-tree and exactification stages; the sweep workload
# is predicted to record none of them.
EXACTIFICATION_PREFIXES = ("monotonize.", "strategy_tree.", "pre_tree.")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the op's span list, -1 at the top
    op: int


class Tracer:
    """Spans and work counters recorded at layer boundaries."""

    def __init__(self):
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.free_edges_max = 0
        self.missing: list[str] = []
        self._op = -1
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._tables: dict[int, tuple[object, set[int]]] = {}

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._spans.clear()
        self._stack.clear()
        self._tables.clear()

    def end_op(self, scale: float = 1.0) -> None:
        """Fold the op's spans into the totals; ``scale`` converts to
        reference-speed seconds."""
        child_time = [0.0] * len(self._spans)
        for s in self._spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self._spans):
            own = (s.end - s.start - child_time[i]) * scale
            self.self_s[s.name] += own
            self.calls[s.name] += 1
            if s.name == "pre_tree.validate_ptd" and s.parent >= 0:
                caller = self._spans[s.parent].name.rpartition(".")[2]
                self.self_s[f"{s.name}.{caller}"] += own
                self.calls[f"{s.name}.{caller}"] += 1
            if s.name.startswith(EXACTIFICATION_PREFIXES):
                self.counts["trace.exactification_spans"] += 1
        self.counts["graphs.part_table.cop_sets"] += sum(
            len(masks) for _g, masks in self._tables.values()
        )
        self._spans.clear()
        self._tables.clear()

    def work_counters(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        out = dict(self.counts)
        out.update({f"{name}.calls": n for name, n in self.calls.items()})
        out["monotonize.free_edges.max"] = self.free_edges_max
        return dict(sorted(out.items()))

    # -- wrappers ------------------------------------------------------------

    def _observe(self, name: str, result) -> None:
        if name == "game.solve":
            self.counts["game.positions"] += result.position_count
        elif name == "strategy_tree.build":
            self.counts["strategy_tree.nodes"] += result.ptd.tree.size
        elif name == "monotonize.apply_step":
            self.counts["monotonize.steps"] += 1
        elif name == "strategy_tree.fuzz_nonmonotone":
            self.counts["strategy_tree.detours"] += result.injected
        elif name == "monotonize.choose_extensions":
            free = result.f_union
            for m in result.f_star:
                free |= m
            n_free = free.bit_count()
            self.counts["monotonize.free_edges.sum"] += n_free
            self.free_edges_max = max(self.free_edges_max, n_free)

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        spans, stack = self._spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self._op)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                if name == "monotonize.choose_extensions":
                    self.counts["monotonize.cap_hits"] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            self._observe(name, result)
            return result

        return traced

    def _count_wrapper(self, fn: Callable) -> Callable:
        tables = self._tables
        calls = self.calls

        def counted(g, x_mask, *args, **kwargs):
            calls["graphs.part_table"] += 1
            entry = tables.get(id(g))
            if entry is None:
                entry = tables[id(g)] = (g, set())  # holding g keeps its id unique
            entry[1].add(x_mask)
            return fn(g, x_mask, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        patched = []
        self.missing = []
        hooks = list(SPAN_HOOKS) + [(m, a, None) for m, a in COUNT_HOOKS]
        try:
            for mod_name, attr, name in hooks:
                try:
                    mod = importlib.import_module(mod_name)
                except ModuleNotFoundError:
                    mod = None
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if name is None:
                    wrapper = self._count_wrapper(fn)
                else:
                    wrapper = self._span_wrapper(fn, name)
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)
