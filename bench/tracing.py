"""Per-layer spans for a pbgrid sweep, recorded from outside the package.

The tracer wraps the public callables that ``pbgrid.cli`` and
``pbgrid.analyzer`` call into, by replacing the names those two modules
look up at call time, and restores them afterwards.  No pbgrid source is
edited.  Each span records its name, start, end, parent span and unit id;
a unit is one (map, endpoint draw) pair, opened by ``place_agent_goal``.

Layers that pbgrid calls from inside a planner (the ``FlatGrid`` build,
move legality, the potential field's own distance transform) are not
reachable from here and are not measured.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import pbgrid.analyzer as analyzer
import pbgrid.cli as cli
from pbgrid.planners import PlannerEntry

# Every planner the workloads run; rows for a planner a workload does not
# run read 0.
PLANNERS = (
    "astar",
    "dijkstra",
    "wavefront",
    "d-rrt",
    "d-rt",
    "d-rrt-connect",
    "d-rrt-star",
    "d-sprm",
    "bug2",
    "potential-field",
)
SAMPLERS = ("d-rrt", "d-rt", "d-rrt-connect", "d-rrt-star", "d-sprm")
GRAPH = ("astar", "dijkstra", "wavefront")

# Child layers of the sweep span, in report order: span name -> metric name.
CHILD_LAYERS = (
    ("mapgen.generate", "mapgen.generate_ms"),
    ("mapio.load", "mapio.load_ms"),
    ("mapgen.place", "mapgen.place_ms"),
    ("grid.distance_transform", "grid.distance_transform_ms"),
    ("metrics.compute_report", "metrics.compute_report_ms"),
    ("analyzer.save_results", "analyzer.save_results_ms"),
    ("analyzer.emit_report", "analyzer.emit_report_ms"),
    ("plots.emit_plots", "plots.emit_plots_ms"),
)

_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_BEYOND = 10


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: Optional[int]


@dataclass
class PlannerCall:
    planner: str
    ms: float
    ok: bool
    explored_cells: int
    tree_nodes: int
    frontier_peak: int


@dataclass
class Tracer:
    """Collects spans in memory while installed; aggregate with ``layer_metrics``."""

    spans: List[Span] = field(default_factory=list)
    calls: List[PlannerCall] = field(default_factory=list)
    paths: List[Tuple[object, tuple]] = field(default_factory=list)  # (placed map, cells) per success
    bytes_read: int = 0
    output_bytes: int = 0
    svg_bytes: int = 0

    def __post_init__(self):
        self._ids = itertools.count(1)
        self._units = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn: Callable, args, kwargs, unit: bool) -> Tuple[object, Span]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        unit_id = getattr(self._local, "unit", None) if unit else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = Span(span_id, name, start, time.perf_counter(), parent, unit_id)
            stack.pop()
            self.spans.append(span)
        return result, span

    def _span(self, name: str, fn: Callable, unit: bool = False) -> Callable:
        def wrapped(*args, **kwargs):
            return self._timed(name, fn, args, kwargs, unit)[0]

        return wrapped

    def _root_span(self, fn: Callable) -> Callable:
        def wrapped(ns, overrides):
            self._root = next(self._ids)
            start = time.perf_counter()
            try:
                return fn(ns, overrides)
            finally:
                end = time.perf_counter()
                self.spans.append(Span(self._root, "analyzer.sweep", start, end, None, None))
                self._root = None

        return wrapped

    def _place(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            self._local.unit = next(self._units)
            return self._timed("mapgen.place", fn, args, kwargs, True)[0]

        return wrapped

    def _load(self, fn: Callable) -> Callable:
        def wrapped(data, *args, **kwargs):
            self.bytes_read += len(data)
            return self._timed("mapio.load", fn, (data,) + args, kwargs, False)[0]

        return wrapped

    def _writer(self, name: str, fn: Callable, counter: str) -> Callable:
        def wrapped(*args, **kwargs):
            written = self._timed(name, fn, args, kwargs, False)[0]
            paths = [args[1]] if written is None else list(written.values())
            total = sum(os.path.getsize(p) for p in paths)
            setattr(self, counter, getattr(self, counter) + total)
            return written

        return wrapped

    def _planner(self, name: str, fn: Callable, args, kwargs, grid):
        outcome, span = self._timed(f"planners.{name}", fn, args, kwargs, True)
        trace = outcome.trace
        if outcome.success:
            self.paths.append((grid, outcome.path.cells))
        self.calls.append(
            PlannerCall(
                planner=name,
                ms=(span.end - span.start) * 1e3,
                ok=outcome.success,
                explored_cells=len(trace.explored),
                tree_nodes=len(trace.step_log or ()) if name in SAMPLERS else 0,
                frontier_peak=trace.frontier_peak if name in GRAPH else 0,
            )
        )
        return outcome

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patches = [
            (cli, "cmd_benchmark", self._root_span(cli.cmd_benchmark)),
            (cli, "save_results", self._writer("analyzer.save_results", cli.save_results, "output_bytes")),
            (cli, "emit_report", self._writer("analyzer.emit_report", cli.emit_report, "output_bytes")),
            (cli, "emit_plots", self._writer("plots.emit_plots", cli.emit_plots, "svg_bytes")),
            (analyzer, "generate", self._span("mapgen.generate", analyzer.generate)),
            (analyzer, "load_native", self._load(analyzer.load_native)),
            (analyzer, "parse_movingai", self._load(analyzer.parse_movingai)),
            (analyzer, "place_agent_goal", self._place(analyzer.place_agent_goal)),
            (analyzer, "distance_transform", self._span("grid.distance_transform", analyzer.distance_transform, unit=True)),
            (analyzer, "compute_report", self._span("metrics.compute_report", analyzer.compute_report, unit=True)),
            *_planner_hook(self._planner),
        ]
        with _patched(patches):
            yield self


@contextmanager
def _patched(patches) -> Iterator[None]:
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _planner_hook(hook: Callable) -> List[Tuple[object, str, object]]:
    """Patches that route every planner call, the baseline A* included, through
    ``hook(name, fn, args, kwargs, grid)``."""
    run = PlannerEntry.run
    baseline = analyzer.astar

    def entry_run(entry, grid, *args, **kwargs):
        return hook(entry.name, run, (entry, grid) + args, kwargs, grid)

    def baseline_run(grid, *args, **kwargs):
        return hook("astar", baseline, (grid,) + args, kwargs, grid)

    return [(analyzer, "astar", baseline_run), (PlannerEntry, "run", entry_run)]


@contextmanager
def captured_paths(paths: List[Tuple[object, tuple]]) -> Iterator[None]:
    """Append (placed map, cells) of every successful planner call to ``paths``.

    Records no time, so the end-to-end runs can validate paths untraced.
    """

    def keep(name, fn, args, kwargs, grid):
        outcome = fn(*args, **kwargs)
        if outcome.success:
            paths.append((grid, outcome.path.cells))
        return outcome

    with _patched(_planner_hook(keep)):
        yield


@contextmanager
def tracemalloc_peaks(peaks: Dict[str, float]) -> Iterator[None]:
    """Record each planner call's tracemalloc peak (MiB above its start) into ``peaks``.

    Kept apart from the span pass because tracemalloc slows every
    allocation; run it on a serial sweep so calls do not overlap.
    """

    def measured(name, fn, args, kwargs, grid):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        outcome = fn(*args, **kwargs)
        mb = (tracemalloc.get_traced_memory()[1] - before) / 2**20
        peaks[name] = max(peaks.get(name, 0.0), mb)
        return outcome

    tracemalloc.start()
    try:
        with _patched(_planner_hook(measured)):
            yield
    finally:
        tracemalloc.stop()


def _union_ms(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered * 1e3


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` sorted values."""
    return max(1, math.ceil(n * pct / 100))


def _percentile(sorted_ms: List[float], pct: float) -> float:
    return sorted_ms[_rank(len(sorted_ms), pct) - 1]


def tail(sorted_ms: List[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with ten calls beyond it.

    (0, 0) when no percentile on the ladder has ten calls beyond it.
    """
    n = len(sorted_ms)
    for pct in _TAIL_LADDER:
        if n - _rank(n, pct) >= _TAIL_BEYOND:
            return pct, _percentile(sorted_ms, pct)
    return 0.0, 0.0


def sweep_breakdown(tracer: Tracer) -> List[Dict[str, float]]:
    """Per sweep span: its time, summed child time, covered child time and self time."""
    out = []
    for root in (s for s in tracer.spans if s.name == "analyzer.sweep"):
        children = [s for s in tracer.spans if s.parent == root.span_id]
        sweep_ms = (root.end - root.start) * 1e3
        covered = _union_ms([(s.start, s.end) for s in children])
        out.append(
            {
                "sweep_ms": sweep_ms,
                "children_ms": sum((s.end - s.start) * 1e3 for s in children),
                "covered_ms": covered,
                "self_ms": sweep_ms - covered,
                "outside": sum(1 for s in children if s.start < root.start or s.end > root.end),
            }
        )
    return out


def layer_metrics(tracer: Tracer, peaks: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Aggregate spans and planner calls into named per-layer metrics."""
    metrics: Dict[str, Tuple[float, str]] = {}
    by_planner: Dict[str, List[PlannerCall]] = {name: [] for name in PLANNERS}
    for call in tracer.calls:
        by_planner.setdefault(call.planner, []).append(call)
    for name in PLANNERS:
        calls = by_planner[name]
        times = sorted(c.ms for c in calls)
        tail_pct, tail_ms = tail(times)
        prefix = f"planners.{name}"
        metrics[f"{prefix}.ms"] = (sum(times), "ms")
        metrics[f"{prefix}.calls"] = (len(calls), "count")
        metrics[f"{prefix}.ok"] = (sum(1 for c in calls if c.ok), "count")
        metrics[f"{prefix}.p50_ms"] = (_percentile(times, 50.0) if times else 0.0, "ms")
        metrics[f"{prefix}.tail_ms"] = (tail_ms, "ms")
        metrics[f"{prefix}.tail_pct"] = (tail_pct, "percentile")
        metrics[f"{prefix}.explored_cells"] = (sum(c.explored_cells for c in calls), "count")
        if name in SAMPLERS:
            metrics[f"{prefix}.tree_nodes"] = (sum(c.tree_nodes for c in calls), "count")
        if name in GRAPH:
            metrics[f"{prefix}.frontier_peak"] = (max((c.frontier_peak for c in calls), default=0), "count")
        metrics[f"{prefix}.tracemalloc_mb"] = (peaks.get(name, 0.0), "MiB")

    span_ms: Dict[str, float] = {}
    span_calls: Dict[str, int] = {}
    for s in tracer.spans:
        span_ms[s.name] = span_ms.get(s.name, 0.0) + (s.end - s.start) * 1e3
        span_calls[s.name] = span_calls.get(s.name, 0) + 1
    for span_name, metric in CHILD_LAYERS:
        metrics[metric] = (span_ms.get(span_name, 0.0), "ms")
    metrics["grid.distance_transform.calls"] = (span_calls.get("grid.distance_transform", 0), "count")
    metrics["mapio.bytes_read"] = (tracer.bytes_read, "bytes")
    metrics["analyzer.output_bytes"] = (tracer.output_bytes, "bytes")
    metrics["plots.svg_bytes"] = (tracer.svg_bytes, "bytes")

    sweeps = sweep_breakdown(tracer)
    sweep_ms = sum(s["sweep_ms"] for s in sweeps)
    metrics["analyzer.sweep_ms"] = (sweep_ms, "ms")
    metrics["analyzer.self_ms"] = (sum(s["self_ms"] for s in sweeps), "ms")
    busy = sum(s["children_ms"] for s in sweeps)
    metrics["analyzer.pool_busy_ratio"] = (busy / sweep_ms if sweep_ms else 0.0, "ratio")
    return metrics
