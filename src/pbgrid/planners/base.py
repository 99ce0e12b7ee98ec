"""Shared planner result types, the frame of every run, and the nominal
memory-accounting scheme.

Every planner function is wrapped in ``timed_run``, whose one clock times
the whole call. Inside it a planner answers a run whose agent already
stands on the goal with ``trivial_outcome`` and ends with one
``build_outcome`` call; no other module builds a ``PlanOutcome``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import AbstractSet, Iterable, List, Optional, Tuple

from pbgrid.grid import Cell, GridMap, MapError, Path

# Failure reasons carried in PlanOutcome so the analyzer can histogram them.
UNREACHABLE = "unreachable"            # complete search exhausted: no path exists
BUDGET_EXHAUSTED = "budget_exhausted"  # sampler ran out of max_samples
ROADMAP_DISCONNECTED = "roadmap_disconnected"  # PRM query found no graph path
LOCAL_MINIMUM = "local_minimum"        # potential field trapped
STEP_LIMIT = "step_limit"              # walk exceeded its step budget

# Nominal per-entry sizes (bytes) for the instrumented memory high-water mark.
# These are documented accounting weights for planner-owned structures, not
# allocator measurements: the metric needs a portable, comparable number.
HEAP_ENTRY_BYTES = 64
DICT_ENTRY_BYTES = 72
SET_ENTRY_BYTES = 32
TREE_NODE_BYTES = 96
WAVE_CELL_BYTES = 8


@dataclass
class SearchTrace:
    """What a planner looked at: expanded cells plus frontier bookkeeping.

    ``explored`` is read-only. The graph searches and d-sprm hand back a
    ``grid.FlatCellSet`` of padded flat indices, whose ``len`` and ``in`` are
    cheap and whose iteration decodes cells; the other planners a built-in
    set. Either compares equal to a built-in set of the same cells.
    """

    explored: AbstractSet[Cell]
    frontier_peak: int = 0
    step_log: Optional[List[Tuple[Cell, float, float]]] = None


@dataclass
class PlanOutcome:
    """One planner run's raw result; metrics are computed from this."""

    success: bool
    path: Optional[Path]
    trace: SearchTrace
    elapsed_seconds: float
    peak_memory_bytes: int
    terminal_cell: Cell
    failure_reason: Optional[str] = None

    def __post_init__(self):
        if self.success != (self.path is not None):
            raise ValueError("success must hold exactly when a path is present")
        if self.success and self.failure_reason is not None:
            raise ValueError("successful outcome cannot carry a failure reason")
        if self.elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be >= 0")


def require_endpoints(grid: GridMap) -> None:
    """Reject a map whose agent or goal is not placed."""
    if grid.agent is None or grid.goal is None:
        raise MapError("planner needs a map with agent and goal set")


def timed_run(planner):
    """Wrap a planner function: check the endpoints, run it, and stamp its
    outcome's ``elapsed_seconds`` with the wall time of the whole call."""

    @functools.wraps(planner)
    def run(grid: GridMap, *args, **kwargs) -> PlanOutcome:
        t0 = time.perf_counter()
        require_endpoints(grid)
        outcome = planner(grid, *args, **kwargs)
        outcome.elapsed_seconds = time.perf_counter() - t0
        return outcome

    return run


def build_outcome(
    grid: GridMap,
    cells: Optional[Iterable[Cell]],
    trace: SearchTrace,
    memory: int,
    reason: Optional[str],
    stop: Optional[Cell] = None,
) -> PlanOutcome:
    """The end of a run: a success along ``cells``, which ends on the goal,
    or, when ``cells`` is None, a failure for ``reason`` whose terminal cell
    is ``stop``, the agent's cell unless given; ``timed_run`` sets its time."""
    if cells is not None:
        return PlanOutcome(True, Path.from_cells(cells), trace, 0.0, memory, grid.goal)
    return PlanOutcome(False, None, trace, 0.0, memory, grid.agent if stop is None else stop, reason)


def trivial_outcome(grid: GridMap, record_steps: bool) -> PlanOutcome:
    """The run whose agent already stands on the goal: the one-cell path,
    nothing searched or held. Its step log is empty when the planner records
    steps, and None when it does not."""
    trace = SearchTrace(explored={grid.agent}, frontier_peak=0, step_log=[] if record_steps else None)
    return build_outcome(grid, [grid.agent], trace, 0, None)
