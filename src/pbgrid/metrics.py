"""The per-run evaluation metrics, computed against an optimal baseline.

Nine values per run: success, path cost (with the raw cell count kept
alongside, since diagonal steps make cost and count diverge), distance
left at the terminal cell, wall time, deviation from the baseline cost,
explored fraction of free space, peak memory, mean obstacle clearance,
and mean turn angle. Fields that have no defined value for a run (for
example smoothness of a two-cell path) are None rather than zero so
aggregation can skip them honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .grid import DistanceField, GridMap, Path, euclidean_distance
from .planners.base import PlanOutcome, SearchTrace


class InconsistencyError(ValueError):
    """The optimal baseline failed where the evaluated planner succeeded."""


@dataclass(frozen=True)
class MetricReport:
    success: bool
    path_length_cells: Optional[float]
    path_cell_count: Optional[int]
    distance_left_cells: float
    time_seconds: float
    path_deviation_pct: Optional[float]
    search_space_pct: float
    peak_memory_mb: float
    obstacle_clearance_cells: Optional[float]
    smoothness_deg: Optional[float]


def path_deviation_pct(outcome_cost: float, baseline_cost: float) -> float:
    """Percentage excess over the baseline cost; both runs must have
    succeeded for the quantity to mean anything."""
    if outcome_cost == baseline_cost:
        return 0.0  # exact, even for zero-length trivial paths
    if baseline_cost <= 0:
        raise ValueError("baseline cost must be positive")
    return 100.0 * (outcome_cost - baseline_cost) / baseline_cost


def search_space_pct(trace: SearchTrace, grid: GridMap) -> float:
    free = grid.free_count
    if free == 0:
        return 0.0
    return 100.0 * len(trace.explored) / free


def obstacle_clearance(path: Path, field: DistanceField) -> Optional[float]:
    if field.unbounded:
        return None
    return float(sum(float(field.values[c]) for c in path.cells) / len(path.cells))


def smoothness_deg(path: Path) -> Optional[float]:
    cells = path.cells
    if len(cells) < 3:
        return None
    vectors = [
        tuple(b - a for a, b in zip(u, v)) for u, v in zip(cells, cells[1:])
    ]
    total = 0.0
    for u, v in zip(vectors, vectors[1:]):
        dot = sum(a * b for a, b in zip(u, v))
        cos = dot / (math.hypot(*u) * math.hypot(*v))
        total += math.degrees(math.acos(max(-1.0, min(1.0, cos))))
    return total / (len(vectors) - 1)


def compute_report(
    outcome: PlanOutcome,
    baseline: PlanOutcome,
    grid: GridMap,
    field: DistanceField,
    elapsed: Optional[float] = None,
) -> MetricReport:
    """Assemble the full report for one run.

    ``baseline`` must be the optimal planner's outcome on the same map:
    a successful run against a failed baseline is a contradiction and
    raises rather than producing a negative-deviation report.  The time
    is ``elapsed`` when given (the fastest of timed repeats), else the
    outcome's own.
    """
    if outcome.success and not baseline.success:
        raise InconsistencyError(
            "evaluated planner succeeded where the optimal baseline failed"
        )
    if outcome.success:
        distance_left = 0.0
        cost = outcome.path.cost
        deviation = path_deviation_pct(cost, baseline.path.cost)
        clearance = obstacle_clearance(outcome.path, field)
        smooth = smoothness_deg(outcome.path)
        cell_count = len(outcome.path.cells)
    else:
        distance_left = euclidean_distance(outcome.terminal_cell, grid.goal)
        cost = None
        deviation = None
        clearance = None
        smooth = None
        cell_count = None
    return MetricReport(
        success=outcome.success,
        path_length_cells=cost,
        path_cell_count=cell_count,
        distance_left_cells=distance_left,
        time_seconds=outcome.elapsed_seconds if elapsed is None else elapsed,
        path_deviation_pct=deviation,
        search_space_pct=search_space_pct(outcome.trace, grid),
        peak_memory_mb=outcome.peak_memory_bytes / 2**20,
        obstacle_clearance_cells=clearance,
        smoothness_deg=smooth,
    )
