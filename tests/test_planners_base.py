"""How every registered planner starts and ends a run: the endpoint check,
the trivial run, a failed run and the clock around all of it."""

import time

import numpy as np
import pytest

from pbgrid.grid import Connectivity, GridMap, MapError, MoveModel, Path, euclidean_distance
from pbgrid.planners import available_planners, resolve_planner
from pbgrid.planners.base import (
    BUDGET_EXHAUSTED,
    LOCAL_MINIMUM,
    ROADMAP_DISCONNECTED,
    UNREACHABLE,
    PlanOutcome,
)

FULL = MoveModel(Connectivity.FULL)
PLANNERS = available_planners()

# The goal (1, 2) is walled in; the agent (0, 0) shares its side of the wall
# with (0, 1) and (1, 0). No diagonal move cuts the corner between them.
WALLED = GridMap(np.array([[0, 0, 1], [0, 1, 0]], dtype=bool), agent=(0, 0), goal=(1, 2))
NEAR = {(0, 0), (0, 1), (1, 0)}
TREE = [((0, 0), -1.0, 0.0), ((1, 0), 0.0, 1.0), ((0, 1), 0.0, 2.0)]


def walk_log(cells):
    """A walk's log: each cell with its goal distance, the first cell in
    motion to the goal (0.0) and every later one following the wall (1.0)."""
    return [(c, euclidean_distance(c, WALLED.goal), float(k > 0)) for k, c in enumerate(cells)]


# name -> (explored, frontier_peak, step_log, peak_memory_bytes, terminal_cell, failure_reason)
FAILED = {
    "astar": (NEAR, 2, None, 584, (0, 0), UNREACHABLE),
    "dijkstra": (NEAR, 2, None, 584, (0, 0), UNREACHABLE),
    "wavefront": ({(1, 2)}, 1, None, 224, (0, 0), UNREACHABLE),
    "d-rrt": (NEAR, 3, TREE, 368, (0, 0), BUDGET_EXHAUSTED),
    "d-rt": (NEAR, 3, TREE, 368, (0, 0), BUDGET_EXHAUSTED),
    "d-rrt-connect": (NEAR | {(1, 2)}, 4, TREE + [((1, 2), -1.0, 3.0)], 544, (0, 0), BUDGET_EXHAUSTED),
    "d-rrt-star": (NEAR, 3, TREE, 368, (0, 0), BUDGET_EXHAUSTED),
    "d-sprm": ({(0, 0), (1, 2)}, 1, [((0, 0), -1.0, 0.0), ((1, 2), -1.0, 1.0)], 224, (0, 0), ROADMAP_DISCONNECTED),
    "bug1": (
        NEAR,
        0,
        walk_log([(0, 0)] + [(1, 0), (0, 0), (0, 1), (0, 0)] * 3 + [(0, 1), (0, 0), (1, 0), (0, 0), (0, 1)]),
        304,
        (0, 1),
        UNREACHABLE,
    ),
    "bug2": ({(0, 0), (1, 0)}, 0, walk_log([(0, 0), (1, 0), (0, 0)]), 240, (0, 0), UNREACHABLE),
    "potential-field": ({(0, 0)}, 0, [((0, 0), 26.271284308093655, 0.0)], 56, (0, 0), LOCAL_MINIMUM),
}


def test_failed_run_table_covers_the_registry():
    assert set(FAILED) == set(PLANNERS)


@pytest.mark.parametrize("name", PLANNERS)
def test_missing_endpoints_raise_map_error(name):
    for grid in (GridMap(np.zeros((4, 4), dtype=bool)), WALLED.with_endpoints((0, 0), None)):
        with pytest.raises(MapError):
            resolve_planner(name).run(grid, FULL)


@pytest.mark.parametrize("name", PLANNERS)
@pytest.mark.parametrize("record_steps", [False, True])
def test_trivial_run(name, record_steps):
    entry = resolve_planner(name)
    grid = GridMap(np.zeros((3, 3), dtype=bool), agent=(1, 1), goal=(1, 1))
    out = entry.run(grid, FULL, record_steps=record_steps)
    # graph planners log steps on request; samplers and local planners always
    logged = record_steps or entry.kind != "graph"
    assert out.success and out.failure_reason is None
    assert out.path == Path.from_cells([(1, 1)])
    assert out.trace.explored == {(1, 1)}
    assert out.trace.frontier_peak == 0
    assert out.trace.step_log == ([] if logged else None)
    assert out.peak_memory_bytes == 0
    assert out.terminal_cell == (1, 1)


@pytest.mark.parametrize("name", PLANNERS)
def test_walled_in_goal_fails(name):
    out = resolve_planner(name).run(WALLED, FULL)
    assert not out.success and out.path is None
    t = out.trace
    got = (t.explored, t.frontier_peak, t.step_log, out.peak_memory_bytes, out.terminal_cell, out.failure_reason)
    assert got == FAILED[name]


@pytest.mark.parametrize("name", PLANNERS)
def test_elapsed_time_covers_building_the_outcome(name, monkeypatch):
    """The clock stops after the outcome is built: a slow outcome shows in
    the time of a solved, a failed and a trivial run alike."""
    check = PlanOutcome.__post_init__

    def slow_check(outcome):
        time.sleep(0.02)
        check(outcome)

    monkeypatch.setattr(PlanOutcome, "__post_init__", slow_check)
    open_map = GridMap(np.zeros((4, 4), dtype=bool), agent=(0, 0), goal=(3, 3))
    trivial = open_map.with_endpoints((1, 1), (1, 1))
    for grid, solved in ((open_map, True), (WALLED, False), (trivial, True)):
        out = resolve_planner(name).run(grid, FULL)
        assert out.success == solved
        assert out.elapsed_seconds >= 0.02
