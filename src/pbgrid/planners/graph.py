"""Complete graph-search planners: A*, Dijkstra, wavefront.

A* doubles as the optimal baseline for the deviation metric and the dataset
labelling oracle, so its tie-breaking is pinned: lower f, then lower h, then
lexicographic cell order.
"""

from __future__ import annotations

import time
from collections import deque
from heapq import heappop, heappush

from pbgrid.grid import (
    SQRT2,
    SQRT3,
    Connectivity,
    DomainError,
    FlatGrid,
    GridMap,
    MapError,
    MoveModel,
    Path,
)
from pbgrid.planners.base import (
    DICT_ENTRY_BYTES,
    HEAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    UNREACHABLE,
    WAVE_CELL_BYTES,
    PlanOutcome,
    SearchTrace,
)


def heuristic(a, b, model: MoveModel) -> float:
    """Octile (2D) / voxel-octile (3D) distance for Full connectivity,
    Manhattan for Orthogonal. Admissible for Euclidean step costs."""
    if len(a) != len(b):
        raise DomainError(f"dimensionality mismatch: {len(a)} vs {len(b)}")
    deltas = sorted((abs(x - y) for x, y in zip(a, b)), reverse=True)
    if model.connectivity is Connectivity.ORTHOGONAL:
        return float(sum(deltas))
    if len(deltas) == 2:
        d1, d2 = deltas
        return (d1 - d2) + SQRT2 * d2
    d1, d2, d3 = deltas
    return (d1 - d2) + SQRT2 * (d2 - d3) + SQRT3 * d3


def _require_endpoints(grid: GridMap):
    if grid.agent is None or grid.goal is None:
        raise MapError("planner needs a map with agent and goal set")


def _trivial_outcome(grid: GridMap, elapsed: float) -> PlanOutcome:
    return PlanOutcome(
        success=True,
        path=Path.from_cells([grid.agent]),
        trace=SearchTrace(explored={grid.agent}, frontier_peak=0),
        elapsed_seconds=elapsed,
        peak_memory_bytes=0,
        terminal_cell=grid.agent,
    )


def _heap_search(
    grid: GridMap,
    model: MoveModel,
    use_heuristic: bool,
    record_steps: bool,
) -> PlanOutcome:
    t0 = time.perf_counter()
    _require_endpoints(grid)
    if grid.agent == grid.goal:
        return _trivial_outcome(grid, time.perf_counter() - t0)

    fg = FlatGrid(grid, model)
    moves = fg.moves
    goal_cell = grid.goal
    start_idx, goal_idx = fg.agent, fg.goal

    g_cost = {start_idx: 0.0}
    parent = {}
    closed = set()
    step_log = [] if record_steps else None

    h0 = heuristic(grid.agent, goal_cell, model) if use_heuristic else 0.0
    # entry: (f, h, cell, flat index, g at push) -- ties resolve on h then cell
    frontier = [(h0, h0, grid.agent, start_idx, 0.0)]
    frontier_peak = 1
    found = False

    while frontier:
        f, h, cell, idx, g_here = heappop(frontier)
        if idx in closed:
            continue
        closed.add(idx)
        if record_steps:
            step_log.append((cell, f, g_here))
        if idx == goal_idx:
            found = True
            break
        for delta, legal, cost, vec in moves:
            if not legal[idx]:
                continue
            nidx = idx + delta
            ng = g_here + cost
            if ng < g_cost.get(nidx, float("inf")):
                g_cost[nidx] = ng
                parent[nidx] = idx
                ncell = tuple(c + d for c, d in zip(cell, vec))
                nh = heuristic(ncell, goal_cell, model) if use_heuristic else 0.0
                heappush(frontier, (ng + nh, nh, ncell, nidx, ng))
                if len(frontier) > frontier_peak:
                    frontier_peak = len(frontier)

    elapsed = time.perf_counter() - t0
    explored = {fg.to_cell(i) for i in closed}
    memory = (
        frontier_peak * HEAP_ENTRY_BYTES
        + (len(g_cost) + len(parent)) * DICT_ENTRY_BYTES
        + len(closed) * SET_ENTRY_BYTES
    )
    trace = SearchTrace(explored=explored, frontier_peak=frontier_peak, step_log=step_log)
    if not found:
        return PlanOutcome(
            success=False,
            path=None,
            trace=trace,
            elapsed_seconds=elapsed,
            peak_memory_bytes=memory,
            terminal_cell=grid.agent,
            failure_reason=UNREACHABLE,
        )
    chain = [goal_idx]
    while chain[-1] != start_idx:
        chain.append(parent[chain[-1]])
    cells = [fg.to_cell(i) for i in reversed(chain)]
    return PlanOutcome(
        success=True,
        path=Path.from_cells(cells),
        trace=trace,
        elapsed_seconds=elapsed,
        peak_memory_bytes=memory,
        terminal_cell=grid.goal,
    )


def astar(grid: GridMap, model: MoveModel, record_steps: bool = False) -> PlanOutcome:
    """Optimal A* under the octile/Manhattan heuristic."""
    return _heap_search(grid, model, use_heuristic=True, record_steps=record_steps)


def dijkstra(grid: GridMap, model: MoveModel, record_steps: bool = False) -> PlanOutcome:
    """A* with a zero heuristic; same optimal cost, larger explored set."""
    return _heap_search(grid, model, use_heuristic=False, record_steps=record_steps)


# Descent prefers cheaper moves among equal wave values (orthogonal before
# diagonal), which keeps the extracted path near-straight on open ground; the
# order is fixed, so extraction stays deterministic.
def _descent_order(fg: FlatGrid):
    return tuple(sorted(fg.moves, key=lambda e: (e[2], e[3])))


def wavefront(grid: GridMap, model: MoveModel, record_steps: bool = False) -> PlanOutcome:
    """Breadth-first integer wave expansion from the goal, then greedy descent.

    The wave covers the goal's entire free component (the classical
    navigation-function construction); the agent succeeds iff its cell
    received a wave value.
    """
    t0 = time.perf_counter()
    _require_endpoints(grid)
    if grid.agent == grid.goal:
        return _trivial_outcome(grid, time.perf_counter() - t0)

    fg = FlatGrid(grid, model)
    moves = fg.moves
    start_idx, goal_idx = fg.agent, fg.goal

    wave = [-1] * fg.size
    wave[goal_idx] = 0
    queue = deque([goal_idx])
    assigned = [goal_idx]
    queue_peak = 1
    while queue:
        idx = queue.popleft()
        w1 = wave[idx] + 1
        for delta, legal, _cost, _vec in moves:
            nidx = idx + delta
            if not legal[idx] or wave[nidx] >= 0:
                continue
            wave[nidx] = w1
            queue.append(nidx)
            assigned.append(nidx)
            if len(queue) > queue_peak:
                queue_peak = len(queue)

    elapsed_expand = time.perf_counter() - t0
    explored = {fg.to_cell(i) for i in assigned}
    step_log = None
    if record_steps:
        step_log = [(fg.to_cell(i), float(wave[i]), float(wave[i])) for i in assigned]
    memory = len(wave) * WAVE_CELL_BYTES + queue_peak * HEAP_ENTRY_BYTES
    trace = SearchTrace(explored=explored, frontier_peak=queue_peak, step_log=step_log)

    if wave[start_idx] < 0:
        return PlanOutcome(
            success=False,
            path=None,
            trace=trace,
            elapsed_seconds=elapsed_expand,
            peak_memory_bytes=memory,
            terminal_cell=grid.agent,
            failure_reason=UNREACHABLE,
        )

    order = _descent_order(fg)
    cells = [grid.agent]
    idx = start_idx
    while idx != goal_idx:
        best_idx = -1
        best_wave = wave[idx]
        best_vec = None
        for delta, legal, _cost, vec in order:
            nidx = idx + delta
            if legal[idx] and 0 <= wave[nidx] < best_wave:
                best_idx = nidx
                best_wave = wave[nidx]
                best_vec = vec
                break  # order is cost-sorted; first strictly lower wave wins
        if best_idx < 0:  # cannot happen: BFS parent always qualifies
            raise AssertionError("wavefront descent lost the gradient")
        idx = best_idx
        cells.append(tuple(c + d for c, d in zip(cells[-1], best_vec)))

    elapsed = time.perf_counter() - t0
    return PlanOutcome(
        success=True,
        path=Path.from_cells(cells),
        trace=trace,
        elapsed_seconds=elapsed,
        peak_memory_bytes=memory,
        terminal_cell=grid.goal,
    )


def dump_trace(outcome: PlanOutcome, stream) -> int:
    """Write one expansion per line: cell coords, f, g. Returns line count."""
    log = outcome.trace.step_log
    if log is None:
        raise ValueError("outcome was produced without record_steps")
    n = 0
    for cell, f, g in log:
        stream.write(" ".join(str(c) for c in cell) + f" {f!r} {g!r}\n")
        n += 1
    return n
