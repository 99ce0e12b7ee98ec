"""Complete graph-search planners: A*, Dijkstra, wavefront.

A* doubles as the optimal baseline for the deviation metric and the dataset
labelling oracle, so its tie-breaking is pinned: lower f, then lower h, then
lexicographic cell order. It runs a binary heap, one cell at a time; the last
tie-break compares padded row-major flat indices, which order in-bounds cells
as their tuples do.

Dijkstra and the wavefront are numpy searches over FlatGrid's legality
table that settle a whole band of distance, or a whole breadth-first level,
per step, reading the legality of every move out of the band in one gather.
Each returns exactly the outcome of the one-cell-at-a-time search it
replaces (Dijkstra: A*'s heap search with a zero heuristic; wavefront: a
FIFO queue), path, explored set and step log included. Their frontier_peak
and peak_memory_bytes are the nominal heap or queue counts of that search,
computed from its pushes rather than held.

All three hand back the explored cells as a ``FlatCellSet`` of the flat
indices they settled, so no run builds a set of cell tuples; only a step
log, when asked for, decodes them.

Each planner runs in ``planners.base.timed_run``: a step log is kept only
under ``record_steps``, the trivial run included.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from pbgrid.grid import (
    SQRT2,
    SQRT3,
    Connectivity,
    DomainError,
    FlatCellSet,
    FlatGrid,
    GridMap,
    MoveModel,
)
from pbgrid.planners.base import (
    DICT_ENTRY_BYTES,
    HEAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    UNREACHABLE,
    WAVE_CELL_BYTES,
    PlanOutcome,
    SearchTrace,
    build_outcome,
    timed_run,
    trivial_outcome,
)


def heuristic(a, b, model: MoveModel) -> float:
    """Octile (2D) / voxel-octile (3D) distance for Full connectivity,
    Manhattan for Orthogonal. Admissible for Euclidean step costs."""
    if len(a) != len(b):
        raise DomainError(f"dimensionality mismatch: {len(a)} vs {len(b)}")
    return _goal_heuristic(b, model)(a)


def _goal_heuristic(goal, model: MoveModel):
    """``heuristic(cell, goal, model)`` as a function of ``cell`` alone.

    The per-axis gaps are ints; sorted descending as d1 >= d2 (>= d3) the
    distance is (d1 - d2) + SQRT2 * d2 in 2D and (d1 - d2) + SQRT2 * (d2 - d3)
    + SQRT3 * d3 in 3D, and their sum under Orthogonal connectivity.
    """
    if model.connectivity is Connectivity.ORTHOGONAL:
        return lambda cell: float(sum([abs(x - y) for x, y in zip(cell, goal)]))
    if len(goal) == 2:
        g0, g1 = goal

        def octile(cell):
            a, b = abs(cell[0] - g0), abs(cell[1] - g1)
            if a < b:
                a, b = b, a
            return (a - b) + SQRT2 * b

        return octile
    g0, g1, g2 = goal

    def voxel_octile(cell):
        a, b, c = abs(cell[0] - g0), abs(cell[1] - g1), abs(cell[2] - g2)
        d1, d3 = max(a, b, c), min(a, b, c)
        d2 = a + b + c - d1 - d3
        return (d1 - d2) + SQRT2 * (d2 - d3) + SQRT3 * d3

    return voxel_octile


@timed_run
def astar(grid: GridMap, model: MoveModel, record_steps: bool = False) -> PlanOutcome:
    """Optimal A* under the octile/Manhattan heuristic."""
    if grid.agent == grid.goal:
        return trivial_outcome(grid, record_steps)

    fg = FlatGrid(grid, model)
    moves = fg.moves
    start_idx, goal_idx = fg.agent, fg.goal

    g_cost = {start_idx: 0.0}
    parent = {}
    closed = set()
    step_log = [] if record_steps else None
    h = _goal_heuristic(grid.goal, model)
    inf = float("inf")

    h0 = h(grid.agent)
    # entry: (f, h, flat index, g at push, cell) -- ties resolve on h, then on
    # the flat index, which orders in-bounds cells as their tuples do
    frontier = [(h0, h0, start_idx, 0.0, grid.agent)]
    frontier_peak = 1
    found = False

    while frontier:
        f, _h, idx, g_here, cell = heappop(frontier)
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
            if ng < g_cost.get(nidx, inf):
                g_cost[nidx] = ng
                parent[nidx] = idx
                ncell = tuple(map(int.__add__, cell, vec))  # cells and vectors hold ints
                nh = h(ncell)
                heappush(frontier, (ng + nh, nh, nidx, ng, ncell))
                if len(frontier) > frontier_peak:
                    frontier_peak = len(frontier)

    memory = (
        frontier_peak * HEAP_ENTRY_BYTES
        + (len(g_cost) + len(parent)) * DICT_ENTRY_BYTES
        + len(closed) * SET_ENTRY_BYTES
    )
    del frontier, g_cost  # freed before the explored view is built
    explored = FlatCellSet(np.fromiter(closed, dtype=np.int64, count=len(closed)), fg.strides)
    trace = SearchTrace(explored=explored, frontier_peak=frontier_peak, step_log=step_log)
    cells = None
    if found:
        chain = [goal_idx]
        while chain[-1] != start_idx:
            chain.append(parent[chain[-1]])
        cells = [fg.to_cell(i) for i in reversed(chain)]
    return build_outcome(grid, cells, trace, memory, UNREACHABLE)


@timed_run
def dijkstra(grid: GridMap, model: MoveModel, record_steps: bool = False) -> PlanOutcome:
    """Dijkstra's search, settled one unit band of distance at a time.

    Every step costs at least 1, so once all distances below an integer k
    are final, every tentative distance in [k, k+1) is final too: a band is
    settled with one gather over the moves and one ``np.minimum.at``. The
    distances are the left-to-right float sums a heap search computes, and
    the outcome is the one ``astar``'s heap search gives with a zero heuristic:
    the same pops in (distance, cell) order up to the goal, the same parents
    and the same pushes. ``frontier_peak`` and ``peak_memory_bytes`` are the
    nominal heap, dict and set counts of that search, computed from its
    pushes rather than held.
    """
    if grid.agent == grid.goal:
        return trivial_outcome(grid, record_steps)

    fg = FlatGrid(grid, model)
    start_idx, goal_idx = fg.agent, fg.goal
    table, deltas, costs = _move_arrays(fg)

    dist = np.full(fg.size, np.inf)
    dist[start_idx] = 0.0
    pending = np.array([start_idx])  # cells pushed but not yet final, repeats allowed
    bands, pushes = [], []
    popped = 0
    found = False
    while pending.size and not found:
        d = dist[pending]
        top = np.floor(d.min()) + 1.0
        inside = d < top
        band = pending[inside]
        pending = pending[~inside]
        band = band[_order(dist[band], band)]  # heap pop order
        band = band[np.append(True, band[1:] != band[:-1])]  # a cell pushed twice is pending twice
        if dist[goal_idx] < top:
            found = True
            band = band[: band.tolist().index(goal_idx)]  # the goal is not expanded
        legal = _legality(table, band)
        to = (band[:, None] + deltas)[legal.T]
        value = (dist[band][:, None] + costs)[legal.T]
        pos = np.repeat(np.arange(band.size), legal.sum(axis=0))
        better = value < dist[to]
        to, value, pos = _improvements(to[better], value[better], pos[better], band.size)
        np.minimum.at(dist, to, value)
        pending = np.concatenate((pending, to))
        bands.append(band)
        pushes.append((to, value, pos + popped))
        popped += band.size

    expanded = np.concatenate(bands)
    closed = np.append(expanded, goal_idx) if found else expanded
    to, value, by = (np.concatenate(parts) for parts in zip(*pushes))
    final = value == dist[to]  # each pushed cell's last push
    frontier_peak = _heap_peak(expanded, dist[expanded], to[~final], value[~final], by)
    pushed = int(np.count_nonzero(final))
    memory = (
        frontier_peak * HEAP_ENTRY_BYTES
        + (1 + 2 * pushed) * DICT_ENTRY_BYTES
        + closed.size * SET_ENTRY_BYTES
    )
    step_log = None
    if record_steps:
        g = dist[closed].tolist()
        step_log = list(zip(fg.to_cells(closed), g, g))
    trace = SearchTrace(
        explored=FlatCellSet(closed, fg.strides), frontier_peak=frontier_peak, step_log=step_log
    )
    route = None
    if found:
        parent = np.empty(fg.size, dtype=expanded.dtype)
        parent[to[final]] = expanded[by[final]]
        chain = [goal_idx]
        while chain[-1] != start_idx:
            chain.append(int(parent[chain[-1]]))
        route = fg.to_cells(np.array(chain[::-1]))
    return build_outcome(grid, route, trace, memory, UNREACHABLE)


def _move_arrays(fg: FlatGrid):
    """FlatGrid's (moves x padded cells) legality table as a bool view (no
    copy), with the move deltas and step costs as arrays, all in
    ``fg.moves`` order."""
    deltas = np.array([entry[0] for entry in fg.moves])
    costs = np.array([entry[2] for entry in fg.moves])
    return fg.table.view(bool), deltas, costs


def _legality(table: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(moves x nodes) legality of every move out of ``nodes``, read in one
    gather of the table's columns; its transpose lists the moves in the
    order a one-node-at-a-time search tries them."""
    return table[:, nodes]


def _order(primary, secondary):
    """Indices that sort by (primary, secondary), ties kept in input order."""
    return np.lexsort((secondary, primary))


def _improvements(to, value, pos, n):
    """The edges of one band that a heap search pushes.

    Each edge already beats its target's distance from earlier bands; it is
    pushed when it also beats every edge into the same target from an
    earlier-popped node of the band (pos is the pop position in the band).
    In (target, value, pos) order that is an edge whose pos is below the pos
    of every edge before it into the same target.
    """
    order = _order(to, value)  # stable, so equal values stay in pop order
    to, value, pos = to[order], value[order], pos[order]
    head = np.ones(to.size, dtype=bool)
    head[1:] = to[1:] != to[:-1]
    # later targets get lower keys, so one running minimum restarts at each target
    key = pos - np.cumsum(head) * n
    keep = head.copy()
    keep[1:] |= key[1:] < np.minimum.accumulate(key)[:-1]
    return to[keep], value[keep], pos[keep]


def _heap_peak(expanded, expanded_dist, stale_to, stale_value, by) -> int:
    """Largest heap of the equivalent heap search.

    ``expanded`` lists the expanded nodes in pop order, ``stale_*`` the
    entries that a later push superseded, and ``by`` the pop position of
    each push. After the i-th expanded node's pop and pushes the heap holds
    1 + (pushes so far) - (pops so far). The pops so far are that node's own
    (distance, cell) entry and every entry ordered before it: the i earlier
    nodes' own entries and the stale entries ordered before it. A node
    without pushes only shrinks the heap, so the maximum over all nodes is
    the peak the heap search records after its pushes.
    """
    stale = np.repeat((False, True), (expanded.size, stale_to.size))
    order = _order(np.concatenate((expanded_dist, stale_value)), np.concatenate((expanded, stale_to)))
    stale = stale[order]
    stale_before = np.cumsum(stale)[~stale]
    pushes = np.cumsum(np.bincount(by, minlength=expanded.size))
    return max(1, int((pushes - np.arange(expanded.size) - stale_before).max()))


# Descent prefers cheaper moves among equal wave values (orthogonal before
# diagonal), which keeps the extracted path near-straight on open ground; the
# order is fixed, so extraction stays deterministic.
def _descent_order(fg: FlatGrid):
    return tuple(sorted(fg.moves, key=lambda e: (e[2], e[3])))


@timed_run
def wavefront(grid: GridMap, model: MoveModel, record_steps: bool = False) -> PlanOutcome:
    """Breadth-first integer wave expansion from the goal, then greedy descent.

    The wave covers the goal's entire free component (the classical
    navigation-function construction); the agent succeeds iff its cell
    received a wave value. The wave grows one level at a time: a level's
    children are its cells' legal, unvisited neighbours, each kept at its
    first discovery in (parent, move) order, which is the order a FIFO queue
    assigns them. ``frontier_peak`` is the nominal peak length of that queue,
    computed from the per-parent child counts rather than held.
    """
    if grid.agent == grid.goal:
        return trivial_outcome(grid, record_steps)

    fg = FlatGrid(grid, model)
    start_idx, goal_idx = fg.agent, fg.goal
    table, deltas, _costs = _move_arrays(fg)

    # first[v]: the earliest edge of this level into v; reached cells hold -1,
    # below every edge id, so they never take a later edge
    first = np.full(fg.size, np.iinfo(np.int32).max, dtype=np.int32)
    first[goal_idx] = -1
    level = np.array([goal_idx])
    levels, parents = [level], []
    done = 0
    while level.size:
        legal = _legality(table, level)
        to = (level[:, None] + deltas)[legal.T]
        edge = np.arange(to.size, dtype=np.int32)
        np.minimum.at(first, to, edge)
        new = first[to] == edge
        parents.append(np.repeat(np.arange(done, done + level.size), legal.sum(axis=0))[new])
        done += level.size
        level = to[new]
        first[level] = -1
        levels.append(level)

    assigned = np.concatenate(levels)
    # the queue right after the k-th cell is appended holds it and every cell
    # after its parent
    queue_peak = max(1, int((np.arange(1, assigned.size) - np.concatenate(parents)).max(initial=0)))
    sizes = [lv.size for lv in levels]
    del first, levels, parents  # freed before the wave array is built
    wave = np.full(fg.size, -1, dtype=np.int32)
    wave[assigned] = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    step_log = None
    if record_steps:
        w = wave[assigned].astype(float).tolist()
        step_log = list(zip(fg.to_cells(assigned), w, w))
    memory = len(wave) * WAVE_CELL_BYTES + queue_peak * HEAP_ENTRY_BYTES
    trace = SearchTrace(
        explored=FlatCellSet(assigned, fg.strides), frontier_peak=queue_peak, step_log=step_log
    )

    route = None
    if wave[start_idx] >= 0:
        order = _descent_order(fg)
        route = [grid.agent]
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
            route.append(tuple(c + d for c, d in zip(route[-1], best_vec)))
    return build_outcome(grid, route, trace, memory, UNREACHABLE)


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
