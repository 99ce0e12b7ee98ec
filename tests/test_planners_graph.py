import gc
import io
import math
import tracemalloc
from collections import deque
from heapq import heappop, heappush

import numpy as np
import pytest

from pbgrid.grid import (
    Connectivity,
    FlatCellSet,
    FlatGrid,
    GridMap,
    MapError,
    MoveModel,
    Path,
    neighbors,
    validate_path,
)
from pbgrid.cli import main as cli_main
from pbgrid.mapgen import GenConfig, MapType, generate, place_agent_goal
from pbgrid.mapio import load_map
from pbgrid.planners import resolve_planner
from pbgrid.planners.base import (
    DICT_ENTRY_BYTES,
    HEAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    UNREACHABLE,
    WAVE_CELL_BYTES,
    PlanOutcome,
    SearchTrace,
    require_endpoints,
)
from pbgrid.planners.graph import (
    _descent_order,
    _goal_heuristic,
    astar,
    dijkstra,
    dump_trace,
    heuristic,
    wavefront,
)

FULL = MoveModel(Connectivity.FULL)
ORTH = MoveModel(Connectivity.ORTHOGONAL)
U_TRAP = "tests/fixtures/u_trap.map"  # the goal lies behind a U-shaped wall open toward the agent


# --- independent oracles -----------------------------------------------------

def bfs_hops(grid, start, goal):
    """Orthogonal unit-cost shortest path length in moves; None if unreachable."""
    if start == goal:
        return 0
    seen = {start}
    q = deque([(start, 0)])
    while q:
        cell, d = q.popleft()
        for n, _ in neighbors(grid, cell, ORTH):
            if n in seen:
                continue
            if n == goal:
                return d + 1
            seen.add(n)
            q.append((n, d + 1))
    return None


def bellman_ford_cost(grid, model, start, goal):
    """Brute-force relaxation over all free-cell edges; None if unreachable."""
    free = [tuple(c) for c in np.argwhere(~grid.occupancy)]
    dist = {c: math.inf for c in free}
    dist[start] = 0.0
    edges = []
    for c in free:
        for n, cost in neighbors(grid, c, model):
            edges.append((c, n, cost))
    for _ in range(len(free) - 1):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b] - 1e-15:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break
    return None if math.isinf(dist[goal]) else dist[goal]


def _shift(arr, vec):
    """shift(arr, v)[t] = arr[t - v], zero-filled at the boundary."""
    out = np.zeros_like(arr)
    src = []
    dst = []
    for axis, v in enumerate(vec):
        n = arr.shape[axis]
        if v >= 0:
            src.append(slice(0, n - v))
            dst.append(slice(v, n))
        else:
            src.append(slice(-v, n))
            dst.append(slice(0, n + v))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _proper_projections(move):
    import itertools

    axes = [i for i, c in enumerate(move) if c != 0]
    out = []
    for r in range(1, len(axes)):
        for keep in itertools.combinations(axes, r):
            out.append(tuple(move[i] if i in keep else 0 for i in range(len(move))))
    return out


def reachable_oracle(occ, start, goal):
    """Full-connectivity, corner-cut-aware reachability via masked dilation."""
    import itertools

    free = ~occ
    if not free[start] or not free[goal]:
        return False
    moves = [
        v
        for v in itertools.product((-1, 0, 1), repeat=occ.ndim)
        if any(c != 0 for c in v)
    ]
    valid_into = {}
    for d in moves:
        mask = free.copy()
        for p in _proper_projections(d):
            minus = tuple(a - b for a, b in zip(d, p))
            mask &= _shift(free, minus)
        valid_into[d] = mask
    reached = np.zeros_like(free)
    reached[start] = True
    while True:
        grown = reached.copy()
        for d in moves:
            grown |= _shift(reached, d) & valid_into[d]
        grown &= free
        if np.array_equal(grown, reached):
            break
        reached = grown
    return bool(reached[goal])


def random_instance(rng, size=8, fill=0.35, dims=2):
    shape = (size,) * dims
    occ = rng.random(shape) < fill
    free = np.argwhere(~occ)
    if len(free) < 2:
        return None
    picks = rng.choice(len(free), size=2, replace=False)
    return GridMap(occ, agent=tuple(free[picks[0]]), goal=tuple(free[picks[1]]))


def trivial_run(grid, record_steps):
    """The outcome of a run whose agent stands on the goal."""
    trace = SearchTrace(explored={grid.agent}, frontier_peak=0, step_log=[] if record_steps else None)
    return PlanOutcome(True, Path.from_cells([grid.agent]), trace, 0.0, 0, grid.agent)


def deque_wavefront(grid, model, record_steps=False):
    """The wavefront planner as a FIFO queue, one cell at a time: the oracle
    for the level-at-a-time search, with the planner's own greedy descent."""
    require_endpoints(grid)
    if grid.agent == grid.goal:
        return trivial_run(grid, record_steps)

    fg = FlatGrid(grid, model)
    start_idx, goal_idx = fg.agent, fg.goal
    wave = [-1] * fg.size
    wave[goal_idx] = 0
    queue = deque([goal_idx])
    assigned = [goal_idx]
    queue_peak = 1
    while queue:
        idx = queue.popleft()
        for delta, legal, _cost, _vec in fg.moves:
            nidx = idx + delta
            if not legal[idx] or wave[nidx] >= 0:
                continue
            wave[nidx] = wave[idx] + 1
            queue.append(nidx)
            assigned.append(nidx)
            queue_peak = max(queue_peak, len(queue))

    step_log = None
    if record_steps:
        step_log = [(fg.to_cell(i), float(wave[i]), float(wave[i])) for i in assigned]
    trace = SearchTrace(
        explored={fg.to_cell(i) for i in assigned}, frontier_peak=queue_peak, step_log=step_log
    )
    memory = len(wave) * WAVE_CELL_BYTES + queue_peak * HEAP_ENTRY_BYTES
    if wave[start_idx] < 0:
        return PlanOutcome(False, None, trace, 0.0, memory, grid.agent, UNREACHABLE)
    cells = [grid.agent]
    idx = start_idx
    while idx != goal_idx:
        for delta, legal, _cost, vec in _descent_order(fg):
            if legal[idx] and 0 <= wave[idx + delta] < wave[idx]:
                idx += delta
                cells.append(tuple(c + d for c, d in zip(cells[-1], vec)))
                break
        else:
            raise AssertionError("descent lost the gradient")
    return PlanOutcome(True, Path.from_cells(cells), trace, 0.0, memory, grid.goal)


def sorted_heuristic(a, b, model):
    """The heuristic as first written: per-axis gaps sorted descending."""
    deltas = sorted((abs(x - y) for x, y in zip(a, b)), reverse=True)
    if model.connectivity is Connectivity.ORTHOGONAL:
        return float(sum(deltas))
    if len(deltas) == 2:
        d1, d2 = deltas
        return (d1 - d2) + math.sqrt(2.0) * d2
    d1, d2, d3 = deltas
    return (d1 - d2) + math.sqrt(2.0) * (d2 - d3) + math.sqrt(3.0) * d3


def cell_keyed_heap_search(grid, model, use_heuristic, record_steps):
    """The heap search as first written, one cell at a time: entries keyed
    (f, h, cell, flat index, g), the heuristic recomputed from sorted gaps on
    every push. The oracle for astar (with the heuristic) and for dijkstra
    (without it)."""
    require_endpoints(grid)
    if grid.agent == grid.goal:
        return trivial_run(grid, record_steps)

    fg = FlatGrid(grid, model)
    start_idx, goal_idx = fg.agent, fg.goal
    g_cost = {start_idx: 0.0}
    parent = {}
    closed = set()
    step_log = [] if record_steps else None
    h0 = sorted_heuristic(grid.agent, grid.goal, model) if use_heuristic else 0.0
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
        for delta, legal, cost, vec in fg.moves:
            if not legal[idx]:
                continue
            nidx = idx + delta
            ng = g_here + cost
            if ng < g_cost.get(nidx, float("inf")):
                g_cost[nidx] = ng
                parent[nidx] = idx
                ncell = tuple(c + d for c, d in zip(cell, vec))
                nh = sorted_heuristic(ncell, grid.goal, model) if use_heuristic else 0.0
                heappush(frontier, (ng + nh, nh, ncell, nidx, ng))
                frontier_peak = max(frontier_peak, len(frontier))

    memory = (
        frontier_peak * HEAP_ENTRY_BYTES
        + (len(g_cost) + len(parent)) * DICT_ENTRY_BYTES
        + len(closed) * SET_ENTRY_BYTES
    )
    explored = {fg.to_cell(i) for i in closed}
    trace = SearchTrace(explored=explored, frontier_peak=frontier_peak, step_log=step_log)
    if not found:
        return PlanOutcome(False, None, trace, 0.0, memory, grid.agent, UNREACHABLE)
    chain = [goal_idx]
    while chain[-1] != start_idx:
        chain.append(parent[chain[-1]])
    cells = [fg.to_cell(i) for i in reversed(chain)]
    return PlanOutcome(True, Path.from_cells(cells), trace, 0.0, memory, grid.goal)


def outcome_fields(out):
    """Every PlanOutcome field but the wall time."""
    t = out.trace
    return (
        out.success,
        out.path,
        t.explored,
        t.frontier_peak,
        t.step_log,
        out.peak_memory_bytes,
        out.terminal_cell,
        out.failure_reason,
    )


def assert_matches_oracles(grid, model):
    for record_steps in (False, True):
        assert outcome_fields(dijkstra(grid, model, record_steps)) == outcome_fields(
            cell_keyed_heap_search(grid, model, use_heuristic=False, record_steps=record_steps)
        )
        assert outcome_fields(wavefront(grid, model, record_steps)) == outcome_fields(
            deque_wavefront(grid, model, record_steps)
        )


# --- heuristic ---------------------------------------------------------------

def test_heuristic_zero_at_equal_cells():
    assert heuristic((3, 4), (3, 4), FULL) == 0.0


def test_heuristic_octile_formula():
    assert heuristic((0, 0), (3, 1), FULL) == pytest.approx(math.sqrt(2) + 2)


def test_heuristic_manhattan_for_orthogonal():
    assert heuristic((0, 0), (3, 1), ORTH) == 4.0


def test_heuristic_admissible_against_dijkstra():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 200:
        g = random_instance(rng, size=10, fill=0.3)
        if g is None:
            continue
        out = dijkstra(g, FULL)
        if not out.success:
            continue
        assert heuristic(g.agent, g.goal, FULL) <= out.path.cost + 1e-9
        checked += 1


@pytest.mark.parametrize("model", [FULL, ORTH], ids=["full", "orthogonal"])
@pytest.mark.parametrize("dims", [2, 3])
def test_goal_heuristic_equals_heuristic_on_every_cell(dims, model):
    rng = np.random.default_rng(43 + dims)
    for _ in range(4):
        g = random_instance(rng, size=12 if dims == 2 else 7, fill=0.3, dims=dims)
        cells = list(np.ndindex(g.extent))
        for goal in (g.goal, g.agent, cells[-1]):
            bound = _goal_heuristic(goal, model)
            for cell in cells:
                value = bound(cell)
                assert type(value) is float
                assert value == heuristic(cell, goal, model) == sorted_heuristic(cell, goal, model)


# --- astar / dijkstra --------------------------------------------------------

def test_astar_adjacent_goal_on_empty_map():
    g = GridMap(np.zeros((4, 4), dtype=bool), agent=(1, 1), goal=(1, 2))
    out = astar(g, FULL)
    assert out.success
    assert out.path.cell_count == 2
    assert out.path.cost == 1.0
    assert out.terminal_cell == (1, 2)


def test_astar_unsolvable_map():
    occ = np.zeros((5, 5), dtype=bool)
    occ[1, :] = True  # wall across the map
    g = GridMap(occ, agent=(0, 0), goal=(4, 4))
    out = astar(g, FULL)
    assert not out.success
    assert out.path is None
    assert out.terminal_cell == (0, 0)
    assert out.failure_reason == "unreachable"


def test_dijkstra_two_diagonals_on_3x3():
    g = GridMap(np.zeros((3, 3), dtype=bool), agent=(0, 0), goal=(2, 2))
    out = dijkstra(g, FULL)
    assert out.success
    assert out.path.step_counts == (0, 2, 0)
    assert out.path.cost == pytest.approx(2 * math.sqrt(2))


def test_astar_matches_bfs_oracle_orthogonal():
    rng = np.random.default_rng(17)
    solvable = 0
    for _ in range(500):
        g = random_instance(rng, size=8, fill=0.35)
        if g is None:
            continue
        hops = bfs_hops(g, g.agent, g.goal)
        out = astar(g, ORTH)
        if hops is None:
            assert not out.success
        else:
            assert out.success
            assert out.path.cost == pytest.approx(hops)
            solvable += 1
    assert solvable > 100  # the suite actually exercised the solvable branch


def test_astar_and_dijkstra_match_bellman_ford():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 60:
        g = random_instance(rng, size=8, fill=0.3)
        if g is None:
            continue
        oracle = bellman_ford_cost(g, FULL, g.agent, g.goal)
        a = astar(g, FULL)
        d = dijkstra(g, FULL)
        if oracle is None:
            assert not a.success and not d.success
        else:
            assert a.success and d.success
            assert a.path.cost == pytest.approx(oracle, abs=1e-9)
            assert d.path.cost == pytest.approx(oracle, abs=1e-9)
        checked += 1


def test_dijkstra_cost_equals_astar_exactly():
    rng = np.random.default_rng(41)
    for _ in range(200):
        g = random_instance(rng, size=12, fill=0.3)
        if g is None:
            continue
        a = astar(g, FULL)
        d = dijkstra(g, FULL)
        assert a.success == d.success
        if a.success:
            # equal step-count triples imply bit-identical float costs
            assert a.path.step_counts == d.path.step_counts
            assert a.path.cost == d.path.cost


def test_dijkstra_explores_superset_of_astar():
    rng = np.random.default_rng(53)
    for _ in range(500):
        g = random_instance(rng, size=12, fill=0.3)
        if g is None:
            continue
        a = astar(g, FULL)
        d = dijkstra(g, FULL)
        assert a.trace.explored <= d.trace.explored


def test_search_completeness_matches_flood_fill():
    rng = np.random.default_rng(67)
    for _ in range(300):
        g = random_instance(rng, size=10, fill=0.4)
        if g is None:
            continue
        expected = reachable_oracle(g.occupancy, g.agent, g.goal)
        for planner in (astar, dijkstra, wavefront):
            assert planner(g, FULL).success == expected


def test_astar_paths_validate_and_explored_is_free():
    rng = np.random.default_rng(71)
    for _ in range(100):
        g = random_instance(rng, size=10, fill=0.3)
        if g is None:
            continue
        out = astar(g, FULL)
        assert g.agent in out.trace.explored
        for cell in out.trace.explored:
            assert not g.occupancy[cell]
        if out.success:
            validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)


def test_astar_determinism():
    rng = np.random.default_rng(83)
    g = random_instance(rng, size=16, fill=0.25)
    a1 = astar(g, FULL)
    a2 = astar(g, FULL)
    assert a1.path.cells == a2.path.cells
    assert a1.trace.explored == a2.trace.explored
    assert a1.trace.frontier_peak == a2.trace.frontier_peak


def test_astar_3d_space_diagonal():
    g = GridMap(np.zeros((4, 4, 4), dtype=bool), agent=(0, 0, 0), goal=(3, 3, 3))
    out = astar(g, FULL)
    assert out.success
    assert out.path.step_counts == (0, 0, 3)
    assert out.path.cost == pytest.approx(3 * math.sqrt(3))


def test_planner_requires_endpoints():
    with pytest.raises(MapError):
        astar(GridMap(np.zeros((3, 3), dtype=bool)), FULL)


def test_degenerate_agent_equals_goal():
    g = GridMap(np.zeros((3, 3), dtype=bool), agent=(1, 1), goal=(1, 1))
    for planner in (astar, dijkstra, wavefront):
        out = planner(g, FULL)
        assert out.success
        assert out.path.cells == ((1, 1),)
        assert out.path.cost == 0.0


# --- wavefront ---------------------------------------------------------------

def test_wavefront_wave_values_at_goal_and_neighbors():
    g = GridMap(np.zeros((5, 5), dtype=bool), agent=(0, 0), goal=(2, 2))
    out = wavefront(g, FULL, record_steps=True)
    wave = {cell: w for cell, w, _ in out.trace.step_log}
    assert wave[(2, 2)] == 0
    for n, _ in neighbors(g, (2, 2), FULL):
        assert wave[n] == 1


def test_wavefront_descent_is_wave_decreasing_and_valid():
    rng = np.random.default_rng(97)
    for _ in range(100):
        g = random_instance(rng, size=12, fill=0.3)
        if g is None:
            continue
        out = wavefront(g, FULL, record_steps=True)
        if not out.success:
            continue
        wave = {cell: w for cell, w, _ in out.trace.step_log}
        values = [wave[c] for c in out.path.cells]
        assert all(a > b for a, b in zip(values, values[1:]))
        validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)


def test_wavefront_explores_goal_component():
    occ = np.zeros((4, 4), dtype=bool)
    occ[1, :] = True
    occ[1, 3] = False  # one gap
    g = GridMap(occ, agent=(0, 0), goal=(3, 0))
    out = wavefront(g, FULL)
    assert out.success
    assert len(out.trace.explored) == (~occ).sum()


def test_wavefront_determinism():
    rng = np.random.default_rng(101)
    g = random_instance(rng, size=16, fill=0.25)
    w1 = wavefront(g, FULL)
    w2 = wavefront(g, FULL)
    if w1.success:
        assert w1.path.cells == w2.path.cells
    assert w1.trace.explored == w2.trace.explored


def test_wavefront_deviation_small_on_open_maps():
    # near-straight descent: deviation vs astar stays small on uniform fill
    rng = np.random.default_rng(113)
    devs = []
    for _ in range(40):
        g = random_instance(rng, size=32, fill=0.2)
        if g is None:
            continue
        base = astar(g, FULL)
        out = wavefront(g, FULL)
        if not base.success:
            continue
        assert out.success
        devs.append(100.0 * (out.path.cost - base.path.cost) / base.path.cost)
    assert devs and sum(devs) / len(devs) <= 2.0
    assert min(devs) >= 0.0


# --- dijkstra and wavefront against their one-cell-at-a-time oracles -----------

@pytest.mark.parametrize("model", [FULL, ORTH], ids=["full", "orthogonal"])
@pytest.mark.parametrize("map_type", list(MapType), ids=lambda t: t.value)
@pytest.mark.parametrize("extent", [(20, 20), (10, 10, 10)], ids=["2d", "3d"])
def test_search_outcomes_match_oracles_on_generated_maps(extent, map_type, model):
    rooms = {} if len(extent) == 2 else {"min_room_range": (3, 4), "max_room_range": (6, 8)}
    for seed in range(2):
        base = generate(GenConfig(map_type=map_type, extent=extent, seed=seed, **rooms))
        for draw in range(2):
            assert_matches_oracles(place_agent_goal(base, np.random.default_rng(draw)), model)


@pytest.mark.parametrize("model", [FULL, ORTH], ids=["full", "orthogonal"])
def test_search_outcomes_match_oracles_on_dense_maps(model):
    rng = np.random.default_rng(131)
    unreachable = 0
    for size, dims in ((16, 2), (11, 2), (7, 3)):
        for fill in (0.45, 0.5, 0.6):
            for _ in range(4):
                g = random_instance(rng, size=size, fill=fill, dims=dims)
                if g is None:
                    continue
                assert_matches_oracles(g, model)
                unreachable += not dijkstra(g, model).success
    assert unreachable >= 5  # the exhausted-search branch ran


def test_search_outcomes_match_oracles_with_adjacent_goal():
    rng = np.random.default_rng(137)
    for dims in (2, 3):
        for _ in range(10):
            g = random_instance(rng, size=8 if dims == 2 else 5, fill=0.3, dims=dims)
            if g is None:
                continue
            for model in (FULL, ORTH):
                for cell, _ in neighbors(g, g.agent, model):
                    assert_matches_oracles(g.with_endpoints(g.agent, cell), model)


def test_search_outcomes_match_oracles_at_band_edges():
    # the goal's distance is an integer, the lower edge of its band, reached
    # straight and also offered by a diagonal detour from the band before
    open3 = np.zeros((3, 3), dtype=bool)
    assert_matches_oracles(GridMap(open3, agent=(0, 0), goal=(0, 2)), FULL)
    # a wall leaves a straight corridor whose cells all sit on band edges,
    # next to an open room whose cells do not
    occ = np.zeros((6, 9), dtype=bool)
    occ[1, 1:8] = True
    for goal in ((0, 8), (2, 8), (5, 4)):
        for model in (FULL, ORTH):
            assert_matches_oracles(GridMap(occ, agent=(0, 0), goal=goal), model)
    cube = np.zeros((4, 4, 4), dtype=bool)
    cube[1, 1:3, :] = True
    for goal in ((0, 0, 3), (3, 3, 3), (2, 0, 2)):
        assert_matches_oracles(GridMap(cube, agent=(0, 0, 0), goal=goal), FULL)


def assert_heap_search_matches_oracle(grid, model):
    for record_steps in (False, True):
        assert outcome_fields(astar(grid, model, record_steps)) == (
            outcome_fields(cell_keyed_heap_search(grid, model, True, record_steps))
        )


@pytest.mark.parametrize("model", [FULL, ORTH], ids=["full", "orthogonal"])
@pytest.mark.parametrize("dims", [2, 3])
def test_heap_search_matches_cell_keyed_oracle(dims, model):
    extent = (20, 20) if dims == 2 else (10, 10, 10)
    rooms = {} if dims == 2 else {"min_room_range": (3, 4), "max_room_range": (6, 8)}
    for map_type in MapType:
        base = generate(GenConfig(map_type=map_type, extent=extent, seed=3, **rooms))
        for draw in range(2):
            assert_heap_search_matches_oracle(place_agent_goal(base, np.random.default_rng(draw)), model)
    # empty maps, where f and h tie most often, with goals near and far
    rng = np.random.default_rng(47 + dims)
    for size in (2, 5, 9):
        empty = np.zeros((size,) * dims, dtype=bool)
        cells = list(np.ndindex(empty.shape))
        for _ in range(3):
            a, b = rng.choice(len(cells), size=2, replace=False)
            assert_heap_search_matches_oracle(GridMap(empty, agent=cells[a], goal=cells[b]), model)
    unreachable = 0
    for fill in (0.45, 0.6):
        for _ in range(6):
            g = random_instance(rng, size=9 if dims == 2 else 5, fill=fill, dims=dims)
            if g is None:
                continue
            assert_heap_search_matches_oracle(g, model)
            unreachable += not astar(g, model).success
    assert unreachable >= 2  # the exhausted-search branch ran


@pytest.mark.parametrize("planner", [wavefront, dijkstra])
def test_outcome_keeps_explored_indices_not_legality_tables(planner):
    """The explored view holds 8 bytes a cell, never the FlatGrid."""
    grid = place_agent_goal(generate(GenConfig(extent=(24, 24, 24), seed=2)), np.random.default_rng(2))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = planner(grid, FULL)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    explored = out.trace.explored
    assert isinstance(explored, FlatCellSet) and len(explored) > 4000
    table_bytes = FlatGrid(grid, FULL).table.nbytes  # 26 bytes a padded cell
    assert kept <= 8 * len(explored) + 32 * 1024
    assert kept < table_bytes / 2


def test_registry_record_steps_reaches_graph_planners():
    g = GridMap(np.zeros((5, 5), dtype=bool), agent=(0, 0), goal=(4, 3))
    for name, planner in (("astar", astar), ("dijkstra", dijkstra), ("wavefront", wavefront)):
        entry = resolve_planner(name)
        assert entry.run(g, FULL).trace.step_log is None
        recorded = entry.run(g, FULL, record_steps=True)
        assert outcome_fields(recorded) == outcome_fields(planner(g, FULL, record_steps=True))


# --- trace dump ----------------------------------------------------------------

def test_dump_trace_line_per_expansion():
    g = GridMap(np.zeros((3, 3), dtype=bool), agent=(0, 0), goal=(2, 2))
    out = astar(g, FULL, record_steps=True)
    buf = io.StringIO()
    n = dump_trace(out, buf)
    lines = buf.getvalue().strip().splitlines()
    assert n == len(lines) == len(out.trace.step_log)
    first = lines[0].split()
    assert first[0] == "0" and first[1] == "0"  # start cell expanded first


def test_dump_trace_requires_recorded_steps():
    g = GridMap(np.zeros((3, 3), dtype=bool), agent=(0, 0), goal=(2, 2))
    out = astar(g, FULL)
    with pytest.raises(ValueError):
        dump_trace(out, io.StringIO())


@pytest.mark.parametrize("connectivity", ["full", "orthogonal"])
def test_cli_trace_equals_oracle_trace(tmp_path, capsys, connectivity):
    grid = load_map(U_TRAP)
    model = MoveModel(Connectivity(connectivity))
    oracles = {
        "astar": lambda: cell_keyed_heap_search(grid, model, use_heuristic=True, record_steps=True),
        "dijkstra": lambda: cell_keyed_heap_search(grid, model, use_heuristic=False, record_steps=True),
        "wavefront": lambda: deque_wavefront(grid, model, record_steps=True),
    }
    for name, oracle in oracles.items():
        written = tmp_path / f"{name}.txt"
        argv = ["run", U_TRAP, "--planner", name, "--connectivity", connectivity]
        assert cli_main(argv + ["--trace", str(written)]) == 0
        expected = io.StringIO()
        dump_trace(oracle(), expected)
        assert written.read_text(encoding="utf-8") == expected.getvalue()
    capsys.readouterr()
