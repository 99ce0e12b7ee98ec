import io
import math
from heapq import heappop, heappush

import numpy as np
import pytest

from pbgrid.grid import Connectivity, GridMap, MapError, MoveModel, Path, validate_path
from pbgrid.planners.base import (
    DICT_ENTRY_BYTES,
    ROADMAP_DISCONNECTED,
    TREE_NODE_BYTES,
    PlanOutcome,
    SearchTrace,
)
from pbgrid.planners import sampling
from pbgrid.planners.graph import astar, dijkstra
from pbgrid.planners.sampling import (
    SamplerParams,
    _line_valid,
    _lines_valid,
    _move_legal,
    _roadmap_pairs,
    _sampler_prelude,
    _steer_walk,
    d_rrt,
    d_rrt_connect,
    d_rrt_star,
    d_rt,
    d_sprm,
    discrete_line,
    dump_tree,
    grid_steer,
)

FULL = MoveModel(Connectivity.FULL)


def empty_grid(*extent, agent=None, goal=None):
    return GridMap(np.zeros(extent, dtype=bool), agent=agent, goal=goal)


def random_instance(rng, size=12, fill=0.25):
    occ = rng.random((size, size)) < fill
    free = np.argwhere(~occ)
    if len(free) < 2:
        return None
    picks = rng.choice(len(free), size=2, replace=False)
    return GridMap(occ, agent=tuple(free[picks[0]]), goal=tuple(free[picks[1]]))


# --- discrete_line / grid_steer ---------------------------------------------

def test_discrete_line_endpoints_and_adjacency():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = tuple(rng.integers(0, 20, size=2))
        b = tuple(rng.integers(0, 20, size=2))
        line = discrete_line(a, b)
        assert line[0] == a and line[-1] == b
        cheb = max(abs(x - y) for x, y in zip(a, b))
        assert len(line) == cheb + 1
        for u, v in zip(line, line[1:]):
            assert max(abs(x - y) for x, y in zip(u, v)) == 1


def test_discrete_line_orthogonal_expansion():
    line = discrete_line((0, 0), (2, 2), orthogonal=True)
    assert line[0] == (0, 0) and line[-1] == (2, 2)
    for u, v in zip(line, line[1:]):
        assert sum(1 for x, y in zip(u, v) if x != y) == 1


def test_grid_steer_no_progress_for_same_cell():
    g = empty_grid(5, 5)
    assert grid_steer((2, 2), (2, 2), 3, g) is None


def test_grid_steer_straight_corridor():
    g = empty_grid(1, 10)
    assert grid_steer((0, 0), (0, 9), 3, g) == (0, 3)


def test_grid_steer_stops_before_obstacle():
    occ = np.zeros((1, 10), dtype=bool)
    occ[0, 2] = True
    g = GridMap(occ)
    # line-walk oracle: cells (0,1) free, (0,2) blocked -> stop at (0,1)
    assert grid_steer((0, 0), (0, 7), 5, g) == (0, 1)


def test_grid_steer_requires_free_origin():
    occ = np.zeros((3, 3), dtype=bool)
    occ[1, 1] = True
    with pytest.raises(MapError):
        grid_steer((1, 1), (0, 0), 2, GridMap(occ))


def test_steer_prefix_matches_full_line_walk():
    # the steer walk generates only the cells it can use; the oracle walks
    # the prefix of the complete discrete line
    rng = np.random.default_rng(7)
    for dims, size in ((2, 12), (3, 7)):
        for orthogonal in (False, True):
            for _ in range(150):
                occ = rng.random((size,) * dims) < 0.25
                free = np.argwhere(~occ)
                a = tuple(int(c) for c in free[rng.integers(len(free))])
                b = tuple(int(c) for c in rng.integers(0, size, size=dims))
                step = int(rng.integers(1, 2 * size))
                line = discrete_line(a, b, orthogonal)
                walked = [line[0]]
                for nxt in line[1 : step + 1]:
                    if not _move_legal(occ, walked[-1], nxt):
                        break
                    walked.append(nxt)
                assert _steer_walk(occ, a, b, step, orthogonal) == walked


def test_grid_steer_respects_corner_cut():
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, 1] = True
    occ[1, 0] = True
    g = GridMap(occ)
    assert grid_steer((0, 0), (2, 2), 4, g) is None


# --- d_rrt -------------------------------------------------------------------

def test_rrt_adjacent_goal_empty_map():
    g = empty_grid(6, 6, agent=(2, 2), goal=(2, 3))
    out = d_rrt(g, FULL, SamplerParams(seed=1))
    assert out.success
    validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)


def test_rrt_deterministic_for_fixed_seed():
    rng = np.random.default_rng(11)
    g = random_instance(rng, size=16)
    p = SamplerParams(seed=42)
    a = d_rrt(g, FULL, p)
    b = d_rrt(g, FULL, p)
    assert a.success == b.success
    assert a.trace.step_log == b.trace.step_log
    if a.success:
        assert a.path.cells == b.path.cells


def test_rrt_paths_validate_on_random_maps():
    rng = np.random.default_rng(19)
    successes = 0
    for seed in range(30):
        g = random_instance(rng, size=16, fill=0.2)
        if g is None:
            continue
        out = d_rrt(g, FULL, SamplerParams(seed=seed))
        if out.success:
            validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)
            successes += 1
    assert successes >= 20


def test_rrt_budget_exhaustion_reason():
    occ = np.zeros((6, 6), dtype=bool)
    occ[3, :] = True  # goal walled off
    g = GridMap(occ, agent=(0, 0), goal=(5, 5))
    out = d_rrt(g, FULL, SamplerParams(seed=2, max_samples=50))
    assert not out.success
    assert out.failure_reason == "budget_exhausted"
    assert out.terminal_cell == (0, 0)


# --- d_rt --------------------------------------------------------------------

def test_rt_succeeds_in_corridor_over_seeds():
    occ = np.ones((3, 20), dtype=bool)
    occ[1, :] = False
    g = GridMap(occ, agent=(1, 0), goal=(1, 19))
    ok = 0
    for seed in range(100):
        out = d_rt(g, FULL, SamplerParams(seed=seed))
        if out.success:
            validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)
            ok += 1
    assert ok >= 95  # random-node extension occasionally runs out of budget


def test_rt_tree_rooted_at_start_and_connected():
    rng = np.random.default_rng(29)
    g = random_instance(rng, size=12, fill=0.2)
    out = d_rt(g, FULL, SamplerParams(seed=5))
    log = out.trace.step_log
    assert log[0][0] == g.agent and log[0][1] == -1.0
    for cell, parent, idx in log[1:]:
        assert 0 <= int(parent) < int(idx)  # parent inserted earlier


def test_rt_deterministic():
    rng = np.random.default_rng(31)
    g = random_instance(rng, size=12)
    a = d_rt(g, FULL, SamplerParams(seed=9))
    b = d_rt(g, FULL, SamplerParams(seed=9))
    assert a.trace.step_log == b.trace.step_log


# --- d_rrt_connect -----------------------------------------------------------

def test_rrt_connect_empty_map():
    g = empty_grid(16, 16, agent=(1, 1), goal=(14, 13))
    out = d_rrt_connect(g, FULL, SamplerParams(seed=3))
    assert out.success
    validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)


def test_rrt_connect_paths_validate_on_random_maps():
    rng = np.random.default_rng(37)
    successes = 0
    for seed in range(30):
        g = random_instance(rng, size=16, fill=0.25)
        if g is None:
            continue
        out = d_rrt_connect(g, FULL, SamplerParams(seed=seed))
        if out.success:
            validate_path(g, out.path.cells, FULL, start=g.agent, goal=g.goal)
            successes += 1
    assert successes >= 20


def test_rrt_connect_deterministic():
    rng = np.random.default_rng(41)
    g = random_instance(rng, size=16)
    a = d_rrt_connect(g, FULL, SamplerParams(seed=7))
    b = d_rrt_connect(g, FULL, SamplerParams(seed=7))
    assert a.trace.step_log == b.trace.step_log
    if a.success:
        assert a.path.cells == b.path.cells


# --- d_rrt_star --------------------------------------------------------------

def test_rrt_star_never_creates_cycles():
    rng = np.random.default_rng(43)
    for seed in range(10):
        g = random_instance(rng, size=12, fill=0.2)
        if g is None:
            continue
        out = d_rrt_star(g, FULL, SamplerParams(seed=seed, max_samples=300))
        log = out.trace.step_log
        parents = {int(idx): int(parent) for _, parent, idx in log}
        for node in parents:
            seen = set()
            cur = node
            while cur != -1:
                assert cur not in seen, "cycle in sample tree"
                seen.add(cur)
                cur = parents[cur]


def test_rrt_star_cost_non_increasing_with_budget():
    rng = np.random.default_rng(47)
    costs_small = []
    costs_big = []
    instances = []
    while len(instances) < 100:
        g = random_instance(rng, size=14, fill=0.15)
        if g is None or not astar(g, FULL).success:
            continue
        instances.append(g)
    for i, g in enumerate(instances):
        small = d_rrt_star(g, FULL, SamplerParams(seed=i, max_samples=300))
        big = d_rrt_star(g, FULL, SamplerParams(seed=i, max_samples=600))
        if small.success and big.success:
            costs_small.append(small.path.cost)
            costs_big.append(big.path.cost)
    assert len(costs_small) >= 80
    mean_small = sum(costs_small) / len(costs_small)
    mean_big = sum(costs_big) / len(costs_big)
    assert mean_big <= mean_small * 1.01  # 1% slack


def test_rrt_star_deterministic_and_valid():
    rng = np.random.default_rng(53)
    g = random_instance(rng, size=14, fill=0.2)
    p = SamplerParams(seed=13, max_samples=400)
    a = d_rrt_star(g, FULL, p)
    b = d_rrt_star(g, FULL, p)
    assert a.trace.step_log == b.trace.step_log
    if a.success:
        assert a.path.cells == b.path.cells
        validate_path(g, a.path.cells, FULL, start=g.agent, goal=g.goal)
        assert a.path.cost >= astar(g, FULL).path.cost - 1e-9


# --- d_sprm ------------------------------------------------------------------

def test_sprm_direct_edge_when_in_radius():
    g = empty_grid(10, 10, agent=(2, 2), goal=(2, 7))
    out = d_sprm(g, FULL, SamplerParams(seed=1, prm_nodes=0, prm_radius=8.0))
    assert out.success
    assert out.path.cells == tuple((2, c) for c in range(2, 8))


def test_sprm_success_symmetric_under_endpoint_swap():
    # the roadmap is undirected, so reachability cannot depend on direction;
    # route costs may differ when distinct fewest-edge routes tie
    rng = np.random.default_rng(59)
    checked = 0
    for seed in range(20):
        g = random_instance(rng, size=16, fill=0.2)
        if g is None:
            continue
        p = SamplerParams(seed=seed, prm_nodes=int(g.free_count) // 3)
        fwd = d_sprm(g, FULL, p)
        swapped = GridMap(g.occupancy, agent=g.goal, goal=g.agent)
        rev = d_sprm(swapped, FULL, p)
        assert fwd.success == rev.success
        if fwd.success:
            best = dijkstra(g, FULL).path.cost
            assert fwd.path.cost >= best - 1e-9
            assert rev.path.cost >= best - 1e-9
            checked += 1
    assert checked >= 10


def test_sprm_reduces_to_dijkstra_with_full_nodes():
    rng = np.random.default_rng(61)
    compared = 0
    for seed in range(50):
        size = int(rng.integers(4, 9))
        occ = rng.random((size, size)) < 0.3
        free = np.argwhere(~occ)
        if len(free) < 2:
            continue
        picks = rng.choice(len(free), size=2, replace=False)
        g = GridMap(occ, agent=tuple(free[picks[0]]), goal=tuple(free[picks[1]]))
        params = SamplerParams(seed=seed, prm_nodes=int(g.free_count), prm_radius=1.0)
        orth = MoveModel(Connectivity.ORTHOGONAL)
        prm = d_sprm(g, orth, params)
        dij = dijkstra(g, orth)
        assert prm.success == dij.success
        if prm.success:
            assert prm.path.cost == pytest.approx(dij.path.cost, abs=1e-9)
            compared += 1
    assert compared >= 20


def test_sprm_failure_reason_when_disconnected():
    occ = np.zeros((8, 8), dtype=bool)
    occ[4, :] = True
    g = GridMap(occ, agent=(0, 0), goal=(7, 7))
    out = d_sprm(g, FULL, SamplerParams(seed=3))
    assert not out.success
    assert out.failure_reason == "roadmap_disconnected"


def _brute_sprm(grid, model, params):
    """The d_sprm roadmap as first written: a dense N x N distance matrix,
    one discrete_line + _line_valid per pair, and a stored line per edge."""
    rng, free = _sampler_prelude(grid, params)
    occ = grid.occupancy
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL
    n_nodes = min(params.resolved_prm_nodes(grid), len(free))
    picks = rng.choice(len(free), size=n_nodes, replace=False) if n_nodes else []
    nodes = [grid.agent, grid.goal]
    seen = {grid.agent, grid.goal}
    for i in picks:
        cell = tuple(int(c) for c in free[i])
        if cell not in seen:
            seen.add(cell)
            nodes.append(cell)
    coords = np.asarray(nodes, dtype=float)
    adj = [[] for _ in nodes]
    edge_lines = {}
    r2 = params.prm_radius * params.prm_radius
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    for i, j in np.argwhere((d2 <= r2) & (d2 > 0)):
        if i >= j:
            continue
        a, b = nodes[i], nodes[j]
        lo, hi = (a, b) if a <= b else (b, a)
        line = discrete_line(lo, hi, orthogonal)
        if not _line_valid(occ, line):
            continue
        adj[i].append(int(j))
        adj[j].append(int(i))
        edge_lines[(int(i), int(j))] = line

    dist = {0: 0.0}
    parent = {0: -1}
    heap = [(0.0, nodes[0], 0)]
    heap_peak = 1
    done = set()
    while heap:
        d, _, i = heappop(heap)
        if i in done:
            continue
        done.add(i)
        if i == 1:
            break
        for j in adj[i]:
            if d + 1.0 < dist.get(j, float("inf")):
                dist[j] = d + 1.0
                parent[j] = i
                heappush(heap, (d + 1.0, nodes[j], j))
                heap_peak = max(heap_peak, len(heap))
    memory = len(nodes) * TREE_NODE_BYTES + coords.nbytes + 2 * len(edge_lines) * DICT_ENTRY_BYTES
    log = [(cell, -1.0, float(i)) for i, cell in enumerate(nodes)]
    trace = SearchTrace(explored=set(nodes), frontier_peak=heap_peak, step_log=log)
    if 1 not in done:
        return PlanOutcome(False, None, trace, 0.0, memory, grid.agent, ROADMAP_DISCONNECTED)
    ids = [1]
    while ids[-1] != 0:
        ids.append(parent[ids[-1]])
    ids.reverse()
    cells = [nodes[0]]
    for a, b in zip(ids, ids[1:]):
        line = edge_lines[(a, b) if a < b else (b, a)]
        seg = list(line) if nodes[a] == line[0] else list(reversed(line))
        cells.extend(seg[1:])
    return PlanOutcome(True, Path.from_cells(cells), trace, 0.0, memory, grid.goal)


def _border_instance(rng, dims, size, fill):
    """Random map whose agent and goal sit on the map border."""
    occ = rng.random((size,) * dims) < fill
    free = np.argwhere(~occ)
    border = free[((free == 0) | (free == size - 1)).any(axis=1)]
    if len(border) < 2:
        return None
    picks = rng.choice(len(border), size=2, replace=False)
    return GridMap(occ, agent=tuple(border[picks[0]]), goal=tuple(border[picks[1]]))


RADII = (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.5, 4.0, 8.0)


@pytest.mark.parametrize("dims,size", [(2, 14), (3, 7)])
@pytest.mark.parametrize("connectivity", list(Connectivity))
def test_sprm_matches_brute_force_roadmap(dims, size, connectivity):
    model = MoveModel(connectivity)
    rng = np.random.default_rng(67 + dims)
    compared = 0
    for radius in RADII:
        # node density from sparse to every free cell (the whole border)
        for share in (8, 2, 1):
            g = _border_instance(rng, dims, size, fill=0.25)
            if g is None:
                continue
            p = SamplerParams(seed=compared, prm_nodes=g.free_count // share, prm_radius=radius)
            got, want = d_sprm(g, model, p), _brute_sprm(g, model, p)
            assert got.success == want.success
            assert got.failure_reason == want.failure_reason
            assert (got.path and got.path.cells) == (want.path and want.path.cells)
            assert got.trace.explored == want.trace.explored
            assert got.trace.step_log == want.trace.step_log
            assert got.trace.frontier_peak == want.trace.frontier_peak
            assert got.peak_memory_bytes == want.peak_memory_bytes
            compared += 1
    assert compared >= 15


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("dims", [2, 3])
def test_roadmap_pairs_match_brute_force(dims, block, monkeypatch):
    if block:  # many small work blocks instead of one
        monkeypatch.setattr(sampling, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(71 + dims)
    for radius in RADII + (0.5, 30.0, math.inf):
        for _ in range(8):
            extent = tuple(int(e) for e in rng.integers(1, 10, size=dims))
            cells = np.argwhere(np.ones(extent, dtype=bool))
            coords = cells[rng.choice(len(cells), size=int(rng.integers(1, len(cells) + 1)), replace=False)]
            lo, hi = _roadmap_pairs(coords, extent, radius)
            d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
            want = [(i, j) for i, j in np.argwhere((d2 <= radius * radius) & (d2 > 0)) if i < j]
            assert list(zip(np.minimum(lo, hi), np.maximum(lo, hi))) == want
            assert all(tuple(coords[i]) < tuple(coords[j]) for i, j in zip(lo, hi))


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("dims,size", [(2, 12), (3, 6)])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_lines_valid_matches_line_walk(dims, size, orthogonal, block, monkeypatch):
    if block:  # many small work blocks instead of one
        monkeypatch.setattr(sampling, "_STEP_BLOCK", block)
    rng = np.random.default_rng(73 + dims)
    for fill in (0.1, 0.3, 0.5):
        occ = rng.random((size,) * dims) < fill
        a = rng.integers(0, size, size=(200, dims))
        b = rng.integers(0, size, size=(200, dims))
        b[:5] = a[:5]  # zero-length lines are valid
        got = _lines_valid(occ, a, b, orthogonal)
        want = [
            _line_valid(occ, discrete_line(tuple(map(int, x)), tuple(map(int, y)), orthogonal))
            for x, y in zip(a, b)
        ]
        assert got.tolist() == want


# --- shared contracts ---------------------------------------------------------

def test_sampler_rejects_bad_params():
    with pytest.raises(ValueError):
        SamplerParams(goal_bias=1.5)
    with pytest.raises(ValueError):
        SamplerParams(max_samples=0)
    with pytest.raises(ValueError):
        SamplerParams(step_cells=0)
    with pytest.raises(ValueError):
        SamplerParams(prm_radius=0.0)


def test_sampler_trivial_when_agent_is_goal():
    g = empty_grid(4, 4, agent=(1, 1), goal=(1, 1))
    for planner in (d_rrt, d_rt, d_rrt_connect, d_rrt_star, d_sprm):
        out = planner(g, FULL, SamplerParams(seed=1, max_samples=10))
        assert out.success and out.path.cells == ((1, 1),)


def test_dump_tree_lists_nodes_with_parents():
    g = empty_grid(8, 8, agent=(0, 0), goal=(7, 7))
    out = d_rrt(g, FULL, SamplerParams(seed=5))
    buf = io.StringIO()
    n = dump_tree(out, buf)
    lines = buf.getvalue().strip().splitlines()
    assert n == len(lines) >= 2
    assert lines[0] == "0 0 -1"  # root = start, no parent
