import io
import math
import sys
import threading
from heapq import heappop, heappush

import numpy as np
import pytest

from pbgrid.grid import (
    Connectivity,
    DomainError,
    FlatGrid,
    GridMap,
    MapError,
    MoveModel,
    Path,
    _STEP_COST,
    _shoulder_vectors,
    move_rows,
    neighbors,
    validate_path,
)
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
    _line_cost,
    _line_moves,
    _line_valid,
    _offset_lines,
    _roadmap_edges,
    _sampler_prelude,
    _steer_walk,
    _Tree,
    _tree_outcome,
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


def _move_legal(occ, src, dst):
    """Reference move check on the bare occupancy: target and shoulders free."""
    if occ[dst]:
        return False
    move = tuple(b - a for a, b in zip(src, dst))
    for sh in _shoulder_vectors(move):
        if occ[tuple(a + d for a, d in zip(src, sh))]:
            return False
    return True


def _ref_line_valid(occ, line):
    for src, dst in zip(line, line[1:]):
        if not _move_legal(occ, src, dst):
            return False
    return True


def _ref_steer(occ, a, b, step, orthogonal):
    """The prefix of the complete discrete line a steer walk may take."""
    line = discrete_line(a, b, orthogonal)
    walked = [line[0]]
    for nxt in line[1 : step + 1]:
        if not _move_legal(occ, walked[-1], nxt):
            break
        walked.append(nxt)
    return walked


def _model(orthogonal):
    return MoveModel(Connectivity.ORTHOGONAL if orthogonal else Connectivity.FULL)


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


def test_line_and_steer_reject_cells_of_another_dimension():
    with pytest.raises(DomainError, match="2 vs 3"):
        discrete_line((0, 0), (3, 3, 3))
    with pytest.raises(DomainError, match="3 vs 2"):
        discrete_line((0, 0, 0), (3, 3), orthogonal=True)
    with pytest.raises(DomainError, match="2 vs 3"):
        grid_steer((0, 0), (3, 3, 3), 2, empty_grid(5, 5))


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


def test_grid_steer_stops_at_map_edge():
    # a target off the map is steered toward until the obstacle border
    g = empty_grid(1, 10)
    assert grid_steer((0, 0), (0, -5), 3, g) is None
    assert grid_steer((0, 8), (0, 20), 3, g) == (0, 9)
    assert grid_steer((0, 2), (3, 2), 3, g) is None


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
                fg = FlatGrid(GridMap(occ), _model(orthogonal))
                assert _steer_walk(fg, a, b, step, orthogonal) == _ref_steer(occ, a, b, step, orthogonal)


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


def _brute_rrt_star(grid, model, params):
    """d_rrt_star as first written: a float radius query per phase and one
    discrete_line + line check + _line_cost per neighbour, in Python, with
    the reference move check on the bare occupancy."""
    rng, free = _sampler_prelude(grid, params)
    occ = grid.occupancy
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL
    moves = set(model.moves(grid.dims))
    goal = grid.goal
    tree = _Tree(grid.agent, grid.dims, grid.free_count + 1)
    cost = [0.0]
    children = [[]]
    r2 = params.rewire_radius * params.rewire_radius

    def neighbor_ids(cell):
        diff = tree.coords[: tree.size] - np.asarray(cell, dtype=float)
        return np.nonzero((diff * diff).sum(axis=1) <= r2)[0]

    def reparent(nid, new_parent, between, new_cost):
        old = tree.parent[nid]
        if old >= 0:
            children[old].remove(nid)
        tree.parent[nid] = new_parent
        tree.edges[nid] = between
        children[new_parent].append(nid)
        delta = cost[nid] - new_cost
        stack = [nid]
        while stack:
            k = stack.pop()
            cost[k] -= delta
            stack.extend(children[k])

    for _ in range(params.resolved_max_samples(grid)):
        if params.goal_bias > 0.0 and rng.random() < params.goal_bias:
            sample = goal
        else:
            sample = tuple(int(c) for c in free[rng.integers(len(free))])
        base = tree.nearest(sample)
        walked = _ref_steer(occ, tree.nodes[base], sample, params.step_cells, orthogonal)
        if len(walked) < 2 or walked[-1] in tree.ids:
            continue
        q_new = walked[-1]
        best_parent = base
        best_edge = tuple(walked[1:-1])
        best_cost = cost[base] + _line_cost(walked)
        for nid in neighbor_ids(q_new):
            nid = int(nid)
            if nid == base:
                continue
            line = discrete_line(tree.nodes[nid], q_new, orthogonal)
            if not _ref_line_valid(occ, line):
                continue
            c = cost[nid] + _line_cost(line)
            if c < best_cost:
                best_cost, best_parent, best_edge = c, nid, tuple(line[1:-1])
        new_id = tree.add(q_new, best_parent, best_edge)
        cost.append(best_cost)
        children.append([])
        children[best_parent].append(new_id)
        for nid in neighbor_ids(q_new):
            nid = int(nid)
            if nid == new_id or nid == best_parent or nid == 0:
                continue
            line = discrete_line(q_new, tree.nodes[nid], orthogonal)
            if not _ref_line_valid(occ, line):
                continue
            c = best_cost + _line_cost(line)
            if c < cost[nid] - 1e-12:
                reparent(nid, new_id, tuple(line[1:-1]), c)
        goal_move = tuple(g - c for c, g in zip(q_new, goal))
        if (
            q_new != goal
            and goal not in tree.ids
            and goal_move in moves
            and _move_legal(occ, q_new, goal)
        ):
            gid = tree.add(goal, new_id, ())
            cost.append(best_cost + _STEP_COST[sum(1 for c, g in zip(q_new, goal) if c != g)])
            children.append([])
            children[new_id].append(gid)

    branch = tree.branch(tree.ids[goal]) if goal in tree.ids else None
    return _tree_outcome(grid, [tree], branch)


def assert_same_outcome(got, want):
    assert got.success == want.success
    assert got.failure_reason == want.failure_reason
    assert (got.path and got.path.cells) == (want.path and want.path.cells)
    assert (got.path and got.path.cost) == (want.path and want.path.cost)
    assert got.trace.explored == want.trace.explored
    assert got.trace.step_log == want.trace.step_log
    assert got.trace.frontier_peak == want.trace.frontier_peak
    assert got.peak_memory_bytes == want.peak_memory_bytes


@pytest.mark.parametrize("dims,size,samples", [(2, 14, 300), (3, 7, 200)])
@pytest.mark.parametrize("connectivity", list(Connectivity))
def test_rrt_star_matches_brute_force(dims, size, samples, connectivity):
    model = MoveModel(connectivity)
    rng = np.random.default_rng(79 + dims)
    compared = 0
    for radius in (1.0, math.sqrt(2.0), 2.5, 8.0, math.inf):
        for seed in range(3):
            g = _border_instance(rng, dims, size, fill=0.2)
            if g is None:
                continue
            p = SamplerParams(seed=seed, max_samples=samples, rewire_radius=radius)
            assert_same_outcome(d_rrt_star(g, model, p), _brute_rrt_star(g, model, p))
            compared += 1
    assert compared >= 12


@pytest.mark.parametrize("dims,reach", [(2, 8), (3, 4)])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_offset_line_matches_line_walk(dims, reach, orthogonal):
    # every offset within reach, the zero offset too, through _offset_lines
    # in one call per start: the lowest and the highest start that keeps the
    # line on the map (both on the border), then a random one (memo hits)
    rng = np.random.default_rng(83 + dims)
    size = 2 * reach + 3
    occ = rng.random((size,) * dims) < 0.2
    fg = FlatGrid(GridMap(occ), _model(orthogonal))
    strides = np.array(fg.strides)
    axes = np.meshgrid(*[np.arange(-reach, reach + 1)] * dims, indexing="ij")
    offsets = np.stack(axes, axis=-1).reshape(-1, dims)
    offsets = offsets[(offsets * offsets).sum(axis=1) <= reach * reach]
    low = np.maximum(0, -offsets)
    high = np.minimum(size - 1, size - 1 - offsets)
    for starts in (low, high, rng.integers(low, high + 1)):
        valid, cost = _offset_lines(fg, (starts + 1) @ strides, offsets, orthogonal)
        for a, o, v, c in zip(starts.tolist(), offsets.tolist(), valid, cost):
            line = discrete_line(tuple(a), tuple(x + d for x, d in zip(a, o)), orthogonal)
            assert c == _line_cost(line)
            assert v == _ref_line_valid(occ, line)
    # a memo row holds the line's moves from the origin in walk order: each
    # move's start cell, in the box spanned by 0 and the offset, and its row
    for o in offsets:
        moves, _ = sampling._line_memo[(tuple(o.tolist()), orthogonal)]
        assert moves.shape[1] == dims + 1
        assert ((moves[:, :dims] >= np.minimum(o, 0)) & (moves[:, :dims] <= np.maximum(o, 0))).all()
        line = discrete_line((0,) * dims, tuple(o.tolist()), orthogonal)
        want = [(a, tuple(y - x for x, y in zip(a, b))) for a, b in zip(line, line[1:])]
        assert [(tuple(m[:dims]), fg.moves[m[dims]][3]) for m in moves.tolist()] == want


def test_offset_line_rows_are_read_only():
    fg = FlatGrid(GridMap(np.zeros((6, 6), dtype=bool)), FULL)
    start, offset = np.array([fg.to_flat((0, 3))]), np.array([[3, -2]])  # (0, 3) -> (3, 1)
    _offset_lines(fg, start, offset, False)
    moves, _ = sampling._line_memo[((3, -2), False)]
    assert not moves.flags.writeable
    with pytest.raises(ValueError):
        moves[0, 0] = 9
    _offset_lines(fg, start, offset, False)
    assert sampling._line_memo[((3, -2), False)][0] is moves  # reused, not rebuilt


@pytest.mark.parametrize("orthogonal", [False, True])
def test_offset_lines_reach_128_steps(orthogonal):
    # lines of 128 steps both ways from the middle of a 257-cell row: only
    # the one toward the obstacle at the far end is blocked
    occ = np.zeros((1, 257), dtype=bool)
    occ[0, 256] = True
    fg = FlatGrid(GridMap(occ), _model(orthogonal))
    offsets = np.array([[0, 128], [0, -128]])
    valid, cost = _offset_lines(fg, np.full(2, fg.to_flat((0, 128))), offsets, orthogonal)
    lines = [discrete_line((0, 128), (0, 256), orthogonal), discrete_line((0, 128), (0, 0), orthogonal)]
    assert valid.tolist() == [_ref_line_valid(occ, line) for line in lines] == [False, True]
    assert cost.tolist() == [_line_cost(line) for line in lines]


def test_offset_lines_memo_under_threads(monkeypatch):
    # a memo far smaller than the calls' offsets is replaced again and again
    # while four threads read it; every call must give the serial answer, and
    # the memo never outgrows its bound
    monkeypatch.setattr(sampling, "_LINE_CACHE", 16)
    monkeypatch.setattr(sampling, "_line_memo", {})
    rng = np.random.default_rng(89)
    occ = rng.random((24, 24)) < 0.2
    fgs = {orthogonal: FlatGrid(GridMap(occ), _model(orthogonal)) for orthogonal in (False, True)}
    strides = np.array(fgs[False].strides)
    free = np.argwhere(~occ)
    jobs = []
    for k in range(24):
        # one call in six misses more rows than the memo holds
        pairs = rng.choice(len(free), size=(24 if k % 6 == 0 else 6, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        a, b = free[pairs[:, 0]], free[pairs[:, 1]]
        jobs.append((fgs[bool(k % 2)], (a + 1) @ strides, b - a, bool(k % 2)))
    want = [_offset_lines(*job) for job in jobs]
    got = [[] for _ in range(4)]
    sizes = []

    def work(out, order):
        for _ in range(5):
            for k in order:
                out.append((k, _offset_lines(*jobs[k])))
                sizes.append(len(sampling._line_memo))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(got[t], rng.permutation(len(jobs)).tolist()))
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == 5 * len(jobs) for out in got)
    for out in got:
        for k, (valid, cost) in out:
            assert valid.tolist() == want[k][0].tolist()
            assert cost.tolist() == want[k][1].tolist()
    assert max(sizes) <= 16


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
    one discrete_line + reference line check per pair, and a stored line per
    edge."""
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
        if not _ref_line_valid(occ, line):
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


def random_instance_nd(rng, dims, size, fill):
    while True:
        occ = rng.random((size,) * dims) < fill
        free = np.argwhere(~occ)
        if len(free) >= 2:
            picks = rng.choice(len(free), size=2, replace=False)
            return GridMap(occ, agent=tuple(free[picks[0]]), goal=tuple(free[picks[1]]))


def assert_sprm_matches_brute(grid, model, params):
    got, want = d_sprm(grid, model, params), _brute_sprm(grid, model, params)
    assert got.success == want.success
    assert got.failure_reason == want.failure_reason
    assert (got.path and got.path.cells) == (want.path and want.path.cells)
    assert got.trace.explored == want.trace.explored
    assert got.trace.step_log == want.trace.step_log
    assert got.trace.frontier_peak == want.trace.frontier_peak
    assert got.peak_memory_bytes == want.peak_memory_bytes
    assert got.terminal_cell == want.terminal_cell
    return got


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
            assert_sprm_matches_brute(g, model, p)
            compared += 1
    assert compared >= 15


@pytest.mark.parametrize("dims,size", [(2, 10), (3, 6)])
@pytest.mark.parametrize("connectivity", list(Connectivity))
def test_sprm_matches_brute_force_at_first_and_last_level(dims, size, connectivity):
    # cases where the query's first level (the agent's) or last level (the
    # goal's) is easy to get wrong
    model = MoveModel(connectivity)
    rng = np.random.default_rng(71 + dims)
    outcomes = []
    for trial in range(6):
        g = random_instance_nd(rng, dims, size, fill=0.2)
        free = g.free_count
        cases = [
            (g, 0, 8.0),  # the roadmap is the agent and the goal alone
            (g, 1, 8.0),
            (g, 1, 1.0),
            (g, free // 4, math.inf),
            (g, free, 1.0),  # every free cell a node, radius one step
            (g, free, math.sqrt(dims)),
        ]
        for cell, _ in neighbors(g, g.agent, model):  # the goal one step away
            cases.append((g.with_endpoints(g.agent, cell), free // 3, 2.0))
            cases.append((g.with_endpoints(g.agent, cell), 0, 1.0))
            break
        # the goal walled in: the agent's component is searched to the end
        occ = g.occupancy.copy()
        occ[tuple(slice(max(c - 1, 0), c + 2) for c in g.goal)] = True
        occ[g.goal] = False
        if not occ[g.agent]:
            walled = GridMap(occ, agent=g.agent, goal=g.goal)
            cases += [(walled, walled.free_count, 1.5), (walled, walled.free_count // 2, 4.0)]
        for grid, nodes, radius in cases:
            p = SamplerParams(seed=trial, prm_nodes=nodes, prm_radius=radius)
            outcomes.append(assert_sprm_matches_brute(grid, model, p))
    assert any(out.success for out in outcomes)
    assert any(out.failure_reason == "roadmap_disconnected" for out in outcomes)


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("dims", [2, 3])
def test_roadmap_pairs_match_brute_force(dims, block, monkeypatch):
    # _roadmap_edges against every pair within radius whose line, from the
    # lexicographically smaller cell, passes the reference walk; maps of more
    # than 125 cells are left free, where every pair within radius is an edge,
    # so the walk only runs on the small ones
    if block:  # many small work blocks instead of one
        monkeypatch.setattr(sampling, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(71 + dims)
    for radius in RADII + (0.5, 30.0, math.inf):
        for trial in range(8):
            orthogonal = bool(trial % 2)
            extent = tuple(int(e) for e in rng.integers(1, 10, size=dims))
            occ = (rng.random(extent) < 0.25) & (math.prod(extent) <= 125)
            free = np.argwhere(~occ)
            if not len(free):
                continue
            coords = free[rng.choice(len(free), size=int(rng.integers(1, len(free) + 1)), replace=False)]
            i, j = _roadmap_edges(FlatGrid(GridMap(occ), _model(orthogonal)), coords, radius, orthogonal)
            cells = [tuple(int(c) for c in cell) for cell in coords]
            d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
            pairs = np.argwhere(np.triu((d2 <= radius * radius) & (d2 > 0))).tolist()
            if occ.any():
                pairs = [
                    (p, q) for p, q in pairs
                    if _ref_line_valid(occ, discrete_line(*sorted((cells[p], cells[q])), orthogonal))
                ]
            assert list(zip(i.tolist(), j.tolist())) == list(map(tuple, pairs))


@pytest.mark.parametrize("batch", [None, 5])
@pytest.mark.parametrize("dims,size", [(2, 12), (3, 6)])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_lines_valid_matches_line_walk(dims, size, orthogonal, batch):
    # _line_moves over lines of mixed lengths, zero offsets among them, all
    # in one call or `batch` offsets per call: validity from random free
    # starts through fg.table, and the cost bit for bit, against the line walk
    rng = np.random.default_rng(73 + dims)
    for fill in (0.1, 0.3, 0.5):
        occ = rng.random((size,) * dims) < fill
        fg = FlatGrid(GridMap(occ), _model(orthogonal))
        table = fg.table.reshape(-1)
        strides = np.array(fg.strides)
        free = np.argwhere(~occ)
        a = free[rng.integers(len(free), size=200)]
        b = rng.integers(0, size, size=(200, dims))
        b[:5] = a[:5]  # zero-length lines are valid
        lines = [discrete_line(tuple(map(int, x)), tuple(map(int, y)), orthogonal) for x, y in zip(a, b)]
        step = batch or len(a)
        valid, cost = [], []
        for k in range(0, len(a), step):
            starts, rows, real, line_cost = _line_moves(b[k:k + step] - a[k:k + step], orthogonal)
            cells = a[k:k + step, None, :] + starts
            # the marked slots are each row's moves, in walk order
            for line, row, move_row, pick in zip(lines[k:k + step], cells.tolist(), rows, real):
                moves = [(tuple(c), fg.moves[m][3]) for c, m in zip(np.array(row)[pick].tolist(), move_row[pick])]
                assert moves == [(p, tuple(y - x for x, y in zip(p, q))) for p, q in zip(line, line[1:])]
            # every start cell lies in the box spanned by the line's endpoints
            assert (cells >= np.minimum(a, b)[k:k + step, None]).all()
            assert (cells <= np.maximum(a, b)[k:k + step, None]).all()
            legal = table[(cells + 1) @ strides + rows * fg.size].astype(bool)
            valid += (legal | ~real).all(axis=1).tolist()
            cost += line_cost.tolist()
        want = [_ref_line_valid(occ, line) for line in lines]
        assert valid == want
        assert cost == [_line_cost(line) for line in lines]
        # the single-line walk on the legality tables agrees too
        assert [_line_valid(fg, line) for line in lines] == want


@pytest.mark.parametrize("connectivity", list(Connectivity))
@pytest.mark.parametrize("dims", [2, 3])
def test_move_rows_follow_table_order(connectivity, dims):
    # every move vector maps to its own row of fg.table, with its entry's cost
    fg = FlatGrid(empty_grid(*(4,) * dims), MoveModel(connectivity))
    rows, costs = move_rows(connectivity, np.array([vec for _, _, _, vec in fg.moves]))
    assert rows.tolist() == list(range(len(fg.moves))) == list(range(len(fg.table)))
    assert costs.tolist() == [cost for _, _, cost, _ in fg.moves]
    assert all(fg.table[k].tobytes() == bytes(legal) for k, (_, legal, _, _) in enumerate(fg.moves))


# --- shared contracts ---------------------------------------------------------

def test_sampler_rejects_bad_params():
    with pytest.raises(ValueError):
        SamplerParams(goal_bias=1.5)
    with pytest.raises(ValueError):
        SamplerParams(max_samples=0)
    with pytest.raises(ValueError):
        SamplerParams(step_cells=0)
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SamplerParams(prm_radius=radius)
        with pytest.raises(ValueError):
            SamplerParams(rewire_radius=radius)
    SamplerParams(prm_radius=math.inf, rewire_radius=math.inf)


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
