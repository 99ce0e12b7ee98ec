"""Discretized sampling-based planners: d-RRT, d-RT, d-RRT*, d-RRT-Connect, d-sPRM.

Every sample is a grid cell; tree edges are discrete line walks validated
under the corner-cutting rule, and the cells actually walked are stored per
edge so the final path expands to a model-adjacent, validator-clean walk.
Budget rule: every drawn sample consumes max_samples, including duplicates
that add no node.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from pbgrid.grid import (
    _STEP_COST,
    Cell,
    Connectivity,
    FlatGrid,
    GridMap,
    MapError,
    MoveModel,
    Path,
    _shoulder_vectors,
)
from pbgrid.planners.base import (
    BUDGET_EXHAUSTED,
    DICT_ENTRY_BYTES,
    ROADMAP_DISCONNECTED,
    TREE_NODE_BYTES,
    PlanOutcome,
    SearchTrace,
)

# Work-block sizes that keep the roadmap kernels' temporaries near 10 MiB per
# block at any map size or radius: (node, offset) lookups per pair-search block,
# and line steps per line-check block (each step carries a dozen int64 arrays).
_PAIR_BLOCK = 1 << 20
_STEP_BLOCK = 1 << 16
# Per-offset line rows kept by _offset_line: every offset within radius 8 of
# one connectivity in 3D (2 108 offsets, 1.7 MiB) fits. Rows grow with the
# line, so a full cache of radius-inf lines on a 64^3 map holds about 27 MiB.
_LINE_CACHE = 1 << 12


@dataclass(frozen=True)
class SamplerParams:
    """Sampling-planner knobs; None fields resolve against the map.

    max_samples defaults to 10x the free-cell count, prm_nodes to free/8.
    The RNG is PCG64 (a named, portable 64-bit generator), seeded per run.
    """

    seed: int = 0
    max_samples: Optional[int] = None
    step_cells: int = 4
    goal_bias: float = 0.05
    prm_nodes: Optional[int] = None
    prm_radius: float = 8.0
    rewire_radius: float = 8.0

    def __post_init__(self):
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError(f"max_samples must be > 0, got {self.max_samples}")
        if not (0.0 <= self.goal_bias <= 1.0):
            raise ValueError(f"goal_bias must be in [0, 1], got {self.goal_bias}")
        if self.step_cells < 1:
            raise ValueError(f"step_cells must be >= 1, got {self.step_cells}")
        # written so that NaN fails too; +inf is a legal radius
        if not (self.prm_radius > 0 and self.rewire_radius > 0):
            raise ValueError("radii must be > 0")
        if self.prm_nodes is not None and self.prm_nodes < 0:
            raise ValueError(f"prm_nodes must be >= 0, got {self.prm_nodes}")

    def resolved_max_samples(self, grid: GridMap) -> int:
        return self.max_samples if self.max_samples is not None else 10 * grid.free_count

    def resolved_prm_nodes(self, grid: GridMap) -> int:
        return self.prm_nodes if self.prm_nodes is not None else grid.free_count // 8


def _line_cells(a: Cell, b: Cell, orthogonal: bool) -> Iterator[Cell]:
    """Yield the cells of discrete_line(a, b, orthogonal) one at a time, so a
    caller that needs only a prefix computes only that prefix."""
    cur = tuple(a)
    yield cur
    n = max(abs(x - y) for x, y in zip(a, b))
    for i in range(1, n + 1):
        nxt = tuple(int(math.floor(x + (y - x) * i / n + 0.5)) for x, y in zip(a, b))
        if orthogonal:
            for axis in range(len(cur)):
                if cur[axis] != nxt[axis]:
                    cur = cur[:axis] + (nxt[axis],) + cur[axis + 1:]
                    yield cur
        else:
            yield nxt
        cur = nxt


def discrete_line(a: Cell, b: Cell, orthogonal: bool = False) -> Tuple[Cell, ...]:
    """Integer line from a to b inclusive (rounded interpolation).

    Consecutive cells differ by at most 1 per axis. With orthogonal=True each
    multi-axis step is expanded into unit steps in axis order, so the line is
    walkable under Orthogonal connectivity.
    """
    # built through a list: tuple() fed straight from the generator grows by
    # reallocation, which raised peak RSS by about 1 MiB on 32^2 sampler sweeps
    return tuple([*_line_cells(a, b, orthogonal)])


def _legal_prefix(fg: FlatGrid, cells: Iterable[Cell]) -> List[Cell]:
    """The longest prefix (>= 1 cell) of a walk of model moves whose every
    step is legal: no obstacle, no corner cut."""
    cells = iter(cells)
    walked = [next(cells)]
    idx = fg.to_flat(walked[0])
    for nxt in cells:
        delta, legal, _, _ = fg.step[tuple(b - a for a, b in zip(walked[-1], nxt))]
        if not legal[idx]:
            break
        idx += delta
        walked.append(nxt)
    return walked


def _line_valid(fg: FlatGrid, line: Sequence[Cell]) -> bool:
    return len(_legal_prefix(fg, line)) == len(line)


def _line_cost(line: Sequence[Cell]) -> float:
    total = 0.0
    for a, b in zip(line, line[1:]):
        total += _STEP_COST[sum(1 for x, y in zip(a, b) if x != y)]
    return total


@functools.lru_cache(maxsize=_LINE_CACHE)
def _offset_line(offset: Cell, orthogonal: bool) -> Tuple[np.ndarray, float]:
    """The cells whose freedom makes discrete_line(a, a + offset) a legal walk
    (each step's target and corner-cut shoulders, as _shoulder_vectors gives
    them), as read-only offsets from a (rows x dims), and the line's _line_cost.

    The rounding term offset*i/n has a fractional part that is a multiple of
    1/n, so shifting both endpoints by an integer cell a never flips a floor:
    the line from a is the line from the origin moved by a, and its probes and
    cost depend on the offset alone. Every probe lies in the box spanned by 0
    and offset, so it is in bounds whenever both endpoints are.
    """
    line = discrete_line((0,) * len(offset), offset, orthogonal)
    probes = []
    for src, dst in zip(line, line[1:]):
        probes.append(dst)
        move = tuple(b - a for a, b in zip(src, dst))
        probes.extend(tuple(a + d for a, d in zip(src, sh)) for sh in _shoulder_vectors(move))
    rows = np.array(list(dict.fromkeys(probes)), dtype=np.int64).reshape(-1, len(offset))
    rows.setflags(write=False)
    return rows, _line_cost(line)


def _offset_lines(
    flat: np.ndarray, strides: np.ndarray, starts: np.ndarray, offsets: np.ndarray, orthogonal: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Validity and cost of discrete_line(a, a + offsets[k]) for every row k,
    where a is the cell at flat index starts[k] of the flattened occupancy
    flat; one gather over the memoized probes of all lines."""
    rows = [_offset_line(o, orthogonal) for o in map(tuple, offsets.tolist())]
    counts = [len(probes) for probes, _ in rows]
    at = np.repeat(starts, counts) + np.concatenate([probes for probes, _ in rows]) @ strides
    valid = np.ones(len(rows), dtype=bool)
    valid[np.repeat(np.arange(len(rows)), counts)[flat[at]]] = False
    return valid, np.array([line_cost for _, line_cost in rows])


def _steer_walk(
    fg: FlatGrid, from_cell: Cell, toward: Cell, step_cells: int, orthogonal: bool
) -> List[Cell]:
    """Walk the discrete line up to step_cells cells, stopping before any
    obstacle or corner-cut violation. Returns the walked prefix (>= 1 cell)."""
    cells = _line_cells(from_cell, toward, orthogonal)
    return _legal_prefix(fg, itertools.islice(cells, step_cells + 1))


def grid_steer(
    from_cell: Cell,
    toward: Cell,
    step_cells: int,
    grid: GridMap,
    model: MoveModel = MoveModel(),
) -> Optional[Cell]:
    """Last free cell reached walking the line from from_cell toward toward,
    or None when no progress is possible (including toward == from_cell)."""
    from_cell = tuple(int(c) for c in from_cell)
    if not grid.is_free(from_cell):
        raise MapError(f"steer origin {from_cell} is not a free cell")
    walked = _steer_walk(
        FlatGrid(grid, model),
        from_cell,
        tuple(int(c) for c in toward),
        step_cells,
        model.connectivity is Connectivity.ORTHOGONAL,
    )
    return walked[-1] if len(walked) > 1 else None


class _Tree:
    """Cell tree with numpy-backed nearest-neighbor lookup.

    coords holds the node cells as int64 rows (first `size` rows in use), so
    squared distances are exact integers; callers may read it for their own
    radius queries.
    """

    def __init__(self, root: Cell, dims: int, capacity: int):
        self.nodes: List[Cell] = [root]
        self.ids: Dict[Cell, int] = {root: 0}
        self.parent: List[int] = [-1]
        self.edges: List[Tuple[Cell, ...]] = [()]  # cells strictly between parent and node
        self.coords = np.empty((max(capacity, 1), dims), dtype=np.int64)
        self.coords[0] = root

    @property
    def size(self) -> int:
        return len(self.nodes)

    def nearest(self, cell: Cell) -> int:
        diff = self.coords[: len(self.nodes)] - np.asarray(cell, dtype=np.int64)
        return int(np.argmin((diff * diff).sum(axis=1)))  # ties: oldest node

    def add(self, cell: Cell, parent: int, between: Tuple[Cell, ...]) -> int:
        nid = len(self.nodes)
        self.nodes.append(cell)
        self.ids[cell] = nid
        self.parent.append(parent)
        self.edges.append(between)
        self.coords[nid] = cell
        return nid

    def branch(self, nid: int) -> List[Cell]:
        """Expanded cell walk from the root to node nid."""
        chain = []
        while nid >= 0:
            chain.append(nid)
            nid = self.parent[nid]
        chain.reverse()
        cells = [self.nodes[chain[0]]]
        for child in chain[1:]:
            cells.extend(self.edges[child])
            cells.append(self.nodes[child])
        return cells


def _tree_log(trees: Sequence[_Tree]):
    """Node insertions as (cell, parent_global_index, global_index) entries."""
    log = []
    offset = 0
    for tree in trees:
        for nid, cell in enumerate(tree.nodes):
            parent = tree.parent[nid]
            gparent = float(parent + offset) if parent >= 0 else -1.0
            log.append((cell, gparent, float(nid + offset)))
        offset += tree.size
    return log


def dump_tree(outcome: PlanOutcome, stream) -> int:
    """Write one node per line: cell coords, parent index (-1 for a root)."""
    log = outcome.trace.step_log
    if log is None:
        raise ValueError("outcome carries no sample-tree log")
    for cell, parent, _ in log:
        stream.write(" ".join(str(c) for c in cell) + f" {int(parent)}\n")
    return len(log)


def _sampler_prelude(grid: GridMap, params: SamplerParams):
    if grid.agent is None or grid.goal is None:
        raise MapError("planner needs a map with agent and goal set")
    rng = np.random.Generator(np.random.PCG64(params.seed))
    free = grid.free_cells()
    return rng, free


def _trivial(grid: GridMap, t0: float) -> PlanOutcome:
    return PlanOutcome(
        success=True,
        path=Path.from_cells([grid.agent]),
        trace=SearchTrace(explored={grid.agent}, frontier_peak=0, step_log=[]),
        elapsed_seconds=time.perf_counter() - t0,
        peak_memory_bytes=0,
        terminal_cell=grid.agent,
    )


def _goal_connect(fg: FlatGrid, cell: Cell, goal: Cell) -> bool:
    """Is goal one legal move away from cell?"""
    entry = fg.step.get(tuple(g - c for c, g in zip(cell, goal)))
    return entry is not None and entry[1][fg.to_flat(cell)] == 1


def _tree_outcome(
    grid: GridMap,
    trees: Sequence[_Tree],
    goal_branch: Optional[List[Cell]],
    t0: float,
    reason: Optional[str],
) -> PlanOutcome:
    explored = set()
    for tree in trees:
        explored.update(tree.nodes)
        for edge in tree.edges:
            explored.update(edge)
    total_nodes = sum(t.size for t in trees)
    memory = total_nodes * TREE_NODE_BYTES + sum(t.coords.nbytes for t in trees)
    trace = SearchTrace(
        explored=explored, frontier_peak=total_nodes, step_log=_tree_log(trees)
    )
    elapsed = time.perf_counter() - t0
    if goal_branch is None:
        return PlanOutcome(
            success=False,
            path=None,
            trace=trace,
            elapsed_seconds=elapsed,
            peak_memory_bytes=memory,
            terminal_cell=grid.agent,
            failure_reason=reason,
        )
    return PlanOutcome(
        success=True,
        path=Path.from_cells(goal_branch),
        trace=trace,
        elapsed_seconds=elapsed,
        peak_memory_bytes=memory,
        terminal_cell=grid.goal,
    )


def _rrt_family(grid: GridMap, model: MoveModel, params: SamplerParams, nearest: bool) -> PlanOutcome:
    t0 = time.perf_counter()
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return _trivial(grid, t0)
    fg = FlatGrid(grid, model)
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL
    goal = grid.goal
    budget = params.resolved_max_samples(grid)
    tree = _Tree(grid.agent, grid.dims, grid.free_count + 1)
    goal_id = None

    for _ in range(budget):
        if params.goal_bias > 0.0 and rng.random() < params.goal_bias:
            sample = goal
        else:
            sample = tuple(int(c) for c in free[rng.integers(len(free))])
        base = tree.nearest(sample) if nearest else int(rng.integers(tree.size))
        walked = _steer_walk(fg, tree.nodes[base], sample, params.step_cells, orthogonal)
        if len(walked) < 2 or walked[-1] in tree.ids:
            continue
        nid = tree.add(walked[-1], base, tuple(walked[1:-1]))
        if walked[-1] == goal:
            goal_id = nid
            break
        if _goal_connect(fg, walked[-1], goal):
            goal_id = tree.add(goal, nid, ())
            break

    branch = tree.branch(goal_id) if goal_id is not None else None
    return _tree_outcome(grid, [tree], branch, t0, None if branch else BUDGET_EXHAUSTED)


def d_rrt(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """RRT over grid cells: extend the Euclidean-nearest node toward each sample."""
    return _rrt_family(grid, model, params, nearest=True)


def d_rt(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """Random tree: like d_rrt but extends from a uniformly random existing node."""
    return _rrt_family(grid, model, params, nearest=False)


def _erase_loops(cells: List[Cell]) -> List[Cell]:
    """Splice out revisits: whenever a cell reappears, drop the cycle between
    its two occurrences. First-occurrence order is kept, endpoints survive."""
    out: List[Cell] = []
    index: Dict[Cell, int] = {}
    for c in cells:
        if c in index:
            k = index[c]
            for dropped in out[k + 1:]:
                del index[dropped]
            del out[k + 1:]
        else:
            index[c] = len(out)
            out.append(c)
    return out


def _line_normalize(fg: FlatGrid, cells: List[Cell], orthogonal: bool) -> List[Cell]:
    """Rewrite a walk as its greedy farthest-jump polyline: from each position,
    jump to the farthest later cell of the walk whose discrete line is free,
    and walk that line instead. Uses the same line validity as tree edges, so
    the result stays validator-clean; it only ever gets cheaper."""
    out = [cells[0]]
    i = 0
    n = len(cells)
    while i < n - 1:
        j = n - 1
        seg = None
        while j > i + 1:
            line = discrete_line(cells[i], cells[j], orthogonal)
            if _line_valid(fg, line):
                seg = line
                break
            j -= 1
        if seg is None:
            j = i + 1
            out.append(cells[j])
        else:
            out.extend(seg[1:])
        i = j
    return out


def d_rrt_connect(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """Two trees rooted at start and goal; alternate extend and greedy
    multi-step connect.

    goal_bias aims an extension at the opposing root instead of a uniform
    sample, pulling the frontiers through the start-goal corridor. The connect
    chain passes through cells the tree already owns rather than stopping at
    them, and the trees count as joined at the first cell they share.

    Concatenating two independently grown branches leaves systematic slack:
    the halves meander and can double back near the junction. The joined walk
    is therefore normalized before validation: exact revisits are erased, then
    the walk is rewritten as its greedy farthest-jump polyline under the same
    discrete-line validity the tree edges use. The trees themselves are
    returned untouched.
    """
    t0 = time.perf_counter()
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return _trivial(grid, t0)
    fg = FlatGrid(grid, model)
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL
    budget = params.resolved_max_samples(grid)
    start_tree = _Tree(grid.agent, grid.dims, grid.free_count + 1)
    goal_tree = _Tree(grid.goal, grid.dims, grid.free_count + 1)
    trees = [start_tree, goal_tree]
    target_root = {id(start_tree): grid.goal, id(goal_tree): grid.agent}
    meet: Optional[Cell] = None
    flip = False

    for _ in range(budget):
        a, b = (goal_tree, start_tree) if flip else (start_tree, goal_tree)
        flip = not flip
        if rng.random() < params.goal_bias:
            sample = target_root[id(a)]
        else:
            sample = tuple(int(c) for c in free[rng.integers(len(free))])
        base = a.nearest(sample)
        walked = _steer_walk(fg, a.nodes[base], sample, params.step_cells, orthogonal)
        if len(walked) < 2:
            continue
        q_new = walked[-1]
        if q_new not in a.ids:
            a.add(q_new, base, tuple(walked[1:-1]))
        if q_new in b.ids:
            meet = q_new
            break
        # greedy connect: chain b toward q_new until trapped, passing through
        # cells already in b; any cell shared with a joins the trees
        cur = b.nearest(q_new)
        hops = {cur}
        while True:
            w2 = _steer_walk(fg, b.nodes[cur], q_new, params.step_cells, orthogonal)
            if len(w2) < 2:
                break
            tip = w2[-1]
            if tip in b.ids:
                nid = b.ids[tip]
                if nid in hops:
                    break
                cur = nid
                hops.add(nid)
            else:
                cur = b.add(tip, cur, tuple(w2[1:-1]))
                hops.add(cur)
            if tip in a.ids:
                meet = tip
                break
            if tip == q_new:
                break
        if meet is not None:
            break

    branch = None
    if meet is not None:
        fwd = start_tree.branch(start_tree.ids[meet])
        back = goal_tree.branch(goal_tree.ids[meet])
        back.reverse()
        branch = _erase_loops(fwd + back[1:])
        if len(branch) > 2:
            branch = _line_normalize(fg, branch, orthogonal)
    return _tree_outcome(grid, trees, branch, t0, None if branch else BUDGET_EXHAUSTED)


def d_rrt_star(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """d_rrt plus choose-parent and rewire within rewire_radius; runs the full
    sample budget and returns the best goal-reaching branch.

    Each new node q_new makes one radius query on the tree's coordinates and
    one gather (_offset_lines) that checks, for every neighbour, both the
    node -> q_new line (choose-parent) and the q_new -> node line (rewire);
    discrete_line is not symmetric, so both directions are checked. The
    parent is the first neighbour of least cost through it, taken only when
    strictly cheaper than the steered edge from the nearest node. Rewires run
    in ascending node id over the live costs, because a reparent lowers the
    costs of later neighbours in its subtree. Edge cells are rebuilt with
    discrete_line only for the chosen parent and for real rewires.
    """
    t0 = time.perf_counter()
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return _trivial(grid, t0)
    fg = FlatGrid(grid, model)
    flat = grid.occupancy.reshape(-1)
    strides = _row_major_strides(grid.extent)
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL
    goal = grid.goal
    budget = params.resolved_max_samples(grid)
    tree = _Tree(grid.agent, grid.dims, grid.free_count + 1)
    cost = np.zeros(len(tree.coords))
    children: List[List[int]] = [[]]
    r2 = params.rewire_radius * params.rewire_radius

    def reparent(nid: int, new_parent: int, between: Tuple[Cell, ...], new_cost: float):
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

    for _ in range(budget):
        if params.goal_bias > 0.0 and rng.random() < params.goal_bias:
            sample = goal
        else:
            sample = tuple(int(c) for c in free[rng.integers(len(free))])
        base = tree.nearest(sample)
        walked = _steer_walk(fg, tree.nodes[base], sample, params.step_cells, orthogonal)
        if len(walked) < 2 or walked[-1] in tree.ids:
            continue
        q_new = walked[-1]
        q = np.asarray(q_new, dtype=np.int64)
        diff = tree.coords[: tree.size] - q
        nbrs = np.flatnonzero((diff * diff).sum(axis=1) <= r2)
        k = len(nbrs)

        # choose parent: cheapest valid connection among radius neighbors
        best_parent = base
        best_edge = tuple(walked[1:-1])
        best_cost = cost[base] + _line_cost(walked)
        if k:
            # rows [:k] run node -> q_new (choose-parent), rows [k:] q_new -> node (rewire)
            starts = np.concatenate([tree.coords[nbrs] @ strides, np.full(k, q @ strides)])
            valid, line_cost = _offset_lines(
                flat, strides, starts, np.concatenate([-diff[nbrs], diff[nbrs]]), orthogonal
            )
            through = np.where(valid[:k] & (nbrs != base), cost[nbrs] + line_cost[:k], np.inf)
            j = int(np.argmin(through))  # first of the cheapest
            if through[j] < best_cost:
                best_parent = int(nbrs[j])
                best_cost = through[j]
                best_edge = discrete_line(tree.nodes[best_parent], q_new, orthogonal)[1:-1]
        new_id = tree.add(q_new, best_parent, best_edge)
        cost[new_id] = best_cost
        children.append([])
        children[best_parent].append(new_id)

        # rewire: strictly cheaper routes through q_new (never creates a cycle).
        # Costs only fall during the loop, so neighbours that fail the test on
        # the costs before it can be skipped; the rest are tested on live costs.
        if k:
            rewire_cost = best_cost + line_cost[k:]
            maybe = valid[k:] & (rewire_cost < cost[nbrs] - 1e-12) & (nbrs != best_parent) & (nbrs != 0)
            for i in np.flatnonzero(maybe).tolist():
                nid = int(nbrs[i])
                if rewire_cost[i] < cost[nid] - 1e-12:
                    line = discrete_line(q_new, tree.nodes[nid], orthogonal)
                    reparent(nid, new_id, line[1:-1], rewire_cost[i])

        if q_new != goal and goal not in tree.ids and _goal_connect(fg, q_new, goal):
            gid = tree.add(goal, new_id, ())
            cost[gid] = best_cost + _STEP_COST[sum(1 for c, g in zip(q_new, goal) if c != g)]
            children.append([])
            children[new_id].append(gid)

    branch = tree.branch(tree.ids[goal]) if goal in tree.ids else None
    return _tree_outcome(grid, [tree], branch, t0, None if branch else BUDGET_EXHAUSTED)


def _row_major_strides(shape: Sequence[int]) -> np.ndarray:
    strides = np.ones(len(shape), dtype=np.int64)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]
    return strides


def _roadmap_pairs(coords: np.ndarray, extent: Sequence[int], radius: float):
    """All pairs of nodes within radius, as (lo, hi) node-index arrays.

    coords holds distinct in-bounds cells, one per row. Each pair appears
    once, with coords[lo] < coords[hi] lexicographically, and pairs are sorted
    by (min(lo, hi), max(lo, hi)). The search writes node ids into a padded
    flat grid and gathers once per offset of the positive half-stencil
    (offsets o > 0 lexicographically with |o|^2 <= radius^2), so its work
    grows with nodes x stencil instead of nodes^2.
    """
    dims = coords.shape[1]
    r2 = radius * radius
    longest = max(extent) - 1
    # largest integer o_k with o_k^2 <= r2, capped by the map extent
    reach_max = math.isqrt(int(min(longest * longest, r2)))
    reach = [min(reach_max, s - 1) for s in extent]
    axes = np.meshgrid(*(np.arange(-p, p + 1) for p in reach), indexing="ij")
    offsets = np.stack(axes, axis=-1).reshape(-1, dims)
    # meshgrid order is lexicographic and symmetric about the zero offset
    offsets = offsets[len(offsets) // 2 + 1:]
    offsets = offsets[(offsets * offsets).sum(axis=1) <= r2]

    padded = [s + 2 * p for s, p in zip(extent, reach)]
    strides = _row_major_strides(padded)
    slots = (coords + reach) @ strides
    index = np.full(int(np.prod(padded)), -1, dtype=np.int32)
    index[slots] = np.arange(len(coords), dtype=np.int32)
    deltas = offsets @ strides

    lo_parts, hi_parts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    block = max(1, _PAIR_BLOCK // max(len(coords), 1))
    for start in range(0, len(deltas), block):
        found = index[slots[:, None] + deltas[None, start:start + block]]
        rows, cols = np.nonzero(found >= 0)
        lo_parts.append(rows)
        hi_parts.append(found[rows, cols].astype(np.int64))
    lo, hi = np.concatenate(lo_parts), np.concatenate(hi_parts)
    order = np.lexsort((np.maximum(lo, hi), np.minimum(lo, hi)))
    return lo[order], hi[order]


def _lines_valid(occ: np.ndarray, a: np.ndarray, b: np.ndarray, orthogonal: bool) -> np.ndarray:
    """_line_valid of discrete_line(a[k], b[k], orthogonal) on the map occ, for
    every row k of the (lines, dims) integer arrays a and b.

    Each step cur -> nxt of the rounded line is tested in one numpy pass over
    all steps of all lines, with discrete_line's float expression. Under FULL
    connectivity a step is legal when every cell reached by a non-empty subset
    of its changed axes is free: the target plus the corner-cut shoulders.
    Under ORTHOGONAL the line walks the changed axes in axis order, so the
    cells to test are the axis-order prefixes of the step.
    """
    dims = occ.ndim
    if orthogonal:
        masks = [list(range(k + 1)) for k in range(dims)]
    else:
        masks = [
            [axis for axis in range(dims) if bits >> axis & 1]
            for bits in range(1, 1 << dims)
        ]
    flat = occ.reshape(-1)
    strides = _row_major_strides(occ.shape)
    diff = b - a
    n = np.abs(diff).max(axis=1)
    valid = np.ones(len(a), dtype=bool)
    block = max(1, _STEP_BLOCK // max(int(n.max(initial=0)), 1))
    for start in range(0, len(a), block):
        seg_n = n[start:start + block]
        line = np.repeat(np.arange(start, start + len(seg_n)), seg_n)
        if not len(line):
            continue
        t = np.arange(1, len(line) + 1) - np.repeat(np.cumsum(seg_n) - seg_n, seg_n)
        span = n[line]
        base = np.zeros(len(line), dtype=np.int64)
        shifts = []
        for axis in range(dims):
            origin, delta = a[line, axis], diff[line, axis]
            cur = np.floor(origin + delta * (t - 1) / span + 0.5).astype(np.int64)
            nxt = np.floor(origin + delta * t / span + 0.5).astype(np.int64)
            base += cur * strides[axis]
            shifts.append((nxt - cur) * strides[axis])
        blocked = np.zeros(len(line), dtype=bool)
        for mask in masks:
            shift = sum(shifts[axis] for axis in mask)
            # a mask of unchanged axes names cur itself, which the step
            # leaves rather than enters (a walk never tests the cell it starts on)
            blocked |= flat[base + shift] & (shift != 0)
        valid[line[blocked]] = False
    return valid


def d_sprm(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """Simple PRM: sample prm_nodes free cells plus start/goal, connect pairs
    within prm_radius whose discrete line is free, answer with Dijkstra over
    the roadmap.

    Candidate pairs come from an integer offset stencil (every offset within
    prm_radius, looked up in a grid of node ids), not from an N x N distance
    matrix, and all their lines are checked in one numpy pass
    (_roadmap_pairs, _lines_valid). Edges are kept as node pairs; the cells
    of a line are rebuilt with discrete_line only for the returned path.

    The query treats every roadmap edge as one hop, the simplest weighting:
    the answer is a fewest-edges route, not a shortest-cells route, and the
    reported cost comes from the cells actually walked. With nodes everywhere
    and radius one step the two weightings coincide, so the planner still
    collapses to plain graph search in the dense limit.
    """
    t0 = time.perf_counter()
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return _trivial(grid, t0)
    occ = grid.occupancy
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL

    n_nodes = min(params.resolved_prm_nodes(grid), len(free))
    picks = rng.choice(len(free), size=n_nodes, replace=False) if n_nodes else []
    nodes: List[Cell] = [grid.agent, grid.goal]
    seen = {grid.agent, grid.goal}
    for i in picks:
        cell = tuple(int(c) for c in free[i])
        if cell not in seen:
            seen.add(cell)
            nodes.append(cell)

    coords = np.asarray(nodes, dtype=np.int64)
    # pairs arrive sorted by (i, j), i < j, so every adjacency list is
    # ascending; each line runs from the lexicographically smaller cell, so an
    # edge is the same in both directions
    lo_ids, hi_ids = _roadmap_pairs(coords, grid.extent, params.prm_radius)
    keep = _lines_valid(occ, coords[lo_ids], coords[hi_ids], orthogonal)
    edges_i, edges_j = np.minimum(lo_ids, hi_ids)[keep], np.maximum(lo_ids, hi_ids)[keep]
    adj: List[List[int]] = [[] for _ in nodes]
    for i, j in zip(edges_i.tolist(), edges_j.tolist()):
        adj[i].append(j)
        adj[j].append(i)

    # Dijkstra over the roadmap at one hop per edge, ties broken by node cell
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
        if i == 1:  # goal node
            break
        for j in adj[i]:
            nd = d + 1.0
            if nd < dist.get(j, float("inf")):
                dist[j] = nd
                parent[j] = i
                heappush(heap, (nd, nodes[j], j))
                heap_peak = max(heap_peak, len(heap))

    explored = set(nodes)
    memory = (
        len(nodes) * TREE_NODE_BYTES
        + coords.nbytes
        + 2 * len(edges_i) * DICT_ENTRY_BYTES
    )
    elapsed = time.perf_counter() - t0
    log = [(cell, -1.0, float(i)) for i, cell in enumerate(nodes)]
    trace = SearchTrace(explored=explored, frontier_peak=heap_peak, step_log=log)
    if 1 not in done:
        return PlanOutcome(
            success=False,
            path=None,
            trace=trace,
            elapsed_seconds=elapsed,
            peak_memory_bytes=memory,
            terminal_cell=grid.agent,
            failure_reason=ROADMAP_DISCONNECTED,
        )
    ids = [1]
    while ids[-1] != 0:
        ids.append(parent[ids[-1]])
    ids.reverse()
    cells: List[Cell] = [nodes[0]]
    for a, b in zip(ids, ids[1:]):
        lo, hi = sorted((nodes[a], nodes[b]))
        line = discrete_line(lo, hi, orthogonal)
        cells.extend(line[1:] if nodes[a] == lo else line[-2::-1])
    return PlanOutcome(
        success=True,
        path=Path.from_cells(cells),
        trace=trace,
        elapsed_seconds=elapsed,
        peak_memory_bytes=memory,
        terminal_cell=grid.goal,
    )
