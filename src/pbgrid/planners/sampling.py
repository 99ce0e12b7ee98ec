"""Discretized sampling-based planners: d-RRT, d-RT, d-RRT*, d-RRT-Connect, d-sPRM.

Every sample is a grid cell; tree edges are discrete line walks validated
under the corner-cutting rule, and the cells actually walked are stored per
edge so the final path expands to a model-adjacent, validator-clean walk.
Budget rule: every drawn sample consumes max_samples, including duplicates
that add no node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from pbgrid.grid import (
    _STEP_COST,
    Cell,
    Connectivity,
    DomainError,
    FlatCellSet,
    FlatGrid,
    GridMap,
    MapError,
    MoveModel,
    _row_major_strides,
    _shoulder_vectors,
)
from pbgrid.planners.base import (
    BUDGET_EXHAUSTED,
    DICT_ENTRY_BYTES,
    ROADMAP_DISCONNECTED,
    TREE_NODE_BYTES,
    PlanOutcome,
    SearchTrace,
    build_outcome,
    timed_run,
    trivial_outcome,
)

# Node x offset x probe lookups per block of the roadmap edge search: it bounds
# the block's temporaries at any map size or radius.
_PAIR_BLOCK = 1 << 20
# Per-offset line rows memoized by _offset_lines: every offset within radius
# 8 of one connectivity in 3D (2 108 offsets) fits. Rows grow with the line.
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
    if len(a) != len(b):
        raise DomainError(f"dimensionality mismatch: {len(a)} vs {len(b)}")
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


def _line_probes(offsets: np.ndarray, orthogonal: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells whose freedom makes discrete_line(0, offsets[k]) a legal walk
    from a free origin (K x L x dims), which of them are the row's distinct
    cells other than the origin (K x L), and each line's _line_cost (K).

    Each step cur -> nxt, in discrete_line's float expression, gives one probe
    per axis mask: cur moved along the masked axes. FULL masks are every
    non-empty axis subset (the target and each corner-cut shoulder),
    ORTHOGONAL masks the axis-order prefixes (the cells the expanded line
    walks). A mask over unchanged axes names cur, and a line shorter than the
    longest in the call repeats its last step, so padding only repeats cells
    the row already checks. A FULL probe is distinct when its mask is a subset
    of the step's changed axes, an ORTHOGONAL one when the prefix's last axis
    changed. Every probe lies in the box spanned by 0 and the offset. Costs
    are a sequential cumsum, bit-equal to _line_cost.
    """
    dims = offsets.shape[1]
    if orthogonal:
        masks = np.tri(dims, dtype=np.int64)
    else:
        masks = np.array(_shoulder_vectors((1,) * dims) + ((1,) * dims,), dtype=np.int64)
    n = np.abs(offsets).max(axis=1)
    steps = np.arange(1, int(n.max(initial=0)) + 1)
    t = np.minimum(steps, n[:, None])[:, :, None]
    span = np.maximum(n, 1)[:, None, None]
    o = offsets[:, None, :]
    cur = np.floor(o * (t - 1) / span + 0.5).astype(np.int64)
    move = np.floor(o * t / span + 0.5).astype(np.int64) - cur
    # built mask-major, so that numpy's inner loops run over whole steps
    probes = (cur + masks[:, None, None, :] * move).transpose(1, 2, 0, 3)
    # a repeat of a row's last step counts as changing no axis
    changed = (move != 0) & (steps <= n[:, None])[:, :, None]
    bit = 1 << np.arange(dims)
    own = changed if orthogonal else (masks @ bit & ~(changed @ bit)[:, :, None]) == 0
    # one unit step per changed axis under ORTHOGONAL
    unit = np.array((0.0, 1.0, 2.0, 3.0) if orthogonal else _STEP_COST)
    step_cost = np.zeros((len(offsets), len(steps) + 1))
    step_cost[:, 1:] = unit[changed.sum(axis=2)]
    k = len(offsets)
    return probes.reshape(k, -1, dims), own.reshape(k, -1), np.cumsum(step_cost, axis=1)[:, -1]


# Per-offset line rows of _offset_lines, keyed by (offset, orthogonal).
_line_memo: Dict[Tuple[Cell, bool], Tuple[np.ndarray, float]] = {}


def _offset_lines(
    flat: np.ndarray, strides: np.ndarray, starts: np.ndarray, offsets: np.ndarray, orthogonal: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Validity and cost of discrete_line(a, a + offsets[k]) for every row k,
    where a is the cell at flat index starts[k] of the flattened occupancy
    flat; one gather over the probes of all lines.

    The rounding term offset*i/n has a fractional part that is a multiple of
    1/n, so the line from a is the line from the origin moved by a: probes
    and cost depend on the offset alone. They are memoized per offset as
    read-only rows of distinct cells other than a, at most _LINE_CACHE rows;
    the rows a call is missing come from one _line_probes call, each copied
    out so that no row keeps a whole batch alive. Threads share the memo
    without a lock, because a published dict is never changed: a call reads
    through one reference and publishes a fresh dict with its new rows (two
    such calls may drop each other's rows, which only costs a rebuild).
    """
    global _line_memo
    memo = _line_memo
    keys = list(zip(map(tuple, offsets.tolist()), itertools.repeat(orthogonal)))
    rows = list(map(memo.get, keys))
    if None in rows:
        missing = list(dict.fromkeys(key for key, row in zip(keys, rows) if row is None))
        probes, own, line_cost = _line_probes(np.array([o for o, _ in missing]), orthogonal)
        built = {}
        for key, row, pick, c in zip(missing, probes, own, line_cost.tolist()):
            row = row[pick]
            row.setflags(write=False)
            built[key] = (row, c)
        if len(memo) + len(built) <= _LINE_CACHE:
            _line_memo = {**memo, **built}
        elif len(built) <= _LINE_CACHE:
            _line_memo = built
        rows = [row or built[key] for key, row in zip(keys, rows)]
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
    return np.random.Generator(np.random.PCG64(params.seed)), grid.free_cells()


def _draw_cell(rng: np.random.Generator, free: np.ndarray) -> Cell:
    """One uniform draw from the free cells, as a tuple of ints."""
    return tuple(free[rng.integers(len(free))].tolist())


def _goal_connect(fg: FlatGrid, cell: Cell, goal: Cell) -> bool:
    """Is goal one legal move away from cell?"""
    entry = fg.step.get(tuple(g - c for c, g in zip(cell, goal)))
    return entry is not None and entry[1][fg.to_flat(cell)] == 1


def _tree_outcome(
    grid: GridMap,
    trees: Sequence[_Tree],
    goal_branch: Optional[List[Cell]],
) -> PlanOutcome:
    explored = set()
    for tree in trees:
        explored.update(tree.nodes)
        for edge in tree.edges:
            explored.update(edge)
    total_nodes = sum(t.size for t in trees)
    memory = total_nodes * TREE_NODE_BYTES + sum(t.coords.nbytes for t in trees)
    trace = SearchTrace(explored=explored, frontier_peak=total_nodes, step_log=_tree_log(trees))
    return build_outcome(grid, goal_branch, trace, memory, BUDGET_EXHAUSTED)


def _rrt_family(grid: GridMap, model: MoveModel, params: SamplerParams, nearest: bool) -> PlanOutcome:
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)
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
            sample = _draw_cell(rng, free)
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
    return _tree_outcome(grid, [tree], branch)


@timed_run
def d_rrt(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """RRT over grid cells: extend the Euclidean-nearest node toward each sample."""
    return _rrt_family(grid, model, params, nearest=True)


@timed_run
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


@timed_run
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
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)
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
            sample = _draw_cell(rng, free)
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
    return _tree_outcome(grid, trees, branch)


@timed_run
def d_rrt_star(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """d_rrt plus choose-parent and rewire within rewire_radius; runs the full
    sample budget and returns the best goal-reaching branch.

    Each new node q_new makes one radius query on the tree's coordinates and
    one gather (_offset_lines) that checks, for every neighbour, both the
    node -> q_new line (choose-parent) and the q_new -> node line (rewire);
    discrete_line is not symmetric, so both directions are checked. The
    gather reads memoized _line_probes rows, as d_sprm's roadmap does. The
    parent is the first neighbour of least cost through it, taken only when
    strictly cheaper than the steered edge from the nearest node. Rewires run
    in ascending node id over the live costs, because a reparent lowers the
    costs of later neighbours in its subtree. Edge cells are rebuilt with
    discrete_line only for the chosen parent and for real rewires.
    """
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)
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
            sample = _draw_cell(rng, free)
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
    return _tree_outcome(grid, [tree], branch)


def _roadmap_edges(coords: np.ndarray, occ: np.ndarray, radius: float, orthogonal: bool):
    """All pairs of nodes within radius whose discrete line is free on occ, as
    (i, j) node-index arrays with i < j, sorted by (i, j).

    coords holds distinct free cells of occ, one per row. A pair's line runs
    from its lexicographically smaller cell, so an edge is the same in both
    directions. Node ids are written into a padded flat grid; the positive
    half-stencil (offsets o > 0 lexicographically with |o|^2 <= radius^2),
    sorted by line length, is walked in blocks of one length and at most
    _PAIR_BLOCK node x offset x probe lookups, each one node-id gather, one
    _line_probes call and one gather of every probe of every pair found.
    """
    extent = occ.shape
    dims = len(extent)
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
    steps = np.abs(offsets).max(axis=1)
    order = np.argsort(steps, kind="stable")
    offsets, steps = offsets[order], steps[order]

    padded = [s + 2 * p for s, p in zip(extent, reach)]
    strides = _row_major_strides(padded)
    slots = (coords + reach) @ strides
    index = np.full(int(np.prod(padded)), -1, dtype=np.int32)
    index[slots] = np.arange(len(coords), dtype=np.int32)
    deltas = offsets @ strides
    flat = occ.reshape(-1)
    occ_strides = _row_major_strides(extent)
    at = coords @ occ_strides

    per_step = dims if orthogonal else (1 << dims) - 1  # probes per line step
    budget = max(1, _PAIR_BLOCK // len(coords))  # offset x probe lookups per block
    i_parts, j_parts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    start = 0
    while start < len(offsets):
        stop = min(
            int(np.searchsorted(steps, steps[start], side="right")),
            start + max(1, budget // (int(steps[start]) * per_step)),
        )
        found = index[slots[:, None] + deltas[None, start:stop]]
        rows, cols = np.nonzero(found >= 0)
        probes, _, _ = _line_probes(offsets[start:stop], orthogonal)
        free = ~flat[at[rows][:, None] + (probes @ occ_strides)[cols]].any(axis=1)
        rows, hits = rows[free], found[rows[free], cols[free]].astype(np.int64)
        i_parts.append(np.minimum(rows, hits))
        j_parts.append(np.maximum(rows, hits))
        start = stop
    i, j = np.concatenate(i_parts), np.concatenate(j_parts)
    order = np.lexsort((j, i))
    return i[order], j[order]


def _roadmap_query(coords: np.ndarray, extent, edges_i: np.ndarray, edges_j: np.ndarray):
    """Fewest-edges search of the roadmap from node 0 (the agent) to node 1
    (the goal), one breadth-first level at a time.

    Its outcome is that of a heap search keyed (hops, cell, id) that stops
    when the goal pops. With unit weights that heap pops one level at a time,
    each level in cell order, and the goal's level only up to the goal, which
    pops but is not expanded. A node's parent is the first popped node that
    reaches it: a level's edges run in pop order, each adjacency row
    ascending, and one ``np.minimum.at`` keeps each node's first edge. No
    entry goes stale, so every node is pushed at most once, and after the
    i-th pop (from 0) and its pushes the heap holds (pushes so far) - i.
    Returns (parent, frontier_peak, found).
    """
    n = len(coords)
    # CSR adjacency in both directions. (i, j) is sorted with i < j, so a
    # stable sort by source puts each row's lower neighbours (the reversed
    # half, placed first) before its higher ones: every row is ascending.
    src = np.concatenate((edges_j, edges_i))
    adjacent = np.concatenate((edges_i, edges_j))[np.argsort(src, kind="stable")]
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_start[1:])
    # row-major flat indices order in-bounds cells as their tuples do
    rank = coords @ _row_major_strides(extent)

    first = np.full(n, adjacent.size, dtype=np.int64)  # above every edge id
    first[0] = -1  # reached nodes hold -1, so they never take a later edge
    parent = np.zeros(n, dtype=np.int64)
    level = np.zeros(1, dtype=np.int64)
    pushes = []
    found = False
    while level.size and not found:
        goal_at = np.flatnonzero(level == 1)
        if goal_at.size:
            found = True
            level = level[: goal_at[0]]
        start = row_start[level]
        counts = row_start[level + 1] - start
        edge = np.arange(counts.sum())
        to = adjacent[np.repeat(start + counts - np.cumsum(counts), counts) + edge]
        np.minimum.at(first, to, edge)
        new = first[to] == edge
        by = np.repeat(np.arange(level.size), counts)[new]  # pop position of each push
        child = to[new]
        first[child] = -1
        parent[child] = level[by]
        pushes.append(np.bincount(by, minlength=level.size))
        level = child[np.argsort(rank[child], kind="stable")]
    pushed = np.cumsum(np.concatenate(pushes))
    return parent, max(1, int((pushed - np.arange(pushed.size)).max())), found


@timed_run
def d_sprm(grid: GridMap, model: MoveModel, params: SamplerParams = SamplerParams()) -> PlanOutcome:
    """Simple PRM: sample prm_nodes free cells plus start/goal, connect pairs
    within prm_radius whose discrete line is free, answer with a fewest-edges
    search of the roadmap.

    Candidate pairs come from an integer offset stencil (every offset within
    prm_radius, looked up in a grid of node ids), not from an N x N distance
    matrix, and each block of stencil offsets checks the lines of every pair
    it finds in one gather of _line_probes rows (_roadmap_edges). Edges are
    kept as node pairs; the cells of a line are rebuilt with discrete_line
    only for the returned path.

    The query treats every roadmap edge as one hop, the simplest weighting:
    the answer is a fewest-edges route, not a shortest-cells route, and the
    reported cost comes from the cells actually walked. With nodes everywhere
    and radius one step the two weightings coincide, so the planner still
    collapses to plain graph search in the dense limit. The search runs one
    breadth-first level at a time over a CSR adjacency (_roadmap_query) and
    gives exactly the outcome of a Dijkstra heap search at unit weights,
    ties broken by node cell; its frontier_peak is that heap's peak,
    computed from the pushes rather than held. The explored cells, the
    roadmap's nodes, come back as a ``FlatCellSet``.
    """
    rng, free = _sampler_prelude(grid, params)
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)
    orthogonal = model.connectivity is Connectivity.ORTHOGONAL

    n_nodes = min(params.resolved_prm_nodes(grid), len(free))
    ends = np.array([grid.agent, grid.goal], dtype=np.int64)
    coords = ends
    if n_nodes:
        # distinct rows of free, so only the agent and the goal can repeat
        picked = free[rng.choice(len(free), size=n_nodes, replace=False)]
        repeat = (picked[:, None, :] == ends).all(axis=2).any(axis=1)
        coords = np.concatenate((ends, picked[~repeat]))
    nodes: List[Cell] = list(map(tuple, coords.tolist()))

    edges_i, edges_j = _roadmap_edges(coords, grid.occupancy, params.prm_radius, orthogonal)
    parent, frontier_peak, found = _roadmap_query(coords, grid.extent, edges_i, edges_j)

    explored = FlatCellSet.from_coords(coords, grid.extent)
    memory = (
        len(nodes) * TREE_NODE_BYTES
        + coords.nbytes
        + 2 * len(edges_i) * DICT_ENTRY_BYTES
    )
    log = [(cell, -1.0, float(i)) for i, cell in enumerate(nodes)]
    trace = SearchTrace(explored=explored, frontier_peak=frontier_peak, step_log=log)
    cells: Optional[List[Cell]] = None
    if found:
        ids = [1]
        while ids[-1] != 0:
            ids.append(int(parent[ids[-1]]))
        ids.reverse()
        cells = [nodes[0]]
        for a, b in zip(ids, ids[1:]):
            lo, hi = sorted((nodes[a], nodes[b]))
            line = discrete_line(lo, hi, orthogonal)
            cells.extend(line[1:] if nodes[a] == lo else line[-2::-1])
    return build_outcome(grid, cells, trace, memory, ROADMAP_DISCONNECTED)
