"""Occupancy-grid data model, movement semantics, and geometric utilities.

Everything downstream (generators, planners, metrics) shares the conventions
fixed here:

* cells are zero-based integer tuples, 2D or 3D;
* ``occupancy[cell] == True`` means obstacle;
* serialization is row-major with the last axis fastest;
* step cost is the Euclidean norm of the move vector (1, sqrt(2), sqrt(3));
* a multi-axis move is legal only when every cell reached by a proper
  axis-combination of the move is free (the corner-cutting rule: no squeezing
  between diagonally touching obstacles; direction-symmetric by construction).

Planners read that rule from one place, the per-move legality tables of
FlatGrid; neighbors() and validate_path() spell it out cell by cell and serve
as the reference the tables are tested against.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

Cell = Tuple[int, ...]

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Euclidean length of a unit move that changes k axes.
_STEP_COST = (0.0, 1.0, SQRT2, SQRT3)


class DomainError(ValueError):
    """A geometric precondition was violated (bad cell, dim mismatch)."""


class MapError(ValueError):
    """A map-level invariant was violated (endpoint on obstacle, too few free cells)."""


class InvalidPathError(ValueError):
    """A path failed validation (adjacency, obstacle, corner-cut, endpoints)."""


class Connectivity(enum.Enum):
    ORTHOGONAL = "orthogonal"  # 4-conn in 2D, 6-conn in 3D
    FULL = "full"              # 8-conn in 2D, 26-conn in 3D


@functools.lru_cache(maxsize=None)
def _move_vectors(connectivity: Connectivity, dims: int) -> Tuple[Cell, ...]:
    """All legal move vectors, lexicographically ordered."""
    vecs = []
    for v in itertools.product((-1, 0, 1), repeat=dims):
        changed = sum(1 for c in v if c != 0)
        if changed == 0:
            continue
        if connectivity is Connectivity.ORTHOGONAL and changed != 1:
            continue
        vecs.append(v)
    return tuple(sorted(vecs))


@functools.lru_cache(maxsize=None)
def _shoulder_vectors(move: Cell) -> Tuple[Cell, ...]:
    """Cells (as offsets) that must be free for `move` to be legal.

    Every proper axis-combination of the move: the two shoulders of a 2D
    diagonal, all six lower-order cells around a 3-axis move. The set is its
    own mirror (the subsets seen from one end are the complements seen from
    the other), so a move and its reverse are always equally legal and the
    grid stays an undirected graph.
    """
    axes = [i for i, c in enumerate(move) if c != 0]
    if len(axes) < 2:
        return ()
    out = []
    for mask in range(1, (1 << len(axes)) - 1):
        out.append(tuple(
            move[i] if i in axes and (mask >> axes.index(i)) & 1 else 0
            for i in range(len(move))
        ))
    return tuple(sorted(out))


@dataclass(frozen=True)
class MoveModel:
    """Connectivity plus the Euclidean step-cost rule.

    The cost of a move is the Euclidean norm of its vector, so orthogonal
    steps cost 1, planar diagonals sqrt(2), and 3-axis diagonals sqrt(3).
    """

    connectivity: Connectivity = Connectivity.FULL

    def moves(self, dims: int) -> Tuple[Cell, ...]:
        if dims not in (2, 3):
            raise DomainError(f"unsupported dimensionality: {dims}")
        return _move_vectors(self.connectivity, dims)

    @staticmethod
    def step_cost(move: Cell) -> float:
        changed = sum(1 for c in move if c != 0)
        if changed == 0:
            raise DomainError("zero move has no cost")
        return _STEP_COST[changed]


class GridMap:
    """Immutable dense occupancy grid with optional agent/goal endpoints.

    The occupancy array is copied on construction and marked read-only, so a
    GridMap can be shared freely across concurrent planner runs. A read-only,
    C-contiguous bool array, such as another GridMap's, is shared instead.
    """

    __slots__ = ("occupancy", "agent", "goal", "_free_count")

    def __init__(
        self,
        occupancy: np.ndarray,
        agent: Optional[Sequence[int]] = None,
        goal: Optional[Sequence[int]] = None,
    ):
        occ = np.asarray(occupancy, dtype=bool, order="C")
        if occ.flags.writeable:  # the caller may still change it
            occ = occ.copy()
        if occ.ndim not in (2, 3):
            raise MapError(f"occupancy must be 2D or 3D, got {occ.ndim}D")
        if any(s <= 0 for s in occ.shape):
            raise MapError(f"zero-size extent: {occ.shape}")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "agent", self._check_endpoint(occ, agent, "agent"))
        object.__setattr__(self, "goal", self._check_endpoint(occ, goal, "goal"))
        object.__setattr__(self, "_free_count", None)

    def __setattr__(self, name, value):
        raise AttributeError("GridMap is immutable")

    @staticmethod
    def _check_endpoint(occ: np.ndarray, cell, name: str) -> Optional[Cell]:
        if cell is None:
            return None
        cell = tuple(int(c) for c in cell)
        if len(cell) != occ.ndim:
            raise MapError(f"{name} {cell} does not match {occ.ndim}D map")
        if not all(0 <= c < s for c, s in zip(cell, occ.shape)):
            raise MapError(f"{name} {cell} out of bounds for extent {occ.shape}")
        if occ[cell]:
            raise MapError(f"{name} {cell} lies on an obstacle")
        return cell

    @property
    def dims(self) -> int:
        return self.occupancy.ndim

    @property
    def extent(self) -> Cell:
        return self.occupancy.shape

    @property
    def free_count(self) -> int:
        cached = self._free_count
        if cached is None:
            cached = int(self.occupancy.size - np.count_nonzero(self.occupancy))
            object.__setattr__(self, "_free_count", cached)
        return cached

    def in_bounds(self, cell: Sequence[int]) -> bool:
        return len(cell) == self.occupancy.ndim and all(
            0 <= c < s for c, s in zip(cell, self.occupancy.shape)
        )

    def is_free(self, cell: Sequence[int]) -> bool:
        return self.in_bounds(cell) and not self.occupancy[tuple(cell)]

    def free_cells(self) -> np.ndarray:
        """All free cells as an (N, dims) int array, row-major order."""
        return np.argwhere(~self.occupancy)

    def with_endpoints(self, agent: Sequence[int], goal: Sequence[int]) -> "GridMap":
        return GridMap(self.occupancy, agent=agent, goal=goal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.agent == other.agent
            and self.goal == other.goal
            and self.occupancy.shape == other.occupancy.shape
            and bool(np.array_equal(self.occupancy, other.occupancy))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"GridMap(extent={self.extent}, obstacles="
            f"{int(np.count_nonzero(self.occupancy))}, agent={self.agent}, goal={self.goal})"
        )


def euclidean_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Straight-line distance between two cell centers, in cells."""
    if len(a) != len(b):
        raise DomainError(f"dimensionality mismatch: {len(a)} vs {len(b)}")
    return math.dist(a, b)


def neighbors(grid: GridMap, cell: Sequence[int], model: MoveModel) -> List[Tuple[Cell, float]]:
    """In-bounds, free cells reachable in one move, with Euclidean step costs.

    Order is deterministic: lexicographic by move vector. Multi-axis moves
    respect the corner-cutting rule.
    """
    cell = tuple(int(c) for c in cell)
    if not grid.in_bounds(cell):
        raise DomainError(f"cell {cell} out of bounds for extent {grid.extent}")
    occ = grid.occupancy
    shape = occ.shape
    out = []
    for move in model.moves(occ.ndim):
        target = tuple(c + d for c, d in zip(cell, move))
        if not all(0 <= t < s for t, s in zip(target, shape)):
            continue
        if occ[target]:
            continue
        blocked = False
        for sh in _shoulder_vectors(move):
            if occ[tuple(c + d for c, d in zip(cell, sh))]:
                blocked = True
                break
        if blocked:
            continue
        out.append((target, _STEP_COST[sum(1 for d in move if d != 0)]))
    return out


@dataclass(frozen=True)
class DistanceField:
    """Per-cell Euclidean distance to the nearest obstacle cell center.

    ``unbounded`` is set when the map has no obstacles at all; every value is
    +inf in that case and clearance metrics must report "undefined" rather
    than a large number.
    """

    values: np.ndarray
    unbounded: bool

    def __post_init__(self):
        self.values.setflags(write=False)


def distance_transform(grid: GridMap) -> DistanceField:
    """Exact Euclidean distance transform; obstacle cells map to 0."""
    occ = grid.occupancy
    if not occ.any():
        return DistanceField(np.full(occ.shape, np.inf), unbounded=True)
    values = ndimage.distance_transform_edt(~occ)
    return DistanceField(np.asarray(values, dtype=float), unbounded=False)


@dataclass(frozen=True)
class Path:
    """An ordered cell walk with its exact cost decomposition.

    ``step_counts[k-1]`` counts moves that change k axes, so the cost
    n1 + n2*sqrt(2) + n3*sqrt(3) is reproducible bit-for-bit from the counts:
    two paths of equal cost always have equal counts (1, sqrt(2), sqrt(3) are
    rationally independent), which is what makes "deviation exactly 0.00"
    testable with == instead of a tolerance.
    """

    cells: Tuple[Cell, ...]
    step_counts: Tuple[int, int, int]

    @classmethod
    def from_cells(cls, cells: Iterable[Sequence[int]]) -> "Path":
        cells = tuple(tuple(int(c) for c in cell) for cell in cells)
        if not cells:
            raise DomainError("a path needs at least one cell")
        counts = [0, 0, 0]
        for a, b in zip(cells, cells[1:]):
            changed = sum(1 for x, y in zip(a, b) if x != y)
            if changed == 0 or changed > len(a) or any(abs(x - y) > 1 for x, y in zip(a, b)):
                raise InvalidPathError(f"cells {a} -> {b} are not one move apart")
            counts[changed - 1] += 1
        return cls(cells, (counts[0], counts[1], counts[2]))

    @property
    def cost(self) -> float:
        n1, n2, n3 = self.step_counts
        return n1 + n2 * SQRT2 + n3 * SQRT3

    @property
    def cell_count(self) -> int:
        return len(self.cells)


def validate_path(
    grid: GridMap,
    cells: Sequence[Sequence[int]],
    model: MoveModel,
    start: Optional[Sequence[int]] = None,
    goal: Optional[Sequence[int]] = None,
) -> None:
    """Reject any walk violating adjacency, obstacle-freedom, or endpoints.

    Raises InvalidPathError with the first violation found. Every planner's
    successful output must pass this check.
    """
    if not cells:
        raise InvalidPathError("empty path")
    cells = [tuple(int(c) for c in cell) for cell in cells]
    occ = grid.occupancy
    moves = set(model.moves(grid.dims))
    for cell in cells:
        if not grid.in_bounds(cell):
            raise InvalidPathError(f"cell {cell} out of bounds")
        if occ[cell]:
            raise InvalidPathError(f"cell {cell} is an obstacle")
    for a, b in zip(cells, cells[1:]):
        move = tuple(y - x for x, y in zip(a, b))
        if move not in moves:
            raise InvalidPathError(f"cells {a} -> {b} are not adjacent under the model")
        for sh in _shoulder_vectors(move):
            shoulder = tuple(x + d for x, d in zip(a, sh))
            if occ[shoulder]:
                raise InvalidPathError(f"move {a} -> {b} cuts corner at blocked {shoulder}")
    if start is not None and cells[0] != tuple(start):
        raise InvalidPathError(f"path starts at {cells[0]}, expected {tuple(start)}")
    if goal is not None and cells[-1] != tuple(goal):
        raise InvalidPathError(f"path ends at {cells[-1]}, expected {tuple(goal)}")


def _row_major_strides(shape: Sequence[int]) -> np.ndarray:
    """Flat-index step of each axis of a C-ordered array of this shape."""
    return np.array([math.prod(shape[axis + 1:]) for axis in range(len(shape))], dtype=np.int64)


def _padded_strides(extent: Sequence[int]) -> np.ndarray:
    """The strides of ``extent`` embedded in a one-cell border, FlatGrid's layout."""
    return _row_major_strides(tuple(s + 2 for s in extent))


def _decode(idx: np.ndarray, strides: Tuple[int, ...]) -> Iterator[Cell]:
    """The cell of every padded flat index in an integer array, in order:
    the one decoding rule of FlatGrid and FlatCellSet.

    Converts 1024 indices at a time, so the per-axis lists stay small
    next to the tuples the caller keeps.
    """
    for lo in range(0, idx.size, 1024):
        rest = idx[lo:lo + 1024]
        axes = []
        for s in strides:
            row, rest = np.divmod(rest, s)
            axes.append((row - 1).tolist())
        yield from zip(*axes)


class FlatCellSet(AbstractSet):
    """A read-only set of cells held as padded flat indices.

    It keeps a sorted array of distinct indices (8 bytes a cell) and the
    padded strides, never the FlatGrid, so an outcome that keeps it does not
    keep the legality tables. ``len`` and ``in`` read the array; iterating,
    and comparing with another set, decode cells on demand with ``_decode``.
    Cells are tuples of ints; set operations such as ``&`` return a built-in
    set.
    """

    __slots__ = ("_idx", "_strides")

    def __init__(self, idx: np.ndarray, strides: Tuple[int, ...]):
        idx = np.sort(np.asarray(idx, dtype=np.int64))  # a copy, so no caller's array is kept
        distinct = np.ones(idx.size, dtype=bool)
        distinct[1:] = idx[1:] != idx[:-1]
        self._idx = idx[distinct]
        self._idx.setflags(write=False)
        self._strides = tuple(strides)

    @classmethod
    def from_coords(cls, coords: np.ndarray, extent: Sequence[int]) -> "FlatCellSet":
        """The set of the cells in the rows of an (N, dims) int array."""
        strides = _padded_strides(extent)
        return cls((coords + 1) @ strides, tuple(strides.tolist()))

    @classmethod
    def _from_iterable(cls, cells):
        return set(cells)

    def __len__(self) -> int:
        return self._idx.size

    def __iter__(self) -> Iterator[Cell]:
        return _decode(self._idx, self._strides)

    def __contains__(self, cell) -> bool:
        strides = self._strides
        if not isinstance(cell, tuple) or len(cell) != len(strides):
            return False
        # A coordinate past its axis's end would alias a cell of the next row.
        # Axis 0 needs no upper check: past its end lie only the lower border
        # and beyond, which hold no cell of the set.
        limits = (math.inf,) + tuple(a // b - 2 for a, b in zip(strides, strides[1:]))
        if not all(0 <= c < limit for c, limit in zip(cell, limits)):
            return False
        idx = sum((c + 1) * s for c, s in zip(cell, strides))
        at = int(np.searchsorted(self._idx, idx))
        return at < self._idx.size and self._idx[at] == idx


class FlatGrid:
    """Planner-facing view of a map: one move-legality table per move.

    The occupancy field is embedded in a one-cell obstacle border and
    flattened row-major, so a cell is a flat index and a move adds a fixed
    delta; no planner bounds-checks. ``table`` is one (moves x padded cells)
    uint8 array: ``table[k, idx]`` is 1 when move k from flat index idx lands
    on a free cell and cuts no corner (its target and every shoulder are
    free), 0 otherwise -- the corner-cutting rule of neighbors() and
    validate_path(). ``moves`` holds one entry ``(delta, legal, cost, vec)``
    per move vector, in the same lexicographic order as neighbors() and as
    the table's rows, where ``legal`` is a memoryview of the move's row, so
    ``legal[idx]`` is one int lookup; ``step`` maps each vector to its entry.
    The table takes one byte per padded cell and move, 26 bytes per cell in
    3D under Full connectivity.
    """

    __slots__ = (
        "grid", "model", "size", "table", "moves", "step", "strides", "agent", "goal", "dims"
    )

    def __init__(self, grid: GridMap, model: MoveModel):
        self.grid = grid
        self.model = model
        self.dims = grid.dims
        padded = np.ones(tuple(s + 2 for s in grid.extent), dtype=bool)
        padded[tuple(slice(1, -1) for _ in range(grid.dims))] = grid.occupancy
        self.size = padded.size

        strides = _padded_strides(grid.extent)
        self.strides = tuple(strides.tolist())

        # free[idx + d] for every flat index idx and move delta d, as views into
        # the free mask with reach obstacle entries on either side; every
        # shoulder of a move is itself a move of the model
        vecs = model.moves(grid.dims)
        deltas = (np.array(vecs) @ strides).tolist()
        reach = sum(self.strides)
        free = np.zeros(padded.size + 2 * reach, dtype=bool)
        free[reach:-reach] = ~padded.reshape(-1)
        free_at = {vec: free[reach + d:reach + d + padded.size] for vec, d in zip(vecs, deltas)}
        n = padded.size
        self.table = np.empty((len(vecs), n), dtype=np.uint8)
        for row, vec in zip(self.table.view(bool), vecs):
            row[:] = free_at[vec]
            for sh in _shoulder_vectors(vec):
                row &= free_at[sh]
        rows = memoryview(self.table.reshape(-1))
        self.moves = tuple(
            (d, rows[k * n:(k + 1) * n], _STEP_COST[sum(1 for c in vec if c != 0)], vec)
            for k, (vec, d) in enumerate(zip(vecs, deltas))
        )
        self.step = {entry[3]: entry for entry in self.moves}
        self.agent = self.to_flat(grid.agent) if grid.agent is not None else None
        self.goal = self.to_flat(grid.goal) if grid.goal is not None else None

    def to_flat(self, cell: Sequence[int]) -> int:
        return sum((c + 1) * s for c, s in zip(cell, self.strides))

    def to_cell(self, idx: int) -> Cell:
        out = []
        for s in self.strides:
            out.append(idx // s - 1)
            idx %= s
        return tuple(out)

    def to_cells(self, idx: np.ndarray) -> Iterator[Cell]:
        """to_cell of every flat index in an integer array, in order."""
        return _decode(idx, self.strides)
