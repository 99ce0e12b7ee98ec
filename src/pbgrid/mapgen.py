"""Procedural map generation: uniform random fill, block, and house maps.

All generators are pure functions of (config, rng). `generate(config)` seeds
a fresh PCG64 stream from config.seed, so an identical config yields a
byte-identical map. Generators leave agent/goal unset; `place_agent_goal`
draws them uniformly from the free cells without enforcing solvability
(unsolvable instances are counted as planner failures downstream).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import ndimage

from pbgrid.grid import GridMap, MapError

_BLOCK_RETRY_CAP = 100


class ConfigError(ValueError):
    """Invalid generation parameters."""


class MapType(enum.Enum):
    UNIFORM_RANDOM_FILL = "uniform"
    BLOCK = "block"
    HOUSE = "house"


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters; defaults follow the published ranges."""

    map_type: MapType = MapType.UNIFORM_RANDOM_FILL
    extent: Tuple[int, ...] = (64, 64)
    fill_rate_range: Tuple[float, float] = (0.1, 0.3)
    obstacle_count_range: Tuple[int, int] = (1, 6)      # block maps only
    min_room_range: Tuple[int, int] = (8, 15)           # house maps only
    max_room_range: Tuple[int, int] = (35, 45)          # house maps only
    seed: int = 0

    def __post_init__(self):
        if len(self.extent) not in (2, 3):
            raise ConfigError(f"extent must be 2D or 3D, got {self.extent}")
        if any(int(e) <= 0 for e in self.extent):
            raise ConfigError(f"zero or negative extent: {self.extent}")
        lo, hi = self.fill_rate_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(f"fill_rate_range must satisfy 0 <= lo <= hi <= 1: {self.fill_rate_range}")
        for name in ("obstacle_count_range", "min_room_range", "max_room_range"):
            a, b = getattr(self, name)
            if a > b:
                raise ConfigError(f"{name} lo > hi: {(a, b)}")
            if name != "obstacle_count_range" and a <= 0:
                raise ConfigError(f"{name} must be positive: {(a, b)}")
        if self.obstacle_count_range[0] < 0:
            raise ConfigError(f"obstacle_count_range must be non-negative: {self.obstacle_count_range}")

    @property
    def dims(self) -> int:
        return len(self.extent)


def generate(config: GenConfig) -> GridMap:
    """Generate a map of config.map_type from a PCG64 stream seeded by config.seed."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if config.map_type is MapType.UNIFORM_RANDOM_FILL:
        return gen_uniform_random_fill(config, rng)
    if config.map_type is MapType.BLOCK:
        return gen_block_map(config, rng)
    return gen_house_map(config, rng)


def gen_uniform_random_fill(config: GenConfig, rng: np.random.Generator) -> GridMap:
    """Draw a fill rate f from the range, then mark each cell obstacle with probability f."""
    f = rng.uniform(*config.fill_rate_range)
    occupancy = rng.random(config.extent) < f
    return GridMap(occupancy)


def gen_block_map(config: GenConfig, rng: np.random.Generator) -> GridMap:
    """Union of k solid axis-aligned rectangles (boxes in 3D), k from obstacle_count_range.

    Sizes are drawn so the union fraction lands in fill_rate_range; since
    rectangles may overlap and sizes are clamped to the map, placement is
    rejection-resampled up to a cap, then reported as a config error.
    """
    k = int(rng.integers(config.obstacle_count_range[0], config.obstacle_count_range[1] + 1))
    extent = tuple(int(e) for e in config.extent)
    if k == 0:
        return GridMap(np.zeros(extent, dtype=bool))
    lo, hi = config.fill_rate_range
    f = rng.uniform(lo, hi)
    total = 1
    for e in extent:
        total *= e
    per_rect = f * total / k

    for _ in range(_BLOCK_RETRY_CAP):
        occ = np.zeros(extent, dtype=bool)
        for _ in range(k):
            sizes = []
            remaining = per_rect
            for axis, e in enumerate(extent):
                if axis == len(extent) - 1:
                    s = max(1, min(e, round(remaining)))
                else:
                    cap = max(1, min(e, round(remaining)))
                    s = int(rng.integers(1, cap + 1))
                    remaining = remaining / s
                sizes.append(int(s))
            corner = [int(rng.integers(0, e - s + 1)) for e, s in zip(extent, sizes)]
            region = tuple(slice(c, c + s) for c, s in zip(corner, sizes))
            occ[region] = True
        frac = occ.mean()
        if lo <= frac <= hi:
            return GridMap(occ)
    raise ConfigError(
        f"block map: could not reach fill range {config.fill_rate_range} "
        f"with {k} blocks in {_BLOCK_RETRY_CAP} attempts"
    )


def _partition_rooms(bounds, min_room: int, max_room: int, rng: np.random.Generator):
    """Recursive binary partition of an interior region.

    bounds: per-axis (lo, hi) inclusive cell ranges. Splits the longest axis
    while it exceeds max_room and both halves can hold min_room; returns
    (walls, rooms) where a wall is (axis, position, bounds-of-region) and a
    room is its final bounds. Rooms never get a side below min_room; a side
    above max_room survives only when too short to split (needs
    2*min_room + 1 cells).
    """
    walls = []
    rooms = []

    def split(b):
        sides = [hi - lo + 1 for lo, hi in b]
        axis = max(range(len(sides)), key=lambda i: sides[i])
        lo, hi = b[axis]
        if sides[axis] <= max_room or sides[axis] < 2 * min_room + 1:
            rooms.append(tuple(b))
            return
        p = int(rng.integers(lo + min_room, hi - min_room + 1))
        walls.append((axis, p, tuple(b)))
        left = list(b)
        left[axis] = (lo, p - 1)
        right = list(b)
        right[axis] = (p + 1, hi)
        split(left)
        split(right)

    split(list(bounds))
    return walls, rooms


def gen_house_map(config: GenConfig, rng: np.random.Generator) -> GridMap:
    """Walled boundary, recursive binary partition into rooms, >= 1 door per wall.

    min/max room sides are drawn once per map from their ranges. Doors are
    carved after all walls are placed, one per wall, at a cell whose two
    across-wall neighbors are free. A final repair pass guarantees full
    free-cell connectivity even in degenerate configurations.
    """
    min_room = int(rng.integers(config.min_room_range[0], config.min_room_range[1] + 1))
    max_room = int(rng.integers(config.max_room_range[0], config.max_room_range[1] + 1))
    extent = tuple(int(e) for e in config.extent)
    if any(e < min_room + 2 for e in extent):
        raise ConfigError(
            f"extent {extent} cannot host one {min_room}-cell room inside boundary walls"
        )

    occ = np.zeros(extent, dtype=bool)
    for axis in range(len(extent)):
        edge = [slice(None)] * len(extent)
        edge[axis] = 0
        occ[tuple(edge)] = True
        edge[axis] = extent[axis] - 1
        occ[tuple(edge)] = True

    interior = tuple((1, e - 2) for e in extent)
    walls, _rooms = _partition_rooms(interior, min_room, max_room, rng)

    for axis, p, bounds in walls:
        region = [slice(lo, hi + 1) for lo, hi in bounds]
        region[axis] = p
        occ[tuple(region)] = True

    # Doors: one per wall, where both across-wall cells are free (skips cells
    # abutting perpendicular walls).
    for axis, p, bounds in walls:
        spans = [range(lo, hi + 1) for lo, hi in bounds]
        spans[axis] = range(p, p + 1)
        candidates = []
        for cell in np.ndindex(*[len(s) for s in spans]):
            c = tuple(s[i] for s, i in zip(spans, cell))
            before = c[:axis] + (p - 1,) + c[axis + 1:]
            after = c[:axis] + (p + 1,) + c[axis + 1:]
            if not occ[before] and not occ[after]:
                candidates.append(c)
        if candidates:
            door = candidates[int(rng.integers(0, len(candidates)))]
            occ[door] = False

    _repair_connectivity(occ)
    return GridMap(occ)


def _repair_connectivity(occ: np.ndarray) -> None:
    """Open extra wall cells until the free space is one orthogonal component."""
    while True:
        labels, count = ndimage.label(~occ)
        if count <= 1:
            return
        opened = False
        it = np.ndindex(occ.shape)
        for cell in it:
            if not occ[cell]:
                continue
            if any(c in (0, s - 1) for c, s in zip(cell, occ.shape)):
                continue  # never breach the outer boundary
            seen = set()
            for axis in range(occ.ndim):
                for d in (-1, 1):
                    n = cell[:axis] + (cell[axis] + d,) + cell[axis + 1:]
                    lab = labels[n]
                    if lab > 0:
                        seen.add(lab)
            if len(seen) >= 2:
                occ[cell] = False
                opened = True
                break
        if not opened:
            return  # isolated pockets with no single-cell bridge; nothing more to do


def place_agent_goal(grid: GridMap, rng: np.random.Generator) -> GridMap:
    """Set agent and goal to two distinct uniformly drawn free cells.

    Connectivity between them is deliberately not checked.
    """
    free = grid.free_cells()
    if len(free) < 2:
        raise MapError(f"need >= 2 free cells to place agent and goal, have {len(free)}")
    picks = rng.choice(len(free), size=2, replace=False)
    agent = tuple(int(c) for c in free[picks[0]])
    goal = tuple(int(c) for c in free[picks[1]])
    return grid.with_endpoints(agent, goal)
