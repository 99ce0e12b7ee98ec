"""Planners that act on local information only.

The Bug pair walks straight at the goal and slides along obstacle
boundaries on contact; the potential-field planner descends an
artificial energy surface built from the goal distance and an obstacle
repulsion term. None of them see the whole map at once, which keeps
their memory footprint tiny and their paths long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..grid import (
    Cell,
    Connectivity,
    DomainError,
    FlatGrid,
    GridMap,
    MoveModel,
    distance_transform,
    euclidean_distance,
)
from ..mapgen import ConfigError
from .base import (
    DICT_ENTRY_BYTES,
    LOCAL_MINIMUM,
    SET_ENTRY_BYTES,
    STEP_LIMIT,
    UNREACHABLE,
    WAVE_CELL_BYTES,
    PlanOutcome,
    SearchTrace,
    build_outcome,
    timed_run,
    trivial_outcome,
)
from .sampling import discrete_line

_PROGRESS_EPS = 1e-12

# Traversal log annotations: second float is distance-to-goal (bugs) or
# potential (field descent), third marks the movement mode.
MOTION_TO_GOAL = 0.0
BOUNDARY_FOLLOW = 1.0


def _heading_ring(model: MoveModel) -> Tuple[Tuple[Cell, ...], Dict[Cell, int]]:
    """Model moves ordered counterclockwise starting east, i.e. (0, 1)."""

    def angle(d: Cell) -> float:
        a = math.atan2(-d[0], d[1])
        return a if a >= 0.0 else a + 2.0 * math.pi

    ring = tuple(sorted(model.moves(2), key=angle))
    return ring, {d: i for i, d in enumerate(ring)}


def _step_ok(fg: FlatGrid, pos: Cell, delta: Cell) -> bool:
    return fg.step[delta][1][fg.to_flat(pos)] == 1


def check_step_limit(step_limit: Optional[int]) -> None:
    """Reject a bug walk's step limit unless it is positive; None stands for
    ten times the map's free cells."""
    if step_limit is not None and step_limit <= 0:
        raise ConfigError("step_limit must be positive")


def _walk_outcome(
    grid: GridMap,
    log: List[Tuple[Cell, float, float]],
    failure: Optional[str],
    pos: Cell,
    extra_bytes: int,
) -> PlanOutcome:
    trace = SearchTrace(explored={c for c, _, _ in log}, frontier_peak=0, step_log=log)
    memory = len(log) * WAVE_CELL_BYTES + extra_bytes
    cells = None if failure is not None else [c for c, _, _ in log]
    return build_outcome(grid, cells, trace, memory, failure, stop=pos)


class _BugWalk:
    """What bug1 and bug2 share: the checks, the step limit, the walk log,
    straight-line pursuit and wall-following moves.

    Built first inside the planner's ``timed_run`` frame; ``start`` sets up
    the walk itself and is not called for a trivial run.
    """

    def __init__(self, grid: GridMap, step_limit: Optional[int]):
        if grid.dims != 2:
            raise DomainError("boundary following is only defined on 2-d maps")
        check_step_limit(step_limit)
        self.grid = grid
        self.limit = 10 * grid.free_count if step_limit is None else step_limit

    def start(self, model: MoveModel, follow_left: bool) -> None:
        self.fg = FlatGrid(self.grid, model)
        self.ring, self.ring_index = _heading_ring(model)
        self.quarter = len(self.ring) // 4
        self.follow_left = follow_left
        self.orthogonal = model.connectivity is Connectivity.ORTHOGONAL
        self.goal = self.grid.goal
        self.pos = self.grid.agent
        self.log: List[Tuple[Cell, float, float]] = [
            (self.pos, euclidean_distance(self.pos, self.goal), MOTION_TO_GOAL)
        ]
        self.steps = 0
        self.failure: Optional[str] = None

    @property
    def over(self) -> bool:
        """The walk reached the goal or failed."""
        return self.pos == self.goal or self.failure is not None

    def step(self, cell: Cell, mode: float) -> float:
        """Move to ``cell`` and log it; returns its distance to the goal.
        The step that uses up the limit short of the goal fails the walk."""
        self.pos = cell
        self.steps += 1
        d = euclidean_distance(cell, self.goal)
        self.log.append((cell, d, mode))
        if cell != self.goal and self.steps >= self.limit:
            self.failure = STEP_LIMIT
        return d

    def pursue(self, line: Sequence[Cell], i: int) -> Tuple[int, int]:
        """Walk ``line`` on from its ``i``-th cell until a move is blocked or
        the walk is over. Returns the index reached and the heading that
        starts wall following, which means nothing once the walk is over."""
        while i + 1 < len(line) and self.failure is None:  # the line ends on the goal
            move = tuple(b - a for a, b in zip(line[i], line[i + 1]))
            if not _step_ok(self.fg, line[i], move):
                blocked = self.ring_index[move]
                turn = -self.quarter if self.follow_left else self.quarter
                return i, (blocked + turn) % len(self.ring)
            i += 1
            self.step(line[i], MOTION_TO_GOAL)
        return i, 0

    def slide(self, heading: int) -> Tuple[float, int]:
        """One wall-following move: prefer the sharpest turn toward the wall
        side, falling back through progressively straighter options. Returns
        the new cell's goal distance and heading; with nowhere to move the
        walk fails as unreachable."""
        n = len(self.ring)
        for k in range(n):
            if self.follow_left:
                cand = (heading + self.quarter - k) % n
            else:
                cand = (heading - self.quarter + k) % n
            delta = self.ring[cand]
            if _step_ok(self.fg, self.pos, delta):
                cell = tuple(p + d for p, d in zip(self.pos, delta))
                return self.step(cell, BOUNDARY_FOLLOW), cand
        self.failure = UNREACHABLE
        return math.inf, heading

    def outcome(self, extra_bytes: int) -> PlanOutcome:
        return _walk_outcome(self.grid, self.log, self.failure, self.pos, extra_bytes)


@timed_run
def bug1(
    grid: GridMap,
    model: MoveModel = MoveModel(),
    step_limit: Optional[int] = None,
    *,
    follow_left: bool = True,
) -> PlanOutcome:
    """Head for the goal; on contact circle the whole obstacle, then
    come back to the boundary cell closest to the goal and carry on.

    Fails as unreachable when a full circuit finds no boundary cell
    closer to the goal than the contact point.
    """
    walk = _BugWalk(grid, step_limit)
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)
    walk.start(model, follow_left)
    peak_states = 0

    while not walk.over:
        # Straight-line pursuit until something blocks the next cell.
        line = discrete_line(walk.pos, walk.goal, orthogonal=walk.orthogonal)
        _, heading = walk.pursue(line, 0)
        if walk.over:
            break

        # Full circumnavigation, remembering the closest boundary cell.
        d_hit = euclidean_distance(walk.pos, walk.goal)
        episode = [walk.pos]
        best_idx, best_d = 0, d_hit
        seen: Set[Tuple[Cell, int]] = {(walk.pos, heading)}
        while True:
            d, heading = walk.slide(heading)
            if walk.over:
                break
            episode.append(walk.pos)
            if d < best_d - _PROGRESS_EPS:
                best_idx, best_d = len(episode) - 1, d
            if (walk.pos, heading) in seen:
                break  # circuit closed
            seen.add((walk.pos, heading))
        peak_states = max(peak_states, len(seen))
        if walk.over:
            break

        # Retrace our own steps back to the remembered closest cell.
        for j in range(len(episode) - 2, best_idx - 1, -1):
            walk.step(episode[j], BOUNDARY_FOLLOW)
            if walk.over:
                break
        if not walk.over and best_d >= d_hit - _PROGRESS_EPS:
            walk.failure = UNREACHABLE  # circled the obstacle without progress

    return walk.outcome(peak_states * SET_ENTRY_BYTES)


@timed_run
def bug2(
    grid: GridMap,
    model: MoveModel = MoveModel(),
    step_limit: Optional[int] = None,
    *,
    follow_left: bool = True,
) -> PlanOutcome:
    """Like bug1 but commits to the original start-goal line: boundary
    following ends at the first cell of that line strictly closer to
    the goal than the contact point.

    Fails as unreachable when boundary following returns to the contact
    point before finding such a cell.
    """
    walk = _BugWalk(grid, step_limit)
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)
    walk.start(model, follow_left)
    line = discrete_line(walk.pos, walk.goal, orthogonal=walk.orthogonal)
    index_of = {c: i for i, c in enumerate(line)}
    i = 0

    while not walk.over:
        i, heading = walk.pursue(line, i)
        if walk.over:
            break
        hit = walk.pos
        d_hit = euclidean_distance(hit, walk.goal)
        while True:
            d, heading = walk.slide(heading)
            if walk.over:
                break
            j = index_of.get(walk.pos)
            if j is not None and d < d_hit - _PROGRESS_EPS:
                i = j  # leave event: strictly closer cell on the line
                break
            if walk.pos == hit:
                walk.failure = UNREACHABLE  # came all the way around
                break
        # loop back into line pursuit from index i

    return walk.outcome(len(line) * DICT_ENTRY_BYTES)


@dataclass(frozen=True)
class PotentialParams:
    """Tuning for the artificial-potential descent.

    ``k_att`` defaults to 1/max(extent)^2 so the attractive term stays
    near unit scale regardless of map size.
    """

    k_att: Optional[float] = None
    k_rep: float = 100.0
    influence_radius_cells: float = 5.0
    step_limit: Optional[int] = None

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if self.k_att is not None and not self.k_att > 0:
            raise ValueError("k_att must be positive")
        if not self.k_rep >= 0:
            raise ValueError("k_rep must be non-negative")
        if not self.influence_radius_cells > 0:
            raise ValueError("influence_radius_cells must be positive")
        if self.step_limit is not None and self.step_limit <= 0:
            raise ValueError("step_limit must be positive")


@timed_run
def potential_field(
    grid: GridMap,
    model: MoveModel = MoveModel(),
    params: Optional[PotentialParams] = None,
) -> PlanOutcome:
    """Greedy descent of U(c) = k_att*|c-goal|^2 plus a repulsion term
    (1/d - 1/R)^2 inside radius R of the nearest obstacle.

    Moves to the neighbor with the lowest potential as long as that is
    strictly below the current one; otherwise reports a local minimum.
    """
    p = params if params is not None else PotentialParams()
    limit = 10 * grid.free_count if p.step_limit is None else p.step_limit
    if grid.agent == grid.goal:
        return trivial_outcome(grid, True)

    field = distance_transform(grid)
    goal = grid.goal
    k_att = p.k_att if p.k_att is not None else 1.0 / max(grid.extent) ** 2
    k_rep = p.k_rep
    radius = p.influence_radius_cells

    def energy(cell: Cell) -> float:
        u = k_att * float(sum((a - b) ** 2 for a, b in zip(cell, goal)))
        if not field.unbounded:
            d = float(field.values[cell])
            if d < radius:
                u += k_rep * (1.0 / d - 1.0 / radius) ** 2
        return u

    fg = FlatGrid(grid, model)
    pos = grid.agent
    u_cur = energy(pos)
    log: List[Tuple[Cell, float, float]] = [(pos, u_cur, MOTION_TO_GOAL)]
    steps = 0
    failure: Optional[str] = None
    while pos != goal:
        best: Optional[Tuple[float, Cell]] = None
        idx = fg.to_flat(pos)
        for _, legal, _, vec in fg.moves:
            if not legal[idx]:
                continue
            nb = tuple(p + d for p, d in zip(pos, vec))
            u = energy(nb)
            if u < u_cur - _PROGRESS_EPS and (best is None or (u, nb) < best):
                best = (u, nb)
        if best is None:
            failure = LOCAL_MINIMUM
            break
        u_cur, pos = best
        steps += 1
        log.append((pos, u_cur, MOTION_TO_GOAL))
        if pos != goal and steps >= limit:
            failure = STEP_LIMIT
            break

    field_bytes = int(grid.occupancy.size) * 8
    return _walk_outcome(grid, log, failure, pos, field_bytes)
