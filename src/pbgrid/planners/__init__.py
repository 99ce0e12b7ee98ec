"""Planner implementations and the by-name registry.

Every planner is registered under a canonical name (``astar``, ``d-rrt``,
``bug2``, ...) together with the set of parameters it accepts, so the
benchmark harness and the command line can construct runs uniformly:
``resolve_planner(name).run(grid, model, seed, overrides)``.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from pbgrid.grid import GridMap, MoveModel
from pbgrid.mapgen import ConfigError
from pbgrid.planners.base import PlanOutcome, SearchTrace
from pbgrid.planners.graph import astar, dijkstra, dump_trace, wavefront
from pbgrid.planners.local import PotentialParams, bug1, bug2, check_step_limit, potential_field
from pbgrid.planners.sampling import (
    SamplerParams,
    d_rrt,
    d_rrt_connect,
    d_rrt_star,
    d_rt,
    d_sprm,
    discrete_line,
    dump_tree,
    grid_steer,
)

__all__ = [
    "PlanOutcome",
    "SearchTrace",
    "PlannerEntry",
    "available_planners",
    "resolve_planner",
    "astar",
    "dijkstra",
    "wavefront",
    "dump_trace",
    "dump_tree",
    "discrete_line",
    "grid_steer",
    "SamplerParams",
    "PotentialParams",
    "d_rrt",
    "d_rt",
    "d_rrt_connect",
    "d_rrt_star",
    "d_sprm",
    "bug1",
    "bug2",
    "potential_field",
]

# Convenience spellings accepted on the command line.
_NAME_ALIASES = {
    "rrt": "d-rrt",
    "rt": "d-rt",
    "rrt-connect": "d-rrt-connect",
    "rrt-star": "d-rrt-star",
    "sprm": "d-sprm",
    "pf": "potential-field",
}

_PARAM_ALIASES = {"step": "step_cells"}


@dataclass(frozen=True)
class PlannerEntry:
    """One registry row: canonical name, family, the accepted knobs, the
    builder of the planner's parameter object and the planner call."""

    name: str
    kind: str                       # "graph" | "sampling" | "local"
    params: Mapping[str, type]      # override key -> value type (for coercion)
    _settings: Callable[[int, Dict[str, object]], object]  # (seed, overrides) -> parameters
    _call: Callable[[GridMap, MoveModel, object, bool], PlanOutcome]

    def run(
        self,
        grid: GridMap,
        model: MoveModel,
        seed: int = 0,
        overrides: Optional[Mapping[str, object]] = None,
        record_steps: bool = False,
    ) -> PlanOutcome:
        """Run the planner. Its time is the planner function's whole call,
        not the parameter handling here. ``record_steps`` asks a graph
        planner for the expansion log that ``dump_trace`` writes; the local
        planners always log their walk and the samplers their tree."""
        return self._call(grid, model, self.settings(overrides, seed), record_steps)

    def settings(self, overrides: Optional[Mapping[str, object]] = None, seed: int = 0) -> object:
        """The parameter object every run with ``overrides`` builds;
        ConfigError for a key this planner does not accept or a bad value,
        so a caller can check the values before any run."""
        cleaned = {self.param_key(key): value for key, value in dict(overrides or {}).items()}
        return self._settings(seed, cleaned)

    def param_key(self, key: str) -> str:
        """The canonical name of override ``key`` (``step`` is ``step_cells``);
        ConfigError when this planner does not accept it."""
        key = _PARAM_ALIASES.get(key, key)
        if key not in self.params:
            allowed = ", ".join(sorted(self.params)) or "none"
            raise ConfigError(
                f"planner {self.name!r} does not accept parameter {key!r}"
                f" (accepted: {allowed})"
            )
        return key


def _no_settings(seed, overrides):
    return None


def _graph_call(fn):
    def call(grid, model, settings, record_steps):
        return fn(grid, model, record_steps=record_steps)

    return call


def _sampling_settings(seed, overrides) -> SamplerParams:
    try:
        return SamplerParams(seed=seed, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bug_settings(seed, overrides) -> Tuple[Optional[int], bool]:
    step_limit = overrides.get("step_limit")
    check_step_limit(step_limit)
    return step_limit, bool(overrides.get("follow_left", True))


def _bug_call(fn):
    def call(grid, model, settings, record_steps):
        step_limit, follow_left = settings
        return fn(grid, model, step_limit, follow_left=follow_left)

    return call


def _potential_settings(seed, overrides) -> PotentialParams:
    try:
        return PotentialParams(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _params_call(fn):
    """A planner that takes its parameter object as the third argument."""
    def call(grid, model, params, record_steps):
        return fn(grid, model, params)

    return call


_RRT_PARAMS = {"max_samples": int, "step_cells": int, "goal_bias": float}
_BUG_PARAMS = {"step_limit": int, "follow_left": bool}

_REGISTRY: Dict[str, PlannerEntry] = {
    entry.name: entry
    for entry in (
        PlannerEntry("astar", "graph", {}, _no_settings, _graph_call(astar)),
        PlannerEntry("dijkstra", "graph", {}, _no_settings, _graph_call(dijkstra)),
        PlannerEntry("wavefront", "graph", {}, _no_settings, _graph_call(wavefront)),
        PlannerEntry(
            "d-rrt", "sampling", dict(_RRT_PARAMS), _sampling_settings, _params_call(d_rrt)
        ),
        PlannerEntry(
            "d-rt", "sampling", dict(_RRT_PARAMS), _sampling_settings, _params_call(d_rt)
        ),
        PlannerEntry(
            "d-rrt-connect",
            "sampling",
            {"max_samples": int, "step_cells": int},
            _sampling_settings,
            _params_call(d_rrt_connect),
        ),
        PlannerEntry(
            "d-rrt-star",
            "sampling",
            dict(_RRT_PARAMS, rewire_radius=float),
            _sampling_settings,
            _params_call(d_rrt_star),
        ),
        PlannerEntry(
            "d-sprm",
            "sampling",
            {"prm_nodes": int, "prm_radius": float},
            _sampling_settings,
            _params_call(d_sprm),
        ),
        PlannerEntry("bug1", "local", dict(_BUG_PARAMS), _bug_settings, _bug_call(bug1)),
        PlannerEntry("bug2", "local", dict(_BUG_PARAMS), _bug_settings, _bug_call(bug2)),
        PlannerEntry(
            "potential-field",
            "local",
            {
                "k_att": float,
                "k_rep": float,
                "influence_radius_cells": float,
                "step_limit": int,
            },
            _potential_settings,
            _params_call(potential_field),
        ),
    )
}


def available_planners() -> Tuple[str, ...]:
    """Canonical planner names, in registry order."""
    return tuple(_REGISTRY)


def resolve_planner(name: str) -> PlannerEntry:
    """Look up a planner by canonical name or alias.

    Matching is case-insensitive and treats ``_`` like ``-``.  Raises
    KeyError naming the available planners when nothing matches.
    """
    key = name.strip().lower().replace("_", "-")
    key = _NAME_ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown planner {name!r}; available: {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[key]
