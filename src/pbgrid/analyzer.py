"""Benchmark harness: seeded sweeps, aggregation, merging, and reports.

The flow is: a :class:`BenchmarkSpec` names planners and map sources;
``simple_analysis``/``complex_analysis`` materialize maps, draw seeded
agent/goal pairs, run every planner against an optimal baseline, and
return :class:`AggregateStats` holding one :class:`RunRecord` per run.
Stats can be saved to and reloaded from a json-lines result file
(schema ``pbr1``), merged across machines, and rendered as CSV,
json-lines, or a text table.

Every random choice is derived from the spec's master seed through
SHA-256, never from Python's salted ``hash()``, so a sweep is
reproducible across processes, machines, and worker counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path as FsPath
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union
from typing import get_args, get_type_hints

import numpy as np

from pbgrid.grid import DistanceField, GridMap, MoveModel, distance_transform
from pbgrid.mapgen import ConfigError, GenConfig, generate, place_agent_goal
from pbgrid.mapio import ParseError, load_native, parse_movingai
from pbgrid.metrics import MetricReport, compute_report
from pbgrid.planners import PlannerEntry, astar, resolve_planner
from pbgrid.planners.base import PlanOutcome, SearchTrace, build_outcome

RESULT_SCHEMA = "pbr1"

# Pinned report column order; everything after success_rate_pct is extended.
REPORT_COLUMNS = (
    "planner",
    "map_type",
    "path_dev_pct",
    "distance_left",
    "time_sec",
    "success_rate_pct",
    "path_length_cells",
    "path_cell_count",
    "search_space_pct",
    "peak_memory_mb",
    "obstacle_clearance_cells",
    "smoothness_deg",
    "hardware_tag",
    "runs",
)


# Which runs feed each aggregated metric; its keys are the metric names.
# Deviation and the path-shape metrics only exist on successes;
# distance_left is only meaningful on failures; the cost metrics exist on
# every run.
_METRIC_SOURCES = {
    "path_deviation_pct": "success",
    "path_length_cells": "success",
    "path_cell_count": "success",
    "obstacle_clearance_cells": "success",
    "smoothness_deg": "success",
    "distance_left_cells": "failure",
    "time_seconds": "all",
    "search_space_pct": "all",
    "peak_memory_mb": "all",
}

_COLUMN_TO_METRIC = {
    "path_dev_pct": "path_deviation_pct",
    "distance_left": "distance_left_cells",
    "time_sec": "time_seconds",
    "path_length_cells": "path_length_cells",
    "path_cell_count": "path_cell_count",
    "search_space_pct": "search_space_pct",
    "peak_memory_mb": "peak_memory_mb",
    "obstacle_clearance_cells": "obstacle_clearance_cells",
    "smoothness_deg": "smoothness_deg",
}


class VersionError(ValueError):
    """Result-file schema does not match what this code writes."""


def derive_seed(*parts: object) -> int:
    """Map an ordered tuple of identifiers to a stable 64-bit seed.

    The canonical form is the parts joined with ``:`` and hashed with
    SHA-256; the top eight digest bytes become the seed.  Python's
    built-in ``hash`` is salted per process and would break replay.
    """
    canon = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Benchmark configuration


@dataclass(frozen=True)
class GeneratedSource:
    """``count`` maps drawn from one generator configuration."""

    config: GenConfig
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"map count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class FileSource:
    """Maps loaded from disk; native and MovingAI files are both accepted."""

    paths: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(str(p) for p in self.paths))
        if not self.paths:
            raise ConfigError("FileSource needs at least one path")


MapSource = Union[GeneratedSource, FileSource]


@dataclass(frozen=True)
class PlannerConfig:
    """A planner selection plus optional parameter overrides."""

    name: str
    overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "overrides", dict(self.overrides))
        resolve_planner(self.name)  # fail fast on unknown names


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything a sweep needs; two specs with equal fields replay equally."""

    planners: Tuple[PlannerConfig, ...]
    map_sources: Tuple[MapSource, ...]
    runs_per_map: int = 50
    master_seed: int = 0
    parallelism: int = 1
    hardware_tag: str = "local"
    timing_repeats: int = 1
    model: MoveModel = MoveModel()

    def __post_init__(self):
        object.__setattr__(self, "planners", tuple(self.planners))
        object.__setattr__(self, "map_sources", tuple(self.map_sources))
        if not self.planners:
            raise ConfigError("at least one planner is required")
        if not self.map_sources:
            raise ConfigError("at least one map source is required")
        if self.runs_per_map < 1:
            raise ConfigError(f"runs_per_map must be >= 1, got {self.runs_per_map}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.timing_repeats < 1:
            raise ConfigError(
                f"timing_repeats must be >= 1, got {self.timing_repeats}"
            )


# ---------------------------------------------------------------------------
# Run records and aggregation


@dataclass(frozen=True)
class RunRecord(MetricReport):
    """One planner execution: its metric report plus the run's identity,
    flattened for the json-lines result file."""

    planner: str
    map_id: str
    map_type: str
    hardware_tag: str
    seed: int
    failure_reason: Optional[str]


_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord))


def _json_types(hint) -> FrozenSet[type]:
    """The JSON value types a result-row field annotated ``hint`` accepts:
    floats also take ints, and ``Optional`` adds null."""
    members = get_args(hint) or (hint,)
    return frozenset(t for m in members for t in ((int, float) if m is float else (m,)))


_RUN_TYPES = {name: _json_types(hint) for name, hint in get_type_hints(RunRecord).items()}


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (planner, map_type, hardware_tag) cell."""

    planner: str
    map_type: str
    hardware_tag: str
    runs: int
    successes: int
    samples: Mapping[str, Tuple[float, ...]]
    failure_reasons: Mapping[str, int]

    @property
    def success_rate_pct(self) -> float:
        return 100.0 * self.successes / self.runs

    def stats(self, metric: str) -> Optional[Tuple[float, float, float, float]]:
        """(mean, population std, min, max) for a metric, None if no samples."""
        values = self.samples.get(metric, ())
        if not values:
            return None
        arr = np.asarray(values, dtype=float)
        return (float(arr.mean()), float(arr.std()), float(arr.min()), float(arr.max()))

    def mean(self, metric: str) -> Optional[float]:
        st = self.stats(metric)
        return None if st is None else st[0]


@dataclass(frozen=True)
class AggregateStats:
    """All run records from a sweep (or a merge) plus sweep metadata."""

    runs: Tuple[RunRecord, ...]
    warnings: Tuple[str, ...] = ()
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        object.__setattr__(self, "meta", dict(self.meta))

    def cells(self) -> Dict[Tuple[str, str, str], CellStats]:
        """Per-(planner, map_type, hardware_tag) aggregation of the raw runs,
        made once and ordered by map type, then planner, then hardware tag:
        the one order of every report and plot."""
        return self._cells

    @cached_property
    def _cells(self) -> Dict[Tuple[str, str, str], CellStats]:
        grouped: Dict[Tuple[str, str, str], List[RunRecord]] = {}
        for run in self.runs:
            grouped.setdefault((run.planner, run.map_type, run.hardware_tag), []).append(run)
        out: Dict[Tuple[str, str, str], CellStats] = {}
        for key in sorted(grouped, key=lambda k: (k[1], k[0], k[2])):
            runs = grouped[key]
            samples: Dict[str, Tuple[float, ...]] = {}
            for metric, source in _METRIC_SOURCES.items():
                values = []
                for run in runs:
                    if source == "success" and not run.success:
                        continue
                    if source == "failure" and run.success:
                        continue
                    value = getattr(run, metric)
                    if value is not None:
                        values.append(float(value))
                samples[metric] = tuple(values)
            reasons: Dict[str, int] = {}
            for run in runs:
                if run.failure_reason is not None:
                    reasons[run.failure_reason] = reasons.get(run.failure_reason, 0) + 1
            out[key] = CellStats(
                planner=key[0],
                map_type=key[1],
                hardware_tag=key[2],
                runs=len(runs),
                successes=sum(1 for r in runs if r.success),
                samples=samples,
                failure_reasons=reasons,
            )
        return out

    def table_rows(self) -> List[Dict[str, object]]:
        """Report rows in pinned column order, sorted for stable output."""
        rows = []
        for cell in self.cells().values():
            row: Dict[str, object] = {
                "planner": cell.planner,
                "map_type": cell.map_type,
                "hardware_tag": cell.hardware_tag,
                "runs": cell.runs,
                "success_rate_pct": cell.success_rate_pct,
            }
            for column, metric in _COLUMN_TO_METRIC.items():
                row[column] = cell.mean(metric)
            rows.append({col: row[col] for col in REPORT_COLUMNS})
        return rows


# ---------------------------------------------------------------------------
# Sweep execution


@dataclass(frozen=True)
class _MapInstance:
    map_id: str
    map_type: str
    grid: GridMap


def _materialize_maps(spec: BenchmarkSpec) -> Tuple[List[_MapInstance], List[str]]:
    """Build the map list; unusable files are skipped with a warning."""
    instances: List[_MapInstance] = []
    warnings: List[str] = []
    for s_idx, source in enumerate(spec.map_sources):
        if isinstance(source, GeneratedSource):
            for m_idx in range(source.count):
                cfg = dataclasses.replace(
                    source.config,
                    seed=derive_seed(
                        spec.master_seed, "map", s_idx, source.config.seed, m_idx
                    ),
                )
                grid = generate(cfg)
                map_id = f"{cfg.map_type.value}-{s_idx}-{m_idx:04d}"
                if grid.free_count < 2:
                    warnings.append(f"skipped {map_id}: fewer than two free cells")
                    continue
                instances.append(_MapInstance(map_id, cfg.map_type.value, grid))
        elif isinstance(source, FileSource):
            for p_idx, path in enumerate(source.paths):
                try:
                    data = FsPath(path).read_bytes()
                except OSError as exc:
                    warnings.append(f"skipped {path}: {exc}")
                    continue
                try:
                    if data.startswith(b"pbgrid "):
                        grid = load_native(data)
                    else:
                        grid = parse_movingai(data)
                except ParseError as exc:
                    warnings.append(f"skipped {path}: {exc}")
                    continue
                if grid.free_count < 2:
                    warnings.append(f"skipped {path}: fewer than two free cells")
                    continue
                map_id = f"file-{s_idx}-{p_idx:04d}-{FsPath(path).stem}"
                instances.append(_MapInstance(map_id, "file", grid))
        else:
            raise ConfigError(f"unknown map source type: {type(source).__name__}")
    return instances, warnings


def score_run(
    entry: PlannerEntry,
    grid: GridMap,
    model: MoveModel,
    seed: int,
    overrides: Mapping[str, object],
    baseline: PlanOutcome,
    dist_field: DistanceField,
    repeats: int = 1,
    record_steps: bool = False,
) -> Tuple[PlanOutcome, MetricReport]:
    """Run one planner on a placed map and score it against the A*
    ``baseline``: the one scoring rule of a sweep unit and of ``pbgrid run``.

    An astar run with no overrides and no step log is the baseline itself.
    With ``repeats`` > 1 the planner runs that many times in all, and the
    report keeps the fastest time.
    """
    if entry.name == "astar" and not overrides and not record_steps:
        outcome = baseline
    else:
        outcome = entry.run(grid, model, seed, overrides, record_steps=record_steps)
    elapsed = outcome.elapsed_seconds
    for _ in range(repeats - 1):
        elapsed = min(elapsed, entry.run(grid, model, seed, overrides).elapsed_seconds)
    return outcome, compute_report(outcome, baseline, grid, dist_field, elapsed)


def _run_unit(
    spec: BenchmarkSpec,
    inst: _MapInstance,
    runs_per_map: int,
    entries: Sequence[Tuple[PlannerConfig, PlannerEntry]],
) -> List[RunRecord]:
    """Execute every planner once on each of one map's ``runs_per_map``
    endpoint draws, in draw order.

    The distance field depends only on the occupancy, so the map's draws
    share one, computed here and dropped with the unit.
    """
    dist_field = distance_transform(inst.grid)
    records: List[RunRecord] = []
    for run_idx in range(runs_per_map):
        rng = np.random.default_rng(
            derive_seed(spec.master_seed, "endpoints", inst.map_id, run_idx)
        )
        placed = place_agent_goal(inst.grid, rng)
        baseline = astar(placed, spec.model)
        for planner_cfg, entry in entries:
            seed = derive_seed(spec.master_seed, "run", inst.map_id, run_idx, entry.name)
            try:
                outcome, report = score_run(
                    entry, placed, spec.model, seed, planner_cfg.overrides,
                    baseline, dist_field, spec.timing_repeats,
                )
            except Exception as exc:  # crash wall: one bad run never aborts a sweep
                trace = SearchTrace(explored=set())
                outcome = build_outcome(placed, None, trace, 0, f"error:{type(exc).__name__}")
                report = compute_report(outcome, baseline, placed, dist_field)
            records.append(
                RunRecord(
                    planner=entry.name,
                    map_id=inst.map_id,
                    map_type=inst.map_type,
                    hardware_tag=spec.hardware_tag,
                    seed=seed,
                    failure_reason=outcome.failure_reason,
                    **vars(report),
                )
            )
    return records


def _analyze(spec: BenchmarkSpec, runs_per_map: int) -> AggregateStats:
    entries = [(cfg, resolve_planner(cfg.name)) for cfg in spec.planners]
    instances, warnings = _materialize_maps(spec)

    def work(inst):
        return _run_unit(spec, inst, runs_per_map, entries)

    if spec.parallelism == 1:
        unit_results = [work(inst) for inst in instances]
    else:
        # Results are collected in submission order, so worker count can
        # change scheduling but never the output; maps are immutable and
        # shared, per-map state lives inside the unit.
        with ThreadPoolExecutor(max_workers=spec.parallelism) as pool:
            unit_results = list(pool.map(work, instances))
    runs = [record for unit in unit_results for record in unit]
    meta = {
        "master_seed": spec.master_seed,
        "hardware_tag": spec.hardware_tag,
        "runs_per_map": runs_per_map,
        "map_count": len(instances),
        "planners": [entry.name for _, entry in entries],
    }
    return AggregateStats(runs=tuple(runs), warnings=tuple(warnings), meta=meta)


def simple_analysis(spec: BenchmarkSpec) -> AggregateStats:
    """One run per map with a fresh seeded agent/goal pair per map."""
    return _analyze(spec, 1)


def complex_analysis(spec: BenchmarkSpec) -> AggregateStats:
    """``runs_per_map`` seeded endpoint draws per map; x=1 matches simple."""
    return _analyze(spec, spec.runs_per_map)


# ---------------------------------------------------------------------------
# Result files (schema pbr1) and merging


def save_results(stats: AggregateStats, path: str) -> None:
    """Write a json-lines result file: header object, then one row per run."""
    lines = [
        json.dumps(
            {"schema": RESULT_SCHEMA, "warnings": list(stats.warnings), **stats.meta},
            sort_keys=True,
        )
    ]
    for run in stats.runs:
        # fields are flat primitives, so no dataclasses.asdict deep copy
        lines.append(json.dumps({f: getattr(run, f) for f in _RUN_FIELDS}, sort_keys=True))
    FsPath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_results(path: str) -> AggregateStats:
    """Read a pbr1 result file back into AggregateStats."""
    text = FsPath(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise VersionError(f"{path}: empty result file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise VersionError(f"{path}: unreadable header: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != RESULT_SCHEMA:
        raise VersionError(
            f"{path}: result schema {schema!r} is not {RESULT_SCHEMA!r}"
        )
    warnings = header.get("warnings", [])
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        raise VersionError(f"{path}: header warnings are not a list of strings")
    runs = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise VersionError(f"{path}: bad run row (line {number}): {exc}") from exc
        if not isinstance(obj, dict):
            raise VersionError(f"{path}: run row is not a JSON object (line {number})")
        missing = [f for f in _RUN_FIELDS if f not in obj]
        if missing:
            raise VersionError(
                f"{path}: run row missing fields {missing} (line {number})"
            )
        # exact types: a JSON bool is no int, and no int is a bool
        wrong = [f for f in _RUN_FIELDS if type(obj[f]) not in _RUN_TYPES[f]]
        if wrong:
            raise VersionError(
                f"{path}: run row field {wrong[0]!r} has the wrong type (line {number})"
            )
        runs.append(RunRecord(**{f: obj[f] for f in _RUN_FIELDS}))
    meta = {k: v for k, v in header.items() if k not in ("schema", "warnings")}
    return AggregateStats(runs=tuple(runs), warnings=tuple(warnings), meta=meta)


def merge_results(paths: Sequence[str]) -> AggregateStats:
    """Union result files from different machines into one stats object.

    Cells keep their hardware tags: nothing is averaged across tags.  The
    merged run list is canonically sorted, so input order does not matter.
    """
    if not paths:
        raise ConfigError("merge_results needs at least one input file")
    all_runs: List[RunRecord] = []
    all_warnings: List[str] = []
    for path in paths:
        stats = load_results(path)
        all_runs.extend(stats.runs)
        all_warnings.extend(stats.warnings)
    all_runs.sort(
        key=lambda r: (r.hardware_tag, r.map_type, r.map_id, r.planner, r.seed)
    )
    return AggregateStats(
        runs=tuple(all_runs),
        warnings=tuple(sorted(all_warnings)),
        meta={"merged_files": len(paths)},
    )


# ---------------------------------------------------------------------------
# Report emission


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return "%.6g" % value
    return str(value)


def emit_report(
    stats: AggregateStats,
    directory: str,
    formats: Iterable[str] = ("csv", "jsonl", "text"),
) -> Dict[str, str]:
    """Write the aggregate report; returns {format: path}.

    ``csv`` and ``text`` render the pinned columns with floats at six
    significant digits; ``jsonl`` carries the same rows at full float
    precision plus per-metric spread.  Raw per-cell sample vectors are
    always written to a ``samples.tsv`` sidecar so plots and re-analysis
    do not need the original run machines.
    """
    out_dir = FsPath(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = tuple(formats)
    unknown = set(formats) - {"csv", "jsonl", "text"}
    if unknown:
        raise ConfigError(f"unknown report formats: {sorted(unknown)}")
    rows = stats.table_rows()
    written: Dict[str, str] = {}

    if "csv" in formats:
        csv_path = out_dir / "report.csv"
        lines = [",".join(REPORT_COLUMNS)]
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in REPORT_COLUMNS))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written["csv"] = str(csv_path)

    if "jsonl" in formats:
        jsonl_path = out_dir / "report.jsonl"
        lines = []
        for row, cell in zip(rows, stats.cells().values()):
            spread = {}
            for column, metric in _COLUMN_TO_METRIC.items():
                st = cell.stats(metric)
                if st is not None:
                    spread[column] = {"std": st[1], "min": st[2], "max": st[3]}
            obj = dict(row)
            obj["spread"] = spread
            obj["failure_reasons"] = dict(sorted(cell.failure_reasons.items()))
            lines.append(json.dumps(obj, sort_keys=True))
        jsonl_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written["jsonl"] = str(jsonl_path)

    if "text" in formats:
        text_path = out_dir / "report.txt"
        text_path.write_text(render_text_table(stats), encoding="utf-8")
        written["text"] = str(text_path)

    samples_path = out_dir / "samples.tsv"
    sample_lines = ["planner\tmap_type\thardware_tag\tmetric\tvalues"]
    for cell in stats.cells().values():
        for metric in _METRIC_SOURCES:
            values = cell.samples.get(metric, ())
            if not values:
                continue
            sample_lines.append(
                "\t".join(
                    (
                        cell.planner,
                        cell.map_type,
                        cell.hardware_tag,
                        metric,
                        " ".join(repr(v) for v in values),
                    )
                )
            )
    samples_path.write_text("\n".join(sample_lines) + "\n", encoding="utf-8")
    written["samples"] = str(samples_path)
    return written


def render_text_table(stats: AggregateStats) -> str:
    """Fixed-width table over the pinned columns, one row per cell."""
    rows = stats.table_rows()
    headers = list(REPORT_COLUMNS)
    rendered = [[_format_cell(row[c]) or "-" for c in headers] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    out_lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for r in rendered:
        out_lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    if stats.warnings:
        out_lines.append("")
        for warning in stats.warnings:
            out_lines.append(f"warning: {warning}")
    return "\n".join(out_lines) + "\n"
