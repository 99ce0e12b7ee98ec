"""Harness tests: registry, seeding, sweeps, merging, and report files."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pbgrid.analyzer as analyzer
from pbgrid.analyzer import (
    AggregateStats,
    BenchmarkSpec,
    FileSource,
    GeneratedSource,
    PlannerConfig,
    REPORT_COLUMNS,
    RESULT_SCHEMA,
    RunRecord,
    VersionError,
    complex_analysis,
    derive_seed,
    emit_report,
    load_results,
    merge_results,
    render_text_table,
    save_results,
    score_run,
    simple_analysis,
)
from pbgrid.dataset import label_dataset, load_dataset, save_dataset
from pbgrid.grid import GridMap, MoveModel, Path as CellPath, distance_transform, euclidean_distance
from pbgrid.mapgen import ConfigError, GenConfig, MapType, generate, place_agent_goal
from pbgrid.mapio import save_native
from pbgrid.planners import available_planners, resolve_planner
from pbgrid.planners.graph import astar


def small_spec(**kw):
    defaults = dict(
        planners=(PlannerConfig("astar"), PlannerConfig("dijkstra")),
        map_sources=(
            GeneratedSource(GenConfig(extent=(10, 10), fill_rate_range=(0.1, 0.2)), 4),
        ),
        master_seed=99,
    )
    defaults.update(kw)
    return BenchmarkSpec(**defaults)


def strip_time(runs):
    return [dataclasses.replace(r, time_seconds=0.0) for r in runs]


# ---------------------------------------------------------------------------
# Registry


def test_registry_lists_all_planners():
    names = available_planners()
    assert names == (
        "astar",
        "dijkstra",
        "wavefront",
        "d-rrt",
        "d-rt",
        "d-rrt-connect",
        "d-rrt-star",
        "d-sprm",
        "bug1",
        "bug2",
        "potential-field",
    )


def test_registry_aliases_resolve():
    assert resolve_planner("rrt").name == "d-rrt"
    assert resolve_planner("RRT_STAR").name == "d-rrt-star"
    assert resolve_planner("sprm").name == "d-sprm"
    assert resolve_planner("pf").name == "potential-field"
    assert resolve_planner("potential_field").name == "potential-field"


def test_registry_unknown_name_lists_available():
    with pytest.raises(KeyError) as err:
        resolve_planner("warp-drive")
    assert "astar" in str(err.value)


def make_grid():
    occ = np.zeros((8, 8), dtype=bool)
    occ[3, 2:6] = True
    return GridMap(occ, agent=(1, 1), goal=(6, 6))


def test_registry_run_matches_direct_call():
    g = make_grid()
    direct = astar(g, MoveModel())
    via = resolve_planner("astar").run(g, MoveModel(), seed=5)
    assert via.path.cells == direct.path.cells
    assert via.path.cost == direct.path.cost


def test_registry_graph_planner_rejects_overrides():
    with pytest.raises(ConfigError):
        resolve_planner("astar").run(make_grid(), MoveModel(), 0, {"step_cells": 2})


def test_registry_unknown_param_named_in_error():
    with pytest.raises(ConfigError) as err:
        resolve_planner("d-rrt").run(make_grid(), MoveModel(), 0, {"warp": 9})
    assert "warp" in str(err.value)


def test_registry_step_alias_maps_to_step_cells():
    g = make_grid()
    entry = resolve_planner("d-rrt")
    a = entry.run(g, MoveModel(), seed=7, overrides={"step": 2})
    b = entry.run(g, MoveModel(), seed=7, overrides={"step_cells": 2})
    assert a.success == b.success
    if a.success:
        assert a.path.cells == b.path.cells


def test_registry_seed_controls_sampler():
    g = make_grid()
    entry = resolve_planner("d-rrt")
    a = entry.run(g, MoveModel(), seed=11)
    b = entry.run(g, MoveModel(), seed=11)
    assert a.success and b.success
    assert a.path.cells == b.path.cells


def test_registry_local_planners_accept_their_knobs():
    g = make_grid()
    right = resolve_planner("bug1").run(g, MoveModel(), 0, {"follow_left": False})
    assert right.success
    pf = resolve_planner("pf").run(g, MoveModel(), 0, {"k_rep": 10.0})
    assert pf.success or pf.failure_reason == "local_minimum"


def test_registry_bad_value_is_config_error():
    with pytest.raises(ConfigError):
        resolve_planner("d-rrt").run(make_grid(), MoveModel(), 0, {"step_cells": 0})


# ---------------------------------------------------------------------------
# Seed derivation


def test_derive_seed_is_stable_and_64bit():
    a = derive_seed(42, "run", "uniform-0-0001", 3, "astar")
    assert a == derive_seed(42, "run", "uniform-0-0001", 3, "astar")
    assert 0 <= a < 2**64


def test_derive_seed_separates_parts():
    seen = {
        derive_seed(1, "run", "m", 0, "astar"),
        derive_seed(2, "run", "m", 0, "astar"),
        derive_seed(1, "run", "m", 1, "astar"),
        derive_seed(1, "run", "m", 0, "dijkstra"),
        derive_seed(1, "run", "n", 0, "astar"),
    }
    assert len(seen) == 5


# ---------------------------------------------------------------------------
# Spec validation


def test_spec_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        small_spec(planners=())
    with pytest.raises(ConfigError):
        small_spec(map_sources=())
    with pytest.raises(ConfigError):
        small_spec(runs_per_map=0)
    with pytest.raises(ConfigError):
        small_spec(parallelism=0)
    with pytest.raises(ConfigError):
        small_spec(timing_repeats=0)
    with pytest.raises(ConfigError):
        GeneratedSource(GenConfig(), 0)
    with pytest.raises(ConfigError):
        FileSource(())
    with pytest.raises(KeyError):
        PlannerConfig("warp-drive")


# ---------------------------------------------------------------------------
# Sweeps


def test_simple_analysis_counts_and_baseline_zero():
    stats = simple_analysis(small_spec())
    assert len(stats.runs) == 4 * 2
    for run in stats.runs:
        assert run.hardware_tag == "local"
        assert run.map_type == "uniform"
        if run.planner in ("astar", "dijkstra") and run.success:
            assert run.path_deviation_pct == 0.0
        if run.success:
            assert run.failure_reason is None
            assert run.distance_left_cells == 0.0


def test_complex_x1_equals_simple():
    spec = small_spec(runs_per_map=1)
    a = simple_analysis(spec)
    b = complex_analysis(spec)
    assert strip_time(a.runs) == strip_time(b.runs)


def test_sweep_is_deterministic():
    spec = small_spec(
        planners=(PlannerConfig("astar"), PlannerConfig("d-rrt")),
        runs_per_map=2,
    )
    a = complex_analysis(spec)
    b = complex_analysis(spec)
    assert strip_time(a.runs) == strip_time(b.runs)


def test_parallel_matches_serial():
    base = small_spec(
        planners=(PlannerConfig("astar"), PlannerConfig("d-rrt")),
        runs_per_map=3,
    )
    wide = dataclasses.replace(base, parallelism=4)
    a = complex_analysis(base)
    b = complex_analysis(wide)
    assert strip_time(a.runs) == strip_time(b.runs)


def test_draws_share_one_distance_field_per_map(monkeypatch):
    """A --complex --x 4 sweep computes one distance field per map; its rows
    equal those of a run that computes the field for every draw."""
    spec = small_spec(
        planners=(PlannerConfig("astar"), PlannerConfig("wavefront"), PlannerConfig("d-rrt")),
        map_sources=(
            GeneratedSource(GenConfig(extent=(10, 10), fill_rate_range=(0.1, 0.2)), 2),
            GeneratedSource(GenConfig(map_type=MapType.BLOCK, extent=(12, 12)), 1),
        ),
        runs_per_map=4,
    )
    calls = []

    def spy(grid):
        calls.append(grid)
        return distance_transform(grid)

    monkeypatch.setattr(analyzer, "distance_transform", spy)
    stats = complex_analysis(spec)
    assert len(calls) == stats.meta["map_count"] == 3
    assert [r.planner for r in stats.runs] == ["astar", "wavefront", "d-rrt"] * 12

    # the rows as each draw with its own field gives them
    want = []
    for s_idx, source in enumerate(spec.map_sources):
        for m_idx in range(source.count):
            cfg = dataclasses.replace(
                source.config,
                seed=derive_seed(spec.master_seed, "map", s_idx, source.config.seed, m_idx),
            )
            map_id = f"{cfg.map_type.value}-{s_idx}-{m_idx:04d}"
            grid = generate(cfg)
            for run_idx in range(spec.runs_per_map):
                rng = np.random.default_rng(derive_seed(spec.master_seed, "endpoints", map_id, run_idx))
                placed = place_agent_goal(grid, rng)
                baseline = astar(placed, spec.model)
                for planner in spec.planners:
                    entry = resolve_planner(planner.name)
                    seed = derive_seed(spec.master_seed, "run", map_id, run_idx, entry.name)
                    outcome, report = score_run(
                        entry, placed, spec.model, seed, {}, baseline, distance_transform(placed)
                    )
                    want.append(RunRecord(
                        planner=entry.name, map_id=map_id, map_type=cfg.map_type.value,
                        hardware_tag=spec.hardware_tag, seed=seed,
                        failure_reason=outcome.failure_reason, **vars(report),
                    ))
    assert strip_time(stats.runs) == strip_time(want)

    calls.clear()
    wide = complex_analysis(dataclasses.replace(spec, parallelism=4))
    assert len(calls) == 3
    assert strip_time(wide.runs) == strip_time(stats.runs)


def test_master_seed_changes_maps():
    a = simple_analysis(small_spec(master_seed=1))
    b = simple_analysis(small_spec(master_seed=2))
    assert strip_time(a.runs) != strip_time(b.runs)


def test_timing_repeats_changes_only_time():
    spec = small_spec()
    again = dataclasses.replace(spec, timing_repeats=3)
    a = simple_analysis(spec)
    b = simple_analysis(again)
    assert strip_time(a.runs) == strip_time(b.runs)


def test_crash_wall_records_failed_run(tmp_path):
    # A bad override value raises inside the planner call. The map has two
    # free cells, one step apart, so every draw puts the endpoints on them.
    occ = np.ones((3, 3), dtype=bool)
    occ[1, 1:] = False
    path = tmp_path / "pair.map"
    path.write_text(save_native(GridMap(occ)), encoding="utf-8")
    spec = small_spec(
        planners=(
            PlannerConfig("astar"),
            PlannerConfig("d-rrt", {"step_cells": 0}),
        ),
        map_sources=(FileSource((str(path),)),),
        runs_per_map=3,
    )
    stats = complex_analysis(spec)
    bad = [r for r in stats.runs if r.planner == "d-rrt"]
    map_id = "file-0-0000-pair"
    assert bad == [
        RunRecord(
            planner="d-rrt",
            map_id=map_id,
            map_type="file",
            hardware_tag=spec.hardware_tag,
            seed=derive_seed(99, "run", map_id, run_idx, "d-rrt"),
            success=False,
            path_length_cells=None,
            path_cell_count=None,
            distance_left_cells=1.0,
            time_seconds=0.0,
            path_deviation_pct=None,
            search_space_pct=0.0,
            peak_memory_mb=0.0,
            obstacle_clearance_cells=None,
            smoothness_deg=None,
            failure_reason="error:ConfigError",
        )
        for run_idx in range(3)
    ]
    good = [r for r in stats.runs if r.planner == "astar"]
    assert all(r.success for r in good)


def test_file_source_runs_and_skips_unparsable(tmp_path):
    occ = np.zeros((6, 6), dtype=bool)
    good = tmp_path / "good.map"
    good.write_text(save_native(GridMap(occ)), encoding="utf-8")
    bad = tmp_path / "bad.map"
    bad.write_text("pbgrid v7\n???\n", encoding="utf-8")
    spec = small_spec(
        map_sources=(FileSource((str(good), str(bad))),),
    )
    stats = simple_analysis(spec)
    assert len(stats.warnings) == 1
    assert "bad.map" in stats.warnings[0]
    assert {r.map_type for r in stats.runs} == {"file"}
    assert len(stats.runs) == 2
    assert render_text_table(stats).count("warning:") == 1


def test_endpoints_vary_across_runs():
    spec = small_spec(
        planners=(PlannerConfig("astar"),),
        map_sources=(
            GeneratedSource(GenConfig(extent=(16, 16), fill_rate_range=(0.0, 0.0)), 1),
        ),
        runs_per_map=6,
    )
    stats = complex_analysis(spec)
    lengths = {r.path_length_cells for r in stats.runs}
    assert len(lengths) > 1


# ---------------------------------------------------------------------------
# Aggregation rules (hand-built oracle records)


def fake_run(planner, success, *, dev=None, dist=0.0, time=1.0, reason=None, tag="local"):
    return RunRecord(
        planner=planner,
        map_id="m",
        map_type="uniform",
        hardware_tag=tag,
        seed=0,
        success=success,
        path_length_cells=10.0 if success else None,
        path_cell_count=11 if success else None,
        distance_left_cells=dist,
        time_seconds=time,
        path_deviation_pct=dev,
        search_space_pct=50.0,
        peak_memory_mb=1.0,
        obstacle_clearance_cells=2.0 if success else None,
        smoothness_deg=None,
        failure_reason=reason,
    )


def test_aggregation_separates_success_and_failure_pools():
    stats = AggregateStats(
        runs=(
            fake_run("p", True, dev=10.0, time=1.0),
            fake_run("p", True, dev=20.0, time=3.0),
            fake_run("p", False, dist=4.0, time=2.0, reason="budget_exhausted"),
            fake_run("p", False, dist=8.0, time=2.0, reason="budget_exhausted"),
        )
    )
    cell = stats.cells()[("p", "uniform", "local")]
    assert cell.runs == 4 and cell.successes == 2
    assert cell.success_rate_pct == 50.0
    assert cell.mean("path_deviation_pct") == 15.0   # successes only
    assert cell.mean("distance_left_cells") == 6.0   # failures only
    assert cell.mean("time_seconds") == 2.0          # all runs
    assert cell.failure_reasons == {"budget_exhausted": 2}
    mean, std, lo, hi = cell.stats("path_deviation_pct")
    assert (mean, lo, hi) == (15.0, 10.0, 20.0)
    assert std == 5.0


def test_table_rows_sorted_and_pinned():
    stats = AggregateStats(
        runs=(
            fake_run("b", True, dev=0.0),
            fake_run("a", True, dev=0.0),
        )
    )
    rows = stats.table_rows()
    assert [r["planner"] for r in rows] == ["a", "b"]
    assert list(rows[0]) == list(REPORT_COLUMNS)
    assert rows[0]["success_rate_pct"] == 100.0


def test_all_failures_leave_success_metrics_blank():
    stats = AggregateStats(
        runs=(fake_run("p", False, dist=3.0, reason="unreachable"),)
    )
    row = stats.table_rows()[0]
    assert row["path_dev_pct"] is None
    assert row["distance_left"] == 3.0
    assert row["success_rate_pct"] == 0.0


# ---------------------------------------------------------------------------
# Result files and merging


def test_results_round_trip(tmp_path):
    stats = simple_analysis(small_spec())
    path = tmp_path / "out.pbr1"
    save_results(stats, str(path))
    head = json.loads(path.read_text().splitlines()[0])
    assert head["schema"] == RESULT_SCHEMA
    back = load_results(str(path))
    assert back.runs == stats.runs
    assert back.warnings == stats.warnings
    assert back.meta["master_seed"] == 99


def test_save_results_bytes_equal_asdict_rows(tmp_path):
    # rows are written field by field; they must read as dataclasses.asdict
    # rows do, None and non-finite floats included
    runs = (
        fake_run("p", True, dev=0.0),
        fake_run("q", False, dist=math.inf, reason="unreachable", tag="lab"),
        fake_run("r", True, dev=math.nan, time=-math.inf),
        dataclasses.replace(fake_run("s", True), smoothness_deg=12.5, seed=2**63 - 1),
    )
    stats = AggregateStats(runs=runs, warnings=("w",), meta={"master_seed": 7})
    path = tmp_path / "out.pbr1"
    save_results(stats, str(path))
    header = {"schema": RESULT_SCHEMA, "warnings": ["w"], "master_seed": 7}
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(dataclasses.asdict(run), sort_keys=True) for run in runs]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_load_rejects_wrong_schema(tmp_path):
    stats = AggregateStats(runs=(fake_run("p", True, dev=0.0),))
    path = tmp_path / "out.pbr1"
    save_results(stats, str(path))
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["schema"] = "pbr2"
    path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
    with pytest.raises(VersionError):
        load_results(str(path))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "out.pbr1"
    path.write_text("")
    with pytest.raises(VersionError):
        load_results(str(path))
    path.write_text('{"schema": "pbr1"}\n{"planner": "x"}\n')
    with pytest.raises(VersionError):
        load_results(str(path))
    # rows and headers that are JSON but of the wrong shape
    for text in (
        '{"schema": "pbr1", "warnings": []}\n5\n',
        '{"schema": "pbr1"}\n["planner"]\n',
        '{"schema": "pbr1", "warnings": 5}\n',
        '{"schema": "pbr1", "warnings": "abc"}\n',
        '5\n',
    ):
        path.write_text(text)
        with pytest.raises(VersionError):
            load_results(str(path))


def test_cells_are_aggregated_once_in_report_order():
    stats = AggregateStats(
        runs=(
            fake_run("b", True, dev=0.0, tag="lab"),
            fake_run("a", True, dev=0.0, tag="lab"),
            fake_run("b", True, dev=0.0, tag="desk"),
        )
    )
    assert list(stats.cells()) == [
        ("a", "uniform", "lab"),
        ("b", "uniform", "desk"),
        ("b", "uniform", "lab"),
    ]
    assert stats.cells() is stats.cells()
    assert [(r["planner"], r["hardware_tag"]) for r in stats.table_rows()] == [
        ("a", "lab"), ("b", "desk"), ("b", "lab"),
    ]


def test_merge_keeps_hardware_tags_separate(tmp_path):
    a = AggregateStats(runs=(fake_run("p", True, dev=0.0, tag="desk"),))
    b = AggregateStats(runs=(fake_run("p", True, dev=10.0, tag="lab"),))
    pa, pb = tmp_path / "a.pbr1", tmp_path / "b.pbr1"
    save_results(a, str(pa))
    save_results(b, str(pb))
    merged = merge_results([str(pa), str(pb)])
    cells = merged.cells()
    assert set(cells) == {("p", "uniform", "desk"), ("p", "uniform", "lab")}
    assert cells[("p", "uniform", "desk")].mean("path_deviation_pct") == 0.0
    assert cells[("p", "uniform", "lab")].mean("path_deviation_pct") == 10.0


def test_merge_is_order_independent(tmp_path):
    a = AggregateStats(runs=(fake_run("p", True, dev=0.0, tag="desk"),))
    b = AggregateStats(runs=(fake_run("q", False, dist=2.0, reason="unreachable", tag="lab"),))
    pa, pb = tmp_path / "a.pbr1", tmp_path / "b.pbr1"
    save_results(a, str(pa))
    save_results(b, str(pb))
    x = merge_results([str(pa), str(pb)])
    y = merge_results([str(pb), str(pa)])
    assert x.runs == y.runs
    assert x.warnings == y.warnings


def test_merge_single_file_is_identity(tmp_path):
    stats = simple_analysis(small_spec())
    path = tmp_path / "one.pbr1"
    save_results(stats, str(path))
    merged = merge_results([str(path)])
    assert sorted(merged.runs, key=lambda r: (r.map_id, r.planner)) == sorted(
        stats.runs, key=lambda r: (r.map_id, r.planner)
    )


# ---------------------------------------------------------------------------
# Report emission


_STRING_COLUMNS = frozenset({"planner", "map_type", "hardware_tag"})


def read_report_csv(path):
    """Parse a report.csv back into typed rows (None for blank cells)."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    if not lines or lines[0] != ",".join(REPORT_COLUMNS):
        raise VersionError(f"{path}: unexpected report header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(REPORT_COLUMNS):
            raise VersionError(f"{path}: row has {len(parts)} columns")
        row = {}
        for col, token in zip(REPORT_COLUMNS, parts):
            if col in _STRING_COLUMNS:
                row[col] = token
            elif token == "":
                row[col] = None
            elif col == "runs":
                row[col] = int(token)
            else:
                row[col] = float(token)
        rows.append(row)
    return rows


def read_report_jsonl(path):
    """Parse a report.jsonl down to the pinned report columns."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            rows.append({col: obj[col] for col in REPORT_COLUMNS})
    return rows


def round6(value):
    if value is None:
        return None
    if isinstance(value, float):
        return float("%.6g" % value)
    return value


def test_report_csv_jsonl_round_trip(tmp_path):
    stats = simple_analysis(
        small_spec(planners=(PlannerConfig("astar"), PlannerConfig("d-rrt")))
    )
    written = emit_report(stats, str(tmp_path))
    csv_rows = read_report_csv(written["csv"])
    jsonl_rows = read_report_jsonl(written["jsonl"])
    assert len(csv_rows) == len(jsonl_rows) == len(stats.table_rows())
    for c, j in zip(csv_rows, jsonl_rows):
        for col in REPORT_COLUMNS:
            assert round6(c[col]) == round6(j[col]), col


def test_report_text_and_samples(tmp_path):
    stats = simple_analysis(small_spec())
    written = emit_report(stats, str(tmp_path))
    text = open(written["text"], encoding="utf-8").read()
    assert text.splitlines()[0].startswith("planner")
    assert "astar" in text and "dijkstra" in text
    samples = open(written["samples"], encoding="utf-8").read().splitlines()
    assert samples[0] == "planner\tmap_type\thardware_tag\tmetric\tvalues"
    cell = stats.cells()[("astar", "uniform", "local")]
    line = next(
        s for s in samples[1:]
        if s.startswith("astar\tuniform\tlocal\tsearch_space_pct")
    )
    values = tuple(float(tok) for tok in line.split("\t")[4].split())
    assert values == cell.samples["search_space_pct"]


def test_report_rejects_unknown_format(tmp_path):
    stats = AggregateStats(runs=(fake_run("p", True, dev=0.0),))
    with pytest.raises(ConfigError):
        emit_report(stats, str(tmp_path), formats=("yaml",))


def test_golden_report(tmp_path):
    """Fixed-seed ten-map sweep reproduces the committed report exactly.

    Wall-clock timing is the one nondeterministic column, so records are
    normalized to time 0 before rendering both the golden and the check.
    """
    spec = BenchmarkSpec(
        planners=(
            PlannerConfig("astar"),
            PlannerConfig("dijkstra"),
            PlannerConfig("d-rrt"),
        ),
        map_sources=(
            GeneratedSource(GenConfig(extent=(12, 12), fill_rate_range=(0.1, 0.25)), 10),
        ),
        master_seed=20260819,
    )
    stats = simple_analysis(spec)
    frozen = AggregateStats(
        runs=tuple(strip_time(stats.runs)),
        warnings=stats.warnings,
        meta=stats.meta,
    )
    emit_report(frozen, str(tmp_path))
    produced = (tmp_path / "report.csv").read_text(encoding="utf-8")
    golden = open("tests/fixtures/golden_report.csv", encoding="utf-8").read()
    assert produced == golden


# ---------------------------------------------------------------------------
# Dataset summaries


@dataclasses.dataclass(frozen=True)
class DatasetSummary:
    """Per-path digest of a labeled dataset segment."""

    map_index: int
    obstacle_ratio: float
    path_length_cells: float
    start_goal_distance: float
    steps: int


def dataset_analysis(path, model=MoveModel()):
    """Summarize a dataset file: one row per contiguous labeled path.

    A new segment starts whenever the map changes or the agent position
    does not continue the previous record's labeled move.
    """
    records = load_dataset(Path(path).read_text(encoding="utf-8"))
    summaries = []
    segment = []
    expected_next = None

    def flush():
        if not segment:
            return
        first = segment[0]
        moves = model.moves(len(first.agent_position))
        cells = [r.agent_position for r in segment]
        last = segment[-1]
        end = tuple(p + d for p, d in zip(last.agent_position, moves[last.label]))
        cells.append(end)
        summaries.append(
            DatasetSummary(
                map_index=len(summaries),
                obstacle_ratio=float(first.global_obstacle_map.mean()),
                path_length_cells=CellPath.from_cells(cells).cost,
                start_goal_distance=euclidean_distance(cells[0], end),
                steps=len(segment),
            )
        )

    for record in records:
        same_map = segment and np.array_equal(
            record.global_obstacle_map, segment[0].global_obstacle_map
        )
        if not (same_map and record.agent_position == expected_next):
            flush()
            segment = []
        segment.append(record)
        moves = model.moves(len(record.agent_position))
        expected_next = tuple(p + d for p, d in zip(record.agent_position, moves[record.label]))
    flush()
    return summaries


def test_dataset_analysis_single_map(tmp_path):
    occ = np.zeros((7, 7), dtype=bool)
    occ[3, 1:5] = True
    g = GridMap(occ, agent=(1, 1), goal=(5, 4))
    records = label_dataset(g, 1)
    path = tmp_path / "data.tsv"
    path.write_text(save_dataset(records), encoding="utf-8")
    summaries = dataset_analysis(str(path))
    assert len(summaries) == 1
    s = summaries[0]
    assert s.steps == len(records)
    assert s.obstacle_ratio == pytest.approx(occ.mean())
    best = astar(g, MoveModel())
    assert s.path_length_cells == pytest.approx(best.path.cost)
    assert s.start_goal_distance == pytest.approx(euclidean_distance((1, 1), (5, 4)))


def test_dataset_analysis_splits_maps(tmp_path):
    a = GridMap(np.zeros((5, 5), dtype=bool), agent=(0, 0), goal=(4, 4))
    occ = np.zeros((5, 5), dtype=bool)
    occ[2, 2] = True
    b = GridMap(occ, agent=(0, 4), goal=(4, 0))
    records = label_dataset(a, 1) + label_dataset(b, 1)
    path = tmp_path / "data.tsv"
    path.write_text(save_dataset(records), encoding="utf-8")
    summaries = dataset_analysis(str(path))
    assert len(summaries) == 2
    assert summaries[0].map_index == 0 and summaries[1].map_index == 1
    assert summaries[0].obstacle_ratio == 0.0
    assert summaries[1].obstacle_ratio == pytest.approx(1 / 25)
