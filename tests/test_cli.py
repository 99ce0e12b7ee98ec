"""Command-line tests: subcommands, overlay precedence, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import numpy as np
import pytest

import pbgrid
from pbgrid.analyzer import RESULT_SCHEMA, derive_seed, load_results
from pbgrid.cli import _print_report, main
from pbgrid.mapgen import place_agent_goal
from pbgrid.mapio import NATIVE_VERSION, load_map, load_native
from pbgrid.metrics import MetricReport
from pbgrid.planners.base import PlanOutcome, SearchTrace

FIXTURE = "tests/fixtures/metric_fixture.map"


def strip_time(runs):
    return [dataclasses.replace(r, time_seconds=0.0) for r in runs]


def test_version_is_machine_readable(capsys):
    assert main(["--version"]) == 0
    line = capsys.readouterr().out.strip()
    obj = json.loads(line)
    assert obj == {
        "pbgrid": pbgrid.__version__,
        "map_schema": NATIVE_VERSION,
        "result_schema": RESULT_SCHEMA,
    }
    assert pbgrid.MAP_SCHEMA == NATIVE_VERSION
    assert pbgrid.RESULT_SCHEMA == RESULT_SCHEMA


def test_module_entry_point_runs():
    # the subprocess does not see pytest's pythonpath setting, so hand it src/
    src = str(FsPath(pbgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "pbgrid.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["result_schema"] == RESULT_SCHEMA


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "generate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_files_and_manifest(tmp_path, capsys):
    out = tmp_path / "maps"
    rc = main(
        ["generate", "--type", "house", "--count", "3", "--seed", "7",
         "--extent", "24", "24", "--min-room", "4", "6", "--max-room", "8", "10",
         "--out", str(out)]
    )
    assert rc == 0
    assert "seed: 7" in capsys.readouterr().out
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "house-7-0000.map",
        "house-7-0001.map",
        "house-7-0002.map",
        "manifest.json",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["type"] == "house"
    assert manifest["files"] == files[:3]
    grid = load_native((out / files[0]).read_text())
    assert grid.extent == (24, 24)


def test_generate_rerun_is_byte_identical(tmp_path):
    args = ["generate", "--type", "uniform", "--count", "2", "--seed", "3",
            "--extent", "12", "12"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("uniform-3-0000.map", "uniform-3-0001.map", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_reversed_fill_is_usage_error(tmp_path, capsys):
    rc = main(["generate", "--fill", "0.4", "0.2", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "fill" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_count_below_one_is_usage_error(count, tmp_path, capsys):
    rc = main(["generate", "--count", count, "--out", str(tmp_path / "maps")])
    assert rc == 1
    assert "usage error: map count must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "maps").exists()


# ---------------------------------------------------------------------------
# run


@pytest.mark.parametrize("flag", ["--d-rrt-star.rewire_radius", "--d-sprm.prm_radius"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_run_rejects_bad_radius(flag, value, capsys):
    planner = flag[2:].split(".")[0]
    assert main(["run", "tests/fixtures/u_trap.map", "--planner", planner, flag, value]) == 1
    assert "usage error: radii must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["k_att", "k_rep", "influence_radius_cells"])
def test_run_rejects_nan_potential_params(param, capsys):
    argv = ["run", "tests/fixtures/u_trap.map", "--planner", "potential-field"]
    assert main(argv + [f"--potential-field.{param}", "nan"]) == 1
    assert f"usage error: {param} must be" in capsys.readouterr().err


@pytest.mark.parametrize("planner", ["bug1", "bug2"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_run_rejects_bad_bug_step_limit(planner, value, capsys):
    argv = ["run", "tests/fixtures/u_trap.map", "--planner", planner]
    assert main(argv + [f"--{planner}.step_limit", value]) == 1
    assert "usage error: step_limit must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "planner, flag",
    [("bug2", "--bug2.step_limit"), ("d-rrt", "--d-rrt.step_cells"), ("pf", "--pf.step_limit")],
)
def test_run_bad_planner_value_fails_before_any_output(planner, flag, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    argv = ["run", "tests/fixtures/u_trap.map", "--planner", planner, flag, "0"]
    if planner != "d-rrt":
        argv += ["--trace", str(trace)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err
    assert not trace.exists()


def test_benchmark_bad_planner_value_fails_before_the_sweep(tmp_path, capsys):
    out = tmp_path / "res"
    argv = ["benchmark", "--n", "2", "--extent", "16", "16", "--types", "uniform",
            "--planners", "d-rrt", "--d-rrt.step_cells", "0", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: step_cells must be >= 1" in captured.err
    assert not out.exists()


def _u_trap_with(tmp_path, ends):
    """The u_trap fixture saved with ``ends`` as its agent and goal lines."""
    text = FsPath("tests/fixtures/u_trap.map").read_text()
    path = tmp_path / "ends.map"
    path.write_text(text.replace("agent 12 2\ngoal 12 22\n", ends), encoding="utf-8")
    return str(path)


def test_run_one_endpoint_flag_on_a_map_without_endpoints_is_usage_error(tmp_path, capsys):
    path = _u_trap_with(tmp_path, "agent -\ngoal -\n")
    assert main(["run", path, "--planner", "astar", "--start", "0", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "--goal" in captured.err


def test_run_map_with_only_an_agent_is_usage_error(tmp_path, capsys):
    path = _u_trap_with(tmp_path, "agent 12 2\ngoal -\n")
    assert main(["run", path, "--planner", "astar"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "--goal" in captured.err
    assert main(["run", path, "--planner", "astar", "--goal", "12", "22"]) == 0
    assert "agent: 12 2\ngoal: 12 22\n" in capsys.readouterr().out


def test_run_astar_prints_zero_deviation(capsys):
    assert main(["run", FIXTURE, "--planner", "astar"]) == 0
    out = capsys.readouterr().out
    assert "path_deviation_pct: 0.00" in out
    assert "seed: 0" in out
    assert "success: true" in out


def test_run_start_on_obstacle_is_validation_error(capsys):
    rc = main(["run", FIXTURE, "--planner", "astar", "--start", "2", "2"])
    assert rc == 1
    assert "validation error" in capsys.readouterr().err


def test_run_unknown_planner_lists_available(capsys):
    rc = main(["run", FIXTURE, "--planner", "warp"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "astar" in err and "potential-field" in err


def test_run_missing_map_is_data_error(capsys):
    rc = main(["run", "no/such/file.map", "--planner", "astar"])
    assert rc == 2
    assert "i/o error" in capsys.readouterr().err


def test_run_trace_writes_expansion_log(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main(["run", FIXTURE, "--planner", "astar", "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines and lines[0].startswith("0 0 ")
    assert f"wrote {len(lines)} steps" in capsys.readouterr().out


@pytest.mark.parametrize("planner", ["astar", "dijkstra", "wavefront", "bug1", "bug2", "potential-field"])
def test_run_trace_when_start_is_goal(planner, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    argv = ["run", FIXTURE, "--planner", planner, "--start", "1", "1", "--goal", "1", "1"]
    assert main(argv + ["--trace", str(trace)]) == 0
    assert trace.read_text() == ""
    out = capsys.readouterr().out
    assert "success: true" in out and "wrote 0 steps" in out


def test_run_tree_only_for_samplers(tmp_path, capsys):
    rc = main(["run", FIXTURE, "--planner", "astar", "--tree", str(tmp_path / "t")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "--tree" in err
    rc = main(["run", FIXTURE, "--planner", "rrt", "--trace", str(tmp_path / "t")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "use --tree" in err
    tree = tmp_path / "tree.txt"
    rc = main(["run", FIXTURE, "--planner", "rrt", "--seed", "4",
               "--tree", str(tree)])
    assert rc == 0
    assert tree.read_text().splitlines()[0] == "0 0 -1"


def test_run_overrides_change_behavior(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["run", FIXTURE, "--planner", "rrt", "--seed", "5",
                 "--rrt.step", "1", "--tree", str(a)]) == 0
    assert main(["run", FIXTURE, "--planner", "rrt", "--seed", "5",
                 "--rrt.step=1", "--tree", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_rejects_unknown_planner_param(capsys):
    rc = main(["run", FIXTURE, "--planner", "rrt", "--rrt.warp", "2"])
    assert rc == 1
    assert "warp" in capsys.readouterr().err


def _metric_lines(text):
    """The printed metric lines of a run report, the time line left out."""
    names = {f.name for f in dataclasses.fields(MetricReport)} - {"time_seconds"}
    return [ln for ln in text.splitlines() if ln.split(":", 1)[0] in names]


@pytest.mark.parametrize("planner", ["astar", "d-rrt", "bug2"])
def test_run_scores_like_a_sweep(planner, tmp_path, capsys):
    """`pbgrid run` with a sweep run's endpoints and planner seed reports
    every metric but the time exactly as the sweep's record holds it."""
    maps = tmp_path / "maps"
    maps.mkdir()
    source = FsPath("tests/fixtures/u_trap.map")
    (maps / source.name).write_bytes(source.read_bytes())
    out = tmp_path / "res"
    assert main(["benchmark", "--complex", "--x", "3", "--maps", str(maps),
                 "--planners", planner, "--seed", "8", "--plots", "none",
                 "--out", str(out)]) == 0
    records = load_results(str(out / "results.pbr1")).runs
    assert len(records) == 3
    grid = load_map(str(source))
    for run_idx, record in enumerate(records):
        rng = np.random.default_rng(derive_seed(8, "endpoints", record.map_id, run_idx))
        placed = place_agent_goal(grid, rng)
        capsys.readouterr()
        _print_report(record)
        expected = _metric_lines(capsys.readouterr().out)
        assert main(["run", str(source), "--planner", planner, "--seed", str(record.seed),
                     "--start", *map(str, placed.agent),
                     "--goal", *map(str, placed.goal)]) == 0
        text = capsys.readouterr().out
        assert _metric_lines(text) == expected
        if not record.success:
            assert f"failure_reason: {record.failure_reason}" in text


def test_exit_code_three_on_internal_inconsistency(monkeypatch, capsys):
    def broken_baseline(grid, model, record_steps=False):
        return PlanOutcome(
            success=False,
            path=None,
            trace=SearchTrace(explored=set()),
            elapsed_seconds=0.0,
            peak_memory_bytes=0,
            terminal_cell=grid.agent,
            failure_reason="unreachable",
        )

    monkeypatch.setattr("pbgrid.cli.astar", broken_baseline)
    rc = main(["run", FIXTURE, "--planner", "dijkstra"])
    assert rc == 3
    assert "internal inconsistency" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchmark


def bench_args(out, extra=()):
    return [
        "benchmark", "--simple", "--n", "2", "--types", "uniform",
        "--extent", "12", "12", "--planners", "astar,dijkstra",
        "--seed", "5", "--plots", "none", "--out", str(out), *extra,
    ]


def test_benchmark_table_and_files(tmp_path, capsys):
    out = tmp_path / "res"
    rc = main(
        ["benchmark", "--simple", "--n", "3", "--types", "uniform",
         "--extent", "12", "12", "--planners", "astar,dijkstra,wavefront",
         "--seed", "1", "--plots", "none", "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "master seed: 1" in text
    table_lines = [ln for ln in text.splitlines() if ln.startswith(("astar", "dijkstra", "wavefront"))]
    assert len(table_lines) == 3
    dijkstra_row = next(ln for ln in table_lines if ln.startswith("dijkstra"))
    assert dijkstra_row.split()[2] == "0"
    assert (out / "results.pbr1").exists()
    assert (out / "report.csv").exists()
    assert (out / "report.txt").exists()
    assert (out / "samples.tsv").exists()


def test_benchmark_complex_runs_n_times_x(tmp_path):
    out = tmp_path / "res"
    rc = main(
        ["benchmark", "--complex", "--n", "2", "--x", "3", "--types", "uniform",
         "--extent", "12", "12", "--planners", "astar", "--seed", "2",
         "--plots", "none", "--out", str(out)]
    )
    assert rc == 0
    stats = load_results(str(out / "results.pbr1"))
    assert len(stats.runs) == 2 * 3 * 1


def test_benchmark_hardware_tag_stamps_rows(tmp_path):
    out = tmp_path / "res"
    assert main(bench_args(out, ["--hardware-tag", "laptop-a"])) == 0
    stats = load_results(str(out / "results.pbr1"))
    assert {r.hardware_tag for r in stats.runs} == {"laptop-a"}


def test_benchmark_is_deterministic_modulo_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(bench_args(a)) == 0
    assert main(bench_args(b)) == 0
    ra = load_results(str(a / "results.pbr1"))
    rb = load_results(str(b / "results.pbr1"))
    assert strip_time(ra.runs) == strip_time(rb.runs)


def test_benchmark_jobs_flag_keeps_results(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(bench_args(a)) == 0
    assert main(bench_args(b, ["--jobs", "4"])) == 0
    ra = load_results(str(a / "results.pbr1"))
    rb = load_results(str(b / "results.pbr1"))
    assert strip_time(ra.runs) == strip_time(rb.runs)


def test_benchmark_from_map_dir(tmp_path):
    maps = tmp_path / "maps"
    assert main(["generate", "--type", "uniform", "--count", "2",
                 "--extent", "10", "10", "--seed", "4", "--out", str(maps)]) == 0
    out = tmp_path / "res"
    rc = main(["benchmark", "--simple", "--maps", str(maps),
               "--planners", "astar", "--seed", "4", "--plots", "none",
               "--out", str(out)])
    assert rc == 0
    stats = load_results(str(out / "results.pbr1"))
    # the manifest is not a map: skipped with a warning, two maps remain
    assert len(stats.runs) == 2
    assert any("manifest.json" in w for w in stats.warnings)


def test_benchmark_unknown_type_is_usage_error(tmp_path, capsys):
    rc = main(bench_args(tmp_path / "r", ["--types", "swamp"]))
    assert rc == 1
    assert "swamp" not in capsys.readouterr().out


def test_benchmark_unknown_plot_kind_fails_before_the_sweep(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(bench_args(out, ["--plots", "bar,bogus"])) == 1
    assert "bogus" in capsys.readouterr().err
    assert not (out / "results.pbr1").exists()


# ---------------------------------------------------------------------------
# convert


def test_convert_round_trips_movingai(tmp_path):
    out = tmp_path / "native"
    rc = main(["convert", "tests/fixtures/movingai/arena_small.map",
               "--out", str(out)])
    assert rc == 0
    text = (out / "arena_small.map").read_text()
    assert text.startswith(NATIVE_VERSION)
    load_native(text)


def test_convert_reports_per_file_and_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("type octile\nheight x\n")
    rc = main(["convert", str(bad),
               "tests/fixtures/movingai/arena_small.map", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.map" in err and "line" in err
    assert (tmp_path / "arena_small.map").exists()


# ---------------------------------------------------------------------------
# plot


def test_plot_single_file_and_determinism(tmp_path, capsys):
    res = tmp_path / "res"
    assert main(bench_args(res)) == 0
    capsys.readouterr()
    a, b = tmp_path / "p1", tmp_path / "p2"
    assert main(["plot", str(res / "results.pbr1"), "--kinds", "bar",
                 "--out", str(a)]) == 0
    assert main(["plot", str(res / "results.pbr1"), "--kinds", "bar",
                 "--out", str(b)]) == 0
    fa = next(a.glob("*.svg")).read_bytes()
    fb = next(b.glob("*.svg")).read_bytes()
    assert fa == fb


def test_plot_merges_two_tags_into_scatter(tmp_path):
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert main(bench_args(ra, ["--hardware-tag", "desk"])) == 0
    assert main(bench_args(rb, ["--hardware-tag", "lab"])) == 0
    out = tmp_path / "plots"
    rc = main(["plot", str(ra / "results.pbr1"), str(rb / "results.pbr1"),
               "--kinds", "scatter", "--x", "time", "--y", "clearance",
               "--out", str(out)])
    assert rc == 0
    svg = next(out.glob("scatter_*.svg")).read_text()
    assert "desk" in svg and "lab" in svg
    assert "time_seconds" in svg and "obstacle_clearance_cells" in svg


def test_plot_schema_mismatch_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.pbr1"
    bad.write_text('{"schema": "pbr9"}\n')
    rc = main(["plot", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"schema": "pbr1", "warnings": []}\n5\n',
        '{"schema": "pbr1", "warnings": 5}\n',
    ],
    ids=["row-not-object", "warnings-not-list"],
)
def test_plot_malformed_result_file_is_data_error(text, tmp_path, capsys):
    bad = tmp_path / "bad.pbr1"
    bad.write_text(text)
    rc = main(["plot", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


_GOOD_ROW = {
    "success": True, "path_length_cells": 3.0, "path_cell_count": 4,
    "distance_left_cells": 0, "time_seconds": 0.01, "path_deviation_pct": 0.0,
    "search_space_pct": 10.0, "peak_memory_mb": 0.1, "obstacle_clearance_cells": None,
    "smoothness_deg": 0.0, "planner": "astar", "map_id": "m0", "map_type": "uniform",
    "hardware_tag": "local", "seed": 1, "failure_reason": None,
}


def write_one_row(path, **changes):
    row = {**_GOOD_ROW, **changes}
    path.write_text(f'{{"schema": "{RESULT_SCHEMA}", "warnings": []}}\n{json.dumps(row)}\n')
    return path


def test_plot_reads_a_well_typed_row(tmp_path):
    res = write_one_row(tmp_path / "ok.pbr1")
    assert main(["plot", str(res), "--kinds", "bar", "--out", str(tmp_path)]) == 0
    assert load_results(str(res)).runs[0].success is True


@pytest.mark.parametrize(
    "field, value",
    [
        ("time_seconds", "abc"),
        ("time_seconds", True),
        ("planner", 5),
        ("success", "no"),
        ("success", 1),
        ("seed", True),
        ("seed", 1.5),
        ("path_cell_count", 4.0),
        ("map_id", None),
        ("failure_reason", 5),
    ],
)
def test_plot_mistyped_result_row_is_data_error(field, value, tmp_path, capsys):
    bad = write_one_row(tmp_path / "bad.pbr1", **{field: value})
    rc = main(["plot", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and repr(field) in err and "line 2" in err


def test_plot_unknown_metric_is_usage_error(tmp_path, capsys):
    res = tmp_path / "res"
    assert main(bench_args(res)) == 0
    rc = main(["plot", str(res / "results.pbr1"), "--x", "vibes",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "vibes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file and environment overlay


def test_config_file_fills_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment config\n"
        "seed = 7\n"
        "n = 2\n"
        "types = uniform\n"
        "extent = 12 12\n"
        "planners = astar\n"
        "plots = none\n"
    )
    out = tmp_path / "r1"
    rc = main(["benchmark", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "master seed: 7" in capsys.readouterr().out
    out2 = tmp_path / "r2"
    rc = main(["benchmark", "--config", str(cfg), "--seed", "9", "--out", str(out2)])
    assert rc == 0
    assert "master seed: 9" in capsys.readouterr().out


def test_environment_sits_below_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PBGRID_SEED", "11")
    rc = main(["benchmark", "--simple", "--n", "2", "--types", "uniform",
               "--extent", "12", "12", "--planners", "astar",
               "--plots", "none", "--out", str(tmp_path / "env")])
    assert rc == 0
    assert "master seed: 11" in capsys.readouterr().out
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 7\n")
    rc = main(["benchmark", "--simple", "--n", "2", "--types", "uniform",
               "--extent", "12", "12", "--planners", "astar",
               "--plots", "none", "--config", str(cfg),
               "--out", str(tmp_path / "cfg")])
    assert rc == 0
    assert "master seed: 7" in capsys.readouterr().out


def test_abbreviated_flag_wins_over_environment(monkeypatch, capsys):
    monkeypatch.setenv("PBGRID_SEED", "7")
    assert main(["run", FIXTURE, "--planner", "astar", "--se", "3"]) == 0
    assert "seed: 3" in capsys.readouterr().out
    assert main(["run", FIXTURE, "--planner", "astar", "--se=4"]) == 0
    assert "seed: 4" in capsys.readouterr().out
    assert main(["run", FIXTURE, "--planner", "astar"]) == 0
    assert "seed: 7" in capsys.readouterr().out


def test_positionals_take_no_file_or_environment_value(tmp_path, monkeypatch, capsys):
    u_trap = "tests/fixtures/u_trap.map"
    monkeypatch.setenv("PBGRID_MAP", "/nonexistent")
    assert main(["run", u_trap, "--planner", "astar"]) == 0
    assert f"map: {u_trap}" in capsys.readouterr().out
    monkeypatch.delenv("PBGRID_MAP")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("map = /nonexistent\n")
    assert main(["run", u_trap, "--planner", "astar", "--config", str(cfg)]) == 0
    assert f"map: {u_trap}" in capsys.readouterr().out
    monkeypatch.setenv("PBGRID_RESULTS", "/nonexistent")
    res = write_one_row(tmp_path / "ok.pbr1")
    assert main(["plot", str(res), "--kinds", "bar", "--out", str(tmp_path)]) == 0


def _runs_per_map(out, capsys):
    capsys.readouterr()
    return load_results(str(out / "results.pbr1")).meta["runs_per_map"]


def test_simple_flag_beats_file_and_environment(tmp_path, monkeypatch, capsys):
    args = ["benchmark", "--n", "1", "--x", "3", "--types", "uniform", "--extent", "12", "12",
            "--planners", "astar", "--plots", "none"]
    out = tmp_path / "res"
    monkeypatch.setenv("PBGRID_COMPLEX", "1")
    assert main(args + ["--out", str(out)]) == 0
    assert _runs_per_map(out, capsys) == 3
    assert main(args + ["--simple", "--out", str(out)]) == 0
    assert _runs_per_map(out, capsys) == 1
    monkeypatch.delenv("PBGRID_COMPLEX")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("complex = true\n")
    assert main(args + ["--config", str(cfg), "--out", str(out)]) == 0
    assert _runs_per_map(out, capsys) == 3
    assert main(args + ["--config", str(cfg), "--simple", "--out", str(out)]) == 0
    assert _runs_per_map(out, capsys) == 1


def test_unknown_boolean_word_is_usage_error(tmp_path, monkeypatch, capsys):
    args = ["benchmark", "--n", "1", "--types", "uniform", "--extent", "12", "12",
            "--planners", "astar", "--plots", "none", "--out", str(tmp_path / "res")]
    monkeypatch.setenv("PBGRID_COMPLEX", "maybe")
    assert main(args) == 1
    assert "usage error" in capsys.readouterr().err
    monkeypatch.delenv("PBGRID_COMPLEX")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("complex = maybe\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert "'maybe'" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_config_file_dotted_planner_params(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rrt.step = 1\nseed = 5\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["run", FIXTURE, "--planner", "rrt", "--config", str(cfg),
                 "--tree", str(a)]) == 0
    assert main(["run", FIXTURE, "--planner", "rrt", "--seed", "5",
                 "--rrt.step", "1", "--tree", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_planner_param_flag_beats_file_however_spelled(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d-rrt.step_cells = 6\n")
    run = ["run", FIXTURE, "--planner", "rrt", "--seed", "5"]
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    assert main(run + ["--rrt.step", "1", "--config", str(cfg), "--tree", str(a)]) == 0
    assert main(run + ["--rrt.step", "1", "--tree", str(b)]) == 0
    assert main(run + ["--config", str(cfg), "--tree", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("key, value", [("fill", "0.1"), ("fill", "0.1 0.2 0.3"), ("extent", "")])
def test_config_value_with_wrong_token_count_is_usage_error(key, value, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {value}\n")
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "maps")])
    assert rc == 1
    assert f"bad config value {value!r} for {key}" in capsys.readouterr().err


def test_environment_value_is_checked_even_when_a_flag_wins(monkeypatch, capsys):
    monkeypatch.setenv("PBGRID_SEED", "abc")
    assert main(["run", FIXTURE, "--planner", "astar", "--seed", "3"]) == 1
    assert "bad config value 'abc' for seed" in capsys.readouterr().err


def test_config_file_bad_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("just a dangling token\n")
    rc = main(["run", FIXTURE, "--planner", "astar", "--config", str(cfg)])
    assert rc == 1
    assert "key = value" in capsys.readouterr().err
