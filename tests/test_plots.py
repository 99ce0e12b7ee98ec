"""Chart rendering tests: heights, fallbacks, determinism, embedded data."""

import re

import numpy as np
import pytest

from pbgrid.analyzer import AggregateStats, RunRecord
from pbgrid.mapgen import ConfigError
from pbgrid.plots import emit_plots


def run_record(planner, *, dev, tag="local", map_type="uniform", success=True, seed=0):
    return RunRecord(
        planner=planner,
        map_id="m",
        map_type=map_type,
        hardware_tag=tag,
        seed=seed,
        success=success,
        path_length_cells=12.0 if success else None,
        path_cell_count=13 if success else None,
        distance_left_cells=0.0 if success else 5.0,
        time_seconds=0.5,
        path_deviation_pct=dev if success else None,
        search_space_pct=40.0,
        peak_memory_mb=1.0,
        obstacle_clearance_cells=2.5 if success else None,
        smoothness_deg=15.0 if success else None,
        failure_reason=None if success else "unreachable",
    )


def stats_two_planners():
    return AggregateStats(
        runs=(
            run_record("astar", dev=0.0, seed=1),
            run_record("astar", dev=4.0, seed=2),
            run_record("astar", dev=8.0, seed=3),
            run_record("d-rrt", dev=20.0, seed=1),
            run_record("d-rrt", dev=24.0, seed=2),
            run_record("d-rrt", dev=28.0, seed=3),
        )
    )


def rect_heights(svg):
    # Skip the full-canvas background rectangle.
    heights = []
    for m in re.finditer(r'<rect [^>]*height="([0-9.e+-]+)"[^>]*fill="([^"]+)"', svg):
        if m.group(2) != "white":
            heights.append(float(m.group(1)))
    return heights


def test_bar_heights_match_means(tmp_path):
    written = emit_plots(stats_two_planners(), str(tmp_path), kinds=("bar",))
    svg = open(written["bar"], encoding="utf-8").read()
    heights = rect_heights(svg)
    assert len(heights) == 2
    # mean deviations are 4 and 24; bars scale linearly from zero
    assert heights[1] == pytest.approx(heights[0] * 6.0, rel=1e-6)
    assert "astar\tuniform\tlocal\t4\t3" in svg
    assert "d-rrt\tuniform\tlocal\t24\t3" in svg


def test_plots_are_deterministic(tmp_path):
    stats = stats_two_planners()
    first = {
        kind: open(path, encoding="utf-8").read()
        for kind, path in emit_plots(stats, str(tmp_path / "a")).items()
    }
    second = {
        kind: open(path, encoding="utf-8").read()
        for kind, path in emit_plots(stats, str(tmp_path / "b")).items()
    }
    assert first == second


def test_violin_draws_polygons(tmp_path):
    rng = np.random.default_rng(5)
    runs = tuple(
        run_record("astar", dev=float(rng.normal(10, 2)), seed=i) for i in range(30)
    )
    stats = AggregateStats(runs=runs)
    written = emit_plots(stats, str(tmp_path), kinds=("violin",))
    svg = open(written["violin"], encoding="utf-8").read()
    assert svg.count("<polygon") == 1
    assert "warning:" not in svg


def test_violin_falls_back_to_bar_below_two_samples(tmp_path):
    stats = AggregateStats(runs=(run_record("astar", dev=3.0),))
    written = emit_plots(stats, str(tmp_path), kinds=("violin",))
    svg = open(written["violin"], encoding="utf-8").read()
    assert "<polygon" not in svg
    assert "warning: fewer than two samples" in svg
    assert len(rect_heights(svg)) == 1


def test_violin_zero_spread_also_falls_back(tmp_path):
    stats = AggregateStats(
        runs=tuple(run_record("astar", dev=0.0, seed=i) for i in range(5))
    )
    written = emit_plots(stats, str(tmp_path), kinds=("violin",))
    svg = open(written["violin"], encoding="utf-8").read()
    assert "warning: zero spread" in svg


def test_violin_zero_density_falls_back(tmp_path):
    # astar's spread of 1e-12 gives a bandwidth so narrow that its density
    # underflows to 0.0 on a value grid padded to fit d-rrt's wide spread
    devs = [1.0] * 50 + [1.0 + 1e-12]
    runs = [run_record("astar", dev=d, seed=i) for i, d in enumerate(devs)]
    runs += [run_record("d-rrt", dev=float(d), seed=d) for d in range(0, 40, 4)]
    written = emit_plots(AggregateStats(runs=tuple(runs)), str(tmp_path), kinds=("violin",))
    svg = open(written["violin"], encoding="utf-8").read()
    assert not re.search(r"\bnan\b", svg, re.IGNORECASE)
    assert svg.count("<polygon") == 1  # d-rrt's violin
    assert "warning: zero density for astar/uniform; drew a bar instead" in svg


def test_scatter_two_tags_two_colors_one_shape(tmp_path):
    stats = AggregateStats(
        runs=(
            run_record("astar", dev=0.0, tag="desk", seed=1),
            run_record("astar", dev=0.0, tag="lab", seed=1),
            run_record("d-rrt", dev=20.0, tag="desk", seed=1),
            run_record("d-rrt", dev=20.0, tag="lab", seed=1),
        )
    )
    written = emit_plots(stats, str(tmp_path), kinds=("scatter",))
    svg = open(written["scatter"], encoding="utf-8").read()
    rows = [
        line
        for line in svg.splitlines()
        if line.startswith(("astar\t", "d-rrt\t"))
    ]
    assert len(rows) == 4
    shape = {row.split("\t")[0]: row.split("\t")[5] for row in rows}
    colors = {row.split("\t")[0]: set() for row in rows}
    for row in rows:
        colors[row.split("\t")[0]].add(row.split("\t")[6])
    assert len({shape["astar"], shape["d-rrt"]}) == 2
    assert len(colors["astar"]) == 2 and colors["astar"] == colors["d-rrt"]
    assert "desk" in svg and "lab" in svg


def test_scatter_skips_cells_without_samples(tmp_path):
    stats = AggregateStats(
        runs=(
            run_record("astar", dev=0.0),
            run_record("bug1", dev=None, success=False),
        )
    )
    written = emit_plots(stats, str(tmp_path), kinds=("scatter",))
    svg = open(written["scatter"], encoding="utf-8").read()
    assert "warning: missing obstacle_clearance_cells for bug1/uniform" in svg


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ConfigError):
        emit_plots(stats_two_planners(), str(tmp_path), kinds=("pie",))


def test_each_kind_embeds_a_data_table(tmp_path):
    written = emit_plots(stats_two_planners(), str(tmp_path))
    assert set(written) == {"bar", "violin", "scatter"}
    for path in written.values():
        svg = open(path, encoding="utf-8").read()
        assert svg.startswith("<!--")
        assert "astar" in svg.split("-->")[0]
        assert "</svg>" in svg
