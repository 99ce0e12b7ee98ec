"""Release gates: eleven end-to-end checks over the whole stack.

Each test prints one `[criterion N] PASS` / `FAIL` line (visible with -s;
the pytest verdict carries the same information) and covers one numbered
release criterion, from exact graph-planner optimality through the full
benchmark table. Oracles here are written independently of the library:
move legality, flood-fill solvability, BFS distances, and all metric
golden values are restated inline rather than imported.

Suites are seeded and deterministic. Where two criteria are defined over
the same suite (1/2 share the 500-map suite, 3/5 the 300-map suite) the
planner runs are computed once and cached; the timing window of the test
that triggers the work absorbs it, so every stated runtime cap is
measured conservatively.
"""

import csv
import dataclasses
import itertools
import json
import math
import time
from collections import deque
from functools import lru_cache
from pathlib import Path as FilePath

import numpy as np
import pytest

from pbgrid.analyzer import (
    REPORT_COLUMNS,
    BenchmarkSpec,
    GeneratedSource,
    PlannerConfig,
    save_results,
    simple_analysis,
)
from pbgrid.cli import main
from pbgrid.grid import (
    Connectivity,
    GridMap,
    MoveModel,
    Path,
    distance_transform,
)
from pbgrid.mapgen import GenConfig, MapType, generate, place_agent_goal
from pbgrid.mapio import ParseError, load_native, parse_movingai, save_native
from pbgrid.metrics import (
    obstacle_clearance,
    path_deviation_pct,
    search_space_pct,
    smoothness_deg,
)
from pbgrid.planners.base import LOCAL_MINIMUM, SearchTrace
from pbgrid.planners.graph import astar, dijkstra, wavefront
from pbgrid.planners.local import bug1, bug2, potential_field
from pbgrid.planners.sampling import SamplerParams, d_rrt, d_rrt_connect, d_sprm

FULL = MoveModel(Connectivity.FULL)
ORTH = MoveModel(Connectivity.ORTHOGONAL)
FIXTURES = FilePath(__file__).parent / "fixtures"


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Independent oracles


def _oracle_moves(occ, cell):
    """Legal moves restated from scratch: free in-bounds target, and every
    strictly smaller combination of the moved axes lands on a free cell."""
    extent = occ.shape
    for delta in itertools.product((-1, 0, 1), repeat=occ.ndim):
        if not any(delta):
            continue
        nxt = tuple(c + d for c, d in zip(cell, delta))
        if any(n < 0 or n >= e for n, e in zip(nxt, extent)) or occ[nxt]:
            continue
        axes = [i for i, d in enumerate(delta) if d]
        blocked = False
        for r in range(1, len(axes)):
            for combo in itertools.combinations(axes, r):
                probe = tuple(
                    c + (d if i in combo else 0)
                    for i, (c, d) in enumerate(zip(cell, delta))
                )
                if occ[probe]:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            yield nxt


def _solvable_reference(grid: GridMap) -> bool:
    """Flood fill from the agent over oracle moves, one cell tuple at a time."""
    occ = grid.occupancy
    seen = {grid.agent}
    stack = [grid.agent]
    while stack:
        cur = stack.pop()
        if cur == grid.goal:
            return True
        for nxt in _oracle_moves(occ, cur):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


@lru_cache(maxsize=None)
def _oracle_probes(ndim):
    """Per move vector, the cells that must be free to take it, as offsets:
    the target and every strictly smaller combination of the moved axes
    (the rule _oracle_moves states)."""
    table = []
    for delta in itertools.product((-1, 0, 1), repeat=ndim):
        axes = [i for i, d in enumerate(delta) if d]
        if not axes:
            continue
        probes = [delta]
        for r in range(1, len(axes)):
            for combo in itertools.combinations(axes, r):
                probes.append(tuple(d if i in combo else 0 for i, d in enumerate(delta)))
        table.append((delta, tuple(probes)))
    return tuple(table)


def _solvable(grid: GridMap) -> bool:
    """_solvable_reference on flat indices: the map is padded with one layer
    of obstacles, so no probe needs a bounds check."""
    occ = np.pad(grid.occupancy, 1, constant_values=True)
    strides = [int(np.prod(occ.shape[i + 1:])) for i in range(occ.ndim)]

    def flat(offset):
        return sum(o * s for o, s in zip(offset, strides))

    blocked = occ.reshape(-1).tolist()
    moves = [
        (flat(delta), tuple(flat(p) for p in probes))
        for delta, probes in _oracle_probes(occ.ndim)
    ]
    start = flat(c + 1 for c in grid.agent)
    goal = flat(c + 1 for c in grid.goal)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        if cur == goal:
            return True
        for step, probes in moves:
            nxt = cur + step
            if nxt in seen:
                continue
            for p in probes:
                if blocked[cur + p]:
                    break
            else:
                seen.add(nxt)
                stack.append(nxt)
    return False


def test_flat_flood_fill_matches_reference():
    # small maps at every density, endpoints anywhere free, so the corner-cut
    # probes and the padded border decide many of the verdicts
    rng = np.random.default_rng(5)
    verdicts = set()
    for shape in ((1, 7), (6, 6), (9, 5), (3, 1, 4), (4, 4, 4)):
        for fill in (0.2, 0.35, 0.5):
            for _ in range(40):
                occ = rng.random(shape) < fill
                free = np.argwhere(~occ)
                if len(free) < 2:
                    continue
                a, b = rng.choice(len(free), size=2, replace=False)
                g = GridMap(occ, agent=tuple(free[a]), goal=tuple(free[b]))
                assert _solvable(g) == _solvable_reference(g)
                verdicts.add(_solvable(g))
    assert verdicts == {True, False}


def _bfs_steps(occ, start, goal):
    """Unit-cost breadth-first distance over orthogonal moves, or None."""
    if start == goal:
        return 0
    extent = occ.shape
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cur, depth = queue.popleft()
        for axis in range(occ.ndim):
            for sign in (-1, 1):
                nxt = tuple(
                    c + (sign if i == axis else 0) for i, c in enumerate(cur)
                )
                if nxt in seen:
                    continue
                if any(n < 0 or n >= e for n, e in zip(nxt, extent)) or occ[nxt]:
                    continue
                if nxt == goal:
                    return depth + 1
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    return None


def _nearest_obstacle(occ, cell) -> float:
    return min(
        math.dist(cell, tuple(o)) for o in np.argwhere(occ)
    )


# ---------------------------------------------------------------------------
# Shared suites (built once, seeds fixed)

_MIXED_500 = (
    [MapType.UNIFORM_RANDOM_FILL] * 167 + [MapType.BLOCK] * 167 + [MapType.HOUSE] * 166
)
_MIXED_200 = (
    [MapType.UNIFORM_RANDOM_FILL] * 67 + [MapType.BLOCK] * 67 + [MapType.HOUSE] * 66
)
_MIXED_100_3D = (
    [MapType.UNIFORM_RANDOM_FILL] * 34 + [MapType.BLOCK] * 33 + [MapType.HOUSE] * 33
)


def _instance(map_type, extent, gen_seed, endpoint_seed) -> GridMap:
    g = generate(GenConfig(map_type=map_type, extent=extent, seed=gen_seed))
    return place_agent_goal(g, np.random.default_rng(endpoint_seed))


@lru_cache(maxsize=None)
def _suite_500():
    return tuple(
        _instance(mt, (64, 64), 10_000 + i, 60_000 + i)
        for i, mt in enumerate(_MIXED_500)
    )


@lru_cache(maxsize=None)
def _graph_eval_500():
    """(astar success, astar cost, dijkstra success, dijkstra cost) per map."""
    rows = []
    for g in _suite_500():
        a = astar(g, FULL)
        d = dijkstra(g, FULL)
        rows.append(
            (
                a.success,
                a.path.cost if a.success else None,
                d.success,
                d.path.cost if d.success else None,
            )
        )
    return tuple(rows)


@lru_cache(maxsize=None)
def _suite_300_uniform():
    return tuple(
        _instance(MapType.UNIFORM_RANDOM_FILL, (64, 64), 20_000 + i, 70_000 + i)
        for i in range(300)
    )


@lru_cache(maxsize=None)
def _uniform_eval_300():
    """Per-map (astar, dijkstra, wavefront) successes, costs and times."""
    rows = []
    for g in _suite_300_uniform():
        a = astar(g, FULL)
        d = dijkstra(g, FULL)
        w = wavefront(g, FULL)
        rows.append(
            {
                "astar": (a.success, a.path.cost if a.success else None, a.elapsed_seconds),
                "dijkstra": (d.success, d.path.cost if d.success else None, d.elapsed_seconds),
                "wavefront": (w.success, w.path.cost if w.success else None, w.elapsed_seconds),
            }
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# 1. Exact optimality of the heap searches


def test_criterion_01_graph_planners_exactly_optimal():
    t0 = time.perf_counter()
    zero_dev = True
    for a_ok, a_cost, d_ok, d_cost in _graph_eval_500():
        if a_ok != d_ok:
            zero_dev = False
        elif a_ok and path_deviation_pct(a_cost, d_cost) != 0.0:
            zero_dev = False

    # small-map half: cost equality against a BFS oracle under unit steps
    rng = np.random.default_rng(123)
    bfs_ok = True
    compared = 0
    for _ in range(150):
        size = int(rng.integers(3, 9))
        occ = rng.random((size, size)) < rng.uniform(0.0, 0.5)
        free = np.argwhere(~occ)
        if len(free) < 2:
            continue
        picks = rng.choice(len(free), size=2, replace=False)
        g = GridMap(occ, agent=tuple(free[picks[0]]), goal=tuple(free[picks[1]]))
        steps = _bfs_steps(occ, g.agent, g.goal)
        for planner in (astar, dijkstra):
            out = planner(g, ORTH)
            if out.success != (steps is not None):
                bfs_ok = False
            elif out.success and out.path.cost != float(steps):
                bfs_ok = False
        compared += 1
    elapsed = time.perf_counter() - t0
    ok = zero_dev and bfs_ok and compared >= 100 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"astar/dijkstra deviation exactly 0.00 on 500 maps: {zero_dev}; "
        f"BFS-oracle equality on {compared} small maps: {bfs_ok}; {elapsed:.1f}s (cap 60s)",
    )


# ---------------------------------------------------------------------------
# 2. Completeness against a flood-fill oracle


def test_criterion_02_graph_planner_completeness():
    t0 = time.perf_counter()
    graph_rows = _graph_eval_500()
    ok = True
    for g, (a_ok, _, d_ok, _) in zip(_suite_500(), graph_rows):
        reachable = _solvable(g)
        w_ok = wavefront(g, FULL).success
        if not (a_ok == d_ok == w_ok == reachable):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"astar/dijkstra/wavefront success == flood-fill solvability on 500 maps; "
        f"{elapsed:.1f}s (cap 60s)",
    )


# ---------------------------------------------------------------------------
# 3. Wavefront deviation band


def test_criterion_03_wavefront_deviation_band():
    t0 = time.perf_counter()
    devs = []
    for row in _uniform_eval_300():
        a_ok, a_cost, _ = row["astar"]
        w_ok, w_cost, _ = row["wavefront"]
        if a_ok and w_ok:
            devs.append(path_deviation_pct(w_cost, a_cost))
    mean_dev = float(np.mean(devs))
    elapsed = time.perf_counter() - t0
    ok = len(devs) >= 250 and mean_dev <= 2.0 and elapsed < 120.0
    _verdict(
        3,
        ok,
        f"wavefront mean deviation {mean_dev:.3f}% over {len(devs)} uniform maps "
        f"(band <= 2%); {elapsed:.1f}s (cap 120s)",
    )


# ---------------------------------------------------------------------------
# 4. Sampler success and deviation-ordering bands


def test_criterion_04_sampler_bands():
    t0 = time.perf_counter()
    succ = {"d-rrt-connect": 0, "d-rrt": 0, "d-sprm": 0}
    devs = {"d-rrt-connect": [], "d-sprm": []}
    solvable = 0
    for i, mt in enumerate(_MIXED_200):
        g = _instance(mt, (64, 64), 1000 + i, 5000 + i)
        base = astar(g, FULL)
        if not base.success:
            continue
        solvable += 1
        params = SamplerParams(seed=1000 + i)
        for name, fn in (
            ("d-rrt-connect", d_rrt_connect),
            ("d-rrt", d_rrt),
            ("d-sprm", d_sprm),
        ):
            out = fn(g, FULL, params)
            if out.success:
                succ[name] += 1
                if name in devs:
                    devs[name].append(path_deviation_pct(out.path.cost, base.path.cost))
    connect_rate = 100.0 * succ["d-rrt-connect"] / solvable
    rrt_rate = 100.0 * succ["d-rrt"] / solvable
    sprm_mean = float(np.mean(devs["d-sprm"]))
    connect_mean = float(np.mean(devs["d-rrt-connect"]))
    elapsed = time.perf_counter() - t0
    ok = (
        connect_rate >= 95.0
        and rrt_rate >= 90.0
        and sprm_mean > connect_mean
        and elapsed < 600.0
    )
    _verdict(
        4,
        ok,
        f"connect success {connect_rate:.1f}% (>=95), rrt success {rrt_rate:.1f}% (>=90), "
        f"deviation ordering sprm {sprm_mean:.2f}% > connect {connect_mean:.2f}%; "
        f"{solvable} solvable maps, {elapsed:.1f}s (cap 600s)",
    )


# ---------------------------------------------------------------------------
# 5. Timing ordering among the graph planners


def test_criterion_05_graph_timing_ordering():
    rows = _uniform_eval_300()
    a_mean = float(np.mean([r["astar"][2] for r in rows]))
    d_mean = float(np.mean([r["dijkstra"][2] for r in rows]))
    w_mean = float(np.mean([r["wavefront"][2] for r in rows]))
    ok = a_mean < d_mean and a_mean < w_mean
    _verdict(
        5,
        ok,
        f"mean times on the 300-map suite: astar {a_mean * 1e3:.2f}ms < "
        f"dijkstra {d_mean * 1e3:.2f}ms and < wavefront {w_mean * 1e3:.2f}ms",
    )


# ---------------------------------------------------------------------------
# 6. 3D trend


def test_criterion_06_three_dimensional_trend():
    t0 = time.perf_counter()
    solvable = 0
    graph_all = 0
    conn_succ = 0
    devs = []
    for i, mt in enumerate(_MIXED_100_3D):
        g = _instance(mt, (28, 28, 28), 3000 + i, 7000 + i)
        if not _solvable(g):
            continue
        solvable += 1
        a = astar(g, FULL)
        d = dijkstra(g, FULL)
        w = wavefront(g, FULL)
        if a.success and d.success and w.success:
            graph_all += 1
        c = d_rrt_connect(g, FULL, SamplerParams(seed=3000 + i))
        if c.success:
            conn_succ += 1
            devs.append(path_deviation_pct(c.path.cost, a.path.cost))
    mean_dev = float(np.mean(devs))
    elapsed = time.perf_counter() - t0
    ok = (
        solvable > 0
        and graph_all == solvable
        and 5.0 <= mean_dev <= 40.0
        and elapsed < 600.0
    )
    _verdict(
        6,
        ok,
        f"graph planners succeed on {graph_all}/{solvable} solvable 28^3 maps; "
        f"connect mean deviation {mean_dev:.2f}% in [5,40] "
        f"({conn_succ} successes); {elapsed:.1f}s (cap 600s)",
    )


# ---------------------------------------------------------------------------
# 7. Determinism: rerun and parallelism invariance


def _result_rows(path: FilePath):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    rows = []
    for line in lines[1:]:
        row = json.loads(line)
        row.pop("time_seconds")
        row.pop("peak_memory_mb")
        rows.append(row)
    return header, rows


def test_criterion_07_benchmark_determinism(tmp_path):
    planners = tuple(
        PlannerConfig(name)
        for name in (
            "astar",
            "dijkstra",
            "wavefront",
            "d-rrt",
            "d-rrt-connect",
            "d-sprm",
            "bug2",
            "potential-field",
        )
    )
    sources = tuple(
        GeneratedSource(GenConfig(map_type=mt, extent=(24, 24), seed=7), 3)
        for mt in MapType
    )
    spec = BenchmarkSpec(planners=planners, map_sources=sources, master_seed=99)
    paths = []
    for tag, run_spec in (
        ("first", spec),
        ("second", spec),
        ("par4", dataclasses.replace(spec, parallelism=4)),
    ):
        stats = simple_analysis(run_spec)
        out = tmp_path / f"{tag}.pbr1"
        save_results(stats, str(out))
        paths.append(out)
    first, second, par4 = (_result_rows(p) for p in paths)
    ok = first == second == par4 and len(first[1]) == 8 * 9
    _verdict(
        7,
        ok,
        f"result files identical modulo time/memory across rerun and "
        f"parallelism 1 vs 4 ({len(first[1])} runs compared)",
    )


# ---------------------------------------------------------------------------
# 8. Metric golden values on the committed fixture


def test_criterion_08_metric_oracles():
    g = load_native((FIXTURES / "metric_fixture.map").read_text())
    occ = g.occupancy
    field = distance_transform(g)
    tol = 1e-9

    # distance transform vs brute force over every cell, plus two hand values
    dt_ok = all(
        abs(float(field.values[c]) - (0.0 if occ[c] else _nearest_obstacle(occ, c)))
        <= tol
        for c in np.ndindex(occ.shape)
    )
    dt_ok = (
        dt_ok
        and abs(float(field.values[0, 0]) - 2.0 * math.sqrt(2.0)) <= tol
        and abs(float(field.values[5, 5]) - math.sqrt(13.0)) <= tol
    )

    # a fixed legal detour walk: costs, clearance, smoothness, deviation
    detour = Path.from_cells(
        [(0, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 4), (4, 4)]
    )
    base = astar(g, FULL)
    cost_ok = (
        abs(detour.cost - (4.0 + 3.0 * math.sqrt(2.0))) <= tol
        and base.success
        and abs(base.path.cost - (6.0 + math.sqrt(2.0))) <= tol
    )
    dev_hand = 100.0 * ((4.0 + 3.0 * math.sqrt(2.0)) / (6.0 + math.sqrt(2.0)) - 1.0)
    dev_ok = abs(path_deviation_pct(detour.cost, base.path.cost) - dev_hand) <= tol

    clear_hand = (5.0 * math.sqrt(2.0) + 4.0 + math.sqrt(5.0)) / 8.0
    clear_ok = abs(obstacle_clearance(detour, field) - clear_hand) <= tol

    smooth_ok = abs(smoothness_deg(detour) - 37.5) <= tol

    trace = SearchTrace(explored=set(detour.cells), frontier_peak=4)
    search_ok = abs(search_space_pct(trace, g) - 100.0 * 8.0 / 33.0) <= tol

    ok = dt_ok and cost_ok and dev_ok and clear_ok and smooth_ok and search_ok
    _verdict(
        8,
        ok,
        "distance transform, clearance, smoothness, deviation and search-space "
        f"match hand values to 1e-9 (dt {dt_ok}, cost {cost_ok}, dev {dev_ok}, "
        f"clearance {clear_ok}, smoothness {smooth_ok}, search {search_ok})",
    )


# ---------------------------------------------------------------------------
# 9. Format suite


def _random_map(rng) -> GridMap:
    if rng.random() < 0.5:
        extent = tuple(int(rng.integers(3, 13)) for _ in range(2))
    else:
        extent = tuple(int(rng.integers(3, 9)) for _ in range(3))
    occ = rng.random(extent) < rng.uniform(0.0, 0.45)
    free = np.argwhere(~occ)
    agent = goal = None
    if len(free) >= 2 and rng.random() < 0.5:
        picks = rng.choice(len(free), size=2, replace=False)
        agent = tuple(int(c) for c in free[picks[0]])
        goal = tuple(int(c) for c in free[picks[1]])
    return GridMap(occ, agent=agent, goal=goal)


_MALFORMED_NATIVE = [
    "",
    "pbgrid v1\ndims 2\nextent 2 2\nagent -\ngoal -\n..\n..",  # no final newline
    "pbgrid v9\ndims 2\nextent 2 2\nagent -\ngoal -\n..\n..\n",
    "pbgrid v1\ndims 4\nextent 2 2 2 2\nagent -\ngoal -\n",
    "pbgrid v1\ndims 2\nextent 2 two\nagent -\ngoal -\n..\n..\n",
    "pbgrid v1\ndims 2\nextent 2 2\nagent -\ngoal -\n...\n..\n",
    "pbgrid v1\ndims 2\nextent 2 2\nagent -\ngoal -\n..\n.?\n",
    "pbgrid v1\ndims 2\nextent 3 3\nagent -\ngoal -\n...\n...\n",
    "pbgrid v1\ndims 2\nextent 2 2\nagent 5 5\ngoal -\n..\n..\n",
]

_MALFORMED_MOVINGAI = [
    "",
    "height 4\nwidth 4\nmap\n....\n....\n....\n....",
    "type octile\nheight x\nwidth 4\nmap\n....",
    "type octile\nheight 2\nwidth 4\nmap\n....\n..",
    "type octile\nheight 2\nwidth 2\nmap\n..\n.?",
    "type octile\nheight 3\nwidth 2\nmap\n..\n..",
]


def test_criterion_09_format_suite():
    rng = np.random.default_rng(4242)
    round_ok = True
    for _ in range(1000):
        g = _random_map(rng)
        if load_native(save_native(g)) != g:
            round_ok = False

    movingai_files = sorted((FIXTURES / "movingai").iterdir())
    ext_ok = len(movingai_files) == 10
    for path in movingai_files:
        g = parse_movingai(path.read_text())
        if load_native(save_native(g)) != g:
            ext_ok = False

    located_ok = True
    for loader, cases in (
        (load_native, _MALFORMED_NATIVE),
        (parse_movingai, _MALFORMED_MOVINGAI),
    ):
        for text in cases:
            try:
                loader(text)
                located_ok = False
            except ParseError as err:
                if not (isinstance(err.line, int) and err.line >= 1):
                    located_ok = False

    # mutation fuzz: parse or raise a located error, never crash
    native_base = save_native(_random_map(np.random.default_rng(7)))
    moving_base = movingai_files[0].read_text()
    fuzz_ok = True
    for i in range(200):
        base, loader = (
            (native_base, load_native) if i % 2 else (moving_base, parse_movingai)
        )
        chars = list(base)
        op = rng.integers(3)
        pos = int(rng.integers(len(chars)))
        if op == 0:
            del chars[pos]
        elif op == 1:
            chars.insert(pos, chr(int(rng.integers(32, 127))))
        else:
            chars[pos] = chr(int(rng.integers(32, 127)))
        try:
            loader("".join(chars))
        except ParseError:
            pass
        except Exception:
            fuzz_ok = False

    ok = round_ok and ext_ok and located_ok and fuzz_ok
    _verdict(
        9,
        ok,
        f"1000 native round-trips: {round_ok}; 10 external files through native: "
        f"{ext_ok}; malformed inputs located: {located_ok}; fuzz safe: {fuzz_ok}",
    )


# ---------------------------------------------------------------------------
# 10. Bug and potential-field walk properties


def test_criterion_10_local_planner_properties():
    pairs = 0
    pair_ok = True
    i = 0
    while pairs < 100 and i < 400:
        g = _instance(MapType.BLOCK, (64, 64), 40_000 + i, 80_000 + i)
        i += 1
        one = bug1(g, FULL)
        two = bug2(g, FULL)
        if not (one.success and two.success):
            continue
        pairs += 1
        if two.path.cell_count > one.path.cell_count:
            pair_ok = False

    walk_ok = True
    cases = [
        _instance(MapType.UNIFORM_RANDOM_FILL, (24, 24), 52_000 + k, 82_000 + k)
        for k in range(50)
    ]
    trap = load_native((FIXTURES / "u_trap.map").read_text())
    cases.append(trap)
    for g in cases:
        out = potential_field(g, FULL)
        log = out.trace.step_log
        if not log:
            walk_ok = False
            continue
        occ = g.occupancy
        k_att = 1.0 / max(g.extent) ** 2
        has_obstacles = bool(occ.any())
        prev = None
        for cell, logged_u, _mode in log:
            u = k_att * float(sum((a - b) ** 2 for a, b in zip(cell, g.goal)))
            if has_obstacles:
                d = _nearest_obstacle(occ, cell)
                if d < 5.0:
                    u += 100.0 * (1.0 / d - 1.0 / 5.0) ** 2
            if abs(u - logged_u) > 1e-9:
                walk_ok = False
            if prev is not None and logged_u > prev + 1e-12:
                walk_ok = False
            prev = logged_u
    trap_out = potential_field(trap, FULL)
    trap_ok = (not trap_out.success) and trap_out.failure_reason == LOCAL_MINIMUM

    ok = pairs == 100 and pair_ok and walk_ok and trap_ok
    _verdict(
        10,
        ok,
        f"bug2 <= bug1 traversal on {pairs} paired block maps: {pair_ok}; "
        f"potential non-increasing and re-derivable along every walk: {walk_ok}; "
        f"U-trap ends in {trap_out.failure_reason}: {trap_ok}",
    )


# ---------------------------------------------------------------------------
# 11. End-to-end benchmark table


def test_criterion_11_end_to_end_table(tmp_path):
    t0 = time.perf_counter()
    out_dir = tmp_path / "bench"
    rc = main(
        [
            "benchmark",
            "--simple",
            "--n",
            "100",
            "--planners",
            "astar,dijkstra,wavefront,d-rrt,d-rrt-connect,d-sprm",
            "--plots",
            "none",
            "--out",
            str(out_dir),
        ]
    )
    elapsed = time.perf_counter() - t0
    report = out_dir / "report.csv"
    with report.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    header_ok = tuple(header) == REPORT_COLUMNS
    types = {row["map_type"] for row in rows}
    planners = {row["planner"] for row in rows}
    shape_ok = (
        len(rows) == 18
        and types == {"uniform", "block", "house"}
        and planners
        == {"astar", "dijkstra", "wavefront", "d-rrt", "d-rrt-connect", "d-sprm"}
    )
    optimal_rows = [r for r in rows if r["planner"] in ("astar", "dijkstra")]
    zero_ok = len(optimal_rows) == 6 and all(
        r["path_dev_pct"] == "0" for r in optimal_rows
    )
    ok = rc == 0 and header_ok and shape_ok and zero_ok and elapsed < 900.0
    _verdict(
        11,
        ok,
        f"exit {rc}; columns match the pinned layout: {header_ok}; "
        f"18 rows over 3 map types x 6 planners: {shape_ok}; astar/dijkstra "
        f"deviation cells are 0: {zero_ok}; {elapsed:.0f}s (cap 900s)",
    )
