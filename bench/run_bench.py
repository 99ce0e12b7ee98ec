"""Seeded end-to-end benchmark of ``pbgrid benchmark`` sweeps.

Run one workload from the root of a source checkout::

    python3 bench/run_bench.py --workload sweep2d --seed 1 --seconds 20 --trace 0

Each workload is a series of seeded sweeps ("chunks"), each one an
in-process call of ``pbgrid.cli.main(["benchmark", ...])``: the same entry
point as the command line, covering map generation or loading, endpoint
draws, every planner, scoring, and the writing of results, reports and
plots.  Chunk ``c`` of seed ``s`` uses master seed ``1000 * s + c``.

A run makes a fixed number of chunks, the workload's ``chunks`` scaled by
``--seconds / 20``, so every run of a seed measures the same inputs
however fast the machine or the code is.  ``--trace 0`` times these
sweeps and prints the end-to-end metrics.  ``--trace 1`` runs each of
them untraced and then with spans (see ``tracing.py``), and the first
once more under tracemalloc with one draw per map, and prints the
per-layer metrics.
Both modes run the correctness gate; a failed check is named on stderr
and the exit code is 1.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Imports are timed in fresh interpreters, after this process has written
# the byte code, so that every repeat pays the same.
_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                 "import pbgrid.cli; print(time.perf_counter() - t)")
# Row fields that hold measurements rather than results; the determinism
# check hashes every other field.
_MEASURED_FIELDS = ("time_seconds", "peak_memory_mb")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: Tuple[str, ...]    # `pbgrid benchmark` flags of every chunk
    warmup: Tuple[str, ...]   # flags appended to shrink a chunk into the warm-up sweep
    chunks: int               # sweeps of a run at --seconds 20
    map_files: int = 0        # > 0: maps written at setup and read back with --maps
    map_extent: Tuple[int, ...] = ()


SAMPLER_SET = "astar,dijkstra,wavefront,d-rrt,d-rrt-connect,d-sprm,d-rt,d-rrt-star"

WORKLOADS = {
    wl.name: wl
    for wl in (
        # Samplers do ~95% of the work: steer, nearest search, line checks.
        # On 32^2 maps with capped budgets a map costs a quarter of a 64^2
        # one, so a run holds four times as many maps; the samplers' cost
        # and success vary so much from map to map that it takes that many
        # for a run to read the same from seed to seed.
        Workload(
            "sweep2d",
            ("--simple", "--n", "4", "--extent", "32", "32", "--types", "uniform,block,house",
             "--planners", SAMPLER_SET, "--d-rrt.max_samples", "1500", "--d-rt.max_samples", "1500",
             "--d-rrt-connect.max_samples", "1500", "--d-rrt-star.max_samples", "150"),
            ("--n", "1", "--extent", "16", "16", "--types", "uniform"),
            chunks=8,
        ),
        # Graph search over 26 moves dominates; samplers other than
        # d-rrt-connect are bypassed; map-only work repeats per draw.
        # 20^3 rather than 28^3 fits more draws in a run, and so evens out
        # dijkstra, whose cost follows the distance between the endpoints.
        Workload(
            "graph3d",
            ("--complex", "--x", "4", "--n", "1", "--extent", "20", "20", "20",
             "--types", "uniform,block,house", "--planners", "astar,dijkstra,wavefront,d-rrt-connect",
             "--d-rrt-connect.max_samples", "5000"),
            ("--extent", "8", "8", "8", "--types", "uniform", "--x", "1"),
            chunks=16,
        ),
        # The dense N x N roadmap build of d-sprm dominates time and memory.
        Workload(
            "prm3d",
            ("--simple", "--n", "3", "--extent", "24", "24", "24", "--types", "uniform",
             "--fill", "0.2", "0.2", "--planners", "d-sprm", "--d-sprm.prm_radius", "4"),
            ("--extent", "8", "8", "8"),
            chunks=16,
        ),
        # Cheap planners on tiny file maps: the harness layers (analyzer,
        # metrics, mapio, plots) carry the time.  Serial: with --jobs 2 the
        # two worker threads made runs_per_s swing past its bound.
        Workload(
            "harness",
            ("--complex", "--x", "14", "--planners", "astar,bug2,potential-field",
             "--plots", "bar,violin,scatter"),
            ("--x", "1"),
            chunks=20,
            map_files=30,
            map_extent=(20, 20),
        ),
    )
}


class GateError(Exception):
    """A correctness check failed; the message names it."""


@dataclass
class Sweep:
    """What the benchmark keeps of one sweep's ``results.pbr1``; the rows are
    dropped so that they do not add to the process's peak RSS."""

    wall_s: float         # around pbgrid.cli.main
    digest: str           # header and rows, minus the measured fields
    warnings: List[str]
    runs: int
    successes: int
    dev_sum: float        # path deviation summed over successful runs
    crashed: int          # failure_reason error:*
    not_optimal: int      # astar or dijkstra rows with a non-zero deviation
    negative: int         # rows with a negative deviation
    planner_rows: Dict[str, Tuple[int, float]]  # planner -> (rows, summed time_seconds)

    @classmethod
    def read(cls, wall_s: float, text: str) -> "Sweep":
        lines = text.splitlines()
        header = json.loads(lines[0])
        rows = [json.loads(ln) for ln in lines[1:]]
        h = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
        for row in rows:
            kept = {k: v for k, v in row.items() if k not in _MEASURED_FIELDS}
            h.update(json.dumps(kept, sort_keys=True).encode())
        devs = [(r["planner"], r["path_deviation_pct"]) for r in rows if r["success"]]
        planner_rows: Dict[str, Tuple[int, float]] = {}
        for r in rows:
            n, t = planner_rows.get(r["planner"], (0, 0.0))
            planner_rows[r["planner"]] = (n + 1, t + r["time_seconds"])
        return cls(
            wall_s=wall_s,
            digest=h.hexdigest(),
            warnings=list(header.get("warnings", ())),
            runs=len(rows),
            successes=len(devs),
            dev_sum=sum(d for _, d in devs),
            crashed=sum((r["failure_reason"] or "").startswith("error:") for r in rows),
            not_optimal=sum(d != 0 for p, d in devs if p in ("astar", "dijkstra")),
            negative=sum(d < 0 for _, d in devs),
            planner_rows=planner_rows,
        )


def runs_per_s(sweeps: List[Sweep]) -> float:
    """Planner runs per second of sweep wall time over all ``sweeps``.

    A ratio of totals rather than a median of per-chunk rates, so that the
    machine's swings in speed are averaged over the whole run.
    """
    return sum(s.runs for s in sweeps) / sum(s.wall_s for s in sweeps)


class Runner:
    """Runs one workload's sweeps inside a private work directory."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        from pbgrid import cli

        self.wl = wl
        self.seed = seed
        self.work = work
        self.maps_dir: Optional[Path] = None
        self._cli = cli
        self._count = 0

    def setup(self) -> float:
        """Write the workload's map files and run the warm-up sweep; returns seconds."""
        start = time.perf_counter()
        where = self.work / f"setup{self._count}"
        self._count += 1
        if self.wl.map_files:
            self.maps_dir = write_maps(self.wl, self.seed, where / "maps")
        self.sweep(0, extra=self.wl.warmup)
        return time.perf_counter() - start

    def sweep(self, chunk: int, extra: Tuple[str, ...] = ()) -> Sweep:
        """Run chunk ``chunk``; ``extra`` flags override the workload's."""
        out = self.work / f"out{self._count}"
        self._count += 1
        argv = ["benchmark", *self.wl.flags, *extra,
                "--seed", str(1000 * self.seed + chunk), "--out", str(out)]
        if self.maps_dir is not None:
            argv += ["--maps", str(self.maps_dir)]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = self._cli.main(argv)
            wall = time.perf_counter() - start
        if rc != 0:
            raise GateError(f"sweep-exit: chunk {chunk} exited {rc}")
        sweep = Sweep.read(wall, (out / "results.pbr1").read_text(encoding="utf-8"))
        shutil.rmtree(out)
        return sweep


def write_maps(wl: Workload, seed: int, where: Path) -> Path:
    """Native map files generated from the seed, cycling through the map types."""
    from pbgrid.analyzer import derive_seed
    from pbgrid.mapgen import GenConfig, MapType, generate
    from pbgrid.mapio import save_native

    where.mkdir(parents=True)
    types = list(MapType)
    for i in range(wl.map_files):
        cfg = GenConfig(map_type=types[i % len(types)], extent=wl.map_extent,
                        seed=derive_seed(seed, "bench-map", i))
        (where / f"{cfg.map_type.value}-{i:03d}.map").write_text(
            save_native(generate(cfg)), encoding="utf-8")
    return where


def check_rows(sweeps: List[Sweep]) -> Tuple[int, List[str]]:
    """Crashed-run count and the names of failed row checks."""
    failed = [f"warnings: {w}" for s in sweeps for w in s.warnings]
    crashed = sum(s.crashed for s in sweeps)
    for name, count in (("crashed-runs", crashed),
                        ("optimal-deviation", sum(s.not_optimal for s in sweeps)),
                        ("negative-deviation", sum(s.negative for s in sweeps))):
        if count:
            failed.append(f"{name}: {count} runs")
    return crashed, failed


def check_paths(paths: List[Tuple[object, tuple]]) -> int:
    """Validate and drop each (placed map, cells) success; returns the invalid count."""
    from pbgrid.grid import InvalidPathError, MoveModel, validate_path

    model = MoveModel()
    invalid = 0
    for grid, cells in paths:
        try:
            validate_path(grid, cells, model, start=grid.agent, goal=grid.goal)
        except InvalidPathError:
            invalid += 1
    paths.clear()
    return invalid


def compare(label: str, a: List[Sweep], b: List[Sweep]) -> List[str]:
    return [f"determinism: {label} chunk {i} rows differ"
            for i, (x, y) in enumerate(zip(a, b)) if x.digest != y.digest]


def check_spans(tracer, traced: List[Sweep]) -> List[str]:
    """Checks that the spans account for what the sweeps measured themselves."""
    from tracing import sweep_breakdown

    failed = []
    roots = sweep_breakdown(tracer)
    if len(roots) != len(traced):
        return [f"span-root: {len(roots)} sweep spans for {len(traced)} sweeps"]
    for i, (b, sweep) in enumerate(zip(roots, traced)):
        wall_ms = sweep.wall_s * 1e3
        if b["outside"]:
            failed.append(f"span-root: sweep {i} has child spans outside it")
        # The sweep span is the benchmark command; cli.main adds only argument parsing.
        if not 0 <= wall_ms - b["sweep_ms"] <= 0.02 * wall_ms + 5:
            failed.append(f"span-root: sweep {i} span {b['sweep_ms']:.1f} ms, cli.main {wall_ms:.1f} ms")
    spans: Dict[str, Tuple[int, float]] = {}
    for s in tracer.spans:
        n, ms = spans.get(s.name, (0, 0.0))
        spans[s.name] = (n + 1, ms + (s.end - s.start) * 1e3)
    draws = spans.get("mapgen.place", (0, 0.0))[0]
    planners = {name for sweep in traced for name in sweep.planner_rows} | {"astar"}
    for name in sorted(planners):
        rows = sum(sweep.planner_rows.get(name, (0, 0.0))[0] for sweep in traced)
        row_ms = sum(sweep.planner_rows.get(name, (0, 0.0))[1] for sweep in traced) * 1e3
        calls, span_ms = spans.get(f"planners.{name}", (0, 0.0))
        # A* runs once per draw as the baseline, and its row reuses that run.
        expected = draws if name == "astar" else rows
        if calls != expected:
            failed.append(f"span-planners: {name} has {calls} spans for {expected} runs")
        if span_ms < row_ms:
            failed.append(f"span-planners: {name} spans {span_ms:.1f} ms < rows {row_ms:.1f} ms")
    return failed


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def quality(sweeps: List[Sweep], bad: int) -> Dict[str, Tuple[float, str]]:
    """Outcome metrics over ``sweeps``; ``bad`` runs crashed or failed validation."""
    runs = sum(s.runs for s in sweeps)
    successes = sum(s.successes for s in sweeps)
    return {
        "success_pct": (100.0 * successes / runs, "%"),
        "path_dev_pct": (sum(s.dev_sum for s in sweeps) / successes if successes else 0.0, "%"),
        "fail_pct": (100.0 * bad / runs, "%"),
    }


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]   # the JSON metrics of this mode
    printed: Dict[str, Tuple[float, str]]   # further lines for the reader
    info: dict
    attempted: int
    failed_runs: int
    failed_checks: List[str]


def run_timed(runner: Runner, chunks: int) -> Result:
    from tracing import captured_paths

    sweeps: List[Sweep] = []
    paths: List[Tuple[object, tuple]] = []
    invalid = 0
    with captured_paths(paths):
        for c in range(chunks):
            sweeps.append(runner.sweep(c))
            invalid += check_paths(paths)
    rss = peak_rss_mb()
    crashed, failed = check_rows(sweeps)
    if invalid:
        failed.append(f"path-validation: {invalid} invalid paths")
    q = quality(sweeps, crashed + invalid)
    metrics = {
        "runs_per_s": (runs_per_s(sweeps), "runs/s"),
        "peak_rss_mb": (rss, "MiB"),
        "success_pct": q.pop("success_pct"),
    }
    info = {"chunks": chunks, "chunk_runs": [s.runs for s in sweeps],
            "chunk_wall_s": [s.wall_s for s in sweeps], "chunk_digests": digests(sweeps)}
    return Result(metrics, q, info,
                  sum(s.runs for s in sweeps), crashed + invalid, failed)


def run_traced(runner: Runner, chunks: int) -> Result:
    from tracing import Tracer, layer_metrics, tracemalloc_peaks

    tracer = Tracer()
    plain: List[Sweep] = []
    traced: List[Sweep] = []
    invalid = 0
    for c in range(chunks):  # interleaved, so drift in machine speed hits both alike
        plain.append(runner.sweep(c))
        with tracer.installed():
            traced.append(runner.sweep(c))
        invalid += check_paths(tracer.paths)
    peaks: Dict[str, float] = {}
    with tracemalloc_peaks(peaks):  # one draw per map: tracemalloc slows planners 20-30x
        measured = runner.sweep(0, extra=("--x", "1"))
    crashed, failed = check_rows(plain)
    failed += compare("untraced vs traced", plain, traced)
    if invalid:
        failed.append(f"path-validation: {invalid} invalid paths")
    failed += check_spans(tracer, traced)
    metrics = layer_metrics(tracer, peaks)
    q = quality(plain, crashed + invalid)
    metrics["metrics.success_pct"] = q["success_pct"]
    metrics["metrics.path_dev_pct"] = q["path_dev_pct"]
    plain_rps = runs_per_s(plain)
    traced_rps = runs_per_s(traced)
    metrics["trace.overhead_pct"] = (100.0 * (plain_rps - traced_rps) / plain_rps, "%")
    info = {"chunks": chunks, "untraced_runs_per_s": plain_rps, "traced_runs_per_s": traced_rps,
            "tracemalloc_wall_s": measured.wall_s, "chunk_digests": digests(plain)}
    return Result(metrics, {"fail_pct": q["fail_pct"]}, info,
                  sum(s.runs for s in plain), crashed + invalid, failed)


def digests(sweeps: List[Sweep]) -> List[str]:
    """Short row digests per chunk, printed so that the timed and traced runs
    of one seed, or of two commits, can be compared."""
    return [s.digest[:16] for s in sweeps]


def time_imports() -> float:
    """Fastest of ``SETUP_REPEATS`` imports of ``pbgrid.cli`` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return min(times)


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_stamp() -> dict:
    """Commit (when the checkout is a git repository), source digest and versions."""
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pbgrid" / "__init__.py").is_file():
        print(f"pbgrid sources not found under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import pbgrid.cli  # noqa: F401
    import tracing  # noqa: F401

    wl = WORKLOADS[args.workload]
    chunks = max(1, round(wl.chunks * args.seconds / 20))
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(wl, args.seed, work)
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        if args.trace:
            result = run_traced(runner, chunks)
        else:
            result = run_timed(runner, chunks)
            # Timed last, so that the probe interpreters do not count in peak_rss_mb.
            import_s = time_imports()
            result.metrics["setup_s"] = (import_s + min(setups), "s")
            result.info["import_s"] = import_s
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace, **source_stamp(),
            "setup_repeats_s": setups, **result.info, "failed_checks": result.failed_checks}
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in {**result.metrics, **result.printed}.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not result.failed_checks,
        "attempted": result.attempted,
        "failed": result.failed_runs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    for check in result.failed_checks:
        print(f"correctness gate failed: {check}", file=sys.stderr)
    return 1 if result.failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
