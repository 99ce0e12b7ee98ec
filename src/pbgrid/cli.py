"""Command-line front end: generate, run, benchmark, convert, plot.

Flag precedence is flags > config file > environment > built-in defaults:
the file and environment values become the subcommand's option defaults
(positionals never take them), so argparse lets every given flag win.
A config file is plain ``key = value`` text (``#`` starts a comment); keys
are long flag names of the chosen subcommand, and dotted keys such as
``rrt.step = 4`` set per-planner parameters exactly like ``--rrt.step 4``
on the command line.  Environment variables use the ``PBGRID_`` prefix
(``PBGRID_SEED=7``).

Exit codes: 0 success, 1 usage error, 2 data or parse error (including
I/O), 3 internal inconsistency.  ``--version`` prints one JSON line with
the package version and both file-schema versions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import pbgrid
from pbgrid.analyzer import (
    BenchmarkSpec,
    FileSource,
    GeneratedSource,
    PlannerConfig,
    RESULT_SCHEMA,
    VersionError,
    _COLUMN_TO_METRIC,
    _METRIC_SOURCES,
    _format_cell,
    complex_analysis,
    derive_seed,
    emit_report,
    merge_results,
    render_text_table,
    save_results,
    score_run,
    simple_analysis,
)
from pbgrid.grid import Connectivity, DomainError, MapError, MoveModel, distance_transform
from pbgrid.mapgen import ConfigError, GenConfig, MapType, generate, place_agent_goal
from pbgrid.mapio import NATIVE_VERSION, ParseError, load_map, parse_movingai, save_native
from pbgrid.metrics import InconsistencyError, MetricReport
from pbgrid.planners import PlannerEntry, dump_trace, dump_tree, resolve_planner
from pbgrid.planners.graph import astar
from pbgrid.plots import PLOT_KINDS, emit_plots


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


# Friendly metric spellings for plot axes, report column names included.
_METRIC_ALIASES = {
    **_COLUMN_TO_METRIC,
    "deviation": "path_deviation_pct",
    "dev": "path_deviation_pct",
    "distance": "distance_left_cells",
    "time": "time_seconds",
    "length": "path_length_cells",
    "cells": "path_cell_count",
    "search": "search_space_pct",
    "memory": "peak_memory_mb",
    "clearance": "obstacle_clearance_cells",
    "smoothness": "smoothness_deg",
}

_METRIC_NAMES = tuple(_METRIC_SOURCES)


def _metric_name(token: str) -> str:
    name = _METRIC_ALIASES.get(token, token)
    if name not in _METRIC_NAMES:
        raise UsageError(
            f"unknown metric {token!r}; choose from {', '.join(_METRIC_NAMES)}"
        )
    return name


def _resolve_or_usage(name: str) -> PlannerEntry:
    try:
        return resolve_planner(name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc


def _split_csv(text: str) -> List[str]:
    items = [tok.strip() for tok in text.split(",")]
    return [tok for tok in items if tok and tok.lower() != "none"]


def _plot_kinds(text: str) -> List[str]:
    """The plot kinds a comma list names, checked before any work is done."""
    kinds = _split_csv(text)
    unknown = set(kinds) - set(PLOT_KINDS)
    if unknown:
        raise UsageError(f"unknown plot kinds: {sorted(unknown)}")
    return kinds


def _parse_bool(raw: str) -> bool:
    """A boolean word from a planner parameter, config file or environment."""
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _coerce_param(entry: PlannerEntry, key: str, raw: str) -> object:
    """The typed value of ``--<planner>.<key> raw``; ``key`` is canonical."""
    typ = entry.params[key]
    try:
        return (_parse_bool if typ is bool else typ)(raw)
    except ValueError as exc:
        raise UsageError(
            f"bad value {raw!r} for --{entry.name}.{key} (expected {typ.__name__})"
        ) from exc


# A per-planner parameter as given: (planner token, parameter, raw value).
_Override = Tuple[str, str, str]


def _extract_planner_overrides(argv: Sequence[str]) -> Tuple[List[_Override], List[str]]:
    """Pull ``--<planner>.<param> value`` tokens out before argparse runs."""
    raw: List[_Override] = []
    rest: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "." in tok.split("=", 1)[0]:
            body = tok[2:]
            if "=" in body:
                key, value = body.split("=", 1)
                i += 1
            else:
                key = body
                if i + 1 >= len(argv):
                    raise UsageError(f"flag {tok} needs a value")
                value = argv[i + 1]
                i += 2
            raw.append((*key.split(".", 1), value))
        else:
            rest.append(tok)
            i += 1
    return raw, rest


def _typed_overrides(
    raw: Sequence[_Override], wanted: Sequence[PlannerEntry]
) -> Dict[str, Dict[str, object]]:
    """Resolve planner tokens, pin keys, and coerce values per the registry;
    of two values for one parameter, however spelled, the later wins."""
    names = {entry.name for entry in wanted}
    out: Dict[str, Dict[str, object]] = {}
    for planner_token, key, value in raw:
        entry = _resolve_or_usage(planner_token)
        if entry.name not in names:
            raise UsageError(
                f"--{planner_token}.* given but planner {entry.name!r} is not selected"
            )
        key = entry.param_key(key)
        out.setdefault(entry.name, {})[key] = _coerce_param(entry, key, value)
    return out


# ---------------------------------------------------------------------------
# Config file / environment overlay


def load_config_file(path: str) -> Dict[str, str]:
    """Parse ``key = value`` lines; ``#`` comments and blank lines ignored."""
    values: Dict[str, str] = {}
    for number, line in enumerate(FsPath(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {number}: expected key = value")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _coerce_flag(action: argparse.Action, raw: str) -> object:
    convert = _parse_bool if action.nargs == 0 else (action.type or str)
    tokens = raw.replace(",", " ").split() if action.nargs in ("+", 2, 3) else None
    try:
        if tokens is not None:
            if not tokens or action.nargs != "+" and len(tokens) != action.nargs:
                raise ValueError(raw)
            return [convert(tok) for tok in tokens]
        if action.choices and raw not in action.choices:
            raise ValueError(raw)
        return convert(raw)
    except ValueError as exc:
        raise UsageError(f"bad config value {raw!r} for {action.dest}") from exc


def _install_defaults(
    sub: argparse.ArgumentParser, file_values: Dict[str, str]
) -> List[_Override]:
    """Make the file's values, else the environment's, the defaults of
    ``sub``'s options, so that parsing the command line again lets every
    given flag win.

    Positionals never take these values.  Returns the file's dotted
    (per-planner) keys.
    """
    dotted: List[_Override] = []
    prefix = "PBGRID_"
    merged = {k[len(prefix):].lower(): v for k, v in os.environ.items() if k.startswith(prefix)}
    for key, value in file_values.items():
        if "." in key:
            dotted.append((*key.split(".", 1), value))
        else:
            merged[key.replace("-", "_")] = value  # file wins over environment
    sub.set_defaults(**{
        action.dest: _coerce_flag(action, merged[action.dest])
        for action in sub._actions
        if action.option_strings and action.dest != "help" and action.dest in merged
    })
    return dotted


# ---------------------------------------------------------------------------
# Subcommands


def _model_from(ns) -> MoveModel:
    conn = Connectivity.FULL if ns.connectivity == "full" else Connectivity.ORTHOGONAL
    return MoveModel(conn)


# The generator flags of `generate` and `benchmark`: flag dest -> GenConfig field.
_GEN_FIELDS = {
    "extent": "extent",
    "fill": "fill_rate_range",
    "obstacles": "obstacle_count_range",
    "min_room": "min_room_range",
    "max_room": "max_room_range",
}


def _gen_config(ns, map_type: MapType) -> GenConfig:
    fields = {name: tuple(getattr(ns, dest)) for dest, name in _GEN_FIELDS.items()}
    return GenConfig(map_type=map_type, seed=ns.seed, **fields)


def cmd_generate(ns, overrides) -> int:
    if overrides:
        raise UsageError("per-planner parameters do not apply to generate")
    if ns.count < 1:
        raise UsageError(f"map count must be >= 1, got {ns.count}")
    base = _gen_config(ns, MapType(ns.type))
    out_dir = FsPath(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(ns.count):
        cfg = dataclasses.replace(base, seed=derive_seed(ns.seed, "generate", i))
        grid = generate(cfg)
        name = f"{ns.type}-{ns.seed}-{i:04d}.map"
        (out_dir / name).write_text(save_native(grid), encoding="utf-8")
        files.append(name)
    manifest = {
        "command": "generate",
        "map_format": NATIVE_VERSION,
        "type": ns.type,
        "count": ns.count,
        **{name: list(getattr(base, name)) for name in _GEN_FIELDS.values()},
        "seed": ns.seed,
        "files": files,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"seed: {ns.seed}")
    print(f"wrote {len(files)} map(s) and manifest.json to {out_dir}")
    return 0


_REPORT_PRINT_ORDER = tuple(f.name for f in dataclasses.fields(MetricReport))


def _print_report(report: MetricReport) -> None:
    for name in _REPORT_PRINT_ORDER:
        value = getattr(report, name)
        if name == "path_deviation_pct" and value is not None:
            text = "%.2f" % value
        else:
            text = _format_cell(value) or "-"
        print(f"{name}: {text}")


def cmd_run(ns, overrides) -> int:
    entry = _resolve_or_usage(ns.planner)
    if ns.trace and entry.kind == "sampling":
        raise UsageError(f"{entry.name} records a sample tree; use --tree")
    if ns.tree and entry.kind != "sampling":
        raise UsageError("--tree only applies to the sampling planners")
    typed = _typed_overrides(overrides, [entry]).get(entry.name, {})
    entry.settings(typed, ns.seed)  # a bad value is a usage error before any output
    grid = load_map(ns.map)
    model = _model_from(ns)
    agent = grid.agent if ns.start is None else ns.start
    goal = grid.goal if ns.goal is None else ns.goal
    if (agent is None) != (goal is None):  # both or neither are drawn, never one
        name, flag = ("agent", "--start") if agent is None else ("goal", "--goal")
        raise UsageError(f"{ns.map} sets no {name} and {flag} is not given")
    if agent is None:
        grid = place_agent_goal(grid, np.random.default_rng(ns.seed))
    else:
        grid = grid.with_endpoints(agent, goal)
    print(f"planner: {entry.name}")
    print(f"map: {ns.map}")
    print(f"seed: {ns.seed}")
    print(f"agent: {' '.join(str(c) for c in grid.agent)}")
    print(f"goal: {' '.join(str(c) for c in grid.goal)}")
    baseline = astar(grid, model)
    outcome, report = score_run(
        entry, grid, model, ns.seed, typed, baseline, distance_transform(grid),
        record_steps=bool(ns.trace),
    )
    _print_report(report)
    if not outcome.success:
        print(f"failure_reason: {outcome.failure_reason}")
    if ns.trace:
        with open(ns.trace, "w", encoding="utf-8") as sink:
            count = dump_trace(outcome, sink)
        print(f"trace: wrote {count} steps to {ns.trace}")
    if ns.tree:
        with open(ns.tree, "w", encoding="utf-8") as sink:
            count = dump_tree(outcome, sink)
        print(f"tree: wrote {count} nodes to {ns.tree}")
    return 0


def cmd_benchmark(ns, overrides) -> int:
    planner_names = _split_csv(ns.planners)
    if not planner_names:
        raise UsageError("--planners must name at least one planner")
    entries = [_resolve_or_usage(name) for name in planner_names]
    typed = _typed_overrides(overrides, entries)
    planner_cfgs = tuple(
        PlannerConfig(entry.name, typed.get(entry.name, {})) for entry in entries
    )
    kinds = _plot_kinds(ns.plots)
    if ns.maps:
        map_dir = FsPath(ns.maps)
        if not map_dir.is_dir():
            raise UsageError(f"--maps {ns.maps}: not a directory")
        paths = tuple(str(p) for p in sorted(map_dir.iterdir()) if p.is_file())
        if not paths:
            raise UsageError(f"--maps {ns.maps}: directory holds no files")
        sources: Tuple = (FileSource(paths),)
    else:
        type_names = _split_csv(ns.types)
        if not type_names:
            raise UsageError("--types must name at least one map type")
        try:
            types = [MapType(t) for t in type_names]
        except ValueError as exc:
            raise UsageError(
                f"unknown map type in --types (choose from "
                f"{', '.join(m.value for m in MapType)})"
            ) from exc
        sources = tuple(GeneratedSource(_gen_config(ns, t), ns.n) for t in types)
    spec = BenchmarkSpec(
        planners=planner_cfgs,
        map_sources=sources,
        runs_per_map=ns.x,
        master_seed=ns.seed,
        parallelism=ns.jobs,
        hardware_tag=ns.hardware_tag,
        timing_repeats=ns.timing_repeats,
        model=_model_from(ns),
    )
    print(f"master seed: {ns.seed}")
    stats = complex_analysis(spec) if ns.complex else simple_analysis(spec)
    out_dir = FsPath(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "results.pbr1"
    save_results(stats, str(result_path))
    written = emit_report(stats, str(out_dir))
    if kinds:
        written.update(emit_plots(stats, str(out_dir), kinds=kinds))
    sys.stdout.write(render_text_table(stats))
    print(f"results: {result_path}")
    for kind in sorted(written):
        print(f"{kind}: {written[kind]}")
    return 0


def cmd_convert(ns, overrides) -> int:
    if overrides:
        raise UsageError("per-planner parameters do not apply to convert")
    out_dir = FsPath(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for path in ns.files:
        try:
            grid = parse_movingai(FsPath(path).read_bytes())
        except (OSError, ParseError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        target = out_dir / (FsPath(path).stem + ".map")
        target.write_text(save_native(grid), encoding="utf-8")
        print(f"{path} -> {target}")
    if failures:
        print(f"{failures} file(s) failed to convert", file=sys.stderr)
        return 2
    return 0


def cmd_plot(ns, overrides) -> int:
    if overrides:
        raise UsageError("per-planner parameters do not apply to plot")
    stats = merge_results(list(ns.results))
    kinds = _plot_kinds(ns.kinds)
    if not kinds:
        raise UsageError("--kinds must name at least one plot kind")
    written = emit_plots(
        stats,
        ns.out,
        kinds=kinds,
        metric=_metric_name(ns.metric),
        scatter_x=_metric_name(ns.x),
        scatter_y=_metric_name(ns.y),
    )
    for kind in sorted(written):
        print(f"{kind}: {written[kind]}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    """The five generator flags; ``_gen_config`` turns them into a GenConfig."""
    sub.add_argument("--extent", type=int, nargs="+", default=[64, 64])
    sub.add_argument("--fill", type=float, nargs=2, default=[0.1, 0.3], metavar=("LO", "HI"))
    sub.add_argument("--obstacles", type=int, nargs=2, default=[1, 6], metavar=("LO", "HI"))
    sub.add_argument("--min-room", type=int, nargs=2, default=[8, 15], metavar=("LO", "HI"))
    sub.add_argument("--max-room", type=int, nargs=2, default=[35, 45], metavar=("LO", "HI"))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="key = value overlay file")
    sub.add_argument(
        "--connectivity",
        choices=("full", "orthogonal"),
        default="full",
        help="movement model (default full: diagonals allowed)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbgrid", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print versions as JSON")
    subs = parser.add_subparsers(dest="command")

    gen = subs.add_parser("generate", description="write native map files")
    gen.add_argument("--type", choices=[m.value for m in MapType], default="uniform")
    gen.add_argument("--count", type=int, default=1)
    _add_gen_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    run = subs.add_parser("run", description="run one planner on one map")
    run.add_argument("map", help="native or MovingAI map file")
    run.add_argument("--planner", required=True)
    run.add_argument("--start", type=int, nargs="+", default=None)
    run.add_argument("--goal", type=int, nargs="+", default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", metavar="FILE", help="write the expansion log")
    run.add_argument("--tree", metavar="FILE", help="write the sample tree")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    bench = subs.add_parser("benchmark", description="seeded sweep over maps and planners")
    mode = bench.add_mutually_exclusive_group()
    mode.add_argument("--simple", action="store_false", dest="complex", default=False)
    mode.add_argument("--complex", action="store_true", default=False)
    bench.add_argument("--n", type=int, default=10, help="maps per type")
    bench.add_argument("--x", type=int, default=50, help="runs per map (complex)")
    bench.add_argument("--planners", default="astar,dijkstra,wavefront")
    bench.add_argument("--types", default="uniform,block,house")
    _add_gen_flags(bench)
    bench.add_argument("--maps", metavar="DIR", help="benchmark map files instead of generating")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--hardware-tag", default="local")
    bench.add_argument("--timing-repeats", type=int, default=1)
    bench.add_argument("--plots", default="bar,violin,scatter", help="plot kinds or 'none'")
    bench.add_argument("--out", default="results")
    _add_common(bench)
    bench.set_defaults(func=cmd_benchmark)

    conv = subs.add_parser("convert", description="MovingAI maps to native format")
    conv.add_argument("files", nargs="+")
    conv.add_argument("--out", default=".")
    _add_common(conv)
    conv.set_defaults(func=cmd_convert)

    plot = subs.add_parser("plot", description="merge result files and draw charts")
    plot.add_argument("results", nargs="+", help="pbr1 result files")
    plot.add_argument("--kinds", default="bar,violin,scatter")
    plot.add_argument("--metric", default="path_deviation_pct", help="bar/violin metric")
    plot.add_argument("--x", default="obstacle_clearance_cells", help="scatter x metric")
    plot.add_argument("--y", default="time_seconds", help="scatter y metric")
    plot.add_argument("--out", default=".")
    _add_common(plot)
    plot.set_defaults(func=cmd_plot)

    return parser


def _dispatch(argv: List[str]) -> int:
    if "--version" in argv:
        print(
            json.dumps(
                {
                    "pbgrid": pbgrid.__version__,
                    "map_schema": NATIVE_VERSION,
                    "result_schema": RESULT_SCHEMA,
                },
                sort_keys=True,
            )
        )
        return 0
    flag_overrides, rest = _extract_planner_overrides(argv)
    parser = build_parser()
    ns = parser.parse_args(rest)
    if not getattr(ns, "command", None):
        parser.print_help()
        return 1
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[ns.command]
    file_values = load_config_file(ns.config) if ns.config else {}
    overrides = _install_defaults(sub, file_values) + flag_overrides  # flags last: they win
    ns = parser.parse_args(rest)
    return ns.func(ns, overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MapError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (ParseError, VersionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
