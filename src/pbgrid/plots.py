"""Static SVG charts rendered straight from aggregate stats.

Three kinds are supported: ``bar`` (cell means of one metric), ``violin``
(kernel-density outlines over the raw per-cell samples), and ``scatter``
(one marker per planner and hardware tag, shape keyed to the planner and
color to the tag, so merged multi-machine results stay distinguishable).

Files are plain hand-written SVG: no timestamps, floats printed with six
significant digits, cells visited in sorted order, so a fixed input
produces byte-identical output.  Each file embeds its own data table as
an XML comment, which makes the numbers auditable with a text editor.
"""

from __future__ import annotations

from pathlib import Path as FsPath
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from pbgrid.analyzer import AggregateStats, CellStats
from pbgrid.mapgen import ConfigError

PLOT_KINDS = ("bar", "violin", "scatter")

# Marker shapes cycle per planner, fill colors per hardware tag.
_TAG_COLORS = (
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f",
    "#956cb4", "#8c613c", "#dc7ec0", "#797979",
)
_SHAPE_NAMES = (
    "circle", "square", "triangle", "diamond",
    "invtriangle", "plus", "cross", "hexagon",
    "pentagon", "ring", "halfsquare",
)

_W, _H = 760, 460
_ML, _MR, _MT, _MB = 80, 24, 36, 96


def _fmt(value: float) -> str:
    return "%.6g" % float(value)


def _comment(lines: Iterable[str]) -> str:
    body = "\n".join(lines).replace("--", "- -")
    return f"<!--\n{body}\n-->"


def _axis_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


class _Canvas:
    """Tiny SVG writer with a fixed plot rectangle and linear scales."""

    def __init__(self, title: str, x_label: str, y_label: str):
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
            f'<text x="{_W / 2}" y="{_H - 6}" text-anchor="middle">{x_label}</text>',
            f'<text x="14" y="{_H / 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_H / 2})">{y_label}</text>',
        ]
        self.x0, self.x1 = _ML, _W - _MR
        self.y0, self.y1 = _H - _MB, _MT  # y grows downward in SVG

    def scale_y(self, lo: float, hi: float):
        self.ylo, self.yhi = lo, hi

    def ypix(self, v: float) -> float:
        span = self.yhi - self.ylo or 1.0
        return self.y0 + (v - self.ylo) * (self.y1 - self.y0) / span

    def frame_and_yticks(self):
        self.parts.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x1}" y2="{self.y0}" stroke="black"/>'
        )
        self.parts.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x0}" y2="{self.y1}" stroke="black"/>'
        )
        for tick in _axis_ticks(self.ylo, self.yhi):
            y = _fmt(self.ypix(tick))
            self.parts.append(
                f'<line x1="{self.x0 - 4}" y1="{y}" x2="{self.x0}" y2="{y}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{self.x0 - 8}" y="{y}" text-anchor="end" '
                f'dominant-baseline="middle">{_fmt(tick)}</text>'
            )

    def x_label_at(self, x: float, lines: Sequence[str]):
        for i, line in enumerate(lines):
            self.parts.append(
                f'<text x="{_fmt(x)}" y="{self.y0 + 14 + 12 * i}" '
                f'text-anchor="middle">{line}</text>'
            )

    def finish(self, comment_lines: Iterable[str]) -> str:
        return "\n".join([_comment(comment_lines)] + self.parts + ["</svg>"]) + "\n"


def _cell_label(cell: CellStats, show_tag: bool) -> List[str]:
    lines = [cell.planner, cell.map_type]
    if show_tag:
        lines.append(cell.hardware_tag)
    return lines


def _marker(shape: str, x: float, y: float, color: str, size: float = 6.0) -> str:
    s = size
    px, py = float(x), float(y)

    def poly(points: Sequence[Tuple[float, float]], fill=True) -> str:
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in points)
        style = f'fill="{color}"' if fill else f'fill="none" stroke="{color}" stroke-width="2"'
        return f'<polygon points="{pts}" {style}/>'

    if shape == "circle":
        return f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(s)}" fill="{color}"/>'
    if shape == "ring":
        return (
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(s)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    if shape == "square":
        return (
            f'<rect x="{_fmt(px - s)}" y="{_fmt(py - s)}" width="{_fmt(2 * s)}" '
            f'height="{_fmt(2 * s)}" fill="{color}"/>'
        )
    if shape == "halfsquare":
        return (
            f'<rect x="{_fmt(px - s)}" y="{_fmt(py - s)}" width="{_fmt(2 * s)}" '
            f'height="{_fmt(2 * s)}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    if shape == "triangle":
        return poly([(px, py - s), (px - s, py + s), (px + s, py + s)])
    if shape == "invtriangle":
        return poly([(px, py + s), (px - s, py - s), (px + s, py - s)])
    if shape == "diamond":
        return poly([(px, py - s), (px + s, py), (px, py + s), (px - s, py)])
    if shape == "plus":
        return (
            f'<path d="M {_fmt(px - s)} {_fmt(py)} H {_fmt(px + s)} '
            f'M {_fmt(px)} {_fmt(py - s)} V {_fmt(py + s)}" '
            f'stroke="{color}" stroke-width="3" fill="none"/>'
        )
    if shape == "cross":
        return (
            f'<path d="M {_fmt(px - s)} {_fmt(py - s)} L {_fmt(px + s)} {_fmt(py + s)} '
            f'M {_fmt(px - s)} {_fmt(py + s)} L {_fmt(px + s)} {_fmt(py - s)}" '
            f'stroke="{color}" stroke-width="3" fill="none"/>'
        )
    if shape == "hexagon":
        pts = [
            (px + s * np.cos(np.pi / 3 * i), py + s * np.sin(np.pi / 3 * i))
            for i in range(6)
        ]
        return poly(pts)
    if shape == "pentagon":
        pts = [
            (
                px + s * np.cos(2 * np.pi * i / 5 - np.pi / 2),
                py + s * np.sin(2 * np.pi * i / 5 - np.pi / 2),
            )
            for i in range(5)
        ]
        return poly(pts)
    raise ConfigError(f"unknown marker shape {shape!r}")


def _kde(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel-density estimate with Silverman's bandwidth."""
    n = samples.size
    std = float(samples.std())
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    h = 0.9 * spread * n ** (-1 / 5)
    diffs = (grid[:, None] - samples[None, :]) / h
    dens = np.exp(-0.5 * diffs**2).sum(axis=1) / (n * h * np.sqrt(2 * np.pi))
    return dens


def emit_plots(
    stats: AggregateStats,
    directory: str,
    kinds: Iterable[str] = PLOT_KINDS,
    *,
    metric: str = "path_deviation_pct",
    scatter_x: str = "obstacle_clearance_cells",
    scatter_y: str = "time_seconds",
) -> Dict[str, str]:
    """Render the requested chart kinds into ``directory``.

    Returns {kind: written path}.  ``metric`` feeds bar and violin;
    ``scatter_x``/``scatter_y`` pick the scatter axes.  Violin cells
    with fewer than two samples (or zero spread) fall back to a bar,
    recorded as a warning in the file's data-table comment.
    """
    kinds = tuple(kinds)
    unknown = set(kinds) - set(PLOT_KINDS)
    if unknown:
        raise ConfigError(f"unknown plot kinds: {sorted(unknown)}")
    out_dir = FsPath(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}
    if "bar" in kinds:
        path = out_dir / f"bar_{metric}.svg"
        path.write_text(_render_bar(stats, metric), encoding="utf-8")
        written["bar"] = str(path)
    if "violin" in kinds:
        path = out_dir / f"violin_{metric}.svg"
        path.write_text(_render_violin(stats, metric), encoding="utf-8")
        written["violin"] = str(path)
    if "scatter" in kinds:
        path = out_dir / f"scatter_{scatter_x}_vs_{scatter_y}.svg"
        path.write_text(_render_scatter(stats, scatter_x, scatter_y), encoding="utf-8")
        written["scatter"] = str(path)
    return written


def _tag_index(cells: Sequence[CellStats]) -> Dict[str, int]:
    tags = sorted({c.hardware_tag for c in cells})
    return {t: i for i, t in enumerate(tags)}


def _planner_index(cells: Sequence[CellStats]) -> Dict[str, int]:
    planners = sorted({c.planner for c in cells})
    return {p: i for i, p in enumerate(planners)}


def _render_bar(stats: AggregateStats, metric: str) -> str:
    cells = list(stats.cells().values())
    show_tag = len({c.hardware_tag for c in cells}) > 1
    means = [c.mean(metric) for c in cells]
    present = [m for m in means if m is not None]
    lo = min(0.0, min(present)) if present else 0.0
    hi = max(present) if present else 1.0
    canvas = _Canvas(f"mean {metric}", "planner / map type", metric)
    canvas.scale_y(lo, hi * 1.05 if hi > 0 else 1.0)
    canvas.frame_and_yticks()
    table = [f"bar chart: mean {metric} per cell", "planner\tmap_type\thardware_tag\tmean\truns"]
    n = max(len(cells), 1)
    slot = (canvas.x1 - canvas.x0) / n
    zero_y = canvas.ypix(max(canvas.ylo, 0.0))
    for i, (cell, mean) in enumerate(zip(cells, means)):
        cx = canvas.x0 + slot * (i + 0.5)
        table.append(
            "\t".join(
                (
                    cell.planner,
                    cell.map_type,
                    cell.hardware_tag,
                    "" if mean is None else _fmt(mean),
                    str(cell.runs),
                )
            )
        )
        canvas.x_label_at(cx, _cell_label(cell, show_tag))
        if mean is None:
            table.append(f"warning: no samples of {metric} for {cell.planner}/{cell.map_type}")
            continue
        top = canvas.ypix(mean)
        y = min(top, zero_y)
        height = abs(zero_y - top)
        color = _TAG_COLORS[i % len(_TAG_COLORS)]
        canvas.parts.append(
            f'<rect x="{_fmt(cx - slot * 0.3)}" y="{_fmt(y)}" '
            f'width="{_fmt(slot * 0.6)}" height="{_fmt(height)}" fill="{color}"/>'
        )
        canvas.parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(y - 4)}" text-anchor="middle">{_fmt(mean)}</text>'
        )
    return canvas.finish(table)


def _render_violin(stats: AggregateStats, metric: str) -> str:
    cells = list(stats.cells().values())
    show_tag = len({c.hardware_tag for c in cells}) > 1
    all_values = [v for c in cells for v in c.samples.get(metric, ())]
    lo = min(all_values) if all_values else 0.0
    hi = max(all_values) if all_values else 1.0
    pad = (hi - lo) * 0.08 or 1.0
    canvas = _Canvas(f"distribution of {metric}", "planner / map type", metric)
    canvas.scale_y(lo - pad, hi + pad)
    canvas.frame_and_yticks()
    table = [
        f"violin chart: raw {metric} samples per cell",
        "planner\tmap_type\thardware_tag\tn\tsamples",
    ]
    n = max(len(cells), 1)
    slot = (canvas.x1 - canvas.x0) / n
    half = slot * 0.32
    for i, cell in enumerate(cells):
        values = np.asarray(cell.samples.get(metric, ()), dtype=float)
        cx = canvas.x0 + slot * (i + 0.5)
        color = _TAG_COLORS[i % len(_TAG_COLORS)]
        canvas.x_label_at(cx, _cell_label(cell, show_tag))
        table.append(
            "\t".join(
                (
                    cell.planner,
                    cell.map_type,
                    cell.hardware_tag,
                    str(values.size),
                    " ".join(_fmt(v) for v in values),
                )
            )
        )
        reason = None
        if values.size < 2:
            reason = "fewer than two samples"
        elif float(values.std()) == 0.0:
            reason = "zero spread"
        else:
            grid = np.linspace(float(values.min()) - pad, float(values.max()) + pad, 64)
            dens = _kde(values, grid)
            # a spread far narrower than the value grid's steps leaves a
            # density that underflows to zero at every grid point
            if not dens.max() > 0:
                reason = "zero density"
        if reason:
            table.append(
                f"warning: {reason} for {cell.planner}/{cell.map_type}; drew a bar instead"
            )
            if values.size:
                mean = float(values.mean())
                top = canvas.ypix(mean)
                base = canvas.ypix(canvas.ylo)
                canvas.parts.append(
                    f'<rect x="{_fmt(cx - half * 0.6)}" y="{_fmt(min(top, base))}" '
                    f'width="{_fmt(half * 1.2)}" height="{_fmt(abs(base - top))}" '
                    f'fill="{color}"/>'
                )
            continue
        width = dens / dens.max() * half
        right = [(cx + w, canvas.ypix(g)) for g, w in zip(grid, width)]
        left = [(cx - w, canvas.ypix(g)) for g, w in zip(grid[::-1], width[::-1])]
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in right + left)
        canvas.parts.append(
            f'<polygon points="{pts}" fill="{color}" fill-opacity="0.6" stroke="{color}"/>'
        )
        med = canvas.ypix(float(np.median(values)))
        canvas.parts.append(
            f'<line x1="{_fmt(cx - half)}" y1="{_fmt(med)}" '
            f'x2="{_fmt(cx + half)}" y2="{_fmt(med)}" stroke="black"/>'
        )
    return canvas.finish(table)


def _render_scatter(stats: AggregateStats, metric_x: str, metric_y: str) -> str:
    cells = list(stats.cells().values())
    tag_of = _tag_index(cells)
    planner_of = _planner_index(cells)
    points = []
    table = [
        f"scatter chart: mean {metric_x} (x) vs mean {metric_y} (y)",
        "planner\tmap_type\thardware_tag\tx\ty\tshape\tcolor",
    ]
    for cell in cells:
        x, y = cell.mean(metric_x), cell.mean(metric_y)
        shape = _SHAPE_NAMES[planner_of[cell.planner] % len(_SHAPE_NAMES)]
        color = _TAG_COLORS[tag_of[cell.hardware_tag] % len(_TAG_COLORS)]
        if x is None or y is None:
            table.append(
                f"warning: missing {metric_x if x is None else metric_y} "
                f"for {cell.planner}/{cell.map_type}"
            )
            continue
        points.append((cell, x, y, shape, color))
        table.append(
            "\t".join(
                (
                    cell.planner,
                    cell.map_type,
                    cell.hardware_tag,
                    _fmt(x),
                    _fmt(y),
                    shape,
                    color,
                )
            )
        )
    xs = [p[1] for p in points] or [0.0, 1.0]
    ys = [p[2] for p in points] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.08 or 1.0
    y_pad = (y_hi - y_lo) * 0.08 or 1.0
    canvas = _Canvas(f"{metric_x} vs {metric_y}", metric_x, metric_y)
    canvas.scale_y(y_lo - y_pad, y_hi + y_pad)
    canvas.frame_and_yticks()

    span = (x_hi + x_pad) - (x_lo - x_pad)
    def xpix(v: float) -> float:
        return canvas.x0 + (v - (x_lo - x_pad)) * (canvas.x1 - canvas.x0) / span

    for tick in _axis_ticks(x_lo - x_pad, x_hi + x_pad):
        tx = _fmt(xpix(tick))
        canvas.parts.append(
            f'<line x1="{tx}" y1="{canvas.y0}" x2="{tx}" y2="{canvas.y0 + 4}" stroke="black"/>'
        )
        canvas.parts.append(
            f'<text x="{tx}" y="{canvas.y0 + 16}" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for cell, x, y, shape, color in points:
        canvas.parts.append(_marker(shape, xpix(x), canvas.ypix(y), color))
    # Legend: planner -> shape down the right edge, tag -> color below it.
    ly = _MT
    for planner in sorted(planner_of):
        shape = _SHAPE_NAMES[planner_of[planner] % len(_SHAPE_NAMES)]
        canvas.parts.append(_marker(shape, canvas.x1 - 120, ly, "#444444", 5.0))
        canvas.parts.append(
            f'<text x="{canvas.x1 - 108}" y="{ly + 4}">{planner}</text>'
        )
        ly += 16
    for tag in sorted(tag_of):
        color = _TAG_COLORS[tag_of[tag] % len(_TAG_COLORS)]
        canvas.parts.append(
            f'<rect x="{canvas.x1 - 126}" y="{ly - 6}" width="12" height="12" fill="{color}"/>'
        )
        canvas.parts.append(
            f'<text x="{canvas.x1 - 108}" y="{ly + 4}">{tag}</text>'
        )
        ly += 16
    return canvas.finish(table)
