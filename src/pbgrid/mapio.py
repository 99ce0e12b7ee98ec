"""Map serialization: the native text format and MovingAI ingestion.

Native format (version header ``pbgrid v1``)::

    pbgrid v1
    dims 2
    extent 3 4
    agent 0 0
    goal 2 3
    ..#.
    ....
    .#..

``#`` marks an obstacle, ``.`` a free cell. Rows follow the first axis,
characters the last. 3D maps list one such block per leading-axis slice,
blocks separated by a single blank line. ``agent -`` / ``goal -`` mean
the endpoint is unset. Files end with exactly one newline; loading is
strict, so save(load(text)) == text holds byte for byte.

MovingAI ``.map`` files carry a four-line header (type/height/width/map)
followed by one character per cell: ``.``, ``G``, ``S`` are passable,
``@``, ``O``, ``T``, ``W`` are obstacles.

``load_map`` reads a map file of either format; a file that starts with the
native version line's first word is native.
"""

from __future__ import annotations

from pathlib import Path as FilePath
from typing import List, Optional, Tuple, Union

import numpy as np

from .grid import Cell, GridMap

NATIVE_VERSION = "pbgrid v1"

MOVINGAI_PASSABLE = frozenset(".GS")
MOVINGAI_OBSTACLE = frozenset("@OTW")


class ParseError(ValueError):
    """Malformed map or dataset text; carries the 1-based location."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnsupportedVersionError(ParseError):
    """The version line names a format this reader does not speak."""


def _coerce_text(text: Union[str, bytes]) -> str:
    if isinstance(text, bytes):
        return text.decode("latin-1")
    return text


def save_native(grid: GridMap) -> str:
    occ = grid.occupancy
    head = [
        NATIVE_VERSION,
        f"dims {grid.dims}",
        "extent " + " ".join(str(e) for e in grid.extent),
        "agent " + (" ".join(str(c) for c in grid.agent) if grid.agent else "-"),
        "goal " + (" ".join(str(c) for c in grid.goal) if grid.goal else "-"),
    ]
    blocks = occ[np.newaxis] if grid.dims == 2 else occ
    body: List[str] = []
    for i, sl in enumerate(blocks):
        if i:
            body.append("")
        for row in sl:
            body.append("".join("#" if v else "." for v in row))
    return "\n".join(head + body) + "\n"


def _parse_ints(tokens: List[str], n: int, what: str, line: int) -> Tuple[int, ...]:
    if len(tokens) != n:
        raise ParseError(f"{what} needs {n} integers", line=line)
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"{what} must be integers", line=line) from None


def _parse_endpoint(raw: str, name: str, dims: int, line: int) -> Optional[Cell]:
    tokens = raw.split()
    if not tokens or tokens[0] != name:
        raise ParseError(f"expected '{name} ...'", line=line)
    if tokens[1:] == ["-"]:
        return None
    return _parse_ints(tokens[1:], dims, name, line)


def load_native(text: Union[str, bytes]) -> GridMap:
    lines = _coerce_text(text).split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise ParseError("file must end with exactly one newline", line=len(lines))
    lines = lines[:-1]

    def need(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise ParseError(f"missing {what}", line=len(lines) + 1)
        return lines[idx]

    if need(0, "version line") != NATIVE_VERSION:
        raise UnsupportedVersionError(
            f"expected version line '{NATIVE_VERSION}'", line=1
        )
    dims_tokens = need(1, "dims line").split()
    if len(dims_tokens) != 2 or dims_tokens[0] != "dims":
        raise ParseError("expected 'dims D'", line=2)
    try:
        dims = int(dims_tokens[1])
    except ValueError:
        raise ParseError("dims must be an integer", line=2) from None
    if dims not in (2, 3):
        raise ParseError("dims must be 2 or 3", line=2)

    extent_tokens = need(2, "extent line").split()
    if not extent_tokens or extent_tokens[0] != "extent":
        raise ParseError("expected 'extent ...'", line=3)
    extent = _parse_ints(extent_tokens[1:], dims, "extent", line=3)
    if any(e <= 0 for e in extent):
        raise ParseError("extent entries must be positive", line=3)

    agent = _parse_endpoint(need(3, "agent line"), "agent", dims, line=4)
    goal = _parse_endpoint(need(4, "goal line"), "goal", dims, line=5)

    n_slices = 1 if dims == 2 else extent[0]
    rows_per, row_len = (extent[0], extent[1]) if dims == 2 else (extent[1], extent[2])
    occ = np.zeros(extent, dtype=bool)
    idx = 5
    for s in range(n_slices):
        if s:
            sep = need(idx, "blank separator line")
            if sep != "":
                raise ParseError("expected a blank line between slices",
                                 line=idx + 1)
            idx += 1
        for r in range(rows_per):
            row = need(idx, "map row")
            if len(row) != row_len:
                raise ParseError(
                    f"row has {len(row)} cells, expected {row_len}", line=idx + 1
                )
            for c, ch in enumerate(row):
                if ch == "#":
                    occ[(s, r, c) if dims == 3 else (r, c)] = True
                elif ch != ".":
                    raise ParseError(
                        f"unknown cell character {ch!r}", line=idx + 1, column=c + 1
                    )
            idx += 1
    if idx != len(lines):
        raise ParseError("unexpected content after map rows", line=idx + 1)

    for name, cell, line in (("agent", agent, 4), ("goal", goal, 5)):
        if cell is None:
            continue
        if not all(0 <= v < e for v, e in zip(cell, extent)):
            raise ParseError(f"{name} cell out of bounds", line=line)
        if occ[cell]:
            raise ParseError(f"{name} cell is an obstacle", line=line)
    return GridMap(occ, agent=agent, goal=goal)


def parse_movingai(text: Union[str, bytes]) -> GridMap:
    raw = _coerce_text(text).split("\n")
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in raw]

    def need(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise ParseError(f"missing {what}", line=len(lines) + 1)
        return lines[idx]

    head = need(0, "type line").split()
    if len(head) < 2 or head[0] != "type":
        raise ParseError("expected 'type <name>'", line=1)

    def header_int(idx: int, name: str) -> int:
        tokens = need(idx, f"{name} line").split()
        if len(tokens) != 2 or tokens[0] != name:
            raise ParseError(f"expected '{name} N'", line=idx + 1)
        try:
            value = int(tokens[1])
        except ValueError:
            raise ParseError(f"{name} must be an integer", line=idx + 1) from None
        if value <= 0:
            raise ParseError(f"{name} must be positive", line=idx + 1)
        return value

    height = header_int(1, "height")
    width = header_int(2, "width")
    if need(3, "map marker").strip() != "map":
        raise ParseError("expected 'map'", line=4)

    occ = np.zeros((height, width), dtype=bool)
    for r in range(height):
        row = need(4 + r, "map row")
        if len(row) != width:
            raise ParseError(
                f"row has {len(row)} cells, expected {width}", line=5 + r
            )
        for c, ch in enumerate(row):
            if ch in MOVINGAI_OBSTACLE:
                occ[r, c] = True
            elif ch not in MOVINGAI_PASSABLE:
                raise ParseError(
                    f"unknown cell character {ch!r}", line=5 + r, column=c + 1
                )
    for extra in range(4 + height, len(lines)):
        if lines[extra] != "":
            raise ParseError("unexpected content after map rows", line=extra + 1)
    return GridMap(occ)


def load_map(path: Union[str, FilePath]) -> GridMap:
    """Read one map file: the native format when it starts with the native
    version line's first word, MovingAI otherwise."""
    data = FilePath(path).read_bytes()
    if data.startswith(b"pbgrid "):
        return load_native(data)
    return parse_movingai(data)
