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
from typing import FrozenSet, List, Optional, Tuple, Union

import numpy as np

from .grid import Cell, GridMap

NATIVE_VERSION = "pbgrid v1"

MOVINGAI_PASSABLE = frozenset(".GS")
MOVINGAI_OBSTACLE = frozenset("@OTW")


def _cell_table(
    obstacle: FrozenSet[str], passable: FrozenSet[str]
) -> Tuple[FrozenSet[str], bytes]:
    """A format's cell characters, and the ``bytes.translate`` table that
    maps each of them to 1 (obstacle) or 0 (free)."""
    return obstacle | passable, bytes(chr(code) in obstacle for code in range(256))


_NATIVE_CELLS = _cell_table(frozenset("#"), frozenset("."))
_MOVINGAI_CELLS = _cell_table(MOVINGAI_OBSTACLE, MOVINGAI_PASSABLE)


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


def _line(lines: List[str], idx: int, what: str) -> str:
    """Line ``idx`` (0-based), or a ParseError naming what is missing."""
    if idx >= len(lines):
        raise ParseError(f"missing {what}", line=len(lines) + 1)
    return lines[idx]


def _read_rows(
    lines: List[str], start: int, occ: np.ndarray, cells: Tuple[FrozenSet[str], bytes]
) -> int:
    """Decode the rows of the 2D ``occ`` from ``lines[start:]``, one
    character per cell (see ``_cell_table``); returns the next line index."""
    allowed, table = cells
    rows, width = occ.shape
    for idx in range(start, start + rows):
        row = _line(lines, idx, "map row")
        if len(row) != width:
            raise ParseError(f"row has {len(row)} cells, expected {width}", line=idx + 1)
        if not allowed.issuperset(row):
            column, ch = next((c, ch) for c, ch in enumerate(row, 1) if ch not in allowed)
            raise ParseError(f"unknown cell character {ch!r}", line=idx + 1, column=column)
    body = "".join(lines[start:start + rows]).encode("latin-1").translate(table)
    occ[...] = np.frombuffer(body, dtype=bool).reshape(rows, width)
    return start + rows


def load_native(text: Union[str, bytes]) -> GridMap:
    lines = _coerce_text(text).split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise ParseError("file must end with exactly one newline", line=len(lines))
    lines = lines[:-1]
    if _line(lines, 0, "version line") != NATIVE_VERSION:
        raise UnsupportedVersionError(
            f"expected version line '{NATIVE_VERSION}'", line=1
        )
    dims_tokens = _line(lines, 1, "dims line").split()
    if len(dims_tokens) != 2 or dims_tokens[0] != "dims":
        raise ParseError("expected 'dims D'", line=2)
    try:
        dims = int(dims_tokens[1])
    except ValueError:
        raise ParseError("dims must be an integer", line=2) from None
    if dims not in (2, 3):
        raise ParseError("dims must be 2 or 3", line=2)

    extent_tokens = _line(lines, 2, "extent line").split()
    if not extent_tokens or extent_tokens[0] != "extent":
        raise ParseError("expected 'extent ...'", line=3)
    extent = _parse_ints(extent_tokens[1:], dims, "extent", line=3)
    if any(e <= 0 for e in extent):
        raise ParseError("extent entries must be positive", line=3)

    agent = _parse_endpoint(_line(lines, 3, "agent line"), "agent", dims, line=4)
    goal = _parse_endpoint(_line(lines, 4, "goal line"), "goal", dims, line=5)

    occ = np.zeros(extent, dtype=bool)
    idx = 5
    for s, block in enumerate(occ[np.newaxis] if dims == 2 else occ):
        if s:
            if _line(lines, idx, "blank separator line") != "":
                raise ParseError("expected a blank line between slices", line=idx + 1)
            idx += 1
        idx = _read_rows(lines, idx, block, _NATIVE_CELLS)
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
    head = _line(lines, 0, "type line").split()
    if len(head) < 2 or head[0] != "type":
        raise ParseError("expected 'type <name>'", line=1)

    def header_int(idx: int, name: str) -> int:
        tokens = _line(lines, idx, f"{name} line").split()
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
    if _line(lines, 3, "map marker").strip() != "map":
        raise ParseError("expected 'map'", line=4)

    occ = np.zeros((height, width), dtype=bool)
    for extra in range(_read_rows(lines, 4, occ, _MOVINGAI_CELLS), len(lines)):
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
