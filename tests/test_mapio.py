from pathlib import Path

import numpy as np
import pytest

from conftest import build_u_trap
from pbgrid.grid import GridMap
from pbgrid.mapgen import GenConfig, MapType, generate, place_agent_goal
from pbgrid.mapio import (
    ParseError,
    UnsupportedVersionError,
    load_map,
    load_native,
    parse_movingai,
    save_native,
)

FIXTURES = Path(__file__).parent / "fixtures"


def random_maps(n, seed=0):
    rng = np.random.default_rng(seed)
    types = [MapType.UNIFORM_RANDOM_FILL, MapType.BLOCK, MapType.HOUSE]
    for i in range(n):
        t = types[i % 3]
        dims = 2 if i % 5 else 3
        extent = (16, 16) if dims == 2 else (8, 8, 8)
        if t is MapType.HOUSE:
            extent = (24, 24) if dims == 2 else (12, 12, 12)
        cfg = GenConfig(
            map_type=t,
            extent=extent,
            min_room_range=(4, 6),
            max_room_range=(8, 10),
            seed=int(rng.integers(0, 2**31)),
        )
        g = generate(cfg)
        if i % 2 and g.free_count >= 2:
            g = place_agent_goal(g, rng)
        yield g


# --- native format -------------------------------------------------------------

def test_native_2d_golden():
    occ = np.zeros((3, 4), dtype=bool)
    occ[0, 2] = True
    occ[2, 1] = True
    g = GridMap(occ, agent=(0, 0), goal=(2, 3))
    assert save_native(g) == (
        "pbgrid v1\n"
        "dims 2\n"
        "extent 3 4\n"
        "agent 0 0\n"
        "goal 2 3\n"
        "..#.\n"
        "....\n"
        ".#..\n"
    )


def test_native_3d_golden_two_slices():
    occ = np.zeros((2, 2, 2), dtype=bool)
    occ[1, 0, 1] = True
    g = GridMap(occ)
    assert save_native(g) == (
        "pbgrid v1\n"
        "dims 3\n"
        "extent 2 2 2\n"
        "agent -\n"
        "goal -\n"
        "..\n"
        "..\n"
        "\n"
        ".#\n"
        "..\n"
    )


def test_native_round_trip_maps():
    for g in random_maps(60):
        text = save_native(g)
        back = load_native(text)
        assert back == g
        assert save_native(back) == text  # byte-for-byte


def test_native_load_rejects_bad_version():
    text = save_native(GridMap(np.zeros((2, 2), dtype=bool)))
    with pytest.raises(UnsupportedVersionError) as e:
        load_native(text.replace("pbgrid v1", "pbgrid v9"))
    assert e.value.line == 1


def test_native_load_locates_bad_cell_character():
    text = (
        "pbgrid v1\ndims 2\nextent 2 3\nagent -\ngoal -\n" "..x\n...\n"
    )
    with pytest.raises(ParseError) as e:
        load_native(text)
    assert e.value.line == 6
    assert e.value.column == 3


def test_native_load_locates_bad_cell_in_second_slice():
    text = (
        "pbgrid v1\ndims 3\nextent 2 2 3\nagent -\ngoal -\n"
        "...\n.#.\n\n#..\n.?#\n"
    )
    with pytest.raises(ParseError, match="unknown cell character '\\?'") as e:
        load_native(text)
    assert (e.value.line, e.value.column) == (10, 2)


def test_native_load_rejects_wrong_row_length():
    text = "pbgrid v1\ndims 2\nextent 2 3\nagent -\ngoal -\n..\n...\n"
    with pytest.raises(ParseError) as e:
        load_native(text)
    assert e.value.line == 6


def test_native_load_rejects_missing_trailing_newline():
    text = "pbgrid v1\ndims 2\nextent 1 1\nagent -\ngoal -\n."
    with pytest.raises(ParseError):
        load_native(text)


def test_native_load_rejects_trailing_garbage():
    text = "pbgrid v1\ndims 2\nextent 1 2\nagent -\ngoal -\n..\nleft over\n"
    with pytest.raises(ParseError) as e:
        load_native(text)
    assert e.value.line == 7


def test_native_load_validates_endpoints():
    base = "pbgrid v1\ndims 2\nextent 2 2\nagent {a}\ngoal -\n.#\n..\n"
    with pytest.raises(ParseError) as e:
        load_native(base.format(a="5 0"))
    assert e.value.line == 4
    with pytest.raises(ParseError):
        load_native(base.format(a="0 1"))  # obstacle cell


def test_native_load_rejects_bad_dims():
    with pytest.raises(ParseError) as e:
        load_native("pbgrid v1\ndims 4\nextent 1 1 1 1\nagent -\ngoal -\n")
    assert e.value.line == 2


# --- MovingAI ------------------------------------------------------------------

def test_movingai_all_dots():
    g = parse_movingai("type octile\nheight 2\nwidth 2\nmap\n..\n..\n")
    assert g.extent == (2, 2)
    assert int(g.occupancy.sum()) == 0
    assert g.agent is None and g.goal is None


def test_movingai_character_classes():
    g = parse_movingai("type octile\nheight 1\nwidth 7\nmap\n.GS@OTW\n")
    assert g.occupancy.tolist() == [[False, False, False, True, True, True, True]]


def test_movingai_short_row_is_located():
    with pytest.raises(ParseError) as e:
        parse_movingai("type octile\nheight 2\nwidth 3\nmap\n...\n..\n")
    assert e.value.line == 6


def test_movingai_unknown_char_names_line_and_column():
    with pytest.raises(ParseError) as e:
        parse_movingai("type octile\nheight 2\nwidth 3\nmap\n...\n.z.\n")
    assert e.value.line == 6
    assert e.value.column == 2


def test_movingai_bad_header_lines():
    with pytest.raises(ParseError) as e:
        parse_movingai("octile\nheight 1\nwidth 1\nmap\n.\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_movingai("type octile\nheight x\nwidth 1\nmap\n.\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_movingai("type octile\nheight 1\nwidth 1\nnomap\n.\n")
    assert e.value.line == 4


def test_movingai_tolerates_crlf_and_trailing_blanks():
    g = parse_movingai("type octile\r\nheight 2\r\nwidth 2\r\nmap\r\n.@\r\n..\r\n\r\n")
    assert g.occupancy.tolist() == [[False, True], [False, False]]


def test_movingai_missing_rows():
    with pytest.raises(ParseError):
        parse_movingai("type octile\nheight 3\nwidth 2\nmap\n..\n")


def test_movingai_fixture_files_round_trip():
    files = sorted((FIXTURES / "movingai").glob("*.map"))
    assert len(files) == 10
    for f in files:
        g = parse_movingai(f.read_bytes())
        back = load_native(save_native(g))
        assert np.array_equal(back.occupancy, g.occupancy), f.name


def test_movingai_parser_is_total():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 120))
        blob = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        try:
            g = parse_movingai(blob)
            assert isinstance(g, GridMap)
        except ParseError:
            pass  # located failure is the accepted outcome


# --- load_map ---------------------------------------------------------------------

def test_load_map_dispatches(tmp_path):
    g = GridMap(np.zeros((2, 2), dtype=bool), agent=(0, 0), goal=(1, 1))
    native = tmp_path / "a.map"
    native.write_text(save_native(g))
    assert load_map(native) == g
    assert load_map(str(native)) == g
    moving = tmp_path / "b.map"
    moving.write_text("type octile\nheight 2\nwidth 2\nmap\n.@\n..\n")
    loaded = load_map(moving)
    assert loaded.occupancy.tolist() == [[False, True], [False, False]]
    # a file that claims the native format is parsed strictly as native
    bad = tmp_path / "c.map"
    bad.write_text("pbgrid v9\n")
    with pytest.raises(UnsupportedVersionError):
        load_map(bad)
    with pytest.raises(OSError):
        load_map(tmp_path / "missing.map")


# --- committed fixtures -----------------------------------------------------------

def test_u_trap_fixture_matches_builder():
    text = (FIXTURES / "u_trap.map").read_text()
    assert text == save_native(build_u_trap())
    assert load_native(text) == build_u_trap()
