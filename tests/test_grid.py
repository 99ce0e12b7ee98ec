import math

import numpy as np
import pytest

from pbgrid.grid import (
    Connectivity,
    DomainError,
    FlatCellSet,
    FlatGrid,
    GridMap,
    InvalidPathError,
    MapError,
    MoveModel,
    Path,
    distance_transform,
    euclidean_distance,
    neighbors,
    validate_path,
)

FULL = MoveModel(Connectivity.FULL)
ORTH = MoveModel(Connectivity.ORTHOGONAL)


def brute_force_distance_field(occ):
    """Independent oracle: per-cell min distance over all obstacle cells."""
    obstacles = np.argwhere(occ)
    out = np.zeros(occ.shape, dtype=float)
    if len(obstacles) == 0:
        out[:] = np.inf
        return out
    for cell in np.ndindex(occ.shape):
        if occ[cell]:
            continue
        d2 = ((obstacles - np.array(cell)) ** 2).sum(axis=1)
        out[cell] = math.sqrt(float(d2.min()))
    return out


def empty_map(*extent):
    return GridMap(np.zeros(extent, dtype=bool))


# --- neighbors -------------------------------------------------------------

def test_neighbors_full_interior_count():
    g = empty_map(5, 5)
    assert len(neighbors(g, (2, 2), FULL)) == 8


def test_neighbors_full_interior_count_3d():
    g = empty_map(5, 5, 5)
    assert len(neighbors(g, (2, 2, 2), FULL)) == 26


def test_neighbors_corner_count():
    g = empty_map(5, 5)
    assert len(neighbors(g, (0, 0), FULL)) == 3


def test_neighbors_orthogonal_counts():
    assert len(neighbors(empty_map(5, 5), (2, 2), ORTH)) == 4
    assert len(neighbors(empty_map(5, 5, 5), (2, 2, 2), ORTH)) == 6


def test_neighbors_out_of_bounds_is_domain_error():
    with pytest.raises(DomainError):
        neighbors(empty_map(4, 4), (4, 0), FULL)


def test_neighbors_order_is_lexicographic_by_move():
    g = empty_map(5, 5)
    cells = [c for c, _ in neighbors(g, (2, 2), FULL)]
    moves = [(a - 2, b - 2) for a, b in cells]
    assert moves == sorted(moves)


def test_neighbors_diagonal_blocked_by_corner_cut():
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, 1] = True
    occ[1, 0] = True
    g = GridMap(occ)
    # (0,0) -> (1,1) would squeeze between the two obstacles
    cells = [c for c, _ in neighbors(g, (0, 0), FULL)]
    assert (1, 1) not in cells
    # freeing one shoulder is not enough
    occ2 = np.zeros((3, 3), dtype=bool)
    occ2[0, 1] = True
    cells2 = [c for c, _ in neighbors(GridMap(occ2), (0, 0), FULL)]
    assert (1, 1) not in cells2


def test_neighbors_3d_corner_cut_checks_all_projections():
    # any lower-order cell around the corner blocks the 3-axis diagonal,
    # whether a face cell or an edge cell; the rule is direction-symmetric
    for blocked in [(1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]:
        occ = np.zeros((2, 2, 2), dtype=bool)
        occ[blocked] = True
        g = GridMap(occ)
        cells = [c for c, _ in neighbors(g, (0, 0, 0), FULL)]
        assert (1, 1, 1) not in cells, blocked
        back = [c for c, _ in neighbors(g, (1, 1, 1), FULL)]
        assert (0, 0, 0) not in back, blocked

    g3 = empty_map(2, 2, 2)
    cells3 = [c for c, _ in neighbors(g3, (0, 0, 0), FULL)]
    assert (1, 1, 1) in cells3


def test_neighbors_never_returns_obstacle_or_out_of_bounds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        occ = rng.random((6, 6)) < 0.4
        g = GridMap(occ)
        for cell in np.ndindex(occ.shape):
            for model in (FULL, ORTH):
                for n, cost in neighbors(g, cell, model):
                    assert g.in_bounds(n)
                    assert not occ[n]
                    assert cost > 0


def test_step_cost_symmetry_and_values():
    for dims in (2, 3):
        for move in FULL.moves(dims):
            rev = tuple(-m for m in move)
            assert MoveModel.step_cost(move) == MoveModel.step_cost(rev)
    assert MoveModel.step_cost((1, 0)) == 1.0
    assert MoveModel.step_cost((1, -1)) == math.sqrt(2)
    assert MoveModel.step_cost((1, 1, -1)) == math.sqrt(3)


# --- euclidean_distance ----------------------------------------------------

def test_euclidean_identity():
    assert euclidean_distance((0, 0), (0, 0)) == 0.0


def test_euclidean_pythagorean_triple():
    assert euclidean_distance((0, 0), (3, 4)) == 5.0


def test_euclidean_quadruple_3d():
    assert euclidean_distance((1, 2, 2), (3, 5, 8)) == 7.0


def test_euclidean_dim_mismatch():
    with pytest.raises(DomainError):
        euclidean_distance((0, 0), (1, 2, 3))


# --- distance_transform ----------------------------------------------------

def test_distance_transform_no_obstacles_unbounded():
    field = distance_transform(empty_map(4, 4))
    assert field.unbounded
    assert np.all(np.isinf(field.values))


def test_distance_transform_345_triangle():
    occ = np.zeros((6, 6), dtype=bool)
    occ[0, 0] = True
    field = distance_transform(GridMap(occ))
    assert not field.unbounded
    assert field.values[3, 4] == pytest.approx(5.0)
    assert field.values[0, 0] == 0.0


def test_distance_transform_matches_brute_force_2d():
    rng = np.random.default_rng(123)
    for size in range(2, 17):
        for _ in range(4):
            occ = rng.random((size, size)) < 0.3
            field = distance_transform(GridMap(occ))
            oracle = brute_force_distance_field(occ)
            if field.unbounded:
                assert not occ.any()
                continue
            assert np.allclose(field.values, oracle, atol=1e-9)


def test_distance_transform_matches_brute_force_3d():
    rng = np.random.default_rng(5)
    for _ in range(10):
        occ = rng.random((5, 6, 4)) < 0.2
        field = distance_transform(GridMap(occ))
        oracle = brute_force_distance_field(occ)
        if field.unbounded:
            assert not occ.any()
            continue
        assert np.allclose(field.values, oracle, atol=1e-9)


# --- GridMap ---------------------------------------------------------------

def test_gridmap_rejects_endpoint_on_obstacle():
    occ = np.zeros((3, 3), dtype=bool)
    occ[1, 1] = True
    with pytest.raises(MapError):
        GridMap(occ, agent=(1, 1), goal=(0, 0))


def test_gridmap_rejects_out_of_bounds_endpoint():
    with pytest.raises(MapError):
        GridMap(np.zeros((3, 3), dtype=bool), agent=(3, 0), goal=(0, 0))


def test_gridmap_occupancy_is_read_only():
    g = empty_map(3, 3)
    with pytest.raises(ValueError):
        g.occupancy[0, 0] = True
    with pytest.raises(AttributeError):
        g.agent = (0, 0)


def test_gridmap_copies_a_writable_array():
    occ = np.zeros((3, 3), dtype=bool)
    g = GridMap(occ)
    assert not np.shares_memory(g.occupancy, occ)
    assert occ.flags.writeable
    occ[0, 0] = True
    assert not g.occupancy[0, 0]
    # a read-only, C-contiguous bool array cannot change, so it is shared
    assert g.with_endpoints((1, 1), (2, 2)).occupancy is g.occupancy


def test_gridmap_free_count_and_equality():
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, 0] = True
    a = GridMap(occ, agent=(1, 1), goal=(2, 2))
    b = GridMap(occ.copy(), agent=(1, 1), goal=(2, 2))
    assert a.free_count == 8
    assert a == b
    assert a != GridMap(occ)


# --- Path and validator ----------------------------------------------------

def test_path_cost_decomposition():
    p = Path.from_cells([(0, 0), (0, 1), (1, 2), (2, 2)])
    assert p.step_counts == (2, 1, 0)
    assert p.cost == pytest.approx(2 + math.sqrt(2))
    assert p.cell_count == 4

    p3 = Path.from_cells([(0, 0, 0), (1, 1, 1)])
    assert p3.step_counts == (0, 0, 1)
    assert p3.cost == pytest.approx(math.sqrt(3))


def test_path_rejects_non_adjacent_cells():
    with pytest.raises(InvalidPathError):
        Path.from_cells([(0, 0), (2, 0)])


def test_validate_path_accepts_valid_walk():
    g = empty_map(4, 4)
    validate_path(g, [(0, 0), (1, 1), (1, 2)], FULL, start=(0, 0), goal=(1, 2))


def test_validate_path_rejects_obstacle_cell():
    occ = np.zeros((4, 4), dtype=bool)
    occ[1, 1] = True
    with pytest.raises(InvalidPathError):
        validate_path(GridMap(occ), [(0, 0), (1, 1)], FULL)


def test_validate_path_rejects_corner_cut():
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, 1] = True
    occ[1, 0] = True
    with pytest.raises(InvalidPathError):
        validate_path(GridMap(occ), [(0, 0), (1, 1)], FULL)


def test_validate_path_rejects_wrong_endpoints():
    g = empty_map(3, 3)
    with pytest.raises(InvalidPathError):
        validate_path(g, [(0, 0), (0, 1)], FULL, start=(1, 1))
    with pytest.raises(InvalidPathError):
        validate_path(g, [(0, 0), (0, 1)], FULL, goal=(2, 2))


def test_validate_path_rejects_orthogonal_model_diagonal():
    g = empty_map(3, 3)
    with pytest.raises(InvalidPathError):
        validate_path(g, [(0, 0), (1, 1)], ORTH)


# --- FlatGrid --------------------------------------------------------------

def test_flatgrid_round_trip_indices():
    occ = np.zeros((4, 5, 6), dtype=bool)
    fg = FlatGrid(GridMap(occ), FULL)
    for cell in [(0, 0, 0), (3, 4, 5), (1, 2, 3)]:
        assert fg.to_cell(fg.to_flat(cell)) == cell


def test_flatgrid_to_cells_matches_to_cell():
    rng = np.random.default_rng(7)
    for shape in ((4, 5), (3, 4, 5), (40, 50)):  # the last spans several chunks
        fg = FlatGrid(GridMap(np.zeros(shape, dtype=bool)), FULL)
        idx = rng.permutation(fg.size)  # border indices included
        assert list(fg.to_cells(idx)) == [fg.to_cell(int(i)) for i in idx]
        assert list(fg.to_cells(idx[:0])) == []


def _table_neighbors(fg, cell):
    """neighbors() as read from the legality tables."""
    idx = fg.to_flat(cell)
    return [
        (tuple(c + d for c, d in zip(cell, vec)), cost)
        for _, legal, cost, vec in fg.moves
        if legal[idx]
    ]


def test_flatgrid_agrees_with_neighbors():
    rng = np.random.default_rng(99)
    for dims, shape in ((2, (7, 6)), (3, (4, 5, 4))):
        for _ in range(20):
            occ = rng.random(shape) < 0.35
            g = GridMap(occ)
            for model in (FULL, ORTH):
                fg = FlatGrid(g, model)
                for cell in np.ndindex(shape):
                    assert _table_neighbors(fg, cell) == neighbors(g, cell, model)


@pytest.mark.parametrize("model", [FULL, ORTH], ids=["full", "orthogonal"])
@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 6), (6, 1), (3, 3), (5, 4), (1, 1, 1), (5, 1, 1), (1, 4, 1), (2, 1, 3), (3, 3, 3)]
)
def test_flatgrid_tables_equal_neighbors_at_every_cell(shape, model):
    # every occupancy of the small maps, a random sample of the larger ones;
    # obstacle cells included (the tables, like neighbors, ignore the source)
    size = int(np.prod(shape))
    if size <= 12:
        codes = range(1 << size)
    else:
        codes = np.random.default_rng(size).integers(0, 1 << size, 256).tolist()
    for code in codes:
        occ = np.array([(code >> k) & 1 for k in range(size)], dtype=bool).reshape(shape)
        g = GridMap(occ)
        fg = FlatGrid(g, model)
        assert [e[3] for e in fg.moves] == list(model.moves(len(shape)))
        for delta, legal, _, vec in fg.moves:
            assert fg.step[vec][1] is legal
            assert len(legal) == fg.size
            assert fg.to_flat(vec) - fg.to_flat((0,) * len(shape)) == delta
        for cell in np.ndindex(shape):
            assert _table_neighbors(fg, cell) == neighbors(g, cell, model)


# --- FlatCellSet ------------------------------------------------------------

def _view(shape, cells):
    fg = FlatGrid(GridMap(np.zeros(shape, dtype=bool)), FULL)
    return FlatCellSet(np.array([fg.to_flat(c) for c in cells], dtype=np.int64), fg.strides)


def test_flat_cell_set_behaves_as_a_set_of_cells():
    cells = [(3, 1), (0, 0), (2, 5), (0, 0), (3, 1)]  # repeats, out of order
    view = _view((4, 6), cells)
    same = set(cells)
    assert len(view) == 3
    assert sorted(view) == sorted(same)
    assert all(type(c) is int for cell in view for c in cell)
    assert all(cell in view for cell in same)
    assert (1, 1) not in view
    for other in (same, frozenset(same)):
        assert view == other and other == view
        assert view <= other and other <= view
        assert view >= other and other >= view
    smaller, larger = {(0, 0)}, same | {(1, 1)}
    assert view >= smaller and smaller <= view and not view <= smaller
    assert view <= larger and larger >= view and view != larger and larger != view
    assert view & {(0, 0), (1, 1)} == {(0, 0)}


def test_flat_cell_set_empty_view():
    for shape in ((3, 3), (2, 3, 4)):
        empty = _view(shape, [])
        assert len(empty) == 0 and list(empty) == []
        assert empty == set() and set() == empty
        assert empty <= {(0, 0)} and {(0, 0)} >= empty
        assert (0,) * len(shape) not in empty


def test_flat_cell_set_membership_does_not_alias():
    view = _view((20, 20), [(1, 0), (19, 19)])
    # (0, 22) has the padded flat index of (1, 0): 1*22 + 23 == 2*22 + 1
    assert (1, 0) in view and (0, 22) not in view
    for cell in [(-1, 0), (0, -1), (20, 19), (19, 20), (-1, -1), (1, 0, 0), (1,), (), [1, 0], "ab", None]:
        assert cell not in view
    view3 = _view((3, 4, 5), [(0, 1, 0), (2, 3, 4)])
    assert (0, 1, 0) in view3 and (2, 3, 4) in view3
    # (0, 0, 7) lands on the padded index of (0, 1, 0); (0, 1) is another dimension
    for cell in [(0, 0, 7), (0, 1), (3, 3, 4), (2, 4, 4), (2, 3, 5), (0, 1, 0, 0)]:
        assert cell not in view3


def test_flat_cell_set_from_coords_matches_flat_indices():
    coords = np.array([[2, 3, 4], [0, 0, 0], [2, 3, 4]])
    assert FlatCellSet.from_coords(coords, (3, 4, 5)) == {(2, 3, 4), (0, 0, 0)}
