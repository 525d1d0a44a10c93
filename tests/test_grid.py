import collections
import enum
import tracemalloc

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from conftest import MALFORMED_PATHS
from watarilink import grid
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import wataridori as wd
from watarilink.errors import ParseError, PuzzleError, ValidationError
from watarilink.grid import (HORIZONTAL, VERTICAL, Wall, first_shared_cell,
                             is_simple_orthogonal_path, region_map_from_rows,
                             region_runs, regions_from_walls)


class TestSimplePath:
    def test_l_shape(self):
        assert is_simple_orthogonal_path([(0, 0), (1, 0), (1, 1)], 6, 6)

    def test_non_adjacent_step(self):
        assert not is_simple_orthogonal_path([(0, 0), (2, 0)], 6, 6)

    def test_repeated_cell(self):
        assert not is_simple_orthogonal_path([(0, 0), (1, 0), (0, 0)], 6, 6)

    def test_too_short(self):
        assert not is_simple_orthogonal_path([(0, 0)], 6, 6)

    def test_out_of_bounds(self):
        assert not is_simple_orthogonal_path([(0, 0), (0, -1)], 6, 6)

    def test_list_cells_off_the_grid(self):
        # Bounds are read before any cell is hashed, so a path of
        # unhashable cells that leaves the grid is refused, not raised on.
        assert not is_simple_orthogonal_path([[-1, 0], [0, 0]], 2, 2)

    @pytest.mark.parametrize("cells, simple", [
        ([(0, 0), (0, 1)], True),
        ([(0, 0), (0, 1), (1, 1), (1, 0)], True),
        ([(0, 0), (1, 0), (0, 0)], False),
        ([(0, 0), (0, 0)], False),
        ([(0, 0), (1, 1)], False),
        ([(1, 1), (2, 1)], False),
        ([(0, 0)], False),
    ])
    def test_list_cells_judged_as_tuple_cells(self, cells, simple):
        assert is_simple_orthogonal_path(cells, 2, 2) is simple
        lists = [list(c) for c in cells]
        mixed = [list(c) if i % 2 else c for i, c in enumerate(cells)]
        assert is_simple_orthogonal_path(lists, 2, 2) is simple
        assert is_simple_orthogonal_path(mixed, 2, 2) is simple

    @pytest.mark.parametrize("cells", [
        [(0, 0), (0.5, 0), (1, 0)],
        [(0, 0), (1.0, 0)],
        [(True, 0), (0, 0)],
        [(0, 0), (1, 0), (1, True)],
        [[0, 0], [0.0, 1]],
    ], ids=["half-steps", "float", "bool", "bool-last", "float-list"])
    def test_non_integer_cells_refused(self, cells):
        # A coordinate is an integer under `documents.as_int`'s rule: a
        # float is not one, whatever its value, and neither is a bool.
        assert not is_simple_orthogonal_path(cells, 2, 2)

    @pytest.mark.parametrize("name", sorted(MALFORMED_PATHS))
    def test_cells_that_are_not_pairs_refused(self, name):
        # A cell with too many or too few values, a cell that is not a
        # sequence, and a string cell are refused, not raised on.
        cells, _ = MALFORMED_PATHS[name]
        assert not is_simple_orthogonal_path(cells, 6, 6)
        assert not is_simple_orthogonal_path(list(cells), 6, 6)

    def test_int_subclass_cells_accepted(self):
        # `documents.as_int` accepts an int subclass other than bool.
        one = enum.IntEnum("One", "ONE")(1)
        assert is_simple_orthogonal_path([(0, 0), (one, 0), (one, one)], 2, 2)

    @pytest.mark.parametrize("cell", [
        {0: "a", 1: "b"}, frozenset({0, 1}), b"\x00\x01", range(2),
    ], ids=["dict", "frozenset", "bytes", "range"])
    def test_other_cell_types_refused(self, cell):
        # Each unpacks to (0, 1), a step from (1, 1), but only tuple and
        # list cells are read as the equal tuples: the dict does not hash
        # and the others hash apart from (0, 1).
        assert not is_simple_orthogonal_path([cell, (1, 1)], 2, 2)
        assert not is_simple_orthogonal_path([(1, 1), cell], 2, 2)
        assert not is_simple_orthogonal_path([[1, 1], cell, (0, 0)], 2, 2)

    def test_frozenset_cell_does_not_hide_a_repeat(self):
        # Read as the tuple (0, 1), this path would repeat that cell.
        assert not is_simple_orthogonal_path(
            [(0, 1), frozenset({0, 1}), (1, 1)], 2, 2)

    def test_sequence_subclass_cells_accepted(self):
        # A tuple or list subclass, as `documents.as_cell` takes a list
        # subclass, is read as the equal tuple.
        class Pair(list):
            pass
        point = collections.namedtuple("Point", "x y")
        assert is_simple_orthogonal_path([point(0, 0), Pair([0, 1])], 2, 2)
        assert not is_simple_orthogonal_path(
            [point(0, 0), Pair([0, 1]), (0, 0)], 2, 2)


# Steps that are not unit orthogonal ones: zero, diagonal and long.
BAD_STEPS = [(0, 0), (1, 1), (-1, 1), (2, 0), (0, -3)]
UNIT_STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_simple_path_agrees_with_reference(data):
    """A walk on the grid that avoids itself, given at most one fault (a
    repeated cell, a bad step, or a cell off the grid), then cut to at
    most 8 cells with coordinates in -1..4."""
    width = data.draw(st.integers(1, 4), label="width")
    height = data.draw(st.integers(1, 4), label="height")
    cells = [data.draw(st.tuples(st.integers(0, width - 1),
                                 st.integers(0, height - 1)), label="start")]
    for _ in range(data.draw(st.integers(0, 7), label="steps")):
        x, y = cells[-1]
        free = [cell for cell in ((x + dx, y + dy) for dx, dy in UNIT_STEPS)
                if cell not in cells and 0 <= cell[0] < width
                and 0 <= cell[1] < height]
        if not free:
            break
        cells.append(data.draw(st.sampled_from(free), label="cell"))
    fault = data.draw(st.sampled_from([None, "repeat", "step", "unit"]),
                      label="fault")
    at = data.draw(st.integers(0, len(cells)), label="at")
    if fault == "repeat":
        cells.insert(at, data.draw(st.sampled_from(cells)))
    elif fault == "step":
        x, y = cells[at - 1]
        dx, dy = data.draw(st.sampled_from(BAD_STEPS))
        cells.insert(at, (x + dx, y + dy))
    elif fault == "unit":
        # One more unit step, which may leave the grid or repeat a cell.
        x, y = cells[-1]
        dx, dy = data.draw(st.sampled_from(UNIT_STEPS))
        cells.append((x + dx, y + dy))
    cells = [(min(max(x, -1), 4), min(max(y, -1), 4))
             for x, y in cells[:data.draw(st.integers(0, 8), label="keep")]]
    want = oracles.is_simple_orthogonal_path_reference(cells, width, height)
    event(f"simple: {want}")
    assert is_simple_orthogonal_path(cells, width, height) is want
    assert is_simple_orthogonal_path([list(c) for c in cells], width,
                                     height) is want


class TestRegionsFromWalls:
    def test_no_walls_single_region(self):
        rmap = regions_from_walls([], 2, 2)
        assert rmap.region_count == 1
        assert rmap.ids == ((0, 0), (0, 0))

    def test_single_wall_two_regions(self):
        rmap = regions_from_walls([Wall(VERTICAL, 1, 0), Wall(VERTICAL, 1, 1)],
                                  2, 2)
        assert rmap.region_count == 2
        # canonical: region containing the top-left cell gets id 0
        assert rmap.id_at((0, 1)) == 0
        assert rmap.id_at((1, 1)) == 1

    def test_off_lattice_wall_rejected(self):
        with pytest.raises(ValidationError):
            regions_from_walls([Wall(HORIZONTAL, 2, 0)], 2, 2)
        with pytest.raises(ValidationError):
            regions_from_walls([Wall(VERTICAL, 0, 2)], 2, 2)

    def test_unknown_wall_kind_rejected(self):
        with pytest.raises(ValidationError) as err:
            regions_from_walls([Wall("d", 1, 1)], 2, 2)
        assert (err.value.code, err.value.message) == \
            ("BAD_WALL", "unknown wall kind 'd'")

    def test_sample_walls_make_18_regions(self, sample_wataridori,
                                          sample_wataridori_walls):
        rmap = regions_from_walls(sample_wataridori_walls, 6, 6)
        assert rmap.region_count == 18
        assert rmap == sample_wataridori.regions

    def test_ids_dense_and_canonical(self, sample_wataridori_walls):
        rmap = regions_from_walls(sample_wataridori_walls, 6, 6)
        seen = set()
        expected = 0
        for y in range(rmap.height - 1, -1, -1):
            for x in range(rmap.width):
                rid = rmap.ids[y][x]
                if rid not in seen:
                    assert rid == expected, "first-seen ids must count up"
                    seen.add(rid)
                    expected += 1
        assert seen == set(range(rmap.region_count))

    @pytest.mark.parametrize("width, height, code", [
        (0, 3, "BAD_DIMENSIONS"), (3, -1, "BAD_DIMENSIONS"),
        (600, 600, "TOO_LARGE")])
    def test_size_refused_before_any_wall_is_read(self, width, height, code):
        with pytest.raises(ValidationError) as err:
            regions_from_walls([["d", 1, 1], Wall(HORIZONTAL, -5, 0)],
                               width, height)
        assert err.value.code == code

    @pytest.mark.parametrize("walls, message", [
        ([Wall(VERTICAL, 1, 0), (HORIZONTAL, 5, 0), ["d", 1, 1]],
         "wall ('h', 5, 0) off the 2x2 lattice"),
        ([Wall(VERTICAL, 1, 0), ["d", 1, 1], (HORIZONTAL, 5, 0)],
         "unknown wall kind 'd'"),
        ([[VERTICAL, 0, 2], (HORIZONTAL, 5, 0)],
         "wall ['v', 0, 2] off the 2x2 lattice"),
        (iter([(VERTICAL, 2, 0), Wall(HORIZONTAL, 2, 0)]),
         "wall Wall(kind='h', x=2, y=0) off the 2x2 lattice"),
    ], ids=["tuple", "kind", "list", "iterator"])
    def test_bad_wall_names_the_first_in_iteration_order(self, walls,
                                                         message):
        with pytest.raises(ValidationError) as err:
            regions_from_walls(walls, 2, 2)
        assert (err.value.code, err.value.message) == ("BAD_WALL", message)

    @pytest.mark.parametrize("wall, shown", [
        ((VERTICAL, 1), "('v', 1)"),
        ((VERTICAL, 1, 0, 9), "('v', 1, 0, 9)"),
        (None, "None"),
        ((VERTICAL, "1", 0), "('v', '1', 0)"),
        ((VERTICAL, 1.5, 0), "('v', 1.5, 0)"),
        ((VERTICAL, 1.0, 0), "('v', 1.0, 0)"),
        ((VERTICAL, True, 0), "('v', True, 0)"),
        ([VERTICAL, 1, None], "['v', 1, None]"),
        ((VERTICAL, 1, list(range(1000))),
         "('v', 1, [0, 1, 2, 3, 4, 5, ...])"),
    ], ids=["two-items", "four-items", "none", "str", "float",
            "integral-float", "bool", "list", "long"])
    def test_malformed_wall_rejected(self, wall, shown):
        with pytest.raises(ValidationError) as err:
            regions_from_walls([Wall(VERTICAL, 1, 0), wall], 2, 1)
        assert (err.value.code, err.value.message) == (
            "BAD_WALL", f"wall {shown} is not (kind, x, y) with integer "
                        "x and y")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_regions_from_any_wall_form_agree_with_reachability_oracle(data):
    """Walls on the boundary, repeated walls, and walls given as a Wall, a
    tuple or a list flood as the set of their Walls does."""
    width = data.draw(st.integers(1, 12), label="width")
    height = data.draw(st.integers(1, 12), label="height")
    candidates = [Wall(VERTICAL, x, y)
                  for x in range(width + 1) for y in range(height)]
    candidates += [Wall(HORIZONTAL, x, y)
                   for x in range(width) for y in range(height + 1)]
    present = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                 max_size=len(candidates)), label="walls")
    chosen = [wall for wall, keep in zip(candidates, present) if keep]
    chosen += data.draw(st.lists(st.sampled_from(candidates), max_size=8),
                        label="repeats")
    forms = data.draw(st.lists(st.sampled_from([Wall._make, tuple, list]),
                               min_size=len(chosen), max_size=len(chosen)),
                      label="forms")
    walls = [form(wall) for form, wall in zip(forms, chosen)]
    rmap = regions_from_walls(walls, width, height)
    want = oracles.region_partition_by_reachability(set(chosen), width,
                                                    height)
    assert oracles.partition_of_region_map(rmap) == want
    assert rmap == oracles.regions_from_wall_set(chosen, width, height)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_regions_agree_with_reachability_oracle(data):
    width = data.draw(st.integers(1, 6), label="width")
    height = data.draw(st.integers(1, 6), label="height")
    candidates = [Wall(VERTICAL, x, y)
                  for x in range(1, width) for y in range(height)]
    candidates += [Wall(HORIZONTAL, x, y)
                   for x in range(width) for y in range(1, height)]
    # Each wall is drawn on its own, so most boards have several regions.
    present = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                 max_size=len(candidates)), label="walls")
    walls = {wall for wall, keep in zip(candidates, present) if keep}
    rmap = regions_from_walls(walls, width, height)
    want = oracles.region_partition_by_reachability(walls, width, height)
    assert oracles.partition_of_region_map(rmap) == want
    # regions cover the grid and rebuilding from explicit ids is idempotent
    assert sum(len(g) for g in want) == width * height
    assert region_map_from_rows(rmap.ids) == rmap


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rows_disconnected_exactly_when_oracle_splits_an_id(data):
    width = data.draw(st.integers(1, 6), label="width")
    height = data.draw(st.integers(1, 6), label="height")
    raw = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=width,
                                      max_size=width),
                             min_size=height, max_size=height), label="ids")
    dense = {}
    rows = [[dense.setdefault(v, len(dense)) for v in row] for row in raw]
    walls = oracles.walls_between_regions(rows)
    want = oracles.region_partition_by_reachability(walls, width, height)
    if len(want) > len(dense):
        with pytest.raises(ValidationError) as err:
            region_map_from_rows(rows)
        assert err.value.code == "REGION_NOT_CONNECTED"
    else:
        rmap = region_map_from_rows(rows)
        assert oracles.partition_of_region_map(rmap) == want
        assert rmap == oracles.regions_from_wall_set(walls, width, height)


def _outcome(build, rows):
    """The RegionMap `build` makes of `rows`, or its error code."""
    try:
        return build(rows)
    except ValidationError as exc:
        return exc.code


def _neighbors(x, y):
    return ((x, y + 1), (x, y - 1), (x - 1, y), (x + 1, y))


def _grown_labels(rnd, width, height, count):
    """`count` connected labels grown from random seed cells, one random
    unlabeled cell next to a labeled one at a time."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    label = {cell: i for i, cell in enumerate(rnd.sample(cells, count))}
    while len(label) < len(cells):
        cell = rnd.choice([c for c in cells if c not in label
                           and any(n in label for n in _neighbors(*c))])
        label[cell] = label[rnd.choice([n for n in _neighbors(*cell)
                                        if n in label])]
    return [[label[x, y] for x in range(width)] for y in range(height)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rows_agree_with_bfs_oracle(data):
    shape = data.draw(st.sampled_from(["grid", "row", "column"]),
                      label="shape")
    width = 1 if shape == "column" else data.draw(st.integers(2, 9),
                                                  label="width")
    height = 1 if shape == "row" else data.draw(st.integers(2, 9),
                                                label="height")
    count = data.draw(st.integers(2, min(8, width * height)), label="labels")
    rnd = data.draw(st.randoms(use_true_random=False), label="rnd")
    # Most boards are connected, so most examples reach the union of runs.
    mode = data.draw(st.sampled_from(["grown", "grown", "canonical",
                                      "canonical", "recolored", "uniform",
                                      "sparse"]), label="mode")
    if mode == "uniform":
        dense = {}
        rows = [[dense.setdefault(rnd.randrange(count), len(dense))
                 for _ in range(width)] for _ in range(height)]
    else:
        rows = _grown_labels(rnd, width, height, count)
    if mode == "canonical":
        first = dict.fromkeys(v for row in reversed(rows) for v in row)
        relabel = dict(zip(first, range(count)))
        rows = [[relabel[v] for v in row] for row in rows]
    elif mode == "recolored":
        rows[rnd.randrange(height)][rnd.randrange(width)] = \
            rnd.randrange(count)
    elif mode == "sparse":
        gap = rnd.randrange(count)
        rows = [[v + (v >= gap) for v in row] for row in rows]
    got = _outcome(region_map_from_rows, rows)
    event(f"regions: {got.region_count}" if isinstance(got, grid.RegionMap)
          else f"error: {got}")
    assert got == _outcome(oracles.region_map_from_rows_reference, rows)


# Rows are bottom row first, so each picture below is drawn upside down.
SHAPED_ROWS = {
    # label 0 rings label 1: four runs of 0 join in a cycle
    "ring": ([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]], 2),
    # a U of 0 joined only through its lower row (rows[0])
    "u-lower-row": ([[0, 0, 0], [0, 1, 0], [0, 1, 0]], 2),
    # the same U upside down, joined only through its top row
    "u-top-row": ([[0, 1, 0], [0, 1, 0], [0, 0, 0]], 2),
    "spiral": ([[0, 0, 0, 0, 0],
                [0, 1, 1, 1, 0],
                [0, 0, 0, 1, 0],
                [1, 1, 1, 1, 0],
                [0, 0, 0, 0, 0]], 2),
    "spiral-cut": ([[0, 0, 0, 0, 0],
                    [0, 1, 1, 1, 0],
                    [0, 0, 0, 1, 1],
                    [1, 1, 1, 1, 0],
                    [0, 0, 0, 0, 0]], "REGION_NOT_CONNECTED"),
    "staircase": ([[0, 1, 1], [0, 0, 1], [2, 0, 0]], 3),
    "non-canonical": ([[2, 2, 1], [0, 0, 1], [0, 3, 3]], 4),
    "diagonal-only": ([[0, 1], [1, 0]], "REGION_NOT_CONNECTED"),
    "sparse": ([[0, 2], [0, 2]], "IDS_NOT_DENSE"),
    "no-rows": ([], "BAD_DIMENSIONS"),
    "empty-row": ([[0], []], "BAD_DIMENSIONS"),
    "ragged": ([[0, 0], [0]], "RAGGED_ROWS"),
}


@pytest.mark.parametrize("name", sorted(SHAPED_ROWS))
def test_shaped_rows_agree_with_bfs_oracle(name):
    rows, want = SHAPED_ROWS[name]
    got = _outcome(region_map_from_rows, rows)
    assert got == _outcome(oracles.region_map_from_rows_reference, rows)
    assert (got.region_count if isinstance(got, grid.RegionMap)
            else got) == want


class TestRegionMapFromRows:
    def test_relabels_to_canonical_order(self):
        rmap = region_map_from_rows([[1, 0], [1, 0]])
        assert rmap.ids == ((0, 1), (0, 1))

    def test_rejects_sparse_ids(self):
        with pytest.raises(ValidationError) as err:
            region_map_from_rows([[0, 2], [0, 2]])
        assert err.value.code == "IDS_NOT_DENSE"

    def test_rejects_disconnected_region(self):
        with pytest.raises(ValidationError) as err:
            region_map_from_rows([[0, 1, 0]])
        assert err.value.code == "REGION_NOT_CONNECTED"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError) as err:
            region_map_from_rows([[0, 0], [0]])
        assert err.value.code == "RAGGED_ROWS"


class TestRegionRuns:
    def test_collapses_consecutive_duplicates(self):
        # one row; per-cell ids [3,3,7,7,7,2] after canonical relabel
        rmap = region_map_from_rows([[0, 0, 1, 1, 1, 2]])
        path = [(x, 0) for x in range(6)]
        assert region_runs(path, rmap) == [0, 1, 2]

    @pytest.mark.parametrize("cell", [(3, 0), (0, 1), (-1, 0)])
    def test_off_grid_cell_rejected(self, cell):
        rmap = region_map_from_rows([[0, 0, 1]])
        with pytest.raises(ValidationError) as err:
            region_runs([(0, 0), cell], rmap)
        assert (err.value.code, err.value.message) == \
            ("OUT_OF_BOUNDS", f"path cell {cell} outside region map")

    def test_keeps_reentry_visible(self):
        walls = [Wall(VERTICAL, 1, 0), Wall(VERTICAL, 2, 0)]
        rmap = regions_from_walls(walls, 3, 1)
        runs = region_runs([(0, 0), (1, 0), (2, 0)], rmap)
        assert len(runs) == 3
        assert runs[0] != runs[1] and runs[1] != runs[2]

    def test_run_lengths_sum_to_path_length(self, sample_wataridori,
                                            sample_wataridori_solution):
        rmap = sample_wataridori.regions
        for path in sample_wataridori_solution.paths:
            runs = region_runs(path, rmap)
            assert len(runs) >= 1
            run_lengths = []
            for cell in path:
                rid = rmap.id_at(cell)
                if not run_lengths or rmap.id_at(prev) != rid:
                    run_lengths.append(0)
                run_lengths[-1] += 1
                prev = cell
            assert sum(run_lengths) == len(path)
            assert len(run_lengths) == len(runs)

    def test_invariant_under_equivalent_wall_sets(self,
                                                  sample_wataridori_walls):
        rmap1 = regions_from_walls(sample_wataridori_walls, 6, 6)
        # redundant boundary walls induce the same map
        extra = list(sample_wataridori_walls)
        extra += [Wall(HORIZONTAL, x, 0) for x in range(6)]
        extra += [Wall(VERTICAL, 6, y) for y in range(6)]
        rmap2 = regions_from_walls(extra, 6, 6)
        assert rmap1 == rmap2
        path = [(0, 0), (0, 1), (0, 2)]
        assert region_runs(path, rmap1) == region_runs(path, rmap2)


class TestPairwiseDisjoint:
    def test_disjoint(self):
        assert first_shared_cell([[(0, 0), (1, 0)], [(0, 1), (1, 1)]]) is None

    def test_shared_cell(self):
        assert first_shared_cell([[(0, 0), (1, 0)],
                                  [(1, 0), (1, 1)]]) == (1, (1, 0))

    def test_names_the_later_path_and_its_first_shared_cell(self):
        paths = [[(0, 0), (1, 0), (2, 0)], [(3, 0), (3, 1)],
                 [(3, 1), (2, 1), (2, 0)], [(3, 0), (4, 0)]]
        assert first_shared_cell(paths) == (2, (3, 1))

    def test_repeat_inside_one_path_is_not_shared(self):
        assert first_shared_cell([[(0, 0), (1, 0), (0, 0)],
                                  [(2, 0), (3, 0)]]) is None

    def test_sample_solution_paths(self, sample_wataridori_solution):
        assert first_shared_cell(sample_wataridori_solution.paths) is None

    def test_order_insensitive(self, sample_wataridori_solution):
        paths = list(sample_wataridori_solution.paths)
        assert first_shared_cell(list(reversed(paths))) is None
        paths.append(paths[3][1:3])
        assert first_shared_cell(paths) == (len(paths) - 1, paths[3][1])
        assert first_shared_cell(list(reversed(paths))) == (
            len(paths) - 4, paths[3][1])


class TestSizeGuard:
    """A grid over `MAX_CELLS` is refused with TOO_LARGE before anything
    is allocated for it.  The cap is lowered to 10,000 cells, so each grid
    below is refused at a size where a missing guard costs megabytes, not
    the machine."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(grid, "MAX_CELLS", 10_000)

    def refused(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(PuzzleError) as exc:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "TOO_LARGE"
        assert peak < 100_000
        return exc.value

    def test_cap_counts_cells(self, monkeypatch):
        grid.check_size(100, 100)
        grid.check_size(10_000, 1)
        self.refused(lambda: grid.check_size(101, 100))
        monkeypatch.undo()
        assert grid.MAX_CELLS >= 300 * 300
        grid.check_size(300, 300)

    def test_solvers_refuse_before_allocating(self):
        self.refused(lambda: nl.solve(nl.NumberlinkInstance(
            400, 400, ((1, (0, 0), (399, 399)),))))
        # A region map whose rows were never built: the guard must fire
        # before the solver reads them.
        rmap = grid.RegionMap(width=400, height=400, ids=(), region_count=1)
        self.refused(lambda: wd.solve(wd.WataridoriInstance(
            rmap, (wd.Circle(0, 0), wd.Circle(399, 399)))))

    def test_regions_from_walls_refuses_before_allocating(self):
        self.refused(lambda: regions_from_walls([], 400, 400))

    def test_reduction_refuses_a_target_over_the_cap(self):
        # 40 x 40 is under the cap; its 360 x 360 target is not.
        g = nl.NumberlinkInstance(40, 40, ((1, (0, 0), (39, 39)),))
        assert "360x360" in self.refused(lambda: rd.reduce_instance(g)).message

    @pytest.mark.parametrize("puzzle, parse", [
        ({"puzzle": "numberlink", "terminals": []}, nl.parse_instance),
        ({"puzzle": "wataridori", "regions": [], "circles": []},
         wd.parse_instance),
    ])
    def test_parsers_refuse_before_reading_the_grid(self, puzzle, parse):
        error = self.refused(lambda: parse(dict(puzzle, width=400,
                                                height=400)))
        assert isinstance(error, ParseError) and error.location == "width"


@pytest.mark.parametrize("width, height",
                         [(0, 3), (3, 0), (-1, 3), (3, -2),
                          (-100_000, -100_000)])
@pytest.mark.parametrize("puzzle, parse", [
    ({"puzzle": "numberlink",
      "terminals": [{"label": 1, "cells": [[0, 0], [1, 0]]}]},
     nl.parse_instance),
    ({"puzzle": "wataridori", "regions": [], "circles": []},
     wd.parse_instance),
], ids=["numberlink", "wataridori"])
def test_parsers_refuse_an_empty_grid(puzzle, parse, width, height):
    with pytest.raises(ParseError) as exc:
        parse(dict(puzzle, width=width, height=height))
    assert exc.value.code == "BAD_DIMENSIONS"
    assert exc.value.location == "width"
