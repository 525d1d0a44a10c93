import json
from itertools import combinations, product

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from watarilink import errors
from watarilink import wataridori as wd
from watarilink.errors import ParseError, ValidationError
from watarilink.grid import (VERTICAL, RegionMap, Wall, region_map_from_rows,
                             region_runs, regions_from_walls)


def make(rows, circles):
    rmap = region_map_from_rows(rows)
    return wd.WataridoriInstance(rmap, tuple(wd.Circle(*c) for c in circles))


class TestValidate:
    def test_sample_is_valid(self, sample_wataridori):
        inst = wd.validate_instance(sample_wataridori)
        assert len(inst.circles) == 14
        assert inst.regions.region_count == 18

    def test_duplicate_circle(self):
        inst = make([[0, 0]], [(0, 0, 1), (0, 0, None)])
        with pytest.raises(ValidationError) as err:
            wd.validate_instance(inst)
        assert err.value.code == "DUPLICATE_CIRCLE"

    def test_single_cell_single_circle_valid_but_unsolvable(self):
        inst = wd.validate_instance(make([[0]], [(0, 0, None)]))
        assert wd.solve(inst).status == wd.UNSAT

    def test_odd_circle_count_allowed_at_validation(self):
        inst = make([[0, 0, 0]], [(0, 0, None), (1, 0, None), (2, 0, None)])
        wd.validate_instance(inst)  # malformed it is not, merely unsolvable
        assert wd.solve(inst).status == wd.UNSAT

    def test_number_may_exceed_region_count(self):
        inst = make([[0, 0]], [(0, 0, 9), (1, 0, 9)])
        wd.validate_instance(inst)
        assert wd.solve(inst).status == wd.UNSAT


def two_circles(first, second, width=2):
    rmap = RegionMap(width, 1, ((0, 1),), 2)
    return wd.WataridoriInstance(rmap, (first, second))


# Instances with a value a parser would refuse as not an integer, with
# that value: a coordinate, a number, a bool coordinate or number, and a
# size.
NOT_INTEGERS = [
    (two_circles(wd.Circle(1.0, 0), wd.Circle(0, 0)), "1.0"),
    (two_circles(wd.Circle(1, 0, 1.5), wd.Circle(0, 0, 1.5)), "1.5"),
    (two_circles(wd.Circle(True, 0, 2), wd.Circle(0, 0, 2)), "True"),
    (two_circles(wd.Circle(1, 0, True), wd.Circle(0, 0, True)), "True"),
    (two_circles(wd.Circle(1, 0, 2), wd.Circle(0, 0, 2), 2.0), "2.0"),
]


@pytest.mark.parametrize("inst, shown", NOT_INTEGERS)
@pytest.mark.parametrize("call", [wd.validate_instance, wd.solve])
def test_non_integer_values_refused(call, inst, shown):
    with pytest.raises(ValidationError) as err:
        call(inst)
    assert err.value.code == "NOT_AN_INTEGER"
    assert err.value.message.endswith(f"got {shown}")


def test_wildcards_and_integer_numbers_pass_the_type_check():
    for numbers in ((None, None), (2, None), (2, 2)):
        inst = two_circles(wd.Circle(1, 0, numbers[0]),
                           wd.Circle(0, 0, numbers[1]))
        assert wd.validate_instance(inst) is inst
        assert wd.solve(inst).status == wd.SOLVED
    empty = wd.WataridoriInstance(RegionMap(2, 1, ((0, 1),), 2), ())
    assert wd.solve(empty).status == wd.SOLVED


class TestVerify:
    def test_sample_solution_accepted(self, sample_wataridori,
                                      sample_wataridori_solution):
        assert wd.verify_solution(sample_wataridori,
                                  sample_wataridori_solution)

    def test_eight_pair_path_has_eight_runs(self, sample_wataridori,
                                            sample_wataridori_solution):
        circle_at = {c.cell: c for c in sample_wataridori.circles}
        eights = [p for p in sample_wataridori_solution.paths
                  if circle_at[p[-1]].number == 8
                  or circle_at[p[0]].number == 8]
        assert len(eights) == 1
        runs = region_runs(eights[0], sample_wataridori.regions)
        assert len(runs) == 8

    def test_wildcard_pair_accepts_single_run(self, sample_wataridori,
                                              sample_wataridori_solution):
        pair = [p for p in sample_wataridori_solution.paths
                if set(p) == {(0, 4), (0, 5)}]
        assert len(pair) == 1
        assert len(region_runs(pair[0], sample_wataridori.regions)) == 1

    def test_region_reentry_rejected(self):
        # two stacked row regions; a U-shaped path dips into the bottom
        # row and comes back up, re-entering the top region
        walls = [Wall("h", x, 1) for x in range(3)]
        rmap = regions_from_walls(walls, 3, 2)
        assert rmap.region_count == 2
        inst = wd.WataridoriInstance(
            rmap, (wd.Circle(0, 1, None), wd.Circle(2, 1, None)))
        path = ((0, 1), (0, 0), (1, 0), (2, 0), (2, 1))
        runs = region_runs(path, rmap)
        assert len(runs) != len(set(runs))
        verdict = wd.verify_solution(inst, wd.WataridoriSolution((path,)))
        assert verdict.rule == errors.REGION_REENTERED

    def test_region_reentry_names_first_cell_of_reentering_run(self):
        # Canonical ids, top row first: 0 on top, then 1 (left column and
        # bottom row), 2 and 3.  Path 1 runs 1, 2, 3, 1: after three runs
        # it re-enters region 1 at (2, 0) and stays for a second cell.
        inst = make([[1, 1, 1], [1, 2, 3], [0, 0, 0]],
                    [(0, 2, None), (1, 2, None), (0, 1, None), (1, 0, None)])
        reentry = ((0, 1), (1, 1), (2, 1), (2, 0), (1, 0))
        assert region_runs(reentry, inst.regions) == [1, 2, 3, 1]
        for paths in ((((0, 2), (1, 2)), reentry),
                      (((1, 2), (0, 2)), reentry)):
            verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
            assert verdict == errors.reject(
                errors.REGION_REENTERED, path_index=1, cell=(2, 0),
                detail="region 1 entered twice")
        # Walked the other way, the path re-enters region 1 at (0, 1).
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(
            (((0, 2), (1, 2)), reentry[::-1])))
        assert verdict == errors.reject(
            errors.REGION_REENTERED, path_index=1, cell=(0, 1),
            detail="region 1 entered twice")

    # Two U gadgets side by side, joined by the column x = 3.  Canonical
    # ids: 0 the left top row, 1 the column, 2 the right top row, 3 and 4
    # the bottom rows.  Each U path dips into its bottom row and re-enters
    # its top row at its last cell; each straight path is one run.
    TWO_US = [[1, 1, 1, 2, 3, 3, 3], [0, 0, 0, 2, 4, 4, 4]]
    LEFT_U = ((0, 1), (0, 0), (1, 0), (2, 0), (2, 1))
    RIGHT_U = ((4, 1), (4, 0), (5, 0), (6, 0), (6, 1))
    LEFT_LINE = ((0, 1), (1, 1), (2, 1))
    RIGHT_LINE = ((4, 1), (5, 1), (6, 1))

    @pytest.mark.parametrize("left, right, paths, want", [
        # Re-entries in both paths: the lower path index is named.
        (None, None, (LEFT_U, RIGHT_U),
         (errors.REGION_REENTERED, 0, (2, 1), "region 0 entered twice")),
        (None, None, (RIGHT_U, LEFT_U),
         (errors.REGION_REENTERED, 0, (6, 1), "region 2 entered twice")),
        (None, None, (LEFT_U[::-1], RIGHT_U),
         (errors.REGION_REENTERED, 0, (0, 1), "region 0 entered twice")),
        # A count mismatch in path 0 before a re-entry in path 1, and the
        # reverse: each path's two rules are read before the next path's.
        (3, None, (LEFT_LINE, RIGHT_U),
         (errors.COUNT_MISMATCH, 0, (0, 1),
          "path has 1 region runs, circle wants 3")),
        (3, None, (RIGHT_U, LEFT_LINE),
         (errors.REGION_REENTERED, 0, (6, 1), "region 2 entered twice")),
        (None, 3, (LEFT_U, RIGHT_LINE),
         (errors.REGION_REENTERED, 0, (2, 1), "region 0 entered twice")),
        (None, 3, (RIGHT_LINE, LEFT_U),
         (errors.COUNT_MISMATCH, 0, (4, 1),
          "path has 1 region runs, circle wants 3")),
        # Three runs, as both circles ask, but the third re-enters the
        # first region at the path's last cell.
        (3, None, (RIGHT_LINE, LEFT_U),
         (errors.REGION_REENTERED, 1, (2, 1), "region 0 entered twice")),
    ], ids=["both", "both-swapped", "both-reversed", "count-first",
            "reentry-first", "reentry-then-count", "count-then-reentry",
            "last-cell"])
    def test_two_faults_name_the_first_path(self, left, right, paths, want):
        inst = make(self.TWO_US, [(0, 1, left), (2, 1, left),
                                  (4, 1, right), (6, 1, right)])
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
        assert verdict == errors.reject(*want)

    @pytest.mark.parametrize("number", [None, 3])
    def test_wildcard_path_reentry_names_the_reentered_cell(self, number):
        # The top row is region 0; the path dips into region 1 below and
        # re-enters region 0 at (2, 1), a cell before its end.  Its runs
        # 0, 1, 0 number three, as a circle numbered 3 asks, and a path
        # with a wildcard end is refused all the same.
        inst = make([[1, 1, 1, 2], [0, 0, 0, 0]],
                    [(0, 1, None), (3, 1, number)])
        path = ((0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (3, 1))
        verdict = wd.verify_solution(inst, wd.WataridoriSolution((path,)))
        assert verdict == errors.reject(
            errors.REGION_REENTERED, path_index=0, cell=(2, 1),
            detail="region 0 entered twice")

    def test_count_mismatch_rejected(self):
        inst = make([[0, 0]], [(0, 0, 2), (1, 0, 2)])
        verdict = wd.verify_solution(
            inst, wd.WataridoriSolution((((0, 0), (1, 0)),)))
        assert verdict.rule == errors.COUNT_MISMATCH
        # The circle wanting 1 run meets the path's 2 runs first.
        assert verdict.cell == (0, 0)

    def test_differing_endpoint_numbers_rejected(self):
        inst = make([[0, 1]], [(0, 0, 1), (1, 0, 2)])
        verdict = wd.verify_solution(
            inst, wd.WataridoriSolution((((0, 0), (1, 0)),)))
        assert verdict.rule == errors.COUNT_MISMATCH
        # The circle wanting 1 run meets the path's 2 runs first.
        assert verdict.cell == (0, 0)

    def test_single_numbered_endpoint_sets_target(self):
        inst = make([[0, 1]], [(0, 0, None), (1, 0, 2)])
        assert wd.verify_solution(
            inst, wd.WataridoriSolution((((0, 0), (1, 0)),)))

    def test_endpoint_not_circle(self, sample_wataridori,
                                 sample_wataridori_solution):
        paths = list(sample_wataridori_solution.paths)
        paths[0] = paths[0][:-1]
        verdict = wd.verify_solution(sample_wataridori,
                                     wd.WataridoriSolution(tuple(paths)))
        assert verdict.rule == errors.ENDPOINT_NOT_CIRCLE

    def test_unpaired_circle_on_missing_path(self, sample_wataridori,
                                             sample_wataridori_solution):
        paths = sample_wataridori_solution.paths[1:]
        verdict = wd.verify_solution(sample_wataridori,
                                     wd.WataridoriSolution(paths))
        assert verdict.rule == errors.UNPAIRED_CIRCLE

    def test_endpoint_not_circle_wins_over_unpaired_circle(self):
        # Paths 0 and 1 both end on (1, 0), which leaves (3, 0) unpaired,
        # and path 2 ends on the plain cell (2, 1).  Endpoints are checked
        # for every path before any circle's degree is.
        inst = make([[0, 0, 0, 0], [0, 0, 0, 0]],
                    [(3, 0, None), (0, 0, None), (1, 0, None), (2, 0, None),
                     (0, 1, None)])
        paths = (((0, 0), (1, 0)), ((2, 0), (1, 0)), ((0, 1), (1, 1), (2, 1)))
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
        assert verdict == errors.reject(errors.ENDPOINT_NOT_CIRCLE,
                                        path_index=2, cell=(2, 1))

    @pytest.mark.parametrize("circles, cell, degree", [
        # (1, 0) ends two paths and (3, 0) none; the first of them in
        # instance order is named, whichever its degree.
        ([(1, 0, None), (3, 0, None), (0, 0, None), (2, 0, None)], (1, 0), 2),
        ([(3, 0, None), (1, 0, None), (0, 0, None), (2, 0, None)], (3, 0), 0),
        ([(0, 0, None), (2, 0, None), (1, 0, None), (3, 0, None)], (1, 0), 2),
        ([(0, 0, None), (2, 0, None), (3, 0, None), (1, 0, None)], (3, 0), 0),
    ])
    def test_unpaired_circle_names_first_in_instance_order(self, circles,
                                                            cell, degree):
        inst = make([[0, 0, 0, 0]], circles)
        paths = (((0, 0), (1, 0)), ((2, 0), (1, 0)))
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
        assert verdict == errors.reject(
            errors.UNPAIRED_CIRCLE, cell=cell,
            detail=f"circle is an endpoint of {degree} paths")

    # One region over a 4x3 grid, wildcard circles on every endpoint
    # below.  REPEAT returns to its first cell, OFF leaves the grid, and
    # SHARES meets REPEAT_AT_END at (3, 0).
    OPEN = [[0, 0, 0, 0]] * 3
    LINE = ((0, 2), (1, 2))
    REPEAT = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    OFF = ((3, 2), (4, 2))
    SHARES = ((2, 0), (3, 0))
    REPEAT_AT_END = ((3, 2), (3, 1), (3, 0), (3, 1))

    @pytest.mark.parametrize("paths, index, cell", [
        # A repeated cell and a cell off the grid are one rule, read path
        # by path, so the first faulty path is named either way.
        ((REPEAT, OFF), 0, (0, 0)),
        ((OFF, REPEAT), 0, (3, 2)),
        ((LINE, REPEAT, OFF), 1, (0, 0)),
        ((LINE, OFF, REPEAT), 1, (3, 2)),
        # A path that repeats a cell is refused before paths that share a
        # cell, wherever the two faults lie.
        ((SHARES, REPEAT_AT_END), 1, (3, 2)),
        ((REPEAT_AT_END, SHARES), 0, (3, 2)),
        ((LINE, LINE, REPEAT), 2, (0, 0)),
        ((SHARES, LINE, SHARES[::-1], REPEAT_AT_END), 3, (3, 2)),
        ((SHARES, SHARES[::-1], OFF), 2, (3, 2)),
    ], ids=["repeat-then-off", "off-then-repeat", "line-repeat-off",
            "line-off-repeat", "shared-then-repeat", "repeat-then-shared",
            "shared-lines-then-repeat", "shared-apart-then-repeat",
            "shared-then-off"])
    def test_first_bad_path_named_before_shared_cells(self, paths, index,
                                                     cell):
        ends = {end for path in paths for end in (path[0], path[-1])}
        inst = make(self.OPEN, [(x, y, None) for x, y in sorted(ends)
                                if 0 <= x < 4])
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
        assert verdict == errors.reject(
            errors.BAD_PATH, path_index=index, cell=cell,
            detail="not a simple orthogonal path")

    @pytest.mark.parametrize("paths, index", [
        ((((0, 0), (0.5, 0), (1, 0)),), 0),
        ((((0, 0), (1.0, 0)),), 0),
        ((((0, 0), (True, 0)),), 0),
        # The first bad path is named, whichever rule it breaks.
        ((LINE, ((3, 2), (3, 1.0)), OFF), 1),
        ((LINE, OFF, ((3, 2), (3, 1.0))), 1),
    ], ids=["half-steps", "float", "bool", "float-then-off",
            "off-then-float"])
    def test_non_integer_cells_rejected(self, paths, index):
        # Integer circles on every end on the grid.
        inst = make(self.OPEN, sorted({
            (int(x), int(y), None) for path in paths
            for x, y in (path[0], path[-1]) if 0 <= x < 4}))
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
        assert verdict == errors.reject(
            errors.BAD_PATH, path_index=index, cell=paths[index][0],
            detail="not a simple orthogonal path")

    def test_shared_cell_named_when_no_path_is_bad(self):
        inst = make(self.OPEN, [(0, 2, None), (1, 2, None), (2, 0, None),
                                (3, 0, None), (3, 2, None), (2, 1, None)])
        paths = (self.LINE, self.SHARES, ((3, 2), (3, 1), (3, 0), (2, 0),
                                          (2, 1)))
        verdict = wd.verify_solution(inst, wd.WataridoriSolution(paths))
        assert verdict == errors.reject(errors.CELL_SHARED, path_index=2,
                                        cell=(3, 0))

    def test_list_cells_judged_as_tuple_cells(self, sample_wataridori,
                                              sample_wataridori_solution):
        paths = sample_wataridori_solution.paths
        cases = [
            paths,                                      # accepted
            # Path 3 rerouted through (2, 0) and (3, 0), cells of path 2.
            paths[:3] + (((1, 2), (2, 2), (2, 1), (2, 0), (3, 0), (3, 1),
                          (4, 1)),) + paths[4:],
            paths[:2] + (paths[2] + (paths[2][-2],),) + paths[3:],
            paths[:3] + (paths[3] + ((4, 6),),) + paths[4:],
            paths[:4] + (paths[4] + ((5, 3),),) + paths[5:],
            paths[:5] + (paths[5][:1],) + paths[6:],
            paths[:6] + ((),),
            paths[:-1],
            paths + (paths[0],),
        ]
        for case in cases:
            want = wd.verify_solution(sample_wataridori,
                                      wd.WataridoriSolution(case))
            # Every cell a list, and the cells of one path a list.
            lists = tuple([list(c) for c in p] for p in case)
            mixed = tuple([list(c) for c in p] if i == len(case) // 2 else p
                          for i, p in enumerate(case))
            for given in (lists, mixed):
                assert wd.verify_solution(
                    sample_wataridori, wd.WataridoriSolution(given)) == want

    def test_invariant_under_reversal_and_reorder(
            self, sample_wataridori, sample_wataridori_solution):
        for mask in range(2 ** 7):
            paths = [tuple(reversed(p)) if (mask >> i) & 1 else p
                     for i, p in
                     enumerate(sample_wataridori_solution.paths)]
            if mask % 3 == 0:
                paths.reverse()
            assert wd.verify_solution(sample_wataridori,
                                      wd.WataridoriSolution(tuple(paths)))


    def test_invariant_under_region_id_relabeling(self, sample_wataridori,
                                                  sample_wataridori_solution):
        # permuting the document's region ids consistently parses back to
        # the same canonical map, so verification cannot change
        import json
        doc = json.loads(wd.serialize_instance(sample_wataridori))
        count = sample_wataridori.regions.region_count
        perm = {i: (i * 7 + 3) % count for i in range(count)}
        assert len(set(perm.values())) == count
        doc["regions"] = [[perm[v] for v in row] for row in doc["regions"]]
        relabeled = wd.parse_instance(json.dumps(doc))
        assert relabeled.regions == sample_wataridori.regions
        assert wd.verify_solution(relabeled, sample_wataridori_solution)

    def test_path_count_is_half_circle_count(self, sample_wataridori,
                                             sample_wataridori_solution):
        assert len(sample_wataridori_solution.paths) * 2 == \
            len(sample_wataridori.circles)


class TestSolve:
    def test_sample_solved_within_budget(self, sample_wataridori):
        result = wd.solve(sample_wataridori, budget=10_000_000)
        assert result.status == wd.SOLVED
        assert wd.verify_solution(sample_wataridori, result.solution)

    def test_two_wildcards_unique_path(self):
        inst = make([[0, 0]], [(0, 0, None), (1, 0, None)])
        result = wd.solve(inst)
        assert result.status == wd.SOLVED
        assert result.solution.paths == (((0, 0), (1, 0)),)

    def test_three_region_row_unsat(self):
        walls = [Wall(VERTICAL, 1, 0), Wall(VERTICAL, 2, 0)]
        rmap = regions_from_walls(walls, 3, 1)
        inst = wd.WataridoriInstance(
            rmap, (wd.Circle(0, 0, 2), wd.Circle(2, 0, 2)))
        assert wd.solve(inst).status == wd.UNSAT
        assert not oracles.wataridori_brute_solvable(inst)

    def test_budget_exceeded_distinct(self, sample_wataridori):
        result = wd.solve(sample_wataridori, budget=5)
        assert result.status == wd.BUDGET_EXCEEDED

    def test_solver_deterministic(self, sample_wataridori):
        assert wd.solve(sample_wataridori) == wd.solve(sample_wataridori)


BOARDS = [
    # (width, height, walls) small boards with <= 5 regions
    (2, 1, ()),
    (3, 1, (Wall(VERTICAL, 1, 0), Wall(VERTICAL, 2, 0))),
    (2, 2, ()),
    (2, 2, (Wall(VERTICAL, 1, 0), Wall(VERTICAL, 1, 1))),
    (3, 3, (Wall(VERTICAL, 1, 0), Wall(VERTICAL, 1, 1),
            Wall(VERTICAL, 1, 2), Wall("h", 1, 1), Wall("h", 2, 1))),
]


def test_solver_agrees_with_oracle_on_two_circle_boards():
    checked = 0
    for width, height, walls in BOARDS:
        rmap = regions_from_walls(walls, width, height)
        numbers = [None] + list(range(1, rmap.region_count + 1))
        cells = [(x, y) for y in range(height) for x in range(width)]
        for (a, b), (na, nb) in product(combinations(cells, 2),
                                        product(numbers, repeat=2)):
            inst = wd.WataridoriInstance(
                rmap, (wd.Circle(*a, na), wd.Circle(*b, nb)))
            result = wd.solve(inst)
            assert result.status in (wd.SOLVED, wd.UNSAT)
            assert (result.status == wd.SOLVED) == \
                oracles.wataridori_brute_solvable(inst)
            if result.solution is not None:
                assert wd.verify_solution(inst, result.solution)
            checked += 1
    assert checked > 500


class TestDocuments:
    def test_sample_parses_to_expected_shape(self, sample_wataridori):
        assert sample_wataridori.regions.region_count == 18
        assert len(sample_wataridori.circles) == 14

    def test_round_trip(self, sample_wataridori):
        text = wd.serialize_instance(sample_wataridori)
        assert wd.serialize_instance(wd.parse_instance(text)) == text

    def test_solution_round_trip(self, sample_wataridori_solution):
        text = wd.serialize_solution(sample_wataridori_solution)
        assert wd.serialize_solution(wd.parse_solution(text)) == text

    def test_region_row_length_mismatch(self):
        text = ('{"puzzle":"wataridori","width":2,"height":2,'
                '"regions":[[0,0],[0]],"circles":[]}')
        with pytest.raises(ParseError) as err:
            wd.parse_instance(text)
        assert err.value.code == "BAD_REGIONS"

    def test_sparse_region_ids_rejected(self):
        text = ('{"puzzle":"wataridori","width":2,"height":1,'
                '"regions":[[0,2]],"circles":[]}')
        with pytest.raises(ParseError) as err:
            wd.parse_instance(text)
        assert err.value.code == "IDS_NOT_DENSE"

    def test_disconnected_region_rejected(self):
        text = ('{"puzzle":"wataridori","width":3,"height":1,'
                '"regions":[[0,1,0]],"circles":[]}')
        with pytest.raises(ParseError) as err:
            wd.parse_instance(text)
        assert err.value.code == "REGION_NOT_CONNECTED"

    def test_unknown_field_rejected(self):
        text = ('{"puzzle":"wataridori","width":1,"height":1,'
                '"regions":[[0]],"circles":[],"extra":true}')
        with pytest.raises(ParseError) as err:
            wd.parse_instance(text)
        assert err.value.code == "UNKNOWN_FIELD"

    def test_wildcards_have_no_number_key(self, sample_wataridori):
        text = wd.serialize_instance(sample_wataridori)
        doc = __import__("json").loads(text)
        wildcard_cells = {c.cell for c in sample_wataridori.circles
                          if c.number is None}
        for entry in doc["circles"]:
            if (entry["x"], entry["y"]) in wildcard_cells:
                assert "number" not in entry
            else:
                assert "number" in entry



# One bad circle entry, made from the document it goes into and the good
# entry it replaces, with the (code, location) it must raise.
BAD_CIRCLE_ENTRIES = {
    "number-null": (lambda doc, e: {**e, "number": None},
                    "NOT_AN_INTEGER", "circles[6999].number"),
    "number-true": (lambda doc, e: {**e, "number": True},
                    "NOT_AN_INTEGER", "circles[6999].number"),
    "number-float": (lambda doc, e: {**e, "number": 1.0},
                     "NOT_AN_INTEGER", "circles[6999].number"),
    "number-zero": (lambda doc, e: {**e, "number": 0},
                    "BAD_NUMBER", "circles"),
    "x-string": (lambda doc, e: {**e, "x": str(e["x"])},
                 "NOT_AN_INTEGER", "circles[6999].x"),
    "missing-y": (lambda doc, e: {"x": e["x"]},
                  "MISSING_FIELD", "circles[6999]"),
    "extra-key": (lambda doc, e: {**e, "color": 1},
                  "UNKNOWN_FIELD", "circles[6999]"),
    "not-an-object": (lambda doc, e: [e["x"], e["y"]],
                      "NOT_AN_OBJECT", "circles[6999]"),
    "duplicate-cell": (lambda doc, e: dict(doc["circles"][0]),
                       "DUPLICATE_CIRCLE", "circles"),
    "out-of-bounds": (lambda doc, e: {**e, "x": doc["width"]},
                      "OUT_OF_BOUNDS", "circles"),
}


@pytest.mark.parametrize("name", sorted(BAD_CIRCLE_ENTRIES))
def test_one_bad_entry_among_7000_circles(name):
    """The whole-list checks pass every entry but the last, and the error
    still names that entry as the per-entry checks do (the fixture's cases
    are in test_documents)."""
    width, count = 100, 7000
    circles = [{"x": i % width, "y": i // width} for i in range(count)]
    for entry in circles[::2]:
        entry["number"] = 1
    doc = {"puzzle": "wataridori", "width": width, "height": count // width,
           "regions": [[0] * width for _ in range(count // width)],
           "circles": circles}
    assert len(wd.parse_instance(doc).circles) == count
    make_entry, code, location = BAD_CIRCLE_ENTRIES[name]
    circles[-1] = make_entry(doc, circles[-1])
    with pytest.raises(ParseError) as err:
        wd.parse_instance(doc)
    assert (err.value.code, err.value.location) == (code, location)


# Values the writers' bulk path refuses, so that they take the dict path.
ODD = st.sampled_from([True, False, 0.0, -1.5, 2.0])


def _dumped(doc):
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _instance_dict(inst):
    """The dict form an instance was written from before the writers
    emitted text directly."""
    circles = []
    for c in sorted(inst.circles, key=lambda c: (c.y, c.x)):
        entry = {"x": c.x, "y": c.y}
        if c.number is not None:
            entry["number"] = c.number
        circles.append(entry)
    return {"puzzle": "wataridori", "width": inst.width,
            "height": inst.height,
            "regions": [list(row) for row in inst.regions.ids],
            "circles": circles}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_writers_equal_json_of_the_dict_form(data):
    """Any instance and solution, wildcards, unsorted and repeated
    circles, empty and one-cell paths, and values such as bools, floats
    and list cells included, are written as `json` writes their dict
    form."""
    odd = data.draw(st.sampled_from([None, "values", "lists", "lengths"]),
                    label="odd")
    value = st.integers() | ODD if odd == "values" else st.integers()
    width = data.draw(st.integers(1, 4), label="width")
    height = data.draw(st.integers(1, 4), label="height")
    ids = data.draw(st.lists(st.lists(st.integers(0, 5), min_size=width,
                                      max_size=width).map(tuple),
                             min_size=height, max_size=height).map(tuple),
                    label="ids")
    circles = data.draw(st.lists(st.builds(wd.Circle, value, value,
                                           st.none() | value), max_size=8),
                        label="circles")
    inst = wd.WataridoriInstance(RegionMap(width, height, ids, 6),
                                 tuple(circles))
    cell = st.tuples(value, value)
    if odd == "lists":
        cell = cell | cell.map(list)
    elif odd == "lengths":
        cell = cell | st.tuples(value) | st.tuples(value, value, value)
    paths = data.draw(st.lists(st.lists(cell, max_size=4).map(tuple),
                               max_size=5), label="paths")
    sol = wd.WataridoriSolution(tuple(paths))
    event(f"odd: {odd}")
    assert wd.serialize_instance(inst) == _dumped(_instance_dict(inst))
    assert wd.serialize_solution(sol) == _dumped(
        {"paths": [{"cells": [list(c) for c in path]} for path in paths]})
