import random

import pytest
from hypothesis import given, settings, strategies as st

from watarilink import lifting as lf
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import wataridori as wd
from watarilink.errors import ValidationError
from watarilink.grid import region_runs


class TestZigzagSplit:
    @pytest.mark.parametrize("label,k,expect", [
        (1, 2, (0, 0)),
        (2, 2, (1, 0)),
        (3, 2, (2, 0)),
        (4, 2, (2, 1)),
        (5, 2, (2, 2)),  # the largest number needs k dips at both ends
        (1, 1, (0, 0)),
    ])
    def test_split_values(self, label, k, expect):
        za, zb = lf.zigzag_split(label, k)
        assert (za, zb) == expect
        assert za + zb == label - 1
        assert 0 <= za <= k and 0 <= zb <= k

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            lf.zigzag_split(0, 2)
        with pytest.raises(ValidationError):
            lf.zigzag_split(6, 2)  # 2k+1 = 5 is the ceiling


class TestRouteArm:
    def test_straight_east_route_runs(self):
        block = rd.build_number_block(2, 11)
        rmap = rd.block_region_map(block)
        route = lf.route_arm(2, lf.EAST, 0)
        runs = region_runs(route.cells, rmap)
        assert len(runs) == 6          # including the entry-cell region
        assert len(runs) == len(set(runs))
        assert route.cells[0] == (6, 6)
        assert route.cells[-1] == (12, 6)

    def test_double_dip_east_route_runs(self):
        block = rd.build_number_block(2, 11)
        rmap = rd.block_region_map(block)
        runs = region_runs(lf.route_arm(2, lf.EAST, 2).cells, rmap)
        assert len(runs) == 10

    def test_rotated_north_route(self):
        block = rd.build_number_block(1, 7)
        rmap = rd.block_region_map(block)
        route = lf.route_arm(1, lf.NORTH, 1)
        runs = region_runs(route.cells, rmap)
        # 2k + 2z + 1 block-local runs before the entry region
        assert len(runs) == 2 * 1 + 2 * 1 + 1 + 1
        assert route.cells[0] == (4, 4)
        assert route.cells[-1] == (4, 8)

    def test_too_many_dips_rejected(self):
        with pytest.raises(ValidationError):
            lf.route_arm(2, lf.EAST, 3)

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValidationError) as err:
            lf.route_arm(2, "up", 0)
        assert err.value.code == "BAD_ARM"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_run_counts_enumerate_the_full_ladder(self, k):
        block = rd.build_number_block(k, 4 * k + 3)
        rmap = rd.block_region_map(block)
        for arm in (lf.EAST, lf.NORTH, lf.WEST, lf.SOUTH):
            totals = []
            for z in range(k + 1):
                cells = lf.route_arm(k, arm, z).cells
                runs = region_runs(cells, rmap)
                assert len(runs) == len(set(runs))
                totals.append(len(runs))
            assert totals == [2 * k + 2 * z + 2 for z in range(k + 1)]


class TestLift:
    def test_sample_lift_verifies(self, sample_numberlink,
                                  sample_numberlink_solution):
        h, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        main = h_sol.paths[:5]
        fillers = h_sol.paths[5:]
        assert len(fillers) == 10 * 40 + 26 * 40
        counts = sorted(len(region_runs(p, h.regions)) for p in main)
        assert counts == [11, 13, 15, 17, 19]
        assert wd.verify_solution(h, h_sol)

    def test_foreign_map_rejected(self):
        # The map of a 3x1 source cannot carry a 2x1 source's solution.
        _, rmap = rd.reduce_instance(
            nl.NumberlinkInstance(3, 1, ((1, (0, 0), (2, 0)),)))
        g = nl.validate_instance(
            nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1, 0)),)))
        sol = nl.solve(g).solution
        with pytest.raises(ValidationError) as err:
            lf.lift(g, sol, rmap)
        assert err.value.code == "MAP_MISMATCH"

    def test_adjacent_terminals_smallest_case(self):
        g = nl.validate_instance(
            nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1, 0)),)))
        result = nl.solve(g)
        h, rmap = rd.reduce_instance(g)
        h_sol = lf.lift(g, result.solution, rmap)
        main = h_sol.paths[0]
        runs = region_runs(main, h.regions)
        assert len(runs) == 4 * rmap.k + 3 == 7
        assert wd.verify_solution(h, h_sol)

    def test_run_count_arithmetic(self, sample_numberlink,
                                  sample_numberlink_solution):
        h, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        k = rmap.k
        for (label, _), path in zip(
                sorted(sample_numberlink_solution.paths), h_sol.paths):
            za, zb = lf.zigzag_split(label, k)
            runs = region_runs(path, h.regions)
            assert len(runs) == 4 * k + 3 + 2 * (za + zb)
            assert len(runs) == dict(rmap.number_assignment)[label]

    def test_filler_paths_cover_every_ring_circle(self, sample_numberlink,
                                                  sample_numberlink_solution):
        h, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        fillers = h_sol.paths[5:]
        ones = {c.cell for c in h.circles if c.number == 1}
        endpoints = set()
        for path in fillers:
            assert len(path) == 2
            assert len(region_runs(path, h.regions)) == 1
            endpoints.update(path)
        assert endpoints == ones

    def test_tampered_lift_rejected(self, sample_numberlink,
                                    sample_numberlink_solution):
        h, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        # flatten one dip of the label-5 main path: drop its two flank
        # cells and re-run straight along the corridor row
        paths = list(h_sol.paths)
        cells = list(paths[4])
        for i in range(len(cells) - 3):
            x, y = cells[i]
            if cells[i + 1] == (x, y - 1) and cells[i + 2] == (x + 1, y - 1) \
                    and cells[i + 3] == (x + 1, y):
                del cells[i + 1:i + 3]
                break
        else:
            pytest.fail("no dip found to flatten")
        paths[4] = tuple(cells)
        verdict = wd.verify_solution(h, wd.WataridoriSolution(tuple(paths)))
        assert not verdict
        assert verdict.rule == "COUNT_MISMATCH"

    def test_unverified_source_solution_rejected(self, sample_numberlink,
                                                 sample_numberlink_solution):
        _, rmap = rd.reduce_instance(sample_numberlink)
        broken = nl.NumberlinkSolution(sample_numberlink_solution.paths[1:])
        with pytest.raises(ValidationError) as err:
            lf.lift(sample_numberlink, broken, rmap)
        assert err.value.code == "LIFT_PRECONDITION"


class TestUnlift:
    def test_round_trip_on_sample(self, sample_numberlink,
                                  sample_numberlink_solution):
        _, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        back = lf.unlift(h_sol, rmap)
        assert back == nl.normalize_solution(sample_numberlink_solution)

    def test_block_compression_inverts_embedding(self, sample_numberlink,
                                                 sample_numberlink_solution):
        _, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        back = lf.unlift(h_sol, rmap)
        want = nl.normalize_solution(sample_numberlink_solution)
        assert back.paths[0] == want.paths[0]  # cell for cell

    def test_missing_filler_fails_verification_first(self,
                                                     sample_numberlink,
                                                     sample_numberlink_solution):
        h, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        broken = wd.WataridoriSolution(h_sol.paths[:-1])
        verdict = wd.verify_solution(h, broken)
        assert not verdict
        assert verdict.rule == "UNPAIRED_CIRCLE"


    def test_missing_main_path_raises_diagnostic(self, sample_numberlink,
                                                 sample_numberlink_solution):
        _, rmap = rd.reduce_instance(sample_numberlink)
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        no_mains = wd.WataridoriSolution(h_sol.paths[1:])  # drop label 1
        with pytest.raises(ValidationError) as err:
            lf.unlift(no_mains, rmap)
        assert err.value.code == "UNLIFT_BAD_MAIN"


# The crossing: label 1 joins (0, 1) and (2, 1), label 2 joins (1, 0) and
# (1, 2), so k = 1, blocks are 9 cells wide and a center is 4 cells in.
# `unlift` reads main paths by their end cells and the blocks they pass,
# so these paths step from block center to block center.
CROSSING = nl.NumberlinkInstance(
    3, 3, ((1, (0, 1), (2, 1)), (2, (1, 0), (1, 2))))


def through_centers(*blocks):
    return tuple((9 * x + 4, 9 * y + 4) for x, y in blocks)


@pytest.mark.parametrize("paths, code, message", [
    ((through_centers((0, 1), (1, 1), (1, 0)),), "UNLIFT_BAD_MAIN",
     "a main path must join the two centers of one label"),
    ((through_centers((0, 1), (1, 1), (2, 1)),
      through_centers((2, 1), (1, 1), (0, 1))), "UNLIFT_BAD_MAIN",
     "two main paths for label 1"),
    # Along row 13 into block (1, 1), back into block (0, 1) on row 12,
    # and along row 11 to the far center.
    (([(x, 13) for x in range(4, 10)] + [(9, 12), (8, 12), (8, 11)]
      + [(x, 11) for x in range(9, 23)] + [(22, 12), (22, 13)],),
     "UNLIFT_BLOCK_REVISITED",
     "main path for label 1 re-enters a block"),
    # Each path alone is fine, but both cross block (1, 1).
    ((through_centers((0, 1), (1, 1), (2, 1)),
      through_centers((1, 0), (1, 1), (1, 2))), "UNLIFT_RESULT_INVALID",
     "recovered solution does not verify: REJECT CELL_SHARED path=1 "
     "cell=1,1"),
], ids=["two-labels", "second-main", "block-revisited", "result-invalid"])
def test_unlift_refuses_bad_main_paths(paths, code, message):
    _, rmap = rd.reduce_instance(CROSSING)
    assert (rmap.k, rmap.block_size) == (1, 9)
    with pytest.raises(ValidationError) as err:
        lf.unlift(wd.WataridoriSolution(tuple(map(tuple, paths))), rmap)
    assert (err.value.code, err.value.message) == (code, message)


@pytest.mark.parametrize("path, message", [
    ((), "a path must be a non-empty sequence of cells"),
    (None, "a path must be a non-empty sequence of cells"),
    (((4, 13), None, (22, 13)),
     "main path for label 1 has a cell that is not (x, y)"),
    (((4, 13), (5, 13, 0), (22, 13)),
     "main path for label 1 has a cell that is not (x, y)"),
    # An end that is neither hashable nor a list is no center, so the
    # path is taken for a filler path and label 1 has no main path.
    (({4, 13}, (22, 13)), "missing main paths for labels [1, 2]"),
], ids=["empty", "none", "none-cell", "triple-cell", "set-end"])
def test_unlift_refuses_malformed_paths(path, message):
    _, rmap = rd.reduce_instance(CROSSING)
    with pytest.raises(ValidationError) as err:
        lf.unlift(wd.WataridoriSolution((path,)), rmap)
    assert (err.value.code, err.value.message) == ("UNLIFT_BAD_MAIN",
                                                   message)


def test_unlift_reads_list_cells_as_tuples(sample_numberlink,
                                           sample_numberlink_solution):
    _, rmap = rd.reduce_instance(sample_numberlink)
    h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
    lists = wd.WataridoriSolution(tuple([list(c) for c in path]
                                        for path in h_sol.paths))
    assert lf.unlift(lists, rmap) == lf.unlift(h_sol, rmap)


def random_small_instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        cells = [(x, y) for x in range(m) for y in range(n)]
        if len(cells) < 2:
            continue
        rng.shuffle(cells)
        p = rng.randint(1, min(2, len(cells) // 2))
        terminals = tuple((i + 1, cells[2 * i], cells[2 * i + 1])
                          for i in range(p))
        out.append(nl.NumberlinkInstance(m, n, terminals))
    return out


def test_lift_verifies_over_solver_found_solutions():
    lifted = 0
    for g in random_small_instances(seed=99, count=40):
        g = nl.validate_instance(g)
        result = nl.solve(g)
        if result.status != nl.SOLVED:
            continue
        h, rmap = rd.reduce_instance(g)
        h_sol = lf.lift(g, result.solution, rmap)
        assert wd.verify_solution(h, h_sol)
        assert lf.unlift(h_sol, rmap) == nl.normalize_solution(result.solution)
        lifted += 1
    assert lifted >= 20


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_relabeling_commutes_with_solve_verify_and_the_round_trip(data):
    """Renaming labels injectively renames them in every result and
    changes nothing else: the solver's search, the verdicts, the reduced
    instance and the lifted solution are those of the labels 1..p."""
    width = data.draw(st.integers(1, 4), label="width")
    height = data.draw(st.integers(1 if width > 1 else 2, 3), label="height")
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    pairs = data.draw(st.integers(1, min(4, len(cells) // 2)), label="pairs")
    names = data.draw(st.lists(st.integers(-50, 50), min_size=pairs,
                               max_size=pairs, unique=True), label="labels")
    rename = dict(zip(range(1, pairs + 1), names))
    g = nl.NumberlinkInstance(width, height, tuple(
        (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)))
    renamed = nl.NumberlinkInstance(width, height, tuple(
        (rename[label], a, b) for label, a, b in g.terminals))

    def relabel(sol):
        return nl.NumberlinkSolution(tuple(
            (rename[label], path) for label, path in sol.paths))

    assert nl.validate_instance(renamed).terminals == tuple(
        (rename[label], a, b)
        for label, a, b in nl.validate_instance(g).terminals)
    result, renamed_result = nl.solve(g), nl.solve(renamed)
    assert (renamed_result.status, renamed_result.nodes) == \
        (result.status, result.nodes)
    h, rmap = rd.reduce_instance(g)
    renamed_h, renamed_rmap = rd.reduce_instance(renamed)
    assert renamed_h == h
    assert [num for _, num in renamed_rmap.number_assignment] == \
        [num for _, num in rmap.number_assignment]
    if result.status != nl.SOLVED:
        return
    sol = result.solution
    assert renamed_result.solution == relabel(sol)
    assert nl.verify_solution(renamed, relabel(sol))
    h_sol = lf.lift(renamed, relabel(sol), renamed_rmap)
    assert h_sol == lf.lift(g, sol, rmap)
    assert wd.verify_solution(h, h_sol)
    assert lf.unlift(h_sol, renamed_rmap) == \
        nl.normalize_solution(relabel(sol))
