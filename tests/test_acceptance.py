"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import time
from contextlib import contextmanager
from itertools import combinations, product

import oracles
from conftest import fixture_json
from watarilink import errors
from watarilink import lifting as lf
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import wataridori as wd
from watarilink.grid import Wall, region_runs, regions_from_walls


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_sample_board_and_mutations(sample_wataridori,
                                                sample_wataridori_solution):
    with criterion(1, "sample 6x6 board accepted; 23 single-edit "
                      "mutations rejected with the right codes"):
        start = time.monotonic()
        inst = sample_wataridori
        paths = list(sample_wataridori_solution.paths)
        assert wd.verify_solution(inst, sample_wataridori_solution)

        def drop_last(i):
            out = list(paths)
            out[i] = out[i][:-1]
            return out

        def drop_first(i):
            out = list(paths)
            out[i] = out[i][1:]
            return out

        def drop_path(i):
            return [p for j, p in enumerate(paths) if j != i]

        def dup_path(i):
            return list(paths) + [paths[i]]

        def replace(i, cells):
            out = list(paths)
            out[i] = tuple(cells)
            return out

        mutations = [
            # truncations strand a non-circle endpoint
            (drop_last(0), errors.ENDPOINT_NOT_CIRCLE),
            (drop_last(2), errors.ENDPOINT_NOT_CIRCLE),
            (drop_first(3), errors.ENDPOINT_NOT_CIRCLE),
            (drop_last(4), errors.ENDPOINT_NOT_CIRCLE),
            (drop_last(5), errors.ENDPOINT_NOT_CIRCLE),
            (drop_last(6), errors.ENDPOINT_NOT_CIRCLE),
            # the 2-cell wildcard path collapses below minimum length
            (drop_last(1), errors.BAD_PATH),
            # removing any path leaves its circles unpaired
            (drop_path(0), errors.UNPAIRED_CIRCLE),
            (drop_path(1), errors.UNPAIRED_CIRCLE),
            (drop_path(4), errors.UNPAIRED_CIRCLE),
            (drop_path(6), errors.UNPAIRED_CIRCLE),
            # duplicating one doubles its circles' degree
            (dup_path(1), errors.UNPAIRED_CIRCLE),
            (dup_path(4), errors.UNPAIRED_CIRCLE),
            # shifted cells break adjacency
            (replace(2, [(1, 1), (1, 0), (2, 1), (3, 0), (4, 0), (5, 0),
                         (5, 1), (5, 2), (5, 3), (5, 4)]),
             errors.BAD_PATH),
            (replace(5, [(3, 4), (5, 4), (4, 5)]), errors.BAD_PATH),
            (replace(0, [(0, 0), (0, 1), (0, 1), (0, 2), (0, 3), (1, 3)]),
             errors.BAD_PATH),
            (replace(2, [(1, 1), (1, 0), (3, 0), (2, 0), (4, 0), (5, 0),
                         (5, 1), (5, 2), (5, 3), (5, 4)]),
             errors.BAD_PATH),
            # rerouting through another path's circle shares a cell
            (replace(3, [(1, 2), (1, 1), (2, 1), (3, 1), (4, 1)]),
             errors.CELL_SHARED),
            # extending onto another path's endpoint doubles that circle
            (replace(4, [(3, 2), (4, 2), (4, 3), (3, 3)]),
             errors.UNPAIRED_CIRCLE),
            (replace(5, [(3, 4), (4, 4), (4, 5), (3, 5)]),
             errors.UNPAIRED_CIRCLE),
            # extending past the circle strands the endpoint
            (replace(0, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 4)]),
             errors.ENDPOINT_NOT_CIRCLE),
            # shortcut crosses too few regions for the numbered circle
            (replace(6, [(3, 3), (2, 3), (2, 4), (2, 5), (3, 5)]),
             errors.COUNT_MISMATCH),
            # swapped pairing steals an endpoint from another pair
            (replace(0, [(0, 0), (0, 1), (0, 2), (1, 2)]),
             errors.UNPAIRED_CIRCLE),
        ]
        assert len(mutations) >= 20
        for i, (mutated, want_rule) in enumerate(mutations):
            verdict = wd.verify_solution(
                inst, wd.WataridoriSolution(tuple(mutated)))
            assert not verdict, f"mutation {i} unexpectedly accepted"
            assert verdict.rule == want_rule, \
                f"mutation {i}: wanted {want_rule}, got {verdict}"
        assert time.monotonic() - start < 1.0


def test_criterion_2_sample_numberlink(sample_numberlink,
                                       sample_numberlink_solution):
    with criterion(2, "sample 6x6 numberlink validates (p=5), its printed "
                      "solution verifies, and the solver finds one"):
        start = time.monotonic()
        inst = nl.validate_instance(sample_numberlink)
        assert inst.pair_count == 5
        assert nl.verify_solution(inst, sample_numberlink_solution)
        result = nl.solve(inst, budget=10_000_000)
        assert result.status == nl.SOLVED
        assert result.nodes <= 10_000_000
        assert nl.verify_solution(inst, result.solution)
        assert time.monotonic() - start < 10.0


def test_criterion_3_gadget_fidelity():
    with criterion(3, "generated k=2 blocks equal the reference "
                      "fixtures exactly; 41 and 5 regions"):
        for build, fixture, region_count in (
                (lambda: rd.build_number_block(2, 11),
                 "number_block_k2.json", 41),
                (lambda: rd.build_empty_block(2),
                 "empty_block_k2.json", 5)):
            tpl = build()
            fix = fixture_json(fixture)
            assert sorted([k, x, y] for (k, x, y) in tpl.walls) == \
                fix["walls"]
            assert [{"x": c.x, "y": c.y, "number": c.number}
                    for c in tpl.circles] == fix["circles"]
            assert [[list(a), list(b)] for a, b in tpl.filler_pairs] == \
                fix["filler_pairs"]
            assert rd.block_region_map(tpl).region_count == region_count


def test_criterion_4_ladder_run_counts():
    with criterion(4, "east exits cross 6, 8, 10 regions for k=2; per-side "
                      "counts enumerate 2k+2..4k+2 for k in 1,3,4"):
        # k=2 block with an empty neighbor appended to its east side, so
        # the entry cell's region really is the travel corridor
        number = rd.build_number_block(2, 11)
        empty = rd.build_empty_block(2)
        walls = set(number.walls)
        walls |= {Wall(w.kind, w.x + 13, w.y) for w in empty.walls}
        rmap = regions_from_walls(walls, 26, 13)
        for z, want in ((0, 6), (1, 8), (2, 10)):
            runs = region_runs(lf.route_arm(2, lf.EAST, z).cells, rmap)
            assert len(runs) == want
            assert len(runs) == len(set(runs))
        for k in (1, 3, 4):
            block_map = rd.block_region_map(
                rd.build_number_block(k, 4 * k + 3))
            for arm in (lf.EAST, lf.NORTH, lf.WEST, lf.SOUTH):
                counts = sorted(
                    len(region_runs(lf.route_arm(k, arm, z).cells,
                                    block_map))
                    for z in range(k + 1))
                assert counts == list(range(2 * k + 2, 4 * k + 3, 2))


def test_criterion_5_end_to_end_round_trip(sample_numberlink,
                                           sample_numberlink_solution):
    with criterion(5, "reduce the sample, lift its printed solution, "
                      "verify, unlift, and recover the original"):
        start = time.monotonic()
        h, rmap = rd.reduce_instance(sample_numberlink)
        assert (h.width, h.height) == (78, 78)
        assert len(h.circles) == 2890
        centers = sorted(num for _, num in rmap.number_assignment)
        assert centers == [11, 13, 15, 17, 19]
        h_sol = lf.lift(sample_numberlink, sample_numberlink_solution, rmap)
        assert wd.verify_solution(h, h_sol)
        back = lf.unlift(h_sol, rmap)
        assert back == nl.normalize_solution(sample_numberlink_solution)
        assert time.monotonic() - start < 10.0


def matchings(cells):
    """Every way to pair up `cells`: the first cell with each later one in
    turn, then the rest the same way."""
    if not cells:
        yield ()
        return
    first, rest = cells[0], cells[1:]
    for j, mate in enumerate(rest):
        for tail in matchings(rest[:j] + rest[j + 1:]):
            yield ((first, mate),) + tail


def sources(width, height, pairs):
    """Every Numberlink instance on a width x height board with exactly
    `pairs` pairs, labelled 1.. in the order `matchings` gives them."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    return [nl.NumberlinkInstance(width, height, tuple(
        (label, a, b) for label, (a, b) in enumerate(matching, 1)))
        for chosen in combinations(cells, 2 * pairs)
        for matching in matchings(chosen)]


def small_sources(width, height, max_pairs):
    """Every Numberlink instance on a width x height board with one to
    `max_pairs` pairs, fewest first."""
    return [g for pairs in range(1, max_pairs + 1)
            for g in sources(width, height, pairs)]


# One pair on the smallest boards, and every 2x3 instance with p <= 2.
CRITERION_6_SOURCES = [
    g for width, height in ((2, 1), (1, 2), (3, 1), (1, 3), (2, 2))
    for g in small_sources(width, height, 1)] + small_sources(2, 3, 2)


def check_reduction_decides(g):
    """Solve `g` and its reduction exactly.  Both must get the same status,
    and a solution of the reduction must unlift to a solution of `g`.
    Returns the reduction's result."""
    g = nl.validate_instance(g)
    h, rmap = rd.reduce_instance(g)
    result = wd.solve(h)
    assert result.status == nl.solve(g).status, g
    if result.solution is not None:
        assert wd.verify_solution(h, result.solution), g
        assert nl.verify_solution(g, lf.unlift(result.solution, rmap)), g
    return result


def test_criterion_6_small_scale_equivalence():
    with criterion(6, "tiny-grid equivalence: solvable sources lift to "
                      "verifying targets, unsolvable ones agree with the "
                      "brute-force oracle"):
        solved = unsat = 0
        for g in CRITERION_6_SOURCES:
            g = nl.validate_instance(g)
            result = nl.solve(g)
            if result.status == nl.SOLVED:
                h, rmap = rd.reduce_instance(g)
                h_sol = lf.lift(g, result.solution, rmap)
                assert wd.verify_solution(h, h_sol), g
                solved += 1
            else:
                assert result.status == nl.UNSAT
                assert not oracles.numberlink_brute_solvable(g), g
                unsat += 1
        assert solved >= 30 and unsat >= 5


def test_criterion_6_reduction_decided_directly():
    with criterion(6, "hard direction: the Wataridori solver decides every "
                      "reduction exactly as the source is decided, and its "
                      "solutions unlift to solutions of the source"):
        results = [check_reduction_decides(g) for g in CRITERION_6_SOURCES]
        assert len(results) == 74
        assert sum(r.status == wd.UNSAT for r in results) == 15
        nodes = [r.nodes for r in results]
        assert (sum(nodes), max(nodes)) == (35885, 732)


def test_criterion_6_reduction_decided_directly_at_k2():
    with criterion(6, "hard direction with k = 2: every 2x4 source with "
                      "four pairs is decided by its reduction, and each "
                      "solvable one's solution lifts to a verifying one"):
        results = []
        for g in sources(2, 4, 4):
            g = nl.validate_instance(g)
            h, rmap = rd.reduce_instance(g)
            assert rmap.k == 2
            result = nl.solve(g)
            if result.status == nl.SOLVED:
                assert wd.verify_solution(
                    h, lf.lift(g, result.solution, rmap)), g
            results.append(check_reduction_decides(g))
        nodes = [r.nodes for r in results]
        unsat = sum(r.status == wd.UNSAT for r in results)
        # Unsatisfiable reductions are walked whole, so the first three
        # numbers hold in any step order; the total moves with it.
        assert (len(results), unsat, max(nodes)) == (105, 100, 1326421)
        assert sum(nodes) == 6730492


ORACLE_BOARDS = [
    (2, 1, ()),
    (3, 1, (Wall("v", 1, 0), Wall("v", 2, 0))),
    (2, 2, ()),
    (2, 2, (Wall("v", 1, 0), Wall("v", 1, 1))),
    (3, 3, (Wall("v", 1, 0), Wall("v", 1, 1), Wall("v", 1, 2),
            Wall("h", 1, 1), Wall("h", 2, 1))),
    (4, 4, (Wall("v", 2, 0), Wall("v", 2, 1), Wall("v", 2, 2),
            Wall("v", 2, 3), Wall("h", 0, 2), Wall("h", 1, 2),
            Wall("h", 2, 2), Wall("h", 3, 2), Wall("v", 3, 3),
            Wall("h", 3, 3))),
]


def test_criterion_7_solver_oracle_agreement():
    with criterion(7, "solver agrees with the enumerate-everything oracle "
                      "over an exhaustive small-board family"):
        start = time.monotonic()
        checked = 0
        for width, height, walls in ORACLE_BOARDS:
            rmap = regions_from_walls(walls, width, height)
            assert rmap.region_count <= 5
            cells = [(x, y) for y in range(height) for x in range(width)]
            numbers = [None] + list(range(1, rmap.region_count + 1))
            for (a, b), (na, nb) in product(combinations(cells, 2),
                                            product(numbers, repeat=2)):
                inst = wd.WataridoriInstance(
                    rmap, (wd.Circle(*a, na), wd.Circle(*b, nb)))
                result = wd.solve(inst)
                assert result.status in (wd.SOLVED, wd.UNSAT)
                assert (result.status == wd.SOLVED) == \
                    oracles.wataridori_brute_solvable(inst), inst
                if result.solution is not None:
                    assert wd.verify_solution(inst, result.solution)
                checked += 1
        # four- and six-circle configurations on the 3x3 board
        width, height, walls = ORACLE_BOARDS[4]
        rmap = regions_from_walls(walls, width, height)
        spots = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (2, 1)]
        numbers = [None, 1, 2]
        for size in (4, 6):
            for chosen in combinations(spots, size):
                for nums in product(numbers, repeat=size):
                    inst = wd.WataridoriInstance(
                        rmap, tuple(wd.Circle(*c, n)
                                    for c, n in zip(chosen, nums)))
                    result = wd.solve(inst)
                    assert result.status in (wd.SOLVED, wd.UNSAT)
                    assert (result.status == wd.SOLVED) == \
                        oracles.wataridori_brute_solvable(inst), inst
                    if result.solution is not None:
                        assert wd.verify_solution(inst, result.solution)
                    checked += 1
        assert checked > 5000
        assert time.monotonic() - start < 60.0


def test_criterion_8_size_law():
    with criterion(8, "target dimensions are exactly (4k+5)m x (4k+5)n and "
                      "a 6x6 reduction is fast"):
        import random
        rng = random.Random(7)
        for _ in range(10):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            cells = [(x, y) for x in range(m) for y in range(n)]
            if len(cells) < 2:
                continue
            rng.shuffle(cells)
            p = rng.randint(1, len(cells) // 2)
            g = nl.NumberlinkInstance(m, n, tuple(
                (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(p)))
            h, rmap = rd.reduce_instance(g)
            s = 4 * rd.choose_k(p) + 5
            assert h.width == s * m and h.height == s * n
        big = nl.NumberlinkInstance(6, 6, tuple(
            (i + 1, (i, 0), (i, 5)) for i in range(6)))
        start = time.monotonic()
        rd.reduce_instance(big)
        assert time.monotonic() - start < 1.0
