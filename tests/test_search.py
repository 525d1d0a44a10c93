"""The shared search contract, pinned.

Every `(status, nodes)` pair and solution digest below was recorded with
the recursive solvers that came before the explicit-stack driver.  Moving
the search off the Python call stack must not move any of them: same node
order, same budget arithmetic (an overrun reports `budget + 1` nodes), same
solutions.
"""

import hashlib
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_acceptance import ORACLE_BOARDS
from test_numberlink import all_small_instances
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import search
from watarilink import wataridori as wd
from watarilink.grid import (HORIZONTAL, VERTICAL, Wall, region_map_from_rows,
                             regions_from_walls)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


SAMPLE_PINS = [
    (nl, "sample_numberlink", 134,
     "dde44a8a6ad4a66fff95d1f2789dc0be0d77a7c021c86daa089cbe9babf1b350"),
    (wd, "sample_wataridori", 3887,
     "579467f2b90fab96713539a5bb02965e1af8aeee31fbbcb6a860018a9b96cfe2"),
]


@pytest.mark.parametrize("mod, fixture, nodes, sha", SAMPLE_PINS,
                         ids=["numberlink", "wataridori"])
def test_sample_solution_and_node_count(mod, fixture, nodes, sha, request):
    inst = request.getfixturevalue(fixture)
    result = mod.solve(inst)
    assert (result.status, result.nodes) == (mod.SOLVED, nodes)
    assert digest(mod.serialize_solution(result.solution)) == sha


@pytest.mark.parametrize("mod, fixture, nodes, sha", SAMPLE_PINS,
                         ids=["numberlink", "wataridori"])
@pytest.mark.parametrize("budget", [1, 3, 100])
def test_sample_overrun_reports_budget_plus_one(mod, fixture, nodes, sha,
                                                budget, request):
    result = mod.solve(request.getfixturevalue(fixture), budget=budget)
    assert (result.status, result.solution, result.nodes) == \
        (mod.BUDGET_EXCEEDED, None, budget + 1)


@pytest.mark.parametrize("mod, fixture, nodes, sha", SAMPLE_PINS,
                         ids=["numberlink", "wataridori"])
def test_sample_budget_boundary(mod, fixture, nodes, sha, request):
    """A budget equal to the node count suffices; one less does not."""
    inst = request.getfixturevalue(fixture)
    assert mod.solve(inst, budget=nodes - 1).status == mod.BUDGET_EXCEEDED
    exact = mod.solve(inst, budget=nodes)
    assert (exact.status, exact.nodes) == (mod.SOLVED, nodes)
    assert exact == mod.solve(inst, budget=5_000) == mod.solve(inst)


PLANTED = {
    "2x1": ((2, 1, ((1, (0, 0), (1, 0)),)), 15030,
            "b1d3cf6b552776c48b06f761ea533b0056563a12f4909013f956c3bde7537d63"),
    "3x1": ((3, 1, ((1, (0, 0), (2, 0)),)), 25812,
            "89f8a7d2bba1adb2e0cc12b3cce4ba8cab462b02a47b676869959b3171062806"),
    "2x2": ((2, 2, ((1, (0, 0), (0, 1)), (2, (1, 0), (1, 1)))), 53247,
            "5902ba3ab9a24c0c85b772fb73dc20b1765da24aba9204efa3e933b9d20b1d76"),
    "3x2": ((3, 2, ((1, (0, 0), (2, 0)), (2, (0, 1), (2, 1)))), 91482,
            "89dc3ca92698e52ac1af1251a23ce48ad9d1a0da746f82eb60db1684c4886c59"),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_reduction_of_planted_source(name):
    source, nodes, sha = PLANTED[name]
    h, _ = rd.reduce_instance(nl.NumberlinkInstance(*source))
    result = wd.solve(h)
    assert (result.status, result.nodes) == (wd.SOLVED, nodes)
    assert digest(wd.serialize_solution(result.solution)) == sha
    assert wd.verify_solution(h, result.solution)


def test_crossing_reduction_exhausts_budget():
    crossing = nl.NumberlinkInstance(
        2, 2, ((1, (0, 0), (1, 1)), (2, (1, 0), (0, 1))))
    h, _ = rd.reduce_instance(crossing)
    result = wd.solve(h, budget=50_000)
    assert (result.status, result.nodes) == (wd.BUDGET_EXCEEDED, 50_001)


def test_node_total_over_small_numberlink_family():
    assert sum(nl.solve(inst).nodes for inst in all_small_instances()) == 3294


def test_node_total_over_two_circle_family():
    total = count = 0
    for width, height, walls in ORACLE_BOARDS:
        rmap = regions_from_walls(walls, width, height)
        cells = [(x, y) for y in range(height) for x in range(width)]
        numbers = [None] + list(range(1, rmap.region_count + 1))
        for (a, b), (na, nb) in product(combinations(cells, 2),
                                        product(numbers, repeat=2)):
            inst = wd.WataridoriInstance(
                rmap, (wd.Circle(*a, na), wd.Circle(*b, nb)))
            total += wd.solve(inst).nodes
            count += 1
    assert (count, total) == (5026, 531771)


# Both boards used to die with RecursionError: each solver recursed once
# per path cell.  Their node counts and digests were recorded from the
# recursive solvers run with a raised recursion limit.

def test_long_numberlink_path_solves():
    inst = nl.NumberlinkInstance(40, 40, ((1, (0, 0), (39, 39)),))
    result = nl.solve(inst)
    assert (result.status, result.nodes) == (nl.SOLVED, 2359)
    assert nl.verify_solution(nl.validate_instance(inst), result.solution)
    assert digest(nl.serialize_solution(result.solution)) == \
        "6bb1d3abc38e77f7f2559871ca70d85b6413e529f8ce52cff5d54772dd38240f"


def test_long_wataridori_path_solves():
    h, _ = rd.reduce_instance(
        nl.NumberlinkInstance(4, 4, ((1, (0, 0), (3, 3)),)))
    assert (h.width, h.height) == (36, 36)
    result = wd.solve(h)
    assert (result.status, result.nodes) == (wd.SOLVED, 73889)
    assert wd.verify_solution(h, result.solution)
    assert digest(wd.serialize_solution(result.solution)) == \
        "9a1e034be17479d8b00acd143d5cfacf63e6eb236349700bd79baa7ece241304"


# 7x7 boards pinned with the tuple-cell solvers, before both moved onto
# flat cell indices.

REFUTED_7X7 = nl.NumberlinkInstance(7, 7, (
    (1, (4, 3), (3, 4)), (2, (5, 0), (3, 1)), (3, (0, 4), (6, 6)),
    (4, (0, 5), (3, 2)), (5, (1, 1), (6, 3)), (6, (0, 6), (6, 5)),
    (7, (5, 3), (1, 3))))

PLANTED_7X7 = nl.NumberlinkInstance(7, 7, (
    (1, (6, 1), (4, 1)), (2, (3, 2), (0, 2)), (3, (0, 5), (2, 5)),
    (4, (5, 6), (6, 6)), (5, (4, 4), (1, 5))))

WILDCARDS_7X7 = wd.WataridoriInstance(region_map_from_rows([
    [3, 3, 3, 5, 5, 0, 0],
    [3, 3, 3, 5, 5, 5, 0],
    [3, 3, 3, 5, 5, 5, 2],
    [4, 4, 4, 4, 5, 5, 2],
    [4, 4, 4, 4, 2, 2, 2],
    [4, 4, 4, 4, 2, 1, 1],
    [4, 4, 4, 4, 4, 1, 1],
]), (wd.Circle(4, 5, 2), wd.Circle(3, 1), wd.Circle(4, 4), wd.Circle(5, 5),
     wd.Circle(4, 6), wd.Circle(2, 2, 2), wd.Circle(6, 3, 3),
     wd.Circle(1, 6)))


@pytest.mark.parametrize("mod, inst, budget, status, nodes, sha", [
    (nl, REFUTED_7X7, search.DEFAULT_BUDGET, search.UNSAT, 2861, None),
    (nl, PLANTED_7X7, search.DEFAULT_BUDGET, search.SOLVED, 3035,
     "503a0ca29abe1e0db2516cc5abd508e075d300aaff27955bb332c8d6251a60d4"),
    (nl, PLANTED_7X7, 1000, search.BUDGET_EXCEEDED, 1001, None),
    (wd, WILDCARDS_7X7, search.DEFAULT_BUDGET, search.SOLVED, 45977,
     "cebabb6dcad729f3ea1cfeef5c80aa4cf970a04325cb635283fda341055e560a"),
    (wd, WILDCARDS_7X7, 20_000, search.BUDGET_EXCEEDED, 20_001, None),
], ids=["nl-refuted", "nl-planted", "nl-planted-overrun", "wd-wildcards",
        "wd-wildcards-overrun"])
def test_7x7_board(mod, inst, budget, status, nodes, sha):
    result = mod.solve(inst, budget=budget)
    assert (result.status, result.nodes) == (status, nodes)
    if sha is None:
        assert result.solution is None
    else:
        assert digest(mod.serialize_solution(result.solution)) == sha


# The solvers against their tuple-cell references: equal status, solution
# and node count on drawn boards, under budgets that are often overrun.

budgets = st.one_of(st.integers(0, 300), st.just(20_000))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numberlink_solve_equals_reference(data):
    width = data.draw(st.integers(1, 5), label="width")
    height = data.draw(st.integers(1 if width > 1 else 2, 5), label="height")
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    pairs = data.draw(st.integers(1, min(4, len(cells) // 2)), label="pairs")
    inst = nl.NumberlinkInstance(width, height, tuple(
        (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)))
    budget = data.draw(budgets, label="budget")
    assert nl.solve(inst, budget) == \
        oracles.numberlink_solve_reference(inst, budget)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wataridori_solve_equals_reference(data):
    width = data.draw(st.integers(2, 5), label="width")
    height = data.draw(st.integers(2, 5), label="height")
    candidates = [Wall(VERTICAL, x, y)
                  for x in range(1, width) for y in range(height)]
    candidates += [Wall(HORIZONTAL, x, y)
                   for x in range(width) for y in range(1, height)]
    # Each wall is drawn on its own, so most boards have several regions.
    present = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                 max_size=len(candidates)), label="walls")
    rmap = regions_from_walls(
        [wall for wall, keep in zip(candidates, present) if keep],
        width, height)
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    # Mostly pairs of circles; an odd count is UNSAT before any node.
    pairs = data.draw(st.integers(0, 4), label="pairs")
    odd = data.draw(st.integers(0, 1), label="odd")
    count = min(2 * pairs + odd, len(cells))
    numbers = data.draw(st.lists(st.sampled_from([None, None, 1, 2, 3, 4]),
                                 min_size=count, max_size=count),
                        label="numbers")
    inst = wd.WataridoriInstance(rmap, tuple(
        wd.Circle(x, y, number)
        for (x, y), number in zip(cells, numbers)))
    budget = data.draw(budgets, label="budget")
    assert wd.solve(inst, budget) == \
        oracles.wataridori_solve_reference(inst, budget)


def test_solvers_share_one_contract():
    for name in ("SOLVED", "UNSAT", "BUDGET_EXCEEDED", "DEFAULT_BUDGET",
                 "SolveResult"):
        assert getattr(nl, name) is getattr(wd, name) is getattr(search, name)


def _chain(depth, budget, found_at=None):
    """A frame per level, each spending one node; FOUND at `found_at`."""
    trail = []

    def frame(level):
        budget.spend()
        if level == found_at:
            yield search.FOUND
            return
        if level < depth:
            trail.append(level)
            yield frame(level + 1)
            trail.pop()

    return frame(0), trail


def test_driver_depth_is_not_bounded_by_the_call_stack():
    depth = 20 * sys.getrecursionlimit()
    budget = search.Budget(search.DEFAULT_BUDGET)
    root, trail = _chain(depth, budget, found_at=depth)
    result = search.run(root, budget, lambda: len(trail))
    assert result == search.SolveResult(search.SOLVED, depth, depth + 1)


def test_driver_unsat_undoes_every_move_and_overrun_counts_one_more():
    budget = search.Budget(100)
    root, trail = _chain(50, budget)
    assert search.run(root, budget, list) == \
        search.SolveResult(search.UNSAT, None, 51)
    assert trail == []
    budget = search.Budget(100)
    root, _ = _chain(500, budget)
    assert search.run(root, budget, list) == \
        search.SolveResult(search.BUDGET_EXCEEDED, None, 101)


def test_budget_refuses_a_negative_limit(sample_numberlink):
    assert search.Budget(0).limit == 0
    with pytest.raises(ValueError):
        search.Budget(-1)
    with pytest.raises(ValueError):
        nl.solve(sample_numberlink, budget=-5)
    odd = wd.WataridoriInstance(regions_from_walls([], 2, 1),
                                (wd.Circle(0, 0),))
    assert wd.solve(odd, budget=0) == search.SolveResult(search.UNSAT)
    with pytest.raises(ValueError):
        wd.solve(odd, budget=-5)
