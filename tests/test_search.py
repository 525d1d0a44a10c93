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

from test_acceptance import ORACLE_BOARDS
from test_numberlink import all_small_instances
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import search
from watarilink import wataridori as wd
from watarilink.grid import regions_from_walls


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
