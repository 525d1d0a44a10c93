"""The shared search contract, pinned.

Every `(status, nodes)` pair and solution digest below is deterministic:
same node order, same budget arithmetic (an overrun reports `budget + 1`
nodes), same solutions.  The Numberlink pins were recorded with the
recursive solver that came before the explicit-stack driver.  The
Wataridori pins were recorded when that search took its most-constrained
pairing order and region-distance bound; those on boards with more than
two circles moved again when it took forced pairing.  Every pin on a
solvable board moved again when both searches began to try the steps
towards the goal first; an unsatisfiable board's tree is walked whole in
any step order, so those pins held.  Pins moved once more, unsat ones
included, when both searches stopped stepping next to a path's own
earlier cells.  Wataridori pins moved again, unsat ones included, when
its search began to pair the numbered circle with the fewest live
partners first and stopped listing same-region partners for numbers
above 1.  Numberlink pins on boards where two pairs alternate around the
grid's edge fell to 0 when its search began to refute those boards
before any node.
"""

import hashlib
import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_acceptance import CRITERION_6_SOURCES, ORACLE_BOARDS
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
    (nl, "sample_numberlink", 49,
     "dde44a8a6ad4a66fff95d1f2789dc0be0d77a7c021c86daa089cbe9babf1b350"),
    (wd, "sample_wataridori", 79,
     "62c4f089de8b4c886fd5d57f992dbf4253a22eb4f3dc0f9cbb8f640ec8a7dd89"),
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
@pytest.mark.parametrize("budget", [1, 3, 40])
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
    "2x1": ((2, 1, ((1, (0, 0), (1, 0)),)), 221,
            "f58d9d6564a80cf2af710708df9d33a5a7ea3b9b247c8d507eb84ff87afcd40d"),
    "3x1": ((3, 1, ((1, (0, 0), (2, 0)),)), 294,
            "40ec93254fdb48d7031019eb0a1e7ac74bf2b836d69d1deefc39f46617b6c963"),
    "2x2": ((2, 2, ((1, (0, 0), (0, 1)), (2, (1, 0), (1, 1)))), 459,
            "8b31da356c2859d0605f5d9a5929a8a924be57e76210c769ae2ff4f445083e7a"),
    "3x2": ((3, 2, ((1, (0, 0), (2, 0)), (2, (0, 1), (2, 1)))), 604,
            "3bd417806e81eaeee56cdd62cf46357744546815708c610b47806022fb2b2b63"),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_reduction_of_planted_source(name):
    source, nodes, sha = PLANTED[name]
    h, _ = rd.reduce_instance(nl.NumberlinkInstance(*source))
    result = wd.solve(h)
    assert (result.status, result.nodes) == (wd.SOLVED, nodes)
    assert digest(wd.serialize_solution(result.solution)) == sha
    assert wd.verify_solution(h, result.solution)


CROSSING = nl.NumberlinkInstance(
    2, 2, ((1, (0, 0), (1, 1)), (2, (1, 0), (0, 1))))


def test_crossing_reduction_exhausts_budget():
    h, _ = rd.reduce_instance(CROSSING)
    result = wd.solve(h, budget=100)
    assert (result.status, result.nodes) == (wd.BUDGET_EXCEEDED, 101)


def test_crossing_reduction_is_refuted():
    """The 2x2 crossing has no solution, so neither has its reduction."""
    h, _ = rd.reduce_instance(CROSSING)
    assert nl.solve(CROSSING).status == nl.UNSAT
    result = wd.solve(h)
    assert (result.status, result.nodes) == (wd.UNSAT, 159)


def test_crossing_is_refuted_before_any_node():
    """The 2x2 crossing's pairs alternate around the edge, so no node is
    spent on it, even under a budget of 0; a negative budget still
    raises."""
    unsat = search.SolveResult(search.UNSAT, nodes=0)
    assert nl.solve(CROSSING) == nl.solve(CROSSING, budget=0) == unsat
    with pytest.raises(ValueError):
        nl.solve(CROSSING, budget=-1)


def test_crossing_on_a_line_is_refuted_before_any_node():
    """On a grid one cell wide the edge is the line itself: alternating
    pairs are refuted at once, and nested ones, just as unsatisfiable,
    are left to the search."""
    crossed = nl.NumberlinkInstance(1, 5, ((1, (0, 0), (0, 2)),
                                           (2, (0, 1), (0, 4))))
    assert nl.solve(crossed) == search.SolveResult(search.UNSAT, nodes=0)
    nested = nl.NumberlinkInstance(1, 4, ((1, (0, 0), (0, 3)),
                                          (2, (0, 1), (0, 2))))
    result = nl.solve(nested)
    assert result.status == search.UNSAT and result.nodes > 0
    for inst in (crossed, nested):
        assert not oracles.numberlink_brute_solvable(inst)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_border_refutation_agrees_with_brute_force(data):
    """The search refutes a board before any node exactly when two of its
    pairs alternate around the edge, and every such board is
    unsatisfiable by enumeration; one-wide grids included."""
    width = data.draw(st.integers(1, 4), label="width")
    height = data.draw(st.integers(2 if width < 2 else 1, 4), label="height")
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    pairs = data.draw(st.integers(2 if len(cells) >= 4 else 1,
                                  min(4, len(cells) // 2)), label="pairs")
    inst = nl.NumberlinkInstance(width, height, tuple(
        (i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)))
    result = nl.solve(inst)
    crossed = oracles.border_crossing(inst)
    assert (result.nodes == 0) == crossed
    if crossed:
        assert result.status == search.UNSAT
        assert not oracles.numberlink_brute_solvable(inst)


def test_node_total_over_small_numberlink_family():
    # 1973 before the search refuted edge crossings before any node.
    assert sum(nl.solve(inst).nodes for inst in all_small_instances()) == 1595


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
    assert (count, total) == (5026, 102009)


# Both boards used to die with RecursionError: each solver recursed once
# per path cell.  Both pins are the goal-directed searches'; the Numberlink
# one is a straight walk, one node per step of the 78-step path.

def test_long_numberlink_path_solves():
    inst = nl.NumberlinkInstance(40, 40, ((1, (0, 0), (39, 39)),))
    result = nl.solve(inst)
    assert (result.status, result.nodes) == (nl.SOLVED, 78)
    assert nl.verify_solution(nl.validate_instance(inst), result.solution)
    assert digest(nl.serialize_solution(result.solution)) == \
        "1e1d5a0f40adf5619d68ea74b458f589073ee04e0c91a9a82662d4f0c57811b2"


def test_long_wataridori_path_solves():
    h, _ = rd.reduce_instance(
        nl.NumberlinkInstance(4, 4, ((1, (0, 0), (3, 3)),)))
    assert (h.width, h.height) == (36, 36)
    result = wd.solve(h)
    assert (result.status, result.nodes) == (wd.SOLVED, 1162)
    assert wd.verify_solution(h, result.solution)
    assert digest(wd.serialize_solution(result.solution)) == \
        "682eaa3b31325032d192d92ab6820c012e93645bd2807dfce015db52f9404f1b"


# 7x7 boards pinned with the tuple-cell solvers: the Numberlink boards
# before both moved onto flat cell indices, the Wataridori board when its
# search took the most-constrained order and region-distance bound.
# REFUTED_7X7's pairs 3 and 6 alternate around the edge, so it took 460
# nodes until such boards were refuted before any node; SEARCHED_7X7 has no
# two pairs that alternate there, so its search still refutes it.

REFUTED_7X7 = nl.NumberlinkInstance(7, 7, (
    (1, (4, 3), (3, 4)), (2, (5, 0), (3, 1)), (3, (0, 4), (6, 6)),
    (4, (0, 5), (3, 2)), (5, (1, 1), (6, 3)), (6, (0, 6), (6, 5)),
    (7, (5, 3), (1, 3))))

SEARCHED_7X7 = nl.NumberlinkInstance(7, 7, (
    (1, (5, 0), (6, 3)), (2, (5, 3), (4, 0)), (3, (1, 2), (6, 6)),
    (4, (0, 5), (5, 6)), (5, (3, 0), (1, 5)), (6, (0, 1), (0, 2)),
    (7, (5, 5), (4, 3))))

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

# The benchmark's solve board 24, four wildcards among ten circles.  It
# overran a 200,000-node budget (585,416 nodes without one) until the
# search paired the numbered circle with the fewest live partners first
# and stopped listing same-region partners for numbers above 1.
FOUR_WILDCARDS_7X7 = wd.WataridoriInstance(region_map_from_rows([
    [6, 6, 6, 9, 5, 11, 11],
    [6, 6, 6, 9, 5, 10, 11],
    [6, 2, 6, 7, 5, 8, 8],
    [4, 2, 5, 5, 5, 5, 3],
    [4, 2, 5, 5, 5, 3, 3],
    [2, 2, 2, 2, 2, 2, 3],
    [0, 0, 1, 2, 2, 2, 2],
]), (wd.Circle(5, 5, 6), wd.Circle(3, 2, 4), wd.Circle(0, 4, 4),
     wd.Circle(4, 0, 2), wd.Circle(0, 0, 1), wd.Circle(0, 1, 1),
     wd.Circle(2, 0), wd.Circle(5, 0), wd.Circle(3, 1), wd.Circle(4, 1)))


@pytest.mark.parametrize("mod, inst, budget, status, nodes, sha", [
    (nl, REFUTED_7X7, search.DEFAULT_BUDGET, search.UNSAT, 0, None),
    (nl, SEARCHED_7X7, search.DEFAULT_BUDGET, search.UNSAT, 481, None),
    (nl, PLANTED_7X7, search.DEFAULT_BUDGET, search.SOLVED, 80,
     "307d4fdd474d4c4d21f0076e4c14a24ac4759769c27e827bd5a18a04958834dc"),
    (nl, PLANTED_7X7, 20, search.BUDGET_EXCEEDED, 21, None),
    (wd, WILDCARDS_7X7, search.DEFAULT_BUDGET, search.SOLVED, 395,
     "f0cdf1e5253ec9af048e2bdbad21710a873b50b350bc4a63ad118a80740de464"),
    (wd, WILDCARDS_7X7, 30, search.BUDGET_EXCEEDED, 31, None),
    (wd, FOUR_WILDCARDS_7X7, 200_000, search.SOLVED, 11531,
     "5eaa07d0a7ec6fce97f4aa5649336bcba31e7b0171180c1231f6d168a092aa40"),
    (wd, FOUR_WILDCARDS_7X7, 11530, search.BUDGET_EXCEEDED, 11531, None),
], ids=["nl-refuted", "nl-searched", "nl-planted", "nl-planted-overrun",
        "wd-wildcards", "wd-wildcards-overrun", "wd-four-wildcards",
        "wd-four-wildcards-overrun"])
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


def draw_regions(data, width, height):
    """Regions of a width x height board whose walls are each drawn on
    their own, so most boards have several regions."""
    candidates = [Wall(VERTICAL, x, y)
                  for x in range(1, width) for y in range(height)]
    candidates += [Wall(HORIZONTAL, x, y)
                   for x in range(width) for y in range(1, height)]
    present = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                 max_size=len(candidates)), label="walls")
    return regions_from_walls(
        [wall for wall, keep in zip(candidates, present) if keep],
        width, height)


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
    rmap = draw_regions(data, width, height)
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


# The drawn boards above are small, so the same equality is checked where
# the searches cut most: the reductions' many filler circles, and
# Numberlink boards with enough pending pairs to keep their witness paths
# busy.

def test_wataridori_solve_equals_reference_on_reductions():
    for g in CRITERION_6_SOURCES:
        h, _ = rd.reduce_instance(g)
        assert wd.solve(h) == oracles.wataridori_solve_reference(h), g


@pytest.mark.parametrize("budget", [0, 1, 7, 40, 150, 400])
def test_wataridori_solve_equals_reference_on_reductions_under_budget(budget):
    """The same reductions cut short, so the node where the budget runs
    out is pinned on boards of many circles too."""
    for g in CRITERION_6_SOURCES:
        h, _ = rd.reduce_instance(g)
        assert wd.solve(h, budget) == \
            oracles.wataridori_solve_reference(h, budget), (g, budget)


def seeded_numberlink_boards():
    """Three boards each on 6x6 and 7x7 with 4, 5 and 6 pairs, terminals
    on distinct cells drawn from a fixed seed."""
    rng = random.Random(2)
    for side in (6, 7):
        cells = [(x, y) for y in range(side) for x in range(side)]
        for pairs in (4, 5, 6):
            for _ in range(3):
                ends = rng.sample(cells, 2 * pairs)
                yield nl.NumberlinkInstance(side, side, tuple(
                    (i + 1, ends[2 * i], ends[2 * i + 1])
                    for i in range(pairs)))


def test_numberlink_solve_equals_reference_on_seeded_boards():
    statuses = []
    for inst in seeded_numberlink_boards():
        result = nl.solve(inst)
        assert result == oracles.numberlink_solve_reference(inst), inst
        statuses.append(result.status)
    assert (statuses.count(nl.SOLVED), statuses.count(nl.UNSAT)) == (5, 13)


def seeded_wataridori_boards():
    """Sixty 5x5 boards with six, eight or ten circles, numbered mostly 1
    and 2, and walls drawn from a fixed seed: a pairing there often leaves
    a circle with one partner, or none, and may force two at once."""
    rng = random.Random(3)
    candidates = [Wall(VERTICAL, x, y) for x in range(1, 5) for y in range(5)]
    candidates += [Wall(HORIZONTAL, x, y)
                   for x in range(5) for y in range(1, 5)]
    cells = [(x, y) for y in range(5) for x in range(5)]
    for i in range(60):
        rmap = regions_from_walls(
            [wall for wall in candidates if rng.random() < 0.5], 5, 5)
        yield wd.WataridoriInstance(rmap, tuple(
            wd.Circle(x, y, rng.choice([None, 1, 1, 2, 2, 3]))
            for x, y in rng.sample(cells, 6 + 2 * (i % 3))))


def test_wataridori_solve_equals_reference_on_seeded_boards():
    statuses = []
    for inst in seeded_wataridori_boards():
        result = wd.solve(inst)
        assert result == oracles.wataridori_solve_reference(inst), inst
        statuses.append(result.status)
    assert (statuses.count(wd.SOLVED), statuses.count(wd.UNSAT)) == (1, 59)


# A board where `pair_next` must lower `least` to its pairing circle's
# count when the frame returns: a deeper scan raised `least` past that
# count while the circle was paired, and without the restore a later scan
# stops early at a circle that is not the fewest-partners one (357 nodes,
# not the reference's 437).
LEAST_RESTORED = wd.WataridoriInstance(region_map_from_rows([
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [1, 1, 1, 1, 0],
]), tuple(wd.Circle(*c) for c in (
    (0, 0, 1), (1, 0, 1), (2, 0, None), (3, 0, 1), (4, 0, 1), (2, 2, 1),
    (3, 2, 1), (0, 3, None), (2, 3, None), (1, 4, 2), (4, 4, 2), (0, 5, 3),
    (1, 5, 2), (3, 5, 2))))


def test_wataridori_solve_equals_reference_where_least_is_restored():
    result = wd.solve(LEAST_RESTORED)
    assert (result.status, result.nodes) == (wd.UNSAT, 437)
    assert result == oracles.wataridori_solve_reference(LEAST_RESTORED)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_wataridori_solve_agrees_with_brute_force(data):
    """The pairing order, the region-distance bound and the pair filter
    never refute a solvable board."""
    width = data.draw(st.integers(1, 4), label="width")
    height = data.draw(st.integers(1 if width > 1 else 2, 4), label="height")
    rmap = draw_regions(data, width, height)
    cells = data.draw(st.permutations(
        [(x, y) for x in range(width) for y in range(height)]), label="cells")
    pairs = data.draw(st.integers(1, min(3, len(cells) // 2)), label="pairs")
    # Each pair shares one number, and either circle may be a wildcard
    # instead, so that many boards with several pairs are solvable.
    numbers = []
    for _ in range(pairs):
        number = data.draw(st.sampled_from([None, 1, 2, 3, 4]),
                           label="number")
        numbers += [data.draw(st.sampled_from([number, None]), label="wild")
                    for _ in range(2)]
    inst = wd.WataridoriInstance(rmap, tuple(
        wd.Circle(x, y, number)
        for (x, y), number in zip(cells, numbers)))
    result = wd.solve(inst)
    assert (result.status == wd.SOLVED) == \
        oracles.wataridori_brute_solvable(inst)
    if result.solution is not None:
        assert wd.verify_solution(inst, result.solution)


# A generalization pin.  The benchmark's solve boards are one fixed set, so
# a search tuned to them could get slower elsewhere; these boards come from
# a planter of their own and a seed the benchmark does not use.

def planted_wataridori_boards(count, side=6, regions=9, pairs=4):
    """Boards with planted solutions: regions grown from random seed cells,
    then walks that never re-enter a region they have left.  Each walk's
    ends carry its region-run count, or are wildcards with probability
    0.3.  Yields (instance, planted paths)."""
    rng = random.Random(20)
    cells = [(x, y) for y in range(side) for x in range(side)]

    def steps_from(x, y):
        return [(nx, ny) for nx, ny in ((x, y + 1), (x, y - 1), (x - 1, y),
                                        (x + 1, y))
                if 0 <= nx < side and 0 <= ny < side]

    while count:
        owner = {c: rid for rid, c in enumerate(rng.sample(cells, regions))}
        while len(owner) < len(cells):
            nxt = rng.choice(steps_from(*rng.choice(list(owner))))
            owner.setdefault(nxt, owner[rng.choice(
                [c for c in steps_from(*nxt) if c in owner])])
        rmap = region_map_from_rows([[owner[x, y] for x in range(side)]
                                     for y in range(side)])
        used, walks = set(), []
        for _ in range(pairs):
            path = [rng.choice([c for c in cells if c not in used])]
            runs = [rmap.id_at(path[0])]
            for _ in range(rng.randint(1, 9)):
                options = [c for c in steps_from(*path[-1])
                           if c not in used and c not in path and (
                               rmap.id_at(c) == runs[-1]
                               or rmap.id_at(c) not in runs)]
                if not options:
                    break
                path.append(rng.choice(options))
                if rmap.id_at(path[-1]) != runs[-1]:
                    runs.append(rmap.id_at(path[-1]))
            if len(path) < 2:
                break
            used.update(path)
            walks.append((tuple(path), len(runs)))
        else:
            inst = wd.WataridoriInstance(rmap, tuple(
                wd.Circle(*end, None if rng.random() < 0.3 else runs)
                for path, runs in walks for end in (path[0], path[-1])))
            count -= 1
            yield inst, wd.WataridoriSolution(tuple(p for p, _ in walks))


def test_wataridori_solves_planted_boards_off_the_benchmark():
    total = 0
    for inst, planted in planted_wataridori_boards(30):
        assert wd.verify_solution(inst, planted)
        result = wd.solve(inst)
        assert result.status == wd.SOLVED, inst
        assert wd.verify_solution(inst, result.solution)
        total += result.nodes
    # 59,274 nodes before forced pairing, 33,935 before the self-touch cut,
    # 10,425 before fewest-partners-first pairing.
    assert total == 10158


@pytest.mark.parametrize("width, height",
                         [(1, 1), (1, 3), (3, 1), (2, 2), (4, 3), (5, 5)])
def test_steps_match_tuple_cell_neighbors(width, height):
    """Flat neighbor tuples list the same cells in the same order as the
    references' tuple-cell ones."""
    cells = oracles.tuple_steps(width, height)
    want = tuple(tuple(y * width + x for x, y in cells[i % width, i // width])
                 for i in range(width * height))
    assert search.steps(width, height) == want


def test_steps_keeps_at_most_eight_shapes():
    """A neighbor table is cached per shape, and a large one holds tens of
    megabytes, so only the last few shapes stay cached."""
    for width in range(2, 11):
        result = nl.solve(nl.NumberlinkInstance(
            width, 1, ((1, (0, 0), (width - 1, 0)),)))
        assert result.status == nl.SOLVED
    assert search.steps.cache_info().currsize <= 8


@pytest.mark.parametrize("width, height",
                         [(1, 2), (2, 1), (1, 4), (4, 1), (2, 2), (3, 5),
                          (6, 4)])
def test_toward_matches_the_references_step_order(width, height):
    """For every cell and goal, the key the searches add up is the one
    `toward` documents, and its entry lists the same cells in the same
    order as the references' `steps_toward`."""
    table = search.toward(width)
    assert len(table) == 16 * 9
    cells = oracles.tuple_steps(width, height)
    right, bottom = width - 1, height - 1
    lines = {}
    for (x, y), (gx, gy) in product(cells, repeat=2):
        cols, rows = search.toward_keys(width, height, gx, gy, lines)
        # Goals in one column share `cols`, and goals in one row `rows`.
        assert (cols, rows) == search.toward_keys(width, height, gx, gy, {})
        assert cols is lines[gx] and rows is lines[~gy]
        key = cols[x] + rows[y]
        assert key == (36 * ((y == 0) + 2 * (y == bottom))
                       + 9 * ((x == 0) + 2 * (x == right))
                       + 3 * ((gy > y) - (gy < y)) + (gx > x) - (gx < x)
                       + 4)
        i = y * width + x
        assert [i + d for d in table[key]] == [
            ny * width + nx for nx, ny in
            oracles.steps_toward(cells, (x, y), (gx, gy))]
    assert search.toward(width) is table


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
    budget = oracles.Budget(search.DEFAULT_BUDGET)
    root, trail = _chain(depth, budget, found_at=depth)
    result = search.run(root, lambda: budget.nodes, lambda: len(trail))
    assert result == search.SolveResult(search.SOLVED, depth, depth + 1)


def test_driver_unsat_undoes_every_move_and_overrun_counts_one_more():
    budget = oracles.Budget(100)
    root, trail = _chain(50, budget)
    assert search.run(root, lambda: budget.nodes, list) == \
        search.SolveResult(search.UNSAT, None, 51)
    assert trail == []
    budget = oracles.Budget(100)
    root, _ = _chain(500, budget)
    assert search.run(root, lambda: budget.nodes, list) == \
        search.SolveResult(search.BUDGET_EXCEEDED, None, 101)


def test_budget_refuses_a_negative_limit(sample_numberlink):
    assert search.node_limit(0) == 0
    with pytest.raises(ValueError):
        search.node_limit(-1)
    with pytest.raises(ValueError):
        nl.solve(sample_numberlink, budget=-5)
    odd = wd.WataridoriInstance(regions_from_walls([], 2, 1),
                                (wd.Circle(0, 0),))
    assert wd.solve(odd, budget=0) == search.SolveResult(search.UNSAT)
    with pytest.raises(ValueError):
        wd.solve(odd, budget=-5)


# The self-touch cut.  A path never steps next to one of its own earlier
# cells where the shortcut through the touch would also be a solution:
# anywhere for Numberlink and for a pair of wildcards, within one region
# for a numbered pair.  A solution with the fewest path cells has no such
# touch, so the cut keeps every verdict.

U_TURN = region_map_from_rows([[0, 2], [1, 1]])


def test_numbered_path_may_touch_itself_across_regions():
    """Two 3s side by side in regions A and C, under a row B: only the U
    through B has three runs, and its ends touch across regions."""
    inst = wd.WataridoriInstance(U_TURN, (wd.Circle(0, 0, 3),
                                          wd.Circle(1, 0, 3)))
    result = wd.solve(inst)
    assert result.status == wd.SOLVED
    assert result.solution.paths == (((0, 0), (0, 1), (1, 1), (1, 0)),)
    assert wd.verify_solution(inst, result.solution)


def test_wildcard_path_takes_the_shortcut():
    inst = wd.WataridoriInstance(U_TURN, (wd.Circle(0, 0), wd.Circle(1, 0)))
    result = wd.solve(inst)
    assert result.status == wd.SOLVED
    assert result.solution.paths == (((0, 0), (1, 0)),)


def test_numbered_circle_never_pairs_within_its_region():
    """A path numbered 2 or more that ends in the region it starts in
    would re-enter it, so a 2 alone in one region with a wildcard has no
    partner, and the board is refuted before any node."""
    inst = wd.WataridoriInstance(region_map_from_rows([[0, 0], [0, 0]]),
                                 (wd.Circle(0, 0), wd.Circle(1, 1, 2)))
    assert wd.solve(inst) == oracles.wataridori_solve_reference(inst) == \
        search.SolveResult(search.UNSAT, nodes=0)
    assert not oracles.wataridori_brute_solvable(inst)


def cuttable_touch(width, height, path, region=None):
    """Whether some cell of `path` touches an earlier one other than its
    predecessor, within one region if a `region` map is given."""
    neighbors = oracles.tuple_steps(width, height)
    return any(oracles.touches_itself(neighbors, path[:k], path[k], region)
               for k in range(2, len(path)))


def test_solvers_decide_small_boards_as_brute_force_does():
    """Both searches, cut as above, against the oracles that enumerate
    every path system, on seeded boards with unsat ones and wildcard
    pairs among them; no path found has a cuttable touch."""
    rng = random.Random(12)
    statuses = []
    for _ in range(400):
        width, height = rng.randint(2, 4), rng.randint(2, 4)
        cells = [(x, y) for y in range(height) for x in range(width)]
        ends = rng.sample(cells, 2 * rng.randint(1, min(3, len(cells) // 2)))
        inst = nl.NumberlinkInstance(width, height, tuple(
            (i + 1, ends[2 * i], ends[2 * i + 1])
            for i in range(len(ends) // 2)))
        result = nl.solve(inst)
        statuses.append(result.status)
        assert (result.status == nl.SOLVED) == \
            oracles.numberlink_brute_solvable(inst), inst
        if result.solution is not None:
            assert nl.verify_solution(nl.validate_instance(inst),
                                      result.solution)
            assert not any(cuttable_touch(width, height, path)
                           for _, path in result.solution.paths)
    for _ in range(300):
        width, height = rng.randint(2, 4), rng.randint(2, 3)
        cells = [(x, y) for y in range(height) for x in range(width)]
        walls = [Wall(VERTICAL, x, y)
                 for x in range(1, width) for y in range(height)]
        walls += [Wall(HORIZONTAL, x, y)
                  for x in range(width) for y in range(1, height)]
        rmap = regions_from_walls(
            [w for w in walls if rng.random() < 0.4], width, height)
        ends = rng.sample(cells, 2 * rng.randint(1, 2))
        inst = wd.WataridoriInstance(rmap, tuple(
            wd.Circle(x, y, rng.choice([None, None, 1, 2, 3, 4]))
            for x, y in ends))
        result = wd.solve(inst)
        statuses.append(result.status)
        assert (result.status == wd.SOLVED) == \
            oracles.wataridori_brute_solvable(inst), inst
        if result.solution is not None:
            assert wd.verify_solution(inst, result.solution)
            number = {(c.x, c.y): c.number for c in inst.circles}
            for path in result.solution.paths:
                wild = number[path[0]] is None and number[path[-1]] is None
                assert not cuttable_touch(width, height, path,
                                          None if wild else rmap)
    assert search.BUDGET_EXCEEDED not in statuses
    assert (statuses[:400].count(search.UNSAT),
            statuses[400:].count(search.UNSAT)) == (106, 245)
