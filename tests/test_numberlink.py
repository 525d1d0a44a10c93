from itertools import combinations

import pytest

import oracles
from conftest import MALFORMED_PATHS
from watarilink import errors
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink.errors import ParseError, ValidationError


def make(width, height, terminals):
    return nl.NumberlinkInstance(width, height, tuple(terminals))


class TestValidate:
    def test_sample_accepted_with_five_pairs(self, sample_numberlink):
        inst = nl.validate_instance(sample_numberlink)
        assert inst.pair_count == 5
        assert [label for label, _, _ in inst.terminals] == [1, 2, 3, 4, 5]

    def test_label_seen_more_than_twice(self):
        inst = make(4, 4, [(7, (0, 0), (1, 1)), (7, (2, 2), (3, 3))])
        with pytest.raises(ValidationError) as err:
            nl.validate_instance(inst)
        assert err.value.code == "LABEL_MULTIPLICITY"

    def test_labels_kept_and_pair_cells_ordered(self):
        inst = make(3, 3, [(9, (0, 0), (1, 1)), (4, (2, 2), (0, 2))])
        norm = nl.validate_instance(inst)
        assert norm.terminals == ((9, (0, 0), (1, 1)), (4, (0, 2), (2, 2)))

    def test_normalization_idempotent(self, sample_numberlink):
        once = nl.validate_instance(sample_numberlink)
        assert nl.validate_instance(once) == once

    def test_no_labels(self):
        with pytest.raises(ValidationError) as err:
            nl.validate_instance(make(2, 2, []))
        assert err.value.code == "NO_LABELS"

    def test_overlapping_terminals(self):
        inst = make(3, 3, [(1, (0, 0), (1, 0)), (2, (1, 0), (2, 0))])
        with pytest.raises(ValidationError) as err:
            nl.validate_instance(inst)
        assert err.value.code == "DUPLICATE_TERMINAL"

    def test_out_of_bounds_terminal(self):
        with pytest.raises(ValidationError) as err:
            nl.validate_instance(make(2, 2, [(1, (0, 0), (2, 0))]))
        assert err.value.code == "OUT_OF_BOUNDS"


# Instances a parser would refuse for a value that is not an integer, with
# that value: a size, a coordinate, a label, and a bool, which is not an
# integer to the parsers either.
NOT_INTEGERS = [
    (make(2.0, 1, [(1, (0, 0), (1, 0))]), "2.0"),
    (make(2, 1, [(1, (1.0, 0), (0, 0))]), "1.0"),
    (make(2, 1, [(1.5, (0, 0), (1, 0))]), "1.5"),
    (make(2, 1, [(1, (True, 0), (0, 0))]), "True"),
    (make(2, 1, [(True, (0, 0), (1, 0))]), "True"),
    (make(2, "1", [(1, (0, 0), (1, 0))]), "'1'"),
]


@pytest.mark.parametrize("inst, shown", NOT_INTEGERS)
@pytest.mark.parametrize("call", [nl.validate_instance, nl.solve])
def test_non_integer_values_refused(call, inst, shown):
    with pytest.raises(ValidationError) as err:
        call(inst)
    assert err.value.code == "NOT_AN_INTEGER"
    assert err.value.message.endswith(f"got {shown}")


def test_non_integer_label_refused_on_the_verifier_path():
    """The solution of a pair labelled 1.5 is not judged: the verifier
    reads a validated instance, as the CLI and `lifting` give it."""
    inst, _ = NOT_INTEGERS[2]
    sol = nl.NumberlinkSolution(((1.5, ((0, 0), (1, 0))),))
    with pytest.raises(ValidationError) as err:
        nl.verify_solution(nl.validate_instance(inst), sol)
    assert err.value.code == "NOT_AN_INTEGER"


def test_int_subclass_values_accepted_as_the_parser_accepts_them():
    class Label(int):
        pass
    inst = nl.validate_instance(make(Label(2), 1,
                                     [(Label(3), (Label(0), 0), (1, 0))]))
    assert nl.solve(inst).status == nl.SOLVED


# Terminals that are not (label, cell, cell), and cells that are not
# (x, y), each with its code.
BAD_SHAPES = [
    ((1, (0, 0)), "BAD_TERMINAL"),
    ((1, (0, 0), (1, 0), (1, 0)), "BAD_TERMINAL"),
    (None, "BAD_TERMINAL"),
    ((1, (0, 0), (1,)), "NOT_A_CELL"),
    ((1, (0, 0, 0), (1, 0)), "NOT_A_CELL"),
    ((1, (0, 0), None), "NOT_A_CELL"),
    ((1, (0, 0), frozenset({0, 1})), "NOT_A_CELL"),
]


@pytest.mark.parametrize("terminal, code", BAD_SHAPES)
@pytest.mark.parametrize("call", [nl.validate_instance, nl.solve,
                                  rd.reduce_instance])
def test_terminal_shapes_refused(call, terminal, code):
    with pytest.raises(ValidationError) as err:
        call(make(2, 1, [terminal]))
    assert err.value.code == code


def test_list_terminals_and_cells_read_as_tuples(sample_numberlink):
    """A terminal or cell given as a list is the equal tuple in the
    normalized instance, so the solver and the reduction read it."""
    lists = make(sample_numberlink.width, sample_numberlink.height,
                 [[label, list(b), list(a)]
                  for label, a, b in sample_numberlink.terminals])
    assert nl.validate_instance(lists) == sample_numberlink
    assert nl.solve(lists) == nl.solve(sample_numberlink)
    assert rd.reduce_instance(lists) == rd.reduce_instance(sample_numberlink)


class TestVerify:
    @pytest.mark.parametrize("entry", [(1,), (2, ((0, 0),), None), None, 7])
    def test_entry_that_is_not_a_label_and_path(self, entry):
        inst = nl.validate_instance(make(2, 1, [(1, (0, 0), (1, 0))]))
        sol = nl.NumberlinkSolution(((1, ((0, 0), (1, 0))), entry))
        verdict = nl.verify_solution(inst, sol)
        assert (verdict.rule, verdict.path_index) == (errors.BAD_PATH, 1)

    @pytest.mark.parametrize("label", [[1], {}, {1}])
    def test_unhashable_label_is_unknown(self, label):
        inst = nl.validate_instance(make(2, 1, [(1, (0, 0), (1, 0))]))
        sol = nl.NumberlinkSolution(((1, ((0, 0), (1, 0))),
                                     (label, ((0, 0), (1, 0)))))
        verdict = nl.verify_solution(inst, sol)
        assert (verdict.rule, verdict.path_index) == (errors.UNKNOWN_LABEL,
                                                      1)

    def test_sample_solution_accepted(self, sample_numberlink,
                                      sample_numberlink_solution):
        assert nl.verify_solution(sample_numberlink,
                                  sample_numberlink_solution)

    def test_sample_solution_covers_every_cell(self, sample_numberlink,
                                               sample_numberlink_solution):
        # the printed solution happens to be covering, so the strict
        # variant accepts it too
        assert nl.verify_solution(sample_numberlink,
                                  sample_numberlink_solution,
                                  require_full_coverage=True)

    def test_truncated_path_rejected(self, sample_numberlink,
                                     sample_numberlink_solution):
        paths = list(sample_numberlink_solution.paths)
        label, path = paths[4]
        paths[4] = (label, path[:-1])
        verdict = nl.verify_solution(sample_numberlink,
                                     nl.NumberlinkSolution(tuple(paths)))
        assert not verdict
        assert verdict.rule == errors.ENDPOINT_MISMATCH

    def test_shared_cell_rejected(self):
        inst = nl.validate_instance(
            make(3, 3, [(1, (0, 1), (2, 1)), (2, (1, 0), (1, 2))]))
        sol = nl.NumberlinkSolution((
            (1, ((0, 1), (1, 1), (2, 1))),
            (2, ((1, 0), (1, 1), (1, 2))),
        ))
        verdict = nl.verify_solution(inst, sol)
        assert not verdict
        assert verdict.rule == errors.CELL_SHARED
        assert verdict.cell == (1, 1)

    def test_terminal_crossed_rejected(self):
        inst = nl.validate_instance(
            make(3, 2, [(1, (0, 0), (2, 0)), (2, (1, 0), (1, 1))]))
        sol = nl.NumberlinkSolution((
            (1, ((0, 0), (1, 0), (2, 0))),
            (2, ((1, 0), (1, 1))),
        ))
        verdict = nl.verify_solution(inst, sol)
        assert verdict.rule == errors.TERMINAL_CROSSED
        assert verdict.cell == (1, 0)

    def test_unknown_label_rejected(self):
        inst = nl.validate_instance(make(2, 2, [(1, (0, 0), (0, 1))]))
        sol = nl.NumberlinkSolution((
            (1, ((0, 0), (0, 1))), (2, ((1, 0), (1, 1)))))
        assert nl.verify_solution(inst, sol) == errors.reject(
            errors.UNKNOWN_LABEL, path_index=1,
            detail="no terminal pair labeled 2")

    def test_duplicate_path_label_rejected(self):
        inst = nl.validate_instance(make(2, 2, [(1, (0, 0), (0, 1))]))
        sol = nl.NumberlinkSolution((
            (1, ((0, 0), (0, 1))), (1, ((0, 1), (0, 0)))))
        assert nl.verify_solution(inst, sol) == errors.reject(
            errors.DUPLICATE_PATH_LABEL, path_index=1,
            detail="two paths labeled 1")

    @pytest.mark.parametrize("path", [
        ((0, 0), (1, 1), (0, 1)),      # a diagonal step
        ((0, 0), (0, 1), (0, 0), (0, 1)),  # a repeated cell
        ((0, 0), (0, 1), (0, 2)),      # off the grid
    ], ids=["diagonal", "repeat", "off-grid"])
    def test_bad_path_rejected(self, path):
        inst = nl.validate_instance(make(2, 2, [(1, (0, 0), (0, 1))]))
        sol = nl.NumberlinkSolution(((1, path),))
        assert nl.verify_solution(inst, sol) == errors.reject(
            errors.BAD_PATH, path_index=0, cell=(0, 0),
            detail="not a simple orthogonal path")

    @pytest.mark.parametrize("path", [
        ((0, 0), (0.5, 0), (1, 0)),
        ((0, 0), (1.0, 0)),
        ((0, 0), (True, 0)),
    ], ids=["half-steps", "float", "bool"])
    def test_non_integer_cells_rejected(self, path):
        inst = nl.validate_instance(make(2, 1, [(1, (0, 0), (1, 0))]))
        sol = nl.NumberlinkSolution(((1, path),))
        assert nl.verify_solution(inst, sol) == errors.reject(
            errors.BAD_PATH, path_index=0, cell=(0, 0),
            detail="not a simple orthogonal path")

    @pytest.mark.parametrize("name", sorted(MALFORMED_PATHS))
    def test_malformed_cells_rejected(self, name, sample_numberlink,
                                      sample_numberlink_solution):
        cells, cell = MALFORMED_PATHS[name]
        paths = sample_numberlink_solution.paths
        sol = nl.NumberlinkSolution(paths[:2] + ((paths[2][0], cells),)
                                    + paths[3:])
        verdict = nl.verify_solution(sample_numberlink, sol)
        assert verdict == errors.reject(
            errors.BAD_PATH, path_index=2, cell=cell,
            detail="not a simple orthogonal path")
        assert str(verdict).startswith("REJECT BAD_PATH path=2 cell=")

    def test_list_cells_judged_as_tuple_cells(self, sample_numberlink,
                                              sample_numberlink_solution):
        paths = sample_numberlink_solution.paths
        (l1, p1), (l2, p2), (l3, p3), (l4, p4), (l5, p5) = paths
        cases = {
            None: paths,
            errors.ENDPOINT_MISMATCH: paths[:4] + ((l5, p5[:-1]),),
            errors.BAD_PATH: ((l1, ((0, 6),) + p1),) + paths[1:],
            # Path 0 is cut short and path 2 repeats a cell: the paths are
            # read in turn, so the cut is named first.
            "both": ((l1, p1[:-1]), paths[1], (l3, p3 + ((3, 2),)))
            + paths[3:],
            errors.CELL_SHARED: paths[:4] + ((l5, ((1, 1), (1, 0), (2, 0),
                                                   (2, 1), (3, 1), (4, 1))),),
            errors.TERMINAL_CROSSED: paths[:2] + ((l3, ((0, 3), (0, 2), (1, 2),
                                                        (2, 2), (3, 2),
                                                        (4, 2))),) + paths[3:],
        }
        for rule, case in cases.items():
            want = nl.verify_solution(sample_numberlink,
                                      nl.NumberlinkSolution(case))
            assert want.rule == (errors.ENDPOINT_MISMATCH if rule == "both"
                                 else rule)
            lists = tuple((label, [list(c) for c in path])
                          for label, path in case)
            mixed = case[:2] + lists[2:]
            for given in (lists, mixed):
                assert nl.verify_solution(
                    sample_numberlink, nl.NumberlinkSolution(given)) == want
                assert nl.verify_solution(
                    sample_numberlink, nl.NumberlinkSolution(given),
                    require_full_coverage=True) == nl.verify_solution(
                        sample_numberlink, nl.NumberlinkSolution(case),
                        require_full_coverage=True)

    @pytest.mark.parametrize("cell, rule", [
        ((0, 1), errors.TERMINAL_CROSSED),
        ([0, 1], errors.TERMINAL_CROSSED),
        (frozenset({0, 1}), errors.BAD_PATH),
        ({0: 1, 1: 1}, errors.BAD_PATH),
    ], ids=["tuple", "list", "frozenset", "dict"])
    def test_cells_that_are_not_tuples_or_lists_rejected(self, cell, rule):
        # Path 1 crosses terminal (0, 1), which a frozenset cell hid: it
        # unpacks to (0, 1) but hashes apart from it.  A dict cell does
        # not hash.  Either makes its path the bad one.
        inst = nl.validate_instance(make(2, 3, [(1, (0, 0), (0, 2)),
                                                (2, (1, 0), (0, 1))]))
        sol = nl.NumberlinkSolution(((1, ((0, 0), cell, (0, 2))),
                                     (2, ((1, 0), (1, 1), (0, 1)))))
        verdict = nl.verify_solution(inst, sol)
        assert verdict.rule == rule
        if rule == errors.BAD_PATH:
            assert str(verdict) == "REJECT BAD_PATH path=0 cell=0,0"

    def test_missing_path(self, sample_numberlink,
                          sample_numberlink_solution):
        paths = sample_numberlink_solution.paths[:-1]
        verdict = nl.verify_solution(sample_numberlink,
                                     nl.NumberlinkSolution(paths))
        assert verdict.rule == errors.MISSING_PATH

    def test_uncovered_cell_when_coverage_required(self):
        inst = nl.validate_instance(make(2, 2, [(1, (0, 0), (0, 1))]))
        sol = nl.NumberlinkSolution(((1, ((0, 0), (0, 1))),))
        assert nl.verify_solution(inst, sol)
        verdict = nl.verify_solution(inst, sol, require_full_coverage=True)
        assert verdict.rule == errors.UNCOVERED_CELL

    def test_invariant_under_reversal_and_reordering(
            self, sample_numberlink, sample_numberlink_solution):
        paths = [(label, tuple(reversed(path)))
                 for label, path in sample_numberlink_solution.paths]
        paths.reverse()
        assert nl.verify_solution(sample_numberlink,
                                  nl.NumberlinkSolution(tuple(paths)))


class TestSolve:
    def test_sample_solvable_and_verifies(self, sample_numberlink):
        result = nl.solve(sample_numberlink)
        assert result.status == nl.SOLVED
        assert nl.verify_solution(sample_numberlink, result.solution)

    def test_two_cell_grid_unique_path(self):
        inst = make(2, 1, [(1, (0, 0), (1, 0))])
        result = nl.solve(inst)
        assert result.status == nl.SOLVED
        assert result.solution.paths == ((1, ((0, 0), (1, 0))),)

    def test_crossed_diagonals_unsat(self):
        inst = make(2, 2, [(1, (0, 0), (1, 1)), (2, (1, 0), (0, 1))])
        result = nl.solve(inst)
        assert result.status == nl.UNSAT
        assert not oracles.numberlink_brute_solvable(inst)

    def test_budget_exhaustion_is_distinct(self, sample_numberlink):
        result = nl.solve(sample_numberlink, budget=3)
        assert result.status == nl.BUDGET_EXCEEDED
        assert result.solution is None

    def test_solver_is_deterministic(self, sample_numberlink):
        a = nl.solve(sample_numberlink)
        b = nl.solve(sample_numberlink)
        assert a == b


def all_small_instances():
    """Every instance on 1x2, 1x3, 2x2, 2x3, 3x3 grids with p <= 2."""
    for width, height in ((2, 1), (1, 2), (3, 1), (2, 2), (3, 2), (3, 3)):
        cells = [(x, y) for y in range(height) for x in range(width)]
        for a, b in combinations(cells, 2):
            yield make(width, height, [(1, a, b)])
        for quad in combinations(cells, 4):
            a, b, c, d = quad
            yield make(width, height, [(1, a, b), (2, c, d)])
            yield make(width, height, [(1, a, c), (2, b, d)])
            yield make(width, height, [(1, a, d), (2, b, c)])


def test_solver_agrees_with_brute_force_oracle():
    checked = 0
    for inst in all_small_instances():
        result = nl.solve(inst)
        assert result.status in (nl.SOLVED, nl.UNSAT)
        solvable = oracles.numberlink_brute_solvable(inst)
        assert (result.status == nl.SOLVED) == solvable, inst
        if result.solution is not None:
            assert nl.verify_solution(nl.validate_instance(inst),
                                      result.solution)
        checked += 1
    assert checked == 488  # the family is exhaustive, not sampled


class TestDocuments:
    def test_sample_file_shape(self, sample_numberlink):
        assert sample_numberlink.width == 6
        assert sample_numberlink.height == 6
        assert sample_numberlink.pair_count == 5

    def test_round_trip_is_identity_on_canonical_docs(self, sample_numberlink):
        text = nl.serialize_instance(sample_numberlink)
        assert nl.serialize_instance(nl.parse_instance(text)) == text

    def test_solution_round_trip(self, sample_numberlink_solution):
        text = nl.serialize_solution(sample_numberlink_solution)
        assert nl.serialize_solution(nl.parse_solution(text)) == text

    def test_unknown_field_rejected(self):
        text = ('{"puzzle":"numberlink","width":2,"height":1,'
                '"terminals":[],"bogus":1}')
        with pytest.raises(ParseError) as err:
            nl.parse_instance(text)
        assert err.value.code == "UNKNOWN_FIELD"

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError) as err:
            nl.parse_instance("{nope")
        assert err.value.code == "MALFORMED_JSON"
        assert "line" in err.value.location

    def test_wrong_terminal_arity(self):
        text = ('{"puzzle":"numberlink","width":2,"height":1,'
                '"terminals":[{"label":1,"cells":[[0,0]]}]}')
        with pytest.raises(ParseError) as err:
            nl.parse_instance(text)
        assert err.value.code == "BAD_TERMINAL"
