import gc
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, INT_MAX_STR_DIGITS, fixture_text
from watarilink import numberlink as nl
from watarilink import wataridori as wd
from watarilink import grid, render
from watarilink.cli import build_parser, main
from watarilink.errors import ValidationError

SAMPLE_NL = str(FIXTURES / "numberlink_6x6.json")
SAMPLE_NL_SOL = str(FIXTURES / "numberlink_6x6_solution.json")
SAMPLE_WD = str(FIXTURES / "wataridori_6x6.json")
SAMPLE_WD_SOL = str(FIXTURES / "wataridori_6x6_solution.json")


class TestSolve:
    def test_solve_sample_numberlink(self, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", SAMPLE_NL, "-o", str(out)]) == 0
        sol = nl.parse_solution(out.read_text())
        inst = nl.validate_instance(nl.parse_instance(fixture_text(
            "numberlink_6x6.json")))
        assert nl.verify_solution(inst, sol)

    def test_solve_sample_wataridori(self, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", SAMPLE_WD, "-o", str(out)]) == 0
        sol = wd.parse_solution(out.read_text())
        inst = wd.parse_instance(fixture_text("wataridori_6x6.json"))
        assert wd.verify_solution(inst, sol)

    def test_unsat_exits_2(self, tmp_path):
        assert main(["solve", _crossing(tmp_path)]) == 2

    def test_budget_exits_3(self, tmp_path):
        assert main(["solve", SAMPLE_NL, "--budget", "2",
                     "-o", str(tmp_path / "x.json")]) == 3

    def test_budget_of_one_node_is_accepted(self, capsys):
        assert main(["solve", SAMPLE_NL, "--budget", "1"]) == 3
        assert capsys.readouterr().err == "BUDGET_EXCEEDED after 2 nodes\n"

    @pytest.mark.parametrize("budget", ["0", "-5", "abc", "1.5"])
    def test_budget_must_be_a_positive_integer(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", SAMPLE_NL, "--budget", budget])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: watarilink solve")
        assert f"--budget: must be a positive integer, got '{budget}'" in err

    def test_truncated_file_exits_1(self, tmp_path):
        puzzle = tmp_path / "bad.json"
        puzzle.write_text('{"puzzle": "numberlink", "width":')
        assert main(["solve", str(puzzle)]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_unreadable_input_exits_1(self, tmp_path, capsys):
        # A directory cannot be read as a file, whatever the user's rights.
        assert main(["solve", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: IO_ERROR: cannot read")

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "sol.json"
        assert main(["solve", SAMPLE_NL, "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: IO_ERROR: cannot write")

    @pytest.mark.parametrize("doc, err", [
        ({"width": 2, "height": 1}, "MISSING_FIELD: document has no "
         "'puzzle' field"),
        ([1, 2], "MISSING_FIELD: document has no 'puzzle' field"),
        ({"puzzle": "sudoku"}, "WRONG_PUZZLE: unknown puzzle kind 'sudoku'"),
    ], ids=["no-puzzle-field", "not-an-object", "unknown-kind"])
    def test_unreadable_puzzle_kind_exits_1(self, doc, err, tmp_path,
                                           capsys):
        puzzle = tmp_path / "puzzle.json"
        puzzle.write_text(json.dumps(doc))
        assert main(["solve", str(puzzle)]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    @staticmethod
    def _one_pair_board(path, side):
        path.write_text(nl.serialize_instance(nl.NumberlinkInstance(
            side, side, ((1, (0, 0), (side - 1, side - 1)),))))
        return str(path)

    @staticmethod
    def _solve_and_verify(puzzle, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        assert main(["solve", puzzle, "-o", sol]) == 0
        capsys.readouterr()
        assert main(["verify", puzzle, sol]) == 0
        assert capsys.readouterr().out.strip() == "ACCEPT"

    def test_long_numberlink_path(self, tmp_path, capsys):
        # a 40x40 corner-to-corner pair used to end in RecursionError
        puzzle = self._one_pair_board(tmp_path / "g.json", 40)
        self._solve_and_verify(puzzle, tmp_path, capsys)

    def test_long_wataridori_path(self, tmp_path, capsys):
        # the 36x36 reduction of a 4x4 one-pair board used to end in
        # RecursionError
        g = self._one_pair_board(tmp_path / "g.json", 4)
        h = str(tmp_path / "h.json")
        assert main(["reduce", "-i", g, "-o", h,
                     "--map", str(tmp_path / "map.json")]) == 0
        self._solve_and_verify(h, tmp_path, capsys)


class TestVerify:
    def test_accept_exits_0(self, capsys):
        assert main(["verify", SAMPLE_WD, SAMPLE_WD_SOL]) == 0
        assert capsys.readouterr().out.strip() == "ACCEPT"

    def test_reject_exits_2_with_verdict_line(self, tmp_path, capsys):
        sol = wd.parse_solution(fixture_text("wataridori_6x6_solution.json"))
        paths = list(sol.paths)
        # reroute the wildcard-to-5 path so it crosses too few regions
        paths[6] = ((3, 3), (2, 3), (2, 4), (2, 5), (3, 5))
        broken = tmp_path / "broken.json"
        broken.write_text(wd.serialize_solution(
            wd.WataridoriSolution(tuple(paths))))
        assert main(["verify", SAMPLE_WD, str(broken)]) == 2
        line = capsys.readouterr().out.strip()
        assert line.startswith("REJECT COUNT_MISMATCH path=6 cell=")

    def test_numberlink_coverage_flag(self, tmp_path, capsys):
        # the sample solution covers the whole grid, so it passes even
        # under the strict flag; a truncated variant must not
        assert main(["verify", SAMPLE_NL, SAMPLE_NL_SOL,
                     "--require-coverage"]) == 0
        inst_doc = {
            "puzzle": "numberlink", "width": 2, "height": 2,
            "terminals": [{"label": 1, "cells": [[0, 0], [0, 1]]}],
        }
        sol_doc = {"paths": [{"label": 1, "cells": [[0, 0], [0, 1]]}]}
        puzzle = tmp_path / "p.json"
        solution = tmp_path / "s.json"
        puzzle.write_text(json.dumps(inst_doc))
        solution.write_text(json.dumps(sol_doc))
        assert main(["verify", str(puzzle), str(solution)]) == 0
        assert main(["verify", str(puzzle), str(solution),
                     "--require-coverage"]) == 2
        assert "UNCOVERED_CELL" in capsys.readouterr().out

    def test_coverage_flag_refused_on_wataridori(self, capsys):
        assert main(["verify", SAMPLE_WD, SAMPLE_WD_SOL,
                     "--require-coverage"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: WRONG_PUZZLE: --require-coverage applies to "
                       "numberlink puzzles only\n")

    def test_kind_mismatch_exits_1(self):
        # a wataridori solution lacks labels, so it cannot pair with a
        # numberlink puzzle
        assert main(["verify", SAMPLE_NL, SAMPLE_WD_SOL]) == 1


class TestPipeline:
    def test_reduce_lift_verify_unlift(self, tmp_path):
        h_file = tmp_path / "h.json"
        map_file = tmp_path / "map.json"
        h_sol_file = tmp_path / "hsol.json"
        g_sol_file = tmp_path / "gsol.json"

        assert main(["reduce", "-i", SAMPLE_NL, "-o", str(h_file),
                     "--map", str(map_file)]) == 0
        h = wd.parse_instance(h_file.read_text())
        assert (h.width, h.height) == (78, 78)

        assert main(["lift", "-g", SAMPLE_NL, "-s", SAMPLE_NL_SOL,
                     "--map", str(map_file), "-o", str(h_sol_file)]) == 0
        assert main(["verify", str(h_file), str(h_sol_file)]) == 0

        assert main(["unlift", "-s", str(h_sol_file),
                     "--map", str(map_file), "-o", str(g_sol_file)]) == 0
        got = nl.parse_solution(g_sol_file.read_text())
        want = nl.normalize_solution(nl.parse_solution(
            fixture_text("numberlink_6x6_solution.json")))
        assert got == want

    def test_unlift_rejects_bad_solution(self, tmp_path, capsys):
        map_file = tmp_path / "map.json"
        h_file = tmp_path / "h.json"
        h_sol_file = tmp_path / "hsol.json"
        assert main(["reduce", "-i", SAMPLE_NL, "-o", str(h_file),
                     "--map", str(map_file)]) == 0
        assert main(["lift", "-g", SAMPLE_NL, "-s", SAMPLE_NL_SOL,
                     "--map", str(map_file), "-o", str(h_sol_file)]) == 0
        sol = wd.parse_solution(h_sol_file.read_text())
        h_sol_file.write_text(wd.serialize_solution(
            wd.WataridoriSolution(sol.paths[:-1])))
        assert main(["unlift", "-s", str(h_sol_file),
                     "--map", str(map_file),
                     "-o", str(tmp_path / "g.json")]) == 2
        assert "UNPAIRED_CIRCLE" in capsys.readouterr().out

    def test_lift_with_foreign_map_exits_1(self, tmp_path, capsys):
        files = {}
        for name, doc in (
                ("g3.json", {"puzzle": "numberlink", "width": 3, "height": 1,
                             "terminals": [{"label": 1,
                                            "cells": [[0, 0], [2, 0]]}]}),
                ("g2.json", {"puzzle": "numberlink", "width": 2, "height": 1,
                             "terminals": [{"label": 1,
                                            "cells": [[0, 0], [1, 0]]}]}),
                ("g2sol.json", {"paths": [{"label": 1,
                                           "cells": [[0, 0], [1, 0]]}]})):
            files[name] = tmp_path / name
            files[name].write_text(json.dumps(doc))
        map_file = tmp_path / "map.json"
        assert main(["reduce", "-i", str(files["g3.json"]),
                     "-o", str(tmp_path / "h.json"),
                     "--map", str(map_file)]) == 0
        out = tmp_path / "hsol.json"
        assert main(["lift", "-g", str(files["g2.json"]),
                     "-s", str(files["g2sol.json"]), "--map", str(map_file),
                     "-o", str(out)]) == 1
        assert "MAP_MISMATCH" in capsys.readouterr().err
        assert not out.exists()

    def test_version_1_map_exits_1(self, tmp_path, capsys):
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps(
            {"k": 1, "block_size": 9, "g_width": 2, "g_height": 1,
             "blocks": [], "number_assignment": {}, "filler_pairs": []}))
        hsol = tmp_path / "hsol.json"
        hsol.write_text(json.dumps({"paths": []}))
        assert main(["unlift", "-s", str(hsol), "--map", str(map_file),
                     "-o", str(tmp_path / "g.json")]) == 1
        assert "BAD_VERSION" in capsys.readouterr().err

    def test_labels_round_trip_as_written(self, tmp_path, capsys):
        def path(name):
            return str(tmp_path / f"{name}.json")

        def read(name):
            return json.loads((tmp_path / f"{name}.json").read_text())

        (tmp_path / "g.json").write_text(json.dumps(
            {"puzzle": "numberlink", "width": 3, "height": 2,
             "terminals": [{"label": 7, "cells": [[0, 0], [2, 0]]},
                           {"label": 3, "cells": [[0, 1], [2, 1]]}]}))
        (tmp_path / "gsol.json").write_text(json.dumps(
            {"paths": [{"label": 7, "cells": [[0, 0], [1, 0], [2, 0]]},
                       {"label": 3, "cells": [[0, 1], [1, 1], [2, 1]]}]}))
        g, gsol, h, rmap, hsol = map(path, ("g", "gsol", "h", "map", "hsol"))

        assert main(["verify", g, gsol]) == 0
        assert capsys.readouterr().out == "ACCEPT\n"
        assert main(["solve", g, "-o", path("solved")]) == 0
        assert [p["label"] for p in read("solved")["paths"]] == [7, 3]
        assert main(["verify", g, path("solved")]) == 0
        assert main(["reduce", "-i", g, "-o", h, "--map", rmap]) == 0
        assert [t["label"] for t in read("map")["source"]["terminals"]] == \
            [7, 3]
        assert main(["lift", "-g", g, "-s", gsol, "--map", rmap,
                     "-o", hsol]) == 0
        assert main(["verify", h, hsol]) == 0
        assert main(["unlift", "-s", hsol, "--map", rmap,
                     "-o", path("back")]) == 0
        assert nl.parse_solution(read("back")) == nl.normalize_solution(
            nl.parse_solution(read("gsol")))
        assert [p["label"] for p in read("back")["paths"]] == [3, 7]

    def test_reduce_is_idempotent_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            h_file = tmp_path / f"h{tag}.json"
            map_file = tmp_path / f"m{tag}.json"
            assert main(["reduce", "-i", SAMPLE_NL, "-o", str(h_file),
                         "--map", str(map_file)]) == 0
            outs.append(h_file.read_bytes() + map_file.read_bytes())
        assert outs[0] == outs[1]


class TestRender:
    def test_ascii_deterministic(self, tmp_path):
        one = tmp_path / "one.txt"
        two = tmp_path / "two.txt"
        assert main(["render", SAMPLE_WD, "-o", str(one)]) == 0
        assert main(["render", SAMPLE_WD, "-o", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        text = one.read_text()
        assert "(8)" in text and "( )" in text

    def test_ascii_solution_marks_path_cells(self, tmp_path):
        out = tmp_path / "sol.txt"
        assert main(["render", SAMPLE_WD, SAMPLE_WD_SOL,
                     "-o", str(out)]) == 0
        assert "*" in out.read_text()

    def test_svg_contains_one_polyline_per_path(self, tmp_path):
        out = tmp_path / "board.svg"
        assert main(["render", SAMPLE_WD, SAMPLE_WD_SOL, "--format", "svg",
                     "-o", str(out)]) == 0
        assert out.read_text().count("<polyline") == 7

    def test_svg_without_solution_renders_puzzle_only(self, tmp_path):
        out = tmp_path / "board.svg"
        assert main(["render", SAMPLE_WD, "--format", "svg",
                     "-o", str(out)]) == 0
        text = out.read_text()
        assert "<polyline" not in text
        assert text.count("<circle") == 14

    def test_unknown_format_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["render", SAMPLE_WD, "--format", "png"])
        assert exc.value.code == 1

    def test_numberlink_ascii(self, tmp_path):
        out = tmp_path / "nl.txt"
        assert main(["render", SAMPLE_NL, SAMPLE_NL_SOL,
                     "-o", str(out)]) == 0
        text = out.read_text()
        assert " 5 " in text and "*" in text

    @pytest.mark.parametrize("fields, code", [
        ({"width": 0}, "BAD_DIMENSIONS"),
        ({"height": -1}, "BAD_DIMENSIONS"),
        ({"terminals": [{"label": 1, "cells": [[0, 0], [1, 0]]},
                        {"label": 2, "cells": [[0, 0], [1, 1]]}]},
         "DUPLICATE_TERMINAL"),
        ({"terminals": [{"label": 1, "cells": [[0, 0], [1, 0]]},
                        {"label": 1, "cells": [[0, 1], [1, 1]]}]},
         "LABEL_MULTIPLICITY"),
        ({"terminals": [{"label": 1, "cells": [[0, 0], [2, 0]]}]},
         "OUT_OF_BOUNDS"),
        ({"terminals": []}, "NO_LABELS"),
    ], ids=["width-0", "height-negative", "shared-cell", "repeated-label",
            "off-grid", "no-terminals"])
    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_refuses_what_solve_refuses(self, tmp_path, capsys, fields,
                                        code, fmt):
        puzzle = tmp_path / "bad.json"
        puzzle.write_text(json.dumps(dict({
            "puzzle": "numberlink", "width": 2, "height": 2,
            "terminals": [{"label": 1, "cells": [[0, 0], [1, 1]]}]},
            **fields)))
        for argv in (["solve", str(puzzle)],
                     ["render", str(puzzle), "--format", fmt]):
            assert main(argv) == 1
            assert f"error: {code}:" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


class TestSizeGuard:
    def test_board_over_the_default_cap_exits_1(self, tmp_path, capsys):
        puzzle = tmp_path / "huge.json"
        puzzle.write_text(json.dumps({
            "puzzle": "numberlink", "width": 100000, "height": 100000,
            "terminals": [{"label": 1, "cells": [[0, 0], [99999, 99999]]}],
        }))
        assert main(["solve", str(puzzle)]) == 1
        assert "TOO_LARGE" in capsys.readouterr().err

    def test_max_cells_sets_the_cap_for_one_command(self, capsys):
        cap = grid.MAX_CELLS
        assert main(["solve", SAMPLE_NL, "--max-cells", "35"]) == 1
        assert "TOO_LARGE" in capsys.readouterr().err
        assert grid.MAX_CELLS == cap
        assert main(["solve", SAMPLE_NL, "--max-cells", "36"]) == 0
        assert main(["solve", SAMPLE_WD, "--max-cells", str(2 * cap)]) == 0
        assert main(["render", SAMPLE_WD, "--max-cells", "35"]) == 1
        assert main(["verify", SAMPLE_WD, SAMPLE_WD_SOL,
                     "--max-cells", "36"]) == 0

    def test_default_cap_is_read_when_the_command_runs(self, monkeypatch,
                                                       capsys):
        # The first command builds the parser that every later one uses.
        assert main(["solve", SAMPLE_NL]) == 0
        monkeypatch.setattr(grid, "MAX_CELLS", 35)
        assert main(["solve", SAMPLE_NL]) == 1
        assert "TOO_LARGE" in capsys.readouterr().err
        assert grid.MAX_CELLS == 35
        monkeypatch.setattr(grid, "MAX_CELLS", 36)
        assert main(["solve", SAMPLE_NL]) == 0

    @pytest.mark.parametrize("value", ["0", "-1", "many"])
    def test_max_cells_must_be_a_positive_integer(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", SAMPLE_NL, "--max-cells", value])
        assert exc.value.code == 1
        assert "--max-cells: must be a positive integer" in \
            capsys.readouterr().err


_COORD = st.integers(-1, 4)
_CELL = st.lists(_COORD, min_size=2, max_size=2)


@st.composite
def _puzzle_files(draw):
    """A small puzzle document of either kind, often malformed, and a
    solution document for it: sides from -2 to 4, and terminals or
    circles that may be missing, off the grid, on one cell or, for
    Numberlink, under a repeated label."""
    width, height = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    path = st.lists(_CELL, max_size=4)
    if draw(st.booleans()):
        puzzle = {"puzzle": "numberlink", "width": width, "height": height,
                  "terminals": draw(st.lists(st.fixed_dictionaries({
                      "label": st.integers(1, 3),
                      "cells": st.lists(_CELL, min_size=2, max_size=2)}),
                      max_size=3))}
        solution = {"paths": draw(st.lists(st.fixed_dictionaries({
            "label": st.integers(1, 3), "cells": path}), max_size=3))}
    else:
        # One region, one region per row, or a disconnected checkerboard.
        ids = draw(st.sampled_from([lambda x, y: 0, lambda x, y: y,
                                    lambda x, y: (x + y) % 2]))
        puzzle = {"puzzle": "wataridori", "width": width, "height": height,
                  "regions": [[ids(x, y) for x in range(width)]
                              for y in range(height)],
                  "circles": draw(st.lists(st.fixed_dictionaries(
                      {"x": _COORD, "y": _COORD},
                      optional={"number": st.integers(-1, 3)}),
                      max_size=4))}
        solution = {"paths": draw(st.lists(st.fixed_dictionaries(
            {"cells": path}), max_size=3))}
    return puzzle, solution


@settings(max_examples=150, deadline=None)
@given(_puzzle_files())
def test_no_puzzle_command_raises(files):
    """Every puzzle command ends in an exit status, never a traceback,
    whatever shape of puzzle file it is given."""
    puzzle_doc, solution_doc = files
    with tempfile.TemporaryDirectory() as tmp:
        puzzle, solution, out, rmap = (
            os.path.join(tmp, name)
            for name in ("puzzle.json", "solution.json", "out", "map.json"))
        for path, doc in ((puzzle, puzzle_doc), (solution, solution_doc)):
            with open(path, "w") as f:
                json.dump(doc, f)
        commands = [["solve", puzzle, "--budget", "1000", "-o", out],
                    ["verify", puzzle, solution],
                    ["render", puzzle, solution, "-o", out],
                    ["render", puzzle, solution, "--format", "svg",
                     "-o", out]]
        if puzzle_doc["puzzle"] == "numberlink":
            commands.append(["reduce", "-i", puzzle, "-o", out,
                             "--map", rmap])
        for argv in commands:
            assert main(argv) in (0, 1, 2, 3), argv


# Files no command can decode: nested past the recursion limit of every
# supported interpreter, with an integer literal one digit longer than the
# interpreter converts, or not UTF-8.
UNDECODABLE_FILES = {
    "nested": b"[" * 100000 + b"]" * 100000,
    "long-integer": b'{"puzzle": "numberlink", "width": '
                    + b"9" * (INT_MAX_STR_DIGITS + 1) + b"}",
    "not-utf-8": b"\xff\xfe{}",
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE_FILES))
def test_undecodable_file_exits_1(name, tmp_path, capsys):
    if name == "long-integer" and not INT_MAX_STR_DIGITS:
        pytest.skip("this interpreter converts integer literals of any "
                    "length")
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE_FILES[name])
    bad, out = str(bad), str(tmp_path / "out")
    for argv in (["solve", bad], ["verify", bad, bad],
                 ["verify", SAMPLE_WD, bad], ["render", bad],
                 ["render", SAMPLE_WD, bad, "--format", "svg"],
                 ["reduce", "-i", bad, "-o", out, "--map", out],
                 ["lift", "-g", bad, "-s", bad, "--map", bad, "-o", out],
                 ["lift", "-g", SAMPLE_NL, "-s", SAMPLE_NL_SOL,
                  "--map", bad, "-o", out],
                 ["unlift", "-s", bad, "--map", bad, "-o", out]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: MALFORMED_JSON: ") \
            and err.count("\n") == 1, (argv, err)


# Documents whose offending value is long, as (code, document); the last
# is wide at both levels the error message shows, in 4-byte characters.
LONG_VALUE_FILES = {
    "long-width": ("NOT_AN_INTEGER", {
        "puzzle": "numberlink", "width": list(range(200_000)), "height": 3,
        "terminals": []}),
    "long-puzzle": ("WRONG_PUZZLE", {
        "puzzle": "x" * 300_000, "width": 3, "height": 3, "terminals": []}),
    "long-field": ("UNKNOWN_FIELD", {
        "puzzle": "numberlink", "width": 3, "height": 3, "terminals": [],
        "f" * 100_000: 1}),
    "wide-width": ("NOT_AN_INTEGER", {
        "puzzle": "wataridori", "height": 3, "regions": [], "circles": [],
        "width": {f"{i}\U0001F600" * 50: {f"{j}\U0001F600" * 50: [1] * 10
                                              for j in range(10)}
                  for i in range(10)}}),
}


@pytest.mark.parametrize("name", sorted(LONG_VALUE_FILES))
def test_long_value_is_shown_abbreviated(name, tmp_path, capsys):
    code, doc = LONG_VALUE_FILES[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["solve", str(bad)], ["verify", str(bad), str(bad)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {code}: ") and "..." in err \
            and err.count("\n") == 1, (argv, err[:200])
        assert len(err.encode()) < 1000, (argv, len(err.encode()))


def test_long_option_value_is_shown_abbreviated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", SAMPLE_NL, "--budget", "9" * 100_000 + "x"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: argument --budget: must be a positive "
                          "integer, got '999") and len(err) < 1000


def test_long_map_version_is_shown_abbreviated(tmp_path, capsys):
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps({"version": "v" * 100_000}))
    assert main(["unlift", "-s", SAMPLE_WD_SOL, "--map", str(bad),
                 "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BAD_VERSION: ") and len(err) < 1000


def test_non_utf_8_file_names_its_first_bad_byte(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"puzzle": "caf\xe9"}')
    assert main(["solve", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: MALFORMED_JSON: {bad} is not UTF-8 text (at byte 15)\n")


def _crossing(tmp_path):
    """A 2x2 Numberlink board whose two pairs must cross: unsolvable."""
    puzzle = tmp_path / "crossing.json"
    puzzle.write_text(json.dumps({
        "puzzle": "numberlink", "width": 2, "height": 2,
        "terminals": [{"label": 1, "cells": [[0, 0], [1, 1]]},
                      {"label": 2, "cells": [[1, 0], [0, 1]]}],
    }))
    return str(puzzle)


def _garbage_after(action):
    """How many objects the cyclic collector frees after `action` runs
    with it off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestCollectorPause:
    """A command runs with the cyclic collector paused.  That is safe only
    while a command leaves no reference cycles of its own."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_callers_setting_is_restored(self, enabled, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"paths": []}))
        cases = [
            (["solve", SAMPLE_WD], 0),
            (["solve", str(tmp_path / "nope.json")], 1),
            (["solve", _crossing(tmp_path)], 2),
            (["verify", SAMPLE_WD, str(empty)], 2),
            (["solve", SAMPLE_NL, "--budget", "1"], 3),
            (["frobnicate"], 1),
        ]
        before = gc.isenabled()
        try:
            for argv, code in cases:
                (gc.enable if enabled else gc.disable)()
                try:
                    got = main(argv)
                except SystemExit as exc:
                    got = exc.code
                assert (got, gc.isenabled()) == (code, enabled), argv
        finally:
            (gc.enable if before else gc.disable)()
        assert "REJECT UNPAIRED_CIRCLE" in capsys.readouterr().out

    def test_commands_leave_no_cycles(self, tmp_path):
        h, m = str(tmp_path / "h.json"), str(tmp_path / "map.json")
        hsol = str(tmp_path / "hsol.json")
        commands = [
            (["reduce", "-i", SAMPLE_NL, "-o", h, "--map", m], 0),
            (["lift", "-g", SAMPLE_NL, "-s", SAMPLE_NL_SOL, "--map", m,
              "-o", hsol], 0),
            (["verify", h, hsol], 0),
            (["unlift", "-s", hsol, "--map", m,
              "-o", str(tmp_path / "gsol.json")], 0),
            (["render", h, hsol, "-o", str(tmp_path / "h.txt")], 0),
            (["solve", SAMPLE_NL], 0),
            (["solve", SAMPLE_WD], 0),
            (["solve", _crossing(tmp_path)], 2),
            (["solve", SAMPLE_NL, "--budget", "2"], 3),
            (["solve", SAMPLE_WD, "--budget", "2"], 3),
        ]
        # Building a parser leaves argparse's formatter cycles behind, so
        # a command that built its own would leave some.  main builds one
        # parser on its first call and keeps it for the process.
        assert _garbage_after(build_parser) > 0
        assert main(["solve", SAMPLE_WD]) == 0
        for argv, code in commands:
            codes = []
            garbage = _garbage_after(lambda: codes.append(main(argv)))
            assert codes == [code], argv
            assert garbage == 0, (argv, garbage)


def test_ascii_snapshot_is_stable(sample_wataridori):
    """Pin the first lines of the board render so accidental format
    changes surface in review."""
    text = render.render_wataridori_ascii(sample_wataridori)
    lines = text.splitlines()
    assert len(lines) == 13
    assert lines[0] == "+---+---+---+---+---+---+"
    assert all(line.startswith(("+", "|")) for line in lines[::2])


@pytest.mark.parametrize("draw", [render.render_numberlink_ascii,
                                  render.render_numberlink_svg])
def test_numberlink_renders_refuse_a_bad_size(draw):
    """The library renderers take unvalidated instances too, so each
    checks the grid's size itself."""
    for width, height, code in ((-1, 2, "BAD_DIMENSIONS"),
                                (0, 3, "BAD_DIMENSIONS"),
                                (1000, 1000, "TOO_LARGE")):
        with pytest.raises(ValidationError) as err:
            draw(nl.NumberlinkInstance(width, height, ()))
        assert err.value.code == code


@pytest.mark.parametrize("draw", [render.render_wataridori_ascii,
                                  render.render_wataridori_svg])
def test_wataridori_renders_refuse_a_bad_size(draw):
    """A region map built by hand may have an empty side: the renderers
    refuse it as the Numberlink ones do."""
    for width, height, ids, code in ((0, 2, ((), ()), "BAD_DIMENSIONS"),
                                     (2, 0, (), "BAD_DIMENSIONS"),
                                     (1000, 1000, (), "TOO_LARGE")):
        rmap = grid.RegionMap(width, height, ids, 1)
        with pytest.raises(ValidationError) as err:
            draw(wd.WataridoriInstance(rmap, ()))
        assert err.value.code == code


def test_wataridori_ascii_refuses_a_float_path_cell():
    """An unvalidated solution's float coordinate is refused by name, as
    the parsers refuse it; the SVG renderer still draws it."""
    inst = wd.WataridoriInstance(grid.region_map_from_rows([[0, 1]]), (
        wd.Circle(0, 0, 2), wd.Circle(1, 0, 2)))
    sol = wd.WataridoriSolution((((0, 0), (1.0, 0)),))
    with pytest.raises(ValidationError) as err:
        render.render_wataridori_ascii(inst, sol)
    assert (err.value.code, err.value.message) == (
        "NOT_AN_INTEGER", "a cell coordinate must be an integer, got 1.0")
    assert "<polyline" in render.render_wataridori_svg(inst, sol)


def test_numberlink_ascii_refuses_a_float_terminal():
    inst = nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1.0, 0)),))
    with pytest.raises(ValidationError) as err:
        render.render_numberlink_ascii(inst)
    assert (err.value.code, err.value.message) == (
        "NOT_AN_INTEGER", "a cell coordinate must be an integer, got 1.0")
    assert "<text" in render.render_numberlink_svg(inst)


def test_numberlink_renders_draw_a_board_without_terminals():
    inst = nl.NumberlinkInstance(2, 1, ())
    assert render.render_numberlink_ascii(inst) == \
        "+---+---+\n|   |   |\n+---+---+\n"
    svg = render.render_numberlink_svg(inst)
    assert 'viewBox="0 0 80 40"' in svg and "<text" not in svg
