"""Command-line front end: solve, verify, reduce, lift, unlift, render.

Exit codes: 0 success, 1 usage or parse failure, 2 negative result
(unsolvable instance or rejected solution), 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from types import ModuleType
from typing import Any, Optional, Tuple

from . import (documents, grid, lifting, numberlink, reduction, render,
               search, wataridori)
from .errors import ParseError, PuzzleError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {documents._shown(text)}")
    return value


def _read(path: str) -> str:
    """The text of a file, which JSON requires to be UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise PuzzleError("IO_ERROR", f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError("MALFORMED_JSON", f"{path} is not UTF-8 text",
                         location=f"byte {exc.start}")


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise PuzzleError("IO_ERROR", f"cannot write {path}: {exc}")


def _read_puzzle(path: str) -> Tuple[ModuleType, Any]:
    """The module of a puzzle file's kind and its validated instance.  The
    file is decoded once; the Wataridori parser validates what it reads,
    the Numberlink one leaves that to `validate_instance`."""
    doc = documents.loads(_read(path))
    if not isinstance(doc, dict) or "puzzle" not in doc:
        raise PuzzleError("MISSING_FIELD", "document has no 'puzzle' field")
    kind = doc["puzzle"]
    if kind == "numberlink":
        return numberlink, numberlink.validate_instance(
            numberlink.parse_instance(doc))
    if kind == "wataridori":
        return wataridori, wataridori.parse_instance(doc)
    raise PuzzleError("WRONG_PUZZLE",
                      f"unknown puzzle kind {documents._shown(kind)}")


def cmd_solve(args) -> int:
    puzzle, inst = _read_puzzle(args.puzzle)
    result = puzzle.solve(inst, budget=args.budget)
    if result.status == search.BUDGET_EXCEEDED:
        print(f"BUDGET_EXCEEDED after {result.nodes} nodes", file=sys.stderr)
        return EXIT_BUDGET
    if result.status == search.UNSAT:
        print("UNSAT", file=sys.stderr)
        return EXIT_NEGATIVE
    _write(args.output, puzzle.serialize_solution(result.solution))
    return EXIT_OK


def cmd_verify(args) -> int:
    puzzle, inst = _read_puzzle(args.puzzle)
    if args.require_coverage and puzzle is not numberlink:
        raise PuzzleError("WRONG_PUZZLE", "--require-coverage applies to "
                          "numberlink puzzles only")
    sol = puzzle.parse_solution(_read(args.solution))
    if puzzle is numberlink:
        verdict = numberlink.verify_solution(
            inst, sol, require_full_coverage=args.require_coverage)
    else:
        verdict = wataridori.verify_solution(inst, sol)
    print(str(verdict))
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_reduce(args) -> int:
    g = numberlink.parse_instance(_read(args.input))
    h, rmap = reduction.reduce_instance(g)
    _write(args.output, wataridori.serialize_instance(h))
    _write(args.map, reduction.serialize_map(rmap))
    return EXIT_OK


def cmd_lift(args) -> int:
    g = numberlink.parse_instance(_read(args.source))
    sol = numberlink.parse_solution(_read(args.solution))
    rmap = reduction.parse_map(_read(args.map))
    h_sol = lifting.lift(g, sol, rmap)
    _write(args.output, wataridori.serialize_solution(h_sol))
    return EXIT_OK


def cmd_unlift(args) -> int:
    h_sol = wataridori.parse_solution(_read(args.solution))
    rmap = reduction.parse_map(_read(args.map))
    h, _ = reduction.reduce_instance(rmap.source)
    verdict = wataridori.verify_solution(h, h_sol)
    if not verdict:
        print(str(verdict))
        return EXIT_NEGATIVE
    g_sol = lifting.unlift(h_sol, rmap)
    _write(args.output, numberlink.serialize_solution(g_sol))
    return EXIT_OK


def cmd_render(args) -> int:
    puzzle, inst = _read_puzzle(args.puzzle)
    sol = None
    if args.solution:
        sol = puzzle.parse_solution(_read(args.solution))
    kind = puzzle.__name__.rpartition(".")[2]
    draw = getattr(render, f"render_{kind}_{args.format}")
    _write(args.output, draw(inst, sol))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="watarilink",
                     description="solve, verify, and translate grid "
                                 "path-pairing puzzles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a puzzle file")
    p.add_argument("puzzle")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--budget", type=_positive_int,
                   default=search.DEFAULT_BUDGET,
                   help="search node limit (a positive integer)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a solution file")
    p.add_argument("puzzle")
    p.add_argument("solution")
    p.add_argument("--require-coverage", action="store_true",
                   help="demand every cell be covered (numberlink only)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce",
                       help="translate a numberlink instance into an "
                            "equivalent wataridori instance")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lift", help="carry a source solution onto the "
                                    "reduced instance")
    p.add_argument("-g", "--source", required=True)
    p.add_argument("-s", "--solution", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("unlift", help="recover a source solution from a "
                                      "reduced-instance solution")
    p.add_argument("-s", "--solution", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_unlift)

    p = sub.add_parser("render", help="render a puzzle (and solution)")
    p.add_argument("puzzle")
    p.add_argument("solution", nargs="?", default=None)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_render)

    # The cap's default is read when a command runs, not here, since one
    # parser serves every command of a process.
    for p in sub.choices.values():
        p.add_argument("--max-cells", type=_positive_int, default=None,
                       help="refuse grids with more cells than this "
                            "(default: grid.MAX_CELLS)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command leaves no reference cycles of its own (the solvers break
    # theirs), so the cyclic collector would only walk its large grids and
    # path lists and find nothing to free.  It is paused while the command
    # runs; the caller's setting is restored.
    enabled = gc.isenabled()
    gc.disable()
    max_cells = grid.MAX_CELLS
    grid.MAX_CELLS = args.max_cells or max_cells
    try:
        return args.func(args)
    except PuzzleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        grid.MAX_CELLS = max_cells
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
