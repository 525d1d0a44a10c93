"""Error types, rule codes, and the verifier verdict shared by all modules."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

Cell = Tuple[int, int]


class PuzzleError(Exception):
    """Base for all library errors; carries a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ValidationError(PuzzleError):
    """An instance or argument violates a structural rule."""


class ParseError(PuzzleError):
    """A document cannot be parsed; `location` points at the offending spot."""

    def __init__(self, code: str, message: str, location: str = "document"):
        super().__init__(code, f"{message} (at {location})")
        self.detail = message
        self.location = location

    def under(self, field: str) -> "ParseError":
        """The same error, located in `field` of an enclosing document."""
        inner = "" if self.location == "document" else "." + self.location
        return ParseError(self.code, self.detail, field + inner)


# Rule codes shared by the two verifiers.
BAD_PATH = "BAD_PATH"
CELL_SHARED = "CELL_SHARED"
# Numberlink-specific rules.
MISSING_PATH = "MISSING_PATH"
DUPLICATE_PATH_LABEL = "DUPLICATE_PATH_LABEL"
UNKNOWN_LABEL = "UNKNOWN_LABEL"
ENDPOINT_MISMATCH = "ENDPOINT_MISMATCH"
TERMINAL_CROSSED = "TERMINAL_CROSSED"
UNCOVERED_CELL = "UNCOVERED_CELL"
# Wataridori-specific rules.
ENDPOINT_NOT_CIRCLE = "ENDPOINT_NOT_CIRCLE"
UNPAIRED_CIRCLE = "UNPAIRED_CIRCLE"
REGION_REENTERED = "REGION_REENTERED"
COUNT_MISMATCH = "COUNT_MISMATCH"


class Verdict(NamedTuple):
    """Outcome of a verifier: acceptance, or the first violated rule.

    Rejections name the rule code, the index of the offending path (when one
    exists), and the most relevant cell.
    """

    ok: bool
    rule: Optional[str] = None
    path_index: Optional[int] = None
    cell: Optional[Cell] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ACCEPT"
        path = "-" if self.path_index is None else str(self.path_index)
        cell = "-" if self.cell is None else f"{self.cell[0]},{self.cell[1]}"
        return f"REJECT {self.rule} path={path} cell={cell}"


def accept() -> Verdict:
    return Verdict(ok=True)


def reject(rule: str, path_index: Optional[int] = None,
           cell: Optional[Cell] = None, detail: str = "") -> Verdict:
    return Verdict(ok=False, rule=rule, path_index=path_index, cell=cell,
                   detail=detail)
