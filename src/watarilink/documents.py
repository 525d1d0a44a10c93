"""Low-level helpers for the canonical JSON document forms."""

from __future__ import annotations

import json
import reprlib
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import Cell, ParseError, ValidationError

# The package-internal bulk checks below compare the set of types (or
# lengths) in a whole list with these in one C-level pass.  They only ever
# accept: on any miss the caller takes the per-value path, which names the
# first offending value, so error codes and locations do not depend on
# which path ran.
_INT = {int}        # excludes bool, whose type is not int
_LIST = {list}
_DICT = {dict}

# Reprs cut with `...` where a string's passes 30 characters, an
# integer's 40, a list 6 items, an object 4, or the nesting 2 levels, so
# that showing a deeply nested value reaches no recursion limit.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 2


def _shown(value: Any) -> str:
    """`value` for an error message: its repr cut as `_SHOWN` cuts it, and
    to 200 characters in all, so that the message stays one short line."""
    text = _SHOWN.repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def loads(text: str) -> Any:
    """The decoded document.  Text that is not JSON, nests deeper than the
    decoder's recursion limit, or holds an integer literal longer than the
    interpreter converts is a `MALFORMED_JSON` error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("MALFORMED_JSON", exc.msg,
                         location=f"line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise ParseError("MALFORMED_JSON", "document nested too deeply")
    except ValueError:  # a literal past sys.get_int_max_str_digits()
        raise ParseError("MALFORMED_JSON", "integer literal too long")


def _document(source: Any) -> dict:
    """The top-level object of a document, given as JSON text or already
    decoded."""
    return require_object(loads(source) if isinstance(source, str)
                          else source, "document")


def dumps_canonical(obj: Any) -> str:
    """The canonical byte form: compact separators, insertion key order."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def require_object(value: Any, location: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError("NOT_AN_OBJECT", "expected a JSON object", location)
    return value


def check_fields(obj: dict, required: Sequence[str], optional: Sequence[str],
                 location: str) -> None:
    for key in required:
        if key not in obj:
            raise ParseError("MISSING_FIELD", f"missing field {key!r}",
                             location)
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ParseError("UNKNOWN_FIELD", f"unknown field {_shown(key)}",
                             location)


def _is_int(value: Any) -> bool:
    """The integer rule every layer applies to a size, coordinate, label,
    number or budget: an int or an int subclass, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_int(value: Any, location: str) -> int:
    if not _is_int(value):
        raise ParseError("NOT_AN_INTEGER", f"expected an integer, got "
                         f"{_shown(value)}", location)
    return value


def as_cell(value: Any, location: str) -> Cell:
    if (not isinstance(value, list) or len(value) != 2):
        raise ParseError("NOT_A_CELL", f"expected [x, y], got {_shown(value)}",
                         location)
    return (as_int(value[0], location + "[0]"),
            as_int(value[1], location + "[1]"))


def _all_ints(values: Iterable[Any]) -> bool:
    """True iff every value's type is int, which passes `_is_int`."""
    return set(map(type, values)) <= _INT


def check_ints(values: Sequence[Any], what: str) -> None:
    """Refuse the first of `values` that `as_int` would, with a
    `NOT_AN_INTEGER` ValidationError; `what` names one of them."""
    for value in values:
        if not _is_int(value):
            raise ValidationError("NOT_AN_INTEGER", f"{what} must be an "
                                  f"integer, got {_shown(value)}")


def _objects_sized(entries: Sequence[Any], sizes: Set[int]) -> bool:
    """True iff every entry is an object with a number of fields in
    `sizes`."""
    return set(map(type, entries)) <= _DICT \
        and set(map(len, entries)) <= sizes


def _columns(entries: Sequence[Any], fields: Sequence[str]
             ) -> Optional[List[list]]:
    """The entries' values of each of `fields`, one list per field, when
    every entry is an object with exactly those fields, else None."""
    if not _objects_sized(entries, {len(fields)}):
        return None
    columns = []
    for key in fields:
        try:
            columns.append(list(map(itemgetter(key), entries)))
        except KeyError:
            return None
    return columns


def _int_rows(rows: Sequence[Any], width: int) -> bool:
    """True iff every row is a list of `width` integers."""
    return (set(map(type, rows)) <= _LIST and set(map(len, rows)) <= {width}
            and _all_ints(chain.from_iterable(rows)))


def _is_cell_list(value: Any) -> bool:
    return type(value) is list and _int_rows(value, 2)


def _cell_lists(values: Sequence[Any]) -> Optional[List[Tuple[Cell, ...]]]:
    """Each value as a tuple of cells when every value is a list of
    [x, y] integer lists, else None."""
    if set(map(type, values)) <= _LIST \
            and _is_cell_list(list(chain.from_iterable(values))):
        return [tuple(map(tuple, v)) for v in values]
    return None


def as_cells(value: Any, location: str) -> List[Cell]:
    if _is_cell_list(value):
        return list(map(tuple, value))
    if not isinstance(value, list):
        raise ParseError("NOT_A_LIST", "expected a list of cells", location)
    return [as_cell(v, f"{location}[{i}]") for i, v in enumerate(value)]


def as_list(value: Any, location: str) -> list:
    if not isinstance(value, list):
        raise ParseError("NOT_A_LIST", "expected a list", location)
    return value
