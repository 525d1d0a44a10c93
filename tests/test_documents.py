"""Parse-error parity: every malformed document names the same error code
and location whichever parsing path handles it.

The document parsers check whole lists at once and fall back to per-value
checks on any miss.  EXPECTED was recorded with the per-value parsers alone,
before the bulk checks existed, so these cases pin that the fallback still
reports the first offending value exactly as before.

A map document is the map version, k and the source instance.  Its number
blocks are the source's terminal entries and its block centers are their
cells, so the map-block-* and map-center-* cases edit those; their
expectations, and those of the version, k and source cases, were recorded
when the map took this form.
"""

import copy
import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import INT_MAX_STR_DIGITS, fixture_json
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import wataridori as wd
from watarilink.errors import ParseError, ValidationError
from watarilink.grid import region_map_from_rows

DELETE = object()


def _map_doc():
    g = nl.validate_instance(nl.parse_instance(
        json.dumps(fixture_json("numberlink_6x6.json"))))
    return json.loads(rd.serialize_map(rd.reduce_instance(g)[1]))


BASES = {
    "wd_instance": lambda: fixture_json("wataridori_6x6.json"),
    "wd_solution": lambda: fixture_json("wataridori_6x6_solution.json"),
    "nl_instance": lambda: fixture_json("numberlink_6x6.json"),
    "nl_solution": lambda: fixture_json("numberlink_6x6_solution.json"),
    "map": _map_doc,
}

PARSERS = {
    "wd_instance": wd.parse_instance,
    "wd_solution": wd.parse_solution,
    "nl_instance": nl.parse_instance,
    "nl_solution": nl.parse_solution,
    "map": rd.parse_map,
}

BAD_VALUES = {"bool": True, "float": 1.0, "null": None, "string": "1"}


def _cases():
    cases = []
    for name, v in BAD_VALUES.items():
        cases.append((f"wd_instance-region-{name}", "wd_instance",
                      [(("regions", 2, 3), v)]))
        for field in ("x", "y", "number"):
            cases.append((f"wd_instance-circle-{field}-{name}",
                          "wd_instance", [(("circles", 4, field), v)]))
        cases.append((f"wd_solution-cell-{name}", "wd_solution",
                      [(("paths", 2, "cells", 2, 0), v)]))
        cases.append((f"nl_solution-cell-{name}", "nl_solution",
                      [(("paths", 2, "cells", 1, 1), v)]))
        cases.append((f"map-center-{name}", "map",
                      [(("source", "terminals", 3, "cells", 1, 1), v)]))
    for name, path in (("wd_solution", ("paths", 2, "cells", 2)),
                       ("nl_solution", ("paths", 2, "cells", 1)),
                       ("nl_instance", ("terminals", 1, "cells", 0)),
                       ("map-center", ("source", "terminals", 3, "cells", 1))):
        kind = name.split("-")[0]
        cases.append((f"{name}-cell-1-element", kind, [(path, [1])]))
        cases.append((f"{name}-cell-3-element", kind, [(path, [1, 2, 3])]))
        cases.append((f"{name}-cell-not-a-list", kind, [(path, 7)]))
    cases += [
        ("wd_instance-circle-unknown-field", "wd_instance",
         [(("circles", 4, "color"), "red")]),
        ("wd_instance-circle-missing-y", "wd_instance",
         [(("circles", 6, "y"), DELETE)]),
        ("wd_instance-circle-missing-x", "wd_instance",
         [(("circles", 6, "x"), DELETE)]),
        ("wd_instance-circle-not-an-object", "wd_instance",
         [(("circles", 1), [0, 0])]),
        ("wd_instance-circles-not-a-list", "wd_instance",
         [(("circles",), "none")]),
        ("wd_instance-circle-number-zero", "wd_instance",
         [(("circles", 4, "number"), 0)]),
        ("wd_instance-circle-duplicate-cell", "wd_instance",
         [(("circles", 4), {"x": 0, "y": 0})]),
        ("wd_instance-circle-out-of-bounds", "wd_instance",
         [(("circles", 4, "x"), 6)]),
        ("wd_instance-last-circle-out-of-bounds", "wd_instance",
         [(("circles", 13, "y"), -1)]),
        ("wd_instance-last-circle-duplicate-cell", "wd_instance",
         [(("circles", 13), {"x": 3, "y": 3, "number": 2})]),
        ("wd_instance-last-circle-number-negative", "wd_instance",
         [(("circles", 13, "number"), -3)]),
        ("wd_instance-bad-number-before-out-of-bounds", "wd_instance",
         [(("circles", 9, "x"), 6), (("circles", 2, "number"), 0)]),
        ("wd_instance-out-of-bounds-before-duplicate-cell", "wd_instance",
         [(("circles", 11), {"x": 0, "y": 4}), (("circles", 5, "y"), 6)]),
        ("wd_instance-duplicate-cell-before-bad-number", "wd_instance",
         [(("circles", 12, "number"), 0), (("circles", 6), {"x": 1, "y": 1})]),
        ("wd_instance-region-row-not-a-list", "wd_instance",
         [(("regions", 1), "row")]),
        ("wd_instance-region-row-short", "wd_instance",
         [(("regions", 4), [0, 0, 1, 1, 1])]),
        ("wd_instance-regions-not-a-list", "wd_instance",
         [(("regions",), {})]),
        ("wd_instance-first-of-two-region-errors", "wd_instance",
         [(("regions", 5, 1), None), (("regions", 0, 4), 2.0)]),
        ("wd_instance-region-error-before-circle-error", "wd_instance",
         [(("circles", 0, "x"), "0"), (("regions", 3, 3), True)]),
        ("wd_instance-first-of-two-circle-errors", "wd_instance",
         [(("circles", 9, "y"), 1.5), (("circles", 2, "number"), "3")]),
        ("wd_solution-cells-not-a-list", "wd_solution",
         [(("paths", 0, "cells"), "cells")]),
        ("wd_solution-cells-object", "wd_solution",
         [(("paths", 3, "cells"), {"x": 0})]),
        ("wd_solution-path-unknown-field", "wd_solution",
         [(("paths", 2, "label"), 1)]),
        ("wd_solution-path-not-an-object", "wd_solution",
         [(("paths", 2), [[0, 0], [0, 1]])]),
        ("wd_solution-first-of-two-cell-errors", "wd_solution",
         [(("paths", 4, "cells", 0), [0]),
          (("paths", 1, "cells", 1, 1), None)]),
        ("nl_instance-cells-not-a-list", "nl_instance",
         [(("terminals", 2, "cells"), "cells")]),
        ("nl_instance-label-bool", "nl_instance",
         [(("terminals", 2, "label"), True)]),
        ("nl_solution-cells-not-a-list", "nl_solution",
         [(("paths", 0, "cells"), 5)]),
        ("map-block-gx-bool", "map",
         [(("source", "terminals", 1, "cells", 0, 0), False)]),
        ("map-block-label-float", "map",
         [(("source", "terminals", 4, "label"), 1.0)]),
        ("map-block-unknown-field", "map",
         [(("source", "terminals", 2, "extra"), 1)]),
        ("map-block-missing-label", "map",
         [(("source", "terminals", 2, "label"), DELETE)]),
        ("map-k-null", "map", [(("k",), None)]),
        ("map-k-bool", "map", [(("k",), True)]),
        ("map-k-mismatch", "map", [(("k",), 3)]),
        ("map-k-error-before-source-error", "map",
         [(("k",), "2"), (("source", "width"), None)]),
        ("map-version-missing", "map", [(("version",), DELETE)]),
        ("map-version-1", "map", [(("version",), 1)]),
        ("map-version-float", "map", [(("version",), 2.0)]),
        ("map-version-string", "map", [(("version",), "2")]),
        ("map-version-1-document", "map",
         [(("version",), DELETE), (("source",), DELETE),
          (("block_size",), 13), (("g_width",), 6), (("g_height",), 6),
          (("blocks",), []), (("number_assignment",), {}),
          (("filler_pairs",), [])]),
        ("map-unknown-field", "map", [(("filler_pairs",), [])]),
        ("map-source-missing", "map", [(("source",), DELETE)]),
        ("map-source-not-an-object", "map", [(("source",), "{}")]),
        ("map-source-unknown-field", "map", [(("source", "k"), 2)]),
        ("map-source-wrong-puzzle", "map",
         [(("source", "puzzle"), "wataridori")]),
        ("map-source-width-float", "map", [(("source", "width"), 6.0)]),
        ("map-source-terminals-not-a-list", "map",
         [(("source", "terminals"), {})]),
        ("map-source-terminal-one-cell", "map",
         [(("source", "terminals", 0, "cells"), [[3, 4]])]),
        # Entries that the bulk paths' field counts pass but that lack a
        # field, or that the counts refuse, which the per-entry path names.
        ("wd_instance-circle-third-field-not-number", "wd_instance",
         [(("circles", 4), {"x": 0, "y": 0, "z": 1})]),
        ("wd_instance-circle-missing-y-with-number", "wd_instance",
         [(("circles", 4), {"x": 0, "z": 1, "number": 1})]),
        ("wd_instance-circle-number-null-field", "wd_instance",
         [(("circles", 4), {"x": 0, "y": 0, "number": None})]),
        ("wd_instance-circle-one-field", "wd_instance",
         [(("circles", 4), {"x": 0})]),
        ("wd_instance-circle-four-fields", "wd_instance",
         [(("circles", 4), {"x": 0, "y": 0, "number": 1, "z": 1})]),
        ("wd_instance-last-circle-list", "wd_instance",
         [(("circles", 13), [0, 0])]),
        ("wd_solution-path-empty-object", "wd_solution",
         [(("paths", 2), {})]),
        ("wd_solution-path-cell-field", "wd_solution",
         [(("paths", 2), {"cell": [[0, 0], [0, 1]]})]),
        ("wd_solution-path-extra-field", "wd_solution",
         [(("paths", 2), {"cells": [[0, 0], [0, 1]], "x": 1})]),
        # Numberlink entries that the bulk paths hand to the per-entry
        # path.
        ("nl_instance-terminal-one-cell", "nl_instance",
         [(("terminals", 2, "cells"), [[0, 3]])]),
        ("nl_instance-terminal-three-cells", "nl_instance",
         [(("terminals", 2, "cells"), [[0, 3], [4, 2], [1, 0]])]),
        ("nl_instance-last-terminal-one-cell", "nl_instance",
         [(("terminals", 4, "cells"), [[1, 1]])]),
        ("nl_instance-label-float", "nl_instance",
         [(("terminals", 2, "label"), 3.0)]),
        ("nl_instance-terminal-extra-field", "nl_instance",
         [(("terminals", 2, "x"), 1)]),
        ("nl_instance-terminal-cell-field", "nl_instance",
         [(("terminals", 2), {"label": 3, "cell": [[0, 3], [4, 2]]})]),
        ("nl_instance-terminal-not-an-object", "nl_instance",
         [(("terminals", 2), [[0, 3], [4, 2]])]),
        ("nl_solution-label-bool", "nl_solution",
         [(("paths", 2, "label"), True)]),
        ("nl_solution-label-float", "nl_solution",
         [(("paths", 2, "label"), 3.0)]),
        ("nl_solution-path-extra-field", "nl_solution",
         [(("paths", 2, "x"), 1)]),
        ("nl_solution-path-cell-field", "nl_solution",
         [(("paths", 2), {"label": 3, "cell": [[0, 3], [1, 3]]})]),
        ("nl_solution-path-not-an-object", "nl_solution",
         [(("paths", 2), [[0, 3], [1, 3]])]),
        ("nl_instance-first-of-two-terminal-errors", "nl_instance",
         [(("terminals", 3, "label"), 4.0),
          (("terminals", 1, "cells"), [[0, 4]])]),
        ("nl_solution-first-of-two-path-errors", "nl_solution",
         [(("paths", 3, "label"), None), (("paths", 1, "cells", 0), [0])]),
        ("wd_instance-wrong-puzzle", "wd_instance",
         [(("puzzle",), "numberlink")]),
        ("wd_instance-region-rows-too-few", "wd_instance",
         [(("regions", 5), DELETE)]),
    ]
    return cases


CASES = _cases()

# (code, location) per case, as the per-value parsers reported them.
EXPECTED = {
    "wd_instance-region-bool": ("NOT_AN_INTEGER", "regions[2][3]"),
    "wd_instance-circle-x-bool": ("NOT_AN_INTEGER", "circles[4].x"),
    "wd_instance-circle-y-bool": ("NOT_AN_INTEGER", "circles[4].y"),
    "wd_instance-circle-number-bool": ("NOT_AN_INTEGER", "circles[4].number"),
    "wd_solution-cell-bool": ("NOT_AN_INTEGER", "paths[2].cells[2][0]"),
    "nl_solution-cell-bool": ("NOT_AN_INTEGER", "paths[2].cells[1][1]"),
    "map-center-bool": ("NOT_AN_INTEGER", "source.terminals[3].cells[1][1]"),
    "wd_instance-region-float": ("NOT_AN_INTEGER", "regions[2][3]"),
    "wd_instance-circle-x-float": ("NOT_AN_INTEGER", "circles[4].x"),
    "wd_instance-circle-y-float": ("NOT_AN_INTEGER", "circles[4].y"),
    "wd_instance-circle-number-float": ("NOT_AN_INTEGER", "circles[4].number"),
    "wd_solution-cell-float": ("NOT_AN_INTEGER", "paths[2].cells[2][0]"),
    "nl_solution-cell-float": ("NOT_AN_INTEGER", "paths[2].cells[1][1]"),
    "map-center-float": ("NOT_AN_INTEGER", "source.terminals[3].cells[1][1]"),
    "wd_instance-region-null": ("NOT_AN_INTEGER", "regions[2][3]"),
    "wd_instance-circle-x-null": ("NOT_AN_INTEGER", "circles[4].x"),
    "wd_instance-circle-y-null": ("NOT_AN_INTEGER", "circles[4].y"),
    "wd_instance-circle-number-null": ("NOT_AN_INTEGER", "circles[4].number"),
    "wd_solution-cell-null": ("NOT_AN_INTEGER", "paths[2].cells[2][0]"),
    "nl_solution-cell-null": ("NOT_AN_INTEGER", "paths[2].cells[1][1]"),
    "map-center-null": ("NOT_AN_INTEGER", "source.terminals[3].cells[1][1]"),
    "wd_instance-region-string": ("NOT_AN_INTEGER", "regions[2][3]"),
    "wd_instance-circle-x-string": ("NOT_AN_INTEGER", "circles[4].x"),
    "wd_instance-circle-y-string": ("NOT_AN_INTEGER", "circles[4].y"),
    "wd_instance-circle-number-string":
        ("NOT_AN_INTEGER", "circles[4].number"),
    "wd_solution-cell-string": ("NOT_AN_INTEGER", "paths[2].cells[2][0]"),
    "nl_solution-cell-string": ("NOT_AN_INTEGER", "paths[2].cells[1][1]"),
    "map-center-string":
        ("NOT_AN_INTEGER", "source.terminals[3].cells[1][1]"),
    "wd_solution-cell-1-element": ("NOT_A_CELL", "paths[2].cells[2]"),
    "wd_solution-cell-3-element": ("NOT_A_CELL", "paths[2].cells[2]"),
    "wd_solution-cell-not-a-list": ("NOT_A_CELL", "paths[2].cells[2]"),
    "nl_solution-cell-1-element": ("NOT_A_CELL", "paths[2].cells[1]"),
    "nl_solution-cell-3-element": ("NOT_A_CELL", "paths[2].cells[1]"),
    "nl_solution-cell-not-a-list": ("NOT_A_CELL", "paths[2].cells[1]"),
    "nl_instance-cell-1-element": ("NOT_A_CELL", "terminals[1].cells[0]"),
    "nl_instance-cell-3-element": ("NOT_A_CELL", "terminals[1].cells[0]"),
    "nl_instance-cell-not-a-list": ("NOT_A_CELL", "terminals[1].cells[0]"),
    "map-center-cell-1-element":
        ("NOT_A_CELL", "source.terminals[3].cells[1]"),
    "map-center-cell-3-element":
        ("NOT_A_CELL", "source.terminals[3].cells[1]"),
    "map-center-cell-not-a-list":
        ("NOT_A_CELL", "source.terminals[3].cells[1]"),
    "wd_instance-circle-unknown-field": ("UNKNOWN_FIELD", "circles[4]"),
    "wd_instance-circle-missing-y": ("MISSING_FIELD", "circles[6]"),
    "wd_instance-circle-missing-x": ("MISSING_FIELD", "circles[6]"),
    "wd_instance-circle-not-an-object": ("NOT_AN_OBJECT", "circles[1]"),
    "wd_instance-circles-not-a-list": ("NOT_A_LIST", "circles"),
    "wd_instance-circle-number-zero": ("BAD_NUMBER", "circles"),
    "wd_instance-circle-duplicate-cell": ("DUPLICATE_CIRCLE", "circles"),
    "wd_instance-circle-out-of-bounds": ("OUT_OF_BOUNDS", "circles"),
    "wd_instance-last-circle-out-of-bounds": ("OUT_OF_BOUNDS", "circles"),
    "wd_instance-last-circle-duplicate-cell": ("DUPLICATE_CIRCLE", "circles"),
    "wd_instance-last-circle-number-negative": ("BAD_NUMBER", "circles"),
    "wd_instance-bad-number-before-out-of-bounds": ("BAD_NUMBER", "circles"),
    "wd_instance-out-of-bounds-before-duplicate-cell":
        ("OUT_OF_BOUNDS", "circles"),
    "wd_instance-duplicate-cell-before-bad-number":
        ("DUPLICATE_CIRCLE", "circles"),
    "wd_instance-region-row-not-a-list": ("NOT_A_LIST", "regions[1]"),
    "wd_instance-region-row-short": ("BAD_REGIONS", "regions[4]"),
    "wd_instance-regions-not-a-list": ("NOT_A_LIST", "regions"),
    "wd_instance-first-of-two-region-errors":
        ("NOT_AN_INTEGER", "regions[0][4]"),
    "wd_instance-region-error-before-circle-error":
        ("NOT_AN_INTEGER", "regions[3][3]"),
    "wd_instance-first-of-two-circle-errors":
        ("NOT_AN_INTEGER", "circles[2].number"),
    "wd_solution-cells-not-a-list": ("NOT_A_LIST", "paths[0].cells"),
    "wd_solution-cells-object": ("NOT_A_LIST", "paths[3].cells"),
    "wd_solution-path-unknown-field": ("UNKNOWN_FIELD", "paths[2]"),
    "wd_solution-path-not-an-object": ("NOT_AN_OBJECT", "paths[2]"),
    "wd_solution-first-of-two-cell-errors":
        ("NOT_AN_INTEGER", "paths[1].cells[1][1]"),
    "nl_instance-cells-not-a-list": ("NOT_A_LIST", "terminals[2].cells"),
    "nl_instance-label-bool": ("NOT_AN_INTEGER", "terminals[2].label"),
    "nl_solution-cells-not-a-list": ("NOT_A_LIST", "paths[0].cells"),
    "map-block-gx-bool":
        ("NOT_AN_INTEGER", "source.terminals[1].cells[0][0]"),
    "map-block-label-float": ("NOT_AN_INTEGER", "source.terminals[4].label"),
    "map-block-unknown-field": ("UNKNOWN_FIELD", "source.terminals[2]"),
    "map-block-missing-label": ("MISSING_FIELD", "source.terminals[2]"),
    "map-k-null": ("NOT_AN_INTEGER", "k"),
    "map-k-bool": ("NOT_AN_INTEGER", "k"),
    "map-k-mismatch": ("BAD_K", "k"),
    "map-k-error-before-source-error": ("NOT_AN_INTEGER", "k"),
    "map-version-missing": ("BAD_VERSION", "version"),
    "map-version-1": ("BAD_VERSION", "version"),
    "map-version-float": ("BAD_VERSION", "version"),
    "map-version-string": ("BAD_VERSION", "version"),
    "map-version-1-document": ("BAD_VERSION", "version"),
    "map-unknown-field": ("UNKNOWN_FIELD", "document"),
    "map-source-missing": ("MISSING_FIELD", "document"),
    "map-source-not-an-object": ("NOT_AN_OBJECT", "source"),
    "map-source-unknown-field": ("UNKNOWN_FIELD", "source"),
    "map-source-wrong-puzzle": ("WRONG_PUZZLE", "source.puzzle"),
    "map-source-width-float": ("NOT_AN_INTEGER", "source.width"),
    "map-source-terminals-not-a-list": ("NOT_A_LIST", "source.terminals"),
    "map-source-terminal-one-cell":
        ("BAD_TERMINAL", "source.terminals[0].cells"),
    # Recorded on the per-entry parsers before the bulk paths counted
    # fields instead of comparing key sets.
    "wd_instance-circle-third-field-not-number":
        ("UNKNOWN_FIELD", "circles[4]"),
    "wd_instance-circle-missing-y-with-number":
        ("MISSING_FIELD", "circles[4]"),
    "wd_instance-circle-number-null-field":
        ("NOT_AN_INTEGER", "circles[4].number"),
    "wd_instance-circle-one-field": ("MISSING_FIELD", "circles[4]"),
    "wd_instance-circle-four-fields": ("UNKNOWN_FIELD", "circles[4]"),
    "wd_instance-last-circle-list": ("NOT_AN_OBJECT", "circles[13]"),
    "wd_solution-path-empty-object": ("MISSING_FIELD", "paths[2]"),
    "wd_solution-path-cell-field": ("MISSING_FIELD", "paths[2]"),
    "wd_solution-path-extra-field": ("UNKNOWN_FIELD", "paths[2]"),
    # Recorded on the per-entry Numberlink parsers, before their bulk
    # paths.
    "nl_instance-terminal-one-cell": ("BAD_TERMINAL", "terminals[2].cells"),
    "nl_instance-terminal-three-cells":
        ("BAD_TERMINAL", "terminals[2].cells"),
    "nl_instance-last-terminal-one-cell":
        ("BAD_TERMINAL", "terminals[4].cells"),
    "nl_instance-label-float": ("NOT_AN_INTEGER", "terminals[2].label"),
    "nl_instance-terminal-extra-field": ("UNKNOWN_FIELD", "terminals[2]"),
    "nl_instance-terminal-cell-field": ("MISSING_FIELD", "terminals[2]"),
    "nl_instance-terminal-not-an-object": ("NOT_AN_OBJECT", "terminals[2]"),
    "nl_solution-label-bool": ("NOT_AN_INTEGER", "paths[2].label"),
    "nl_solution-label-float": ("NOT_AN_INTEGER", "paths[2].label"),
    "nl_solution-path-extra-field": ("UNKNOWN_FIELD", "paths[2]"),
    "nl_solution-path-cell-field": ("MISSING_FIELD", "paths[2]"),
    "nl_solution-path-not-an-object": ("NOT_AN_OBJECT", "paths[2]"),
    "nl_instance-first-of-two-terminal-errors":
        ("BAD_TERMINAL", "terminals[1].cells"),
    "nl_solution-first-of-two-path-errors":
        ("NOT_A_CELL", "paths[1].cells[0]"),
    # Recorded after the bulk checks: the kind and the row count are read
    # before any row, so no fallback is involved.
    "wd_instance-wrong-puzzle": ("WRONG_PUZZLE", "puzzle"),
    "wd_instance-region-rows-too-few": ("BAD_REGIONS", "regions"),
}


def _edited(kind, edits):
    doc = copy.deepcopy(BASES[kind]())
    for path, value in edits:
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        if value is DELETE:
            del obj[path[-1]]
        else:
            obj[path[-1]] = value
    return doc


def test_every_case_has_an_expectation():
    assert sorted(name for name, _, _ in CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("name,kind,edits", CASES,
                         ids=[name for name, _, _ in CASES])
def test_parse_error_code_and_location(name, kind, edits):
    doc = _edited(kind, edits)
    # Text and an already decoded document take the same checks.
    for source in (json.dumps(doc), doc):
        with pytest.raises(ParseError) as err:
            PARSERS[kind](source)
        assert (err.value.code, err.value.location) == EXPECTED[name]


# The cases whose circles `validate_instance` refuses.
CIRCLE_FAULTS = sorted(name for name, (code, _) in EXPECTED.items()
                       if code in ("OUT_OF_BOUNDS", "DUPLICATE_CIRCLE",
                                   "BAD_NUMBER"))


@pytest.mark.parametrize("name", CIRCLE_FAULTS)
def test_circle_fault_is_the_one_validate_instance_names(name):
    """The parser checks its circles by column; the fault it names, with
    its message, is the one `validate_instance` names first."""
    doc = _edited("wd_instance", dict((n, e) for n, _, e in CASES)[name])
    inst = wd.WataridoriInstance(
        region_map_from_rows(doc["regions"]),
        tuple(wd.Circle(c["x"], c["y"], c.get("number"))
              for c in doc["circles"]))
    with pytest.raises(ValidationError) as want:
        wd.validate_instance(inst)
    for source in (json.dumps(doc), doc):
        with pytest.raises(ParseError) as err:
            wd.parse_instance(source)
        assert (err.value.code, err.value.detail, err.value.location) == (
            want.value.code, want.value.message, "circles")


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_unedited_documents_parse(kind):
    doc = BASES[kind]()
    assert PARSERS[kind](json.dumps(doc)) == PARSERS[kind](doc)


# Labels and coordinates of any size, negative ones and ones past 2**31
# among them.
ANY_INT = st.integers() | st.integers(-2 ** 70, 2 ** 70)
CELL = st.lists(ANY_INT, min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numberlink_documents_parse_as_per_entry(data):
    """Valid Numberlink documents of 0 to 8 entries parse, as text and
    decoded, to the value the per-entry parsers gave."""
    entries = data.draw(st.lists(st.fixed_dictionaries({
        "label": ANY_INT, "cells": st.lists(CELL, min_size=2, max_size=2)}),
        max_size=8), label="terminals")
    width, height = data.draw(st.tuples(st.integers(1, 8),
                                        st.integers(1, 8)), label="size")
    inst = {"puzzle": "numberlink", "width": width, "height": height,
            "terminals": entries}
    sol = {"paths": data.draw(st.lists(st.fixed_dictionaries({
        "label": ANY_INT, "cells": st.lists(CELL, max_size=6)}),
        max_size=8), label="paths")}
    for parse, reference, doc in (
            (nl.parse_instance, oracles.numberlink_parse_instance_reference,
             inst),
            (nl.parse_solution, oracles.numberlink_parse_solution_reference,
             sol)):
        want = reference(doc)
        for source in (json.dumps(doc), doc):
            got = parse(source)
            assert got == want and type(got) is type(want)


@settings(max_examples=200, deadline=None)
@given(paths=st.lists(st.fixed_dictionaries({
    "cells": st.lists(CELL, max_size=6)}), max_size=8))
def test_wataridori_solution_documents_parse_as_per_entry(paths):
    """Valid Wataridori solution documents of 0 to 8 paths parse, as text
    and decoded, to the value and types the per-entry parser gave."""
    doc = {"paths": paths}
    want = oracles.wataridori_parse_solution_reference(doc)
    for source in (json.dumps(doc), doc):
        got = wd.parse_solution(source)
        assert got == want and type(got) is type(want)
        assert [list(map(type, path)) for path in got.paths] == \
            [list(map(type, path)) for path in want.paths]
        assert list(map(type, got.paths)) == list(map(type, want.paths))


@pytest.mark.parametrize("write,sol", [
    (nl.serialize_solution, nl.NumberlinkSolution(
        ((1, ((0, 0), frozenset({0, 1}))),))),
    (wd.serialize_solution, wd.WataridoriSolution(
        (((0, 0), frozenset({0, 1})),))),
], ids=["numberlink", "wataridori"])
def test_solution_writers_refuse_a_value_json_cannot_write(write, sol):
    """A cell `json` cannot write is refused by name, in the one place
    every writer's text is made, never with a traceback."""
    with pytest.raises(ValidationError) as err:
        write(sol)
    assert (err.value.code, err.value.message) == (
        "NOT_SERIALIZABLE", "cannot write frozenset({0, 1}) as JSON")


class Label(int):
    pass


@pytest.mark.parametrize("label", [Label(3), enum.IntEnum("L", "A B C").C],
                         ids=["int-subclass", "int-enum"])
def test_numberlink_int_subclass_labels_parse(label):
    # `documents.as_int` takes an int subclass other than bool; the bulk
    # paths take exact ints alone and leave the rest to the per-entry path.
    for kind, key, reference in (
            ("nl_instance", "terminals",
             oracles.numberlink_parse_instance_reference),
            ("nl_solution", "paths",
             oracles.numberlink_parse_solution_reference)):
        doc = _edited(kind, [((key, 2, "label"), label)])
        got = PARSERS[kind](doc)
        assert got == reference(doc)
        entries = got.terminals if kind == "nl_instance" else got.paths
        assert entries[2][0] is label


# Text the decoder refuses although each bracket and digit is well formed:
# nesting past the interpreter's recursion limit (100,000 deep is past it
# on every supported version), and an integer literal one digit longer
# than the interpreter converts.
UNDECODABLE = {
    "nested-array": "[" * 100000 + "]" * 100000,
    "nested-object": '{"a":' * 100000 + "1" + "}" * 100000,
    "nested-unclosed": "[" * 100000,
    "long-integer": "9" * (INT_MAX_STR_DIGITS + 1),
}


@pytest.mark.parametrize("kind", sorted(PARSERS))
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_text_is_malformed_json(kind, name):
    if name == "long-integer" and not INT_MAX_STR_DIGITS:
        pytest.skip("this interpreter converts integer literals of any "
                    "length")
    # The value rides in an extra field of a valid document, which the
    # decoder reaches before any field check.
    text = json.dumps(BASES[kind]())[:-1] + ', "extra": ' + UNDECODABLE[name]
    with pytest.raises(ParseError) as err:
        PARSERS[kind](text + "}")
    assert err.value.code == "MALFORMED_JSON"


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_json_syntax_error_names_its_line_and_column(kind):
    with pytest.raises(ParseError) as err:
        PARSERS[kind]('{\n  "paths": [],\n  oops}')
    assert (err.value.code, err.value.location) == ("MALFORMED_JSON",
                                                    "line 3 column 3")


@pytest.mark.parametrize("width,height", [(2, 5), (5, 2), (1, 7), (7, 1)])
def test_duplicate_circles_on_non_square_boards(width, height):
    """On boards that are not square, the parser's bulk check refuses two
    circles exactly when they share a cell, with `validate_instance`'s
    code and message: two cells (x, y) are one cell exactly when their
    indices x + width*y are."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    regions = [[0] * width for _ in range(height)]
    for a in cells:
        for b in cells:
            doc = {"puzzle": "wataridori", "width": width, "height": height,
                   "regions": regions,
                   "circles": [{"x": x, "y": y} for x, y in (a, b)]}
            if a != b:
                inst = wd.parse_instance(doc)
                assert [c[:2] for c in inst.circles] == [a, b]
                continue
            inst = wd.WataridoriInstance(region_map_from_rows(regions),
                                         (wd.Circle(*a), wd.Circle(*b)))
            with pytest.raises(ValidationError) as want:
                wd.validate_instance(inst)
            with pytest.raises(ParseError) as err:
                wd.parse_instance(doc)
            assert (err.value.code, err.value.detail,
                    err.value.location) == (want.value.code,
                                            want.value.message, "circles")


def test_circles_whose_swapped_indices_collide_parse():
    """(0, 2) and (1, 0) on a 2x5 board are two cells, although
    x*width + y is 2 for both: both circles parse."""
    doc = {"puzzle": "wataridori", "width": 2, "height": 5,
           "regions": [[0, 0]] * 5,
           "circles": [{"x": 0, "y": 2}, {"x": 1, "y": 0, "number": 1}]}
    inst = wd.parse_instance(doc)
    assert inst.circles == (wd.Circle(0, 2, None), wd.Circle(1, 0, 1))
