"""The value types: immutable, hashable, compared field by field, and
importable without `dataclasses` or `pathlib`."""

import subprocess
import sys
from pathlib import Path

import pytest

import watarilink
from watarilink import errors, grid, lifting, reduction, search
from watarilink import numberlink as nl
from watarilink import wataridori as wd


def _regions():
    return grid.RegionMap(2, 1, ((0, 1),), 2)


def _source():
    return nl.NumberlinkInstance(2, 1, ((1, (0, 0), (1, 0)),))


# Each type with a fresh-instance factory and one of its fields.
VALUES = [
    (errors.Verdict, lambda: errors.reject(errors.BAD_PATH, 0, (1, 2)),
     "rule"),
    (grid.RegionMap, _regions, "ids"),
    (search.SolveResult, lambda: search.SolveResult(search.UNSAT, nodes=7),
     "status"),
    (nl.NumberlinkInstance, _source, "terminals"),
    (nl.NumberlinkSolution,
     lambda: nl.NumberlinkSolution(((1, ((0, 0), (1, 0))),)), "paths"),
    (wd.WataridoriInstance,
     lambda: wd.WataridoriInstance(_regions(), (wd.Circle(0, 0, 2),
                                                wd.Circle(1, 0, 2))),
     "circles"),
    (wd.WataridoriSolution,
     lambda: wd.WataridoriSolution((((0, 0), (1, 0)),)), "paths"),
    (reduction.BlockTemplate, lambda: reduction.build_number_block(1, 7),
     "walls"),
    (reduction.ReductionMap, lambda: reduction.ReductionMap(_source()),
     "source"),
    (lifting.ArmRoute, lambda: lifting.route_arm(1, lifting.EAST, 1),
     "cells"),
]


@pytest.mark.parametrize("kind, make, field", VALUES,
                         ids=[kind.__name__ for kind, _, _ in VALUES])
def test_value_type_is_immutable_hashable_and_named(kind, make, field):
    value = make()
    assert type(value) is kind
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    twin = make()
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert repr(value).startswith(f"{kind.__name__}(")


def test_cli_import_loads_neither_dataclasses_nor_pathlib():
    src = Path(watarilink.__file__).parent.parent
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import watarilink, watarilink.cli; "
             "print(sorted({'dataclasses', 'pathlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
