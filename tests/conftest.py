import json
import sys
from pathlib import Path

import pytest

from watarilink import numberlink as nl
from watarilink import wataridori as wd
from watarilink.grid import Wall

FIXTURES = Path(__file__).parent / "fixtures"

# The longest integer literal the interpreter converts, or 0 where it
# converts any length: before Python 3.10.7, or with the limit lifted
# (PYTHONINTMAXSTRDIGITS=0).
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# Paths whose cells are not pairs of integers, each with the cell its
# BAD_PATH verdict names: the first cell when it is a pair, else None.
MALFORMED_PATHS = {
    "triples": (((0, 0, 0), (0, 1, 0)), None),
    "singles": (((0,), (0, 1)), None),
    "none-cell": ((None, (0, 1)), None),
    "string-first-cell": (("ab", (0, 1)), None),
    "string-last-cell": (((0, 0), "01"), (0, 0)),
    "string-coordinate": (((0, "a"), (0, 1)), (0, "a")),
}


def fixture_text(name):
    return (FIXTURES / name).read_text()


def fixture_json(name):
    return json.loads(fixture_text(name))


@pytest.fixture(scope="session")
def sample_wataridori():
    """Hand-checked 6x6 instance: 18 regions, 14 circles."""
    return wd.parse_instance(fixture_text("wataridori_6x6.json"))


@pytest.fixture(scope="session")
def sample_wataridori_solution():
    return wd.parse_solution(fixture_text("wataridori_6x6_solution.json"))


@pytest.fixture(scope="session")
def sample_wataridori_walls():
    doc = fixture_json("wataridori_6x6_walls.json")
    return [Wall(k, x, y) for k, x, y in doc["walls"]]


@pytest.fixture(scope="session")
def sample_numberlink():
    return nl.validate_instance(
        nl.parse_instance(fixture_text("numberlink_6x6.json")))


@pytest.fixture(scope="session")
def sample_numberlink_solution():
    return nl.parse_solution(fixture_text("numberlink_6x6_solution.json"))
