"""The input-file rule of `orevine.errors`: `json_value` and `file_faults`."""

import csv
import json
import math

import numpy as np
import pytest

from orevine.errors import (GRID, NUMBER, ArgumentError, ParseError, SchemaError,
                            file_faults, json_value)


@pytest.mark.parametrize("value, kind, count", [
    (True, NUMBER, None), ("1.5", NUMBER, None), (None, NUMBER, None),
    (math.nan, NUMBER, None), (math.inf, NUMBER, None), (10 ** 400, NUMBER, None),
    (1.0, int, None), (True, int, None), (1, bool, None), ("true", bool, None),
    ([1, 2], int, 3), ([1, True, 3], int, 3), ((1, 2, 3), int, 3), (7, int, 3),
    ([[1, 2], [3]], int, GRID), ([[1, True]], int, GRID), ([[1.0]], int, GRID),
    ({"a": 1}, int, GRID),
])
def test_json_value_refuses(value, kind, count):
    with pytest.raises(TypeError, match="^x must be "):
        json_value(value, "x", kind, count)


def test_json_value_returns_what_it_checked():
    assert json_value(2.5, "x") == 2.5
    assert json_value(-3, "x") == -3
    assert json_value(10 ** 400, "x", int) == 10 ** 400     # an int need not fit a float
    assert json_value(False, "x", bool) is False
    assert json_value([1, 2.5, 3], "x", count=3) == (1, 2.5, 3)
    grid = json_value([[1, 2], [3, 4]], "x", int, GRID)
    assert grid.dtype == np.int64 and grid.tolist() == [[1, 2], [3, 4]]
    assert json_value([], "x", int, GRID).shape == (0,)


@pytest.mark.parametrize("fault", [
    json.JSONDecodeError("Expecting value", "", 0),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"), RecursionError("too deep"),
    KeyError("dims"), TypeError("t"), OverflowError("o"),
    csv.Error("field larger than field limit"), ArgumentError("a")])
def test_file_faults_become_one_parse_error(fault):
    with pytest.raises(ParseError, match="^f.json: ") as info:
        with file_faults("f.json"):
            raise fault
    assert info.value.__cause__ is fault


def test_file_faults_names_the_place_and_a_missing_key():
    with pytest.raises(ParseError, match="^f.csv: line 7: bad cell$"):
        with file_faults("f.csv", lambda: "line 7"):
            raise ValueError("bad cell")
    with pytest.raises(ParseError, match="^f.json: missing key 'dims'$"):
        with file_faults("f.json"):
            {}["dims"]


@pytest.mark.parametrize("error", [FileNotFoundError("gone"), IsADirectoryError("dir"),
                                   ParseError("own"), SchemaError("s")])
def test_other_errors_pass_through(error):
    with pytest.raises(type(error)) as info:
        with file_faults("f.json"):
            raise error
    assert info.value is error
