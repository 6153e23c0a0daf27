"""Artifact bytes of `serialize.write_csv` and `write_json`.

The expected texts below are what the per-value rule gives: `format(v,
".17g")` for a float (a numpy float64 is one) and `str(v)` for anything
else, including numpy float32, integer and bool scalars.  Column-wise
formatting must reproduce them to the byte.
"""

import json
import math

import numpy as np
import pytest

from fracshape.serialize import write_csv, write_json

FLOATS = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 0.1, 1 / 3, 1e300, 2.0]
HEADER = ["f64", "py", "np", "i64", "int", "b", "pyb", "f32", "s", "mixed"]
COLUMNS = [
    np.array(FLOATS),                                   # float64 array
    FLOATS,                                             # Python floats
    [np.float64(x) for x in FLOATS],                    # numpy float scalars
    np.arange(9),                                       # int64 array
    list(range(9)),                                     # Python ints
    np.arange(9) % 2 == 0,                              # bool array
    [i % 3 == 0 for i in range(9)],                     # Python bools
    np.array([-0.0, 1e-45, math.inf, -math.inf, math.nan, 0.1, 1 / 3, 3e38, 2.0],
             dtype=np.float32),                         # float32 array: str per value
    ["a", "b c", "", "-0", "x", "y", "z", "1e3", "nan"],
    [np.int64(3), np.bool_(True), np.float64(0.5), 7, False, 1.5, "q",
     np.int32(-2), np.float32(0.25)],
]
EXPECTED_CSV = (
    "f64,py,np,i64,int,b,pyb,f32,s,mixed\n"
    "-0,-0,-0,0,0,True,True,-0.0,a,3\n"
    "4.9406564584124654e-324,4.9406564584124654e-324,4.9406564584124654e-324,"
    "1,1,False,False,1e-45,b c,True\n"
    "inf,inf,inf,2,2,True,False,inf,,0.5\n"
    "-inf,-inf,-inf,3,3,False,True,-inf,-0,7\n"
    "nan,nan,nan,4,4,True,False,nan,x,False\n"
    "0.10000000000000001,0.10000000000000001,0.10000000000000001,5,5,False,False,0.1,y,1.5\n"
    "0.33333333333333331,0.33333333333333331,0.33333333333333331,6,6,True,True,"
    "0.33333334,z,q\n"
    "1.0000000000000001e+300,1.0000000000000001e+300,1.0000000000000001e+300,"
    "7,7,False,False,3e+38,1e3,-2\n"
    "2,2,2,8,8,True,False,2.0,nan,0.25\n"
)

JSON_OBJ = {
    "arr": np.array(FLOATS), "m": np.arange(6).reshape(2, 3), "b": np.array([True, False]),
    "s": np.float64(0.1), "i": np.int64(7), "nb": np.bool_(True), "f32": np.float32(0.1),
    "l": [np.float64(1 / 3), (np.int32(2), "x")], "py": [0.1, 1, True, None, "t"],
}
EXPECTED_JSON = (
    '{\n  "arr": [\n    -0.0,\n    5e-324,\n    Infinity,\n    -Infinity,\n    NaN,\n'
    '    0.1,\n    0.3333333333333333,\n    1e+300,\n    2.0\n  ],\n'
    '  "b": [\n    true,\n    false\n  ],\n  "f32": 0.10000000149011612,\n  "i": 7,\n'
    '  "l": [\n    0.3333333333333333,\n    [\n      2,\n      "x"\n    ]\n  ],\n'
    '  "m": [\n    [\n      0,\n      1,\n      2\n    ],\n    [\n      3,\n      4,\n      5\n'
    '    ]\n  ],\n  "nb": true,\n  "py": [\n    0.1,\n    1,\n    true,\n    null,\n'
    '    "t"\n  ],\n  "s": 0.1\n}\n'
)


def _repr_write_csv(path, header, columns):
    """Negative control: `repr` in place of the `.17g`/`str` rule."""
    rows = zip(*[list(c) for c in columns])
    lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _csv_bytes(tmp_path, writer):
    path = tmp_path / "t.csv"
    writer(path, HEADER, COLUMNS)
    return path.read_bytes()


def test_csv_bytes_follow_the_per_value_rule(tmp_path):
    assert _csv_bytes(tmp_path, write_csv) == EXPECTED_CSV.encode()
    # negative control: repr writes 0.1 and -0.0 and numpy scalars differently
    assert _csv_bytes(tmp_path, _repr_write_csv) != EXPECTED_CSV.encode()


def test_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(3), [0.5, 1.5]])


def test_csv_with_no_rows_is_the_header(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], [])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"


def test_json_bytes(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, JSON_OBJ)
    assert path.read_bytes() == EXPECTED_JSON.encode()
    # negative control: numpy values stringified by repr are not those bytes
    text = json.dumps(JSON_OBJ, sort_keys=True, indent=2, default=repr) + "\n"
    assert text.encode() != EXPECTED_JSON.encode()
