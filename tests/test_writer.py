"""The column writer of trace.csv against the per-cell formatter it replaced."""

import sys

import numpy as np
import pytest

from chainsde import runner


def reference_cell(value) -> str:
    # the per-cell formatting runner._fmt applies, kept here as the reference
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def reference_csv(header, columns) -> str:
    # one row at a time, one cell at a time
    n_rows = max((len(c) for c in columns if c is not None), default=0)
    lines = [",".join(header)]
    for i in range(n_rows):
        lines.append(",".join(reference_cell(None if c is None else c[i]) for c in columns))
    return "\n".join(lines) + "\n"


_FLOATS = [
    -0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e-05, 9.999e-05, 1e16,
    5e-324, sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0, 123456.789, -2.5e-300,
]
_N = len(_FLOATS)  # 15 rows: several blocks and a remainder at small block sizes


def _table():
    seeds = [2**64 - 1, 2**63, 2**63 + 1, 0, 1, 16294208416658607535, 2**62]
    gaps = [None if i % 4 == 0 else 0.25 * i for i in range(_N)]
    with np.errstate(over="ignore"):
        float32 = np.array(_FLOATS, dtype=np.float32)
    columns = {
        "float64": np.array(_FLOATS),
        "float32": float32,
        "uint64": np.array((seeds * 3)[:_N], dtype=np.uint64),
        "int64": np.arange(_N) - 7,
        "bool": np.arange(_N) % 3 == 0,
        "py_bool": [i % 2 == 0 for i in range(_N)],
        "np_bool_list": [np.bool_(i % 2) for i in range(_N)],
        "gap": gaps,
        "empty": None,
        "py_int": [(-1) ** i * 7**i for i in range(_N)],
        "py_float": list(reversed(_FLOATS)),
        "label": ["I", "II", "apriori", "case_y_floor", "IV+"] * 3,
    }
    return list(columns), list(columns.values())


@pytest.mark.parametrize("block", [1, 4, 7, _N, 8192])
def test_columns_match_per_cell_reference(tmp_path, monkeypatch, block):
    monkeypatch.setattr(runner, "_WRITE_BLOCK", block)
    header, columns = _table()
    path = tmp_path / "trace.csv"
    runner._write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv(header, columns).encode("utf-8")


def test_special_values_spelled_as_repr(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_WRITE_BLOCK", 4)
    header, columns = _table()
    path = tmp_path / "trace.csv"
    runner._write_csv(path, header, columns)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows[:8]] == [
        "-0.0", "0.0", "inf", "-inf", "nan", "1e-05", "9.999e-05", "1e+16",
    ]
    assert rows[0][header.index("uint64")] == "18446744073709551615"
    assert rows[0][header.index("gap")] == "" and rows[1][header.index("gap")] == "0.25"
    assert all(row[header.index("empty")] == "" for row in rows)
    assert {row[header.index("bool")] for row in rows} == {"true", "false"}
    assert {row[header.index("np_bool_list")] for row in rows} == {"true", "false"}


def test_zero_rows_write_the_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    runner._write_csv(path, ["a", "b", "c"], [np.empty(0), [], None])
    assert path.read_bytes() == b"a,b,c\n"


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError, match="length"):
        runner._write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), [1, 2]])
    with pytest.raises(ValueError, match="header"):
        runner._write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3)])


@pytest.mark.parametrize("block", [1, 4, 7, 8192])
def test_repeated_columns_match_their_arrays(tmp_path, monkeypatch, block):
    # the path/seed/time/level columns format each distinct value once
    monkeypatch.setattr(runner, "_WRITE_BLOCK", block)
    seeds = np.array([2**64 - 1, 0, 16294208416658607535], dtype=np.uint64)
    times = np.array([0.0, 0.1, 1.0 / 3.0, 5e-324])
    counts = [5, 0, 7]  # a seed without rows, as in excursions
    header = ["path", "seed", "time", "hit_seed", "level"]
    arrays = [
        np.repeat(np.arange(3), 4), np.repeat(seeds, 4), np.tile(times, 3),
        np.repeat(seeds, counts), np.repeat(np.asarray((10, 12, 14)), 4),
    ]
    columns = [
        runner._repeated(np.arange(3), 4), runner._repeated(seeds, 4), runner._tiled(times, 3),
        runner._repeated(seeds, counts), runner._repeated(np.asarray((10, 12, 14)), 4),
    ]
    path = tmp_path / "trace.csv"
    runner._write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv(header, arrays).encode("utf-8")


def test_summary_numpy_values_match_plain_python(tmp_path):
    # numpy scalars and arrays in summary.json are written as their Python twins
    numpy_payload = {
        "int": np.int64(-7), "float": np.float64(0.1), "third": np.float64(1.0 / 3.0),
        "flag": np.bool_(True), "array": np.array([[1.5, -0.0], [5e-324, 2.0]]),
        "tuple": (np.int64(3), np.float64(1e16)), "nested": {"b": np.arange(3)},
    }
    plain_payload = {
        "int": -7, "float": 0.1, "third": 1.0 / 3.0, "flag": True,
        "array": [[1.5, -0.0], [5e-324, 2.0]], "tuple": [3, 1e16], "nested": {"b": [0, 1, 2]},
    }
    runner._write_summary(tmp_path / "numpy.json", numpy_payload)
    runner._write_summary(tmp_path / "plain.json", plain_payload)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
