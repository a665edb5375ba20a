"""Output bytes of the CLI against a checked-in digest table.

Each case runs the CLI in-process and hashes (sha256) its `trace.csv`,
its `summary.json` without the `out_dir` echo, and every
`paths/*.bpath` dump.  Every case runs with CHAINSDE_WORKERS 1 and 2,
one case also on the numpy noise path and one with the lockstep rows on
numpy; all must match the one table entry of the case.

The bits depend on the machine (numpy's SIMD `exp`/`log` and glibc's
`log` inside `ndtri`), so the table also records a fingerprint of what
they depend on; where the running process differs from it, the tests
skip and name the difference.

Regenerate the table only in a change that alters output bits on
purpose, and state why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from chainsde.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")

# --ensemble 257 wherever a case sets no size: the last chunk holds one path
CASES = {
    "simulate_dump": ["simulate", "--level", "10", "--dump-paths"],
    "simulate_stops": ["simulate", "--level", "10", "--band-n", "2", "--horizon", "4"],
    "simulate_one_path": ["simulate", "--ensemble", "1", "--chain-order", "2",
                          "--scheme", "plain-em"],
    "excursions": ["excursions", "--initial-y", "0", "--initial-z", "1", "--band-n", "3",
                   "--horizon", "4"],
    "bounds": ["bounds", "--level", "10"],
    "couple_jitter": ["couple", "--perturbation", "jitter:1e-3"],
    "couple_resolution": ["couple", "--perturbation", "resolution:6,9"],
    "couple_scheme": ["couple", "--perturbation", "scheme"],
    "converge": ["converge", "--levels", "6,8", "--level-ref", "11"],
}


def _argv(name: str) -> list[str]:
    argv = [*CASES[name], "--seed", "11"]
    return argv if "--ensemble" in argv else [*argv, "--ensemble", "257"]


def fingerprint() -> dict:
    """What the output bits depend on besides the program."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_cpu_features": [name for name, on in __cpu_features__.items() if on],
        "glibc": " ".join(platform.libc_ver()),
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
        "GLIBC_TUNABLES": os.environ.get("GLIBC_TUNABLES"),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, out: Path) -> dict:
    """Run case `name` into `out`; its exit code and output digests."""
    result = {"exit_code": main([*_argv(name), "--out", str(out)])}
    summary, n = re.subn(rb'\n *"out_dir": "[^"\n]*",', b"", (out / "summary.json").read_bytes())
    assert n == 1, "summary.json echoes out_dir once"
    result["summary.json"] = _sha(summary)
    result["trace.csv"] = _sha((out / "trace.csv").read_bytes())
    dumps = sorted((out / "paths").glob("*.bpath"))
    if dumps:
        result["paths"] = _sha(b"".join(
            f"{p.name} {_sha(p.read_bytes())}\n".encode() for p in dumps
        ))
    return result


@pytest.fixture(scope="module")
def table() -> dict:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    here = fingerprint()
    for key, value in table["fingerprint"].items():
        if here.get(key) != value:
            pytest.skip(f"golden table made with {key} = {value!r}, "
                        f"this process has {here.get(key)!r}")
    return table["cases"]


def test_table_covers_every_case():
    assert set(json.loads(TABLE.read_text(encoding="utf-8"))["cases"]) == set(CASES)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_table(table, name, workers, tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINSDE_WORKERS", workers)
    assert digests(name, tmp_path / "out") == table[name]


def test_numpy_noise_matches_table(table, numpy_backend, tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINSDE_WORKERS", "1")
    assert digests("simulate_dump", tmp_path / "out") == table["simulate_dump"]


def test_numpy_rows_match_table(table, numpy_rows, tmp_path, monkeypatch):
    # the lockstep rows on numpy, as without the compiled kernel
    monkeypatch.setenv("CHAINSDE_WORKERS", "1")
    assert digests("bounds", tmp_path / "out") == table["bounds"]


def _regenerate() -> None:
    import tempfile

    os.environ["CHAINSDE_WORKERS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: digests(name, Path(tmp) / name) for name in CASES}
    TABLE.write_text(
        json.dumps({"fingerprint": fingerprint(), "cases": cases}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
