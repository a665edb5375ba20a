"""Workload table of the chainsde benchmark.

Each workload names the child process arguments for one run, the number
of path-steps that run integrates (computed from its inputs), and the
worker count it is given.  Sizes come in two sets: `full`, used for
measurements, and `smoke`, a tiny version for the benchmark's own test.
Why each workload was chosen is written in NOTES.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

# The load is generated from one process; no workload uses more pool
# workers than the machine has cores, and never more than two.
MAX_WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    full: dict
    smoke: dict
    # (size, seed, workers) -> child arguments after the run/setup mode
    args: Callable[[dict, int, int], list[str]]
    # size -> path-steps integrated: paths x 2^L, summed over every level
    path_steps: Callable[[dict], int]
    # size -> number of paths the summary must report
    paths: Callable[[dict], int]
    # integrations per path: 2 where a coupled pair solves each path twice
    solves: int


def _simulate_args(size, seed, workers):
    return [
        "cli", "simulate", "--level", str(size["level"]), "--band-n", "4",
        "--horizon", "1", "--ensemble", str(size["paths"]), "--seed", str(seed),
        "--workers", str(workers), "--out", "out",
    ]


def _couple_args(size, seed, workers):
    return [
        "cli", "couple", "--perturbation", f"resolution:{size['level']},{size['level_fine']}",
        "--level", str(size["level"]), "--band-n", "8", "--horizon", "7.62939453125e-06",
        "--ensemble", str(size["paths"]), "--seed", str(seed),
        "--workers", str(workers), "--out", "out",
    ]


def _bounds_args(size, seed, workers):
    return [
        "cli", "bounds", "--band-n", "4", "--level", str(size["level"]), "--initial-y", "1",
        "--ensemble", str(size["paths"]), "--seed", str(seed),
        "--workers", str(workers), "--out", "out",
    ]


def _pair_args(size, seed, workers):
    return [
        "pair", str(seed), str(size["pairs"]), str(size["level"]), str(size["level_fine"]), "8",
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_trace",
            workers=1,
            full={"level": 12, "paths": 2048},
            smoke={"level": 8, "paths": 16},
            args=_simulate_args,
            path_steps=lambda s: s["paths"] * 2 ** s["level"],
            paths=lambda s: s["paths"],
            solves=1,
        ),
        Workload(
            name="couple_split18",
            workers=1,
            full={"level": 12, "level_fine": 18, "paths": 256},
            smoke={"level": 6, "level_fine": 9, "paths": 8},
            args=_couple_args,
            path_steps=lambda s: s["paths"] * (2 ** s["level"] + 2 ** s["level_fine"]),
            paths=lambda s: s["paths"],
            solves=2,
        ),
        Workload(
            name="bounds_cases",
            workers=MAX_WORKERS,
            full={"level": 14, "paths": 2048},
            smoke={"level": 8, "paths": 16},
            args=_bounds_args,
            path_steps=lambda s: s["paths"] * 2 ** s["level"],
            paths=lambda s: s["paths"],
            solves=1,
        ),
        Workload(
            name="pair_solve",
            workers=1,
            full={"level": 10, "level_fine": 14, "pairs": 48},
            smoke={"level": 6, "level_fine": 8, "pairs": 3},
            args=_pair_args,
            path_steps=lambda s: s["pairs"] * (2 ** s["level"] + 2 ** s["level_fine"]),
            paths=lambda s: s["pairs"],
            solves=2,
        ),
    )
}
