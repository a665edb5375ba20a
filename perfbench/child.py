"""Child process of the chainsde benchmark.

    python3 perfbench/child.py run|setup cli <chainsde arguments...>
    python3 perfbench/child.py run|setup pair <seed> <pairs> <level_a> <level_b> <band_n>
    python3 perfbench/child.py check <request.json>

`run` executes one workload in the current directory.  `setup` does the
same imports and configuration and stops before the first noise draw;
its lifetime is the set-up time.  `cli` runs the chainsde command line;
`pair` calls coupling.coupled_solve on a loop of seeds and writes the
trajectories to trajectories.bin.  `check` runs the checks and counts
that must not be timed, and prints them as JSON.

With PERFBENCH_TRACE_DIR set, a `run` records spans (see tracer.py).
"""

from __future__ import annotations

import json
import os
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer  # noqa: E402

# Module level, so that a pool worker started by spawn or forkserver,
# which imports this file as __mp_main__, records spans as well.
RECORDER = (
    tracer.install(os.environ[tracer.TRACE_ENV]) if os.environ.get(tracer.TRACE_ENV) else None
)

# seed u64, then per trajectory (a, b): stop code i8, stop index i64, rows u32
_PAIR_HEAD = struct.Struct("<Q")
_TRAJ_HEAD = struct.Struct("<bqI")


def _cli(argv: list[str], setup_only: bool) -> int:
    from chainsde import cli, runner

    if setup_only:
        runner.run = lambda config: 0
    return cli.main(argv)


def _pair_problem(level_a: int, level_b: int, band_n: int):
    from chainsde.core import ChainState, SystemParams
    from chainsde.coupling import ResolutionSplit
    from chainsde.integrator import SolveConfig
    from chainsde.stopping import StoppingBand

    params = SystemParams(0.9, 3, ChainState(0.0, (0.0, 1.0, 0.0)))
    cfg = SolveConfig(level=level_a, band_n=band_n, max_time=StoppingBand(band_n).t0n)
    return params, cfg, ResolutionSplit(level_a, level_b)


def _pair(argv: list[str], setup_only: bool) -> int:
    from chainsde.coupling import coupled_solve
    from chainsde.noise import path_seed

    seed, pairs, level_a, level_b, band_n = (int(a) for a in argv)
    params, cfg, pert = _pair_problem(level_a, level_b, band_n)
    if setup_only:
        return 0
    with open("trajectories.bin", "wb") as fh:
        for i in range(pairs):
            s = path_seed(seed, i)
            run = coupled_solve(params, s, pert, cfg)
            fh.write(_PAIR_HEAD.pack(s))
            for traj in (run.traj_a, run.traj_b):
                fh.write(_TRAJ_HEAD.pack(int(traj.stop), traj.stop_index, len(traj)))
                fh.write(traj.coords.tobytes())
    return 0


def _read_pairs(path: str):
    import numpy as np

    data = Path(path).read_bytes()
    pos, out = 0, []
    while pos < len(data):
        (seed,) = _PAIR_HEAD.unpack_from(data, pos)
        pos += _PAIR_HEAD.size
        trajs = []
        for _ in range(2):
            stop, stop_index, rows = _TRAJ_HEAD.unpack_from(data, pos)
            pos += _TRAJ_HEAD.size
            coords = np.frombuffer(data, dtype=np.float64, count=rows * 3, offset=pos)
            pos += 8 * rows * 3
            trajs.append((stop, stop_index, coords.reshape(rows, 3)))
        out.append((seed, trajs))
    return out


def _lockstep_mismatches(request: dict) -> int:
    """Pairs whose coupled_solve trajectories differ from the lockstep rows.

    The fine trajectory is compared with the matching solve_ensemble row.
    The coarse one is compared with integrate_block on the coarsened fine
    increments, which coupled_solve integrates; solve_ensemble at the
    coarse level draws its own increments, and those differ wherever a
    bridge cell was left unrepaired.
    """
    import numpy as np
    from dataclasses import replace

    from chainsde.integrator import integrate_block, solve_ensemble
    from chainsde.noise import BrownianPath, coarsen, generate_matrix

    level_a, level_b, band_n = request["levels"]
    params, cfg, _ = _pair_problem(level_a, level_b, band_n)
    cfg_b = replace(cfg, level=level_b)
    pairs = _read_pairs(request["file"])
    bad = 0
    for lo in range(0, len(pairs), 256):
        chunk = pairs[lo : lo + 256]
        seeds = [seed for seed, _ in chunk]
        ens_b = solve_ensemble(params, cfg_b, seeds)
        fine = generate_matrix(seeds, cfg.max_time, level_b)
        inc_a = np.stack([
            coarsen(BrownianPath(s, cfg.max_time, level_b, row), level_a).increments
            for s, row in zip(seeds, fine)
        ])
        ens_a = integrate_block(params, cfg, inc_a, seeds=tuple(seeds))
        for i, (_, trajs) in enumerate(chunk):
            for ens, (stop, stop_index, coords) in zip((ens_a, ens_b), trajs):
                same = (
                    stop == int(ens.stop_reasons[i])
                    and stop_index == int(ens.stop_indices[i])
                    and np.array_equal(coords, ens.coords[i, : coords.shape[0]])
                )
                bad += not same
    return bad


def _unrepaired_cells(calls: list) -> int:
    """Children of each generate_matrix call whose rounded pair sum misses
    the level-(L-1) parent drawn for the same seed."""
    from chainsde.noise import generate_matrix

    groups: dict[tuple, list] = {}
    for seeds, horizon, level in calls:
        if level >= 1:
            groups.setdefault((horizon, level), []).extend(seeds)
    total = 0
    for (horizon, level), seeds in groups.items():
        for lo in range(0, len(seeds), 64):
            part = seeds[lo : lo + 64]
            child = generate_matrix(part, horizon, level)
            sums = child[:, 0::2] + child[:, 1::2]
            del child
            total += int((sums != generate_matrix(part, horizon, level - 1)).sum())
    return total


def _check(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    result = {}
    if "pair" in request:
        result["lockstep_mismatches"] = _lockstep_mismatches(request["pair"])
    if "calls" in request:
        result["unrepaired_cells"] = _unrepaired_cells(request["calls"])
    print(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "check":
        return _check(rest[0])
    os.environ[tracer.MAIN_PID_ENV] = str(os.getpid())
    kind, rest = rest[0], rest[1:]
    code = (_cli if kind == "cli" else _pair)(rest, setup_only=mode == "setup")
    if RECORDER is not None:
        RECORDER.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
