"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py [--baseline]

Runs perfbench/run.py once per seed 1-10 on every workload of
BENCHMARK.json, with its run_seconds.  The workloads take turns inside
each seed, so that a drift of the machine's speed over minutes falls on
all of them alike.  For every end-to-end metric it prints the median,
the quartiles and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread is "ok" below a third of the metric's bound, "within bound" up
to the bound, and "WIDE" beyond it; setup_s is exempt.  It also prints
how far each median lies from the one in baseline.json, in the metric's
worse direction, and "SHIFT" where that exceeds the bound.

With --baseline it makes one traced run per workload on seed 1 and
rewrites baseline.json: the medians and quartiles, the per-layer
metrics, the output digests of every seed and the machine facts.  The
detail records of every run are kept in .perfbench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", action="store_true", help="rewrite baseline.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    reference = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {"workloads": {}}

    results: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            results[name].append(_run(name, seed, seconds, 0))
            print(f"seed {seed:2d} {name:15s} wall_s "
                  f"{results[name][-1][0]['metrics']['wall_s']['value']:.4f}", flush=True)

    baseline = {"commit": _commit(), "run_seconds": seconds, "seeds": list(SEEDS),
                "workloads": {}}
    steady = True
    for name in names:
        runs = results[name]
        raw = ROOT / ".perfbench_out" / f"spread-{name}.json"
        raw.parent.mkdir(exist_ok=True)
        raw.write_text(json.dumps([d for _, d in runs], indent=1))
        if not all(r["correct"] and r["failed"] == 0 for r, _ in runs):
            print(f"{name}: a run failed")
            steady = False
        entry = {"end_to_end": {}, "digests": {}}
        before = reference["workloads"].get(name, {}).get("end_to_end", {})
        for metric, m in metrics.items():
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3 or metric == "setup_s"
            steady &= ok
            verdict = "ok" if ok else "within bound" if spread <= m["bound"] else "WIDE"
            line = (f"{name:15s} {metric:17s} median {med:14.6g}  q1 {q1:14.6g}  "
                    f"q3 {q3:14.6g}  spread {spread:7.4f}  bound {m['bound']:.2f}  {verdict}")
            if metric in before:
                ref = before[metric]["median"]
                worse = (med - ref if m["better"] == "lower" else ref - med) / ref
                line += f"  worse than baseline {worse:+.4f}"
                if worse > m["bound"]:
                    line += "  SHIFT"
                    steady = False
            print(line)
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3, "runs": len(values), "unit": m["unit"],
            }
        for seed, (_, detail) in zip(SEEDS, runs):
            entry["digests"][str(seed)] = detail["digests"]
        baseline["machine"] = runs[0][1]["machine"]
        if args.baseline:
            traced, _ = _run(name, SEEDS[0], seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["per_layer_seed"] = SEEDS[0]
        baseline["workloads"][name] = entry
    if args.baseline:
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
