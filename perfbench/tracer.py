"""Spans around the package's public functions, and the per-layer metrics
computed from them.

Recording runs in a traced child process: `install` replaces each traced
function, in every loaded `chainsde` module that holds it, by a wrapper
that records a span (name, start, end, parent span, attributes) in
memory.  It also replaces `numpy.random.Philox` by a subclass that counts
the words drawn.  The main process writes its spans when the run ends;
a pool worker writes its spans whenever its outermost span closes, so
the spans of every worker task reach the trace directory.  All clocks
are CLOCK_MONOTONIC (`time.perf_counter_ns` on Linux), so spans of
different processes share one time axis.

`layer_metrics` runs in run.py and needs only the span
files.  A span's self time is its duration minus the durations of its
direct child spans; a layer's self time sums the self times of its
spans.  Values marked "computed" are taken from array sizes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path

TRACE_ENV = "PERFBENCH_TRACE_DIR"
MAIN_PID_ENV = "PERFBENCH_TRACE_MAIN_PID"

# (module, function) of every traced call; the module is the layer.
TARGETS = (
    ("noise", "generate_matrix"),
    ("noise", "generate"),
    ("noise", "at_level"),
    ("integrator", "integrate_block"),
    ("integrator", "solve"),
    ("integrator", "solve_ensemble"),
    ("stopping", "detect_Tn"),
    ("stopping", "classify"),
    ("stopping", "guaranteed_window"),
    ("analysis", "evaluate_case_bounds"),
    ("analysis", "check_case_bounds"),
    ("analysis", "check_apriori_bound"),
    ("coupling", "coupled_solve"),
    ("coupling", "coupled_ensemble"),
    ("coupling", "estimate_divergence"),
    ("runner", "run"),
)

# Names of integrator.StopReason, lower case, in code order.
STOP_REASONS = ("none", "origin_hit", "inner_band", "outer_band", "blowup", "horizon_reached")


# ---------------------------------------------------------------- recording


def _generate_matrix_attrs(bound, result):
    seeds = [int(s) for s in bound["seeds"]]
    level = int(bound["level"])
    return {
        "path_steps": len(seeds) * 2**level,
        "bytes": int(result.nbytes),
        "call": [seeds, float(bound["horizon"]), level],
    }


def _integrate_block_attrs(bound, result):
    paths, steps = result.coords.shape[0], int(bound["increments"].shape[1])
    stops = [0] * len(STOP_REASONS)
    for code in result.stop_reasons.tolist():
        stops[code] += 1
    return {
        "paths": paths,
        "steps": steps,
        "record_bytes": int(result.coords.nbytes),
        "stops": stops,
    }


def _records_attrs(bound, result):
    return {"records": len(result)}


_ATTRS = {
    "noise.generate_matrix": _generate_matrix_attrs,
    "integrator.integrate_block": _integrate_block_attrs,
    "analysis.check_case_bounds": _records_attrs,
    "analysis.check_apriori_bound": _records_attrs,
}


class Recorder:
    """In-memory span buffer of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.missing: list[str] = []
        self._reset()
        main_pid = int(os.environ.get(MAIN_PID_ENV, os.getpid()))
        self.flush_when_idle = os.getpid() != main_pid

    def _reset(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.philox_words = 0
        self._flushes = 0

    def after_fork_in_child(self):
        self._reset()
        self.flush_when_idle = True

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if attrs:
                span[4] = attrs(sig.bind(*args, **kwargs).arguments, result)
            if self.flush_when_idle and not self.stack:
                self.flush()
            return result

        return traced

    def flush(self):
        path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"pid": os.getpid(), "spans": self.spans, "philox_words": self.philox_words,
                 "missing": self.missing},
                fh,
            )
        self._flushes += 1
        self.spans = []
        self.philox_words = 0


def _counting_philox(recorder: Recorder):
    import numpy as np

    # Named Philox: the state setter checks the class name.
    class Philox(np.random.Philox):
        def random_raw(self, size=None, output=True):
            recorder.philox_words += 1 if size is None else int(np.prod(size))
            return super().random_raw(size, output)

    return Philox


def install(out_dir: str) -> Recorder:
    """Trace every function of TARGETS in this process and its forked workers."""
    import importlib
    import sys

    import numpy as np

    importlib.import_module("chainsde")
    recorder = Recorder(out_dir)
    np.random.Philox = _counting_philox(recorder)
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "chainsde"]
    for mod_name, fn_name in TARGETS:
        original = getattr(importlib.import_module(f"chainsde.{mod_name}"), fn_name, None)
        if original is None:
            recorder.missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    return recorder


# ---------------------------------------------------------------- metrics


def load_spans(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]


def generate_matrix_calls(files: list[dict]) -> list:
    """[seeds, horizon, level] of every noise.generate_matrix call."""
    return [
        s[4]["call"] for f in files for s in f["spans"] if s[0] == "noise.generate_matrix"
    ]


def _union_ns(intervals) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_metrics(files: list[dict], spawn_ns: int, exit_ns: int, workers: int) -> dict:
    """Per-layer metrics of one traced child, without noise.unrepaired_cells.

    The child's own set-up ends with its first span.  runner.residual_s is
    the part of its lifetime after set-up during which no layer below the
    runner was busy in any process: orchestration, pickling and writing.
    """
    self_ns: dict[str, int] = {}
    noise_steps = matrix_bytes = philox = records = record_bytes = 0
    vec_ns = vec_steps = scal_ns = scal_steps = 0
    stops = [0] * len(STOP_REASONS)
    layer_intervals = []
    for f in files:
        philox += f["philox_words"]
        spans = f["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, parent, attrs), kids in zip(spans, child_ns):
            own = end - start - kids
            layer = name.split(".")[0]
            self_ns[layer] = self_ns.get(layer, 0) + own
            if layer != "runner":
                layer_intervals.append((start, end))
            if name == "noise.generate_matrix":
                noise_steps += attrs["path_steps"]
                matrix_bytes = max(matrix_bytes, attrs["bytes"])
            elif name == "integrator.integrate_block":
                record_bytes += attrs["record_bytes"]
                stops = [a + b for a, b in zip(stops, attrs["stops"])]
                if attrs["paths"] == 1:
                    scal_ns += own
                    scal_steps += attrs["steps"]
                else:
                    vec_ns += own
                    vec_steps += attrs["paths"] * attrs["steps"]
            elif attrs and "records" in attrs:
                records += attrs["records"]
    first_ns = min(s[1] for f in files for s in f["spans"])
    busy_s = (exit_ns - first_ns) / 1e9
    layer_ns = sum(v for k, v in self_ns.items() if k != "runner")
    out = {
        "noise.self_s": self_ns.get("noise", 0) / 1e9,
        "noise.ns_per_path_step": self_ns.get("noise", 0) / noise_steps if noise_steps else 0.0,
        "noise.philox_words": philox,
        "noise.matrix_bytes": matrix_bytes,
        "integrator.self_s": self_ns.get("integrator", 0) / 1e9,
        "integrator.vector_ns_per_path_step": vec_ns / vec_steps if vec_steps else 0.0,
        "integrator.scalar_ns_per_step": scal_ns / scal_steps if scal_steps else 0.0,
        "integrator.record_bytes": record_bytes,
        "stopping.self_s": self_ns.get("stopping", 0) / 1e9,
        "analysis.self_s": self_ns.get("analysis", 0) / 1e9,
        "analysis.records": records,
        "coupling.self_s": self_ns.get("coupling", 0) / 1e9,
        "runner.residual_s": busy_s - _union_ns(layer_intervals) / 1e9,
        "runner.parallel_efficiency": layer_ns / 1e9 / (workers * busy_s),
    }
    for reason, count in zip(STOP_REASONS, stops):
        out[f"integrator.stop.{reason}"] = count
    return out
