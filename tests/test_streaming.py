"""Time-block streaming of the noise and the lockstep kernel.

The block stream must reproduce generate_matrix bit for bit at every
block width, and solves that walk it must not depend on the width.
"""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chainsde import integrator, noise
from chainsde.core import ChainState, SystemParams
from chainsde.coupling import (
    InitJitter,
    ResolutionSplit,
    SchemeSplit,
    _coupled_pair,
    coupled_ensemble,
)
from chainsde.integrator import SolveConfig, StopReason, integrate_block, solve_ensemble
from chainsde.noise import (
    _BlockStream,
    _fresh_philox,
    _pairwise_sums,
    _rekey,
    generate_matrix,
    path_seed,
)

SEEDS = tuple(path_seed(71, i) for i in range(5))


def params_at(coords, alpha=0.9):
    return SystemParams(alpha, len(coords), ChainState(0.0, coords))


def set_width(monkeypatch, paths, width):
    monkeypatch.setattr(noise, "_BLOCK_CELLS", paths * width)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockStream:
    @pytest.mark.parametrize("offset", range(10))
    def test_rekey_offset_reads_on_from_that_word(self, offset):
        ph = _fresh_philox()
        _rekey(ph, SEEDS[0], 3)
        whole = ph.random_raw(offset + 7)
        _rekey(ph, SEEDS[0], 3, offset)
        assert np.array_equal(ph.random_raw(7), whole[offset:])

    @pytest.mark.parametrize("level", [0, 3, 9])
    @pytest.mark.parametrize("width", [1, 2, 4, 8, 2**9, 2**11])
    def test_blocks_concatenate_to_generate_matrix(self, monkeypatch, level, width):
        # widths 1 and 2 refine from cells whose Philox offsets are not
        # multiples of four; 2^11 exceeds every row and is capped
        set_width(monkeypatch, len(SEEDS), width)
        stream = _BlockStream(SEEDS, 0.7, level)
        assert stream.width == min(width, 2**level)
        assert stream.shape == (len(SEEDS), 2**level)
        blocks = list(stream)
        assert all(b.shape == (len(SEEDS), stream.width) for b in blocks)
        if noise._lib is not None and stream.width > 1:
            # step-major, so the lockstep kernel takes them without a copy
            assert all(b.T.flags.c_contiguous for b in blocks)
        full = generate_matrix(SEEDS, 0.7, level)
        assert np.array_equal(bits(np.concatenate(blocks, axis=1)), bits(full))

    @pytest.mark.parametrize("width", [1, 2, 8, 64, 2**9])
    @pytest.mark.parametrize("record_level", [0, 4, 7, 9])
    def test_recorded_sums_match_coarsened_matrix(self, monkeypatch, width, record_level):
        set_width(monkeypatch, len(SEEDS), width)
        stream = _BlockStream(SEEDS, 0.7, 9, record_level=record_level)
        for _ in stream:
            pass
        want = _pairwise_sums(generate_matrix(SEEDS, 0.7, 9), 9 - record_level)
        assert np.array_equal(bits(stream.recorded), bits(want))

    @pytest.mark.parametrize("record_level", [4, 9])
    def test_recorded_is_step_major(self, monkeypatch, record_level):
        # the coarse solve of a resolution pair reads it without a copy
        set_width(monkeypatch, len(SEEDS), 64)
        stream = _BlockStream(SEEDS, 0.7, 9, record_level=record_level)
        assert stream.recorded.shape == (len(SEEDS), 2**record_level)
        assert stream.recorded.T.flags.c_contiguous

    @pytest.mark.parametrize("sum_cells", [5, 17, 23, 80])
    @pytest.mark.parametrize("record_level", [0, 4, 7, 9])
    def test_recorded_sums_tile_by_tile(self, monkeypatch, sum_cells, record_level):
        # a 64-step block of 5 paths summed in tiles of 1, 2, 4 and 16 steps
        monkeypatch.setattr(noise, "_SUM_CELLS", sum_cells)
        set_width(monkeypatch, len(SEEDS), 64)
        stream = _BlockStream(SEEDS, 0.7, 9, record_level=record_level)
        for _ in stream:
            pass
        want = _pairwise_sums(generate_matrix(SEEDS, 0.7, 9), 9 - record_level)
        assert np.array_equal(bits(stream.recorded), bits(want))

    def test_zero_stream(self, monkeypatch):
        set_width(monkeypatch, len(SEEDS), 4)
        blocks = list(_BlockStream(SEEDS, 0.7, 5, zero=True))
        assert len(blocks) == 8
        assert all(not b.any() for b in blocks)

    def test_width_budget(self):
        # 2^19 cells a block: 2^11 steps at 256 paths, capped at the row length
        assert _BlockStream(SEEDS[:1] * 256, 1.0, 18).width == 2**11
        assert _BlockStream(SEEDS[:1] * 256, 1.0, 11).width == 2**11
        assert _BlockStream(SEEDS[:1] * 3, 1.0, 24).width == 2**17

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            _BlockStream((), 1.0, 4)
        with pytest.raises(ValueError):
            _BlockStream(SEEDS, 1.0, 4, record_level=5)


@pytest.mark.usefixtures("numpy_backend")
class TestBlockStreamNumpy(TestBlockStream):
    """The same streams on the numpy path."""


class Boom(RuntimeError):
    pass


class TestPrefetch:
    """A pass of two or more blocks draws the next one on a helper thread."""

    def test_producer_shares_the_consumers_errstate(self, monkeypatch):
        seen = []
        refine_rows = noise._refine_rows

        def recorded(*args, **kwargs):
            seen.append((threading.get_ident(), np.geterr()))
            return refine_rows(*args, **kwargs)

        monkeypatch.setattr(noise, "_refine_rows", recorded)
        set_width(monkeypatch, len(SEEDS), 4)
        with np.errstate(over="raise", under="warn"):
            want = np.geterr()
            blocks = list(_BlockStream(SEEDS, 0.7, 6))
        assert len(blocks) == 16
        assert len(seen) == 17  # the top cells, then one call per block
        assert {ident for ident, _ in seen} - {threading.get_ident()}
        assert all(state == want for _, state in seen)

    def test_failed_block_raises_from_the_solve(self, monkeypatch):
        refine_rows = noise._refine_rows

        def fails_at_block_3(inc, seeds, horizon, level, cell, depth, step_major=False):
            if cell == 3:
                raise Boom("block 3")
            return refine_rows(inc, seeds, horizon, level, cell, depth, step_major)

        monkeypatch.setattr(noise, "_refine_rows", fails_at_block_3)
        set_width(monkeypatch, len(SEEDS), 4)
        start = threading.active_count()
        cfg = SolveConfig(level=6, band_n=8, max_time=1.0)
        with pytest.raises(Boom, match="block 3"):
            solve_ensemble(params_at((0.0, 1.0, 0.0)), cfg, SEEDS)
        assert threading.active_count() == start

    def test_failed_kernel_joins_the_thread(self, monkeypatch):
        def fails_after_two_blocks(params, cfg, blocks, *args):
            next(blocks)
            next(blocks)
            raise Boom("kernel")

        monkeypatch.setattr(integrator, "_integrate", fails_after_two_blocks)
        set_width(monkeypatch, len(SEEDS), 4)
        start = threading.active_count()
        cfg = SolveConfig(level=6, band_n=8, max_time=1.0)
        with pytest.raises(Boom, match="kernel") as raised:
            solve_ensemble(params_at((0.0, 1.0, 0.0)), cfg, SEEDS)
        # the traceback keeps the kernel's frame, and the stream, alive
        assert raised.traceback
        assert threading.active_count() == start

    def test_closed_stream_joins_its_thread(self, monkeypatch):
        set_width(monkeypatch, len(SEEDS), 4)
        start = threading.active_count()
        it = iter(_BlockStream(SEEDS, 0.7, 6))
        next(it)
        next(it)
        assert threading.active_count() == start + 1
        it.close()
        assert threading.active_count() == start

    def test_concurrent_passes_keep_their_bits(self, monkeypatch):
        # four passes at once, each with its helper thread, switching often:
        # every block and every recorded sum must keep its bits
        set_width(monkeypatch, len(SEEDS), 8)
        full = generate_matrix(SEEDS, 0.7, 9)
        results = {}

        def walk(i):
            stream = _BlockStream(SEEDS, 0.7, 9, record_level=4)
            results[i] = (np.concatenate(list(stream), axis=1), stream.recorded)

        threads = [threading.Thread(target=walk, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for blocks, recorded in results.values():
            assert np.array_equal(bits(blocks), bits(full))
            assert np.array_equal(bits(recorded), bits(_pairwise_sums(full, 5)))

    @pytest.mark.parametrize("zero", [False, True])
    def test_one_block_pass_starts_no_thread(self, monkeypatch, zero):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block pass made a thread pool")

        monkeypatch.setattr(noise, "ThreadPoolExecutor", no_pool)
        stream = _BlockStream(SEEDS, 0.7, 6, zero=zero)
        assert stream.width == 2**6
        blocks = list(stream)
        assert len(blocks) == 1


@pytest.mark.usefixtures("numpy_backend")
class TestPrefetchNumpy(TestPrefetch):
    """The same passes on the numpy noise path."""


def assert_same_ensemble(a, b):
    assert np.array_equal(a.stop_reasons, b.stop_reasons)
    assert np.array_equal(a.stop_indices, b.stop_indices)
    assert np.array_equal(bits(a.coords), bits(b.coords))


class TestWidthIndependence:
    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("stride", [1, 16])
    def test_solve_ensemble(self, monkeypatch, zero_noise, stride):
        par = params_at((0.0, 0.3, 0.0))
        cfg = SolveConfig(level=9, band_n=2, max_time=4.0, continue_after_stop=True,
                          zero_noise=zero_noise)
        seeds = [path_seed(29, i) for i in range(8)]
        default = solve_ensemble(par, cfg, seeds, record_stride=stride)
        # the materialised matrix is the one-block case
        inc = np.zeros((8, 2**9)) if zero_noise else generate_matrix(seeds, 4.0, 9)
        assert_same_ensemble(default, integrate_block(par, cfg, inc, record_stride=stride))
        for width in (1, 4, 32):
            set_width(monkeypatch, len(seeds), width)
            assert_same_ensemble(default, solve_ensemble(par, cfg, seeds, record_stride=stride))

    def test_single_path_solve(self, monkeypatch):
        cases = [
            (params_at((0.0, 1.0, 0.0)), SolveConfig(level=8, band_n=6, max_time=1.0), 1, (8,)),
            # an outer band stop at step 198, then the drift runs on noiselessly
            (params_at((0.0, 2.0, 0.0)),
             SolveConfig(level=8, band_n=2, max_time=4.0, continue_after_stop=True), 16,
             (1, 4, 32)),
        ]
        for par, cfg, stride, widths in cases:
            monkeypatch.undo()
            default = solve_ensemble(par, cfg, [SEEDS[0]], record_stride=stride)
            for width in widths:
                set_width(monkeypatch, 1, width)
                assert_same_ensemble(
                    default, solve_ensemble(par, cfg, [SEEDS[0]], record_stride=stride)
                )
        assert default.stop_reason(0) is StopReason.OUTER_BAND
        assert 0 < default.stop_indices[0] < 2**8

    @pytest.mark.parametrize(
        "pert, zero_noise",
        [
            # a 4-step block is narrower than one level-6 cell (16 steps)
            (ResolutionSplit(6, 10), False),
            (ResolutionSplit(10, 6), False),
            (InitJitter(1e-4), False),
            (ResolutionSplit(6, 10), True),
            (SchemeSplit(), False),
        ],
    )
    def test_coupled_ensemble(self, monkeypatch, pert, zero_noise):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=6, band_n=8, max_time=0.25, zero_noise=zero_noise)
        seeds = [path_seed(43, i) for i in range(6)]
        default = coupled_ensemble(par, seeds, pert, cfg, max_trace_points=33)
        for width in (1, 4, 64):
            set_width(monkeypatch, len(seeds), width)
            runs = coupled_ensemble(par, seeds, pert, cfg, max_trace_points=33)
            for a, b in zip(default, runs, strict=True):
                assert np.array_equal(bits(a.divergence), bits(b.divergence))
        if zero_noise:
            assert all(not run.sq_diff.any() for run in default)

    def test_resolution_pair_with_every_fine_path_held_early(self, monkeypatch):
        # The fine side holds every path by t = 2.86 of 8, while coarse
        # paths run on to t = 3.75: the fine solve must still walk the
        # whole stream, whose blocks it sums into the coarse increments.
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=9, band_n=1, max_time=8.0)
        seeds = [path_seed(43, i) for i in range(6)]
        set_width(monkeypatch, len(seeds), 8)
        coarse, fine, _, _ = _coupled_pair(par, seeds, ResolutionSplit(6, 9), cfg)
        assert fine.stop_reasons.tolist() == [StopReason.OUTER_BAND] * 6
        assert fine.stop_indices.max() * fine.step < 3.0 < coarse.stop_indices.max() * coarse.step
        want = integrate_block(
            par, replace(cfg, level=6), _pairwise_sums(generate_matrix(seeds, 8.0, 9), 3),
            initial_coords=np.tile(par.initial.coords, (6, 1)),
        )
        assert_same_ensemble(coarse, want)


@pytest.mark.usefixtures("numpy_rows")
class TestWidthIndependenceNumpyRows(TestWidthIndependence):
    """The same solves with two or more paths stepped on numpy rows."""


def test_memory_does_not_grow_with_level(monkeypatch):
    # The block width is pinned to the level-13 row length, so level 13
    # is one block and level 16 eight; the default width would make the
    # level-16 blocks twice as wide as the whole level-13 matrix.
    # A jitter pair runs both solves at one level: neither may hold the
    # whole increment matrix.
    par = params_at((0.0, 1.0, 0.0))
    seeds = [path_seed(2, i) for i in range(64)]
    set_width(monkeypatch, len(seeds), 2**13)
    solves = {
        "solve_ensemble": lambda cfg: solve_ensemble(par, cfg, seeds, record_stride=2**10),
        "jitter coupled_ensemble": lambda cfg: coupled_ensemble(
            par, seeds, InitJitter(1e-4), cfg, max_trace_points=65
        ),
    }
    for name, run in solves.items():
        peaks = {}
        for level in (13, 16):
            cfg = SolveConfig(level=level, band_n=8, max_time=1.0)
            tracemalloc.start()
            try:
                run(cfg)
                peaks[level] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] < 2 * peaks[13], (name, peaks)


def test_coarse_solve_reads_recorded_without_copy():
    # the coarse side of a resolution pair integrates `recorded` (2 MiB
    # here) as it is: a step-major copy would double what it holds
    par = params_at((0.0, 1.0, 0.0))
    seeds = [path_seed(4, i) for i in range(64)]
    stream = _BlockStream(seeds, 1.0, 13, record_level=12)
    for _ in stream:
        pass
    cfg = SolveConfig(level=12, band_n=8, max_time=1.0)
    tracemalloc.start()
    try:
        ens = integrate_block(par, cfg, stream.recorded, record_stride=2**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.recorded.nbytes == 2**21
    assert peak < stream.recorded.nbytes // 4, peak
    assert ens.coords.shape == (64, 17, 3)
