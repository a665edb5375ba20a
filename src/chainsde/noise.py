"""Reproducible Brownian paths on dyadic grids with bridge refinement.

A path is identified by (seed, horizon, level): level L covers [0, T]
with 2^L equal cells and one Gaussian increment of variance T * 2^-L per
cell.  All levels of one seed form a single consistent family,

    generate(seed, T, L + 1) == refine(generate(seed, T, L))  (bitwise)

so solvers running at different resolutions consume the same underlying
Brownian motion.

Randomness is counter-based: the midpoint displacements added at
refinement level j come from a Philox4x64-10 stream keyed by (seed, j),
mapped to uniforms by the documented rule
u = ((word >> 11) + 0.5) * 2**-53 and to Gaussians by the inverse normal
CDF (scipy.special.ndtri).  No global RNG state is touched, and
generation or refinement of distinct paths and levels may run in any
order, including in parallel.  Solvers that walk an increment matrix in
time order draw it in aligned blocks (`_BlockStream`); a pass of two or
more blocks draws the next block on one helper thread, which only draws,
while the solver sums and steps the current one, so two half-size blocks
are in flight.

Refinement splits each parent increment p into children (l, r) with
l = p/2 + xi, xi ~ N(0, var(p)/4) and r = p - l, then steps the left
child by at most three ulps, recomputing r = p - l each time, so that
the rounded sum l + r reproduces p bitwise whenever a representable
split exists.  It always does when |xi| <~ |p|; in the remaining
cancellation cells no exact split exists in binary64 and the nearest
pair is kept, leaving the reconstruction within half an ulp *of the
children's own scale* (sub-ulp of the per-cell increment deviation,
invisible at the path level).  `coarsen` reconstructs coarser levels by
the matching pairwise tree reduction.

The Philox words and the splits of one level are computed for all seeds
in one call each to a small C library (`_noise.c`), compiled at import
with the C compiler Python was built with and cached in this package's
`__pycache__`.  A C compiler is optional: without one, or if the build
fails, the same arithmetic runs in numpy (`np.random.Philox` in
`_uniforms`, and `_split_increments`), with the same bits but slower.
"""

from __future__ import annotations

import contextvars
import ctypes
import hashlib
import math
import os
import shlex
import struct
import subprocess
import sysconfig
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO

import numpy as np
from scipy.special import ndtri

from .errors import ResourceLimitError

__all__ = [
    "MAX_LEVEL",
    "BrownianPath",
    "generate",
    "refine",
    "coarsen",
    "at_level",
    "value_at",
    "path_seed",
    "save_path",
    "load_path",
    "path_to_bytes",
    "path_from_bytes",
]

# Memory budget: one level-24 path holds 2^24 increments (128 MiB).
MAX_LEVEL = 24

# Cells (paths x steps) of one block of a streamed increment matrix (4 MiB;
# refining it holds about four times that).  A pass of two or more blocks
# holds two: the one being stepped and the one being drawn.
_BLOCK_CELLS = 2**19

# Cells (paths x steps) of a block summed at a time when a stream records
# a coarser level, at least one recorded cell of steps: the temporaries
# of one tile's halvings hold 0.75 times as many doubles (768 KiB).
_SUM_CELLS = 2**17

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MAGIC = b"BPATH1"
_HEADER = struct.Struct("<6sQdI")

_SOURCE = Path(__file__).with_name("_noise.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")


def _build_native(cache: Path, source: Path = _SOURCE, flags: tuple[str, ...] = ()) -> Path:
    """The compiled C `source` in directory `cache`, built first if absent.

    `flags` are added to the shared flags.  The file name is the
    source's stem and a hash of the source, the compiler command and
    flags and the platform, so a library built from other inputs is
    never loaded.  The compiler writes a temporary file that is then
    renamed into place, so concurrent builds leave one whole library; a
    new build removes the other libraries of the same stem in `cache`
    and no others.  Raises OSError when no compiler is configured or
    runs, SubprocessError when the build fails.
    """
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise OSError("Python names no C compiler")
    cmd = [*cc, *_CFLAGS, *flags]
    key = source.read_bytes() + repr((cmd, sysconfig.get_platform())).encode()
    lib = cache / f"{source.stem}-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not lib.exists():
        cache.mkdir(exist_ok=True)
        tmp = cache / f".{lib.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            subprocess.run([*cmd, "-o", str(tmp), str(source), "-lm"], check=True,
                           capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        for stale in cache.glob(f"{source.stem}-*.so"):
            if stale != lib:
                stale.unlink(missing_ok=True)
    return lib


def _load_native(cache: Path) -> ctypes.CDLL | None:
    """The native noise library, or None when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build_native(cache)))
    except (OSError, subprocess.SubprocessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.philox_uniforms.argtypes = [ptr, i64, ctypes.c_uint64, i64, i64, ptr]
    lib.philox_uniforms.restype = None
    lib.split_increments.argtypes = [ptr, ptr, i64, i64, ptr, i64, i64]
    lib.split_increments.restype = None
    return lib


# The native backend, or None for the numpy one; nothing else selects it.
_lib = _load_native(Path(__file__).with_name("__pycache__"))


def _splitmix64(v: int) -> int:
    """SplitMix64 finalizer (Steele, Lea, Flood 2014), the documented mixer."""
    v &= _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return v ^ (v >> 31)


def path_seed(master_seed: int, index: int) -> int:
    """Seed of path `index` in the stream spawned by `master_seed`.

    Defined as splitmix64(master_seed + (index + 1) * golden_gamma), a
    pure function of (master_seed, index) so workers can derive seeds in
    any order.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed must be a 64-bit unsigned integer, got {master_seed}")
    if index < 0:
        raise ValueError(f"path index must be >= 0, got {index}")
    return _splitmix64(master_seed + (index + 1) * _GOLDEN_GAMMA)


def _fresh_philox() -> np.random.Philox:
    return np.random.Philox(key=np.zeros(2, dtype=np.uint64))


def _rekey(ph: np.random.Philox, seed: int, stream: int, offset: int = 0) -> None:
    """Point `ph` at word `offset` of the counter stream keyed (seed, stream).

    Philox yields four words per counter value and advances the counter
    before each group, so words 4c..4c+3 come from counter c + 1: the
    counter is set to offset // 4 and the first offset % 4 words dropped.
    """
    ph.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([offset // 4, 0, 0, 0], dtype=np.uint64),
            "key": np.array([seed, stream], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if offset % 4:
        ph.random_raw(offset % 4)


def _uniforms(seeds, stream: int, offset: int, n: int) -> np.ndarray:
    """(len(seeds), n) uniforms of words offset..offset+n-1 of the Philox
    streams (seed, stream), by the documented rule
    u = ((word >> 11) + 1/2) * 2^-53."""
    m = len(seeds)
    if _lib is not None:
        u = np.empty((m, n), dtype=np.float64)
        keys = np.array(seeds, dtype=np.uint64)
        _lib.philox_uniforms(keys.ctypes.data, m, stream, offset, n, u.ctypes.data)
        return u
    ph = _fresh_philox()
    raw = np.empty((m, n), dtype=np.uint64)
    for i, s in enumerate(seeds):
        _rekey(ph, s, stream, offset)
        raw[i] = ph.random_raw(n)
    u = (raw >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _gaussians(seeds, stream: int, offset: int, n: int, std: float) -> np.ndarray:
    """N(0, std^2) draws of `_uniforms` by the inverse normal CDF."""
    u = _uniforms(seeds, stream, offset, n)
    ndtri(u, out=u)
    u *= std
    return u


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _split_increments(parent: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Interleave bridge children (p/2 + xi, p - (p/2 + xi)) of each parent.

    Cells whose rounded pair sum misses the parent are repaired by a
    deterministic search: the left child steps through nearby
    representable values in the order +1, -1, +2, -2, +3, -3 ulps, with
    the right child recomputed as p - left each time, accepting the first
    pair whose rounded sum equals the parent.  Each direction's candidate
    is one `nextafter` from its previous one, and only cells still
    unresolved are stepped: a resolved cell leaves the search.  Cells
    with |left| > 2|p| are left alone: no representable exact split
    exists there (the cancellation floor in the module docstring) and the
    plain pair is already within half an ulp of the children's scale.
    `xi` is overwritten as scratch.
    """
    out = np.empty(parent.size * 2, dtype=np.float64)
    left = out[0::2]
    right = out[1::2]
    np.multiply(parent, 0.5, out=left)
    left += xi
    np.subtract(parent, left, out=right)
    np.add(left, right, out=xi)
    idx = np.flatnonzero(xi != parent)
    if idx.size:
        idx = idx[np.abs(left[idx]) <= 2.0 * np.abs(parent[idx])]
    if idx.size:
        p = parent[idx]
        up = down = left[idx]
        for k in (1, -1, 2, -2, 3, -3):
            if k > 0:
                up = cand = np.nextafter(up, math.inf)
            else:
                down = cand = np.nextafter(down, -math.inf)
            r2 = p - cand
            ok = (cand + r2) == p
            hit = np.flatnonzero(ok)
            if hit.size:
                pos = idx[hit]
                left[pos] = cand[hit]
                right[pos] = r2[hit]
                if hit.size == idx.size:
                    break
                rest = np.flatnonzero(~ok)
                idx, p, up, down = idx[rest], p[rest], up[rest], down[rest]
    return out


def _check_level(level: int) -> None:
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise ResourceLimitError(
            f"level {level} exceeds the memory budget (MAX_LEVEL = {MAX_LEVEL})"
        )


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """One realization of driving noise as level-L increments over [0, T].

    increments[k] is B(t_{k+1}) - B(t_k) on the grid t_k = k * T * 2^-L.
    Immutable after construction; the increments array is marked
    read-only.
    """

    seed: int
    horizon: float
    level: int
    increments: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        _check_level(self.level)
        inc = np.ascontiguousarray(self.increments, dtype=np.float64)
        if inc.shape != (2**self.level,):
            raise ValueError(
                f"expected {2**self.level} increments for level {self.level}, got {inc.shape}"
            )
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @property
    def step(self) -> float:
        """Grid spacing T * 2^-L."""
        return self.horizon * 2.0**-self.level

    @cached_property
    def _sum_tree(self) -> list[np.ndarray]:
        """_sum_tree[j] holds the 2^j level-j cell sums, pairwise-reduced."""
        tree = [self.increments]
        while tree[-1].size > 1:
            a = tree[-1]
            tree.append(a[0::2] + a[1::2])
        tree.reverse()
        return tree

    def partial_sum(self, k: int) -> float:
        """B at grid index k, summed over maximal aligned dyadic blocks.

        The block decomposition mirrors the refinement tree, which makes
        grid-point values agree bitwise across levels of one family.
        """
        if not 0 <= k <= self.increments.size:
            raise ValueError(f"grid index {k} out of range [0, {self.increments.size}]")
        tree = self._sum_tree
        acc = 0.0
        pos = 0
        for j in range(self.level + 1):
            size = 1 << (self.level - j)
            if pos + size <= k:
                acc += tree[j][pos >> (self.level - j)]
                pos += size
        return acc


def _matrix_seeds(seeds, horizon: float, level: int) -> tuple[int, ...]:
    """Validated (seeds, horizon, level) of an increment matrix; the seeds as a tuple."""
    _check_level(level)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    for s in seeds:
        _check_seed(s)
    return seeds


def _split(parent: np.ndarray, xi: np.ndarray, step_major: bool = False) -> np.ndarray:
    """(m, 2n) bridge children of the (m, n) parents with the draws xi.

    With `step_major` and the native backend the children are the
    transpose of a C-contiguous (2n, m) array, the layout the lockstep
    kernel walks; the values are the same either way.  `xi` may be
    overwritten.
    """
    m, n = parent.shape
    if xi.shape != (m, n):
        raise ValueError(f"draws of shape {xi.shape} for parents of shape {(m, n)}")
    if _lib is None:
        return _split_increments(parent.ravel(), xi.ravel()).reshape(m, 2 * n)
    parent = np.ascontiguousarray(parent, dtype=np.float64)
    xi = np.ascontiguousarray(xi, dtype=np.float64)
    if step_major:
        # on a cache-line boundary, so each step's children fill whole lines
        buf = np.empty(2 * n * m + 7, dtype=np.float64)
        skip = (-buf.ctypes.data % 64) // 8
        out = buf[skip : skip + 2 * n * m].reshape(2 * n, m)
        strides = (1, m)
    else:
        out = np.empty((m, 2 * n), dtype=np.float64)
        strides = (2 * n, 1)
    _lib.split_increments(parent.ctypes.data, xi.ctypes.data, m, n, out.ctypes.data, *strides)
    return out.T if step_major else out


def _refine_rows(inc, seeds, horizon: float, level: int, cell: int, depth: int,
                 step_major: bool = False) -> np.ndarray:
    """Refine rows of consecutive level-`level` cells `depth` levels down.

    Row i belongs to seeds[i] and its first cell is level-`level` cell
    `cell`.  The displacement of parent cell p at child level j is word p
    of the Philox stream (seed, j), so any aligned run of cells refines on
    its own, bitwise as it would inside the whole row.  `step_major`
    asks `_split` for that layout of the last level.
    """
    for j in range(level + 1, level + depth + 1):
        xi = _gaussians(seeds, j, cell, inc.shape[1], math.sqrt(horizon * 2.0 ** -(j + 1)))
        inc = _split(inc, xi, step_major and j == level + depth)
        cell *= 2
    return inc


def _pairwise_sums(rows: np.ndarray, halvings: int) -> np.ndarray:
    """Sum adjacent cells of each row `halvings` times, in the refinement
    tree's order.  With no halvings it is `rows` itself, not a copy, which
    `_BlockStream` publishes as its step-major record."""
    for _ in range(halvings):
        rows = rows[:, 0::2] + rows[:, 1::2]
    return rows


def generate_matrix(seeds, horizon: float, level: int) -> np.ndarray:
    """Increment rows for many seeds at once; row i is bitwise identical
    to generate(seeds[i], horizon, level).increments.

    The per-level Gaussian mapping and bridge splits run on all rows at
    once, which is much faster than per-path generation for ensembles.
    The result and its split temporaries take a few times
    8 * len(seeds) * 2^level bytes; solvers that only walk the matrix in
    time order draw it block by block instead (`_BlockStream`).
    """
    seeds = _matrix_seeds(seeds, horizon, level)
    return _refine_rows(_gaussians(seeds, 0, 0, 1, math.sqrt(horizon)), seeds, horizon, 0, 0, level)


def _block_width(paths: int, level: int) -> int:
    """Steps of one `_BlockStream` block: the largest power of two with
    paths * width <= _BLOCK_CELLS, capped at 2^level."""
    return min(2**level, 1 << max(0, (_BLOCK_CELLS // paths).bit_length() - 1))


class _BlockStream:
    """The level-`level` increment rows of `seeds`, produced in aligned time blocks.

    Iterating yields (paths, width) blocks whose concatenation is bitwise
    generate_matrix(seeds, horizon, level), or zero blocks with `zero`.
    The width is the largest power of two with paths * width <=
    _BLOCK_CELLS, capped at 2^level.  A pass draws the level-`top` matrix
    (top = level - log2 width) with generate_matrix on the calling thread
    and then refines each of its cells on its own.  A one-block pass does
    so on the calling thread too.  A pass of two or more blocks refines
    them in order on one helper thread, made and shut down within the
    pass, which only draws block c + 1 (a function of c alone) while the
    consumer works on block c: it holds at most two blocks and one
    block's split temporaries.  Closing the iterator early joins the
    thread; an exception raised while drawing a block is raised by the
    iterator where that block is due.
    `shape` is the shape of the whole matrix, which is never built.
    Blocks refined by the native backend and zero blocks are laid out
    step-major (see `_split`), so the lockstep kernel reads them without
    a copy.

    With `record_level`, each block is summed down to that level, tile by
    tile on the consumer's thread, as it is taken (a block narrower than
    one recorded cell is summed on across blocks).  A pass sets `recorded`
    to None when it starts and to the sums, (paths, 2^record_level) laid
    out step-major and bitwise equal to coarsening the whole matrix, only
    once its iterator is exhausted: a consumer must walk every block for
    the record to exist, and a pass closed early or failed leaves None.
    """

    def __init__(self, seeds, horizon: float, level: int, *, zero: bool = False,
                 record_level: int | None = None):
        self.seeds = _matrix_seeds(seeds, horizon, level)
        self.horizon = horizon
        self.level = level
        self.zero = zero
        m = len(self.seeds)
        self.shape = (m, 2**level)
        self.width = _block_width(m, level)
        if record_level is not None and not 0 <= record_level <= level:
            raise ValueError(f"record_level must lie in [0, {level}], got {record_level}")
        self.record_level = record_level
        self.recorded = None

    def __iter__(self):
        self.recorded = stage = None
        m, width = self.shape[0], self.width
        depth = width.bit_length() - 1
        top = self.level - depth
        cells = None if self.zero else generate_matrix(self.seeds, self.horizon, top)
        if self.record_level is not None:
            # each block is summed down to level `mid`, at most to one cell,
            # a tile of steps at a time (a power of two, at most _SUM_CELLS
            # cells unless one recorded cell is more) so its halvings stay
            # in cache
            halvings = min(depth, self.level - self.record_level)
            mid = self.level - halvings
            stage = np.empty((2**mid, m)).T
            fit = 1 << max(0, (_SUM_CELLS // m).bit_length() - 1)
            tile = min(width, max(fit, 1 << halvings))

        def block(c):
            if cells is None:
                return np.zeros((width, m), dtype=np.float64).T
            return _refine_rows(
                cells[:, c : c + 1], self.seeds, self.horizon, top, c, depth, step_major=True
            )

        def take(c, out):
            if stage is not None:
                for t in range(0, width, tile):
                    lo = (c * width + t) >> halvings
                    stage[:, lo : lo + (tile >> halvings)] = _pairwise_sums(
                        out[:, t : t + tile], halvings)
            return out

        # Yield the call itself: a local name would keep each block alive
        # in this suspended frame while the consumer works on it.
        n = 2**top
        if n == 1:
            yield take(0, block(0))
        else:
            # One helper thread draws block c + 1 while the consumer sums
            # and steps block c.  Each block runs in a copy of the
            # consumer's context, whose numpy errstate it thereby shares.
            with ThreadPoolExecutor(1) as pool:
                pending = deque()
                for c in range(n):
                    pending.append(pool.submit(contextvars.copy_context().run, block, c))
                    if c:
                        yield take(c - 1, pending.popleft().result())
                yield take(n - 1, pending.popleft().result())
        if stage is not None:
            self.recorded = _pairwise_sums(stage, mid - self.record_level)


def generate(seed: int, horizon: float, level: int) -> BrownianPath:
    """Deterministically build the level-`level` member of the (seed, T) family.

    Constructed by Levy midpoint refinement from the single level-0
    increment, so the result is bitwise identical to refining a coarser
    member of the same family.
    """
    return BrownianPath(seed, horizon, level, generate_matrix((seed,), horizon, level)[0])


def refine(path: BrownianPath) -> BrownianPath:
    """Split every cell of `path` with a Brownian-bridge midpoint.

    The child level's midpoint displacements are keyed by
    (seed, level + 1, cell), so refining equal paths yields equal
    children and the coarse increments are the bitwise pairwise sums of
    the fine ones.
    """
    return at_level(path, path.level + 1)


def coarsen(path: BrownianPath, level: int) -> BrownianPath:
    """Pairwise-sum `path` down to `level` <= path.level (exact inverse of refine)."""
    if not 0 <= level <= path.level:
        raise ValueError(f"coarsen target {level} must lie in [0, {path.level}]")
    return BrownianPath(path.seed, path.horizon, level, path._sum_tree[level].copy())


def at_level(path: BrownianPath, level: int) -> BrownianPath:
    """Member of the path's family at `level`, refining or coarsening as needed."""
    if level == path.level:
        return path
    if level < path.level:
        return coarsen(path, level)
    _check_level(level)
    inc = _refine_rows(path.increments[None, :], (path.seed,), path.horizon, path.level, 0,
                       level - path.level)
    return BrownianPath(path.seed, path.horizon, level, inc[0])


def value_at(path: BrownianPath, t: float) -> float:
    """B(t): exact partial sum at grid points, linear interpolation between.

    B(0) = 0 and B(T) is the sum of all increments.
    """
    if not (0.0 <= t <= path.horizon):
        raise ValueError(f"t = {t} outside [0, {path.horizon}]")
    scaled = t / path.step
    k = min(int(math.floor(scaled)), path.increments.size)
    base = path.partial_sum(k)
    frac = scaled - k
    if frac == 0.0 or k >= path.increments.size:
        return base
    return base + frac * path.increments[k]


def path_to_bytes(path: BrownianPath) -> bytes:
    """Serialize: magic 'BPATH1', seed u64, horizon f64, level u32, then
    the raw little-endian float64 increments."""
    header = _HEADER.pack(_MAGIC, path.seed, path.horizon, path.level)
    return header + path.increments.astype("<f8").tobytes()


def path_from_bytes(data: bytes) -> BrownianPath:
    """Inverse of path_to_bytes; validates magic, level, and payload size."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated path dump: header incomplete")
    magic, seed, horizon, level = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    _check_level(level)
    payload = data[_HEADER.size :]
    expected = 8 * 2**level
    if len(payload) != expected:
        raise ValueError(f"expected {expected} payload bytes for level {level}, got {len(payload)}")
    inc = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return BrownianPath(seed, horizon, level, inc)


def save_path(path: BrownianPath, fh: BinaryIO) -> None:
    fh.write(path_to_bytes(path))


def load_path(fh: BinaryIO) -> BrownianPath:
    return path_from_bytes(fh.read())
