"""Reproducible Brownian paths on dyadic grids with bridge refinement.

A path is identified by (seed, horizon, level): level L covers [0, T]
with 2^L equal cells and one Gaussian increment of variance T * 2^-L per
cell.  All levels of one seed form a single consistent family,

    generate(seed, T, L + 1) == refine(generate(seed, T, L))  (bitwise)

so solvers running at different resolutions consume the same underlying
Brownian motion.

Randomness is counter-based: the midpoint displacements added at
refinement level j come from a Philox stream keyed by (seed, j), mapped
to uniforms by the documented rule u = ((word >> 11) + 0.5) * 2**-53 and
to Gaussians by the inverse normal CDF (scipy.special.ndtri).  No global
RNG state is touched, and generation or refinement of distinct paths and
levels may run in any order, including in parallel.

Refinement splits each parent increment p into children (l, r) with
l = p/2 + xi, xi ~ N(0, var(p)/4) and r = p - l, then nudges the pair by
at most two ulps each so that the rounded sum l + r reproduces p bitwise
whenever a representable split exists.  It always does when |xi| <~ |p|;
in the remaining cancellation cells no exact split exists in binary64
and the nearest pair is kept, leaving the reconstruction within half an
ulp *of the children's own scale* (sub-ulp of the per-cell increment
deviation, invisible at the path level).  `coarsen` reconstructs coarser
levels by the matching pairwise tree reduction.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
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

# Cells (paths x steps) of one block of a streamed increment matrix (16 MiB).
_BLOCK_CELLS = 2**21

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MAGIC = b"BPATH1"
_HEADER = struct.Struct("<6sQdI")


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


def _to_gauss(raw: np.ndarray, std: float) -> np.ndarray:
    """Map raw 64-bit words to N(0, std^2) by the documented uniform rule
    u = ((word >> 11) + 1/2) * 2^-53 and the inverse normal CDF."""
    u = (raw >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
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


def _refine_rows(inc, seeds, horizon: float, level: int, cell: int, depth: int, ph) -> np.ndarray:
    """Refine rows of consecutive level-`level` cells `depth` levels down.

    Row i belongs to seeds[i] and its first cell is level-`level` cell
    `cell`.  The displacement of parent cell p at child level j is word p
    of the Philox stream (seed, j), so any aligned run of cells refines on
    its own, bitwise as it would inside the whole row.
    """
    m = len(seeds)
    for j in range(level + 1, level + depth + 1):
        n = inc.shape[1]
        raw = np.empty((m, n), dtype=np.uint64)
        for i, s in enumerate(seeds):
            _rekey(ph, s, j, cell)
            raw[i] = ph.random_raw(n)
        xi = _to_gauss(raw, math.sqrt(horizon * 2.0 ** -(j + 1)))
        del raw
        inc = _split_increments(inc.ravel(), xi.ravel()).reshape(m, 2 * n)
        cell *= 2
    return inc


def _pairwise_sums(rows: np.ndarray, halvings: int) -> np.ndarray:
    """Sum adjacent cells of each row `halvings` times, in the refinement tree's order."""
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
    ph = _fresh_philox()
    raw = np.empty((len(seeds), 1), dtype=np.uint64)
    for i, s in enumerate(seeds):
        _rekey(ph, s, 0)
        raw[i] = ph.random_raw(1)
    return _refine_rows(_to_gauss(raw, math.sqrt(horizon)), seeds, horizon, 0, 0, level, ph)


class _BlockStream:
    """The level-`level` increment rows of `seeds`, produced in aligned time blocks.

    Iterating yields (paths, width) blocks whose concatenation is bitwise
    generate_matrix(seeds, horizon, level), or zero blocks with `zero`.
    The width is the largest power of two with paths * width <=
    _BLOCK_CELLS, capped at 2^level.  A pass draws the level-`top` matrix
    (top = level - log2 width) with generate_matrix and then refines each
    of its cells on its own, so it never holds more than one block and
    that block's split temporaries.  `shape` is the shape of the whole
    matrix, which is never built.

    With `record_level`, a pass also writes the pairwise sums of the
    increments at that level into `recorded`, (paths, 2^record_level),
    bitwise equal to coarsening the whole matrix; a block narrower than
    one recorded cell is summed on across blocks.
    """

    def __init__(self, seeds, horizon: float, level: int, *, zero: bool = False,
                 record_level: int | None = None):
        self.seeds = _matrix_seeds(seeds, horizon, level)
        self.horizon = horizon
        self.level = level
        self.zero = zero
        m = len(self.seeds)
        self.shape = (m, 2**level)
        self.width = min(2**level, 1 << max(0, (_BLOCK_CELLS // m).bit_length() - 1))
        self.record_level = record_level
        self.recorded = None
        if record_level is not None:
            if not 0 <= record_level <= level:
                raise ValueError(f"record_level must lie in [0, {level}], got {record_level}")
            self.recorded = np.empty((m, 2**record_level), dtype=np.float64)

    def __iter__(self):
        m, width = self.shape[0], self.width
        depth = width.bit_length() - 1
        top = self.level - depth
        cells = None if self.zero else generate_matrix(self.seeds, self.horizon, top)
        ph = _fresh_philox()
        stage = None
        if self.recorded is not None:
            # each block is summed down to level `mid`, at most to one cell
            halvings = min(depth, self.level - self.record_level)
            mid = self.level - halvings
            per = width >> halvings
            stage = self.recorded if mid == self.record_level else np.empty((m, 2**mid))

        def block(c):
            if cells is None:
                out = np.zeros((m, width), dtype=np.float64)
            else:
                out = _refine_rows(
                    cells[:, c : c + 1], self.seeds, self.horizon, top, c, depth, ph
                )
            if stage is not None:
                stage[:, c * per : (c + 1) * per] = _pairwise_sums(out, halvings)
            return out

        # Yield the call itself: a local name would keep each block alive
        # in this suspended frame while the consumer works on it.
        for c in range(2**top):
            yield block(c)
        if stage is not None and stage is not self.recorded:
            self.recorded[...] = _pairwise_sums(stage, mid - self.record_level)


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
    _check_level(path.level + 1)
    children = _refine_rows(
        path.increments[None, :], (path.seed,), path.horizon, path.level, 0, 1, _fresh_philox()
    )
    return BrownianPath(path.seed, path.horizon, path.level + 1, children[0])


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
    out = path
    while out.level < level:
        out = refine(out)
    return out


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
