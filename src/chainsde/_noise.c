/* Native passes of the noise refinement in chainsde.noise.

   Both functions repeat the numpy arithmetic of the module's fallback
   path operation for operation, so their results are bitwise equal to
   it.  Build with -ffp-contract=off and without -ffast-math: a fused
   multiply-add or a reassociation would change the bits.

   philox_uniforms: word k of the stream (key, stream) is word k mod 4 of
   Philox4x64-10 (Salmon et al., SC'11) at counter (k / 4 + 1, 0, 0, 0)
   with key (key, stream), which is numpy's Philox convention; it maps to
   the uniform ((word >> 11) + 0.5) * 2^-53.

   split_increments: the bridge split l = p * 0.5 + xi, r = p - l of each
   parent p, with the repair search of the numpy split. */

#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

#ifndef __SIZEOF_INT128__
#error "a 64 x 64 -> 128 bit multiply is needed for Philox4x64"
#endif

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* One tile of the split: TILE_ROWS rows of TILE_CELLS parents.  The
   step-major children of a tile are gathered and then written a step at
   a time, so each write fills a whole cache line (8 doubles) when the
   output starts on a line and has a multiple of 8 rows. */
#define TILE_ROWS 8
#define TILE_CELLS 64

/* One Philox4x64-10 round of the block (a, b, c, d) under key (k0, k1). */
#define PHILOX_ROUND(a, b, c, d, k0, k1)                                \
    do {                                                                \
        unsigned __int128 p0_ = (unsigned __int128)PHILOX_M0 * (a);    \
        unsigned __int128 p1_ = (unsigned __int128)PHILOX_M1 * (c);    \
        (a) = (uint64_t)(p1_ >> 64) ^ (b) ^ (k0);                      \
        (b) = (uint64_t)p1_;                                            \
        (c) = (uint64_t)(p0_ >> 64) ^ (d) ^ (k1);                      \
        (d) = (uint64_t)p0_;                                            \
    } while (0)

/* The Philox4x64-10 blocks at counters (counter, 0, 0, 0) and
   (counter + 1, 0, 0, 0), key (k0, k1): two independent multiply
   chains, which the core overlaps. */
static void philox_pair(uint64_t counter, uint64_t k0, uint64_t k1, uint64_t out[8])
{
    uint64_t a0 = counter, a1 = 0, a2 = 0, a3 = 0;
    uint64_t b0 = counter + 1, b1 = 0, b2 = 0, b3 = 0;
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        PHILOX_ROUND(a0, a1, a2, a3, k0, k1);
        PHILOX_ROUND(b0, b1, b2, b3, k0, k1);
    }
    out[0] = a0;
    out[1] = a1;
    out[2] = a2;
    out[3] = a3;
    out[4] = b0;
    out[5] = b1;
    out[6] = b2;
    out[7] = b3;
}

/* out[i * n + t] = uniform of word offset + t of the stream (keys[i], stream). */
void philox_uniforms(const uint64_t *keys, int64_t m, uint64_t stream, int64_t offset,
                     int64_t n, double *out)
{
    for (int64_t i = 0; i < m; i++) {
        double *row = out + i * n;
        int64_t w = offset, end = offset + n;
        while (w < end) {
            uint64_t words[8];
            philox_pair((uint64_t)(w / 4) + 1, keys[i], stream, words);
            for (int q = (int)(w % 4); q < 8 && w < end; q++, w++)
                row[w - offset] = ((double)(int64_t)(words[q] >> 11) + 0.5) * 0x1p-53;
        }
    }
}

/* nextafter(x, up ? +inf : -inf), one step of the bit pattern for finite
   nonzero x; libm for zeros, infinities and NaN. */
static inline double next_toward(double x, int up)
{
    if (x == 0.0 || !isfinite(x))
        return nextafter(x, up ? INFINITY : -INFINITY);
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    b += (x > 0.0) == up ? 1 : (uint64_t)-1;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* The repair of a cell whose children (*l, *r) miss their parent p: the
   left child steps through +1, -1, +2, -2, +3, -3 ulps, one nextafter
   per candidate and direction, and the first candidate whose pair sums
   to p is kept, with r = p - l. */
static void repair_cell(double p, double *l, double *r)
{
    double up = *l, down = *l;
    for (int k = 0; k < 6; k++) {
        double cand = (k % 2 == 0) ? (up = next_toward(up, 1)) : (down = next_toward(down, 0));
        double r2 = p - cand;
        if (cand + r2 == p) {
            *l = cand;
            *r = r2;
            return;
        }
    }
}

/* Split the row-major (m, n) parents with the row-major (m, n) draws:
   children l = p * 0.5 + xi and r = p - l, repaired where l + r misses
   p and |l| <= 2|p| (other cells have no exact split and keep the plain
   pair).  Child c of row i (c = 2k left, 2k + 1 right of parent k) goes
   to out[i * row_stride + c * col_stride]: row-major with (2n, 1),
   step-major with (1, m).  Row-major children are written in place;
   step-major ones pass through a tile that is then written a step
   (a column of the tile) at a time. */
void split_increments(const double *parent, const double *xi, int64_t m, int64_t n,
                      double *out, int64_t row_stride, int64_t col_stride)
{
    _Alignas(16) double tile[2 * TILE_CELLS][TILE_ROWS];
    int bad[TILE_CELLS];
    int step_major = col_stride > row_stride;
    for (int64_t i0 = 0; i0 < m; i0 += TILE_ROWS) {
        int rows = m - i0 < TILE_ROWS ? (int)(m - i0) : TILE_ROWS;
        for (int64_t k0 = 0; k0 < n; k0 += TILE_CELLS) {
            int cells = n - k0 < TILE_CELLS ? (int)(n - k0) : TILE_CELLS;
            double *dst = out + i0 * row_stride + 2 * k0 * col_stride;
            for (int r = 0; r < rows; r++) {
                const double *p = parent + (i0 + r) * n + k0, *x = xi + (i0 + r) * n + k0;
                double *c = step_major ? &tile[0][r] : dst + r * row_stride;
                int64_t cs = step_major ? TILE_ROWS : col_stride;
                /* plain pairs first, without branches; repairs after */
                int nbad = 0;
                for (int k = 0; k < cells; k++) {
                    double left = p[k] * 0.5;
                    left += x[k];
                    double right = p[k] - left;
                    c[2 * k * cs] = left;
                    c[(2 * k + 1) * cs] = right;
                    bad[nbad] = k;
                    nbad += (left + right != p[k]) & (fabs(left) <= 2.0 * fabs(p[k]));
                }
                for (int b = 0; b < nbad; b++) {
                    int k = bad[b];
                    repair_cell(p[k], &c[2 * k * cs], &c[(2 * k + 1) * cs]);
                }
            }
            if (!step_major)
                continue;
            for (int j = 0; j < 2 * cells; j++) {
                double *col = dst + j * col_stride;
#ifdef __SSE2__
                /* a column of the tile that is one whole cache line goes
                   around the cache: no line is read in only to be
                   overwritten */
                if (row_stride == 1 && rows == TILE_ROWS && ((uintptr_t)col & 63) == 0) {
                    for (int r = 0; r < TILE_ROWS; r += 2)
                        _mm_stream_pd(col + r, _mm_load_pd(&tile[j][r]));
                    continue;
                }
#endif
                for (int r = 0; r < rows; r++)
                    col[r * row_stride] = tile[j][r];
            }
        }
    }
#ifdef __SSE2__
    _mm_sfence();
#endif
}
