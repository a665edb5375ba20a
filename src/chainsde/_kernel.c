/* The lockstep step of chainsde.integrator for two or more paths.

   step_rows repeats integrator._step_rows, the numpy rows step, operation
   for operation, so its results are bitwise equal to it.  The
   coefficient |x|^alpha is exp(alpha * log|x|), in core._abs_pow's
   order, evaluated by numpy's own float64 log and exp loops: bind_loops
   reads them from the ufunc objects, and abs_pow_rows lets the loader
   probe them against core._abs_pow.  Build with -ffp-contract=off and
   without -ffast-math: a fused multiply-add or a reassociation would
   change the bits.  One difference remains, in rows no record carries:
   on a path still noisy on a non-finite state, a NaN plus a NaN keeps
   the sign of the operand the instruction takes first, so a NaN here
   may differ in sign from the numpy rows'.  The integrator holds a path
   from its first non-finite row and overwrites its later records.

   step_rows is called through ctypes, which releases the GIL, so it may
   run while another thread draws the next block of noise.

   Arrays are C-contiguous, one entry per path in each row: a state is
   (d, m) float64, the anchors (ax, ay, at) are (3, m) float64, row i of
   the increments holds step i's increment of every path, and the stop
   indices are m int64. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_2_0_API_VERSION
#include <numpy/ndarraytypes.h>
#include <numpy/ufuncobject.h>

#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

static PyUFuncGenericFunction log_loop, exp_loop;
static void *log_data, *exp_data;

/* The float64 -> float64 loop of the one-input ufunc `obj`. */
static int find_loop(PyObject *obj, PyUFuncGenericFunction *loop, void **data)
{
    PyUFuncObject *u = (PyUFuncObject *)obj;
    if (u->nin != 1 || u->nout != 1)
        return -1;
    for (int i = 0; i < u->ntypes; i++) {
        if (u->types[2 * i] == NPY_DOUBLE && u->types[2 * i + 1] == NPY_DOUBLE
            && u->functions[i] != NULL) {
            *loop = u->functions[i];
            *data = u->data == NULL ? NULL : u->data[i];
            return 0;
        }
    }
    return -1;
}

/* Take the float64 loops of numpy.log and numpy.exp: 0 on success,
   else -1 with the loops bound before left as they were. */
int bind_loops(PyObject *log_ufunc, PyObject *exp_ufunc)
{
    PyUFuncGenericFunction lg, ex;
    void *lg_data, *ex_data;
    if (find_loop(log_ufunc, &lg, &lg_data) || find_loop(exp_ufunc, &ex, &ex_data))
        return -1;
    log_loop = lg;
    log_data = lg_data;
    exp_loop = ex;
    exp_data = ex_data;
    return 0;
}

/* out[p] = exp(alpha * log|x[p]|) for p < m, as core._abs_pow: fabs,
   numpy's log loop, one multiply, numpy's exp loop. */
static void abs_pow(const double *x, int64_t m, double alpha, double *out)
{
    npy_intp dim = (npy_intp)m, steps[2] = {sizeof(double), sizeof(double)};
    char *args[2] = {(char *)out, (char *)out};
    for (int64_t p = 0; p < m; p++)
        out[p] = fabs(x[p]);
    log_loop(args, &dim, steps, log_data);
    for (int64_t p = 0; p < m; p++)
        out[p] = alpha * out[p];
    exp_loop(args, &dim, steps, exp_data);
}

/* abs_pow for the load-time probe. */
void abs_pow_rows(const double *x, int64_t m, double alpha, double *out)
{
    abs_pow(x, m, alpha, out);
    feclearexcept(FE_ALL_EXCEPT);
}

/* Advance m paths of order d over n steps, the first of them to grid
   index j0, from `state` and `anchors`, which are only read.  Step i
   writes its state to stacked + i*d*m; the anchors are copied to
   end_anchors and move there, so it holds them after the last step.  A
   path's noise is off past its stop index: it takes dlast = 0.0 at grid
   index j > stop_idx[p].  With `exact` a path's drift rows are the exact
   flow from its anchor over t - at, with t = j * h, and its anchor moves
   to the new state iff its dlast != 0; otherwise forward Euler over h.
   `coef` holds m doubles of scratch. */
void step_rows(int64_t m, int64_t d, int64_t n, const double *inc, int64_t j0, double h,
               double alpha, int exact, const int64_t *stop_idx, const double *state,
               const double *anchors, double *stacked, double *end_anchors, double *coef)
{
    const double *s = state;
    double *a = end_anchors;
    memcpy(a, anchors, 3 * m * sizeof(double));
    for (int64_t i = 0; i < n; i++) {
        const double *dB = inc + i * m;
        double *o = stacked + i * d * m;
        int64_t j = j0 + i;
        double t = (double)j * h;
        abs_pow(s, m, alpha, coef);
        for (int64_t p = 0; p < m; p++) {
            double dlast = j > stop_idx[p] ? 0.0 : coef[p] * dB[p];
            double x = s[p], y = s[m + p];
            if (d == 3) {
                double z = s[2 * m + p];
                if (exact) {
                    double dt = t - a[2 * m + p];
                    x = a[p] + dt * a[m + p] + (0.5 * (dt * dt)) * z;
                    y = a[m + p] + dt * z;
                } else {
                    x = x + h * y;
                    y = y + h * z;
                }
                o[2 * m + p] = z + dlast;
            } else if (exact) {
                double dt = t - a[2 * m + p];
                x = a[p] + dt * a[m + p];
                y = a[m + p] + dlast;
            } else {
                x = x + h * y;
                y = y + dlast;
            }
            o[p] = x;
            o[m + p] = y;
            if (exact && dlast != 0.0) {
                a[p] = x;
                a[m + p] = y;
                a[2 * m + p] = t;
            }
        }
        s = o;
    }
    feclearexcept(FE_ALL_EXCEPT);
}
