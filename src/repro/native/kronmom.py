"""The Nelder–Mead kernel behind KronMom's refinement stage.

:meth:`repro.kronecker.kronmom.KronMomEstimator._refine_stage` polishes
the best grid point with several Nelder–Mead restarts on the closed-form
moment objective.  The float oracle there (``kronmom._nelder_mead`` on
``kronmom``'s float objective) makes about a thousand interpreted
objective evaluations per fit, so the search is the fifth family of the
``repro.native`` kernels: every restart's simplex, the branch logic and
the objective in C, next to the pure-Python oracle that lives with its
caller.

**The step protocol.**  numpy's SIMD ``power`` loop and libm ``pow``
disagree in the last bit for a few percent of inputs, and the oracle
takes the raw cubes ``a³, b³, c³`` from ``np.power``.  So the kernel never
cubes anything itself.  Each call of ``repro_kronmom_step``

1. evaluates the points it asked for on the previous call, reading their
   cubes from ``cubes``;
2. advances every unfinished restart to its next needed evaluation — 4
   points for the initial simplex, 3 for a shrink, otherwise 1;
3. writes those points, clamped to the unit box, to ``points``;

and returns how many restarts are still running.  The caller fills
``cubes`` with one ``np.power(points, 3, out=cubes)`` between calls; that
loop gives every element the bits a 3-element call gives it.

**The arithmetic contract.**  The objective is ``kronmom``'s float
objective written out: the same clamp (Python ``min``/``max``, so NaN
passes through and ``-0.0`` stays ``-0.0`` at the box edge), the same
expression order for each closed form, both distances and all four
normalisations, the ``_NORM_FLOOR`` denominator floor and the 1e3 box
penalty.  Every ``**`` of the oracle other than the cubes is Python's
``float ** int``, which calls libm ``pow``; the kernel calls the same
``pow`` through a volatile pointer, so gcc cannot fold ``pow(x, 2.0)``
into ``x*x``.  The Nelder–Mead steps copy scipy 1.17 (and the oracle):
the same initial simplex, ``xbar`` sums, coefficients, branch order and
termination test.  Built with ``-ffp-contract=off``, every value rounds
as in the oracle.

**Ties.**  Where a restart's vertex values hold a tie or a NaN, the
oracle reorders with ``np.argsort``, whose tie order the kernel does not
reproduce.  The kernel stops that restart and marks it ``FLAGGED``; the
caller reruns that one start with the oracle.

The equivalence suite (``tests/kronecker/test_kronmom_equivalence.py``)
pins ``fit_statistics`` on this kernel to the oracle over every
distance × normalisation, feature subsets, k = 1..64, grid and restart
variants, noisy and floored observations, and a forced tie.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Sequence

import numpy as np

from repro.native.registry import NativeKernel, buffer_addresses

__all__ = ["KRONMOM_KERNEL", "refine_restarts"]

# Integer codes the kernel reads from ``config``, by the names KronMom uses.
DISTANCE_CODES = {"squared": 0, "absolute": 1}
NORMALIZATION_CODES = {
    "observed": 0,
    "observed_squared": 1,
    "expected": 2,
    "expected_squared": 3,
}
FEATURE_CODES = {"edges": 0, "hairpins": 1, "tripins": 2, "triangles": 3}

# Doubles of one restart's state (``restart_t`` below), and the phase of
# a restart the kernel handed back to the oracle (its FLAGGED).
STATE_DOUBLES = 35
FLAGGED = 8

_C_SOURCE = """\
#include <math.h>
#include <stdint.h>

/* libm pow through a volatile pointer: gcc may not fold pow(x, 2.0) into
   x*x, which can differ from the pow call Python's float ** int makes. */
static double (*volatile libm_pow)(double, double) = pow;

enum { INIT, SIMPLEX, REFLECT, EXPAND, CONTRACT_OUT, CONTRACT_IN, SHRINK,
       DONE, FLAGGED };

typedef struct {
    double sim[4][3];    /* vertices, ascending fsim once sorted */
    double fsim[4];
    double trial[4][3];  /* raw points awaiting evaluation */
    double xbar[3];
    double xr[3];
    double fxr;
} restart_t;

_Static_assert(sizeof(restart_t) == 35 * sizeof(double), "state layout");

typedef struct {
    double k;
    int64_t distance, normalization, maxiter, n_features;
    const int64_t *features;
    const double *observed;
    double xatol, fatol;
} problem_t;

/* Python's min(max(x, 0.0), 1.0): NaN and -0.0 pass through. */
static double clamp(double x)
{
    double v = x;
    if (0.0 > v) v = 0.0;
    if (1.0 < v) v = 1.0;
    return v;
}

static double feature(int64_t code, double a, double b, double c,
                      const double *cube, double k)
{
    double a3 = cube[0], b3 = cube[1], c3 = cube[2];
    if (code == 0) {
        return 0.5 * (libm_pow(a + 2.0 * b + c, k) - libm_pow(a + c, k));
    }
    if (code == 1) {
        double a2 = a * a, b2 = b * b, c2 = c * c;
        double term_pairs = libm_pow(
            libm_pow(a + b, 2.0) + libm_pow(b + c, 2.0), k);
        double term_center = libm_pow(a * (a + b) + c * (b + c), k);
        double term_square = libm_pow(a2 + 2.0 * b2 + c2, k);
        double term_diag = libm_pow(a2 + c2, k);
        return 0.5 * (term_pairs - 2.0 * term_center - term_square
                      + 2.0 * term_diag);
    }
    if (code == 2) {
        double diagonal = a3 + c3;
        double side = b * (a * a + c * c);
        double b2_ac = b * b * (a + c);
        double cube_rows = libm_pow(
            libm_pow(a + b, 3.0) + libm_pow(b + c, 3.0), k);
        double center_hit = libm_pow(
            a * libm_pow(a + b, 2.0) + c * libm_pow(b + c, 2.0), k);
        double pair_mixed = libm_pow(diagonal + side + b2_ac + 2.0 * b3, k);
        double all_three = libm_pow(a3 + 2.0 * b3 + c3, k);
        double two_match_sq = libm_pow(diagonal + b2_ac, k);
        double two_match_lin = libm_pow(diagonal + side, k);
        double diag_only = libm_pow(diagonal, k);
        return (cube_rows - 3.0 * center_hit - 3.0 * pair_mixed
                + 2.0 * all_three + 3.0 * two_match_sq
                + 6.0 * two_match_lin - 6.0 * diag_only) / 6.0;
    }
    {
        double b2 = b * b;
        double closed = libm_pow(a3 + 3.0 * b2 * (a + c) + c3, k);
        double one_repeat = libm_pow(a * (a * a + b2) + c * (b2 + c * c), k);
        double all_equal = libm_pow(a3 + c3, k);
        return (closed - 3.0 * one_repeat + 2.0 * all_equal) / 6.0;
    }
}

static double objective(const problem_t *p, const double *x,
                        const double *cube)
{
    double a = clamp(x[0]), b = clamp(x[1]), c = clamp(x[2]);
    double penalty = fabs(x[0] - a) + fabs(x[1] - b) + fabs(x[2] - c);
    double total = 0.0;
    for (int64_t i = 0; i < p->n_features; i++) {
        double obs = p->observed[i];
        double expected = feature(p->features[i], a, b, c, cube, p->k);
        double residual = obs - expected;
        double dist = p->distance == 0 ? residual * residual : fabs(residual);
        double norm;
        switch (p->normalization) {
            case 0: norm = obs; break;
            case 1: norm = obs * obs; break;
            case 2: norm = expected; break;
            default: norm = expected * expected; break;
        }
        double denom = fabs(norm);
        if (1e-12 > denom) denom = 1e-12;  /* Python max(|norm|, floor) */
        total += dist / denom;
    }
    return total + penalty * 1e3;
}

/* Sort the vertices by fsim; 0 if a tie or a NaN leaves the order to
   np.argsort (the caller reruns the restart with the oracle). */
static int order(restart_t *s)
{
    for (int i = 0; i < 4; i++) {
        if (isnan(s->fsim[i])) return 0;
        for (int j = i + 1; j < 4; j++) {
            if (s->fsim[i] == s->fsim[j]) return 0;
        }
    }
    for (int i = 1; i < 4; i++) {
        double f = s->fsim[i];
        double v[3] = {s->sim[i][0], s->sim[i][1], s->sim[i][2]};
        int j = i - 1;
        while (j >= 0 && s->fsim[j] > f) {
            s->fsim[j + 1] = s->fsim[j];
            for (int d = 0; d < 3; d++) s->sim[j + 1][d] = s->sim[j][d];
            j--;
        }
        s->fsim[j + 1] = f;
        for (int d = 0; d < 3; d++) s->sim[j + 1][d] = v[d];
    }
    return 1;
}

static void emit(const restart_t *s, int count, double *points)
{
    for (int i = 0; i < count; i++) {
        for (int d = 0; d < 3; d++) points[3 * i + d] = clamp(s->trial[i][d]);
    }
}

static void replace_worst(restart_t *s, const double *x, double f)
{
    for (int d = 0; d < 3; d++) s->sim[3][d] = x[d];
    s->fsim[3] = f;
}

/* Consume the pending evaluations of one restart and run it to its next
   request (or to its end); the status pair is (phase, iterations). */
static void advance(const problem_t *p, restart_t *s, int64_t *status,
                    const double *cubes, double *points)
{
    int64_t phase = status[0];
    int shrink = 0;
    if (phase == INIT) {
        for (int i = 0; i < 4; i++) {
            for (int d = 0; d < 3; d++) s->trial[i][d] = s->sim[0][d];
        }
        for (int d = 0; d < 3; d++) {
            double y = s->trial[d + 1][d];
            s->trial[d + 1][d] = y != 0 ? (1.0 + 0.05) * y : 0.00025;
        }
        emit(s, 4, points);
        status[0] = SIMPLEX;
        return;
    }
    double f = objective(p, s->trial[0], cubes);
    switch (phase) {
        case SIMPLEX:
            for (int i = 0; i < 4; i++) {
                s->fsim[i] = i ? objective(p, s->trial[i], cubes + 3 * i) : f;
                for (int d = 0; d < 3; d++) s->sim[i][d] = s->trial[i][d];
            }
            if (!order(s)) {
                status[0] = FLAGGED;
                return;
            }
            status[1] = 1;
            break;
        case REFLECT:
            s->fxr = f;
            for (int d = 0; d < 3; d++) s->xr[d] = s->trial[0][d];
            if (f < s->fsim[0]) {
                for (int d = 0; d < 3; d++) {
                    s->trial[0][d] = (1.0 + 2.0) * s->xbar[d] - 2.0 * s->sim[3][d];
                }
                emit(s, 1, points);
                status[0] = EXPAND;
                return;
            }
            if (f < s->fsim[2]) {
                replace_worst(s, s->xr, f);
            } else if (f < s->fsim[3]) {
                for (int d = 0; d < 3; d++) {
                    s->trial[0][d] = (1.0 + 0.5) * s->xbar[d] - 0.5 * s->sim[3][d];
                }
                emit(s, 1, points);
                status[0] = CONTRACT_OUT;
                return;
            } else {
                for (int d = 0; d < 3; d++) {
                    s->trial[0][d] = (1.0 - 0.5) * s->xbar[d] + 0.5 * s->sim[3][d];
                }
                emit(s, 1, points);
                status[0] = CONTRACT_IN;
                return;
            }
            break;
        case EXPAND:
            if (f < s->fxr) replace_worst(s, s->trial[0], f);
            else replace_worst(s, s->xr, s->fxr);
            break;
        case CONTRACT_OUT:
            if (f <= s->fxr) replace_worst(s, s->trial[0], f);
            else shrink = 1;
            break;
        case CONTRACT_IN:
            if (f < s->fsim[3]) replace_worst(s, s->trial[0], f);
            else shrink = 1;
            break;
        case SHRINK:
            for (int i = 1; i < 4; i++) {
                s->fsim[i] = i > 1 ? objective(p, s->trial[i - 1], cubes + 3 * (i - 1)) : f;
                for (int d = 0; d < 3; d++) s->sim[i][d] = s->trial[i - 1][d];
            }
            break;
    }
    if (shrink) {
        for (int i = 1; i < 4; i++) {
            for (int d = 0; d < 3; d++) {
                double b = s->sim[0][d];
                s->trial[i - 1][d] = b + 0.5 * (s->sim[i][d] - b);
            }
        }
        emit(s, 3, points);
        status[0] = SHRINK;
        return;
    }
    if (phase != SIMPLEX) {
        status[1] += 1;
        if (!order(s)) {
            status[0] = FLAGGED;
            return;
        }
    }
    /* The loop head: stop, or start the next iteration by reflecting. */
    if (status[1] >= p->maxiter) {
        status[0] = DONE;
        return;
    }
    int converged = 1;
    for (int i = 1; i < 4; i++) {
        for (int d = 0; d < 3; d++) {
            if (!(fabs(s->sim[i][d] - s->sim[0][d]) <= p->xatol)) converged = 0;
        }
    }
    for (int i = 1; i < 4; i++) {
        if (!(fabs(s->fsim[0] - s->fsim[i]) <= p->fatol)) converged = 0;
    }
    if (converged) {
        status[0] = DONE;
        return;
    }
    for (int d = 0; d < 3; d++) {
        double total = s->sim[0][d];
        total = total + s->sim[1][d];
        total = total + s->sim[2][d];
        s->xbar[d] = total / 3.0;
        s->trial[0][d] = (1.0 + 1.0) * s->xbar[d] - 1.0 * s->sim[3][d];
    }
    emit(s, 1, points);
    status[0] = REFLECT;
}

/* config = (k, distance, normalization, maxiter, n_features, features...);
   settings = (xatol, fatol, observed...).  state, status (phase,
   iterations), points and cubes hold n_restarts rows each. */
int64_t repro_kronmom_step(
    int64_t n_restarts,
    const int64_t *config,
    const double *settings,
    double *state,
    int64_t *status,
    double *points,
    const double *cubes)
{
    problem_t p = {
        (double)config[0], config[1], config[2], config[3], config[4],
        config + 5, settings + 2, settings[0], settings[1],
    };
    int64_t running = 0;
    for (int64_t r = 0; r < n_restarts; r++) {
        int64_t *st = status + 2 * r;
        if (st[0] == DONE || st[0] == FLAGGED) continue;
        advance(&p, (restart_t *)state + r, st, cubes + 12 * r, points + 12 * r);
        running += st[0] != DONE && st[0] != FLAGGED;
    }
    return running;
}
"""


class _Buffers:
    """One fit's kernel buffers, with their addresses bound once.

    ``step()`` is the kernel call with every argument bound as a raw
    address, checked once by :func:`~repro.native.registry.buffer_addresses`:
    1–2 µs a call, where ``ndpointer`` argument checks on the six arrays
    would make it 28–35 µs (2-vCPU Xeon VM) on each of a fit's few
    hundred steps.
    The arrays live as long as this object, which the caller keeps for
    as long as it calls ``step``.
    """

    def __init__(self, kernel, starts, observed, k, features, distance,
                 normalization, xatol, fatol, maxiter) -> None:
        n = len(starts)
        self.config = np.array(
            [k, DISTANCE_CODES[distance], NORMALIZATION_CODES[normalization],
             maxiter, len(features), *(FEATURE_CODES[f] for f in features)],
            dtype=np.int64,
        )
        self.settings = np.array([xatol, fatol, *observed], dtype=np.float64)
        self.state = np.zeros((n, STATE_DOUBLES), dtype=np.float64)
        self.state[:, 0:3] = starts
        self.status = np.zeros((n, 2), dtype=np.int64)
        self.points = np.zeros((n, 4, 3), dtype=np.float64)
        self.cubes = np.zeros((n, 4, 3), dtype=np.float64)
        self.step = functools.partial(
            kernel, n,
            *buffer_addresses(np.int64, self.config),
            *buffer_addresses(np.float64, self.settings, self.state),
            *buffer_addresses(np.int64, self.status),
            *buffer_addresses(np.float64, self.points, self.cubes),
        )


def refine_restarts(
    kernel: Callable,
    starts: Sequence[Sequence[float]],
    observed: Sequence[float],
    k: int,
    features: Sequence[str],
    distance: str,
    normalization: str,
    *,
    xatol: float,
    fatol: float,
    maxiter: int,
) -> list[tuple[list[float], float] | None]:
    """Run one Nelder–Mead restart per start on the compiled kernel.

    Returns, per start, ``(x, fun)`` as the float oracle would, or
    ``None`` for a restart the kernel flagged (a tie or a NaN among its
    vertex values), which the caller reruns with the oracle.
    """
    buffers = _Buffers(kernel, starts, observed, k, features, distance,
                       normalization, xatol, fatol, maxiter)
    step, points, cubes = buffers.step, buffers.points, buffers.cubes
    while step():
        np.power(points, 3, cubes)  # out= positionally: ~0.4 µs less per step
    results: list[tuple[list[float], float] | None] = []
    for row, (phase, _) in zip(buffers.state, buffers.status.tolist()):
        results.append(None if phase == FLAGGED else (row[0:3].tolist(), float(row[12])))
    return results


def _smoke_test(kernel: Callable) -> None:
    """Step the kernel twice on a hand-checkable instance.

    Edges only at k = 2, where E = ½((a + 2b + c)² − (a + c)²), squared
    distance over the observed normalisation, one restart from
    ``(0.5, 0.25, 0.0)``.  The first call must emit the initial simplex;
    the second evaluates it, sorts it and emits the reflection of the
    worst vertex — vertices, values and reflection each recomputed here
    in Python floats.  Catches a miscompiled or ABI-mismatched kernel, or
    a state-layout mismatch, at probe time.
    """
    start = [0.5, 0.25, 0.0]
    buffers = _Buffers(kernel, [start], [0.3], 2, ["edges"], "squared",
                       "observed", 1e-6, 1e-10, 2000)
    simplex = [list(start) for _ in range(4)]
    simplex[1][0] = (1 + 0.05) * 0.5
    simplex[2][1] = (1 + 0.05) * 0.25
    simplex[3][2] = 0.00025
    running = int(buffers.step())
    if running != 1 or buffers.points[0].tolist() != simplex:
        raise RuntimeError(
            f"kronmom kernel self-check failed: simplex {buffers.points[0].tolist()} "
            f"(expected {simplex})"
        )
    np.power(buffers.points, 3, out=buffers.cubes)

    def value(x):
        a, b, c = x
        residual = 0.3 - 0.5 * ((a + 2 * b + c) ** 2 - (a + c) ** 2)
        return residual * residual / 0.3

    ranked = sorted(simplex, key=value)
    xbar = [(ranked[0][d] + ranked[1][d] + ranked[2][d]) / 3 for d in range(3)]
    reflected = [2 * xbar[d] - ranked[3][d] for d in range(3)]
    running = int(buffers.step())
    got = (buffers.state[0, 0:16].tolist(), buffers.points[0, 0].tolist())
    expected = ([v for vertex in ranked for v in vertex] + sorted(map(value, simplex)),
                reflected)
    if running != 1 or got != expected:
        raise RuntimeError(
            f"kronmom kernel self-check failed: (sorted simplex and values, "
            f"reflection)={got} (expected {expected})"
        )


KRONMOM_KERNEL = NativeKernel(
    name="kronmom",
    reference="numpy",
    c_source=_C_SOURCE,
    c_symbol="repro_kronmom_step",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        ctypes.c_int64,  # n_restarts
        ctypes.c_void_p,  # config (int64: k, codes, maxiter, features)
        ctypes.c_void_p,  # settings (float64: xatol, fatol, observed)
        ctypes.c_void_p,  # state (float64, STATE_DOUBLES per restart)
        ctypes.c_void_p,  # status (int64: phase, iterations per restart)
        ctypes.c_void_p,  # points (float64, 4×3 per restart)
        ctypes.c_void_p,  # cubes (float64, 4×3 per restart)
    ],
    smoke_test=_smoke_test,
)
