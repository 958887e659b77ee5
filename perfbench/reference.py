"""Reference values and acceptance bands behind the benchmark's checks.

All values are for the paper's problem, lam = 10 and ell = 1.

* table2 and the ladder entries with N <= 640 use the published values
  and the bands of the package's acceptance gate (criteria 1-5).
* Ladder entries with N > 640 and the smooth-equidistribution results
  have no published value; they are banded around the values the
  package gave when this benchmark was defined.
* Entries whose error sits at the roundoff floor get an absolute ceiling
  instead of a relative band: reordering floating-point operations moves
  them by up to ~3x (measured against LAPACK's banded solver, a reversed
  elimination order and long-double Thomas), while a wrong answer is
  orders of magnitude larger.
"""

from __future__ import annotations

LAMBDA = 10.0
ELL = 1.0

# --- table2: criterion 5 --------------------------------------------------

TABLE2_N = 20
TABLE2_ALPHAS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 1e2, 1e3, 1e4)
TABLE2_BETAS = (0.125, 0.25, 0.5, 1.0, 2.0)
TABLE2_UNIFORM_ERROR = 0.375e-2

# (alpha, beta) -> (max error, outer iteration count)
SWEEP_REFERENCE = {
    (0.0, 0.125): (0.375e-2, 1), (0.0, 0.25): (0.375e-2, 1), (0.0, 0.5): (0.375e-2, 1),
    (0.0, 1.0): (0.375e-2, 1), (0.0, 2.0): (0.375e-2, 1),
    (0.1, 0.125): (0.330e-2, 6), (0.1, 0.25): (0.288e-2, 7), (0.1, 0.5): (0.206e-2, 8),
    (0.1, 1.0): (0.715e-3, 12), (0.1, 2.0): (0.382e-2, 35),
    (0.5, 0.125): (0.230e-2, 8), (0.5, 0.25): (0.141e-2, 10), (0.5, 0.5): (0.358e-3, 13),
    (0.5, 1.0): (0.150e-2, 22), (0.5, 2.0): (0.135e-1, 92),
    (1.0, 0.125): (0.182e-2, 10), (1.0, 0.25): (0.816e-3, 12), (1.0, 0.5): (0.321e-3, 16),
    (1.0, 1.0): (0.176e-2, 30), (1.0, 2.0): (0.377e-1, 167),
    (2.0, 0.125): (0.142e-2, 10), (2.0, 0.25): (0.423e-3, 15), (2.0, 0.5): (0.483e-3, 22),
    (2.0, 1.0): (0.230e-2, 42), (2.0, 2.0): (0.841e-1, 699),
    (10.0, 0.125): (0.951e-3, 13), (10.0, 0.25): (0.824e-4, 20), (10.0, 0.5): (0.630e-3, 38),
    (10.0, 1.0): (0.750e-2, 123), (10.0, 2.0): (0.227, 73),
    (1e2, 0.125): (0.832e-3, 14), (1e2, 0.25): (0.854e-5, 22), (1e2, 0.5): (0.827e-3, 46),
    (1e2, 1.0): (0.630e-1, 45), (1e2, 2.0): (0.204, 66),
    (1e3, 0.125): (0.820e-3, 14), (1e3, 0.25): (0.132e-5, 22), (1e3, 0.5): (0.113e-2, 46),
    (1e3, 1.0): (0.743e-1, 36), (1e3, 2.0): (0.202, 65),
    (1e4, 0.125): (0.819e-3, 14), (1e4, 0.25): (0.644e-6, 23), (1e4, 0.5): (0.117e-2, 46),
    (1e4, 1.0): (0.754e-1, 37), (1e4, 2.0): (0.202, 64),
}
TABLE2_ERROR_FACTOR = 2.0
TABLE2_ITER_FACTOR = 3.0

# --- ladder: table1 extended to N = 81920 -----------------------------------

LADDER_N = tuple(10 * 2**k for k in range(14))
LADDER_BETAS = (0.0, 0.25, 0.5, 2.0)

# published columns, N = 10 .. 640
_PUBLISHED = {
    0.0: (0.141e-1, 0.375e-2, 0.953e-3, 0.239e-3, 0.599e-4, 0.150e-4, 0.374e-5),
    0.25: (0.146e-4, 0.883e-6, 0.548e-7, 0.342e-8, 0.214e-9, 0.136e-10, 0.836e-12),
    0.5: (0.456e-2, 0.101e-2, 0.220e-3, 0.512e-4, 0.127e-4, 0.317e-5, 0.792e-6),
    2.0: (0.193, 0.137, 0.960e-1, 0.668e-1, 0.463e-1, 0.319e-1, 0.220e-1),
}

# package values, N = 1280 .. 81920
_MEASURED = {
    0.0: (9.355604e-07, 2.338911e-07, 5.847284e-08, 1.460728e-08, 3.654497e-09,
          9.139944e-10, 1.174625e-09),
    0.25: (1.671441e-13, 2.768896e-13, 1.215916e-12, 3.135714e-12, 3.877343e-12,
           3.056588e-11, 4.955325e-11),
    0.5: (1.980187e-07, 4.950368e-08, 1.237582e-08, 3.094162e-09, 7.734207e-10,
          1.934823e-10, 6.609524e-11),
    2.0: (1.508313e-02, 1.031174e-02, 7.021938e-03, 4.759788e-03, 3.208942e-03,
          2.149399e-03, 1.428425e-03),
}

# entries whose error is set by roundoff, not truncation: beta = 1/4 from
# N = 1280, and uniform and beta = 1/2 at N = 81920 (both break their
# second-order trend there)
_FLOOR = {(0.25, n) for n in LADDER_N if n >= 1280} | {(0.0, 81920), (0.5, 81920)}

# relative half-width of the band around a package value
MEASURED_BAND = 0.05
# a roundoff-floor entry may grow to this multiple of its package value ...
FLOOR_FACTOR = 10.0
# ... and never has to be below this absolute ceiling
FLOOR_MIN_CEILING = 1e-11


def floor_ceiling(measured: float) -> float:
    """Absolute error ceiling of an entry at the roundoff floor."""
    return max(FLOOR_FACTOR * measured, FLOOR_MIN_CEILING)


def _published_band(beta: float, n: int, ref: float) -> tuple[float, float]:
    # criteria 1-4: uniform 2%, beta=1/4 5% up to N=160 and factor 2 beyond,
    # beta=1/2 and beta=2 10%
    if beta == 0.0:
        rel = 0.02
    elif beta == 0.25:
        if n >= 320:
            return 0.5 * ref, 2.0 * ref
        rel = 0.05
    else:
        rel = 0.10
    return (1.0 - rel) * ref, (1.0 + rel) * ref


def _ladder_bands() -> dict:
    bands = {}
    for beta in LADDER_BETAS:
        values = _PUBLISHED[beta] + _MEASURED[beta]
        for n, ref in zip(LADDER_N, values):
            if n <= 640:
                bands[(beta, n)] = _published_band(beta, n, ref)
            elif (beta, n) in _FLOOR:
                bands[(beta, n)] = (0.0, floor_ceiling(ref))
            else:
                bands[(beta, n)] = ((1.0 - MEASURED_BAND) * ref, (1.0 + MEASURED_BAND) * ref)
    return bands


# (beta, N) -> (lowest, highest) accepted max error
LADDER_BANDS = _ladder_bands()

# --- smooth_equidist ------------------------------------------------------

SMOOTH_BETAS = (0.25, 0.5)
SMOOTH_N = (640, 2560, 5120)
SMOOTH_TOL = 1e-12
SMOOTH_DEFECT_CEILING = 1e-9
# gap * N^2 to the closed-form grid: the midpoint-rule gap is O(h^2)
# with these constants (stable to 0.2% across N)
SMOOTH_GAP_CONSTANT = {0.25: 0.4390, 0.5: 44.66}
SMOOTH_GAP_BAND = 0.10
# (beta, N) -> max error of the BVP solved on the equidistributed grid;
# beta = 1/4 is at the roundoff floor, beta = 1/2 is truncation-dominated
SMOOTH_ERROR = {
    (0.25, 640): 1.2975e-12, (0.25, 2560): 2.2338e-13, (0.25, 5120): 3.1819e-13,
    (0.5, 640): 7.9230e-07, (0.5, 2560): 4.9504e-08, (0.5, 5120): 1.2376e-08,
}


def smooth_error_band(beta: float, n: int) -> tuple[float, float]:
    ref = SMOOTH_ERROR[(beta, n)]
    if beta == 0.25:
        return 0.0, floor_ceiling(ref)
    return (1.0 - MEASURED_BAND) * ref, (1.0 + MEASURED_BAND) * ref
