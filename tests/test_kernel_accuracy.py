"""The disk kernels against 50-digit values, entry by entry.

``geometry._one_minus_abs2``, ``pseudohyperbolic_distance``, the
log-factor kernel (``blaschke._log_table``) and the exclusion rims' factor
logs state relative error bounds per entry.  Every entry is held to its
bound against mpmath at 50 digits, evaluated on the same floats: near the
unit circle, well inside it, at a zero centre and on the circle itself.
"""

import numpy as np
import pytest

from diskinterp import (PointSequence, blaschke, exclusion_grid, generate_separated_random,
                        geometry, hoffman, separation_constant)

mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
CTX = mpmath.MPContext()
CTX.dps = 50


def near_circle(rng, size):
    """1 - |z| log-uniform in [1e-15, 1e-1], uniform angles."""
    return (1.0 - 10.0 ** rng.uniform(-15, -1, size)) * np.exp(2j * np.pi * rng.random(size))


def inside(rng, size):
    """Moduli below 0.9, uniform in the disk of that radius."""
    return 0.9 * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))


def on_circle(rng, size):
    """exp(i theta) as floats, which lie within an ulp or so of the circle."""
    return np.exp(2j * np.pi * rng.random(size))


def zero(rng, size):
    return np.zeros(size, dtype=complex)


BANDS = {
    "near-near": (near_circle, near_circle),
    "inside-inside": (inside, inside),
    "zero-near": (zero, near_circle),
    "zero-inside": (zero, inside),
    "zero-circle": (zero, on_circle),
    "near-circle": (near_circle, on_circle),
    "inside-circle": (inside, on_circle),
    "inside-near": (inside, near_circle),
}


def reference(lam, z):
    """rho = |z - lam| / |1 - conj(lam) z| and log rho at 50 digits, per pair."""
    rho, log_rho = [], []
    for a, w in zip(lam.tolist(), z.tolist()):
        a, w = CTX.mpc(a), CTX.mpc(w)
        r = abs(w - a) / abs(1 - CTX.conj(a) * w)
        rho.append(r)
        log_rho.append(CTX.log(r))
    return rho, log_rho


def relative_errors(got, want):
    return np.array([float(abs((CTX.mpf(g) - w) / w)) for g, w in zip(got.tolist(), want)])


@pytest.mark.parametrize("band", sorted(BANDS))
def test_kernels_within_their_stated_bounds(band):
    rng = np.random.default_rng(sorted(BANDS).index(band))
    centres, points = BANDS[band]
    lam, z = centres(rng, 400), points(rng, 400)
    rho, log_rho = reference(lam, z)
    got_rho = geometry.pseudohyperbolic_distance(z, lam)
    got_log = np.array([blaschke.log_factors(lam[k:k + 1], z[k:k + 1])[0, 0]
                        for k in range(lam.size)])
    assert relative_errors(got_rho, rho).max() <= geometry.DISTANCE_ERROR_EPS * EPS
    assert relative_errors(got_log, log_rho).max() <= geometry.LOG_FACTOR_ERROR_EPS * EPS


@pytest.mark.parametrize("band", ["near", "inside", "circle"])
def test_one_minus_abs2_is_one_rounding(band):
    rng = np.random.default_rng(7)
    z = {"near": near_circle, "inside": inside, "circle": on_circle}[band](rng, 2000)
    got = geometry._one_minus_abs2(z)
    for g, w in zip(got.tolist(), z.tolist()):
        x, y = CTX.mpf(w.real), CTX.mpf(w.imag)
        exact = 1 - x * x - y * y  # the squares are exact, each difference rounds at 50 digits
        assert abs(CTX.mpf(g) - exact) <= EPS / 2 * abs(exact)


def test_table_meets_the_bound():
    # A whole table of near-circle centres and points, in one broadcast.
    rng = np.random.default_rng(11)
    lam, z = near_circle(rng, 12), near_circle(rng, 40)
    table = blaschke.log_factors(lam, z)
    for i in range(lam.size):
        _, want = reference(np.full(z.size, lam[i]), z)
        assert relative_errors(table[i], want).max() <= geometry.LOG_FACTOR_ERROR_EPS * EPS


# Per-entry relative error bound, in eps, of a rim factor log in the
# exclusion grid's table against its value at the exact rim point, the
# image of delta e^(i theta) for the sample's float theta.  The kernel adds
# LOG_FACTOR_ERROR_EPS on exact inputs; the rounding of the centres
# a = b_lam(mu) and of the circle points w adds to that, amplified by
# |a| / |w - a|, which is at most 2 for delta <= sep / 2.  The largest error
# read on the inputs below is 8.6 eps; a worst-case first-order count of the
# operations gives about 50.
RIM_LOG_ERROR_EPS = 12.0


def near_boundary_sequence(seed):
    """12 points with 1 - |lam| log-uniform in [1e-9, 1e-2], uniform angles."""
    rng = np.random.default_rng(seed)
    return PointSequence((1.0 - 10.0 ** rng.uniform(-9, -2, 12))
                         * np.exp(2j * np.pi * rng.random(12)))


RIM_INPUTS = (
    [pytest.param(near_boundary_sequence(seed), 0.5, id=f"near-boundary-{seed}")
     for seed in (1, 2, 3)]
    + [pytest.param(generate_separated_random(n, 0.1, 1), None, id=f"chain-{n}")
       for n in (8, 10, 12, 14, 17, 20, 24, 32)]
)


@pytest.mark.parametrize("seq, delta", RIM_INPUTS)
def test_rim_logs_within_their_stated_bound(seq, delta):
    # Every factor at every eighth Mobius angle of each rim, 16 per rim.
    delta = separation_constant(seq) / 2 if delta is None else delta
    grid = exclusion_grid(seq, delta)
    m = hoffman._RIM_SAMPLES
    columns = np.flatnonzero(np.rint(grid.theta * m / (2 * np.pi)) % 8 == 0)
    centres = [CTX.mpc(lam) for lam in seq.points.tolist()]
    d = CTX.mpf(delta)
    worst = 0.0
    for c in columns.tolist():
        lam, rim = centres[grid.rim[c]], int(grid.rim[c])
        theta = CTX.mpf(float(grid.theta[c]))
        w = d * CTX.mpc(CTX.cos(theta), CTX.sin(theta))
        r = abs(lam)
        z = w if r == 0 else (lam / r) * (w + r) / (1 + r * w)
        for k, mu in enumerate(centres):
            want = CTX.log(d) if k == rim else CTX.log(abs(z - mu) / abs(1 - CTX.conj(mu) * z))
            worst = max(worst, float(abs((CTX.mpf(float(grid.factors[k, c])) - want) / want)))
    assert columns.size == 16 * len(seq)
    assert worst <= RIM_LOG_ERROR_EPS * EPS
