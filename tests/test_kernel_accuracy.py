"""The disk kernels against 50-digit values, entry by entry.

``geometry._one_minus_abs2``, ``pseudohyperbolic_distance`` and
``blaschke.log_factors`` state relative error bounds per entry.  Every
entry is held to its bound against mpmath at 50 digits, evaluated on the
same floats: near the unit circle, well inside it, at a zero centre and on
the circle itself.
"""

import numpy as np
import pytest

from diskinterp import blaschke, geometry

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
