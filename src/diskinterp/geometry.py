"""Conformal geometry of the unit disk.

Normalized Mobius transforms and their inverses, the pseudohyperbolic
metric they induce, and the Euclidean realization of one pseudohyperbolic
disk.  Everything here is a pure function; evaluation points may be
scalars or numpy arrays.

Moduli of Mobius factors go through the Schwarz-Pick identity
|1 - conj(w) z|^2 = |z - w|^2 + (1 - |w|^2)(1 - |z|^2) (Garnett, Bounded
Analytic Functions, Ch. I): with D = |z - w|^2 and A the product of the
two 1 - |.|^2 terms, rho(z, w)^2 = D / (D + A) and
log |b_w(z)| = -1/2 log1p(A / D).  Every term is positive, so nothing
cancels once 1 - |.|^2 is right, and :func:`_one_minus_abs2` gets it
right to one rounding with error-free products and sums.  Phases still
come from the Mobius kernel :func:`_mobius_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PointSetError

# Points must stay this far from the unit circle: 1/(1 - |lam|^2) terms
# overflow and 1 - conj(lam)*z cancels catastrophically beyond it.
INTERIOR_GUARD = 1e-9

# Below this modulus the normalization |lam|/lam is numerically meaningless
# and the transform is taken to be the identity-at-zero convention b_0 = id.
_ZERO_POINT_TOL = 1e-14

# Slack allowed on |z| <= 1 checks; exp(1j*theta) lands within one ulp.
_BOUNDARY_SLACK = 1e-12

# A refinement arc (:func:`_refinement_arc`) splits one sample spacing
# into this many steps.
_ARC_STEPS = 64

# Per-entry relative error bounds, in units of eps = np.finfo(float).eps,
# of pseudohyperbolic_distance and of a factor log-modulus
# -1/2 log1p(A / D) (``blaschke._log1p_ratio``), derived in their
# docstrings for points inside the guard band; the 50-digit tests hold
# them down to 1e-15 from the circle and on it.
DISTANCE_ERROR_EPS = 3.0
LOG_FACTOR_ERROR_EPS = 5.0

# Veltkamp's splitter for binary64, 2^27 + 1: c = _SPLIT x, hi = c - (c - x)
# leaves hi and x - hi with 26 bits each, so their products are exact.
_SPLIT = 134217729.0


def check_interior(value: complex) -> complex:
    """Validate a prospective disk point, returning it as a complex scalar.

    Raises PointSetError unless |value| < 1 - INTERIOR_GUARD.
    """
    z = complex(value)
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        raise PointSetError(f"disk point must be finite, got {value!r}")
    if abs(z) >= 1.0 - INTERIOR_GUARD:
        raise PointSetError(
            f"point {z} is not strictly interior (|z| = {abs(z):.17g}, "
            f"guard band {INTERIOR_GUARD:g})"
        )
    return z


def _check_closed_disk(z):
    a = np.asarray(z)
    if np.any(np.abs(a) > 1.0 + _BOUNDARY_SLACK):
        worst = np.max(np.abs(a))
        raise PointSetError(f"evaluation point outside closed disk: |z| = {worst:.17g}")


def _mobius_rows(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """b_lam(z) at [i, j] for every centre lam[i] and point z[j], in one broadcast.

    The package's one Mobius kernel: (conj(lam) / |lam|) (z - lam) /
    (1 - conj(lam) z), in that order, with the convention b_lam(z) = z for
    |lam| below _ZERO_POINT_TOL.  |lam| is ``np.hypot``, the scalar
    ``abs()``; numpy's complex abs differs from it in the last bit or two
    on about a third of points.  Unchecked: callers pass validated points.
    """
    centre = np.asarray(lam, dtype=complex)[:, None]
    zero, _, rotation = _rotation(centre)
    centre = np.where(zero, 0.0, centre)
    return rotation * (z - centre) / (1.0 - np.conj(centre) * z)


def _rotation(lam: np.ndarray):
    """(zero, |lam|, conj(lam) / |lam|): where ``zero`` (|lam| < _ZERO_POINT_TOL), b_lam = id.

    Zero entries get rotation 1 and divide by 1: a subnormal modulus overflows the division.
    """
    modulus = np.hypot(lam.real, lam.imag)
    zero = modulus < _ZERO_POINT_TOL
    return zero, modulus, np.where(zero, 1.0, np.conj(lam) / np.where(zero, 1.0, modulus))


def _mobius_inverse(lam, w):
    """b_lam^-1(w) = (lam / |lam|) (w + |lam|) / (1 + |lam| w), elementwise, broadcasting.

    The inverse of :func:`_mobius_rows`' factor, with its convention: w
    itself where |lam| is below _ZERO_POINT_TOL.  It maps the circle
    |w| = delta onto the rim of D(lam, delta).  Unchecked.
    """
    zero, modulus, rotation = _rotation(np.asarray(lam, dtype=complex))
    modulus = np.where(zero, 0.0, modulus)
    return np.conj(rotation) * (w + modulus) / (1.0 + modulus * w)


def _refinement_arc(theta: float, step: float) -> np.ndarray:
    """Angles theta + step j / _ARC_STEPS for j = -_ARC_STEPS, ..., _ARC_STEPS.

    The arc of one sample spacing ``step`` either side of the sample at
    angle theta, at a resolution of step / _ARC_STEPS; j = 0 is theta
    exactly.  A sampled maximum is refined by evaluating its arc at once.
    """
    return theta + step * np.arange(-_ARC_STEPS, _ARC_STEPS + 1) / _ARC_STEPS


def mobius_transform(lam: complex, z):
    """Normalized Mobius transform b_lam(z) = (|lam|/lam)(z - lam)/(1 - conj(lam) z).

    The normalization factor (|lam|/lam) = conj(lam)/|lam| is unimodular, so
    b_lam is the disk automorphism sending lam to 0, rotated so that the
    factor degenerates to the identity as lam -> 0.  For lam = 0 the
    convention b_0(z) = z applies.

    Nothing in the package calls it, since the package evaluates the
    unchecked ``_mobius_rows`` on points it has already validated; it stays
    as the checked public form of the paper's factor for demos and tests.
    A scalar z is evaluated as an array of one point.

    Parameters
    ----------
    lam : complex
        Strictly interior point (|lam| < 1 - INTERIOR_GUARD).
    z : complex or ndarray
        Evaluation point(s) in the closed disk.

    Returns
    -------
    complex or ndarray, matching the shape of ``z``.
    """
    lam = check_interior(lam)
    _check_closed_disk(z)
    z = np.asarray(z, dtype=complex)
    w = _mobius_rows([lam], z.reshape(-1))[0]
    return complex(w[0]) if z.ndim == 0 else w.reshape(z.shape)


def _two_diff(a, b):
    """(s, t) with s = fl(a - b) and s + t = a - b exactly (Knuth's TwoSum of a and -b)."""
    s = a - b
    v = s - a
    return s, (a - (s - v)) - (b + v)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's product).

    Split by _SPLIT; exact for |a|, |b| < 2^996 and |a b| >= 2^-968 (about
    4e-292), below which e may round in the subnormal range.
    """
    p = a * b
    c, d = _SPLIT * a, _SPLIT * b
    a1, b1 = c - (c - a), d - (d - b)
    a2, b2 = a - a1, b - b1
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _one_minus_abs2(z) -> np.ndarray:
    """1 - |z|^2 for every point of z, to one rounding; z's shape, as floats.

    x^2 and y^2 are split into a float and its exact rounding error by
    Dekker's product, on the interleaved real view of z.  The five terms
    1, x^2, y^2 and the two errors are then added by cascaded TwoSums with
    the larger square first, and the TwoSum errors are added last (Ogita,
    Rump and Oishi's Sum2, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26, 2005).  By their bound for five terms of total size at most
    2, the result lies within u |1 - |z|^2| + 33 u^2 of the exact value,
    u = eps / 2: inside the guard band, where 1 - |z|^2 > 2e-9, that is
    u (1 + 2e-6) relative.  With the larger square first, 1 minus it and
    the next difference are exact near the circle, and on the circle
    itself the error stayed within one rounding too: 4e5 samples, on and
    near the circle and inside it, were all correctly rounded.  Subnormal
    coordinates lose their squares' errors, which lie far below the
    rounding of 1.
    """
    flat = np.ascontiguousarray(z, dtype=complex).reshape(-1)
    v = flat.view(float)
    sq, err = _two_product(v, v)
    swap = sq[1::2] > sq[0::2]
    big, small = np.maximum(sq[0::2], sq[1::2]), np.minimum(sq[0::2], sq[1::2])
    err_big = np.where(swap, err[1::2], err[0::2])
    err_small = np.where(swap, err[0::2], err[1::2])
    s = 1.0 - big
    t1 = (1.0 - s) - big  # Fast2Sum: |1| >= big
    s, t2 = _two_diff(s, small)
    s, t3 = _two_diff(s, err_big)
    s, t4 = _two_diff(s, err_small)
    return (s + ((t1 + t2) + (t3 + t4))).reshape(np.shape(z))


def _d_and_a(zr, zi, wr, wi, gap_z, gap_w, d, a) -> None:
    """Write D = |z - w|^2 into ``d`` and A = (1 - |z|^2)(1 - |w|^2) into ``a``.

    For z = zr + i zi and w = wr + i wi, broadcasting, gap_z and gap_w the
    two 1 - |.|^2; the one place the kernels form D and A.  In the standard
    model (Higham, Accuracy and Stability of Numerical Algorithms, Ch.
    2-4), u = eps / 2, with each gap within u, A carries at most 3u
    relative and D at most 4u.
    """
    np.subtract(zr, wr, out=d)
    np.multiply(d, d, out=d)
    np.subtract(zi, wi, out=a)
    np.multiply(a, a, out=a)
    np.add(d, a, out=d)  # D
    np.multiply(gap_z, gap_w, out=a)  # A


def pseudohyperbolic_distance(z, w, gap_z=None, gap_w=None):
    """Pseudohyperbolic distance |b_w(z)| = |z - w| / |1 - conj(w) z|, broadcasting.

    Computed as sqrt(D / (D + A)) from :func:`_d_and_a`, with 1 - |z|^2 and
    1 - |w|^2 taken by :func:`_one_minus_abs2` or passed as ``gap_z`` and
    ``gap_w`` by a caller that holds them (they must broadcast as z and w
    do).  D and A take one buffer each of the broadcast shape, and the rest
    is done in place.  Symmetric exactly, zero iff z = w, and in [0, 1) for
    interior arguments; a scalar pair gives a numpy scalar.

    Error: with D and A as :func:`_d_and_a` bounds them, D + A carries at
    most 5u, the quotient 10u and the root 6u: DISTANCE_ERROR_EPS = 3 eps
    per entry, to first order.
    """
    z, w = np.asarray(z), np.asarray(w)
    if gap_z is None:
        gap_z = _one_minus_abs2(z)
    if gap_w is None:
        gap_w = _one_minus_abs2(w)
    shape = np.broadcast(z, w).shape
    d, a = np.empty(shape), np.empty(shape)
    _d_and_a(z.real, z.imag, w.real, w.imag, gap_z, gap_w, d, a)
    np.add(d, a, out=a)  # D + A = |1 - conj(w) z|^2
    np.divide(d, a, out=d)
    np.sqrt(d, out=d)
    return d if d.ndim else d[()]


@dataclass(frozen=True)
class PseudoDisk:
    """Euclidean realization of the pseudohyperbolic disk D(lam, delta).

    The sublevel set {z : |b_lam(z)| < delta} is an ordinary Euclidean disk
    with shifted center; this holds its Euclidean center and radius.
    """

    euclid_center: complex
    euclid_radius: float

    def contains(self, z) -> np.ndarray | bool:
        """Membership via the Euclidean realization: |z - center| < radius."""
        return np.abs(np.asarray(z) - self.euclid_center) < self.euclid_radius


def pseudo_disk_euclidean(lam: complex, delta: float) -> PseudoDisk:
    """Euclidean center and radius of D(lam, delta) = {z : |b_lam(z)| < delta}.

    center = lam (1 - delta^2) / (1 - delta^2 |lam|^2)
    radius = delta (1 - |lam|^2) / (1 - delta^2 |lam|^2)

    The defining property |b_lam(z)| = delta on the returned circle is the
    contract; the closed forms are checked against it in the test suite
    rather than trusted.  A bad lam raises PointSetError and a delta
    outside (0, 1) ValueError.
    """
    lam = check_interior(lam)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    denom = 1.0 - delta * delta * abs(lam) ** 2
    return PseudoDisk(euclid_center=complex(lam * (1.0 - delta * delta) / denom),
                      euclid_radius=float(delta * (1.0 - abs(lam) ** 2) / denom))


def sample_pseudo_circle(lam: complex, delta: float, m: int) -> np.ndarray:
    """m points on the boundary circle of D(lam, delta), equally spaced in angle.

    Each sample z satisfies |b_lam(z)| = delta to about 1e-10; the first
    sample sits at Euclidean angle 0 from the Euclidean center and the rest
    follow counterclockwise.
    """
    if m < 1:
        raise ValueError(f"need at least one sample point, got m = {m}")
    disk = pseudo_disk_euclidean(lam, delta)
    circle = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    return disk.euclid_center + disk.euclid_radius * circle
