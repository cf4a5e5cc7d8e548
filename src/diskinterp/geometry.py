"""Conformal geometry of the unit disk.

Normalized Mobius transforms, the pseudohyperbolic metric they induce, and
the Euclidean realization of pseudohyperbolic disks.  Everything here is a
pure function; evaluation points may be scalars or numpy arrays.
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


def _mobius(lam: complex, z):
    """Unchecked normalized Mobius transform; lam scalar, z scalar or array."""
    if abs(lam) < _ZERO_POINT_TOL:
        return z
    return (np.conj(lam) / abs(lam)) * (z - lam) / (1.0 - np.conj(lam) * z)


def mobius_transform(lam: complex, z):
    """Normalized Mobius transform b_lam(z) = (|lam|/lam)(z - lam)/(1 - conj(lam) z).

    The normalization factor (|lam|/lam) = conj(lam)/|lam| is unimodular, so
    b_lam is the disk automorphism sending lam to 0, rotated so that the
    factor degenerates to the identity as lam -> 0.  For lam = 0 the
    convention b_0(z) = z applies.

    Nothing in the package calls it, since the package evaluates the
    unchecked ``_mobius`` on points it has already validated; it stays as
    the checked public form of the paper's factor for demos and tests.

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
    return _mobius(lam, z)


def pseudohyperbolic_distance(z, w):
    """Pseudohyperbolic distance |b_w(z)| = |z - w| / |1 - conj(w) z|.

    Symmetric (exactly, in floating point), zero iff z = w, and valued in
    [0, 1) for interior arguments.  Accepts scalars or broadcastable arrays.
    """
    z = np.asarray(z)
    w = np.asarray(w)
    # Real/imag split keeps the two argument orders bit-identical; a fused
    # complex multiply rounds conj(w)*z and conj(z)*w differently.
    re = 1.0 - (z.real * w.real + z.imag * w.imag)
    im = z.imag * w.real - z.real * w.imag
    return np.abs(z - w) / np.hypot(re, im)


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
    rather than trusted.
    """
    lam = check_interior(lam)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    denom = 1.0 - delta * delta * abs(lam) ** 2
    center = lam * (1.0 - delta * delta) / denom
    radius = delta * (1.0 - abs(lam) ** 2) / denom
    return PseudoDisk(euclid_center=center, euclid_radius=float(radius))


def sample_pseudo_circle(lam: complex, delta: float, m: int) -> np.ndarray:
    """m points on the boundary circle of D(lam, delta), equally spaced in angle.

    Each sample z satisfies |b_lam(z)| = delta to about 1e-10; the first
    sample sits at Euclidean angle 0 from the Euclidean center and the rest
    follow counterclockwise.
    """
    if m < 1:
        raise ValueError(f"need at least one sample point, got m = {m}")
    disk = pseudo_disk_euclidean(lam, delta)
    angles = 2.0 * np.pi * np.arange(m) / m
    return disk.euclid_center + disk.euclid_radius * np.exp(1j * angles)
