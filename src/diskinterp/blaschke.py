"""Finite Blaschke products and the sequence invariants built from them.

Factor log-moduli log |b_lam(z)| at points off the sequence come from one
private row kernel, which writes a factor's row into reused buffers.
:func:`log_factors` stacks its rows into the phase-free matrix that the
split search sums, and :func:`blaschke_log_modulus` adds them into its
output one factor at a time, so it never holds the whole matrix.  Sums
over pairs of sequence points take the logs of the distance matrix the
sequence holds instead.  :func:`blaschke_eval` adds up factor phases
too, so it reads the factors themselves, one table of the Mobius kernel
``geometry._mobius_rows``, and products of hundreds of factors with
moduli near 0 or 1 neither underflow nor lose the phase.  On
top of the product sit the classical invariants of a point sequence: the
separation constant (worst pairwise pseudohyperbolic distance), the
uniform-separation constant inf_n |B_n(lam_n)| taken over the products
B_n that omit one factor, and the norm-explicit family B_n / B_n(lam_n)
solving the one-at-a-point interpolation problem.  The first two read the
pairwise distance matrix that :class:`PointSequence` sweeps once, when it
checks that its points are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateSequenceError, PointSetError, ZeroCollisionError
from .geometry import (
    INTERIOR_GUARD,
    _ZERO_POINT_TOL,
    _check_closed_disk,
    _mobius_rows,
    check_interior,
    pseudohyperbolic_distance,
)

# Pairwise pseudohyperbolic distances below this are treated as duplicates.
DISTINCT_TOL = 1e-9

# Sequences longer than this are refused outright; every invariant
# here is an O(n^2) pairwise sweep and the CLI report formats assume
# desk-scale inputs.
MAX_POINTS = 512

# |B_n(lam_n)| below this makes the family norms exceed 1e12; refuse.
DEGENERACY_TOL = 1e-12

# A factor log-modulus under this is a collision with a zero of the product.
_LOG_COLLISION = np.log(1e-300)

# Evaluation points per row buffer in blaschke_log_modulus.  On a 256^2
# field grid at n = 32 and 64, smaller buffers pay per-row call overhead
# (512 takes about three times as long), and 8192 to 32768 time alike.
_LOG_CHUNK = 8192

# Points with np.abs at or above this get the scalar check_interior test.
# np.abs and abs() of a complex can differ by an ulp, far below this margin.
_INTERIOR_SCREEN = 1.0 - INTERIOR_GUARD - 1e-12


@dataclass(frozen=True, eq=False)
class PointSequence:
    """Finite ordered set of distinct points strictly inside the unit disk.

    Validation sweeps the n x n pseudohyperbolic distance matrix once to
    check that the points are distinct, and the sequence keeps it, with
    1.0 on the diagonal, as a read-only array outside repr; the separation
    and Carleson constants read it instead of sweeping again.
    """

    points: np.ndarray
    label: str | None = None
    _distances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1)
        if pts.size < 1:
            raise PointSetError("a point sequence needs at least one point")
        if pts.size > MAX_POINTS:
            raise PointSetError(
                f"sequence has {pts.size} points, exceeding the maximum of {MAX_POINTS}"
            )
        # np.abs only screens; check_interior decides, in index order, so
        # the first bad point and its message are those of a scalar loop.
        for i in np.flatnonzero(~(np.abs(pts) < _INTERIOR_SCREEN)):
            try:
                check_interior(pts[i])
            except PointSetError as exc:
                raise PointSetError(f"point {i}: {exc}") from None
        dist = pseudohyperbolic_distance(pts[:, None], pts[None, :])
        np.fill_diagonal(dist, 1.0)
        j, k = np.unravel_index(int(np.argmin(dist)), dist.shape)
        if dist[j, k] <= DISTINCT_TOL:
            raise PointSetError(
                f"points {min(j, k)} and {max(j, k)} are not distinct "
                f"(pseudohyperbolic distance {dist[j, k]:.3e})"
            )
        pts.flags.writeable = False
        dist.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_distances", dist)

    def __len__(self) -> int:
        return self.points.size

    def __iter__(self):
        return iter(self.points)

    def removing(self, n: int) -> "PointSequence":
        """Copy of the sequence with point ``n`` removed."""
        self._check_index(n)
        return PointSequence(np.delete(self.points, n), label=self.label)

    def _check_index(self, n: int) -> None:
        if not 0 <= n < len(self):
            raise IndexError(f"point index {n} out of range for length {len(self)}")


class WeakFamilyMember(NamedTuple):
    """One member of the family phi_n = B_n / B_n(lam_n)."""

    norm: float
    eval: Callable[[complex], complex]


@dataclass(frozen=True)
class AnalysisReport:
    """Invariants of a point sequence, as produced by :func:`analyze`."""

    blaschke_sum: float
    separation_constant: float
    carleson_constant: float
    per_point: tuple[tuple[int, float], ...]


def _log_factor_row(lam: complex, z: np.ndarray, num: np.ndarray, den: np.ndarray,
                    out: np.ndarray) -> None:
    """out = log |b_lam(z)|, -inf at a zero, with the ufuncs of ``_mobius_rows`` in its order.

    ``num`` and ``den`` are complex scratch of z's size; the caller holds
    np.errstate(divide="ignore").
    """
    if abs(lam) < _ZERO_POINT_TOL:
        np.abs(z, out=out)
    else:
        np.subtract(z, lam, out=num)
        np.multiply(np.conj(lam) / abs(lam), num, out=num)
        np.multiply(np.conj(lam), z, out=den)
        np.subtract(1.0, den, out=den)
        np.divide(num, den, out=num)
        np.abs(num, out=out)
    np.log(out, out=out)


def log_factors(points: np.ndarray, z) -> np.ndarray:
    """log |b_lam(z)|, one row per lam, one column per (flattened) z; -inf at a zero."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    rows = np.empty((len(points), z.size))
    num, den = np.empty(z.size, dtype=complex), np.empty(z.size, dtype=complex)
    with np.errstate(divide="ignore"):
        for i, lam in enumerate(points):
            _log_factor_row(lam, z, num, den, rows[i])
    return rows


def _eval_product(points: np.ndarray, z):
    """prod_i b_{points[i]}(z) from the factors' log-moduli and phases, summed in order.

    One ``_mobius_rows`` table; its axis-0 sums add the rows in factor
    order onto 0.0, as a loop over the factors would.  A scalar z is
    evaluated as an array of one point.
    """
    z = np.asarray(z, dtype=complex)
    w = _mobius_rows(points, z.reshape(-1))
    with np.errstate(divide="ignore"):
        log_mod = np.log(np.abs(w)).sum(axis=0, initial=0.0)  # -inf exactly at a zero
    phase = np.angle(w).sum(axis=0, initial=0.0)
    out = np.where(log_mod == -np.inf, 0.0, np.exp(log_mod) * np.exp(1j * phase))
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def blaschke_eval(seq: PointSequence, z):
    """Evaluate B(z) = prod_n b_{lam_n}(z) for |z| <= 1.

    The modulus is accumulated as a sum of log-moduli and the phase as a sum
    of arguments, so |B(z)| is exact to rounding even when individual factors
    are tiny.  Zeros of the product are returned as exact 0.
    """
    _check_closed_disk(z)
    return _eval_product(seq.points, z)


def blaschke_log_modulus(seq: PointSequence, z):
    """log |B(z)| as rows of the one kernel, added in order, _LOG_CHUNK points at a time.

    The first factor's row is written into the output and each later row is
    added to it, which is numpy's axis-0 sum of :func:`log_factors` bit for
    bit, without the n x _LOG_CHUNK matrix.  Raises ZeroCollisionError if any
    factor modulus is below 1e-300, i.e. the evaluation point collides with
    a zero.
    """
    _check_closed_disk(z)
    flat = np.asarray(z, dtype=complex).reshape(-1)
    out = np.empty(flat.size)
    size = min(flat.size, _LOG_CHUNK)
    num, den = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    row = np.empty(size)
    with np.errstate(divide="ignore"):
        for start in range(0, flat.size, _LOG_CHUNK):
            chunk = flat[start:start + _LOG_CHUNK]
            k = chunk.size
            total = out[start:start + k]
            for i, lam in enumerate(seq.points):
                dest = total if i == 0 else row[:k]
                _log_factor_row(lam, chunk, num[:k], den[:k], dest)
                if np.min(dest) < _LOG_COLLISION:
                    raise ZeroCollisionError(
                        "evaluation point collides with a zero of the product"
                    )
                if i:
                    np.add(total, dest, out=total)
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def blaschke_eval_excluding(seq: PointSequence, n: int, z):
    """B_n(z): the product over all factors except the n-th.

    The empty product (singleton sequence) is the constant 1.
    """
    seq._check_index(n)
    _check_closed_disk(z)
    remaining = np.delete(seq.points, n)
    return _eval_product(remaining, z)


def per_point_moduli(seq: PointSequence) -> np.ndarray:
    """|B_n(lam_n)| for every n, each product omitting its own factor.

    Column sums of the logs of the sequence's distance matrix; its unit
    diagonal contributes log 1 = 0, which omits the n-th factor.
    """
    return np.exp(np.log(seq._distances).sum(axis=0))


def carleson_constant(seq: PointSequence) -> float:
    """inf_n |B_n(lam_n)| over the sequence; 1 for a singleton."""
    return float(np.min(per_point_moduli(seq)))


def separation_constant(seq: PointSequence) -> float:
    """Smallest pairwise pseudohyperbolic distance; 1 for a singleton.

    The minimum of the sequence's distance matrix, whose diagonal is 1.
    """
    return float(np.min(seq._distances))


def blaschke_sum(seq: PointSequence) -> float:
    """sum_n (1 - |lam_n|), the divergence diagnostic of the zero set."""
    return float(np.sum(1.0 - np.abs(seq.points)))


def weak_interpolation_family(seq: PointSequence) -> list[WeakFamilyMember]:
    """The family phi_n = B_n / B_n(lam_n) with phi_n(lam_k) = delta_nk.

    Each member carries its sup-norm 1/|B_n(lam_n)| (attained on the
    boundary, where |B_n| = 1) and a callable evaluating phi_n at scalar or
    array arguments.  Raises DegenerateSequenceError when some |B_n(lam_n)|
    is below 1e-12.  Nothing in the package calls it yet: it stays as the
    paper's one-point family, from which an exact zero/one interpolant can
    be corrected, and the tests and demos check it.
    """
    pts = seq.points
    members: list[WeakFamilyMember] = []
    for n in range(pts.size):
        denom = _eval_product(np.delete(pts, n), pts[n])
        if abs(denom) < DEGENERACY_TOL:
            raise DegenerateSequenceError(
                f"|B_n(lam_n)| = {abs(denom):.3e} at index {n}; family norms "
                f"would exceed 1e12"
            )

        def phi(z, n=n, denom=denom):
            return blaschke_eval_excluding(seq, n, z) / denom

        members.append(WeakFamilyMember(norm=1.0 / abs(denom), eval=phi))
    return members


def analyze(seq: PointSequence) -> AnalysisReport:
    """Bundle the sequence invariants into one report."""
    moduli = per_point_moduli(seq)
    return AnalysisReport(
        blaschke_sum=blaschke_sum(seq),
        separation_constant=separation_constant(seq),
        carleson_constant=float(np.min(moduli)),
        per_point=tuple((i, float(m)) for i, m in enumerate(moduli)),
    )
