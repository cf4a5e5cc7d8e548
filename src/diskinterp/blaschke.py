"""Finite Blaschke products and the sequence invariants built from them.

Factor log-moduli log |b_lam(z)| come from one kernel,
-1/2 log1p(A / D) with D = |z - lam|^2 and A = (1 - |lam|^2)(1 - |z|^2)
(the Schwarz-Pick identity, in ``geometry``), which has no cancellation.
1 - |lam|^2 is taken once per point set and 1 - |z|^2 once per buffer
of evaluation points, both by ``geometry._one_minus_abs2``.
:func:`_log_table` fills phase-free matrices of factor logs, for
:func:`log_factors` and for the exclusion rims of ``hoffman``, in one
broadcast when small and in blocks of rows when not, to the same floats.
:func:`blaschke_log_modulus` adds the kernel's rows into its output one
factor at a time, so it never holds the whole matrix.  Sums over pairs
of sequence points take the logs of the distance matrix the sequence
holds instead, which :class:`PointSequence` sweeps once, by the same
identity, when it checks that its points are distinct.
:func:`blaschke_eval` adds up factor phases too, so it reads the factors
themselves, one table of the Mobius kernel ``geometry._mobius_rows``, and
products of hundreds of factors with moduli near 0 or 1 neither underflow
nor lose the phase.  On top of the product sit the classical invariants
of a point sequence: the separation constant (worst pairwise
pseudohyperbolic distance), the uniform-separation constant
inf_n |B_n(lam_n)| taken over the products B_n that omit one factor, and
the norm-explicit family B_n / B_n(lam_n) solving the one-at-a-point
interpolation problem.  The first two read the distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateSequenceError, PointSetError, ZeroCollisionError
from .geometry import (
    INTERIOR_GUARD,
    _check_closed_disk,
    _mobius_rows,
    _one_minus_abs2,
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

# log |b| tables (see _log_table) are filled in blocks of rows of at most
# this many entries, one block when the table fits, with one block of
# scratch: within 512 KB.
_TABLE_LIMIT = 65536

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

    Validation takes 1 - |lam|^2 of every point once and sweeps the n x n
    pseudohyperbolic distance matrix once, from those, to check that the
    points are distinct.  The sequence keeps both as read-only arrays
    outside repr, the matrix with 1.0 on its diagonal: the separation and
    Carleson constants read the matrix instead of sweeping again, and the
    log-factor kernel reads the gaps instead of recomputing them.
    """

    points: np.ndarray
    label: str | None = None
    _gaps: np.ndarray = field(init=False, repr=False)
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
        gaps = _one_minus_abs2(pts)
        dist = pseudohyperbolic_distance(pts[:, None], pts[None, :], gaps[:, None], gaps[None, :])
        np.fill_diagonal(dist, 1.0)
        j, k = np.unravel_index(int(np.argmin(dist)), dist.shape)
        if dist[j, k] <= DISTINCT_TOL:
            raise PointSetError(
                f"points {min(j, k)} and {max(j, k)} are not distinct "
                f"(pseudohyperbolic distance {dist[j, k]:.3e})"
            )
        for array in (pts, gaps, dist):
            array.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_gaps", gaps)
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


def _log1p_ratio(lam, lam_gap, zr, zi, z_gap, out, scratch):
    """out = log1p(A / D) = -2 log |b_lam(z)| at the points zr + i zi; +inf at a zero.

    One row for a scalar centre lam, or one table for centres broadcast
    against the points; elementwise ufuncs give the same floats either way.
    lam_gap and z_gap are 1 - |lam|^2 and 1 - |z|^2; ``scratch`` is a float
    buffer of out's shape.  The caller holds np.errstate(divide="ignore",
    over="ignore"): at a zero D is 0, and A / D overflows to inf once
    |b| < about 1e-154.

    Error: A carries at most 3u relative (u = eps / 2) and D at most 4u,
    so A / D carries 8u, which log1p does not amplify, since
    r / ((1 + r) log1p(r)) <= 1; with log1p correct to one ulp, each entry
    of -1/2 log1p(A / D) is within LOG_FACTOR_ERROR_EPS = 5 eps of
    log |b_lam(z)|, relative, to first order.  The factor -1/2 is a power
    of two, so the callers apply it after any sum of rows, exactly.
    """
    np.subtract(zr, np.real(lam), out=out)
    np.multiply(out, out, out=out)
    np.subtract(zi, np.imag(lam), out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)  # D = |z - lam|^2
    np.multiply(lam_gap, z_gap, out=scratch)  # A
    np.divide(scratch, out, out=out)
    return np.log1p(out, out=out)


def _log_table(lam, lam_gap, zr, zi, z_gap) -> np.ndarray:
    """log |b_lam(z)| = -1/2 log1p(A / D) (:func:`_log1p_ratio`), rows along lam's first axis.

    lam and its gaps broadcast against the points zr + i zi and theirs.  A
    table of at most _TABLE_LIMIT entries is one broadcast, a larger one
    blocks of rows of at most that many entries, with one block of scratch.
    """
    out = np.empty(np.broadcast_shapes(lam.shape, zr.shape))
    step = max(1, _TABLE_LIMIT * len(out) // max(1, out.size))  # rows per block
    scratch = np.empty_like(out[:step])
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, len(out), step):
            rows = slice(start, start + step)
            block = out[rows]
            _log1p_ratio(lam[rows], lam_gap[rows], zr, zi, z_gap, block, scratch[:len(block)])
    return np.multiply(out, -0.5, out=out)


def log_factors(points: np.ndarray, z) -> np.ndarray:
    """log |b_lam(z)|, one row per lam, one column per (flattened) z; -inf at a zero.

    Each entry is -1/2 log1p(A / D) (:func:`_log_table`), within
    LOG_FACTOR_ERROR_EPS eps of log |b_lam(z)|, relative.  Nothing in the
    package calls it: the tests read factor logs at given points with it.
    """
    lam = np.asarray(points, dtype=complex).reshape(-1)
    z = np.asarray(z, dtype=complex).reshape(-1)
    return _log_table(lam[:, None], _one_minus_abs2(lam)[:, None], z.real, z.imag,
                      _one_minus_abs2(z))


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

    Each chunk takes 1 - |z|^2 once.  The first factor's row of
    log1p(A / D) is written into the output and each later row is added
    to it, and the sum is scaled by -1/2 at the end; a power of two scales
    exactly, so this is numpy's axis-0 sum of :func:`log_factors` bit for
    bit, without the n x _LOG_CHUNK matrix.  Raises ZeroCollisionError if
    an evaluation point collides with a zero: where some factor's A / D
    overflows, which happens once |b| falls below about 1e-154 (D below
    about 1e-308 times A), exact zeros included.
    """
    _check_closed_disk(z)
    flat = np.asarray(z, dtype=complex).reshape(-1)
    out = np.empty(flat.size)
    size = min(flat.size, _LOG_CHUNK)
    row, scratch = np.empty(size), np.empty(size)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, flat.size, _LOG_CHUNK):
            chunk = flat[start:start + _LOG_CHUNK]
            k = chunk.size
            zr, zi, z_gap = chunk.real.copy(), chunk.imag.copy(), _one_minus_abs2(chunk)
            total = out[start:start + k]
            for i, lam in enumerate(seq.points):
                dest = total if i == 0 else row[:k]
                _log1p_ratio(lam, seq._gaps[i], zr, zi, z_gap, dest, scratch[:k])
                if i:
                    np.add(total, dest, out=total)
            # Every row is >= 0, and no 0/0 arises on the closed disk, so the
            # sum is +inf exactly where some row is.
            if np.max(total) == np.inf:
                raise ZeroCollisionError(
                    "evaluation point collides with a zero of the product"
                )
    np.multiply(out, -0.5, out=out)
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
