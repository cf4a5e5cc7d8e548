"""Finite Blaschke products and the sequence invariants built from them.

Factor log-moduli log |b_lam(z)| come from one kernel,
-1/2 log1p(A / D) with D = |z - lam|^2 and A = (1 - |lam|^2)(1 - |z|^2)
(the Schwarz-Pick identity, in ``geometry``), which has no cancellation.
1 - |lam|^2 is taken once per point set and 1 - |z|^2 once per buffer
of evaluation points, both by ``geometry._one_minus_abs2``.
:func:`_log1p_ratio` takes D and A to log1p(A / D) for every caller:
:func:`log_factors`, one phase-free broadcast of factor logs; the
exclusion rims of ``hoffman``, whose D is a three-term product per centre;
and :func:`blaschke_log_modulus`, which adds the kernel's rows into its
output one factor at a time, so it never holds the whole matrix.  Sums over pairs
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
    _d_and_a,
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

# Rows per block of PointSequence's distance sweep.  Fastest of 25 x 20
# sweeps, glibc malloc keeping freed memory, on a loaded 2-core x86_64
# virtual machine: 64-row blocks took 1.4-1.8 ms at n = 512 and 0.37-0.47 ms
# at n = 256, against 2.6 and 0.46-0.56 ms for one broadcast, and tied it at
# n = 128 (0.12-0.16 ms); 32 and 128 rows were no faster, 16 rows slower.
_SWEEP_ROWS = 64

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
    points are distinct.  The sweep computes the upper triangle in blocks
    of _SWEEP_ROWS rows, each against the columns from its first row on,
    and mirrors each block into the lower triangle of one n x n matrix;
    the kernel is exactly symmetric, so this is the one-broadcast matrix
    bit for bit.  The sequence keeps both as read-only arrays outside
    repr, the matrix with 1.0 on its diagonal: the Carleson constant reads
    the matrix instead of sweeping again, and the log-factor kernel reads
    the gaps instead of recomputing them.  The distinctness check finds the
    matrix's smallest entry, and the sequence records it as the separation
    (1.0 for a single point), so nothing scans the matrix for it again.
    """

    points: np.ndarray
    label: str | None = None
    _gaps: np.ndarray = field(init=False, repr=False)
    _distances: np.ndarray = field(init=False, repr=False)
    _separation: float = field(init=False, repr=False)

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
        dist = np.empty((pts.size, pts.size))
        for start in range(0, pts.size, _SWEEP_ROWS):
            rows = slice(start, start + _SWEEP_ROWS)
            block = pseudohyperbolic_distance(pts[rows, None], pts[None, start:],
                                              gaps[rows, None], gaps[None, start:])
            dist[rows, start:] = block
            dist[start + len(block):, rows] = block[:, len(block):].T
        np.fill_diagonal(dist, 1.0)
        j, k = np.unravel_index(int(np.argmin(dist)), dist.shape)
        separation = float(dist[j, k])
        if separation <= DISTINCT_TOL:
            raise PointSetError(
                f"points {min(j, k)} and {max(j, k)} are not distinct "
                f"(pseudohyperbolic distance {separation:.3e})"
            )
        for array in (pts, gaps, dist):
            array.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_gaps", gaps)
        object.__setattr__(self, "_distances", dist)
        object.__setattr__(self, "_separation", separation)

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


def _log1p_ratio(d, a):
    """log1p(A / D) = -2 log |b_lam(z)|, in place in ``d``; +inf at a zero.

    ``d`` holds D = |z - lam|^2 and ``a`` A = (1 - |lam|^2)(1 - |z|^2),
    broadcasting against it, for one row of points, one table of centres
    against points, or any other layout: elementwise ufuncs give the same
    floats in each.  The caller holds np.errstate(divide="ignore",
    over="ignore"): at a zero D is 0, and A / D overflows to inf once
    |b| < about 1e-154.

    Error: with D and A as ``geometry._d_and_a`` bounds them (u = eps / 2),
    A / D carries 8u, which log1p does not amplify, since
    r / ((1 + r) log1p(r)) <= 1; with log1p correct to one ulp, each entry
    of -1/2 log1p(A / D) is within LOG_FACTOR_ERROR_EPS = 5 eps of
    log |b_lam(z)|, relative, to first order.  The factor -1/2 is a power
    of two, so the callers apply it after any sum of rows, exactly.
    """
    np.divide(a, d, out=d)
    return np.log1p(d, out=d)


def log_factors(points: np.ndarray, z) -> np.ndarray:
    """log |b_lam(z)|, one row per lam, one column per (flattened) z; -inf at a zero.

    Each entry is -1/2 log1p(A / D) (:func:`_log1p_ratio`), within
    LOG_FACTOR_ERROR_EPS eps of log |b_lam(z)|, relative, in one broadcast.
    Nothing in the package calls it: the tests read factor logs with it.
    """
    lam = np.asarray(points, dtype=complex).reshape(-1, 1)
    z = np.asarray(z, dtype=complex).reshape(-1)
    d, a = np.empty((2, lam.size, z.size))
    _d_and_a(z.real, z.imag, lam.real, lam.imag, _one_minus_abs2(z), _one_minus_abs2(lam), d, a)
    with np.errstate(divide="ignore", over="ignore"):
        return np.multiply(_log1p_ratio(d, a), -0.5, out=d)


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

    Each chunk takes 1 - |z|^2 once.  Every factor's row of log1p(A / D)
    is added in order onto zeros, and the sum is scaled by -1/2 at the
    end.  No row holds -0.0 (``geometry._one_minus_abs2`` never returns
    it), so 0.0 plus a row is the row, and a power of two scales exactly:
    this is numpy's axis-0 sum of :func:`log_factors` bit for bit, without
    the n x _LOG_CHUNK matrix.  Raises ZeroCollisionError if an evaluation
    point collides with a zero: where some factor's A / D overflows, which
    happens once |b| falls below about 1e-154 (D below about 1e-308 times
    A), exact zeros included.
    """
    _check_closed_disk(z)
    flat = np.asarray(z, dtype=complex).reshape(-1)
    out = np.zeros(flat.size)
    size = min(flat.size, _LOG_CHUNK)
    row, scratch = np.empty(size), np.empty(size)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, flat.size, _LOG_CHUNK):
            chunk = flat[start:start + _LOG_CHUNK]
            k = chunk.size
            zr, zi, z_gap = chunk.real.copy(), chunk.imag.copy(), _one_minus_abs2(chunk)
            total = out[start:start + k]
            for i, lam in enumerate(seq.points):
                _d_and_a(zr, zi, lam.real, lam.imag, z_gap, seq._gaps[i], row[:k], scratch[:k])
                np.add(total, _log1p_ratio(row[:k], scratch[:k]), out=total)
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

    Recorded by the sequence's validation: the smallest entry of its
    distance matrix, whose diagonal is 1, found by the distinctness check.
    """
    return seq._separation


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
        per_point=tuple(enumerate(moduli.tolist())),
    )
