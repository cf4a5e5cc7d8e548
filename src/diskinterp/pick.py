"""Minimal-norm bounded analytic interpolation on the disk.

Given nodes lam_j inside the disk and targets w_j, a norm-M analytic
interpolant exists exactly when the classical one-node-at-a-time
disk-automorphism reduction of the targets w_j / M keeps every parameter
in the closed disk (Schur 1917).  The reduction is the generator form of
the Cholesky factorization of the Pick matrix

    A(M)[j, k] = (M^2 - w_j conj(w_k)) / (1 - lam_j conj(lam_k)),

costs O(n^2), and is the one feasibility test here: ``min_norm`` runs it
on vectors of trial norms, and ``construct_interpolant`` records its
parameters as an explicit rational solution, evaluable on the closed
disk with |f| <= M by construction.

``min_norm`` returns a tested bracket around the threshold: a feasible
norm M_hi with an infeasible one within rel_tol * M_hi below it.  Its
first reduction tests a short ladder of trials around a closed-form
estimate of the threshold: A(M) = M^2 C - W C W* with C the Szego Gram
matrix of the nodes and W = diag(w), so the minimal norm is the square
root of the top eigenvalue of C^-1 W C W* (Pick's theorem).  Where the
ladder misses, or the estimate is skipped, a blind k-section takes over:
each later reduction tests the interior of a 17-point grid over the
bracket and splits it 16 ways.  On separated random inputs of the
benchmark's ``interpolate`` sizes (sep 0.1, seeds 1-40, parity and
random targets) one reduction of 11 trials decides every search at the
default rel_tol, n = 48 and 64 included, where the estimate lies within
9e-9 of the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import PointSequence, per_point_moduli
from .errors import (
    BracketFailureError,
    NumericalError,
    PointSetError,
    RecursionBreakdownError,
)
from .geometry import _check_closed_disk, _mobius_rows, _refinement_arc

# Relative bracket width at which the norm search stops.
BISECT_REL_TOL = 1e-8

# Recursion parameters may exceed the closed disk by at most this much.
_PARAM_TOL = 1e-9

# Entries (steps x points) of the factor table per block of steps in
# interpolant_eval: one block at the nodes, a few steps per block on a
# 4096-point boundary grid.
_EVAL_BLOCK = 16384

# Rungs of a ladder on each side of its estimate (:func:`_ladder`).
_RUNGS = 3

# The k-section's trial norms per pass: its first pass tests this many
# from end to end, and later ones the interior of a grid of _GRID + 2.
_GRID = 15

# The norm estimate is skipped when the nodes' Carleson constant is below
# the first of these.  Above it, the estimate lies within 9e-9 of the
# threshold on the benchmark's inputs, so the first ladder reaches out to
# the second relative distance around it, a decade past that.
_ESTIMATE_MIN_DELTA = 1e-16
_ESTIMATE_REACH = 1e-7

# Squarings of T T* the norm estimate takes at most; 7 were the most
# the benchmark's inputs needed.
_SQUARINGS = 40

# Interpolants are built at min_norm * (1 + NORM_SLACK), so their norm
# bound exceeds min_norm by exactly this factor.
NORM_SLACK = 1e-6

# A solution's node residuals may not exceed this times max(1, min_norm).
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class PickProblem:
    """Interpolation nodes and target values, lengths matching."""

    nodes: PointSequence
    targets: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.targets, dtype=complex).reshape(-1)
        if w.size != len(self.nodes):
            raise PointSetError(
                f"{w.size} targets for {len(self.nodes)} nodes"
            )
        if not np.all(np.isfinite(w)):
            raise PointSetError("targets must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "targets", w)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def _factor_values(self) -> np.ndarray:
        """b_{lam_i}(lam_j) at [i, j], for i < n - 1 and every node j.

        One broadcast of the Mobius kernel :func:`_mobius_rows`, with its
        convention b_lam(z) = z for |lam| below _ZERO_POINT_TOL.  The
        reduction divides by the entries right of the diagonal, and the norm
        estimate multiplies along the columns.  Cached: every pass of the
        norm search divides by the same factors.
        """
        lam = self.nodes.points
        return _mobius_rows(lam[:-1], lam)

    @cached_property
    def _moduli(self) -> np.ndarray:
        """|B_j(lam_j)| for every node (:func:`per_point_moduli`), cached.

        The norm bound reads them, and their minimum, the Carleson constant
        of the nodes, decides whether the norm estimate runs.
        """
        return per_point_moduli(self.nodes)


@dataclass(frozen=True)
class RationalInterpolant:
    """Rational interpolant in recorded one-node reduction form.

    ``schur_steps`` holds (node, parameter) pairs, innermost last; the final
    parameter is the constant the recursion bottomed out on.  ``scale`` is
    the norm bound M the construction was run at; evaluation never exceeds
    it (up to rounding).
    """

    schur_steps: tuple[tuple[complex, complex], ...]
    scale: float


@dataclass(frozen=True)
class PickSolution:
    """Minimal norm, an interpolant, its reduction margin, f(lam_j) - w_j.

    ``feasibility_margin`` is 1 - max |p| over the interpolant's recorded
    reduction parameters: how far inside the closed disk the construction
    at min_norm * (1 + NORM_SLACK) stayed, at least -1e-9 (_PARAM_TOL).
    """

    min_norm: float
    interpolant: RationalInterpolant
    feasibility_margin: float
    residuals: np.ndarray


def pick_matrix(problem: PickProblem, M: float) -> np.ndarray:
    """Hermitian feasibility matrix for the norm-M interpolation problem.

    Nothing in the package calls it, since the reduction tests the same
    condition without forming the matrix; it stays as the statement of
    Pick's theorem that the tests and demos check the reduction against.
    """
    lam = problem.nodes.points
    w = problem.targets
    num = M * M - np.outer(w, np.conj(w))
    den = 1.0 - np.outer(lam, np.conj(lam))
    return num / den


def _schur_parameters(problem: PickProblem, Ms) -> np.ndarray:
    """Reduction parameters of the norm-M problem, one row per M > 0 in Ms.

    Row r scales the targets into the unit ball by Ms[r] and peels off one
    node at a time: a function s with s(lam) = p and |s| <= 1 is exactly
    s(z) = tau_p(b_lam(z) s'(z)) with tau_p(u) = (u + p) / (1 + conj(p) u)
    and s' again bounded by one, so the n-node problem reduces to an
    (n-1)-node problem for s'.  Entry [r, i] is the value at node i after
    i peels, which is the i-th parameter; the last one is the constant s'
    bottoms out on.  Entries after a row's first parameter outside the
    closed disk are meaningless (possibly inf or nan).
    """
    vals = problem.targets / np.asarray(Ms, dtype=float).reshape(-1, 1)
    factors = problem._factor_values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(len(factors)):
            p, rest = vals[:, i:i + 1], vals[:, i + 1:]
            vals[:, i + 1:] = (rest - p) / (1.0 - np.conj(p) * rest) / factors[i, i + 1:]
    return vals


def _inside(params: np.ndarray) -> np.ndarray:
    """True where a parameter lies in the closed disk, up to _PARAM_TOL."""
    return np.abs(params) <= 1.0 + _PARAM_TOL


def is_feasible(problem: PickProblem, M: float) -> bool:
    """True iff the norm-M problem is solvable.

    That is the case exactly when the reduction of
    :func:`construct_interpolant` at M keeps every parameter in the closed
    disk; this is the same test :func:`min_norm` searches on.  Nothing in
    the package calls it, since the search and the construction run
    :func:`_schur_parameters` directly: tests, demos and the benchmark
    tracer are its only callers.
    """
    if M <= 0.0:
        return M == 0.0 and not np.any(problem.targets)
    return bool(np.all(_inside(_schur_parameters(problem, [M]))))


def norm_upper_bound(problem: PickProblem) -> float:
    """sum_j |w_j| / |B_j(lam_j)|, a guaranteed-feasible norm bound.

    This is the triangle-inequality norm of the explicit interpolant
    sum_j w_j B_j / B_j(lam_j).  It is inf where the sum overflows, which
    :func:`min_norm` reports.
    """
    w = np.abs(problem.targets)
    with np.errstate(over="ignore"):
        return float(np.sum(w / problem._moduli))


def _norm_estimate(problem: PickProblem) -> float | None:
    """The minimal norm as the top of the Pick pencil, or None where it is skipped.

    A(M) = M^2 C - W C W* with C[j, k] = 1 / (1 - lam_j conj(lam_k)) and
    W = diag(w), so the minimal norm is the square root of the largest
    eigenvalue of C^-1 W C W*, which is ||F^-1 W F|| for any F with
    C = F F*.  The Malmquist-Takenaka basis gives a lower triangular F in
    closed form, F[j, m] = phi_m(lam_j) with phi_m(z) = sqrt(1 -
    |lam_m|^2) / (1 - conj(lam_m) z) * prod_{i<m} b_{lam_i}(z).  Each
    entry is a product of Mobius values, accurate to rounding even where
    C is singular to working precision and a Cholesky factor of C has no
    correct digit.  Dividing each row of F by its diagonal entry leaves
    F^-1 W F unchanged and makes F unit lower triangular, so T = F^-1 W F
    follows by forward substitution, row by row.  F's rows span many
    decades, and a pivoting solve mixes them and loses up to 2.5e-4.  The
    norm of T is found by squaring T T* until the Rayleigh quotient of its
    largest column settles.

    On the benchmark's separated random inputs the estimate lies within
    9e-9 of the reduction's threshold (median 1e-9, the reduction's own
    tolerance).  On the stress families of the tests it lies within 1.1e-8
    where the nodes' Carleson constant min_j |B_j(lam_j)| is in [1e-16,
    1e-10), and within 1.4e-7 where it is larger.  Below 1e-16
    (_ESTIMATE_MIN_DELTA) constant targets put it off by up to 2e25, so
    there the estimate is skipped.
    """
    if np.min(problem._moduli) < _ESTIMATE_MIN_DELTA:
        return None
    lam = problem.nodes.points
    # The norm is homogeneous in w; scaling it to max |w| = 1 keeps T T*
    # and its squares in range for any finite targets.
    scale = float(np.max(np.abs(problem.targets)))
    if scale == 0.0:
        return 0.0
    w = problem.targets / scale
    d = np.sqrt(1.0 - np.abs(lam) ** 2)
    den = 1.0 - np.outer(lam, np.conj(lam))
    # The factor b_{lam_j}(lam_j) = 0 makes F lower triangular.
    products = np.ones(den.shape, dtype=complex)
    np.cumprod(problem._factor_values.T, axis=1, out=products[:, 1:])
    F = d / den * products
    F /= F.diagonal()[:, None]
    T = w[:, None] * F
    for j in range(1, len(T)):
        T[j] -= F[j, :j] @ T[:j]
    Th = T.conj().T
    K = T @ Th
    top = 0.0
    for _ in range(_SQUARINGS):
        K = K @ K
        diag = K.diagonal().real
        i = diag.argmax()
        K /= diag[i]
        v = K[:, i]
        u = Th @ v
        rq = (np.vdot(u, u) / np.vdot(v, v)).real
        if rq - top <= 1e-12 * rq:
            break
        top = rq
    return scale * math.sqrt(rq)


def _ladder(r: float, rel_tol: float) -> list:
    """Trial norms around an estimate r of the threshold.

    The rungs r * (1 + 0.999 j rel_tol), |j| <= _RUNGS, lie less than
    rel_tol apart, so two of them that straddle the threshold end the
    search.  Beyond them, one pair r * (1 +- 10^-k) per decade up to the
    relative distance _ESTIMATE_REACH leaves a bracket within a decade of
    the estimate's error when the rungs miss.
    """
    trials = [r * (1.0 + 0.999 * j * rel_tol) for j in range(-_RUNGS, _RUNGS + 1)]
    k = math.floor(math.log10(_RUNGS * rel_tol)) + 1
    while 10.0 ** k <= _ESTIMATE_REACH:
        trials += (r * (1.0 - 10.0 ** k), r * (1.0 + 10.0 ** k))
        k += 1
    return trials


def min_norm(problem: PickProblem, rel_tol: float = BISECT_REL_TOL) -> float:
    """Smallest sup-norm over all analytic interpolants, to ``rel_tol`` relative.

    Returns a tested-feasible norm M_hi such that a tested-infeasible
    norm M_lo satisfies M_hi - M_lo < rel_tol * M_hi, or the feasible
    end of a bracket with no float strictly inside.  Each reduction
    (:func:`_schur_parameters`) tests a vector of trial norms in the
    bracket (M_lo, M_hi), which then becomes the smallest feasible norm
    tested and the largest tested below it.  The bracket starts between
    max_j |w_j|, below every interpolant norm and returned if it tests
    feasible, and the explicit bound of :func:`norm_upper_bound`.
    Raises BracketFailureError if the bound overflows or tests
    infeasible, which is rounding at the threshold (an explicit
    interpolant attains the bound, the minimal norm itself for one-point
    targets), and ValueError unless 0 < rel_tol < 1.

    The first reduction tests both ends and a ladder (:func:`_ladder`)
    around the estimate of :func:`_norm_estimate`.  Where the estimate is
    skipped it tests the k-section's first pass, _GRID geometric trials
    from end to end.  Every later reduction tests the k-section's grid of
    the bracket, _GRID + 2 points, geometric while the upper end exceeds
    four times the lower and linear after.  Rounding makes the predicate
    non-monotone over a band around the threshold: about 1e-13 relative
    on stress_problem("near_boundary", "gaussian", 8, 1) of
    tests/test_pick.py, up to 8e-12 on its "regular" family at n = 48 and
    up to 2e-9 at n = 64, where the norms reach 1e9 (seeds 1-6).  A
    rel_tol below that band fixes the threshold only to the band.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    lo = float(np.max(np.abs(problem.targets)))
    hi = norm_upper_bound(problem)
    if hi == 0.0:
        return 0.0
    if not math.isfinite(hi):
        raise BracketFailureError(
            "norm bound sum_j |w_j| / |B_j(lam_j)| overflows; the targets are "
            "too large to bracket the minimal norm"
        )
    estimate = _norm_estimate(problem)
    if estimate is None:
        trials = np.geomspace(lo, hi, _GRID).tolist()
    else:
        trials = [lo, hi, *_ladder(estimate, rel_tol)]
    tested = {}
    a, b = lo, hi
    while True:
        trials = [M for M in dict.fromkeys(trials) if a <= M <= b and M not in tested]
        feasible = _inside(_schur_parameters(problem, trials)).all(axis=1)
        tested.update(zip(trials, feasible.tolist()))
        if tested[lo]:
            return lo
        if not tested[hi]:
            raise BracketFailureError(
                f"norm bound {hi:.6g} tests infeasible, though an explicit "
                f"interpolant attains it; the feasibility test's rounding at "
                f"the threshold decided the verdict"
            )
        b = min(M for M, ok in tested.items() if ok)
        a = max(M for M in tested if M < b)
        if b - a < rel_tol * b or math.nextafter(a, math.inf) >= b:
            return b
        space = np.geomspace if b > 4.0 * a else np.linspace
        trials = space(a, b, _GRID + 2).tolist()


def construct_interpolant(problem: PickProblem, M: float) -> RationalInterpolant:
    """Build a rational interpolant with sup-norm at most M.

    Records the (node, parameter) pairs of the reduction at M (see
    :func:`_schur_parameters`).  Each parameter must stay in the closed
    disk; a parameter outside it means M is below the minimal norm by the
    test :func:`min_norm` searches on, and raises RecursionBreakdownError
    naming the node.  Raises ValueError unless M is finite and
    nonnegative: at M = inf every parameter is 0, and evaluation would
    return inf * 0.
    """
    nodes = problem.nodes.points
    if not 0.0 <= M < math.inf:  # NaN fails too
        raise ValueError(f"norm bound must be finite and nonnegative, got {M!r}")
    if M == 0.0:
        if np.any(problem.targets != 0):
            raise RecursionBreakdownError("M = 0 admits only the zero interpolant")
        return RationalInterpolant(((complex(nodes[0]), 0j),), 0.0)
    params = _schur_parameters(problem, [M])[0]
    inside = _inside(params)
    if not inside.all():
        i = int(np.argmin(inside))
        raise RecursionBreakdownError(
            f"reduction parameter |p| = {abs(params[i]):.6g} at node {i} leaves "
            f"the closed disk; M = {M:.6g} is below the minimal norm"
        )
    return RationalInterpolant(tuple(zip(nodes.tolist(), params.tolist())), float(M))


def interpolant_eval(f: RationalInterpolant, z):
    """Evaluate the interpolant at scalar or array z with |z| <= 1.

    Unwinds the recorded steps from the innermost constant outward; the
    composition of disk automorphisms keeps |result| <= scale.  The
    factors b_lam(z) come from one broadcast per block of steps, each
    block's table capped at _EVAL_BLOCK entries so that it stays in
    cache, and only the unwinding loops over the steps.  A scalar is
    evaluated as an array of one point.
    """
    _check_closed_disk(z)
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    nodes = np.array([lam for lam, _ in f.schur_steps[:-1]], dtype=complex)
    params = [p for _, p in f.schur_steps[:-1]]
    rows = max(1, _EVAL_BLOCK // max(1, flat.size))
    s = np.full(flat.size, f.schur_steps[-1][1], dtype=complex)
    for stop in range(nodes.size, 0, -rows):
        start = max(0, stop - rows)
        factors = _mobius_rows(nodes[start:stop], flat)
        for factor, p in zip(factors[::-1], reversed(params[start:stop])):
            u = factor * s
            s = (u + p) / (1.0 + np.conjugate(p) * u)
    out = f.scale * s
    return complex(out[0]) if scalar else out.reshape(z.shape)


def _sup_on_circle(fn, thetas: np.ndarray, vals: np.ndarray) -> float:
    """max |fn| over the unit circle, given |fn| = ``vals`` at the equispaced ``thetas``.

    One call of ``fn`` on the refinement arc of the discrete argmax
    (:func:`_refinement_arc`): one sample spacing either side of it, at
    a 64th of a spacing.  The result is a lower bound on the true sup
    with one-sided discretization bias.  Its one caller is
    :func:`sup_norm_boundary`; ``perfbench/trace.py`` times it under this
    name.
    """
    k = int(np.argmax(vals))
    arc = _refinement_arc(thetas[k], 2.0 * np.pi / thetas.size)
    return max(float(vals[k]), float(np.max(np.abs(fn(np.exp(1j * arc))))))


def sup_norm_boundary(f: RationalInterpolant, grid: int = 4096) -> float:
    """Boundary sup-norm estimate of the interpolant.

    Maximum modulus over ``grid`` equally spaced boundary points, refined
    on the arc of one spacing either side of the discrete argmax, sampled
    every 2*pi/(grid*64) (:func:`_sup_on_circle`).  The estimate is a
    lower bound on the true sup-norm, so it cannot certify a norm: the
    bound chain uses ``scale`` instead.  Nothing in the package calls it:
    it stays as a public diagnostic, and the tests and demos, its only
    callers, use it to check that the sampled sup sits at or below
    ``scale``.
    """
    if grid < 256:
        raise ValueError(f"boundary grid must be at least 256, got {grid}")
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = np.abs(interpolant_eval(f, np.exp(1j * thetas)))
    return _sup_on_circle(lambda zs: interpolant_eval(f, zs), thetas, vals)


def solve_pick(problem: PickProblem, rel_tol: float = BISECT_REL_TOL) -> PickSolution:
    """Minimal norm plus an interpolant constructed at min_norm*(1 + NORM_SLACK).

    The norm search and the construction apply the same reduction, so the
    construction at the slightly inflated norm keeps every parameter
    strictly inside the disk without retries.  The interpolant is then
    evaluated at every node; a residual above RESIDUAL_TOL * max(1,
    min_norm) raises NumericalError naming the node.
    """
    M_star = min_norm(problem, rel_tol=rel_tol)
    M_run = M_star * (1.0 + NORM_SLACK)
    interpolant = construct_interpolant(problem, M_run)
    residuals = interpolant_eval(interpolant, problem.nodes.points) - problem.targets
    worst = int(np.argmax(np.abs(residuals)))
    if abs(residuals[worst]) > RESIDUAL_TOL * max(1.0, M_star):
        raise NumericalError(
            f"interpolant misses node {worst} by {abs(residuals[worst]):.3e} "
            f"at norm {M_run:.6g}"
        )
    margin = 1.0 - max(abs(p) for _, p in interpolant.schur_steps)
    return PickSolution(min_norm=M_star, interpolant=interpolant,
                        feasibility_margin=margin, residuals=residuals)
