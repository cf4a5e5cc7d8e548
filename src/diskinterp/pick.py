"""Minimal-norm bounded analytic interpolation on the disk.

Given nodes lam_j inside the disk and targets w_j, a norm-M analytic
interpolant exists exactly when the classical one-node-at-a-time
disk-automorphism reduction of the targets w_j / M keeps every parameter
in the closed disk (Schur 1917).  The reduction is the generator form of
the Cholesky factorization of the Pick matrix

    A(M)[j, k] = (M^2 - w_j conj(w_k)) / (1 - lam_j conj(lam_k)),

costs O(n^2), and is the one feasibility test here: ``min_norm`` runs it
on vectors of trial norms in a k-section search, and
``construct_interpolant`` records its parameters as an explicit rational
solution, evaluable on the closed disk with |f| <= M by construction.
"""

from __future__ import annotations

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
from .geometry import _check_closed_disk, _mobius

# Relative bracket width at which the norm search stops.
BISECT_REL_TOL = 1e-8

# Recursion parameters may exceed the closed disk by at most this much.
_PARAM_TOL = 1e-9

# Trial norms tested per pass of the norm search.
_TRIALS = 15

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
    def _divisors(self) -> tuple[np.ndarray, ...]:
        """b_{lam_i}(lam_j) for j > i, one array per i < n - 1.

        Cached: every pass of the norm search divides by the same factors.
        """
        lam = self.nodes.points
        return tuple(_mobius(lam[i], lam[i + 1:]) for i in range(lam.size - 1))


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
    """Hermitian feasibility matrix for the norm-M interpolation problem."""
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, divisor in enumerate(problem._divisors):
            p, rest = vals[:, i:i + 1], vals[:, i + 1:]
            vals[:, i + 1:] = (rest - p) / (1.0 - np.conj(p) * rest) / divisor
    return vals


def _inside(params: np.ndarray) -> np.ndarray:
    """True where a parameter lies in the closed disk, up to _PARAM_TOL."""
    return np.abs(params) <= 1.0 + _PARAM_TOL


def is_feasible(problem: PickProblem, M: float) -> bool:
    """True iff the norm-M problem is solvable.

    That is the case exactly when the reduction of
    :func:`construct_interpolant` at M keeps every parameter in the closed
    disk; this is the same test :func:`min_norm` searches on.
    """
    if M <= 0.0:
        return M == 0.0 and not np.any(problem.targets)
    return bool(np.all(_inside(_schur_parameters(problem, [M]))))


def norm_upper_bound(problem: PickProblem) -> float:
    """sum_j |w_j| / |B_j(lam_j)|, a guaranteed-feasible norm bound.

    This is the triangle-inequality norm of the explicit interpolant
    sum_j w_j B_j / B_j(lam_j).
    """
    w = np.abs(problem.targets)
    return float(np.sum(w / per_point_moduli(problem.nodes)))


def min_norm(problem: PickProblem, rel_tol: float = BISECT_REL_TOL) -> float:
    """Smallest sup-norm over all analytic interpolants, by k-section search.

    Brackets between max_j |w_j| (below every interpolant norm) and the
    explicit bound of :func:`norm_upper_bound`.  Each pass runs the
    reduction of :func:`construct_interpolant` at _TRIALS norms at once
    (both ends included in the first pass, strictly inside later), spaced
    geometrically while the upper end exceeds four times the lower and
    linearly after, and keeps the smallest feasible trial and the one
    below it.  Returns the feasible end once the bracket is narrower than
    ``rel_tol`` times it.  Raises BracketFailureError if the upper end
    tests infeasible, which indicates numerical degeneracy such as
    near-coincident nodes.
    """
    lo = float(np.max(np.abs(problem.targets)))
    hi = norm_upper_bound(problem)
    if hi == 0.0:
        return 0.0
    trials = np.geomspace(lo, hi, _TRIALS)
    feasible = np.all(_inside(_schur_parameters(problem, trials)), axis=1)
    if feasible[0]:
        return lo
    if not feasible[-1]:
        raise BracketFailureError(
            f"norm bound {hi:.6g} tests infeasible; the problem is "
            f"numerically degenerate"
        )
    while True:
        j = int(np.argmax(feasible))  # trials[j - 1] is infeasible
        if trials[j] - trials[j - 1] >= hi - lo:
            return hi  # no float fits strictly inside the bracket
        lo, hi = float(trials[j - 1]), float(trials[j])
        if hi - lo < rel_tol * hi:
            return hi
        space = np.geomspace if hi > 4.0 * lo else np.linspace
        trials = space(lo, hi, _TRIALS + 2)
        inner = np.all(_inside(_schur_parameters(problem, trials[1:-1])), axis=1)
        feasible = np.concatenate(([False], inner, [True]))


def construct_interpolant(problem: PickProblem, M: float) -> RationalInterpolant:
    """Build a rational interpolant with sup-norm at most M.

    Records the (node, parameter) pairs of the reduction at M (see
    :func:`_schur_parameters`).  Each parameter must stay in the closed
    disk; a parameter outside it means M is below the minimal norm by the
    test :func:`min_norm` searches on, and raises RecursionBreakdownError
    naming the node.
    """
    nodes = problem.nodes.points
    if M < 0:
        raise ValueError(f"norm bound must be nonnegative, got {M!r}")
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
    composition of disk automorphisms keeps |result| <= scale.
    """
    _check_closed_disk(z)
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.asarray(z, dtype=complex)
    s = np.full(z.shape, f.schur_steps[-1][1], dtype=complex)
    for lam, p in reversed(f.schur_steps[:-1]):
        u = _mobius(lam, z) * s
        s = (u + p) / (1.0 + np.conjugate(p) * u)
    out = f.scale * s
    return complex(out) if scalar else out


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, a: float, b: float, tol: float) -> float:
    """Golden-section maximum of a scalar function on [a, b]."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(fc, fd)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        best = max(best, fc, fd)
    return best


def _sup_on_circle(fn, thetas: np.ndarray, vals: np.ndarray) -> float:
    """max |fn| over the unit circle, given |fn| = ``vals`` at the equispaced ``thetas``.

    Golden-section refinement around the discrete argmax; the result is a
    lower bound on the true sup with one-sided discretization bias.  Its
    one caller is :func:`sup_norm_boundary`; ``perfbench/trace.py`` times
    it under this name.
    """
    k = int(np.argmax(vals))
    step = 2.0 * np.pi / thetas.size
    refined = _golden_max(
        lambda t: float(np.abs(fn(np.exp(1j * t)))),
        thetas[k] - step,
        thetas[k] + step,
        step / 64.0,
    )
    return max(float(vals[k]), refined)


def sup_norm_boundary(f: RationalInterpolant, grid: int = 4096) -> float:
    """Boundary sup-norm estimate of the interpolant.

    Maximum modulus over ``grid`` equally spaced boundary points, refined
    by golden-section search around the discrete argmax until the bracket
    is below 2*pi/(grid*64).  The estimate is a lower bound on the true
    sup-norm, so it cannot certify a norm: the bound chain uses ``scale``
    instead.  It stays as a public diagnostic, which the tests and demos
    use to check that the sampled sup sits at or below ``scale``.
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
