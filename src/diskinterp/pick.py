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

The k-section returns the upper end of the first nested grid cell that
is narrower than its tolerance, so its answer depends only on which cell
of each grid holds the threshold.  ``min_norm`` runs it as one loop that
reads each level's cell off a table of the trials tested so far, and
runs a reduction only for a level the table does not decide.  That
reduction tests the ends of every nested cell a guide predicts, and the
interior grid of the deepest, so one reduction can decide many levels.
The first is guided by a closed-form estimate of the threshold: A(M) =
M^2 C - W C W* with C the Szego Gram matrix of the nodes and W =
diag(w), so the minimal norm is the square root of the top eigenvalue
of C^-1 W C W* (Pick's theorem).  Later ones are guided by the tested
rows: the parameter that leaves the disk just below the threshold is a
smooth function of M, so interpolating its modulus estimates where it
crosses the circle.  A reduction that leaves its level undecided makes
the next one test that level's whole grid, so a level costs at most two
reductions, and a wrong or skipped guide costs a reduction, never the
answer: the search returns the blind search's float.  On the separated
random inputs of the benchmark (n = 8 to 64, seeds 1, 2, 3 and 7919) it
takes 1.2 reductions on average and at most 3, against 8 for the blind
search.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

# Trial norms of the norm search's first level, and the interior points of
# the 17-point grid of each later level.
_TRIALS = 15

# The norm search predicts a level only where the root estimate r, give or
# take this many times its distance from the secant estimate, fits in one
# cell ...
_GUIDE_MARGIN = 2.0

# ... and never narrower than r times this: at that width, rounding in the
# reduction can make the predicate non-monotone, so finer levels are found
# by testing the whole grid, as the blind search does.
_GUIDE_FLOOR = 1e-11

# The norm estimate is skipped when the nodes' Carleson constant is below
# this ...
_ESTIMATE_MIN_DELTA = 1e-16

# ... and otherwise predicts the threshold in estimate * (1 +- this).  A
# wider interval predicts fewer levels; 1e-8 took 1.7 reductions per
# search on the benchmark's inputs, this 1.2.
_ESTIMATE_TOL = 2e-9

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
    def _divisors(self) -> tuple[np.ndarray, ...]:
        """b_{lam_i}(lam_j) for j > i, one array per i < n - 1.

        Cached: every pass of the norm search divides by the same factors.
        """
        lam = self.nodes.points
        return tuple(_mobius(lam[i], lam[i + 1:]) for i in range(lam.size - 1))

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
    correct digit.  The rows of F here carry sqrt(1 - |lam_j|^2) as well,
    which balances them and leaves F^-1 W F unchanged.  The norm of T =
    F^-1 W F is found by squaring T T* until the Rayleigh quotient of its
    largest column settles.

    On separated random nodes the estimate lies within 1e-8 of the
    reduction's threshold (mostly 1e-9, the reduction's own tolerance)
    while the nodes' Carleson constant min_j |B_j(lam_j)| is above 1e-10,
    and within 2e-3 down to 1e-16 (_ESTIMATE_MIN_DELTA).  Below that the
    drift reaches 1e-2 by 1e-18 and order one by 1e-25, so there the
    estimate is skipped.
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
    # The products omit the unimodular factor of each b_{lam_i}; that
    # scales the columns of F by unimodular constants and leaves ||T||.
    # The factor b_{lam_j}(lam_j) = 0 makes F lower triangular.
    products = np.ones(den.shape, dtype=complex)
    np.cumprod((lam[:, None] - lam[:-1]) / den[:, :-1], axis=1, out=products[:, 1:])
    F = np.outer(d, d) / den * products
    T = np.linalg.solve(F, w[:, None] * F)
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


@lru_cache(maxsize=64)
def _grid(lo: float, hi: float) -> tuple:
    """The k-section's 17-point grid over the bracket (lo, hi), ends included.

    Cached: a search builds each grid when it predicts a level and again
    when it enters it.
    """
    space = np.geomspace if hi > 4.0 * lo else np.linspace
    return tuple(space(lo, hi, _TRIALS + 2).tolist())


def _enter(grid: tuple, j: int, rel_tol: float):
    """The k-section's step into the cell (grid[j - 1], grid[j]).

    Returns the new bracket and the float the search returns there, or
    None if the search goes on.
    """
    lo, hi = grid[j - 1], grid[j]
    if hi - lo >= grid[-1] - grid[0]:
        return grid[0], grid[-1], grid[-1]  # no float fits strictly inside the bracket
    return lo, hi, (hi if hi - lo < rel_tol * hi else None)


def _cell(grid: tuple, tested: dict) -> int | None:
    """The index j of the cell (grid[j - 1], grid[j]) the k-section keeps, or None.

    ``tested`` maps each tested trial norm to its exit (the first node
    outside the disk, or n if none is) and its row.  The cell lies below
    the first interior grid point that tested feasible, the upper end
    counting as feasible, and is known only if the point below that one
    tested infeasible.  With the whole interior tested this is the blind
    search's rule.
    """
    last = len(grid) - 1
    for j in range(1, last):
        t = tested.get(grid[j])
        if t is not None and t[0] == t[1].size:
            break
    else:
        j = last
    t = tested.get(grid[j - 1])
    return j if t is not None and t[0] < t[1].size else None


def _root_interval(lo: float, hi: float, tested: dict) -> tuple[float, float]:
    """Where in the bracket (lo, hi) the tested trials (:func:`_cell`) place the threshold.

    a and b are the tightest infeasible and feasible trials in the bracket,
    k the node where row a first leaves the disk.  g(M) = |p_k(M)| - (1 +
    _PARAM_TOL) changes sign between them; inverse-quadratic interpolation
    of g through a, b and the nearest other trial where g is defined gives
    the estimate r, the secant through a and b the estimate r_lin.  The
    interval is r +- max(_GUIDE_MARGIN * |r - r_lin|, _GUIDE_FLOOR * r),
    cut to [a, b] but never narrower than 2 * _GUIDE_FLOOR * r; it is
    [a, b] itself when no estimate is possible.
    """
    ma = max(M for M, (e, row) in tested.items() if lo <= M <= hi and e < row.size)
    mb = min(M for M, (e, row) in tested.items() if ma < M <= hi and e == row.size)
    k = tested[ma][0]
    others = [M for M, (e, _) in tested.items() if e >= k and M != ma and M != mb]
    if not others:
        return ma, mb
    mc = min(others, key=lambda M: ma / M if M < ma else M / mb)
    ga, gb, gc = (float(abs(tested[M][1][k])) - 1.0 - _PARAM_TOL for M in (ma, mb, mc))
    if not (math.isfinite(ga) and math.isfinite(gc) and gc != ga and gc != gb):
        return ma, mb
    r_lin = ma + (mb - ma) * ga / (ga - gb)
    r = (ma * gb * gc / ((ga - gb) * (ga - gc))
         + mb * ga * gc / ((gb - ga) * (gb - gc))
         + mc * ga * gb / ((gc - ga) * (gc - gb)))
    half = max(_GUIDE_MARGIN * abs(r - r_lin), _GUIDE_FLOOR * r)
    x0, x1 = max(ma, r - half), min(mb, r + half)
    if not x0 <= x1:
        return ma, mb
    pad = max(0.0, _GUIDE_FLOOR * r - 0.5 * (x1 - x0))
    return x0 - pad, x1 + pad


def _predicted(grid: tuple, x0: float, x1: float, rel_tol: float) -> list:
    """The trials that decide the levels from ``grid`` down if the threshold lies in [x0, x1].

    The ends of every nested cell that holds all of [x0, x1], then the
    interior of the deepest grid, unless the search returns in the
    deepest cell.
    """
    ends = []
    while True:
        j = bisect_right(grid, x0)
        if not 0 < j < len(grid) or x1 > grid[j]:
            return ends + list(grid[1:-1])
        lo, hi, answer = _enter(grid, j, rel_tol)
        ends += (lo, hi)
        if answer is not None:
            return ends
        grid = _grid(lo, hi)


def min_norm(problem: PickProblem, rel_tol: float = BISECT_REL_TOL) -> float:
    """Smallest sup-norm over all analytic interpolants, by k-section search.

    Brackets between max_j |w_j| (below every interpolant norm) and the
    explicit bound of :func:`norm_upper_bound`.  The first level tests
    _TRIALS norms, geometrically spaced with both ends included, and keeps
    the smallest feasible trial and the one below it.  Each later level
    splits the bracket by a 17-point grid, geometric while its upper end
    exceeds four times the lower and linear after, and keeps the cell
    whose upper end is the first feasible grid point.  Returns the
    feasible end once the bracket is narrower than ``rel_tol`` times it.
    Raises BracketFailureError if the bound overflows or its upper end
    tests infeasible, which indicates numerical degeneracy such as
    near-coincident nodes, and ValueError unless 0 < rel_tol < 1: at 1 or
    more the search would stop after its first level.

    Each level reads its cell off the trials tested so far (:func:`_cell`),
    so the returned float is the blind search's whichever trials are
    tested.  A level they do not decide costs one reduction, on the
    trials a guide predicts (:func:`_predicted`): the ends of every
    nested cell that holds the predicted threshold, then the interior of
    the deepest grid.  The first reduction also tests the first level,
    and is guided by :func:`_norm_estimate`, give or take _ESTIMATE_TOL
    relative; later ones by the rows already tested
    (:func:`_root_interval`).  A wrong or skipped guide costs a
    reduction, never the answer: a reduction that leaves its level
    undecided makes the next one test that level's interior as well, so
    a level costs at most two reductions.
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
    n = len(problem)
    grid = tuple(np.geomspace(lo, hi, _TRIALS).tolist())
    trials = list(grid)
    estimate = _norm_estimate(problem)
    if estimate is not None:
        x0, x1 = estimate * (1.0 - _ESTIMATE_TOL), estimate * (1.0 + _ESTIMATE_TOL)
        trials += _predicted(grid, x0, x1, rel_tol)
    tested = {}
    while True:
        trials = list(dict.fromkeys(trials))
        rows = _schur_parameters(problem, trials)
        inside = _inside(rows)
        exits = np.where(inside.all(axis=1), n, np.argmin(inside, axis=1)).tolist()
        tested.update(zip(trials, zip(exits, rows)))
        if tested[lo][0] == n:
            return lo
        if tested[hi][0] < n:
            raise BracketFailureError(
                f"norm bound {hi:.6g} tests infeasible; the problem is "
                f"numerically degenerate"
            )
        start = grid
        while (j := _cell(grid, tested)) is not None:
            a, b, answer = _enter(grid, j, rel_tol)
            if answer is not None:
                return answer
            grid = _grid(a, b)
        trials = _predicted(grid, *_root_interval(grid[0], grid[-1], tested), rel_tol)
        if grid is start:  # the reduction decided no level
            trials += grid[1:-1]


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
