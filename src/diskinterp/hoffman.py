"""Two-factor splittings of a Blaschke product with fitted comparability.

A splitting Lambda = Lambda_0 u Lambda_1 induces B = B_0 B_1.  Away from
the pseudohyperbolic disks D(lam, delta) around the zeros, the two factor
moduli are power-law comparable:

    a |B_0(z)|^(1/b)  <=  |B_1(z)|  <=  (1/a) |B_0(z)|^b.

The constants (a, b) exist for every delta but carry no usable closed
form, so this module fits them empirically: on a finite exclusion grid it
takes the extremal b (worst log-modulus ratio) and then the extremal a,
which makes the sandwich hold at every grid point by construction.
``decompose`` searches the partitions of a sequence for the split with the
smallest fitted b: exactly up to 16 points, by enumerating every partition
and pruning with lower bounds on b from a few witness grid points, and by
deterministic local search beyond, pruned on witness grid points too.
One ``blaschke.log_factors`` matrix places the exclusion grid; the search
scores partitions on it and fits the winner's (a, b) from it, always
through the one fit formula ``_fit_logs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import PointSequence, blaschke_log_modulus, log_factors, separation_constant
from .errors import DegenerateFitError, EmptyGridError, PointSetError

# Largest sequence searched exactly: all 2^(n-1) - 1 nontrivial partitions
# are bounded on a few witness grid points, and only those whose bound does
# not exceed the best b found get a full grid sweep.
EXHAUSTIVE_LIMIT = 16

# Grid log-moduli this close to zero cannot anchor a ratio fit.
_FIT_DEGENERACY_TOL = 1e-14

# Evenly spaced partition codes whose argmax grid columns form the
# witness set of the pruned exhaustive search.
_WITNESS_PROBES = 10

# Partitions fully evaluated per vectorized batch in the pruned search.
_EVAL_CHUNK = 8


@dataclass(frozen=True)
class ExclusionGrid:
    """Interior grid points at pseudohyperbolic distance >= delta from a sequence.

    ``factors`` is the ``log_factors`` matrix of the sequence over
    ``points`` (one row per sequence point, one column per grid point),
    the matrix the retention test read; both arrays are read-only.
    """

    points: np.ndarray
    delta: float
    resolution: int
    factors: np.ndarray

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class Decomposition:
    """A two-part splitting of a sequence with its fitted sandwich constants.

    ``search`` names how the split was found: "exhaustive" (every partition
    enumerated, those whose witness bound could win fully evaluated),
    "local" (single-move descent: masks_enumerated counts the masks tried,
    masks_evaluated those whose witness bound could win and were fully
    scored) or "declared" (given, not searched, with both counts zero).
    """

    base: PointSequence
    part0: tuple[int, ...]
    part1: tuple[int, ...]
    delta: float
    fitted_a: float
    fitted_b: float
    fit_grid_size: int
    fit_grid_resolution: int
    worst_point: complex
    search: str = "declared"
    masks_enumerated: int = 0
    masks_evaluated: int = 0

    def __post_init__(self):
        n = len(self.base)
        p0, p1 = set(self.part0), set(self.part1)
        if not p0 or not p1:
            raise PointSetError("both parts of a decomposition must be nonempty")
        if p0 & p1 or (p0 | p1) != set(range(n)):
            raise PointSetError("parts must partition the index range exactly")
        object.__setattr__(self, "part0", tuple(sorted(p0)))
        object.__setattr__(self, "part1", tuple(sorted(p1)))

    def part_sequence(self, which: int) -> PointSequence:
        """The points of part0 (which=0) or part1 (which=1), in base order."""
        idx = self.part0 if which == 0 else self.part1
        return PointSequence(self.base.points[list(idx)], label=self.base.label)


def _retained_grid(seq: PointSequence, delta: float, resolution: int, R: float):
    xs = np.linspace(-R, R, resolution)
    X, Y = np.meshgrid(xs, xs)
    pts = (X + 1j * Y).ravel()
    pts = pts[np.abs(pts) < R]
    LM = log_factors(seq.points, pts)
    keep = np.min(LM, axis=0) >= np.log(delta)
    return pts[keep], LM.compress(keep, axis=1)  # C order, as the search reads rows


def exclusion_grid(seq: PointSequence, delta: float, resolution: int) -> ExclusionGrid:
    """Cartesian grid over [-R, R]^2 minus the disks D(lam, delta).

    R = min(0.999, max |lam| + 0.05) keeps the grid over the region the
    sequence occupies; points with |z| >= R or within pseudohyperbolic
    distance delta of any sequence point are dropped.  The distance test
    reads one ``log_factors`` matrix over the square's points, log delta
    against each column's minimum, and the grid keeps the retained
    columns of that matrix for the fit.  When the exclusion disks swallow
    the square (large delta around points near the origin), the square is
    widened once to reach past the farthest disk rim before
    EmptyGridError is raised.
    """
    if resolution < 32:
        raise ValueError(f"grid resolution must be at least 32, got {resolution}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    moduli = np.abs(seq.points)
    R = min(0.999, float(np.max(moduli)) + 0.05)
    pts, LM = _retained_grid(seq, delta, resolution, R)
    if pts.size == 0:
        rim = float(np.max((moduli + delta) / (1.0 + moduli * delta)))
        R_wide = min(0.999, rim + 0.05)
        if R_wide > R:
            pts, LM = _retained_grid(seq, delta, resolution, R_wide)
    if pts.size == 0:
        raise EmptyGridError(
            f"exclusion disks with delta = {delta:g} cover the sampled square; "
            f"lower delta"
        )
    pts.flags.writeable = False
    LM.flags.writeable = False
    return ExclusionGrid(points=pts, delta=float(delta), resolution=int(resolution),
                         factors=LM)


def _fit_logs(L0: np.ndarray, L1: np.ndarray):
    """Extremal (a, b) of partitions from their grid log-moduli, one row each.

    b is the worst two-sided ratio of the log-moduli (at least 1); a is then
    the largest constant keeping both sandwich sides valid at every grid
    point in both orientations, so that swapping the parts leaves (a, b)
    unchanged.  Returns (a, b, index of the grid column attaining b), each
    an array over the rows of 2-D input and a scalar for 1-D input.  One
    partition (1-D input) with a log-modulus numerically zero raises
    DegenerateFitError; batches are not checked, since the search's winner
    is refitted on its own.
    """
    if L0.ndim == 1 and (np.max(L0) > -_FIT_DEGENERACY_TOL
                         or np.max(L1) > -_FIT_DEGENERACY_TOL):
        raise DegenerateFitError("a grid log-modulus is numerically zero")
    ratio = np.maximum(L1 / L0, L0 / L1)
    b = np.maximum(ratio.max(axis=-1), 1.0)
    bc = np.expand_dims(b, -1)
    a = np.exp(np.minimum(bc * L0 - L1, bc * L1 - L0).min(axis=-1))
    return a, b, ratio.argmax(axis=-1)


def comparability_fit(
    part0: PointSequence, part1: PointSequence, grid: ExclusionGrid
) -> tuple[float, float, complex]:
    """Fit (a, b) for the pair (B_0, B_1) on an exclusion grid.

    With L0(z) = log |B_0(z)| and L1 analogous, b is the grid maximum of
    max(L1/L0, L0/L1) clamped below at 1, and a the grid minimum of
    min(exp(b L0 - L1), exp(b L1 - L0)), the largest part-symmetric
    constant below exp(L1 - L0/b) and exp(b L0 - L1) everywhere; the
    sandwich then holds at every grid point with these constants by
    construction.  Returns (a, b, worst_point), the last being the grid
    point attaining b.
    """
    if len(grid) == 0:
        raise EmptyGridError("cannot fit on an empty grid")
    a, b, worst = _fit_logs(blaschke_log_modulus(part0, grid.points),
                            blaschke_log_modulus(part1, grid.points))
    return float(a), float(b), complex(grid.points[worst])


def _search_exhaustive(LM, L_total):
    """Best mask over all nontrivial partitions with index 0 pinned to part0.

    Exact, with lower-bound pruning.  The argmax grid columns of a few
    evenly spaced masks form a witness set S, and b restricted to S is a
    lower bound on a mask's b.  Masks are fully evaluated in increasing
    order of that bound until it exceeds the best b found, with a slack
    for rounding: each L0 entry sums at most n log-moduli of one sign, so
    the witness and full products agree to 2(n - 1) eps relative, which
    moves a ratio r >= 1 by at most 2(n + 1) eps (1 + r) relative; the
    stopping test allows twice that plus 1e-12.  Masks whose bound ties
    the best b are therefore always evaluated, and the (b, -a, part0)
    tie-break is the one full enumeration would apply.
    Returns (mask, masks enumerated, masks fully evaluated).
    """
    n = LM.shape[0]
    codes = np.arange(2 ** (n - 1) - 1, dtype=np.int64)
    masks = np.zeros((codes.size, n), dtype=bool)
    masks[:, 0] = True
    for j in range(1, n):
        masks[:, j] = (codes >> (j - 1)) & 1
    probes = np.unique(np.linspace(0, len(masks) - 1, _WITNESS_PROBES).astype(np.int64))
    L0 = masks[probes].astype(float) @ LM
    witnesses = np.unique(_fit_logs(L0, L_total - L0)[2])
    L0 = masks.astype(float) @ LM[:, witnesses]
    bound = _fit_logs(L0, L_total[witnesses] - L0)[1]
    order = np.argsort(bound, kind="stable")
    rounding = 4.0 * (n + 1) * np.finfo(float).eps
    best = None
    evaluated = 0
    for start in range(0, order.size, _EVAL_CHUNK):
        if best is not None:
            best_b = best[0][0]
            if bound[order[start]] > best_b * (1.0 + 1e-12 + rounding * (1.0 + best_b)):
                break
        chunk = masks[order[start:start + _EVAL_CHUNK]]
        L0 = chunk.astype(float) @ LM
        a, b, _ = _fit_logs(L0, L_total - L0)
        evaluated += len(chunk)
        for row in range(len(chunk)):
            key = (float(b[row]), -float(a[row]),
                   tuple(np.flatnonzero(chunk[row]).tolist()))
            if best is None or key < best[0]:
                best = (key, chunk[row])
    return best[1], len(masks), evaluated


def _search_local(LM, L_total, points):
    """Single-move descent from an alternating seed over increasing |lam|.

    A move flips one point between the parts and wins if it lowers
    (b, -a).  The current mask keeps its part-0 row L0 as the exact row
    sum of LM, and a move is scored on L0 + LM[i] or L0 - LM[i].  Before
    that full fit, the move's b is bounded on the witness columns, the
    argmax columns of the masks fully scored so far: the bound is a max
    over a subset of the same elementwise ratios, so a move whose witness
    b exceeds the current b cannot win and is not fully scored.  A move
    that wins is rescored on its exact row sum, and it is accepted only if
    it still beats the current mask, so the current score is always that
    of an exact row sum and strictly decreases, which ends the descent.
    Returns (mask, masks tried, masks fully scored), the seed counting in
    both.
    """
    n = points.size
    order = np.argsort(np.abs(points), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[0::2]] = True

    def exact():  # exact part-0 row, (b, -a) and argmax column of the mask
        L0 = LM[mask].sum(axis=0)
        a, b, worst = _fit_logs(L0, L_total - L0)
        return L0, (b, -a), worst

    L0, current, worst = exact()
    witnesses = np.array([worst])
    tried = evaluated = 1
    improved = True
    while improved:
        improved = False
        for i in range(n):
            mask[i] = not mask[i]
            size0 = int(mask.sum())
            if 0 < size0 < n:
                tried += 1
                move = np.add if mask[i] else np.subtract
                L0w = move(L0[witnesses], LM[i, witnesses])
                if _fit_logs(L0w, L_total[witnesses] - L0w)[1] <= current[0]:
                    evaluated += 1
                    cand = move(L0, LM[i])
                    a, b, worst = _fit_logs(cand, L_total - cand)
                    if worst not in witnesses:
                        witnesses = np.append(witnesses, worst)
                    if (b, -a) < current:
                        L0_exact, score, _ = exact()
                        if score < current:
                            L0, current = L0_exact, score
                            improved = True
                            continue
            mask[i] = not mask[i]
    if not mask[0]:
        mask = ~mask
    return mask, tried, evaluated


def decompose(seq: PointSequence, delta: float, grid_resolution: int = 128) -> Decomposition:
    """Split a sequence to minimize the fitted sandwich exponent b.

    The final bound the constants feed degrades with b, so small b is the
    quality measure; ties prefer larger a, then the lexicographically
    smallest part0.  Up to 16 points the search is exact: every nontrivial
    partition gets a lower bound on b from a few witness grid points, and
    partitions are swept over the full grid in increasing bound order until
    the bound exceeds the best b found.  Beyond 16 points a deterministic
    first-improvement single-move search runs from an alternating seed,
    fully scoring only the moves whose witness bound does not rule them
    out.  Both searches and the fit read the one ``log_factors`` matrix
    that :func:`exclusion_grid` built to place the grid; the winner's
    (a, b) are fitted from its row sums, equal to
    :func:`comparability_fit` on the two parts.  The returned
    decomposition records which search ran and how many partitions it
    enumerated and fully evaluated.  Grid errors from the delta choice
    propagate.
    """
    n = len(seq)
    if n < 2:
        raise PointSetError("decomposition needs at least two points")
    grid = exclusion_grid(seq, delta, grid_resolution)
    LM = grid.factors
    L_total = LM.sum(axis=0)
    if n <= EXHAUSTIVE_LIMIT:
        method = "exhaustive"
        mask, enumerated, evaluated = _search_exhaustive(LM, L_total)
    else:
        method = "local"
        mask, enumerated, evaluated = _search_local(LM, L_total, seq.points)
    a, b, worst = _fit_logs(LM[mask].sum(axis=0), LM[~mask].sum(axis=0))
    return Decomposition(
        base=seq, part0=tuple(np.flatnonzero(mask).tolist()),
        part1=tuple(np.flatnonzero(~mask).tolist()), delta=float(delta),
        fitted_a=float(a), fitted_b=float(b), fit_grid_size=len(grid),
        fit_grid_resolution=int(grid_resolution),
        worst_point=complex(grid.points[worst]),
        search=method, masks_enumerated=enumerated, masks_evaluated=evaluated,
    )


def corresponding_decomposition(seq: PointSequence, grid_resolution: int = 128) -> Decomposition:
    """The splitting at delta = (separation constant) / 2."""
    if len(seq) < 2:
        raise PointSetError("decomposition needs at least two points")
    delta0 = separation_constant(seq)
    return decompose(seq, delta0 / 2.0, grid_resolution)
