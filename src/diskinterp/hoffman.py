"""Two-factor splittings of a Blaschke product with rim-fitted comparability.

A splitting Lambda = Lambda_0 u Lambda_1 induces B = B_0 B_1.  On the
region Omega = D minus the closed pseudohyperbolic disks D(lam, delta)
around the zeros, the two factor moduli are power-law comparable:

    a |B_0(z)|^(1/b)  <=  |B_1(z)|  <=  (1/a) |B_0(z)|^b.

With L0 = log |B_0| and L1 = log |B_1|, both harmonic and negative on
Omega and zero on the unit circle, L1 - b L0 and L0 - b L1 are harmonic
on Omega and vanish on the circle.  By the minimum principle they are
nonnegative on Omega exactly when they are nonnegative on the rims
dD(lam, delta) that bound it (Garnett, Bounded Analytic Functions,
Ch. VII).  So the smallest b, the sup over Omega of max(L1/L0, L0/L1), is
a max over n circles; likewise a, the inf over Omega of
exp(min(b L0 - L1, b L1 - L0)), is a min over the rims and the unit
circle, where the exponent is 0.  This module samples every rim at
128 points, keeps the samples outside every other disk, fits (a, b) on
them and refines b by golden-section search on the arc around the sample
that attains it.  ``decompose`` searches the partitions of a sequence for
the split with the smallest sampled b: exactly up to 16 points, by
enumerating every partition and pruning with lower bounds on b from a few
witness samples, and by deterministic local search beyond, pruned on
witness samples too; a declared split skips the search.  One
``blaschke.log_factors`` matrix over the rim samples places them; the
search scores partitions on it and ``decompose`` fits the split's (a, b)
from it.  b comes from ``_fit_b`` and a from ``_fit_a``, which runs only
where a is read: to break ties in b and for the reported fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import PointSequence, blaschke_log_modulus, log_factors, separation_constant
from .errors import DegenerateFitError, EmptyGridError, PointSetError
from .geometry import pseudo_disk_euclidean, sample_pseudo_circle
from .pick import _golden_max

# Largest sequence searched exactly: all 2^(n-1) - 1 nontrivial partitions
# are bounded on a few witness samples, and only those whose bound does
# not exceed the best b found get a full sweep of the rim samples.
EXHAUSTIVE_LIMIT = 16

# Samples per exclusion-disk rim, equally spaced in Euclidean angle.
_RIM_SAMPLES = 128

# Log-moduli this close to zero cannot anchor a ratio fit.
_FIT_DEGENERACY_TOL = 1e-14

# Evenly spaced partition codes whose argmax rim samples form the
# witness set of the pruned exhaustive search.
_WITNESS_PROBES = 10

# Partitions fully evaluated per vectorized batch in the pruned search.
_EVAL_CHUNK = 8


@dataclass(frozen=True)
class ExclusionGrid:
    """Samples of the rims dD(lam, delta) that lie outside every other disk.

    ``rim`` holds the index of the sequence point whose rim each sample
    lies on and ``theta`` the sample's angle about that rim's Euclidean
    center.  ``factors`` is the ``log_factors`` matrix of the sequence
    over ``points`` (one row per sequence point, one column per sample),
    the matrix the exclusion test read.  All arrays are read-only.
    """

    points: np.ndarray
    delta: float
    factors: np.ndarray
    rim: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class Decomposition:
    """A two-part splitting of a sequence with its fitted sandwich constants.

    ``fitted_b`` is the refined b, attained at ``worst_point`` on the rim
    of point ``worst_rim``; ``b_gap`` is how far refinement raised it above
    the largest sampled ratio, so ``fitted_b - b_gap`` is the sampled b the
    search minimized.  ``fit_grid_size`` counts the rim samples kept, of
    ``rim_samples`` per rim.  ``search`` names how the split was found:
    "exhaustive" (every partition enumerated, those whose witness bound
    could win fully evaluated), "local" (single-move descent:
    masks_enumerated counts the masks tried, masks_evaluated those whose
    witness bound could win and were fully scored) or "declared" (given,
    not searched, with both counts zero): ``decompose`` given part0, and
    the default of one built by hand.
    """

    base: PointSequence
    part0: tuple[int, ...]
    part1: tuple[int, ...]
    delta: float
    fitted_a: float
    fitted_b: float
    fit_grid_size: int
    rim_samples: int
    worst_point: complex
    worst_rim: int
    b_gap: float
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


def exclusion_grid(seq: PointSequence, delta: float) -> ExclusionGrid:
    """Rim samples of the disks D(lam, delta) that no other disk contains.

    Each rim is sampled at _RIM_SAMPLES points by ``sample_pseudo_circle``.
    One ``log_factors`` matrix over all samples places them: a sample is
    dropped when another point's row reads below log delta there.  Its own
    row reads log delta to about 1e-10 and is left out of that test.  The
    grid keeps the retained columns of that matrix for the search and the
    fit.  Some sample always survives, whatever delta: the first sample of
    each rim is its point of largest real part, and no other open disk
    contains the one that lies furthest right, since that disk would reach
    further.  ValueError is raised when delta is outside (0, 1).
    """
    n, m = len(seq), _RIM_SAMPLES
    pts = np.concatenate([sample_pseudo_circle(lam, delta, m) for lam in seq.points])
    LM = log_factors(seq.points, pts)
    inside = LM < np.log(delta)
    inside.reshape(n, n, m)[np.arange(n), np.arange(n)] = False
    keep = ~inside.any(axis=0)
    pts, LM = pts[keep], LM.compress(keep, axis=1)  # C order, as the search reads rows
    rim = np.repeat(np.arange(n), m)[keep]
    theta = np.tile(2.0 * np.pi * np.arange(m) / m, n)[keep]
    for array in (pts, LM, rim, theta):
        array.flags.writeable = False
    return ExclusionGrid(points=pts, delta=float(delta), factors=LM, rim=rim, theta=theta)


def _fit_a(b, L0: np.ndarray, L1: np.ndarray):
    """Largest part-symmetric a at exponent b over the columns of L0 and L1.

    The min over the columns of exp(min(b L0 - L1, b L1 - L0)), capped by
    the exponent's value 0 on the unit circle, where both logs vanish; an
    array over the rows of 2-D input and a scalar for 1-D input.
    """
    b = np.expand_dims(b, -1)
    return np.exp(np.minimum(np.minimum(b * L0 - L1, b * L1 - L0).min(axis=-1), 0.0))


def _fit_b(L0: np.ndarray, L1: np.ndarray):
    """Sandwich exponent b of partitions from their log-moduli, one row each.

    b is the worst two-sided ratio max(L1/L0, L0/L1) of the log-moduli over
    the columns, clamped below at 1, so that swapping the parts leaves it
    unchanged.  Returns (b, index of the column attaining it), each an
    array over the rows of 2-D input and a scalar for 1-D input.  One
    partition (1-D input) with a log-modulus numerically zero raises
    DegenerateFitError; batches are not checked, since the search's winner
    is refitted on its own.
    """
    if L0.ndim == 1 and (np.max(L0) > -_FIT_DEGENERACY_TOL
                         or np.max(L1) > -_FIT_DEGENERACY_TOL):
        raise DegenerateFitError("a log-modulus is numerically zero")
    ratio = np.maximum(L1 / L0, L0 / L1)
    return np.maximum(ratio.max(axis=-1), 1.0), ratio.argmax(axis=-1)


def comparability_fit(
    part0: PointSequence, part1: PointSequence, grid: ExclusionGrid
) -> tuple[float, float, complex]:
    """Fit (a, b) for the pair (B_0, B_1) on the points of a grid, from the parts.

    With L0(z) = log |B_0(z)| and L1 analogous, b is the maximum over
    ``grid.points`` of max(L1/L0, L0/L1) clamped below at 1, and a the
    minimum of min(exp(b L0 - L1), exp(b L1 - L0)), the largest
    part-symmetric constant below exp(L1 - L0/b) and exp(b L0 - L1)
    everywhere; the sandwich then holds at every point with these
    constants by construction.  Returns (a, b, worst_point), the last
    being the point attaining b.

    The independent reference fit, from the parts evaluated afresh and
    without refinement: on the rim samples of ``exclusion_grid`` its b is
    the sampled b that ``decompose`` minimizes.  Nothing in the package
    calls it: it stays because acceptance criterion 6 uses it as the
    independent fit and the benchmark tracer times it by name.
    """
    if len(grid) == 0:
        raise EmptyGridError("cannot fit on an empty grid")
    L0 = blaschke_log_modulus(part0, grid.points)
    L1 = blaschke_log_modulus(part1, grid.points)
    b, worst = _fit_b(L0, L1)
    return float(_fit_a(b, L0, L1)), float(b), complex(grid.points[worst])


def _search_exhaustive(LM, L_total):
    """Best mask over all nontrivial partitions with index 0 pinned to part0.

    Exact, with lower-bound pruning.  The argmax columns of a few
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
    witnesses = np.unique(_fit_b(L0, L_total - L0)[1])
    L0 = masks.astype(float) @ LM[:, witnesses]
    bound = _fit_b(L0, L_total[witnesses] - L0)[0]
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
        b = _fit_b(L0, L_total - L0)[0]
        a = _fit_a(b, L0, L_total - L0)
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
    b exceeds the current b cannot win and is not fully scored.  The full
    fit finds b first, and a only when b does not exceed the current b,
    since a larger b loses on b alone.  A move that wins is rescored on
    its exact row sum, and it is accepted only if it still beats the
    current mask, so the current score is always that of an exact row sum
    and strictly decreases, which ends the descent.
    Returns (mask, masks tried, masks fully scored), the seed counting in
    both.
    """
    n = points.size
    order = np.argsort(np.abs(points), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[0::2]] = True

    def exact():  # exact part-0 row, (b, -a) and argmax column of the mask
        L0 = LM[mask].sum(axis=0)
        b, worst = _fit_b(L0, L_total - L0)
        return L0, (b, -_fit_a(b, L0, L_total - L0)), worst

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
                if _fit_b(L0w, L_total[witnesses] - L0w)[0] <= current[0]:
                    evaluated += 1
                    cand = move(L0, LM[i])
                    b, worst = _fit_b(cand, L_total - cand)
                    if worst not in witnesses:
                        witnesses = np.append(witnesses, worst)
                    if b <= current[0] and (b, -_fit_a(b, cand, L_total - cand)) < current:
                        L0_exact, score, _ = exact()
                        if score < current:
                            L0, current = L0_exact, score
                            improved = True
                            continue
            mask[i] = not mask[i]
    if not mask[0]:
        mask = ~mask
    return mask, tried, evaluated


def _refine_b(seq: PointSequence, grid: ExclusionGrid, mask: np.ndarray, b: float,
              worst: int) -> tuple[float, complex]:
    """Golden-section max of the log-modulus ratio on the rim arc around a sample.

    The arc spans one sample spacing either side of sample ``worst``; each
    trial point evaluates every factor at once, inline, since a
    ``log_factors`` column per trial made a refinement about 6 times
    slower at n = 10 and 17 times at n = 32.  Points of the arc inside
    another disk lie outside Omega and score -inf.  Returns the larger of
    ``b`` and the best ratio found, with the point attaining it.
    """
    points = seq.points
    rim = int(grid.rim[worst])
    disk = pseudo_disk_euclidean(points[rim], grid.delta)
    others = np.arange(len(points)) != rim
    log_delta = np.log(grid.delta)
    best = [b, complex(grid.points[worst])]

    def ratio(t: float) -> float:
        z = disk.euclid_center + disk.euclid_radius * np.exp(1j * t)
        logs = np.log(np.abs((z - points) / (1.0 - np.conj(points) * z)))
        if logs[others].min() < log_delta:
            return -np.inf
        L0, L1 = logs[mask].sum(), logs[~mask].sum()
        r = float(max(L1 / L0, L0 / L1))
        if r > best[0]:
            best[:] = r, complex(z)
        return r

    step = 2.0 * np.pi / _RIM_SAMPLES
    theta = float(grid.theta[worst])
    _golden_max(ratio, theta - step, theta + step, step / 64.0)
    return best[0], best[1]


def decompose(seq: PointSequence, delta: float, *, part0=None) -> Decomposition:
    """Split a sequence to minimize the sampled sandwich exponent b.

    The final bound the constants feed degrades with b, so small b is the
    quality measure; ties prefer larger a, then the lexicographically
    smallest part0.  Up to 16 points the search is exact: every nontrivial
    partition gets a lower bound on b from a few witness rim samples, and
    partitions are swept over all samples in increasing bound order until
    the bound exceeds the best b found.  Beyond 16 points a deterministic
    first-improvement single-move search runs from an alternating seed,
    fully scoring only the moves whose witness bound does not rule them
    out.  A declared ``part0`` skips the search and keeps its orientation;
    it must be distinct indices in range(n) that leave part1 nonempty, or
    PointSetError is raised before any rim is sampled.  Both searches and
    the fit read the one ``log_factors`` matrix that
    :func:`exclusion_grid` built to place the rim samples; the split's
    sampled b equals that of :func:`comparability_fit` on the two parts.  The
    winner's b is then refined on the arc around the sample attaining it
    and a recomputed at the refined b.  The returned decomposition records
    which search ran ("declared" for a given split), how many partitions
    it enumerated and fully evaluated, the rim attaining b and the
    refinement's gap.  A delta outside (0, 1) raises ValueError.
    """
    n = len(seq)
    if n < 2:
        raise PointSetError("decomposition needs at least two points")
    if part0 is not None:
        idx = np.asarray(part0)
        if (idx.ndim != 1 or idx.dtype.kind not in "iu" or not 0 < idx.size < n
                or idx.min() < 0 or idx.max() >= n or np.unique(idx).size < idx.size):
            raise PointSetError(f"part0 must be distinct indices in range({n}) "
                                f"leaving part1 nonempty, got {idx.tolist()}")
        mask = np.isin(np.arange(n), idx)
    grid = exclusion_grid(seq, delta)
    LM = grid.factors
    if part0 is not None:
        method, enumerated, evaluated = "declared", 0, 0
    elif n <= EXHAUSTIVE_LIMIT:
        method = "exhaustive"
        mask, enumerated, evaluated = _search_exhaustive(LM, LM.sum(axis=0))
    else:
        method = "local"
        mask, enumerated, evaluated = _search_local(LM, LM.sum(axis=0), seq.points)
    L0, L1 = LM[mask].sum(axis=0), LM[~mask].sum(axis=0)
    sampled_b, worst = _fit_b(L0, L1)
    b, worst_point = _refine_b(seq, grid, mask, float(sampled_b), int(worst))
    return Decomposition(
        base=seq, part0=tuple(np.flatnonzero(mask).tolist()),
        part1=tuple(np.flatnonzero(~mask).tolist()), delta=float(delta),
        fitted_a=float(_fit_a(b, L0, L1)), fitted_b=b, fit_grid_size=len(grid),
        rim_samples=_RIM_SAMPLES, worst_point=worst_point,
        worst_rim=int(grid.rim[worst]), b_gap=b - float(sampled_b),
        search=method, masks_enumerated=enumerated, masks_evaluated=evaluated,
    )


def corresponding_decomposition(seq: PointSequence) -> Decomposition:
    """The splitting at delta = (separation constant) / 2."""
    return decompose(seq, separation_constant(seq) / 2.0)
