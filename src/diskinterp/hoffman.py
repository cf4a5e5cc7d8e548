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
circle, where the exponent is 0.  Each rim is the image under b_lam^-1
of one circle |w| = delta, where a factor log is log |b_a(w)|, a =
b_lam(mu).  This module samples that circle at 128 points for every rim
at once, keeps the samples outside every other disk, fits (a, b) on them
and refines b on the arc of 129 points around the sample attaining it, a
64th of a sample spacing apart.  ``decompose`` searches the partitions
of a sequence for the split with the smallest sampled b: exactly up to
16 points, by enumerating every partition and pruning with lower bounds
on b from a few witness samples, and by deterministic local search
beyond, pruned on witness samples too; a declared split skips the
search.  The search scores partitions on the rim table, each part's row
sums taken on their own, and ``decompose`` fits the split's (a, b) from
it.  b comes from ``_fit_b`` and a from ``_fit_a``, which runs only
where a is read: to break ties in b and for the reported fit.

No step loops in Python over points or moves where numpy can broadcast:
all rims are sampled in one table, the exhaustive search bounds every
mask with one column-wise max over the witness samples, and the local
search screens all remaining moves of a sweep in one batch.  Each of
these computes the floats the per-point and per-move loops computed, so
the splits, counts and fits are those of the loops bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import PointSequence, _log_table, blaschke_log_modulus, separation_constant
from .errors import DegenerateFitError, EmptyGridError, PointSetError
from .geometry import _mobius_inverse, _refinement_arc, _rotation

# Largest sequence searched exactly: all 2^(n-1) - 1 nontrivial partitions
# are bounded on a few witness samples, and only those whose bound does
# not exceed the best b found get a full sweep of the rim samples.
EXHAUSTIVE_LIMIT = 16

# Samples per exclusion-disk rim, equally spaced in the rim's Mobius angle.
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

    ``rim`` holds the index of the sequence point lam whose rim each sample
    lies on and ``theta`` its Mobius angle there: the sample is
    b_lam^-1(delta e^(i theta)).  ``factors`` holds the factor logs the
    exclusion test read, one row per sequence point and one column per
    sample.  All arrays are read-only.
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

    ``fitted_b`` is the refined b, the largest ratio on the dense arc
    around the worst rim sample, attained at ``worst_point`` on the rim of
    point ``worst_rim``; ``b_gap`` is how far refinement raised it above
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


def _rim_samples(seq: PointSequence, rims, delta: float, theta: np.ndarray):
    """Samples z = b_lam^-1(delta e^(i theta[j])) on the rims of lam = seq.points[rims].

    Returns (z, logs, outside), flat over (rim, j) in that order: the
    samples, log |b_mu(z)| with one row per point mu = seq.points[k], and
    whether no other disk contains the sample, where no other row reads
    below log delta.  log |b_mu(z)| = log |b_a(w)| with a = b_lam(mu),
    w = delta e^(i theta[j]), by Mobius invariance (Garnett, Ch. I): the
    kernel takes the centres a, their gaps 1 - |a|^2 = A / (D + A)
    (D = |lam - mu|^2, A the points' gaps' product) and the gap
    (1 - delta)(1 + delta) of |w| = delta; nothing cancels.  Own factors
    (a = 0) read log delta exactly; z comes from the closed-form inverse.
    """
    points, gaps = seq.points, seq._gaps
    lam, lam_gap = points[rims][:, None], gaps[rims][:, None]
    diff = points - lam
    d = diff.real * diff.real + diff.imag * diff.imag
    A = lam_gap * gaps
    # 1 - conj(lam) mu without cancellation: its real part is (D + both gaps) / 2,
    # its imaginary part Im(lam) dx - Re(lam) dy with dx + i dy = mu - lam.
    q = 0.5 * (d + lam_gap + gaps) + 1j * (lam.imag * diff.real - lam.real * diff.imag)
    a, a_gap = (_rotation(lam)[2] * diff / q).T, (A / (d + A)).T
    w = delta * np.exp(1j * theta)
    logs = _log_table(a[:, :, None], a_gap[:, :, None], w.real, w.imag,
                      (1.0 - delta) * (1.0 + delta))
    logs[rims, np.arange(a.shape[1])] = np.log(delta)
    logs = logs.reshape(len(points), -1)
    return _mobius_inverse(lam, w).ravel(), logs, ~(logs < np.log(delta)).any(axis=0)


def exclusion_grid(seq: PointSequence, delta: float) -> ExclusionGrid:
    """Rim samples of the disks D(lam, delta) that no other disk contains.

    Sample j of every rim is at Mobius angle 2 pi j / _RIM_SAMPLES
    (``_rim_samples``, one table for all rims).  Some sample always
    survives, whatever delta: sample 0, b_lam^-1(+delta), is its rim's
    point of largest modulus, (|lam| + delta) / (1 + |lam| delta), which
    grows with |lam|, so no other open disk reaches sample 0 of the rim of
    the point of largest modulus.  A delta outside (0, 1) raises ValueError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    n, m = len(seq), _RIM_SAMPLES
    theta = 2.0 * np.pi * np.arange(m) / m
    pts, LM, keep = _rim_samples(seq, np.arange(n), delta, theta)
    rim, theta = np.repeat(np.arange(n), m), np.tile(theta, n)
    if not keep.all():
        pts, rim, theta = pts[keep], rim[keep], theta[keep]
        LM = LM.compress(keep, axis=1)  # C order, as the search reads rows
    for array in (pts, LM, rim, theta):
        array.flags.writeable = False
    return ExclusionGrid(points=pts, delta=float(delta), factors=LM, rim=rim, theta=theta)


def _fit_a(b, L0: np.ndarray, L1: np.ndarray):
    """Largest part-symmetric a at exponent b over the columns of L0 and L1.

    The min over the columns of exp(min(b L0 - L1, b L1 - L0)), capped by
    the exponent's value 0 on the unit circle, where both logs vanish; an
    array over the rows of 2-D input and a scalar for 1-D input.
    """
    b = np.asarray(b)[..., None]
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
    the sampled b that ``decompose`` minimizes, to rounding.  Nothing in
    the package calls it: it stays because acceptance criterion 6 uses it
    as the independent fit and the benchmark tracer times it by name.
    """
    if len(grid) == 0:
        raise EmptyGridError("cannot fit on an empty grid")
    L0 = blaschke_log_modulus(part0, grid.points)
    L1 = blaschke_log_modulus(part1, grid.points)
    b, worst = _fit_b(L0, L1)
    return float(_fit_a(b, L0, L1)), float(b), complex(grid.points[worst])


def _sorted_below(bound: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of the bounds at or below threshold, in stable increasing order.

    They are the first entries of np.argsort(bound, kind="stable"): every
    bound at or below the threshold sorts before every bound above it, and
    the indices come in increasing order, so ties keep the full sort's
    order.
    """
    rows = np.flatnonzero(bound <= threshold)
    return rows[np.argsort(bound[rows], kind="stable")]


def _part_sums(masks: np.ndarray, LM: np.ndarray):
    """(L0, L1): the rows of LM summed over part 0 and over part 1 of each mask.

    Each part is summed on its own, never as the total minus the other
    part: near the unit circle one part's logs can lie below the rounding
    of the total, and the difference then has no correct digit, or is 0.
    """
    weights = masks.astype(float)
    L0 = weights @ LM
    return L0, np.subtract(1.0, weights, out=weights) @ LM


def _search_exhaustive(LM):
    """Best mask over all nontrivial partitions with index 0 pinned to part0.

    Exact, with lower-bound pruning.  The argmax columns of a few
    evenly spaced masks form a witness set S, and b restricted to S is a
    lower bound on a mask's b, taken for all masks at once as a max over
    the columns of S (a max is exact, so the order does not matter).
    Masks are fully evaluated, _EVAL_CHUNK at a time, in increasing
    order of that bound until it exceeds the best b found, with a slack
    for rounding: each L0 entry sums at most n log-moduli of one sign, so
    the witness and full products agree to 2(n - 1) eps relative, which
    moves a ratio r >= 1 by at most 2(n + 1) eps (1 + r) relative; the
    stopping test allows twice that plus 1e-12.  Masks whose bound ties
    the best b are therefore always evaluated, and the (b, -a, part0)
    tie-break is the one full enumeration would apply; a and part0 are
    computed only for the rows of a chunk whose b does not exceed the
    least b found so far, since the others lose on b alone.

    Only a prefix of the masks is sorted (``_sorted_below``): those at or
    below the k-th smallest bound, found by ``np.partition``, with k eight
    chunks at first and doubled whenever a chunk runs past the prefix.
    That is the start of the stable sort of every bound, so the masks
    evaluated are the ones a full sort gives, while the search stops after
    a few chunks of the 2^(n-1) - 1.  Off the unit circle every factor log
    is negative, so no bound is nan.
    Returns (mask, masks enumerated, masks fully evaluated).
    """
    n = LM.shape[0]
    codes = np.arange(2 ** (n - 1) - 1, dtype="<u4")
    # Point 0 is in part 0, and point j when bit j - 1 of the mask's code is set.
    bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 4), axis=1, count=n - 1,
                         bitorder="little")
    masks = np.concatenate((np.ones((codes.size, 1), dtype=bool), bits.view(bool)), axis=1)
    probes = np.unique(np.linspace(0, len(masks) - 1, _WITNESS_PROBES).astype(np.int64))
    witnesses = np.unique(_fit_b(*_part_sums(masks[probes], LM))[1])
    L0, L1 = _part_sums(masks, LM[:, witnesses])
    bound = np.ones(len(masks))
    for l0, l1 in zip(L0.T, L1.T):
        np.maximum(bound, np.maximum(l1 / l0, l0 / l1), out=bound)
    rounding = 4.0 * (n + 1) * np.finfo(float).eps
    order = np.empty(0, dtype=np.int64)
    best = None
    evaluated = 0
    for start in range(0, bound.size, _EVAL_CHUNK):
        if order.size < min(start + _EVAL_CHUNK, bound.size):  # extend the sorted prefix
            k = min(max(start + _EVAL_CHUNK, 2 * order.size, 8 * _EVAL_CHUNK), bound.size)
            order = _sorted_below(bound, np.partition(bound, k - 1)[k - 1])
        rows = order[start:start + _EVAL_CHUNK]
        if best is not None:
            best_b = best[0][0]
            if bound[rows[0]] > best_b * (1.0 + 1e-12 + rounding * (1.0 + best_b)):
                break
        L0, L1 = _part_sums(masks[rows], LM)
        b = _fit_b(L0, L1)[0]
        evaluated += len(rows)
        least = float(b.min()) if best is None else min(best_b, float(b.min()))
        contenders = ~(b > least)  # a larger b loses on b alone; a nan b never wins
        rows, L0, L1, b = rows[contenders], L0[contenders], L1[contenders], b[contenders]
        for row, b_row, a_row in zip(rows, b.tolist(), _fit_a(b, L0, L1).tolist()):
            key = (b_row, -a_row, tuple(np.flatnonzero(masks[row]).tolist()))
            if best is None or key < best[0]:
                best = (key, masks[row])
    return best[1], len(masks), evaluated


def _screen(L0, L1, sign, LM, cols):
    """Witness b and degeneracy of the moves (L0 + sign[i] LM[i], L1 - sign[i] LM[i]).

    The rows are scored on the columns ``cols`` only: the b of each move
    there, clamped below at 1 as ``_fit_b`` clamps it, and whether a part's
    log-modulus is numerically zero there, where ``_fit_b`` would raise.
    A move that empties a part reads nonsense, so the division runs under
    ``np.errstate``; the caller skips those rows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        step = sign[:, None] * LM[:, cols]
        l0, l1 = L0[cols] + step, L1[cols] - step
        bound = np.maximum(np.maximum(l1 / l0, l0 / l1).max(axis=1), 1.0)
        degenerate = (np.maximum(l0, l1) > -_FIT_DEGENERACY_TOL).any(axis=1)
    return bound, degenerate


def _search_local(LM, points):
    """Single-move descent from an alternating seed over increasing |lam|.

    A move flips one point between the parts and wins if it lowers
    (b, -a).  The current mask keeps its part rows L0 and L1 as the exact
    row sums of LM over each part, and a move is scored on L0 + s LM[i] and
    L1 - s LM[i], s = +-1.  Before that full fit, the move's b is bounded
    on the witness columns, the
    argmax columns of the masks fully scored so far: the bound is a max
    over a subset of the same elementwise ratios, so a move whose witness
    b exceeds the current b cannot win and is not fully scored.  The full
    fit finds b first, and a only when b does not exceed the current b,
    since a larger b loses on b alone.  A move that wins is rescored on
    its exact row sum, and it is accepted only if it still beats the
    current mask, so the current score is always that of an exact row sum
    and strictly decreases, which ends the descent.

    The moves are tried in index order, sweep after sweep, but screened
    in batches: the moves from the current index to n - 1 are bounded
    together on the witness columns (``_screen``).  The first move that passes
    is fully scored.  A new witness column is folded into the remaining
    bounds with one max, and an accepted move starts a new batch at the
    next index, so every move is screened against the state and
    witnesses that a move-by-move loop would use.  A move with a
    log-modulus numerically zero on a witness column is fully scored,
    where ``_fit_b`` raises DegenerateFitError, at the same move as such a
    loop would; moves that would empty a part are neither tried nor
    counted.
    Returns (mask, masks tried, masks fully scored), the seed counting in
    both.
    """
    n = points.size
    order = np.argsort(np.abs(points), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[0::2]] = True

    def exact():  # exact part rows, (b, -a) and argmax column of the mask
        L0, L1 = LM[mask].sum(axis=0), LM[~mask].sum(axis=0)
        b, worst = _fit_b(L0, L1)
        return L0, L1, (b, -_fit_a(b, L0, L1)), worst

    L0, L1, current, worst = exact()
    witnesses = [worst]
    tried = evaluated = 1
    improved = True
    while improved:
        improved = False
        start = 0
        while start < n:
            # Screen the moves start, ..., n - 1 of the current mask in one batch.
            sign = np.where(mask[start:], -1.0, 1.0)  # a move adds sign * LM[i] to L0
            size0 = np.count_nonzero(mask) + sign
            legal = (size0 > 0) & (size0 < n)  # no move may empty a part
            bound, degenerate = _screen(L0, L1, sign, LM[start:], witnesses)
            k, end = -1, n
            while end == n:
                # A degenerate move is fully fitted, where _fit_b raises.
                hits = np.flatnonzero(legal[k + 1:] & (degenerate[k + 1:]
                                                       | (bound[k + 1:] <= current[0])))
                if not hits.size:
                    break
                k += 1 + int(hits[0])
                i = start + k
                evaluated += 1
                mask[i] = not mask[i]
                cand0, cand1 = L0 + sign[k] * LM[i], L1 - sign[k] * LM[i]
                b, worst = _fit_b(cand0, cand1)
                if worst not in witnesses:  # fold the new column into the batch's bounds
                    witnesses.append(worst)
                    column = _screen(L0, L1, sign, LM[start:], [worst])
                    np.maximum(bound, column[0], out=bound)
                    degenerate |= column[1]
                if b <= current[0] and (b, -_fit_a(b, cand0, cand1)) < current:
                    L0_exact, L1_exact, score, _ = exact()
                    if score < current:  # accepted: screen again from the next move
                        L0, L1, current, improved, end = L0_exact, L1_exact, score, True, i + 1
                        continue
                mask[i] = not mask[i]
            tried += int(np.count_nonzero(legal[:end - start]))
            start = end
    if not mask[0]:
        mask = ~mask
    return mask, tried, evaluated


def _refine_b(seq: PointSequence, grid: ExclusionGrid, mask: np.ndarray,
              worst: int) -> tuple[float, complex]:
    """Largest log-modulus ratio on the refinement arc around a rim sample.

    The arc spans one sample spacing either side of sample ``worst`` on its
    rim's circle |w| = delta, at 2 _ARC_STEPS + 1 Mobius angles
    (``geometry._refinement_arc``), sampled by ``_rim_samples`` as the grid
    was.  Arc points inside another disk lie outside Omega and are dropped,
    as ``exclusion_grid`` drops samples.  Returns the largest ratio on the
    arc, with the point attaining it: at least the sampled b, since j = 0
    is the sample itself, on the grid's floats.
    """
    rim = int(grid.rim[worst])
    arc = _refinement_arc(float(grid.theta[worst]), 2.0 * np.pi / _RIM_SAMPLES)
    z, logs, outside = _rim_samples(seq, [rim], grid.delta, arc)
    z, logs = z[outside], logs[:, outside]
    L0, L1 = logs[mask].sum(axis=0), logs[~mask].sum(axis=0)
    ratio = np.maximum(L1 / L0, L0 / L1)
    k = int(np.argmax(ratio))
    return float(ratio[k]), complex(z[k])


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
    the fit read the one rim table that :func:`exclusion_grid` built to
    place the rim samples; the split's sampled b is that of
    :func:`comparability_fit` on the two parts, to rounding.  The winner's
    b is then refined to the largest ratio on 129 points of the
    arc around the sample attaining it, a 64th of a sample spacing apart,
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
        mask, enumerated, evaluated = _search_exhaustive(LM)
    else:
        method = "local"
        mask, enumerated, evaluated = _search_local(LM, seq.points)
    L0, L1 = LM[mask].sum(axis=0), LM[~mask].sum(axis=0)
    sampled_b, worst = _fit_b(L0, L1)
    b, worst_point = _refine_b(seq, grid, mask, int(worst))
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
