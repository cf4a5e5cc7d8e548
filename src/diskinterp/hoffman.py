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
16 points, and by deterministic local search beyond; a declared split
skips the search.  Both searches fully score one partition at a time
and screen the rest on witness samples, the worst samples of the
partitions scored so far.  They score partitions on the rim table, each
part's row sums taken on their own, the local search once per move on
exact part sums (``_part_sums``), and ``decompose`` fits the split's
(a, b) from it.  b comes from ``_fit_b`` and a from ``_fit_a``, which
breaks ties in b.  Neither raises; ``decompose`` checks the split it
returns.

The exhaustive search returns the split that a full fit of every
partition would, ties broken the same way, since a witness bound never
exceeds a partition's b by more than the rounding its stopping test
allows for.  The local search returns a split that no single move
improves as it scores moves, reached from a fixed seed in a fixed move
order, so its split and counts depend on the rim table alone.  Neither
search loops in Python over rim samples or over the partitions it only
screens: all rims are sampled in one table, and each witness sample
updates every screened bound in one vectorized step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import PointSequence, _log1p_ratio, blaschke_log_modulus, separation_constant
from .errors import DegenerateFitError, EmptyGridError, PointSetError
from .geometry import _mobius_inverse, _refinement_arc, _rotation

# Largest sequence searched exactly: all 2^(n-1) - 1 nontrivial partitions
# carry a witness bound, so the search holds one float bound per split plus
# one pass's sums.
EXHAUSTIVE_LIMIT = 16

# Samples per exclusion-disk rim, equally spaced in the rim's Mobius angle.
_RIM_SAMPLES = 128

# Log-moduli this close to zero cannot anchor a ratio fit.
_FIT_DEGENERACY_TOL = 1e-14


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
    "exhaustive" (the best of every partition: masks_enumerated counts
    them all, masks_evaluated those fully scored before no other could
    still win), "local" (single-move descent: masks_enumerated counts the
    masks tried, masks_evaluated those whose witness bound could win and
    were fully scored) or "declared" (given, not searched, with both
    counts zero): ``decompose`` given part0, and the default of one built
    by hand.
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
    below log delta.  log |b_mu(z)| = log |b_a(w)| = -1/2 log1p(A / D)
    (``blaschke._log1p_ratio``), a = b_lam(mu), w = delta e^(i theta[j]),
    by Mobius invariance (Garnett, Ch. I).  A = (1 - |a|^2)(1 - delta^2) is
    one number per centre, and D = |w - a|^2 one einsum, which calls no
    BLAS, of each centre's (|a|^2 + delta^2, -2 delta Re a, -2 delta Im a)
    with the circle's (1, cos theta, sin theta); |a|^2 and 1 - |a|^2 are
    D' / (D' + A') and A' / (D' + A') for the points' D' = |lam - mu|^2 and
    gap product A'.  Own factors read log delta exactly; z comes from the
    closed-form inverse.

    Error, first order in u = eps / 2, at the exact rim point of the float
    theta: from ``geometry._d_and_a``'s 4u on D' and 3u on A', |a|^2 carries
    10u, 1 - |a|^2 9u and A 13u; a carries 23u of |a|, cos and sin an ulp
    each.  D's terms total at most S = (|a| + delta)^2, on which they carry
    13u and a's rounding 11.5u, and D >= (|a| - delta)^2, so D carries
    24.5u K, K = ((|a| + delta) / (|a| - delta))^2 the cancellation factor;
    with A / D and log1p, each entry is within (8 + 12.25 K) eps.  At the
    default delta = sep / 2, |a| >= 2 delta and K <= 9: 118 eps (the
    50-digit tests read at most 9).  Above it K grows as delta nears |a|,
    but a kept sample has D >= delta^2 (1 - |a| delta)^2, so there
    K <= ((|a| + delta) / (delta (1 - |a| delta)))^2 for every delta.  D
    rounds below 0 only deep inside mu's disk; clamped to 0, it drops the
    sample.
    """
    points, gaps = seq.points, seq._gaps
    lam, lam_gap = points[rims][:, None], gaps[rims][:, None]
    circle = np.exp(1j * theta)
    z = _mobius_inverse(lam, delta * circle).ravel()  # before the table: a lower peak
    diff = points - lam
    d = diff.real * diff.real + diff.imag * diff.imag
    A = lam_gap * gaps
    # 1 - conj(lam) mu without cancellation: its real part is (D + both gaps) / 2,
    # its imaginary part Im(lam) dx - Re(lam) dy with dx + i dy = mu - lam.
    q = 0.5 * (d + lam_gap + gaps) + 1j * (lam.imag * diff.real - lam.real * diff.imag)
    a, total = (_rotation(lam)[2] * diff / q).T, (d + A).T
    coef = np.stack((d.T / total + delta * delta, -2.0 * delta * a.real,
                     -2.0 * delta * a.imag), axis=-1).reshape(-1, 3)
    D = np.einsum("ik,kj->ij", coef, np.stack((np.ones_like(theta), circle.real, circle.imag)))
    with np.errstate(divide="ignore", over="ignore"):
        _log1p_ratio(np.maximum(D, 0.0, out=D),
                     (A.T / total * ((1.0 - delta) * (1.0 + delta))).reshape(-1, 1))
    logs = np.multiply(D, -0.5, out=D).reshape(len(points), -1)
    logs.reshape(a.shape + theta.shape)[rims, np.arange(a.shape[1])] = np.log(delta)
    # No log is nan or above 0: A > 0 inside the guard band and D >= 0, and
    # D = 0 gives -inf.  So the least row at or above log delta means none below.
    return z, logs, logs.min(axis=0) >= np.log(delta)


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
    array over the rows of 2-D input and a scalar for 1-D input.  It never
    raises: a numerically zero log-modulus only makes b huge.
    """
    ratio = np.maximum(L1 / L0, L0 / L1)
    return np.maximum(ratio.max(axis=-1), 1.0), ratio.argmax(axis=-1)


def _check_fit(L0: np.ndarray, L1: np.ndarray, where) -> None:
    """Raise DegenerateFitError if a part's log-modulus is numerically zero.

    The message names the part, the value and ``where(column)``.
    """
    for part, L in enumerate((L0, L1)):
        k = int(np.argmax(L))
        if L[k] > -_FIT_DEGENERACY_TOL:
            raise DegenerateFitError(f"a log-modulus is numerically zero: part {part} "
                                     f"reads {L[k]:.4g} {where(k)}")


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
    being the point attaining b.  A numerically zero part raises
    DegenerateFitError.

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
    _check_fit(L0, L1, lambda k: f"at {complex(grid.points[k])}")
    b, worst = _fit_b(L0, L1)
    return float(_fit_a(b, L0, L1)), float(b), complex(grid.points[worst])


def _part_sums(table, mask):
    """table[mask].sum(axis=0) and table[~mask].sum(axis=0), bit for bit.

    Each nonempty part's rows are added into one buffer in index order, as
    numpy's axis-0 sum of a C-ordered copy adds them, without the copy.
    """
    sums = []
    for rows in (mask, ~mask):
        first, *rest = np.flatnonzero(rows).tolist()
        total = table[first].copy()
        for i in rest:
            total += table[i]
        sums.append(total)
    return sums


def _search_exhaustive(LM):
    """Best mask over all nontrivial partitions with index 0 pinned to part0.

    Exact: it returns the mask that fully scoring every mask would, ties
    broken on (b, -a, part0) the same way.  Code c's mask holds point 0
    and each point j with bit j - 1 of c set.  Every mask keeps a witness
    bound, the largest of 1 and max(L1/L0, L0/L1) over the witness
    columns, the argmax columns of the masks fully scored so far.  A
    mask's b is a max over the same ratios on every column, so the bound
    never exceeds it by more than rounding.  Each pass fully scores one
    mask, code 0 first, fitting a only if its b can tie the best, folds
    its argmax column into every bound and moves to the unscored mask of
    least bound, the lowest code among equal bounds.  The column's sums
    over every code's points are subset sums: one product with a 0/1
    table per half of the points 1 .. n - 1, and one broadcast add.  L0
    is column[0] plus code c's sum and L1 the sum of its complement,
    2^(n-1) - 1 - c, so each part is summed on its own, never as the
    total minus the other part: near the unit circle one part's logs can
    lie below the rounding of the total.  The search stops when the least
    unscored bound exceeds the best b found, with a slack for rounding:
    each entry of L0 sums at most n log-moduli of one sign, and in any
    order such a sum is within (n - 1) eps of the exact one, relative, so
    the witness and full sums agree to 2(n - 1) eps relative, which moves
    a ratio r >= 1 by at most 2(n + 1) eps (1 + r) relative; the stopping
    test allows twice that plus 1e-12.  So every mask that could tie the
    best b is scored.  Off the unit circle every factor log is negative,
    so no bound is nan.  Returns (mask, masks enumerated, masks fully
    scored).
    """
    n = LM.shape[0]
    count = 2 ** (n - 1) - 1
    low, high = (n - 1) // 2, n // 2  # bits of a code in each half
    # Row s holds the bits of s: the high half's table, whose leading rows
    # and columns are the low half's.
    table = ((np.arange(2 ** high)[:, None] >> np.arange(high)) & 1).astype(float)
    shifts = np.arange(n)
    bound = np.ones(count)  # inf once scored
    sums = np.empty((2 ** high, 2 ** low))  # each pass's; code (h << low) | l at [h, l]
    flat = sums.reshape(-1)
    l1 = flat[:0:-1]  # L1 of code c: the sum of its complement, 2^(n-1) - 1 - c
    l0, ratio = np.empty(count), np.empty(count)
    rounding = 4.0 * (n + 1) * np.finfo(float).eps
    best, code = None, 0  # best is the (b, -a, part0) key of the best mask scored
    for evaluated in range(1, count + 1):
        weights0 = ((((code << 1) | 1) >> shifts) & 1).astype(float)[None]
        L0, L1 = weights0 @ LM, (1.0 - weights0) @ LM
        b, worst = _fit_b(L0, L1)
        if best is None or b[0] <= best[0]:
            key = (float(b[0]), -float(_fit_a(b, L0, L1)[0]),
                   tuple(np.flatnonzero(weights0).tolist()))
            if best is None or key < best:
                best, best_code = key, code
        bound[code] = np.inf
        column = LM[:, worst[0]]
        np.add((table @ column[low + 1:])[:, None], table[:2 ** low, :low] @ column[1:low + 1],
               out=sums)
        np.add(flat[:count], column[0], out=l0)
        np.divide(l1, l0, out=ratio)
        np.maximum(ratio, np.divide(l0, l1, out=l0), out=ratio)
        np.maximum(bound, ratio, out=bound)
        code = int(np.argmin(bound))
        if bound[code] > best[0] * (1.0 + 1e-12 + rounding * (1.0 + best[0])):
            break
    return ((((best_code << 1) | 1) >> shifts) & 1).astype(bool), count, evaluated


def _search_local(LM, points):
    """Single-move descent from an alternating seed over increasing |lam|.

    A move flips one point between the parts and wins if it lowers
    (b, -a), scored once, on the exact row sums of LM over each part,
    added in index order (``_part_sums``).
    Moves are tried in index order, sweep after sweep, until a sweep
    accepts none, so the result is a mask that no single move improves.
    Each pass screens the moves from the cursor to n - 1 on their witness
    b alone, the b of the move on the witness columns, the argmax columns
    of the masks fully scored so far, from the current sums moved by
    +-LM[i]: a witness b is a max over some of the same ratios, to
    rounding, so a move whose witness b exceeds the current b cannot win.
    The first move that can is fully scored; its argmax column joins the
    witnesses and the cursor moves past it.  A move is accepted iff its
    score is below the current one, so the score strictly decreases and
    the descent ends.  Moves that would empty a part are neither tried
    nor counted.  It never raises: ``decompose`` checks the split it
    returns.
    Returns (mask, masks tried, masks fully scored), the seed counting in
    both.
    """
    n = points.size
    order = np.argsort(np.abs(points), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[0::2]] = True

    def exact():  # exact part rows, (b, -a) and argmax column of the mask
        L0, L1 = _part_sums(LM, mask)
        b, worst = _fit_b(L0, L1)
        return L0, L1, (b, -_fit_a(b, L0, L1)), worst

    L0, L1, current, worst = exact()
    witnesses = [worst]
    tried = evaluated = 1
    start, improved = 0, False
    while start < n or improved:
        if start == n:  # a sweep that accepted a move is followed by another
            start, improved = 0, False
        sign = np.where(mask[start:], -1.0, 1.0)  # a move adds sign * LM[i] to L0
        size0 = np.count_nonzero(mask) + sign
        legal = (size0 > 0) & (size0 < n)  # no move may empty a part
        with np.errstate(divide="ignore", invalid="ignore"):  # moves that empty a part divide by 0
            step = sign[:, None] * LM[start:, witnesses]
            l0, l1 = L0[witnesses] + step, L1[witnesses] - step
            bound = np.maximum(np.maximum(l1 / l0, l0 / l1).max(axis=1), 1.0)
        hits = np.flatnonzero(legal & (bound <= current[0]))
        if not hits.size:  # no move left in this sweep can win
            tried += int(np.count_nonzero(legal))
            start = n
            continue
        k = int(hits[0])
        tried += int(np.count_nonzero(legal[:k + 1]))
        evaluated += 1
        i = start + k
        start = i + 1
        mask[i] = not mask[i]
        cand0, cand1, score, worst = exact()
        if worst not in witnesses:
            witnesses.append(worst)
        if score < current:
            L0, L1, current, improved = cand0, cand1, score, True
            continue
        mask[i] = not mask[i]
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
    as ``exclusion_grid`` drops samples.  Returns the arc's b from
    ``_fit_b``, its largest ratio, with the point attaining it: at least
    the sampled b, since j = 0 is the sample itself, on the grid's floats.
    """
    rim = int(grid.rim[worst])
    arc = _refinement_arc(float(grid.theta[worst]), 2.0 * np.pi / _RIM_SAMPLES)
    z, logs, outside = _rim_samples(seq, [rim], grid.delta, arc)
    z, logs = z[outside], logs[:, outside]
    b, k = _fit_b(*_part_sums(logs, mask))
    return float(b), complex(z[k])


def decompose(seq: PointSequence, delta: float, *, part0=None) -> Decomposition:
    """Split a sequence to minimize the sampled sandwich exponent b.

    The final bound the constants feed degrades with b, so small b is the
    quality measure; ties prefer larger a, then the lexicographically
    smallest part0.  Up to 16 points the search is exact: it returns the
    partition that fully scoring every nontrivial partition would, while
    fully scoring only those whose witness bound, from the worst rim
    samples of the partitions scored before, does not rule them out.
    Beyond 16 points a deterministic first-improvement single-move search
    runs from an alternating seed, screening moves on the same kind of
    witness bound.  A declared ``part0`` skips the search and keeps its
    orientation; it must be distinct indices in range(n) that leave part1
    nonempty, or PointSetError is raised before any rim is sampled.  Both
    searches and the fit read the one rim table that
    :func:`exclusion_grid` built to place the rim samples, summing each
    part row by row, in index order; the split's
    sampled b is that of :func:`comparability_fit` on the two parts, to
    rounding.  The winner's b is then refined to the largest ratio on 129
    points of the arc around the sample attaining it, a 64th of a sample
    spacing apart, and a recomputed at the refined b.  The returned decomposition records
    which search ran ("declared" for a given split), how many partitions
    it enumerated and fully evaluated, the rim attaining b and the
    refinement's gap.  A delta outside (0, 1) raises ValueError.  Neither
    search raises; one check on the split returned, searched or declared,
    raises DegenerateFitError if a part reads numerically zero on a rim.
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
    L0, L1 = _part_sums(LM, mask)
    _check_fit(L0, L1, lambda k: f"on the rim of point {grid.rim[k]}")
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
