"""Sequence generators and the interpolation-to-Carleson bound chain.

The central computation takes a separated sequence, splits it at half the
separation constant, solves the minimal-norm problem for a function that
is 0 on one part and 1 on the other, and then walks the resulting chain of
inequalities down to an explicit lower bound on the Carleson constant:

    step A   |B_0(mu)| >= eta = 1/||f||          for mu in Lambda_1
    step B   |B_1(mu)| >= eta_g = 1/||1 - f||    for mu in Lambda_0
    step C   |B_{Lambda_1 \\ mu}(mu)| >= (a/delta) eta^(1/b)
    final    |B_{Lambda \\ mu}(mu)|   >= (a/delta) eta^(1+1/b)

The norms enter through upper bounds the construction itself certifies:
||f|| <= M, the norm the interpolant was built at, and ||1 - f|| <= 1 + M.
Replacing a norm by an upper bound only lowers eta, eta_g and every bound
below them, so each reported bound still follows from the theorem; a
sampled sup on the circle reads a norm low and could overstate them.

Steps A and B are theorems for exact arithmetic, so they are hard checks;
steps C and the final bound rely on rim-fitted sandwich constants (a, b)
and are recorded with margins.  A counterexample generator produces
sequences of near-collision pairs where the zero/one problem stays cheap
while the separation and Carleson constants collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    PointSequence,
    log_factors,
    per_point_moduli,
    separation_constant,
)
from .errors import (
    BoundaryGuardError,
    NumericalError,
    PackingFailureError,
    PointSetError,
)
from .geometry import pseudohyperbolic_distance
from .hoffman import Decomposition, corresponding_decomposition, decompose
from .pick import BISECT_REL_TOL, PickProblem, solve_pick

# Points may not come within this band of the unit circle.
RADIAL_GUARD = 1e-9

# Below this separation a sequence fails the theorem's hypothesis.
SEPARATION_FLOOR = 1e-6

# Relative tolerance for the hard inequality checks (steps A and B).
HARD_STEP_TOL = 1e-6

_REJECTION_BUDGET = 100_000
_DRAW_BLOCK = 64
_RANDOM_DISK_RADIUS = 0.95


def generate_radial(ratio: float, count: int) -> PointSequence:
    """Points 1 - ratio^n, n = 1..count, along the positive real axis."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if ratio ** count <= RADIAL_GUARD:
        raise BoundaryGuardError(
            f"1 - {ratio:g}^{count} is within {RADIAL_GUARD:g} of the unit circle"
        )
    pts = 1.0 - ratio ** np.arange(1, count + 1, dtype=float)
    return PointSequence(pts.astype(complex), label=f"radial-{ratio:g}-{count}")


def generate_separated_random(count: int, min_sep: float, seed: int) -> PointSequence:
    """Seeded rejection sample with pairwise pseudohyperbolic distance >= min_sep.

    Draws uniformly from the disk of radius 0.95 and keeps a draw only if
    it clears min_sep against every accepted point.  Draws come in blocks
    of _DRAW_BLOCK from one generator call, the same stream as one call
    per draw; a block is tested against the points accepted before it in
    one matrix and against its own earlier keepers in another, in draw
    order.  Deterministic for a fixed seed; raises PackingFailureError
    once the rejection budget is spent, which signals that count points at
    this separation do not fit.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0.0 <= min_sep < 1.0:
        raise ValueError(f"min_sep must lie in [0, 1), got {min_sep!r}")
    rng = np.random.default_rng(seed)
    accepted = np.empty(count, dtype=complex)
    kept = 0
    rejections = 0
    while kept < count:
        u, v = rng.random(2 * _DRAW_BLOCK).reshape(-1, 2).T
        block = _RANDOM_DISK_RADIUS * np.sqrt(u) * np.exp(2j * math.pi * v)
        nearest = np.min(pseudohyperbolic_distance(block[:, None], accepted[None, :kept]),
                         axis=1, initial=np.inf)
        within = pseudohyperbolic_distance(block[:, None], block[None, :])
        for k, z in enumerate(block):
            if nearest[k] < min_sep:
                rejections += 1
                if rejections >= _REJECTION_BUDGET:
                    raise PackingFailureError(
                        f"no room for {count} points at separation {min_sep:g} "
                        f"after {_REJECTION_BUDGET} rejected draws"
                    )
                continue
            accepted[kept] = z
            kept += 1
            if kept == count:
                break
            np.minimum(nearest, within[:, k], out=nearest)
    return PointSequence(accepted, label=f"random-{count}-{min_sep:g}-{seed}")


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters for the near-collision pair family."""

    num_pairs: int
    gap: float
    base_radial_ratio: float

    def __post_init__(self):
        if self.num_pairs < 2:
            raise ValueError(f"num_pairs must be at least 2, got {self.num_pairs}")
        if not 0.0 < self.gap < 1.0:
            raise ValueError(f"gap must lie in (0, 1), got {self.gap!r}")
        if not 0.0 < self.base_radial_ratio < 1.0:
            raise ValueError(
                f"base_radial_ratio must lie in (0, 1), got {self.base_radial_ratio!r}"
            )


def generate_counterexample(spec: CounterexampleSpec) -> tuple[PointSequence, Decomposition]:
    """Pairs sigma_n = {mu_n, mu_n'} with in-pair distance gap, split by parity.

    The base points mu_n = 1 - ratio^n march to the boundary; each partner
    sits at pseudohyperbolic distance gap further out along the real axis.
    Even-numbered pairs form part0 and odd-numbered pairs part1, so both
    factor products are well separated internally while the full sequence
    has separation <= gap.  The split is declared through ``decompose``,
    not searched; its (a, b) are fitted on the exclusion-disk rims with
    delta = 2 * gap for reporting.
    """
    ratio, gap = spec.base_radial_ratio, spec.gap
    if ratio ** spec.num_pairs <= RADIAL_GUARD:
        raise BoundaryGuardError(
            f"1 - {ratio:g}^{spec.num_pairs} is within {RADIAL_GUARD:g} of "
            f"the unit circle"
        )
    base = 1.0 - ratio ** np.arange(1, spec.num_pairs + 1, dtype=float)
    # Shaded a hair below gap so rounding in the realized pseudohyperbolic
    # distance cannot push the separation constant above gap itself.
    g_eff = gap * (1.0 - 1e-12)
    partner = (base + g_eff) / (1.0 + g_eff * base)
    if np.max(partner) >= 1.0 - RADIAL_GUARD:
        raise BoundaryGuardError(
            "a partner point lands within the boundary guard band; "
            "reduce num_pairs or gap"
        )
    pts = np.empty(2 * spec.num_pairs, dtype=complex)
    pts[0::2] = base
    pts[1::2] = partner
    seq = PointSequence(
        pts, label=f"pairs-{spec.num_pairs}-{gap:g}-{ratio:g}"
    )
    part0 = [i for n in range(2, spec.num_pairs + 1, 2) for i in (2 * n - 2, 2 * n - 1)]
    return seq, decompose(seq, 2.0 * gap, part0=part0)


def zero_one_problem(dec: Decomposition) -> PickProblem:
    """Interpolation data f = 0 on part0 and f = 1 on part1."""
    targets = np.zeros(len(dec.base), dtype=complex)
    targets[list(dec.part1)] = 1.0
    return PickProblem(dec.base, targets)


@dataclass(frozen=True)
class ChainRow:
    """One inequality instance: value >= bound up to relative tolerance."""

    point: complex
    value: float
    bound: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.value - self.bound


@dataclass(frozen=True)
class ChainReport:
    """Numerical transcript of the bound chain for one sequence."""

    hypothesis_ok: bool
    delta: float
    c: float
    eta: float
    c_g: float
    eta_g: float
    fitted_a: float
    fitted_b: float
    carleson_direct: float
    step_a: tuple[ChainRow, ...]
    step_b: tuple[ChainRow, ...]
    step_c: tuple[ChainRow, ...]
    final: tuple[ChainRow, ...]

    @property
    def hard_steps_pass(self) -> bool:
        """True when every step A and step B row passed."""
        return all(row.passed for row in self.step_a + self.step_b)


def _row(point: complex, value: float, bound: float) -> ChainRow:
    return ChainRow(
        point=complex(point), value=float(value), bound=float(bound),
        passed=bool(value >= bound * (1.0 - HARD_STEP_TOL)),
    )


def _part_moduli(dec: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """|B_0| and |B_1| at every base point without its own factor, from log_factors."""
    logs = log_factors(dec.base.points, dec.base.points)
    np.fill_diagonal(logs, 0.0)
    return tuple(np.exp(logs[list(part)].sum(axis=0)) for part in (dec.part0, dec.part1))


def verify_theorem_chain(
    seq: PointSequence, rel_tol: float = BISECT_REL_TOL
) -> ChainReport:
    """Run the full inequality chain on one sequence.

    Splits at delta = separation/2, solves the zero/one problem at
    M = min_norm * (1 + 1e-6), takes c = M and c_g = 1 + M as the norm
    bounds of f and 1 - f, and records every step A/B/C/final row.  The
    interpolant composes disk automorphisms tau_p, so |f| <= M holds on the
    closed disk exactly when every recorded parameter has |p| <= 1; the
    construction admits |p| up to 1 + 1e-9, so a negative feasibility
    margin raises NumericalError instead of reporting a bound that does not
    hold.  Sequences whose separation is at or below 1e-6 fail the
    hypothesis and get a partial report (hypothesis_ok False, constants
    NaN, no rows).  Solver errors propagate.
    """
    if len(seq) < 2:
        raise PointSetError("chain verification needs at least two points")
    delta0 = separation_constant(seq)
    moduli = per_point_moduli(seq)
    carleson = float(np.min(moduli))
    if delta0 <= SEPARATION_FLOOR:
        return ChainReport(
            hypothesis_ok=False, delta=delta0 / 2.0,
            c=math.nan, eta=math.nan, c_g=math.nan, eta_g=math.nan,
            fitted_a=math.nan, fitted_b=math.nan, carleson_direct=carleson,
            step_a=(), step_b=(), step_c=(), final=(),
        )
    dec = corresponding_decomposition(seq)
    problem = zero_one_problem(dec)
    solution = solve_pick(problem, rel_tol=rel_tol)
    if solution.feasibility_margin < 0.0:
        raise NumericalError(
            f"interpolant parameter leaves the closed disk (feasibility margin "
            f"{solution.feasibility_margin:.3e}); its norm bound does not hold"
        )
    c = solution.interpolant.scale
    eta = 1.0 / c
    c_g = 1.0 + c
    eta_g = 1.0 / c_g

    pts = seq.points
    mod0, mod1 = _part_moduli(dec)
    step_a = tuple(_row(pts[i], mod0[i], eta) for i in dec.part1)
    step_b = tuple(_row(pts[i], mod1[i], eta_g) for i in dec.part0)

    a, b, delta = dec.fitted_a, dec.fitted_b, dec.delta
    bound_c1 = (a / delta) * eta ** (1.0 / b)
    bound_c0 = (a / delta) * eta_g ** (1.0 / b)
    in_part1 = set(dec.part1)
    step_c = [_row(pt, mod1[i], bound_c1) if i in in_part1 else _row(pt, mod0[i], bound_c0)
              for i, pt in enumerate(pts)]

    eta_common = min(eta, eta_g)
    bound_final = (a / delta) * eta_common ** (1.0 + 1.0 / b)
    final = tuple(
        _row(pt, moduli[i], bound_final) for i, pt in enumerate(seq.points)
    )
    return ChainReport(
        hypothesis_ok=True, delta=delta, c=c, eta=eta, c_g=c_g, eta_g=eta_g,
        fitted_a=a, fitted_b=b, carleson_direct=carleson,
        step_a=step_a, step_b=step_b, step_c=tuple(step_c), final=final,
    )


def remark_two_functions_check(dec: Decomposition) -> tuple[float, float]:
    """(inf over part1 of |B_0|, inf over part0 of |B_1|), from the products.

    These are the two constants that must be simultaneously positive for a
    splitting to certify interpolation without solving for any function.
    """
    mod0, mod1 = _part_moduli(dec)
    return float(np.min(mod0[list(dec.part1)])), float(np.min(mod1[list(dec.part0)]))
