"""Unit tests for exclusion-disk rims, sandwich fits, and decompositions."""

import collections
import itertools
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from conftest import make_sequence
from diskinterp import (
    CounterexampleSpec,
    Decomposition,
    DegenerateFitError,
    PointSequence,
    PointSetError,
    blaschke_log_modulus,
    comparability_fit,
    corresponding_decomposition,
    decompose,
    exclusion_grid,
    generate_counterexample,
    generate_radial,
    generate_separated_random,
    pseudohyperbolic_distance,
    separation_constant,
)
from diskinterp import blaschke, geometry, hoffman
from diskinterp.hoffman import _fit_a, _fit_b, _search_exhaustive, _search_local


@dataclass(frozen=True)
class PointGrid:
    """Bare points, with the ``points`` and ``len()`` that ``comparability_fit`` reads."""

    points: np.ndarray

    def __len__(self) -> int:
        return self.points.size


def cartesian_grid(seq: PointSequence, delta: float, resolution: int) -> PointGrid:
    """The independent Cartesian grid inside Omega, from the distance-matrix oracle."""
    return PointGrid(oracles.exclusion_points(seq.points, delta, resolution))


def sandwich_violations(dec: Decomposition, resolution: int = 128) -> int:
    """Count points of an independent grid inside Omega where the fitted sandwich fails."""
    points = cartesian_grid(dec.base, dec.delta, resolution).points
    L0 = blaschke_log_modulus(dec.part_sequence(0), points)
    L1 = blaschke_log_modulus(dec.part_sequence(1), points)
    a, b = dec.fitted_a, dec.fitted_b
    lower_ok = a <= np.exp(L1 - L0 / b)
    upper_ok = a <= np.exp(b * L0 - L1)
    return int(np.sum(~lower_ok) + np.sum(~upper_ok))


def sampled_b(dec: Decomposition) -> float:
    """The b of the rim samples alone, before refinement."""
    return dec.fitted_b - dec.b_gap


class TestExclusionGrid:
    def test_origin_disk_is_removed(self):
        grid = exclusion_grid(PointSequence((0.0,)), 0.5)
        assert len(grid) == hoffman._RIM_SAMPLES
        assert np.allclose(np.abs(grid.points), 0.5, rtol=0, atol=1e-15)

    def test_all_points_clear_every_disk(self, rng):
        seq = make_sequence(rng, 5)
        grid = exclusion_grid(seq, 0.2)
        dist = pseudohyperbolic_distance(
            grid.points[None, :], seq.points[:, None]
        )
        columns = np.arange(len(grid))
        assert np.allclose(dist[grid.rim, columns], 0.2, rtol=0, atol=1e-10)
        dist[grid.rim, columns] = np.inf
        assert np.min(dist) >= 0.2

    def test_large_delta_keeps_the_outermost_rim_sample(self):
        # Sample 0 of a rim, at w = +delta, is its point of largest modulus,
        # (|lam| + delta) / (1 + |lam| delta).  No other open disk reaches
        # that modulus on the rim of the point of largest modulus, so no
        # delta empties the samples, even one that swallows every point.
        for points in ((0.0,), (0.0, 0.05), (0.1, -0.1, 0.1j)):
            seq = PointSequence(points)
            i = int(np.argmax(np.abs(seq.points)))
            r = abs(seq.points[i])
            for delta in (0.9, 0.999):
                grid = exclusion_grid(seq, delta)
                k = np.flatnonzero((grid.rim == i) & (grid.theta == 0.0))
                assert k.size == 1
                z = grid.points[k[0]]
                assert abs(z) == pytest.approx((r + delta) / (1 + r * delta), rel=1e-15)
                assert abs(z) == pytest.approx(np.max(np.abs(grid.points)), rel=1e-15)
                rho = pseudohyperbolic_distance(z, seq.points[i])
                assert rho == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.717, 0.717j, -0.717, -0.717j])
    def test_rim_through_a_point(self, mu):
        # At delta = |mu| the rim of 0 runs through mu, at sample 0, 32, 64
        # or 96, and the rim of mu through 0, at sample 64.  There D is 0,
        # and the three-term product rounds it below 0: it must read -inf,
        # not nan, drop the sample, and raise no warning.
        m = hoffman._RIM_SAMPLES
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z, logs, outside = hoffman._rim_samples(PointSequence((0.0, mu)), np.arange(2),
                                                    abs(mu), 2.0 * np.pi * np.arange(m) / m)
        assert not np.isnan(logs).any() and (logs <= 0.0).all()
        j = int(np.rint(np.angle(mu) * m / (2.0 * np.pi))) % m
        assert logs[1, j] == logs[0, m + m // 2] == -np.inf
        assert not outside[j] and not outside[m + m // 2]

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            exclusion_grid(PointSequence((0.0,)), 1.5)

    def test_deterministic(self):
        seq = PointSequence((0.1, -0.4j, 0.3 + 0.3j))
        g1 = exclusion_grid(seq, 0.15)
        g2 = exclusion_grid(seq, 0.15)
        assert np.array_equal(g1.points, g2.points)
        assert np.array_equal(g1.factors, g2.factors)

    @pytest.mark.parametrize("count, delta", [(6, 0.05), (10, 0.3), (3, 0.95)])
    def test_points_are_the_per_centre_samples(self, count, delta):
        # Sample j of rim i sits at Mobius angle 2 pi j / m: b_lam maps it
        # to delta e^(2 pi i j / m), and it is that centre's rim point at
        # that angle, placed on its own by the scalar inverse.
        seq = generate_separated_random(count, 0.1, 2)
        grid = exclusion_grid(seq, delta)
        m = hoffman._RIM_SAMPLES
        j = np.rint(grid.theta * m / (2.0 * np.pi)).astype(int)
        assert np.array_equal(grid.theta, 2.0 * np.pi * j / m)
        for z, i, t in zip(grid.points.tolist(), grid.rim.tolist(), grid.theta.tolist()):
            assert abs(z - oracles.rim_point(complex(seq.points[i]), delta, t)) <= 1e-15
            w = geometry.mobius_transform(seq.points[i], z)
            assert abs(w - delta * np.exp(1j * t)) <= 1e-14

    def test_samples_every_rim_in_one_call(self, monkeypatch):
        # Each call forms D for all of its rim samples as one table and takes
        # the logs of that table in one call of the kernel's last step, and
        # neither the grid nor the refinement arc takes 1 - |z|^2 of a rim point.
        seq = generate_separated_random(12, 0.1, 1)
        calls, tables = collections.Counter(), []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def logged(d, a):
            tables.append(d.shape)
            return blaschke._log1p_ratio(d, a)

        monkeypatch.setattr(hoffman, "_log1p_ratio", logged)
        for module in (blaschke, geometry, hoffman):
            if hasattr(module, "_one_minus_abs2"):
                monkeypatch.setattr(module, "_one_minus_abs2",
                                    counted("_one_minus_abs2", geometry._one_minus_abs2))
        m = hoffman._RIM_SAMPLES
        exclusion_grid(seq, 0.05)
        assert tables == [(12 * 12, m)] and not calls
        decompose(seq, 0.05)
        # The grid's, then the arc's: one rim, 2 _ARC_STEPS + 1 angles.
        assert tables == [(12 * 12, m), (12 * 12, m), (12, 2 * geometry._ARC_STEPS + 1)]
        assert not calls


def assert_grid_matches_oracle(seq: PointSequence, delta: float):
    # The grid reads each rim in its own coordinates; the factors evaluated
    # afresh at the rounded rim points agree to rounding (333 eps at most
    # on these inputs).
    grid = exclusion_grid(seq, delta)
    points, rim = oracles.exclusion_rims(seq.points, delta, hoffman._RIM_SAMPLES)
    assert np.array_equal(grid.rim, rim)
    assert np.allclose(grid.points, points, rtol=0.0, atol=1e-15)
    assert np.allclose(grid.factors, blaschke.log_factors(seq.points, grid.points),
                       rtol=1e-12, atol=0.0)
    return grid


class TestExclusionGridAgainstOracle:
    """The factor-matrix test keeps exactly the distance-matrix filter's samples."""

    @pytest.mark.parametrize("resolution", [32, 97, 128])
    @pytest.mark.parametrize("count, seed", [(2, 1), (5, 2), (10, 3), (17, 4), (32, 5)])
    def test_seeded_sequences(self, count, seed, resolution):
        seq = generate_separated_random(count, 0.1, seed)
        half = separation_constant(seq) / 2
        for delta in (half, 0.05, 0.3):
            grid = assert_grid_matches_oracle(seq, delta)
            if delta <= half:  # disjoint disks: every sample is kept
                assert len(grid) == count * hoffman._RIM_SAMPLES
        # The rim fit holds on an independent Cartesian grid of this
        # resolution inside Omega: the minimum principle.
        assert sandwich_violations(corresponding_decomposition(seq), resolution) == 0

    @pytest.mark.parametrize("points, delta", [((0.0,), 0.5), ((0.05, -0.03j), 0.6)])
    def test_widened_square(self, points, delta):
        # These disks swallowed the square max|lam| + 0.05 that the old
        # Cartesian fit sampled, which then had to be widened; the rims
        # reach past it with no such step.
        seq = PointSequence(points)
        grid = assert_grid_matches_oracle(seq, delta)
        assert np.max(np.abs(grid.points)) > np.max(np.abs(seq.points)) + 0.05

    @pytest.mark.parametrize("pairs, gap, ratio", [(2, 0.1, 0.5), (4, 0.01, 0.5),
                                                   (6, 0.001, 0.7)])
    def test_counterexample_family(self, pairs, gap, ratio):
        # delta = 2 gap is above half the separation, so the disks of a
        # pair overlap and each drops the other's samples.
        seq, dec = generate_counterexample(CounterexampleSpec(pairs, gap, ratio))
        grid = assert_grid_matches_oracle(seq, dec.delta)
        assert 0 < len(grid) < len(seq) * hoffman._RIM_SAMPLES
        assert dec.fit_grid_size == len(grid)


class TestComparabilityFit:
    def test_mirror_parts_have_equal_logs_on_imaginary_axis(self):
        # |b_r(iy)| = |b_{-r}(iy)|, so the pointwise ratio is 1 there.
        part0, part1 = PointSequence((0.5,)), PointSequence((-0.5,))
        ys = 1j * np.linspace(-0.8, 0.8, 33)
        L0 = blaschke_log_modulus(part0, ys)
        L1 = blaschke_log_modulus(part1, ys)
        assert np.allclose(L0, L1, rtol=0, atol=1e-15)

    def test_singleton_parts_fit_is_finite(self):
        base = PointSequence((0.0, 0.5))
        grid = exclusion_grid(base, 0.2)
        a, b, worst = comparability_fit(
            PointSequence((0.0,)), PointSequence((0.5,)), grid
        )
        assert np.isfinite(a) and np.isfinite(b)
        assert b >= 1.0
        assert 0.0 < a <= 1.0
        assert worst in grid.points

    def test_refit_has_zero_violations(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 6, min_sep=0.15)
            dec = decompose(seq, separation_constant(seq) / 2)
            assert sandwich_violations(dec, 64) == 0

    def test_matches_direct_formula(self):
        base = PointSequence((0.2, -0.3, 0.4j))
        grid = exclusion_grid(base, 0.1)
        part0, part1 = PointSequence((0.2,)), PointSequence((-0.3, 0.4j))
        a, b, _ = comparability_fit(part0, part1, grid)
        rows = oracles.log_moduli_rows([0.2, -0.3, 0.4j], grid.points)
        a_ref, b_ref = oracles.fit_constants(rows[0], rows[1] + rows[2])
        assert b == pytest.approx(b_ref, rel=1e-9)
        assert a == pytest.approx(a_ref, rel=1e-9)

    def test_swap_symmetry(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 5, min_sep=0.15)
            grid = exclusion_grid(seq, 0.1)
            k = len(seq) // 2
            p0 = PointSequence(seq.points[:k])
            p1 = PointSequence(seq.points[k:])
            a01, b01, _ = comparability_fit(p0, p1, grid)
            a10, b10, _ = comparability_fit(p1, p0, grid)
            assert b01 == b10
            assert a01 == a10

    def test_grid_refinement_monotonicity(self):
        # Resolutions 65 -> 129 nest the grids, so the max defining b can
        # only grow and the min defining a can only shrink.
        seq = PointSequence((0.3, -0.2 + 0.4j, -0.5))
        p0, p1 = PointSequence((0.3,)), PointSequence((-0.2 + 0.4j, -0.5))
        coarse = cartesian_grid(seq, 0.1, 65)
        fine = cartesian_grid(seq, 0.1, 129)
        assert len(set(np.round(coarse.points, 12)) - set(np.round(fine.points, 12))) == 0
        a_c, b_c, _ = comparability_fit(p0, p1, coarse)
        a_f, b_f, _ = comparability_fit(p0, p1, fine)
        assert b_f >= b_c
        assert a_f <= a_c


class TestDecompose:
    def test_two_points_split_across_parts(self):
        dec = decompose(PointSequence((0.5, -0.5)), 0.25)
        assert dec.part0 == (0,)
        assert dec.part1 == (1,)

    def test_beats_contiguous_halves(self):
        pts = tuple(1.0 - 2.0 ** -n for n in range(1, 7))
        seq = PointSequence(pts)
        delta = separation_constant(seq) / 2
        dec = decompose(seq, delta)
        grid = exclusion_grid(seq, delta)
        _, b_halves, _ = comparability_fit(
            PointSequence(pts[:3]), PointSequence(pts[3:]), grid
        )
        assert sampled_b(dec) <= b_halves * (1 + 1e-12)

    def test_parts_nonempty_and_partition(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 6, min_sep=0.15)
            dec = decompose(seq, 0.1)
            assert dec.part0 and dec.part1
            assert sorted(dec.part0 + dec.part1) == list(range(len(seq)))

    def test_exhaustive_optimality_small(self, rng):
        for count in (4, 5):
            seq = make_sequence(rng, count, min_sep=0.2)
            dec = decompose(seq, 0.1)
            grid = exclusion_grid(seq, 0.1)
            best = np.inf
            for k in range(1, count):
                for comb in itertools.combinations(range(1, count), k - 1):
                    part0 = (0,) + comb
                    part1 = tuple(sorted(set(range(count)) - set(part0)))
                    if not part1:
                        continue
                    _, b, _ = comparability_fit(
                        PointSequence(seq.points[list(part0)]),
                        PointSequence(seq.points[list(part1)]),
                        grid,
                    )
                    best = min(best, b)
            assert sampled_b(dec) == pytest.approx(best, rel=1e-12)

    def test_local_search_beyond_exhaustive_limit(self, rng):
        seq = make_sequence(rng, 18, min_sep=0.12)
        dec = decompose(seq, 0.05)
        assert dec.part0 and dec.part1
        assert np.isfinite(dec.fitted_b)
        assert sandwich_violations(dec, 64) == 0
        assert dec.search == "local"
        assert dec.masks_enumerated > 18
        assert 0 < dec.masks_evaluated <= dec.masks_enumerated

    def test_records_exhaustive_search(self):
        seq = generate_separated_random(12, 0.1, 5)
        dec = corresponding_decomposition(seq)
        assert dec.search == "exhaustive"
        assert dec.masks_enumerated == 2 ** 11 - 1
        assert 0 < dec.masks_evaluated < dec.masks_enumerated

    def test_rejects_singleton(self):
        with pytest.raises(PointSetError):
            decompose(PointSequence((0.5,)), 0.2)

    @pytest.mark.parametrize("count, search, part0", [
        pytest.param(10, "exhaustive", None, id="10-exhaustive"),
        pytest.param(18, "local", None, id="18-local"),
        pytest.param(10, "declared", (0, 3, 4, 9), id="10-declared-with-0"),
        pytest.param(10, "declared", (7, 2, 5), id="10-declared-without-0"),
    ])
    def test_fit_equals_comparability_fit(self, count, search, part0):
        seq = generate_separated_random(count, 0.1, 1)
        delta = separation_constant(seq) / 2
        dec = decompose(seq, delta, part0=part0)
        assert dec.search == search
        if part0 is not None:
            # The declared orientation is kept, even without index 0.
            assert dec.part0 == tuple(sorted(part0))
            assert (dec.masks_enumerated, dec.masks_evaluated) == (0, 0)
        grid = exclusion_grid(seq, delta)
        a, b, worst = comparability_fit(dec.part_sequence(0), dec.part_sequence(1), grid)
        # The sampled fit is the reference fit to rounding (the grid reads
        # the rims in their own coordinates, the reference at the rounded
        # rim points); refinement only raises b, which lowers a, on the rim
        # of the sample attaining b.
        assert sampled_b(dec) == pytest.approx(b, rel=1e-12, abs=0.0)
        assert dec.b_gap >= 0.0 and dec.fitted_a <= a * (1.0 + 1e-9)
        assert grid.rim[np.flatnonzero(grid.points == worst)[0]] == dec.worst_rim
        rho = pseudohyperbolic_distance(dec.worst_point, seq.points[dec.worst_rim])
        assert rho == pytest.approx(delta, abs=1e-10)

    @pytest.mark.parametrize("part0", [(), tuple(range(6)), (1, 1, 2), (0, 6), (-1, 2),
                                       (0.0, 1.0), (True,), [[0, 1]]],
                             ids=["empty", "all", "repeated", "n", "negative", "floats",
                                  "boolean", "nested"])
    def test_rejects_invalid_declared_split_before_the_grid(self, monkeypatch, part0):
        def no_grid(*args):
            raise AssertionError("exclusion_grid was called")

        monkeypatch.setattr(hoffman, "exclusion_grid", no_grid)
        seq = generate_separated_random(6, 0.1, 1)
        with pytest.raises(PointSetError, match="part0"):
            decompose(seq, 0.05, part0=part0)

    def test_fits_from_the_search_matrix(self, counted_calls):
        # One rim table over the samples serves both the search and the fit
        # of the winner; nothing evaluates the parts again.
        seq = generate_separated_random(10, 0.1, 1)
        decompose(seq, separation_constant(seq) / 2)
        assert counted_calls == {"exclusion_grid": 1}

    def test_fits_a_only_where_it_is_read(self, monkeypatch):
        # a breaks ties among the fully evaluated masks and is reported for
        # the winner; the witness bounds read b alone.
        rows = []

        def counted(b, L0, L1):
            rows.append(1 if L0.ndim == 1 else L0.shape[0])
            return _fit_a(b, L0, L1)

        monkeypatch.setattr(hoffman, "_fit_a", counted)
        seq = generate_separated_random(12, 0.1, 5)
        dec = decompose(seq, separation_constant(seq) / 2)
        assert dec.search == "exhaustive"
        assert sum(rows) <= dec.masks_evaluated + 1 < dec.masks_enumerated

    def test_large_declared_delta_still_fits(self):
        # delta 0.999 swallows both points and most of each other's rim,
        # and the samples left still fit a valid sandwich.
        dec = decompose(PointSequence((0.0, 0.05)), 0.999)
        assert 0 < dec.fit_grid_size < 2 * dec.rim_samples
        assert 0.0 < dec.fitted_a <= 1.0 and 1.0 <= dec.fitted_b < np.inf


# The five inputs (n, separation, seed) of the grid-against-rim comparison.
GRID_TABLE = [(10, 0.2, 2), (10, 0.2, 6), (16, 0.1, 1), (20, 0.1, 1), (32, 0.1, 3)]


# The radial families of the acceptance gate and random inputs, n = 8..14.
MINIMUM_PRINCIPLE_INPUTS = (
    [pytest.param(generate_radial(r, c), id=f"radial-{r}-{c}")
     for r in (0.3, 0.5, 0.7) for c in (4, 6, 8)]
    + [pytest.param(generate_separated_random(n, 0.1, s), id=f"random-{n}-{s}")
       for n in range(8, 15) for s in (1, 2)]
)


class TestRimFit:
    @pytest.mark.parametrize("seq", MINIMUM_PRINCIPLE_INPUTS)
    def test_minimum_principle_on_independent_grid(self, seq):
        # L1 - b L0 and L0 - b L1 are harmonic on Omega and vanish on the
        # circle, so constants fitted on the rims hold at every interior point.
        dec = corresponding_decomposition(seq)
        assert sandwich_violations(dec, 256) == 0

    @pytest.mark.parametrize("count, sep, seed", GRID_TABLE)
    def test_rim_b_not_below_grid_b(self, count, sep, seed):
        # The Cartesian grid samples Omega's interior, where the ratio
        # stays below its max on the rims; for these splits it reads b
        # low by 1.4-9.2 %.
        seq = generate_separated_random(count, sep, seed)
        dec = corresponding_decomposition(seq)
        _, grid_b, _ = comparability_fit(dec.part_sequence(0), dec.part_sequence(1),
                                         cartesian_grid(seq, dec.delta, 128))
        assert sampled_b(dec) >= grid_b
        assert dec.fitted_b >= sampled_b(dec)

    @pytest.mark.parametrize("count, sep, seed", GRID_TABLE)
    def test_refinement_raises_b_and_lowers_a(self, count, sep, seed):
        seq = generate_separated_random(count, sep, seed)
        dec = corresponding_decomposition(seq)
        a, b, _ = comparability_fit(dec.part_sequence(0), dec.part_sequence(1),
                                    exclusion_grid(seq, dec.delta))
        assert dec.b_gap >= 0.0
        assert dec.fitted_b >= b
        assert dec.fitted_a <= a <= 1.0
        assert dec.b_gap <= 1e-3 * dec.fitted_b

    @pytest.mark.parametrize("count, seed", [(4, 1), (6, 2), (8, 3), (10, 4), (10, 5),
                                             (12, 6), (14, 5), (16, 1)])
    def test_exhaustive_rim_search_matches_oracle(self, count, seed):
        seq = generate_separated_random(count, 0.1, seed)
        dec = corresponding_decomposition(seq)
        rows = oracles.log_moduli_rows(seq.points, exclusion_grid(seq, dec.delta).points)
        _, b, part0 = oracles.best_partition(rows)
        assert dec.search == "exhaustive"
        assert dec.part0 == part0
        assert sampled_b(dec) == pytest.approx(b, rel=1e-12)


def oracle_rows(count: int, seed: int) -> np.ndarray:
    """Oracle log-moduli of a seeded sequence on a coarse Cartesian grid inside Omega."""
    seq = generate_separated_random(count, 0.1, seed)
    grid = cartesian_grid(seq, separation_constant(seq) / 2, 32)
    return oracles.log_moduli_rows(seq.points, grid.points)


def searched_part0(rows: np.ndarray) -> tuple[int, ...]:
    mask, enumerated, evaluated = _search_exhaustive(rows)
    assert enumerated == 2 ** (rows.shape[0] - 1) - 1
    assert 0 < evaluated <= enumerated
    return tuple(np.flatnonzero(mask).tolist())


class TestRefinementArc:
    @pytest.mark.parametrize("points", [
        pytest.param(generate_separated_random(12, 0.1, 2).points, id="random-12"),
        pytest.param(np.array([0.0, 0.5, -0.4j, 0.3 + 0.6j, -0.7]), id="zero-centre"),
    ])
    def test_arc_logs_are_the_log_factors_floats(self, points):
        seq = PointSequence(points)
        delta = separation_constant(seq) / 2
        grid = exclusion_grid(seq, delta)
        for k in range(0, len(grid), 17):
            # The refinement's table over the arc's Mobius angles: at j = 0,
            # the sample itself, it is the grid's column bit for bit, and
            # everywhere the factor logs at the rim points to rounding.
            rim = int(grid.rim[k])
            arc = geometry._refinement_arc(float(grid.theta[k]), 2 * np.pi / hoffman._RIM_SAMPLES)
            z, logs, _ = hoffman._rim_samples(seq, [rim], delta, arc)
            assert np.array_equal(logs[:, arc.size // 2], grid.factors[:, k])
            assert z[arc.size // 2] == grid.points[k]
            assert np.array_equal(logs[rim], np.full(arc.size, np.log(delta)))
            assert np.allclose(logs, blaschke.log_factors(seq.points, z), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seq, delta, part0", [
        *[pytest.param(generate_separated_random(n, sep, seed), None, None,
                       id=f"random-{n}-{sep}-{seed}")
          for n, sep, seed in [(8, 0.1, 1), (10, 0.2, 2), (14, 0.1, 3), (20, 0.1, 1),
                               (32, 0.1, 5)]],
        # The arc runs into the disk of point 1 beside the worst sample; 41
        # of its points are dropped, and some of those read a ratio above
        # the refined b.
        pytest.param(PointSequence((0.0, 0.2j, 0.7)), 0.15, (0, 1), id="arc-enters-a-disk"),
    ])
    def test_refined_b_is_the_oracle_arc_max(self, seq, delta, part0):
        dec = decompose(seq, separation_constant(seq) / 2 if delta is None else delta,
                        part0=part0)
        grid = exclusion_grid(seq, dec.delta)
        _, b, worst = comparability_fit(dec.part_sequence(0), dec.part_sequence(1), grid)
        k = np.flatnonzero(grid.points == worst)[0]
        assert grid.rim[k] == dec.worst_rim
        arc_max = oracles.arc_ratio_max(seq.points, dec.part0, dec.delta, int(grid.rim[k]),
                                        float(grid.theta[k]), 2 * np.pi / hoffman._RIM_SAMPLES)
        assert dec.fitted_b >= b
        assert dec.fitted_b == pytest.approx(max(b, arc_max), rel=1e-12, abs=0.0)


class TestPrunedSearchAgainstOracle:
    @pytest.mark.parametrize("count, seed", [(10, 1), (12, 2), (16, 3)])
    def test_matches_full_enumeration(self, count, seed):
        rows = oracle_rows(count, seed)
        _, _, part0 = oracles.best_partition(rows)
        assert searched_part0(rows) == part0

    def test_identical_rows_tie_broken_by_part0(self):
        # Rows 1 and 2 are equal, so swapping them between the parts gives
        # the same (b, a) exactly, and only the part0 order can decide.
        rows = oracle_rows(7, 1)
        rows = np.insert(rows, 2, rows[1], axis=0)
        _, _, part0 = oracles.best_partition(rows)
        assert (1 in part0) != (2 in part0)
        mask = np.isin(np.arange(rows.shape[0]), part0)
        swapped = mask.copy()
        swapped[[1, 2]] = mask[[2, 1]]
        L0 = np.array([mask, swapped]).astype(float) @ rows
        b = _fit_b(L0, rows.sum(axis=0) - L0)[0]
        a = _fit_a(b, L0, rows.sum(axis=0) - L0)
        assert b[0] == b[1] and a[0] == a[1]
        assert searched_part0(rows) == part0

    @pytest.mark.parametrize("count, cols, depth", [(10, 3, 2), (11, 4, 3)])
    def test_integer_rows_tie_in_bulk(self, count, cols, depth):
        # Small integer log-moduli sum exactly in any order, so large groups
        # of partitions tie exactly in (b, a).  The lexicographically first
        # part0 of a group is often not the one with the smallest code,
        # which is the order the search takes among equal bounds.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = -rng.integers(1, depth + 1, size=(count, cols)).astype(float)
            _, _, part0 = oracles.best_partition(rows)
            assert searched_part0(rows) == part0


class TestLocalSearchAgainstOracle:
    @pytest.mark.parametrize("count", [*range(17, 41), 48, 56, 64])
    def test_same_mask_as_plain_search(self, count):
        # The plain search fully fits every move from its full row sum; the
        # pruned one must find the same split after trying the same moves,
        # up to 64 points.
        seq = generate_separated_random(count, 0.1, count % 5 + 1)
        LM = exclusion_grid(seq, separation_constant(seq) / 2).factors
        mask, tried, evaluated = _search_local(LM, seq.points)
        part0, plain_tried = oracles.local_search(LM, seq.points)
        assert tuple(np.flatnonzero(mask).tolist()) == part0
        assert tried == plain_tried
        assert 0 < evaluated < tried

    @pytest.mark.parametrize("count", [17, 18, 20, 24])
    def test_ties_in_b_match_plain_search(self, count):
        # Entries in {-1, -2, -3} sum exactly in any order, so a scored move's
        # b can equal the current b exactly (17 times over these 24 tables),
        # and then the (b, -a) order decides.
        points = np.arange(count) / count
        for seed in range(6):
            rows = np.random.default_rng(seed).integers(-3, 0, size=(count, 40)).astype(float)
            mask, tried, _ = _search_local(rows, points)
            assert (tuple(np.flatnonzero(mask).tolist()), tried) == oracles.local_search(
                rows, points)


class TestPartSums:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("count", [2, 17, 32])
    def test_bit_equal_to_sums_of_copied_parts(self, count, seed):
        # On the rim table the searches read and on the log-distance matrix
        # the chain's part moduli read.
        seq = generate_separated_random(count, 0.1, seed)
        rng = np.random.default_rng(seed)
        one = np.eye(count, dtype=bool)
        masks = [*one, *~one]  # parts of one row and of n - 1 rows
        for size in rng.integers(1, count, size=8):
            masks.append(np.isin(np.arange(count), rng.choice(count, size, replace=False)))
        for LM in (exclusion_grid(seq, separation_constant(seq) / 2).factors,
                   np.log(seq._distances)):
            for mask in masks:
                L0, L1 = hoffman._part_sums(LM, mask)
                assert np.array_equal(L0, LM[mask].sum(axis=0))
                assert np.array_equal(L1, LM[~mask].sum(axis=0))


def fit_b_calls(monkeypatch) -> list:
    """Rows of every ``_fit_b`` call, recorded: 0 for 1-D input."""
    rows = []

    def counted(L0, L1):
        rows.append(0 if L0.ndim == 1 else L0.shape[0])
        return _fit_b(L0, L1)

    monkeypatch.setattr(hoffman, "_fit_b", counted)
    return rows


class TestSearchStructure:
    def test_exhaustive_bound_has_no_row_wise_fit(self, monkeypatch):
        # One fit of one row per fully scored mask; the witness bounds of
        # all 2^(n-1) - 1 masks are folded a column at a time, never fitted.
        seq = generate_separated_random(14, 0.1, 5)
        LM = exclusion_grid(seq, separation_constant(seq) / 2).factors
        rows = fit_b_calls(monkeypatch)
        _, enumerated, evaluated = _search_exhaustive(LM)
        assert enumerated == 8191
        assert rows == [1] * evaluated

    def test_exhaustive_search_memory_at_sixteen_points(self):
        # The witness sums come from two half tables of at most 2^8 rows, so
        # one call holds a float bound per split and three pass buffers of
        # that size, not two weight rows per split (10.6 MB at 16 points).
        seq = generate_separated_random(16, 0.1, 1)
        LM = exclusion_grid(seq, separation_constant(seq) / 2).factors
        tracemalloc.start()
        try:
            _search_exhaustive(LM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_decompose_memory_at_thirty_two_points(self):
        # Parts are summed row by row into row buffers, not copied, and the
        # rim table's kernel works in 256 KB blocks, so the call peaks while
        # it builds the 1 MB rim table: about 1.45 MB with the scratch block.
        seq = generate_separated_random(32, 0.1, 1)
        delta = separation_constant(seq) / 2
        tracemalloc.start()
        try:
            decompose(seq, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 2**20

    @pytest.mark.parametrize("seed, evaluated", [(1, 8), (2, 8), (3, 11)])
    def test_exhaustive_scores_few_masks_at_sixteen_points(self, seed, evaluated):
        # Each scored mask's worst column bounds every other mask, so a few
        # full scores settle all 32767 partitions.
        seq = generate_separated_random(16, 0.1, seed)
        dec = decompose(seq, separation_constant(seq) / 2)
        assert (dec.search, dec.masks_enumerated, dec.masks_evaluated) == (
            "exhaustive", 32767, evaluated)

    @pytest.mark.parametrize("count, seed", [(20, 7), (32, 5)])
    def test_local_search_fits_only_fully_scored_moves(self, monkeypatch, count, seed):
        # One fit per fully scored mask, the seed's included, on its exact
        # part sums; the screening does not call _fit_b.
        seq = generate_separated_random(count, 0.1, seed)
        LM = exclusion_grid(seq, separation_constant(seq) / 2).factors
        rows = fit_b_calls(monkeypatch)
        _, tried, evaluated = _search_local(LM, seq.points)
        assert set(rows) == {0}
        assert len(rows) == evaluated < tried


class TestLocalSearchDegeneracy:
    # Points in increasing |lam|, so the seed puts the even indices in part0.
    POINTS = np.array([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("rows", [
        # Seed: part0 {0, 2}, witness column 0 (ratio 10).  Moving point 0
        # out leaves row 2 alone in part0, at -1e-15 on the witness.
        [[-1.0, -1.0], [-0.1, -1.0], [-1e-15, -1.0]],
        # Seed: part0 {0, 2}, part1 {1, 3}, witness column 0.  Moving point
        # 0 out does not pass the screening; moving point 1 in leaves row 3
        # alone in part1, at -1e-15 on the witness.
        [[-1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0], [-1e-15, -1.0]],
    ], ids=["part0", "part1"])
    def test_zero_witness_log_modulus_matches_oracle(self, rows):
        # Such a move only reads a huge b: the search screens it on its
        # witness b like any other move, never raises, and returns the
        # split and count of the plain search, which fully fits every move.
        rows = np.array(rows)
        points = self.POINTS[:rows.shape[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask, tried, _ = _search_local(rows, points)
        assert (tuple(np.flatnonzero(mask).tolist()), tried) == oracles.local_search(rows, points)

    @pytest.mark.parametrize("rows, part0, tried, evaluated", [
        # Both moves empty a part.
        ([[-1.0, -2.0], [-2.0, -1.0]], (0,), 1, 1),
        # Moving point 1, part1's only point, empties it; the other two
        # moves are legal and lose.
        ([[-1.0, -2.0], [-1.5, -1.5], [-2.0, -1.0]], (0, 2), 3, 2),
    ], ids=["two", "three"])
    def test_move_that_empties_a_part_is_skipped_quietly(self, rows, part0, tried, evaluated):
        # The batch divides by zero on the rows of such moves, under
        # errstate: the search neither raises nor warns, nor counts them.
        rows = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask, n_tried, n_evaluated = _search_local(rows, self.POINTS[:rows.shape[0]])
        assert tuple(np.flatnonzero(mask).tolist()) == part0
        assert (n_tried, n_evaluated) == (tried, evaluated)


def near_boundary(count: int, seed: int) -> PointSequence:
    """Points with 1 - |lam| log-uniform in [1e-9, 1e-2], uniform in angle."""
    rng = np.random.default_rng(seed)
    return PointSequence((1.0 - 10.0 ** rng.uniform(-9, -2, count))
                         * np.exp(2j * np.pi * rng.random(count)))


class TestDegeneracyCheck:
    # Six near-boundary points: point 0 alone reads -8.493e-15 on the rim
    # of point 3, inside the degeneracy tolerance.
    SEQ = near_boundary(6, 0)

    def test_error_names_part_value_and_rim(self):
        seq = self.SEQ
        with pytest.raises(DegenerateFitError,
                           match=r"part 0 reads -8\.493e-15 on the rim of point 3$"):
            decompose(seq, separation_constant(seq) / 2, part0=[0])

    def test_comparability_fit_raises_on_the_same_split(self):
        seq = self.SEQ
        grid = exclusion_grid(seq, separation_constant(seq) / 2)
        with pytest.raises(DegenerateFitError, match="numerically zero"):
            comparability_fit(PointSequence(seq.points[:1]), PointSequence(seq.points[1:]), grid)

    @pytest.mark.parametrize("count", [17, 20, 24, 32])
    def test_local_search_returns_near_the_boundary(self, count):
        # The search screens moves on their witness b alone, so a move that
        # is numerically zero on a witness column, which it would never
        # pick, does not stop it; the split it returns passes the check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(30):
                seq = near_boundary(count, seed)
                assert decompose(seq, separation_constant(seq) / 2).search == "local"


class TestCorrespondingDecomposition:
    def test_singleton_is_refused_by_decompose(self):
        # A singleton's separation is 1, so the split is asked at delta 0.5
        # and decompose refuses it before any rim is sampled.
        with pytest.raises(PointSetError, match="at least two points"):
            corresponding_decomposition(PointSequence((0.5,)))

    def test_pair_delta(self):
        dec = corresponding_decomposition(PointSequence((0.0, 0.5)))
        assert dec.delta == pytest.approx(0.25)

    def test_triple_delta(self):
        dec = corresponding_decomposition(PointSequence((0.0, 0.5, -0.5)))
        assert dec.delta == pytest.approx(0.25)

    def test_delta_is_half_separation(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 5, min_sep=0.15)
            dec = corresponding_decomposition(seq)
            assert dec.delta == pytest.approx(
                separation_constant(seq) / 2, abs=1e-12
            )


class TestDecompositionType:
    def test_rejects_empty_part(self):
        base = PointSequence((0.0, 0.5))
        with pytest.raises(PointSetError):
            Decomposition(
                base=base, part0=(0, 1), part1=(), delta=0.2,
                fitted_a=0.5, fitted_b=2.0, fit_grid_size=10,
                rim_samples=128, worst_point=0.0, worst_rim=0, b_gap=0.0,
            )

    def test_rejects_overlap(self):
        base = PointSequence((0.0, 0.5))
        with pytest.raises(PointSetError):
            Decomposition(
                base=base, part0=(0, 1), part1=(1,), delta=0.2,
                fitted_a=0.5, fitted_b=2.0, fit_grid_size=10,
                rim_samples=128, worst_point=0.0, worst_rim=0, b_gap=0.0,
            )

    def test_indices_are_normalized_to_base_order(self):
        base = PointSequence((0.1, 0.2, 0.3))
        dec = Decomposition(
            base=base, part0=(2, 0), part1=(1,), delta=0.05,
            fitted_a=0.5, fitted_b=2.0, fit_grid_size=10,
            rim_samples=128, worst_point=0.0, worst_rim=0, b_gap=0.0,
        )
        assert dec.part0 == (0, 2)
        assert np.allclose(dec.part_sequence(0).points, [0.1, 0.3])
