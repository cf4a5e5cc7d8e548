"""Unit tests for exclusion grids, sandwich fits, and decompositions."""

import collections
import itertools

import numpy as np
import pytest

import oracles
from conftest import make_sequence
from diskinterp import (
    CounterexampleSpec,
    Decomposition,
    EmptyGridError,
    PointSequence,
    PointSetError,
    blaschke_log_modulus,
    comparability_fit,
    corresponding_decomposition,
    decompose,
    exclusion_grid,
    generate_counterexample,
    generate_separated_random,
    pseudohyperbolic_distance,
    separation_constant,
)
from diskinterp import blaschke, hoffman
from diskinterp.hoffman import _fit_logs, _search_exhaustive, _search_local


def sandwich_violations(dec: Decomposition) -> int:
    """Count grid points where the fitted sandwich fails, in the fit's own form."""
    grid = exclusion_grid(dec.base, dec.delta, dec.fit_grid_resolution)
    L0 = blaschke_log_modulus(dec.part_sequence(0), grid.points)
    L1 = blaschke_log_modulus(dec.part_sequence(1), grid.points)
    a, b = dec.fitted_a, dec.fitted_b
    lower_ok = a <= np.exp(L1 - L0 / b)
    upper_ok = a <= np.exp(b * L0 - L1)
    return int(np.sum(~lower_ok) + np.sum(~upper_ok))


class TestExclusionGrid:
    def test_origin_disk_is_removed(self):
        grid = exclusion_grid(PointSequence((0.0,)), 0.5, 64)
        assert len(grid) > 0
        assert np.min(np.abs(grid.points)) >= 0.5

    def test_all_points_clear_every_disk(self, rng):
        seq = make_sequence(rng, 5)
        grid = exclusion_grid(seq, 0.2, 64)
        dist = pseudohyperbolic_distance(
            grid.points[None, :], seq.points[:, None]
        )
        assert np.min(dist) >= 0.2

    def test_large_delta_empties_grid(self):
        with pytest.raises(EmptyGridError):
            exclusion_grid(PointSequence((0.0,)), 0.999, 32)

    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError):
            exclusion_grid(PointSequence((0.0,)), 0.5, 16)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            exclusion_grid(PointSequence((0.0,)), 1.5, 64)

    def test_deterministic(self):
        seq = PointSequence((0.1, -0.4j, 0.3 + 0.3j))
        g1 = exclusion_grid(seq, 0.15, 48)
        g2 = exclusion_grid(seq, 0.15, 48)
        assert np.array_equal(g1.points, g2.points)


def assert_grid_matches_oracle(seq: PointSequence, delta: float, resolution: int):
    grid = exclusion_grid(seq, delta, resolution)
    assert np.array_equal(
        grid.points, oracles.exclusion_points(seq.points, delta, resolution)
    )
    assert np.array_equal(grid.factors, blaschke.log_factors(seq.points, grid.points))
    return grid


class TestExclusionGridAgainstOracle:
    """The factor-matrix test keeps exactly the distance-matrix filter's points."""

    @pytest.mark.parametrize("resolution", [32, 97, 128])
    @pytest.mark.parametrize("count, seed", [(2, 1), (5, 2), (10, 3), (17, 4), (32, 5)])
    def test_seeded_sequences(self, count, seed, resolution):
        seq = generate_separated_random(count, 0.1, seed)
        for delta in (separation_constant(seq) / 2, 0.05, 0.3):
            assert_grid_matches_oracle(seq, delta, resolution)

    @pytest.mark.parametrize("points, delta", [((0.0,), 0.5), ((0.05, -0.03j), 0.6)])
    def test_widened_square(self, points, delta):
        seq = PointSequence(points)
        grid = assert_grid_matches_oracle(seq, delta, 64)
        assert np.max(np.abs(grid.points)) > np.max(np.abs(seq.points)) + 0.05

    @pytest.mark.parametrize("pairs, gap, ratio", [(2, 0.1, 0.5), (4, 0.01, 0.5),
                                                   (6, 0.001, 0.7)])
    def test_counterexample_family(self, pairs, gap, ratio):
        seq, dec = generate_counterexample(CounterexampleSpec(pairs, gap, ratio))
        assert_grid_matches_oracle(seq, dec.delta, dec.fit_grid_resolution)


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
        grid = exclusion_grid(base, 0.2, 64)
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
            dec = decompose(seq, separation_constant(seq) / 2, 64)
            assert sandwich_violations(dec) == 0

    def test_matches_direct_formula(self):
        base = PointSequence((0.2, -0.3, 0.4j))
        grid = exclusion_grid(base, 0.1, 48)
        part0, part1 = PointSequence((0.2,)), PointSequence((-0.3, 0.4j))
        a, b, _ = comparability_fit(part0, part1, grid)
        rows = oracles.log_moduli_rows([0.2, -0.3, 0.4j], grid.points)
        a_ref, b_ref = oracles.fit_constants(rows[0], rows[1] + rows[2])
        assert b == pytest.approx(b_ref, rel=1e-9)
        assert a == pytest.approx(a_ref, rel=1e-9)

    def test_swap_symmetry(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 5, min_sep=0.15)
            grid = exclusion_grid(seq, 0.1, 48)
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
        coarse = exclusion_grid(seq, 0.1, 65)
        fine = exclusion_grid(seq, 0.1, 129)
        assert len(set(np.round(coarse.points, 12)) - set(np.round(fine.points, 12))) == 0
        a_c, b_c, _ = comparability_fit(p0, p1, coarse)
        a_f, b_f, _ = comparability_fit(p0, p1, fine)
        assert b_f >= b_c
        assert a_f <= a_c


class TestDecompose:
    def test_two_points_split_across_parts(self):
        dec = decompose(PointSequence((0.5, -0.5)), 0.25, 64)
        assert dec.part0 == (0,)
        assert dec.part1 == (1,)

    def test_beats_contiguous_halves(self):
        pts = tuple(1.0 - 2.0 ** -n for n in range(1, 7))
        seq = PointSequence(pts)
        delta = separation_constant(seq) / 2
        dec = decompose(seq, delta, 64)
        grid = exclusion_grid(seq, delta, 64)
        _, b_halves, _ = comparability_fit(
            PointSequence(pts[:3]), PointSequence(pts[3:]), grid
        )
        assert dec.fitted_b <= b_halves * (1 + 1e-12)

    def test_parts_nonempty_and_partition(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 6, min_sep=0.15)
            dec = decompose(seq, 0.1, 64)
            assert dec.part0 and dec.part1
            assert sorted(dec.part0 + dec.part1) == list(range(len(seq)))

    def test_exhaustive_optimality_small(self, rng):
        for count in (4, 5):
            seq = make_sequence(rng, count, min_sep=0.2)
            dec = decompose(seq, 0.1, 48)
            grid = exclusion_grid(seq, 0.1, 48)
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
            assert dec.fitted_b == pytest.approx(best, rel=1e-12)

    def test_local_search_beyond_exhaustive_limit(self, rng):
        seq = make_sequence(rng, 18, min_sep=0.12)
        dec = decompose(seq, 0.05, 48)
        assert dec.part0 and dec.part1
        assert np.isfinite(dec.fitted_b)
        assert sandwich_violations(dec) == 0
        assert dec.search == "local"
        assert dec.masks_enumerated > 18
        assert 0 < dec.masks_evaluated <= dec.masks_enumerated

    def test_records_exhaustive_search(self):
        seq = generate_separated_random(12, 0.1, 5)
        dec = corresponding_decomposition(seq, 128)
        assert dec.search == "exhaustive"
        assert dec.masks_enumerated == 2 ** 11 - 1
        assert 0 < dec.masks_evaluated < dec.masks_enumerated

    def test_rejects_singleton(self):
        with pytest.raises(PointSetError):
            decompose(PointSequence((0.5,)), 0.2, 64)

    @pytest.mark.parametrize("count, search", [(10, "exhaustive"), (18, "local")])
    def test_fit_equals_comparability_fit(self, count, search):
        seq = generate_separated_random(count, 0.1, 1)
        delta = separation_constant(seq) / 2
        dec = decompose(seq, delta, 128)
        assert dec.search == search
        fit = comparability_fit(
            dec.part_sequence(0), dec.part_sequence(1), exclusion_grid(seq, delta, 128)
        )
        assert (dec.fitted_a, dec.fitted_b, dec.worst_point) == fit

    def test_fits_from_the_search_matrix(self, monkeypatch):
        # One log_factors matrix over the grid serves both the search and
        # the fit of the winner; nothing evaluates the parts again.
        seq = generate_separated_random(10, 0.1, 1)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((hoffman, "log_factors"), (blaschke, "log_factors"),
                             (hoffman, "comparability_fit"),
                             (hoffman, "blaschke_log_modulus")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        decompose(seq, separation_constant(seq) / 2, 128)
        assert calls == {"log_factors": 1}

    def test_propagates_empty_grid(self):
        with pytest.raises(EmptyGridError):
            decompose(PointSequence((0.0, 0.05)), 0.999, 32)


def oracle_rows(count: int, seed: int) -> np.ndarray:
    """Oracle log-moduli of a seeded sequence on a coarse exclusion grid."""
    seq = generate_separated_random(count, 0.1, seed)
    grid = exclusion_grid(seq, separation_constant(seq) / 2, 32)
    return oracles.log_moduli_rows(seq.points, grid.points)


def searched_part0(rows: np.ndarray) -> tuple[int, ...]:
    mask, enumerated, evaluated = _search_exhaustive(rows, rows.sum(axis=0))
    assert enumerated == 2 ** (rows.shape[0] - 1) - 1
    assert 0 < evaluated <= enumerated
    return tuple(np.flatnonzero(mask).tolist())


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
        a, b, _ = _fit_logs(L0, rows.sum(axis=0) - L0)
        assert b[0] == b[1] and a[0] == a[1]
        assert searched_part0(rows) == part0

    @pytest.mark.parametrize("count, cols, depth", [(10, 3, 2), (11, 4, 3)])
    def test_integer_rows_tie_in_bulk(self, count, cols, depth):
        # Small integer log-moduli sum exactly in any order, so large groups
        # of partitions tie exactly in (b, a).  The lexicographically first
        # part0 of a group is often not the one with the smallest code,
        # which is the order the bound sort keeps among equal bounds.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = -rng.integers(1, depth + 1, size=(count, cols)).astype(float)
            _, _, part0 = oracles.best_partition(rows)
            assert searched_part0(rows) == part0


class TestLocalSearchAgainstOracle:
    @pytest.mark.parametrize("count", range(17, 41))
    def test_same_mask_as_plain_search(self, count):
        # The plain search fully fits every move from its full row sum; the
        # pruned one must find the same split after trying the same moves.
        seq = generate_separated_random(count, 0.1, count % 5 + 1)
        LM = exclusion_grid(seq, separation_constant(seq) / 2, 128).factors
        mask, tried, evaluated = _search_local(LM, LM.sum(axis=0), seq.points)
        part0, plain_tried = oracles.local_search(LM, seq.points)
        assert tuple(np.flatnonzero(mask).tolist()) == part0
        assert tried == plain_tried
        assert 0 < evaluated < tried


class TestCorrespondingDecomposition:
    def test_pair_delta(self):
        dec = corresponding_decomposition(PointSequence((0.0, 0.5)), 64)
        assert dec.delta == pytest.approx(0.25)

    def test_triple_delta(self):
        dec = corresponding_decomposition(PointSequence((0.0, 0.5, -0.5)), 64)
        assert dec.delta == pytest.approx(0.25)

    def test_delta_is_half_separation(self, rng):
        for _ in range(5):
            seq = make_sequence(rng, 5, min_sep=0.15)
            dec = corresponding_decomposition(seq, 64)
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
                fit_grid_resolution=32, worst_point=0.0,
            )

    def test_rejects_overlap(self):
        base = PointSequence((0.0, 0.5))
        with pytest.raises(PointSetError):
            Decomposition(
                base=base, part0=(0, 1), part1=(1,), delta=0.2,
                fitted_a=0.5, fitted_b=2.0, fit_grid_size=10,
                fit_grid_resolution=32, worst_point=0.0,
            )

    def test_indices_are_normalized_to_base_order(self):
        base = PointSequence((0.1, 0.2, 0.3))
        dec = Decomposition(
            base=base, part0=(2, 0), part1=(1,), delta=0.05,
            fitted_a=0.5, fitted_b=2.0, fit_grid_size=10,
            fit_grid_resolution=32, worst_point=0.0,
        )
        assert dec.part0 == (0, 2)
        assert np.allclose(dec.part_sequence(0).points, [0.1, 0.3])
