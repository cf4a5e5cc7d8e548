"""Unit tests for Blaschke products and the sequence invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_sequence
from diskinterp import blaschke
from diskinterp import (
    AnalysisReport,
    PointSequence,
    PointSetError,
    ZeroCollisionError,
    DegenerateSequenceError,
    analyze,
    blaschke_eval,
    blaschke_eval_excluding,
    blaschke_log_modulus,
    blaschke_sum,
    carleson_constant,
    generate_separated_random,
    mobius_transform,
    per_point_moduli,
    pseudohyperbolic_distance,
    separation_constant,
    weak_interpolation_family,
)

interior = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)


@st.composite
def sequences(draw, min_size=2, max_size=8):
    pts = draw(st.lists(interior, min_size=min_size, max_size=max_size, unique=True))
    sep = min(
        pseudohyperbolic_distance(z, w)
        for i, z in enumerate(pts)
        for w in pts[:i]
    )
    assume(sep > 1e-3)
    return PointSequence(tuple(pts))


class TestPointSequence:
    def test_rejects_empty(self):
        with pytest.raises(PointSetError):
            PointSequence(())

    def test_rejects_exterior_point_with_index(self):
        with pytest.raises(PointSetError, match="point 1"):
            PointSequence((0.5, 1.5))

    def test_rejects_duplicates_with_indices(self):
        with pytest.raises(PointSetError, match="points 0 and 2"):
            PointSequence((0.5, 0.1, 0.5))

    def test_rejects_oversized(self):
        pts = 0.9 * np.exp(2j * np.pi * np.arange(600) / 600)
        with pytest.raises(PointSetError, match="maximum"):
            PointSequence(pts)

    def test_accepts_exactly_max_points(self):
        circle = 0.9 * np.exp(2j * np.pi * np.arange(513) / 513)
        assert len(PointSequence(circle[:512])) == blaschke.MAX_POINTS == 512
        with pytest.raises(PointSetError, match="513 points"):
            PointSequence(circle)
        with pytest.raises(TypeError):
            PointSequence(circle, max_points=600)

    def test_removing(self):
        seq = PointSequence((0.1, 0.2, 0.3))
        assert np.allclose(seq.removing(1).points, [0.1, 0.3])

    def test_points_are_read_only(self):
        seq = PointSequence((0.1, 0.2))
        with pytest.raises(ValueError):
            seq.points[0] = 0.5


class TestBlaschkeEval:
    def test_single_factor_at_origin(self):
        assert blaschke_eval(PointSequence((0.5,)), 0.0) == pytest.approx(-0.5)

    def test_vanishes_at_members(self):
        seq = PointSequence((0.3, -0.2 + 0.1j, 0.6j))
        for lam in seq:
            assert blaschke_eval(seq, complex(lam)) == 0.0

    def test_unimodular_on_boundary(self):
        z = np.exp(1j * np.pi / 3)
        assert abs(blaschke_eval(PointSequence((0.0, 0.5)), z)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_matches_direct_product(self, rng):
        for _ in range(50):
            seq = make_sequence(rng, 6)
            z = complex(*rng.uniform(-0.5, 0.5, 2))
            assert blaschke_eval(seq, z) == pytest.approx(
                oracles.blaschke(seq.points, z), rel=1e-12, abs=1e-13
            )

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_arrays_bit_equal_to_the_factor_by_factor_loop(self, n):
        # One table of the Mobius kernel, summed along its factor axis,
        # gives the floats of a loop over the factors, zero centres and
        # exact zeros of the product included.
        rng = np.random.default_rng(n)
        pts = 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        pts[:2] = (0.0, 1e-15)[:n]
        zs = np.sqrt(rng.random((6, 9))) * np.exp(2j * np.pi * rng.random((6, 9)))
        zs.flat[:n] = pts[:zs.size]
        got = blaschke._eval_product(pts, zs)
        assert got.shape == zs.shape
        assert np.array_equal(got.view(float), oracles.package_product(pts, zs).view(float))

    @settings(max_examples=40)
    @given(seq=sequences(), data=st.data())
    def test_factorization_identity(self, seq, data):
        z = data.draw(interior)
        n = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
        whole = blaschke_eval(seq, z)
        parts = blaschke_eval_excluding(seq, n, z) * blaschke_eval(
            PointSequence((seq.points[n],)), z
        )
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-13)


class TestBlaschkeLogModulus:
    def test_single_factor(self):
        assert blaschke_log_modulus(PointSequence((0.5,)), 0.0) == pytest.approx(
            np.log(0.5)
        )

    def test_zero_point_factor(self):
        assert blaschke_log_modulus(PointSequence((0.0,)), 0.3) == pytest.approx(
            np.log(0.3)
        )

    def test_two_factor_example(self):
        got = blaschke_log_modulus(PointSequence((0.0, 0.5)), 0.25)
        assert got == pytest.approx(np.log(0.25) + np.log(2.0 / 7.0))

    def test_collision_with_zero_raises(self):
        with pytest.raises(ZeroCollisionError):
            blaschke_log_modulus(PointSequence((0.5,)), 0.5)

    @pytest.mark.parametrize("z", [0.3 - 0.2j, 0.3 - 0.2j + 1e-301j, -0.6j, 0.7 + 1e-301j])
    def test_collision_in_a_later_chunk_raises(self, z):
        # An exact zero, and a point 1e-301 away (factor modulus ~1.6e-301),
        # of the first factor and of later ones, placed after more points
        # than one chunk holds.
        seq = PointSequence((0.3 - 0.2j, -0.6j, 0.7))
        zs = np.full(blaschke._LOG_CHUNK + 10, 0.1 + 0.1j)
        zs[-1] = z
        with pytest.raises(ZeroCollisionError):
            blaschke_log_modulus(seq, zs)

    def test_bit_equal_to_sequential_sum(self, rng):
        # The column sum of the factor matrix adds the rows in order, so it
        # reproduces the factor-by-factor accumulation bit for bit.
        seq = make_sequence(rng, 24)
        m = 2 * blaschke._LOG_CHUNK + 123
        radius = 0.99 * np.sqrt(rng.random(m))
        zs = radius * np.exp(2j * np.pi * rng.random(m))
        got = blaschke_log_modulus(seq, zs)
        assert np.array_equal(got, oracles.sequential_log_modulus(seq.points, zs))
        grid = blaschke_log_modulus(seq, zs[:1200].reshape(30, 40))
        assert grid.shape == (30, 40)
        assert np.array_equal(grid.ravel(), got[:1200])

    def test_bit_equal_with_zero_at_origin(self, rng):
        # lam = 0 takes the kernel's identity branch; rows are added in
        # order across three chunks, the last one short.
        seq = PointSequence(np.concatenate(([0.0], make_sequence(rng, 12).points)))
        m = 2 * blaschke._LOG_CHUNK + 77
        radius = 0.999 * np.sqrt(rng.random(m))
        zs = radius * np.exp(2j * np.pi * rng.random(m))
        got = blaschke_log_modulus(seq, zs)
        assert np.array_equal(got, oracles.sequential_log_modulus(seq.points, zs))
        assert np.array_equal(got, blaschke.log_factors(seq.points, zs).sum(axis=0))

    @settings(max_examples=40)
    @given(seq=sequences(), data=st.data())
    def test_consistent_with_linear_eval(self, seq, data):
        z = data.draw(interior)
        assume(
            min(pseudohyperbolic_distance(z, w) for w in seq.points) > 1e-3
        )
        log_mod = blaschke_log_modulus(seq, z)
        assert np.exp(log_mod) == pytest.approx(abs(blaschke_eval(seq, z)), rel=1e-10)


class TestLogFactors:
    def test_rows_are_factor_log_moduli(self, rng):
        # Compared as moduli: the log of a Mobius modulus near 1 carries
        # eps / |log| relative error of its own.
        seq = make_sequence(rng, 5)
        zs = np.array([0.1 + 0.2j, -0.5, 0.0, 0.9j])
        logs = blaschke.log_factors(seq.points, zs)
        assert logs.shape == (5, 4)
        for i, lam in enumerate(seq.points):
            assert np.allclose(np.exp(logs[i]), np.abs(mobius_transform(lam, zs)),
                               rtol=1e-14, atol=0.0)

    def test_rows_bit_equal_to_mobius_formula(self, rng):
        # The Mobius factor's log-modulus in its Schwarz-Pick form,
        # -1/2 log1p(A / D), restated with the package's operations.
        pts = np.concatenate(([0.0, 1e-15j], make_sequence(rng, 6).points))
        zs = 0.99 * rng.random(300) * np.exp(2j * np.pi * rng.random(300))
        logs = blaschke.log_factors(pts, zs)
        for i, lam in enumerate(pts):
            assert np.array_equal(logs[i], oracles.sequential_log_modulus([lam], zs))

    @pytest.mark.parametrize("count, size", [(3, 7), (8, 129), (24, 1000)])
    def test_broadcast_and_row_layouts_agree(self, rng, monkeypatch, count, size):
        # One broadcast over a column of centres, blocks of a few rows and
        # one row per centre run the same ufuncs on the same floats.
        pts = np.concatenate(([0.0], make_sequence(rng, count).points))
        zs = 0.999 * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
        table = blaschke.log_factors(pts, zs)
        for limit in (2 * size + 1, 0):  # blocks of two rows, then single rows
            monkeypatch.setattr(blaschke, "_TABLE_LIMIT", limit)
            assert np.array_equal(table, blaschke.log_factors(pts, zs))

    def test_exact_zero_is_minus_inf(self):
        pts = np.array([0.5, -0.25j])
        logs = blaschke.log_factors(pts, pts)
        assert np.array_equal(np.diag(logs), [-np.inf, -np.inf])
        assert np.all(np.isfinite(logs[~np.eye(2, dtype=bool)]))


class TestBlaschkeEvalExcluding:
    def test_excluding_leaves_other_factor(self):
        r = 0.37
        assert abs(blaschke_eval_excluding(PointSequence((0.0, r)), 0, 0.0)) == (
            pytest.approx(r)
        )

    def test_singleton_gives_empty_product(self):
        assert blaschke_eval_excluding(PointSequence((0.5,)), 0, 0.123) == 1.0

    def test_excluding_second_point(self):
        assert blaschke_eval_excluding(PointSequence((0.0, 0.5)), 1, 0.5) == (
            pytest.approx(0.5)
        )

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            blaschke_eval_excluding(PointSequence((0.5,)), 1, 0.0)


class TestSequenceConstants:
    def test_carleson_pair(self):
        assert carleson_constant(PointSequence((0.0, 0.5))) == pytest.approx(0.5)

    def test_carleson_triple(self):
        assert carleson_constant(PointSequence((0.0, 0.5, -0.5))) == pytest.approx(0.25)

    def test_carleson_singleton(self):
        assert carleson_constant(PointSequence((0.5,))) == 1.0

    def test_separation_pair(self):
        assert separation_constant(PointSequence((0.0, 0.5))) == pytest.approx(0.5)

    def test_separation_triple(self):
        assert separation_constant(PointSequence((0.0, 0.5, -0.5))) == pytest.approx(0.5)

    def test_separation_close_pair_bound(self):
        eps = 1e-3
        seq = PointSequence((0.5, 0.5 + eps * (1 - 0.25), 0.0))
        assert separation_constant(seq) <= eps * 1.001

    def test_blaschke_sum_pair(self):
        assert blaschke_sum(PointSequence((0.0, 0.5))) == pytest.approx(1.5)

    def test_blaschke_sum_singleton(self):
        assert blaschke_sum(PointSequence((0.9,))) == pytest.approx(0.1)

    def test_blaschke_sum_radial_family(self):
        k = 6
        seq = PointSequence(tuple(1.0 - 2.0 ** -n for n in range(1, k + 1)))
        assert blaschke_sum(seq) == pytest.approx(1.0 - 2.0 ** -k)

    def test_constants_match_brute_force(self, rng):
        for _ in range(30):
            seq = make_sequence(rng, 7)
            assert carleson_constant(seq) == pytest.approx(
                oracles.carleson(seq.points), rel=1e-12
            )
            assert separation_constant(seq) == pytest.approx(
                oracles.separation(seq.points), rel=1e-12
            )

    @settings(max_examples=40)
    @given(seq=sequences())
    def test_carleson_below_separation(self, seq):
        assert carleson_constant(seq) <= separation_constant(seq) + 1e-15

    @settings(max_examples=40)
    @given(seq=sequences(min_size=3), data=st.data())
    def test_removal_never_decreases_carleson(self, seq, data):
        n = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
        assert carleson_constant(seq.removing(n)) >= carleson_constant(seq) - 1e-15


class TestWeakInterpolationFamily:
    def test_pair_norms(self):
        family = weak_interpolation_family(PointSequence((0.0, 0.5)))
        assert family[1].norm == pytest.approx(2.0)

    def test_kronecker_property(self, rng):
        seq = make_sequence(rng, 5, min_sep=0.2)
        family = weak_interpolation_family(seq)
        for n, member in enumerate(family):
            for k, lam in enumerate(seq.points):
                expected = 1.0 if n == k else 0.0
                assert member.eval(complex(lam)) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_norm_is_boundary_sup(self):
        # |B_n| = 1 on the circle, so |phi_n| is constant there and the
        # advertised norm must match any boundary sample.
        seq = PointSequence((0.3, -0.4j, 0.5 + 0.2j))
        family = weak_interpolation_family(seq)
        thetas = 2 * np.pi * np.arange(64) / 64
        for member in family:
            vals = np.abs(member.eval(np.exp(1j * thetas)))
            assert np.max(np.abs(vals - member.norm)) < 1e-10 * member.norm

    def test_norms_bounded_by_inverse_carleson(self, rng):
        for _ in range(20):
            seq = make_sequence(rng, 6, min_sep=0.1)
            delta = carleson_constant(seq)
            family = weak_interpolation_family(seq)
            bound = (1.0 / delta) * (1.0 + 1e-12)
            assert all(member.norm <= bound for member in family)

    def test_degenerate_sequence_refused(self):
        # A tight cluster drives some |B_n(lam_n)| below the 1e-12 floor.
        base = 0.0
        pts = [base]
        for k in range(1, 8):
            pts.append(pts[-1] + 2e-2 * (1 - abs(pts[-1]) ** 2) / 8)
        seq = PointSequence(tuple(pts))
        if carleson_constant(seq) < 1e-12:
            with pytest.raises(DegenerateSequenceError):
                weak_interpolation_family(seq)
        else:
            pytest.skip("cluster not degenerate enough on this platform")


class TestAnalyze:
    def test_report_fields(self):
        report = analyze(PointSequence((0.0, 0.5)))
        assert isinstance(report, AnalysisReport)
        assert report.blaschke_sum == pytest.approx(1.5)
        assert report.separation_constant == pytest.approx(0.5)
        assert report.carleson_constant == pytest.approx(0.5)
        assert [i for i, _ in report.per_point] == [0, 1]

    def test_carleson_is_min_of_per_point(self, rng):
        for _ in range(20):
            report = analyze(make_sequence(rng, 6))
            assert report.carleson_constant == min(v for _, v in report.per_point)

    def test_carleson_below_separation(self, rng):
        for _ in range(20):
            report = analyze(make_sequence(rng, 6))
            assert report.carleson_constant <= report.separation_constant + 1e-15


class TestDistanceMatrix:
    """The sequence keeps the distance matrix its validation swept."""

    @pytest.mark.parametrize("count, sep, seed", [
        (1, 0.1, 1), (2, 0.1, 2), (17, 0.1, 3), (512, 0.01, 3),
    ])
    def test_invariants_equal_a_fresh_sweep(self, count, sep, seed):
        seq = generate_separated_random(count, sep, seed)
        assert separation_constant(seq) == oracles.separation_constant(seq.points)
        assert np.array_equal(per_point_moduli(seq), oracles.per_point_moduli(seq.points))

    def test_kept_matrix_is_read_only_and_private(self):
        seq = PointSequence((0.0, 0.5, -0.5j), label="t")
        with pytest.raises(ValueError):
            seq._distances[0, 1] = 0.25
        assert np.array_equal(np.diag(seq._distances), np.ones(3))
        assert "_distances" not in repr(seq)

    @pytest.mark.parametrize("bad, message", [
        (1.0, "point 3: point (1+0j) is not strictly interior "
              "(|z| = 1, guard band 1e-09)"),
        (1 - 1e-9, "point 3: point (0.999999999+0j) is not strictly interior "
                   "(|z| = 0.99999999900000003, guard band 1e-09)"),
        # abs() puts this point on the guard, np.abs one ulp inside it.
        (0.45031625814867593 + 0.8928691201105429j,
         "point 3: point (0.45031625814867593+0.8928691201105429j) is not "
         "strictly interior (|z| = 0.99999999900000003, guard band 1e-09)"),
        (complex(np.nan, 0.0),
         "point 3: disk point must be finite, got np.complex128(nan+0j)"),
        (complex(np.inf, 0.5),
         "point 3: disk point must be finite, got np.complex128(inf+0.5j)"),
    ])
    def test_first_bad_point_is_reported_as_a_scalar_loop_would(self, bad, message):
        points = generate_separated_random(512, 0.01, 3).points.copy()
        points[3] = bad
        points[100] = 2.0
        with pytest.raises(PointSetError) as info:
            PointSequence(points)
        assert str(info.value) == message
