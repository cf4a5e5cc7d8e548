"""Unit tests for disk geometry: Mobius transforms, metric, pseudo-disks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from diskinterp import (
    PointSetError,
    mobius_transform,
    pseudo_disk_euclidean,
    pseudohyperbolic_distance,
    sample_pseudo_circle,
)
from diskinterp import geometry

interior = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False)


class TestMobiusTransform:
    def test_fixed_point_maps_to_zero(self):
        assert mobius_transform(0.5, 0.5) == 0.0

    def test_zero_parameter_is_identity(self):
        assert mobius_transform(0.0, 0.3 + 0.4j) == 0.3 + 0.4j

    def test_real_axis_example(self):
        assert mobius_transform(0.5, -0.5) == pytest.approx(-0.8, abs=1e-15)

    def test_matches_direct_formula(self, rng):
        for _ in range(200):
            lam = complex(*rng.uniform(-0.6, 0.6, 2))
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            assert mobius_transform(lam, z) == pytest.approx(
                oracles.mobius(lam, z), abs=1e-14
            )

    def test_interior_argument_stays_interior(self, rng):
        for _ in range(100):
            lam = complex(*rng.uniform(-0.6, 0.6, 2))
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            assert abs(mobius_transform(lam, z)) < 1.0

    def test_rejects_exterior_parameter(self):
        with pytest.raises(PointSetError):
            mobius_transform(1.5, 0.0)

    def test_rejects_exterior_argument(self):
        with pytest.raises(PointSetError):
            mobius_transform(0.5, 2.0)

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.1, 0.2 + 0.3j, -0.5j])
        out = mobius_transform(0.4, zs)
        for z, w in zip(zs, out):
            assert w == mobius_transform(0.4, complex(z))

    @given(lam=interior, theta=angles)
    def test_unimodular_on_boundary(self, lam, theta):
        w = mobius_transform(lam, np.exp(1j * theta))
        assert abs(abs(w) - 1.0) < 1e-12


class TestPseudohyperbolicDistance:
    def test_distance_from_origin_is_modulus(self):
        assert pseudohyperbolic_distance(0.3 + 0.4j, 0.0) == pytest.approx(0.5)

    def test_real_pair_example(self):
        assert pseudohyperbolic_distance(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)

    def test_zero_on_diagonal(self):
        assert pseudohyperbolic_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    @given(z=interior, w=interior)
    def test_symmetry_is_exact(self, z, w):
        assert pseudohyperbolic_distance(z, w) == pseudohyperbolic_distance(w, z)

    @given(z=interior, w=interior)
    def test_range(self, z, w):
        d = pseudohyperbolic_distance(z, w)
        assert 0.0 <= d < 1.0

    @given(x=interior, y=interior, z=interior)
    def test_triangle_inequality(self, x, y, z):
        d1 = pseudohyperbolic_distance(x, y)
        d2 = pseudohyperbolic_distance(y, z)
        bound = (d1 + d2) / (1.0 + d1 * d2)
        assert pseudohyperbolic_distance(x, z) <= bound + 1e-12

    @given(a=interior, z=interior, w=interior)
    def test_mobius_invariance(self, a, z, w):
        za, wa = mobius_transform(a, z), mobius_transform(a, w)
        assert pseudohyperbolic_distance(za, wa) == pytest.approx(
            pseudohyperbolic_distance(z, w), abs=1e-12
        )


class TestPseudoDisk:
    def test_centered_disk(self):
        disk = pseudo_disk_euclidean(0.0, 0.3)
        assert disk.euclid_center == 0.0
        assert disk.euclid_radius == pytest.approx(0.3)

    def test_shifted_disk(self):
        disk = pseudo_disk_euclidean(0.5, 0.5)
        assert disk.euclid_center == pytest.approx(0.4)
        assert disk.euclid_radius == pytest.approx(0.4)

    def test_real_axis_extremes_have_distance_delta(self):
        # The circle around center 0.4 with radius 0.4 crosses the axis at
        # 0.8 and 0.0; both sit at pseudohyperbolic distance 0.5 from 0.5.
        for z in (0.8, 0.0):
            assert pseudohyperbolic_distance(z, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_sampled_circle_point(self):
        assert abs(mobius_transform(0.5, 0.4 + 0.4j)) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            pseudo_disk_euclidean(0.5, 1.5)
        with pytest.raises(ValueError):
            pseudo_disk_euclidean(0.5, 0.0)

    @given(lam=interior, delta=st.floats(min_value=0.05, max_value=0.95), z=interior)
    def test_membership_consistency(self, lam, delta, z):
        # Euclidean membership must agree with the defining sublevel set,
        # except within a thin band around the boundary circle.
        disk = pseudo_disk_euclidean(lam, delta)
        d = pseudohyperbolic_distance(z, lam)
        if abs(d - delta) <= 1e-10:
            return
        assert bool(disk.contains(z)) == (d < delta)


class TestSamplePseudoCircle:
    def test_centered_square(self):
        pts = sample_pseudo_circle(0.0, 0.3, 4)
        expected = np.array([0.3, 0.3j, -0.3, -0.3j])
        assert np.allclose(pts, expected, atol=1e-15)

    def test_real_axis_extremes(self):
        pts = sample_pseudo_circle(0.5, 0.5, 2)
        assert np.allclose(sorted(pts.real), [0.0, 0.8], atol=1e-15)
        assert np.allclose(pts.imag, 0.0, atol=1e-15)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            sample_pseudo_circle(0.5, 0.5, 0)

    @settings(max_examples=50)
    @given(
        lam=interior,
        delta=st.floats(min_value=0.05, max_value=0.95),
        m=st.integers(min_value=8, max_value=64),
    )
    def test_samples_lie_on_pseudo_circle(self, lam, delta, m):
        pts = sample_pseudo_circle(lam, delta, m)
        assert len(pts) == m
        dist = pseudohyperbolic_distance(pts, lam)
        assert np.max(np.abs(dist - delta)) < 1e-10


# Centres at the origin, below the zero tolerance, generic, and just inside
# the guard band, where 1 - |lam|^2 cancels most.
CENTRES = np.array([0.0, 1e-15, 0.3 + 0.4j, -0.7j, -0.2 + 0.05j,
                    (1.0 - 2e-9) * np.exp(0.3j), -(1.0 - 1.5e-9)])


class TestSamplePseudoCircleOverCentres:
    """The scalar disk helpers over a set of centres, one centre per call."""

    def test_closed_forms_are_the_scalar_python_arithmetic(self):
        # |lam|^2 is C pow() and the center's parts are divided separately,
        # as CPython computes lam * (1 - d^2) / denom; a square by
        # multiplication differs in the last bit on about 1 in 1000 moduli.
        rng = np.random.default_rng(7)
        centres = np.sqrt(rng.random(4000)) * 0.999 * np.exp(2j * np.pi * rng.random(4000))
        for delta in (0.05, 0.5, 0.95):
            for lam in centres.tolist():
                denom = 1.0 - delta * delta * abs(lam) ** 2
                disk = pseudo_disk_euclidean(lam, delta)
                assert disk.euclid_center == lam * (1.0 - delta * delta) / denom
                assert disk.euclid_radius == delta * (1.0 - abs(lam) ** 2) / denom

    @pytest.mark.parametrize("bad", [1.0, 0.6 + 0.8j, complex("nan"), complex("inf")])
    def test_rejects_a_bad_centre(self, bad):
        with pytest.raises(PointSetError):
            sample_pseudo_circle(bad, 0.5, 4)
        with pytest.raises(PointSetError):
            pseudo_disk_euclidean(bad, 0.5)

    @pytest.mark.parametrize("delta, m", [(0.0, 4), (1.0, 4), (1.5, 4), (-0.1, 4), (0.5, 0)])
    def test_rejects_bad_delta_or_count(self, delta, m):
        for lam in CENTRES.tolist():
            with pytest.raises(ValueError):
                sample_pseudo_circle(lam, delta, m)


class TestMobiusInverse:
    @pytest.mark.parametrize("delta", [1e-6, 0.01, 0.5, 0.999])
    def test_inverts_the_mobius_kernel(self, delta):
        # The rim of D(lam, delta) is the image of the circle |w| = delta;
        # w = +delta lands on the rim's point of largest modulus.  b_lam
        # stretches a rim point's rounding by |b_lam'(z)| =
        # (1 - delta^2) / (1 - |z|^2), so the round trip is held to that;
        # near the circle the forward kernel's 1 - conj(lam) z cancels as
        # well, so there the scalar restatement alone holds z.
        w = delta * np.exp(2j * np.pi * np.arange(64) / 64)
        eps = np.finfo(float).eps
        for lam in CENTRES.tolist():
            z = geometry._mobius_inverse(lam, w)
            if abs(lam) < 0.9:
                stretch = (1.0 - delta * delta) / (1.0 - np.abs(z) ** 2)
                back = geometry._mobius_rows([lam], z)[0]
                assert np.all(np.abs(back - w) <= 8 * eps * stretch)
            for t, zt in zip(np.arange(64) / 64 * 2 * np.pi, z.tolist()):
                assert abs(zt - oracles.rim_point(lam, delta, float(t))) <= 1e-15
            r = 0.0 if abs(lam) < 1e-14 else abs(lam)
            assert abs(z[0]) == pytest.approx((r + delta) / (1 + r * delta), rel=1e-15)

    def test_zero_centre_is_the_identity(self):
        w = np.array([0.3, -0.2j, 0.1 + 0.1j])
        for lam in (0.0, 1e-15, 2.2250738585072014e-309):
            assert np.array_equal(geometry._mobius_inverse(lam, w), w)


class TestMobiusRows:
    def test_rows_are_the_package_formula_bit_for_bit(self, rng):
        centres = np.concatenate((CENTRES, 0.9 * rng.random(20) * np.exp(2j * np.pi * rng.random(20))))
        zs = 0.99 * np.sqrt(rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
        rows = geometry._mobius_rows(centres, zs)
        for lam, row in zip(centres.tolist(), rows):
            assert np.array_equal(row, oracles._package_mobius(lam, zs))

    @pytest.mark.parametrize("centre", [2.2250738585072014e-309, 5e-324j, -1e-310 + 1e-310j])
    def test_subnormal_centre_is_the_identity_without_a_warning(self, centre):
        # Dividing by a subnormal |lam| overflowed, and numpy warned on stderr.
        zs = np.array([0.0, 0.5, -0.3 + 0.2j, 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = geometry._mobius_rows(np.array([centre, 0.5]), zs)
        assert np.array_equal(rows[0], zs)
        assert np.array_equal(rows[1], oracles._package_mobius(0.5, zs))
