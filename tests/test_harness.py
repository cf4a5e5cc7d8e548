"""Unit tests for generators, the zero/one problem, and the proof chain."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import oracles
from diskinterp import (
    BoundaryGuardError,
    CounterexampleSpec,
    NumericalError,
    PackingFailureError,
    PointSequence,
    PointSetError,
    blaschke_eval,
    blaschke_eval_excluding,
    carleson_constant,
    corresponding_decomposition,
    generate_counterexample,
    generate_radial,
    generate_separated_random,
    min_norm,
    norm_upper_bound,
    pseudohyperbolic_distance,
    remark_two_functions_check,
    separation_constant,
    verify_theorem_chain,
    zero_one_problem,
)
from conftest import run_cli, write_document
from diskinterp import analyze, blaschke, cli, geometry, harness, hoffman, pick


class TestGenerateRadial:
    def test_small_family(self):
        seq = generate_radial(0.5, 3)
        assert np.allclose(seq.points, [0.5, 0.75, 0.875])

    def test_pair_separation(self):
        seq = generate_radial(0.5, 2)
        assert separation_constant(seq) == pytest.approx(0.4)

    def test_boundary_guard_trips(self):
        with pytest.raises(BoundaryGuardError):
            generate_radial(0.5, 35)

    def test_slow_family_stays_clear_of_guard(self):
        seq = generate_radial(0.9, 60)
        assert len(seq) == 60
        assert np.max(np.abs(seq.points)) < 1 - 1e-9

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            generate_radial(1.5, 3)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            generate_radial(0.5, 0)


class TestGenerateSeparatedRandom:
    def test_single_point(self):
        seq = generate_separated_random(1, 0.5, seed=7)
        assert len(seq) == 1

    def test_respects_min_sep(self):
        seq = generate_separated_random(12, 0.2, seed=3)
        assert separation_constant(seq) >= 0.2

    def test_deterministic(self):
        a = generate_separated_random(8, 0.15, seed=42)
        b = generate_separated_random(8, 0.15, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_output(self):
        a = generate_separated_random(8, 0.15, seed=1)
        b = generate_separated_random(8, 0.15, seed=2)
        assert not np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("count, sep, seed, digest", [
        (24, 0.1, 1, "1a55bb7992bb56cc2d8c472f19c54d84c460fb378f2f9a3d9470819d9a15864f"),
        (40, 0.1, 7919, "ebe189880c69b7b9e45352e00c925f2aee07d3a88d0d0930c858a207c8a9176a"),
        (128, 0.05, 2, "a8c4789ab0e4a259e2278fa462e1b98e245066bf30f22a2be8ebfc5c80ba6dcc"),
        (256, 0.02, 5, "6a525c8050655c675f04e7430820fa575bffa8582d99d5601aaddc44be2b2f95"),
        (512, 0.01, 3, "b00cea033592e6facccf2be6d1c367137f460b70cae2e3b03a850b61ff362fae"),
    ])
    def test_points_pinned_by_bytes(self, count, sep, seed, digest):
        # The benchmark and the tests name inputs by (count, sep, seed), so
        # the drawn points must stay the same bits from release to release.
        points = generate_separated_random(count, sep, seed).points
        assert hashlib.sha256(points.tobytes()).hexdigest() == digest

    def test_packing_failure(self):
        # Radius 0.95 caps pairwise distances below this separation.
        with pytest.raises(PackingFailureError):
            generate_separated_random(2, 0.9999999, seed=0)


class TestCounterexampleFamily:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(num_pairs=1, gap=0.01, base_radial_ratio=0.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(num_pairs=2, gap=0.0, base_radial_ratio=0.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(num_pairs=2, gap=1.0, base_radial_ratio=0.5)
        # The split is fitted at delta = 2 * gap, which must stay below 1.
        with pytest.raises(ValueError, match="gap"):
            CounterexampleSpec(num_pairs=2, gap=0.5, base_radial_ratio=0.5)
        # Pairs at or below the distinctness floor would not be distinct points.
        for gap in (1e-9, 1e-12):
            with pytest.raises(ValueError, match="gap must exceed the distinctness floor"):
                CounterexampleSpec(num_pairs=2, gap=gap, base_radial_ratio=0.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(num_pairs=2, gap=0.01, base_radial_ratio=1.0)

    def test_small_family_structure(self):
        spec = CounterexampleSpec(num_pairs=2, gap=0.01, base_radial_ratio=0.5)
        seq, dec = generate_counterexample(spec)
        assert len(seq) == 4
        assert separation_constant(seq) <= 0.01
        assert carleson_constant(seq) <= 0.01
        assert dec.delta == pytest.approx(0.02)

    def test_pairs_sit_at_gap(self):
        spec = CounterexampleSpec(num_pairs=3, gap=0.05, base_radial_ratio=0.5)
        seq, _ = generate_counterexample(spec)
        pts = seq.points
        for n in range(3):
            d = pseudohyperbolic_distance(pts[2 * n], pts[2 * n + 1])
            assert d == pytest.approx(0.05, abs=1e-12)

    def test_parity_split(self):
        spec = CounterexampleSpec(num_pairs=3, gap=0.02, base_radial_ratio=0.5)
        _, dec = generate_counterexample(spec)
        assert dec.part0 == (2, 3)
        assert dec.part1 == (0, 1, 4, 5)

    def test_declared_split_is_fitted_on_the_grid_matrix(self, counted_calls):
        # The declared split goes through decompose, which fits it from the
        # exclusion grid's own factor matrix: no part is evaluated again.
        _, dec = generate_counterexample(CounterexampleSpec(4, 0.01, 0.5))
        assert counted_calls == {"exclusion_grid": 1}
        assert dec.search == "declared"
        assert (dec.masks_enumerated, dec.masks_evaluated) == (0, 0)
        assert dec.part0 == (2, 3, 6, 7)

    def test_boundary_guard_propagates(self):
        spec = CounterexampleSpec(num_pairs=40, gap=0.01, base_radial_ratio=0.5)
        with pytest.raises(BoundaryGuardError):
            generate_counterexample(spec)

    def test_norm_stays_bounded_as_gap_shrinks(self):
        norms = {}
        for gap in (0.1, 0.001):
            spec = CounterexampleSpec(num_pairs=2, gap=gap, base_radial_ratio=0.5)
            _, dec = generate_counterexample(spec)
            norms[gap] = min_norm(zero_one_problem(dec))
        assert norms[0.001] <= 2 * norms[0.1]


class TestZeroOneProblem:
    def make_dec(self, part0=(0,)):
        seq = PointSequence((0.0, 0.5))
        return corresponding_decomposition(seq), seq

    def test_targets_zero_then_one(self):
        dec, seq = self.make_dec()
        problem = zero_one_problem(dec)
        assert np.array_equal(problem.nodes.points, seq.points)
        expected = np.zeros(2, dtype=complex)
        expected[list(dec.part1)] = 1.0
        assert np.array_equal(problem.targets, expected)

    def test_pair_min_norm_is_two(self):
        dec, _ = self.make_dec()
        assert min_norm(zero_one_problem(dec)) == pytest.approx(2.0, rel=1e-7)

    def test_swapped_parts_swap_targets(self):
        from diskinterp import Decomposition

        dec, _ = self.make_dec()
        swapped = Decomposition(
            base=dec.base, part0=dec.part1, part1=dec.part0, delta=dec.delta,
            fitted_a=dec.fitted_a, fitted_b=dec.fitted_b,
            fit_grid_size=dec.fit_grid_size,
            rim_samples=dec.rim_samples, worst_point=dec.worst_point,
            worst_rim=dec.worst_rim, b_gap=dec.b_gap,
        )
        problem = zero_one_problem(swapped)
        combined = problem.targets[list(dec.part0)]
        assert np.all(combined == 1.0)
        assert np.isfinite(min_norm(problem))


class TestVerifyTheoremChain:
    def test_two_point_worked_example(self):
        report = verify_theorem_chain(PointSequence((0.0, 0.5)))
        assert report.hypothesis_ok
        assert report.delta == pytest.approx(0.25)
        assert report.c == pytest.approx(2.0, rel=2e-4)
        assert report.eta == 1.0 / report.c
        assert len(report.step_a) == 1
        row = report.step_a[0]
        assert row.value == pytest.approx(0.5, abs=1e-12)
        assert row.passed

    def test_radial_chain_passes(self):
        seq = generate_radial(0.5, 6)
        report = verify_theorem_chain(seq)
        assert report.hypothesis_ok
        assert report.hard_steps_pass
        for row_c, row_f in zip(report.step_c, report.final):
            if row_c.passed:
                assert row_f.bound <= report.carleson_direct * (1 + 1e-6)

    def test_eta_is_reciprocal_and_carleson_matches(self):
        seq = generate_radial(0.5, 5)
        report = verify_theorem_chain(seq)
        assert report.eta == 1.0 / report.c
        assert report.eta_g == 1.0 / report.c_g
        assert report.carleson_direct == pytest.approx(
            carleson_constant(seq), rel=1e-12
        )

    def test_per_point_moduli_once(self, monkeypatch):
        # carleson_direct is the minimum of the moduli the final rows use.
        calls = []
        compute = harness.per_point_moduli
        for module in (harness, blaschke):
            monkeypatch.setattr(module, "per_point_moduli",
                                lambda seq: calls.append(seq) or compute(seq))
        seq = generate_radial(0.5, 5)
        report = verify_theorem_chain(seq)
        assert calls == [seq]
        assert report.carleson_direct == carleson_constant(seq)
        assert [row.value for row in report.final] == compute(seq).tolist()

    def test_non_separated_sequence_fails_hypothesis(self):
        spec = CounterexampleSpec(num_pairs=2, gap=1e-7, base_radial_ratio=0.5)
        seq, _ = generate_counterexample(spec)
        report = verify_theorem_chain(seq)
        assert not report.hypothesis_ok
        assert math.isnan(report.c)
        assert report.step_a == ()
        assert report.final == ()

    def test_rejects_singleton(self):
        with pytest.raises(PointSetError):
            verify_theorem_chain(PointSequence((0.5,)))

    def test_row_count_matches_parts(self):
        seq = generate_radial(0.4, 6)
        report = verify_theorem_chain(seq)
        assert len(report.step_a) + len(report.step_b) == len(seq)
        assert len(report.step_c) == len(seq)
        assert len(report.final) == len(seq)

    def test_necessity_weak_family_bound(self):
        # The zero/one norm never beats the explicit weak-family combination.
        for ratio, n in ((0.3, 5), (0.5, 6), (0.7, 5)):
            seq = generate_radial(ratio, n)
            problem = zero_one_problem(corresponding_decomposition(seq))
            assert min_norm(problem) <= norm_upper_bound(problem) * (1 + 1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [17, 20, 24, 32])
    def test_completes_on_random_separated(self, n, seed):
        report = verify_theorem_chain(generate_separated_random(n, 0.1, seed))
        assert report.hypothesis_ok
        assert report.hard_steps_pass
        assert len(report.step_a) + len(report.step_b) == n


    @pytest.mark.parametrize("n, seed", [(10, 2), (17, 1)])
    def test_evaluates_factors_once(self, counted_calls, n, seed):
        # The exclusion grid is the one factor matrix; the step and final
        # rows read the sequence's distance matrix.
        verify_theorem_chain(generate_separated_random(n, 0.1, seed))
        assert counted_calls == {"exclusion_grid": 1}

    @pytest.mark.parametrize("n, seed", [(8, 1), (10, 2), (14, 3), (17, 1)])
    def test_step_values_match_scalar_products(self, n, seed):
        # Steps A-C are column sums over each part of the logs of the
        # distance matrix; each row must agree with the scalar product it
        # stands for.
        seq = generate_separated_random(n, 0.1, seed)
        report = verify_theorem_chain(seq)
        dec = corresponding_decomposition(seq)
        parts = (dec.part_sequence(0), dec.part_sequence(1))
        expected_a = [abs(blaschke_eval(parts[0], pt)) for pt in parts[1].points]
        expected_b = [abs(blaschke_eval(parts[1], pt)) for pt in parts[0].points]
        expected_c = []
        for i, pt in enumerate(seq.points):
            k = 1 if i in dec.part1 else 0
            pos = (dec.part0, dec.part1)[k].index(i)
            expected_c.append(abs(blaschke_eval_excluding(parts[k], pos, pt)))
        for rows, expected in ((report.step_a, expected_a),
                               (report.step_b, expected_b),
                               (report.step_c, expected_c)):
            assert len(rows) == len(expected)
            for row, value in zip(rows, expected):
                assert row.value == pytest.approx(value, rel=1e-14, abs=0.0)
        eta1, eta2 = remark_two_functions_check(dec)
        assert eta1 == pytest.approx(min(expected_a), rel=1e-14, abs=0.0)
        assert eta2 == pytest.approx(min(expected_b), rel=1e-14, abs=0.0)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts pairwise-distance calls and sequences built, from every binding."""
    counts = {"distance": 0, "sequence": 0}
    distance = geometry.pseudohyperbolic_distance
    post_init = PointSequence.__post_init__

    def counted_distance(*args):
        counts["distance"] += 1
        return distance(*args)

    def counted_post_init(self):
        counts["sequence"] += 1
        post_init(self)

    for module in (geometry, blaschke, harness, hoffman, pick, cli):
        if getattr(module, "pseudohyperbolic_distance", None) is distance:
            monkeypatch.setattr(module, "pseudohyperbolic_distance", counted_distance)
    monkeypatch.setattr(PointSequence, "__post_init__", counted_post_init)
    return counts


class TestOneDistanceSweep:
    """Each sequence sweeps its pairwise distances once, when it is built."""

    def test_analyze(self, sweeps):
        points = generate_separated_random(64, 0.05, 2).points
        sweeps.update(distance=0, sequence=0)
        analyze(PointSequence(points))
        assert sweeps == {"distance": 1, "sequence": 1}

    def test_verify_theorem_chain(self, sweeps):
        points = generate_separated_random(10, 0.1, 1).points
        sweeps.update(distance=0, sequence=0)
        report = verify_theorem_chain(PointSequence(points))
        assert report.hard_steps_pass
        assert sweeps == {"distance": 1, "sequence": 1}

    @pytest.mark.parametrize("command", ["analyze", "verify-theorem"])
    def test_cli(self, sweeps, tmp_path, command):
        doc = write_document(tmp_path / "in.json", generate_separated_random(10, 0.1, 1).points)
        sweeps.update(distance=0, sequence=0)
        assert run_cli([command, doc]) == 0
        assert sweeps == {"distance": 1, "sequence": 1}


@pytest.fixture
def chain_solution(monkeypatch):
    """Records the solution each chain run gets from solve_pick."""
    solutions = []
    solve = harness.solve_pick

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(harness, "solve_pick", recorded)
    return solutions


class TestChainNormBound:
    """c and c_g are the construction's norm bounds M and 1 + M."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 10, 12, 14, 17, 20, 24, 32])
    def test_bound_sits_just_above_the_sampled_norms(self, chain_solution, n, seed):
        report = verify_theorem_chain(generate_separated_random(n, 0.1, seed))
        (solution,) = chain_solution
        f = solution.interpolant
        assert solution.feasibility_margin >= 0.0
        assert report.c == f.scale
        assert report.c_g == 1.0 + f.scale
        sampled, sampled_g = oracles.sampled_chain_norms(f)
        for bound, estimate in ((report.c, sampled), (report.c_g, sampled_g)):
            assert estimate <= bound
            assert bound - estimate <= 1e-6 * bound
        # A larger norm only lowers eta, so no row bound exceeds the sampled one.
        eta, eta_g = 1.0 / sampled, 1.0 / sampled_g
        scale, inv_b = report.fitted_a / report.delta, 1.0 / report.fitted_b
        limits = ((report.step_a, eta), (report.step_b, eta_g),
                  (report.final, scale * min(eta, eta_g) ** (1.0 + inv_b)))
        for rows, limit in limits:
            assert all(row.bound <= limit for row in rows)
        # Step A runs over part 1, whose step C rows use eta; part 0's use eta_g.
        part1 = {row.point for row in report.step_a}
        for row in report.step_c:
            limit = scale * (eta if row.point in part1 else eta_g) ** inv_b
            assert row.bound <= limit

    def test_negative_feasibility_margin_raises(self, monkeypatch, tmp_path):
        solve = harness.solve_pick

        def outside(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), feasibility_margin=-1e-10)

        monkeypatch.setattr(harness, "solve_pick", outside)
        seq = generate_separated_random(10, 0.1, 1)
        with pytest.raises(NumericalError, match="feasibility margin -1.000e-10"):
            verify_theorem_chain(seq)
        doc = write_document(tmp_path / "in.json", seq.points)
        assert run_cli(["verify-theorem", doc]) == 2

    @pytest.mark.parametrize("via_cli", [False, True])
    def test_no_interpolant_eval_in_a_chain(self, monkeypatch, tmp_path, chain_solution, via_cli):
        # solve_pick unwinds the node residuals on the reduction's own
        # factor table, bit for bit what interpolant_eval gives at the nodes.
        sizes = []
        evaluate = pick.interpolant_eval
        for module in (pick, harness, cli):
            if getattr(module, "interpolant_eval", None) is evaluate:
                monkeypatch.setattr(module, "interpolant_eval",
                                    lambda f, z: sizes.append(np.size(z)) or evaluate(f, z))
        points = generate_separated_random(10, 0.1, 1).points
        if via_cli:
            doc = write_document(tmp_path / "in.json", points)
            assert run_cli(["verify-theorem", doc]) == 0
        else:
            assert verify_theorem_chain(PointSequence(points)).hard_steps_pass
        assert sizes == []
        (solution,) = chain_solution
        problem = zero_one_problem(corresponding_decomposition(PointSequence(points)))
        expected = evaluate(solution.interpolant, problem.nodes.points) - problem.targets
        assert solution.residuals.tobytes() == expected.tobytes()


class TestRemarkTwoFunctions:
    def test_pair_values(self):
        dec = corresponding_decomposition(PointSequence((0.0, 0.5)))
        eta1, eta2 = remark_two_functions_check(dec)
        assert eta1 == pytest.approx(0.5, abs=1e-12)
        assert eta2 == pytest.approx(0.5, abs=1e-12)

    def test_eta1_dominates_chain_eta(self):
        seq = generate_radial(0.5, 4)
        report = verify_theorem_chain(seq)
        dec = corresponding_decomposition(seq)
        eta1, _ = remark_two_functions_check(dec)
        assert eta1 >= report.eta * (1 - 1e-6)

    def test_mirror_symmetric_parts(self):
        from diskinterp import decompose

        dec = decompose(PointSequence((0.5, -0.5)), 0.25)
        eta1, eta2 = remark_two_functions_check(dec)
        assert eta1 == pytest.approx(eta2, abs=1e-15)
