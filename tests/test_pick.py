"""Unit tests for the minimal-norm bounded interpolation solver."""

import warnings

import numpy as np
import pytest

from conftest import make_sequence
from diskinterp import (
    BracketFailureError,
    NumericalError,
    PickProblem,
    PointSequence,
    PointSetError,
    RationalInterpolant,
    RecursionBreakdownError,
    construct_interpolant,
    generate_separated_random,
    interpolant_eval,
    is_feasible,
    min_norm,
    norm_upper_bound,
    pick,
    pick_matrix,
    solve_pick,
    sup_norm_boundary,
)
from oracles import _package_mobius as _mobius
from oracles import _trace_scale, ksection_min_norm, package_unwinding, sarason_min_norm


def zero_one(r: float) -> PickProblem:
    return PickProblem(PointSequence((0.0, r)), (0.0, 1.0))


def random_problem(rng, count: int, min_sep: float = 0.3) -> PickProblem:
    nodes = make_sequence(rng, count, min_sep=min_sep)
    targets = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    return PickProblem(nodes, targets)


class TestPickMatrix:
    def test_boundary_feasible_constant(self):
        A = pick_matrix(PickProblem(PointSequence((0.0,)), (1.0,)), 1.0)
        assert A.shape == (1, 1)
        assert A[0, 0] == 0.0

    def test_two_node_entries(self):
        A = pick_matrix(zero_one(0.5), 2.0)
        assert np.allclose(A, [[4.0, 4.0], [4.0, 4.0]], atol=1e-14)

    def test_zero_target(self):
        A = pick_matrix(PickProblem(PointSequence((0.0,)), (0.0,)), 1.0)
        assert A[0, 0] == 1.0

    def test_hermitian(self, rng):
        for _ in range(20):
            A = pick_matrix(random_problem(rng, 5), 3.0)
            assert np.allclose(A, A.conj().T)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(PointSetError):
            PickProblem(PointSequence((0.0, 0.5)), (1.0,))


class TestIsFeasible:
    def test_boundary_case(self):
        assert is_feasible(PickProblem(PointSequence((0.0,)), (1.0,)), 1.0)

    def test_zero_norm(self):
        assert is_feasible(PickProblem(PointSequence((0.0, 0.5)), (0.0, 0.0)), 0.0)
        assert not is_feasible(zero_one(0.5), 0.0)

    def test_two_node_threshold(self):
        assert is_feasible(zero_one(0.5), 2.0)
        assert not is_feasible(zero_one(0.5), 1.99)

    def test_large_norm_always_feasible(self, rng):
        for _ in range(10):
            assert is_feasible(random_problem(rng, 5), 1e6)

    def test_monotone_in_norm(self, rng):
        for _ in range(20):
            problem = random_problem(rng, 5)
            sweep = [is_feasible(problem, M) for M in np.linspace(0.1, 20.0, 40)]
            first_true = sweep.index(True)
            assert all(sweep[first_true:])


class TestMinNorm:
    def test_constant_problem(self):
        assert min_norm(PickProblem(PointSequence((0.0,)), (1.0,))) == (
            pytest.approx(1.0, rel=1e-8)
        )

    def test_schwarz_pair(self):
        assert min_norm(zero_one(0.5)) == pytest.approx(2.0, rel=1e-7)

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_schwarz_family(self, r):
        assert min_norm(zero_one(r)) == pytest.approx(1.0 / r, rel=1e-7)

    def test_upper_bound_is_weak_family_norm(self):
        problem = zero_one(0.5)
        # sum |w_j| / |B_j(lam_j)| = 0 + 1/0.5.
        assert norm_upper_bound(problem) == pytest.approx(2.0)
        assert min_norm(problem) <= norm_upper_bound(problem) * (1 + 1e-12)

    def test_infeasible_upper_end_fails_the_bracket(self, monkeypatch):
        # The Schwarz pair needs norm 2; an upper end of 1.5 tests infeasible.
        monkeypatch.setattr(pick, "norm_upper_bound", lambda problem: 1.5)
        with pytest.raises(BracketFailureError, match="tests infeasible"):
            min_norm(zero_one(0.5))
        with pytest.raises(BracketFailureError):
            solve_pick(zero_one(0.5))

    def test_one_point_bound_at_the_threshold_names_rounding(self):
        # Targets e_1: the explicit bound 1/|B_1(lam_1)| is the minimal norm
        # itself, and here rounding tests it infeasible.  The problem is not
        # degenerate, and the message must not say it is.
        targets = np.zeros(40)
        targets[1] = 1.0
        problem = PickProblem(generate_separated_random(40, 0.1, 4), targets)
        with pytest.raises(BracketFailureError, match="tests infeasible") as info:
            min_norm(problem)
        message = str(info.value)
        assert "degenerate" not in message
        assert "rounding" in message and "5.10576" in message

    def test_overflowing_bound_fails_the_bracket(self, reduction_calls):
        # The minimal norm is about 1.55e308, finite, but the explicit
        # bound's sum overflows, so no bracket can be built.
        seq = generate_separated_random(48, 0.1, 3)
        problem = PickProblem(seq, 7e298 * (np.arange(48) % 2))
        assert norm_upper_bound(problem) == np.inf
        with pytest.raises(BracketFailureError, match="overflows"):
            min_norm(problem)
        assert reduction_calls[0] == 0

    def test_bracket_endpoints(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 5)
            M = min_norm(problem)
            assert is_feasible(problem, M * (1 + 1e-8))
            if not is_feasible(problem, float(np.max(np.abs(problem.targets)))):
                assert not is_feasible(problem, M * (1 - 1e-6))

    def test_constraint_addition_monotonicity(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 6)
            sub = PickProblem(
                PointSequence(problem.nodes.points[:5]), problem.targets[:5]
            )
            # Cushion covers bisection width on the larger bracket.
            assert min_norm(sub) <= min_norm(problem) * (1 + 1e-6) + 1e-6

    def test_boundary_criticality(self, rng):
        for _ in range(20):
            problem = random_problem(rng, 6)
            M = min_norm(problem)
            A = pick_matrix(problem, M)
            smallest = abs(float(np.linalg.eigvalsh(A)[0]))
            assert smallest <= 1e-6 * _trace_scale(A)

    def test_rotation_equivariance(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 5)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rotated = PickProblem(
                PointSequence(problem.nodes.points * phase), problem.targets
            )
            assert min_norm(rotated) == pytest.approx(min_norm(problem), abs=1e-9)

    def test_zero_targets(self):
        assert min_norm(PickProblem(PointSequence((0.0, 0.5)), (0.0, 0.0))) == 0.0

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-8, 1.0, 64.0, float("nan")])
    def test_rejects_tolerance_outside_unit_interval(self, rel_tol):
        # A tolerance of 1 or more would stop the search after its first pass.
        with pytest.raises(ValueError, match="rel_tol"):
            min_norm(zero_one(0.5), rel_tol)


class TestMinNormAgainstOracle:
    """min_norm against the 80-digit Sarason oracle, to 1e-8 relative."""

    def test_oracle_schwarz_pair(self):
        pytest.importorskip("mpmath")
        assert sarason_min_norm((0.0, 0.5), (0.0, 1.0)) == pytest.approx(
            2.0, rel=1e-14
        )

    @pytest.mark.parametrize("kind", ["zero_one", "random"])
    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 40])
    def test_separated_random(self, n, kind):
        pytest.importorskip("mpmath")
        seq = generate_separated_random(n, 0.1, seed=n)
        rng = np.random.default_rng(n)
        if kind == "zero_one":
            targets = rng.integers(0, 2, n).astype(complex)
        else:
            targets = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        expected = sarason_min_norm(seq.points, targets)
        assert min_norm(PickProblem(seq, targets)) == pytest.approx(expected, rel=1e-8)


NODE_KINDS = ("uniform", "near_boundary", "clustered", "regular")
TARGET_KINDS = ("zero_one", "gaussian", "constant")


def stress_problem(nodes: str, targets: str, n: int, seed: int) -> PickProblem:
    """A seeded problem of one node family and one target family."""
    rng = np.random.default_rng([seed, n, NODE_KINDS.index(nodes), TARGET_KINDS.index(targets)])
    if nodes == "regular":
        lam = 0.7 * np.exp(2j * np.pi * np.arange(n) / n)
    elif nodes == "clustered":
        lam = 0.6 * np.exp(2j * np.pi * rng.random()) + 0.15 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lam = np.where(np.abs(lam) < 0.97, lam, 0.97 * lam / np.abs(lam))
    else:
        radius = (0.95 * np.sqrt(rng.random(n)) if nodes == "uniform"
                  else 1.0 - 10.0 ** rng.uniform(-3.0, -1.0, n))
        lam = radius * np.exp(2j * np.pi * rng.random(n))
    if targets == "zero_one":
        w = (rng.random(n) < 0.5).astype(complex)
    elif targets == "gaussian":
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        w = np.full(n, 0.3 + 0.4j)
    return PickProblem(PointSequence(lam), w)


def search_outcome(search, problem: PickProblem, rel_tol: float):
    """The float a norm search returns, or the name of the error it raises."""
    try:
        return search(problem, rel_tol)
    except BracketFailureError as exc:
        return type(exc).__name__


@pytest.fixture
def reduction_calls(monkeypatch):
    """Counts calls of the reduction, which is one pass of a norm search."""
    calls = [0]
    reduce = pick._schur_parameters

    def counted(problem, Ms):
        calls[0] += 1
        return reduce(problem, Ms)

    monkeypatch.setattr(pick, "_schur_parameters", counted)
    return calls


# Near the threshold of the regular family at n = 48 and 64, whose norms
# reach 1e9, the reduction's verdict is not monotone in M over about 4e-10
# relative (4.0e-10 apart at seed 1), so two valid brackets may differ by
# rel_tol plus twice that band.
NON_MONOTONE_SLACK = 1e-9


def assert_agrees_with_ksection(problem: PickProblem, rel_tol: float, slack: float = 0.0):
    """min_norm and the k-section fail alike, or return floats within rel_tol + slack.

    Both return the feasible end of a bracket narrower than rel_tol around
    the threshold, so where the predicate is monotone their floats lie
    within rel_tol of each other.
    """
    guided = search_outcome(min_norm, problem, rel_tol)
    blind = search_outcome(ksection_min_norm, problem, rel_tol)
    if isinstance(guided, str) or isinstance(blind, str):
        assert guided == blind
    else:
        assert guided == pytest.approx(blind, rel=rel_tol + slack, abs=0)


def benchmark_problems(seeds):
    """Problems of the benchmark's ``interpolate`` sizes and target kinds, by n."""
    for n in (8, 12, 16, 24, 32, 48, 64):
        for seed in seeds:
            seq = generate_separated_random(n, 0.1, seed)
            rng = np.random.default_rng(seed)
            random = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            for targets in (np.arange(n) % 2, random):
                yield n, PickProblem(seq, targets)


class TestGuidedSearch:
    """min_norm returns a bracket's feasible end, as the k-section did, in fewer reductions."""

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("nodes", NODE_KINDS)
    def test_same_float_as_ksection(self, nodes, rel_tol):
        # The same float to rel_tol, and to NON_MONOTONE_SLACK more at n = 48
        # and 64.
        for targets in TARGET_KINDS:
            for n in (2, 3, 5, 8, 12, 17, 24, 33, 48, 64):
                slack = NON_MONOTONE_SLACK if n >= 48 else 0.0
                assert_agrees_with_ksection(stress_problem(nodes, targets, n, seed=1), rel_tol, slack)

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-8, 1e-11])
    def test_bracket_contract(self, monkeypatch, rel_tol):
        # Unless M is max |w|, M tested feasible, no norm the search tested
        # below it did, and the highest of those lies less than rel_tol * M
        # below it.  Where the predicate is monotone, the norm rel_tol
        # below M, or max |w| if that is higher, tests infeasible too; at
        # n = 48 and 64 that band is wider than 1e-11.
        verdicts = {}
        reduce = pick._schur_parameters

        def recorded(problem, Ms):
            rows = reduce(problem, Ms)
            verdicts.update(zip(Ms, pick._inside(rows).all(axis=1)))
            return rows

        monkeypatch.setattr(pick, "_schur_parameters", recorded)
        problems = [(n, stress_problem(nodes, targets, n, seed=1))
                    for nodes in NODE_KINDS for targets in TARGET_KINDS
                    for n in (2, 3, 5, 8, 12, 17, 24, 33, 48, 64)]
        problems += list(benchmark_problems((1, 2)))
        for n, problem in problems:
            verdicts.clear()
            M = min_norm(problem, rel_tol)
            lo = float(np.max(np.abs(problem.targets)))
            if M > lo:
                below = [L for L in verdicts if L < M]
                assert verdicts[M] and not any(verdicts[L] for L in below)
                assert M - max(below) < rel_tol * M
            assert is_feasible(problem, M)
            if M > lo and (n < 48 or rel_tol > NON_MONOTONE_SLACK):
                assert not is_feasible(problem, max(lo, M * (1.0 - rel_tol)))

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
    def test_missed_estimate_keeps_the_bracket(self, monkeypatch, rel_tol):
        # An estimate off by 1e-3, or by a factor of 10, puts the threshold
        # outside the first ladder; the k-section after it still returns a
        # tested bracket's feasible end.  It may take more reductions than
        # the blind k-section: up to two more on these inputs.
        verdicts = {}
        reduce = pick._schur_parameters

        def recorded(problem, Ms):
            rows = reduce(problem, Ms)
            verdicts.update(zip(Ms, pick._inside(rows).all(axis=1)))
            return rows

        monkeypatch.setattr(pick, "_schur_parameters", recorded)
        problems = [(n, stress_problem(nodes, targets, n, seed=1))
                    for nodes in NODE_KINDS for targets in TARGET_KINDS
                    for n in (2, 3, 5, 8, 12, 17, 24, 33, 48, 64)]
        problems += list(benchmark_problems((1, 2)))
        for n, problem in problems:
            threshold = ksection_min_norm(problem, 1e-11)
            lo = float(np.max(np.abs(problem.targets)))
            for miss in (1.0 - 1e-3, 1.0 + 1e-3, 10.0, 0.1):
                monkeypatch.setattr(pick, "_norm_estimate", lambda p: threshold * miss)
                verdicts.clear()
                M = min_norm(problem, rel_tol)
                if M > lo:
                    below = [L for L in verdicts if L < M]
                    assert verdicts[M] and not any(verdicts[L] for L in below), (n, miss)
                    assert M - max(below) < rel_tol * M, (n, miss)
                    assert not is_feasible(problem, max(lo, M * (1.0 - rel_tol))), (n, miss)
                assert is_feasible(problem, M)

    def test_one_reduction_up_to_32_nodes(self, reduction_calls):
        # The first reduction's ladder around the norm estimate holds the
        # threshold.
        for n, problem in benchmark_problems(range(1, 9)):
            if n <= 32:
                reduction_calls[0] = 0
                min_norm(problem)
                assert reduction_calls[0] == 1, n

    def test_one_reduction_at_48_and_64_nodes(self, reduction_calls):
        # It holds it here too: the estimate lies within 9e-9 of the
        # threshold, inside the ladder's 1e-7 reach.
        for n, problem in benchmark_problems(range(1, 9)):
            if n >= 48:
                reduction_calls[0] = 0
                min_norm(problem)
                assert reduction_calls[0] == 1, n

    def test_feasible_lower_end_takes_one_pass(self, reduction_calls):
        # A constant target is met by the constant function, at norm max |w|.
        problem = stress_problem("uniform", "constant", 12, seed=1)
        assert min_norm(problem) == ksection_min_norm(problem) == 0.5
        assert reduction_calls[0] == 2

    def test_zero_targets_take_no_pass(self, reduction_calls):
        problem = PickProblem(generate_separated_random(8, 0.1, 1), np.zeros(8))
        assert min_norm(problem) == ksection_min_norm(problem) == 0.0
        assert reduction_calls[0] == 0

    def test_infeasible_upper_end_fails_both_searches(self, monkeypatch):
        problem = stress_problem("uniform", "gaussian", 12, seed=1)
        just_above_lo = float(np.max(np.abs(problem.targets))) * (1.0 + 1e-6)
        monkeypatch.setattr(pick, "norm_upper_bound", lambda p: just_above_lo)
        for search in (min_norm, ksection_min_norm):
            with pytest.raises(BracketFailureError, match="tests infeasible"):
                search(problem)

    def test_unguided_search_is_the_ksection(self, monkeypatch, reduction_calls):
        # With no norm estimate, every reduction tests the k-section's grid
        # and nothing else.
        monkeypatch.setattr(pick, "_norm_estimate", lambda problem: None)
        for nodes in NODE_KINDS:
            for targets in TARGET_KINDS:
                for n in (2, 5, 12, 24, 48):
                    problem = stress_problem(nodes, targets, n, seed=1)
                    for rel_tol in (1e-4, 1e-8, 1e-12):
                        outcomes = []
                        for search in (min_norm, ksection_min_norm):
                            reduction_calls[0] = 0
                            outcomes.append((search_outcome(search, problem, rel_tol),
                                             reduction_calls[0]))
                        assert outcomes[0] == outcomes[1], (nodes, targets, n, rel_tol)

    def test_fewer_passes_than_ksection(self, reduction_calls):
        guided, blind = [], []
        for n in (8, 12, 16, 24, 32, 48, 64):
            for seed in range(1, 5):
                seq = generate_separated_random(n, 0.1, seed)
                rng = np.random.default_rng(seed)
                random = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
                for targets in (np.arange(n) % 2, random):
                    problem = PickProblem(seq, targets)
                    for search, passes in ((min_norm, guided), (ksection_min_norm, blind)):
                        reduction_calls[0] = 0
                        search(problem)
                        passes.append(reduction_calls[0])
        assert np.mean(guided) <= 5.5
        assert all(g <= b for g, b in zip(guided, blind))


def near_point(lam: complex, rho: float, phase: complex = 1.0) -> complex:
    """The point at pseudohyperbolic distance rho from lam, in direction phase."""
    z = rho * phase
    return (z + lam) / (1.0 + np.conj(lam) * z)


class TestPickEstimate:
    """pick._norm_estimate, the top of the Pick pencil that guides min_norm's first pass."""

    BASE = (0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.6j, 0.7j, -0.2 - 0.3j)

    def test_reduction_budget(self, reduction_calls):
        # The norm estimate lets the first reduction confirm every level.
        passes = {}
        for n in (8, 12, 16, 24, 32, 48, 64):
            for seed in range(1, 5):
                seq = generate_separated_random(n, 0.1, seed)
                rng = np.random.default_rng(seed)
                random = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
                for targets in (np.arange(n) % 2, random):
                    reduction_calls[0] = 0
                    min_norm(PickProblem(seq, targets))
                    passes.setdefault(n, []).append(reduction_calls[0])
        assert max(passes[8] + passes[12] + passes[16]) <= 2
        assert np.mean([p for counts in passes.values() for p in counts]) <= 2.2

    def test_close_to_min_norm(self, rng):
        problems = [stress_problem(nodes, targets, n, seed)
                    for nodes in NODE_KINDS for targets in TARGET_KINDS
                    for n in (2, 3, 5, 8, 12) for seed in (1, 2, 3)]
        problems += [random_problem(rng, n) for n in (3, 6, 12) for _ in range(10)]
        for problem in problems:
            M = min_norm(problem)
            if M == 0.0:
                continue
            estimate = pick._norm_estimate(problem)
            assert estimate is not None
            assert estimate == pytest.approx(M, rel=1e-6)

    def test_close_to_threshold_at_small_carleson_constant(self):
        # Where min_j |B_j(lam_j)| is below 1e-10, the rows of F span many
        # decades.  A pivoting solve with F mixes them and drifts by up to
        # 2.5e-4 on these inputs; forward substitution stays within 1.1e-8.
        checked = 0
        for nodes in NODE_KINDS:
            for targets in ("zero_one", "gaussian"):
                for n in (2, 3, 5, 8, 12, 17, 24, 33, 48, 64):
                    for seed in range(1, 7):
                        problem = stress_problem(nodes, targets, n, seed)
                        if pick._ESTIMATE_MIN_DELTA <= np.min(problem._moduli) < 1e-10:
                            checked += 1
                            assert pick._norm_estimate(problem) == pytest.approx(
                                ksection_min_norm(problem, 1e-11), rel=2e-8), (nodes, targets, n, seed)
        assert checked >= 30

    @pytest.mark.parametrize("rho", [1e-5, 1e-7, 2e-9])
    def test_nearly_coincident_nodes(self, rho):
        # The Gram matrix C is singular to working precision from rho = 1e-7
        # on; the factor F of the estimate is built from Mobius values and
        # never factors C.
        lam = np.array(self.BASE + (near_point(self.BASE[0], rho),))
        problem = PickProblem(PointSequence(lam), np.arange(6) % 2)
        estimate = pick._norm_estimate(problem)
        assert estimate == pytest.approx(min_norm(problem), rel=1e-8)
        assert_agrees_with_ksection(problem, 1e-8)

    @pytest.mark.parametrize("n, sep, seed", [(128, 0.05, 1), (128, 0.05, 2), (7, None, 0)])
    def test_skipped_below_delta_floor(self, n, sep, seed):
        if sep is None:
            # Three nodes within 3e-9 of each other: |B_j(lam_j)| is near 1e-18.
            lam = self.BASE + (near_point(self.BASE[0], 3e-9), near_point(self.BASE[0], 3e-9, 1j))
            seq = PointSequence(np.array(lam))
        else:
            seq = generate_separated_random(n, sep, seed)
        problem = PickProblem(seq, np.arange(n) % 2)
        assert np.min(problem._moduli) < pick._ESTIMATE_MIN_DELTA
        assert pick._norm_estimate(problem) is None
        assert_agrees_with_ksection(problem, 1e-8)

    def test_never_more_reductions_than_ksection(self, reduction_calls):
        # On these inputs the first ladder either holds the threshold or
        # leaves a bracket from which the k-section needs no more passes
        # than from the start.  An estimate that misses by more can cost
        # more (test_missed_estimate_keeps_the_bracket).
        for nodes in NODE_KINDS:
            for targets in TARGET_KINDS:
                for n in (5, 12, 17, 24, 33, 41, 64):
                    for seed in (1, 2, 3):
                        problem = stress_problem(nodes, targets, n, seed)
                        for rel_tol in (1e-4, 1e-8, 1e-12):
                            passes = []
                            for search in (min_norm, ksection_min_norm):
                                reduction_calls[0] = 0
                                search_outcome(search, problem, rel_tol)
                                passes.append(reduction_calls[0])
                            assert passes[0] <= passes[1], (nodes, targets, n, seed, rel_tol)

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_extreme_target_scales(self, scale):
        # T T* would overflow at 1e200 without scaling the targets to 1.
        problem = PickProblem(generate_separated_random(10, 0.1, 1), scale * (np.arange(10) % 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = pick._norm_estimate(problem)
        assert estimate == pytest.approx(min_norm(problem), rel=1e-6)

    def test_runs_on_large_benchmark_sizes(self):
        # At n = 48 and 64 the Carleson constant is about 1e-16 to 1e-10.
        # An estimate that solves with C itself is off by 5 % there (median
        # over the benchmark's inputs); the explicit factor F by about 1e-8.
        for n in (48, 64):
            problem = PickProblem(generate_separated_random(n, 0.1, 3), np.arange(n) % 2)
            assert pick._norm_estimate(problem) == pytest.approx(min_norm(problem), rel=1e-6)


class TestConstructInterpolant:
    def test_constant_problem(self):
        f = construct_interpolant(PickProblem(PointSequence((0.0,)), (1.0,)), 1.0)
        assert interpolant_eval(f, 0.3 + 0.2j) == pytest.approx(1.0)

    def test_near_critical_norm(self):
        problem = zero_one(0.5)
        f = construct_interpolant(problem, 2.0000001)
        assert interpolant_eval(f, 0.0) == pytest.approx(0.0, abs=1e-8)
        assert interpolant_eval(f, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_relaxed_norm(self):
        problem = zero_one(0.5)
        f = construct_interpolant(problem, 4.0)
        assert interpolant_eval(f, 0.0) == pytest.approx(0.0, abs=1e-8)
        assert interpolant_eval(f, 0.5) == pytest.approx(1.0, abs=1e-8)
        assert sup_norm_boundary(f) <= 4.0 * (1 + 1e-9)

    @pytest.mark.parametrize("M", [float("inf"), float("nan"), -1.0])
    def test_rejects_norm_that_is_not_finite_and_nonnegative(self, M):
        # At M = inf every parameter is 0 and evaluation returned inf * 0 = nan.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            construct_interpolant(zero_one(0.5), M)

    def test_infeasible_norm_breaks_down(self):
        with pytest.raises(RecursionBreakdownError):
            construct_interpolant(zero_one(0.5), 1.5)

    def test_modulus_bounded_by_scale(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 5)
            M = min_norm(problem) * 1.01
            f = construct_interpolant(problem, M)
            zs = 0.97 * np.exp(2j * np.pi * rng.uniform(size=200))
            zs *= rng.uniform(size=200) ** 0.5
            assert np.max(np.abs(interpolant_eval(f, zs))) <= M * (1 + 1e-9)

    def test_breaks_down_exactly_below_min_norm(self):
        # Construction and norm search share one feasibility test.
        seq = generate_separated_random(24, 0.1, seed=5)
        problem = PickProblem(seq, np.arange(24) % 2)
        M = min_norm(problem)
        construct_interpolant(problem, M)
        with pytest.raises(RecursionBreakdownError, match="at node"):
            construct_interpolant(problem, M * (1 - 1e-6))

    def test_schur_parameters_in_disk(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 5)
            f = construct_interpolant(problem, min_norm(problem) * 1.01)
            assert all(abs(p) <= 1 + 1e-9 for _, p in f.schur_steps)


def random_interpolant(n: int, seed: int) -> RationalInterpolant:
    """Steps on separated nodes, two of them at 0 and 1e-15, parameters in the closed disk."""
    rng = np.random.default_rng(seed)
    nodes = generate_separated_random(n, 0.1, seed).points.copy()
    if n > 2:
        nodes[rng.choice(n, 2, replace=False)] = 0.0, 1e-15
    params = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return RationalInterpolant(tuple(zip(nodes.tolist(), params.tolist())),
                               float(10.0 * rng.random()))


class TestInterpolantEval:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_bit_equal_to_the_stepwise_unwinding(self, n):
        # The broadcast factors equal _mobius's, step by step, at the nodes,
        # on a boundary grid split into several blocks of steps, and at
        # random points in a 2-D array.
        circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
        if n == 64:  # the full grid takes several blocks of steps
            assert n - 1 > pick._EVAL_BLOCK // circle.size
        for seed in range(1, 21):
            f = random_interpolant(n, seed)
            rng = np.random.default_rng(seed)
            inside = np.sqrt(rng.random((3, 7))) * np.exp(2j * np.pi * rng.random((3, 7)))
            nodes = np.array([lam for lam, _ in f.schur_steps])
            for z in (nodes, circle[::1 if n == 64 else 64], inside):
                got = interpolant_eval(f, z)
                assert got.shape == z.shape
                assert np.array_equal(got.view(float), package_unwinding(f, z).view(float))

    def test_scalar_is_the_one_point_array(self):
        # A scalar runs the array path, so it agrees with the array value
        # bit for bit, as a Python complex, a numpy scalar or a 0-d array.
        for seed in range(1, 11):
            f = random_interpolant(8, seed)
            z = 0.3 - 0.45j
            want = interpolant_eval(f, np.array([z]))[0]
            for scalar in (z, np.complex128(z), np.array(z)):
                got = interpolant_eval(f, scalar)
                assert type(got) is complex and got == want


class TestSupNormBoundary:
    def test_constant(self):
        f = construct_interpolant(PickProblem(PointSequence((0.0,)), (1.0,)), 1.0)
        assert sup_norm_boundary(f) == pytest.approx(1.0, abs=1e-12)

    def test_schwarz_extremal(self):
        # The minimal interpolant for f(0)=0, f(0.5)=1 is f(z) = 2z.
        solution = solve_pick(zero_one(0.5))
        assert sup_norm_boundary(solution.interpolant) == pytest.approx(2.0, abs=2e-6)

    def test_never_exceeds_scale(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 4)
            f = construct_interpolant(problem, min_norm(problem) * 1.1)
            assert sup_norm_boundary(f, grid=512) <= f.scale * (1 + 1e-9)

    def test_rejects_small_grid(self):
        f = construct_interpolant(PickProblem(PointSequence((0.0,)), (1.0,)), 1.0)
        with pytest.raises(ValueError):
            sup_norm_boundary(f, grid=128)


class TestSolvePick:
    def test_reports_consistent_bundle(self, rng):
        for _ in range(20):
            problem = random_problem(rng, 6)
            solution = solve_pick(problem)
            f = solution.interpolant
            M = solution.min_norm
            scale = max(1.0, M)
            for lam, w in zip(problem.nodes.points, problem.targets):
                assert abs(interpolant_eval(f, complex(lam)) - w) <= 1e-8 * scale
            assert sup_norm_boundary(f, grid=512) <= M * (1 + 1e-6)

    def test_zero_problem(self):
        solution = solve_pick(PickProblem(PointSequence((0.0, 0.5)), (0.0, 0.0)))
        assert solution.min_norm == 0.0
        assert interpolant_eval(solution.interpolant, 0.3) == 0.0

    def test_margin_is_small_at_reported_norm(self, rng):
        problem = random_problem(rng, 5)
        solution = solve_pick(problem)
        A = pick_matrix(problem, solution.min_norm * (1 + 1e-6))
        assert abs(solution.feasibility_margin) <= 1e-5 * _trace_scale(A) + 1e-12

    @pytest.mark.parametrize("n", [48, 64])
    def test_margin_is_read_off_the_reduction(self, n):
        seq = generate_separated_random(n, 0.1, 3)
        solution = solve_pick(PickProblem(seq, np.arange(n) % 2))
        params = np.array([p for _, p in solution.interpolant.schur_steps])
        assert solution.feasibility_margin == pytest.approx(
            1.0 - np.max(np.abs(params)), rel=0, abs=1e-15
        )
        assert -1e-9 <= solution.feasibility_margin <= 1.0

    def test_residuals_are_node_misfits(self, rng):
        problem = random_problem(rng, 6)
        solution = solve_pick(problem)
        expected = interpolant_eval(solution.interpolant, problem.nodes.points)
        assert np.array_equal(solution.residuals, expected - problem.targets)

    def test_sup_on_circle_refines_on_one_arc(self):
        # One call on the 2 * 64 + 1 points within a spacing of the argmax.
        calls = []

        def fn(z):
            calls.append(z.size)
            return np.cos(3.0 * np.angle(z) - 0.1)

        thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        vals = np.abs(np.cos(3.0 * thetas - 0.1))
        got = pick._sup_on_circle(fn, thetas, vals)
        assert calls == [129]
        assert vals.max() <= got <= 1.0
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_reduction_divides_by_the_evaluators_factors(self):
        # The reduction's divisors b_{lam_i}(lam_j) are the floats that
        # interpolant_eval's _mobius computes at the nodes, bit for bit, so
        # the norm search and the residual check round each factor alike.
        sequences = [generate_separated_random(n, 0.1, seed) for n in (8, 33, 64) for seed in (1, 2)]
        sequences.append(PointSequence((0.0, 0.5, -0.4j, 0.3 + 0.6j)))
        for seq in sequences:
            lam = seq.points
            factors = PickProblem(seq, np.zeros(len(seq)))._factor_values
            for i, centre in enumerate(lam.tolist()[:-1]):
                assert np.array_equal(factors[i], _mobius(centre, lam)), (len(seq), i)

    def test_residual_guard_names_node(self, monkeypatch):
        construct = pick.construct_interpolant

        def misplaced_last_parameter(problem, M):
            f = construct(problem, M)
            *steps, (lam, p) = f.schur_steps
            return RationalInterpolant((*steps, (lam, 0.5 * p)), f.scale)

        monkeypatch.setattr(pick, "construct_interpolant", misplaced_last_parameter)
        with pytest.raises(NumericalError, match="node 1 "):
            solve_pick(zero_one(0.5))
