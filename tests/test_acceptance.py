"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; every criterion is also an ordinary assertion, so the
plain exit status of this file is the gate.
"""

import itertools
import json

import numpy as np
import pytest

import oracles
from conftest import random_separated, run_cli, write_document
from diskinterp import (
    CounterexampleSpec,
    PickProblem,
    PointSequence,
    blaschke_log_modulus,
    carleson_constant,
    cli,
    comparability_fit,
    corresponding_decomposition,
    exclusion_grid,
    generate_counterexample,
    generate_radial,
    interpolant_eval,
    min_norm,
    mobius_transform,
    pick_matrix,
    pseudo_disk_euclidean,
    pseudohyperbolic_distance,
    sample_pseudo_circle,
    separation_constant,
    solve_pick,
    sup_norm_boundary,
    verify_theorem_chain,
    weak_interpolation_family,
    zero_one_problem,
)


def _report(num: int, label: str, failures: list):
    verdict = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {num} ({label}): {verdict}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures[:5])


def _disk_batch(rng, count: int, max_abs: float) -> np.ndarray:
    radius = max_abs * np.sqrt(rng.uniform(0.0, 1.0, count))
    return radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def test_criterion_1_geometry_invariants():
    failures = []
    rng = np.random.default_rng(101)
    worst_uni = worst_inv = worst_circle = 0.0
    symmetry_exact = True
    agreement_ok = True
    # 100 base points x 100 companion pairs = 1e4 (lam, z, w) triples.
    for lam in _disk_batch(rng, 100, 0.9):
        lam = complex(lam)
        z = _disk_batch(rng, 100, 0.9)
        w = _disk_batch(rng, 100, 0.9)
        zeta = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 100))
        worst_uni = max(
            worst_uni, np.max(np.abs(np.abs(mobius_transform(lam, zeta)) - 1.0))
        )
        d = pseudohyperbolic_distance(z, w)
        symmetry_exact &= np.array_equal(d, pseudohyperbolic_distance(w, z))
        d_moved = pseudohyperbolic_distance(
            mobius_transform(lam, z), mobius_transform(lam, w)
        )
        worst_inv = max(worst_inv, np.max(np.abs(d_moved - d)))
        # Euclidean realization of the pseudohyperbolic disk around lam.
        delta = float(rng.uniform(0.05, 0.95))
        disk = pseudo_disk_euclidean(lam, delta)
        on_circle = sample_pseudo_circle(lam, delta, 100)
        worst_circle = max(
            worst_circle,
            np.max(np.abs(pseudohyperbolic_distance(on_circle, lam) - delta)),
        )
        rho = pseudohyperbolic_distance(z, lam)
        clear = np.abs(rho - delta) > 1e-10
        agreement_ok &= bool(np.all((rho < delta)[clear] == disk.contains(z)[clear]))
    if worst_uni > 1e-12:
        failures.append(f"boundary unimodularity off by {worst_uni:.3e}")
    if not symmetry_exact:
        failures.append("metric symmetry is not exact")
    if worst_inv > 1e-12:
        failures.append(f"Mobius invariance off by {worst_inv:.3e}")
    if worst_circle > 1e-10:
        failures.append(f"disk boundary agreement off by {worst_circle:.3e}")
    if not agreement_ok:
        failures.append("Euclidean and pseudohyperbolic membership disagree")
    _report(1, "disk geometry invariants over 1e4 triples", failures)


def test_criterion_2_blaschke_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(202)
    for case in range(100):
        count = int(rng.integers(2, 13))
        points = random_separated(rng, count, min_sep=0.05)
        seq = PointSequence(tuple(points))
        car, sep = carleson_constant(seq), separation_constant(seq)
        car_ref, sep_ref = oracles.carleson(points), oracles.separation(points)
        if abs(car - car_ref) > 1e-12 * car_ref:
            failures.append(f"case {case}: carleson {car!r} vs oracle {car_ref!r}")
        if abs(sep - sep_ref) > 1e-12 * sep_ref:
            failures.append(f"case {case}: separation {sep!r} vs oracle {sep_ref!r}")
        if not car <= sep:
            failures.append(f"case {case}: carleson {car!r} > separation {sep!r}")
    _report(2, "blaschke constants match brute force on 100 sequences", failures)


def test_criterion_3_pick_solver_oracle():
    failures = []
    for r in np.arange(1, 10) / 10.0:
        got = min_norm(PickProblem(PointSequence((0.0, float(r))), (0.0, 1.0)))
        if abs(got - 1.0 / r) > 1e-7 / r:
            failures.append(f"min_norm(0,{r}) = {got!r}, want {1.0 / r!r}")
    single = min_norm(PickProblem(PointSequence((0.0,)), (1.0,)))
    if abs(single - 1.0) > 1e-9:
        failures.append(f"min_norm single node = {single!r}, want 1")
    rng = np.random.default_rng(303)
    for case in range(50):
        count = int(rng.integers(2, 9))
        points = random_separated(rng, count, min_sep=0.3)
        targets = _disk_batch(rng, count, 1.0)
        problem = PickProblem(PointSequence(tuple(points)), tuple(targets))
        star = min_norm(problem)
        A = pick_matrix(problem, star)
        trace_scale = max(1.0, float(np.trace(A).real) / count)
        smallest = float(np.linalg.eigvalsh(A)[0])
        if abs(smallest) > 1e-6 * trace_scale:
            failures.append(f"case {case}: eigenvalue {smallest:.3e} not critical")
        sol = solve_pick(problem)
        resid = np.max(np.abs(interpolant_eval(sol.interpolant, np.asarray(points))
                              - targets))
        if resid > 1e-8:
            failures.append(f"case {case}: residual {resid:.3e}")
        sup = sup_norm_boundary(sol.interpolant)
        if sup > sol.interpolant.scale * (1 + 1e-9):
            failures.append(f"case {case}: boundary sup {sup!r} exceeds scale")
    _report(3, "pick solver hits 1/r oracle and boundary criticality", failures)


def test_criterion_4_weak_family():
    failures = []
    seq = generate_radial(0.5, 8)
    family = weak_interpolation_family(seq)
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for n, member in enumerate(family):
        values = member.eval(seq.points)
        values[n] -= 1.0
        off = float(np.max(np.abs(values)))
        if off > 1e-10:
            failures.append(f"member {n}: kronecker defect {off:.3e}")
        sup = float(np.max(np.abs(member.eval(circle))))
        if abs(sup - member.norm) > 1e-6 * member.norm:
            failures.append(f"member {n}: boundary sup {sup!r} vs norm {member.norm!r}")
    _report(4, "weak family is dual basis with tight boundary norm", failures)


def _radial_families():
    return [(ratio, count) for ratio in (0.3, 0.5, 0.7) for count in (4, 6, 8)]


def test_criterion_5_theorem_chain():
    failures = []
    for ratio, count in _radial_families():
        tag = f"radial({ratio}, {count})"
        report = verify_theorem_chain(generate_radial(ratio, count))
        if not report.hypothesis_ok:
            failures.append(f"{tag}: hypothesis rejected")
            continue
        for step, rows in (("A", report.step_a), ("B", report.step_b)):
            margin = min(row.value - row.bound for row in rows)
            if margin < -1e-6:
                failures.append(f"{tag}: step {step} margin {margin:.3e}")
        for row_c, row_final in zip(report.step_c, report.final):
            if row_c.passed and not (
                row_final.bound <= report.carleson_direct * (1 + 1e-6)
            ):
                failures.append(
                    f"{tag}: fitted bound {row_final.bound!r} exceeds "
                    f"carleson {report.carleson_direct!r}"
                )
    _report(5, "theorem chain holds on nine radial families", failures)


def _sandwich_violations(dec) -> int:
    """Violations on an independent grid inside Omega, from the distance-matrix oracle."""
    points = oracles.exclusion_points(dec.base.points, dec.delta, 256)
    L0 = blaschke_log_modulus(dec.part_sequence(0), points)
    L1 = blaschke_log_modulus(dec.part_sequence(1), points)
    a, b = dec.fitted_a, dec.fitted_b
    bad_lower = ~(a <= np.exp(L1 - L0 / b))
    bad_upper = ~(a <= np.exp(b * L0 - L1))
    return int(np.sum(bad_lower) + np.sum(bad_upper))


def test_criterion_6_hoffman_fit():
    failures = []
    for ratio, count in _radial_families():
        tag = f"radial({ratio}, {count})"
        seq = generate_radial(ratio, count)
        dec = corresponding_decomposition(seq)
        if not np.isfinite(dec.fitted_b):
            failures.append(f"{tag}: fitted b not finite")
            continue
        bad = _sandwich_violations(dec)
        if bad:
            failures.append(f"{tag}: {bad} sandwich violations")
        grid = exclusion_grid(seq, dec.delta)
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
        # The search minimizes b on the rim samples; refinement then raises it.
        sampled_b = dec.fitted_b - dec.b_gap
        if not sampled_b == pytest.approx(best, rel=1e-12):
            failures.append(f"{tag}: sampled b {sampled_b!r} vs exhaustive {best!r}")
        if dec.b_gap < 0.0:
            failures.append(f"{tag}: refinement lowered b by {-dec.b_gap!r}")
    _report(6, "hoffman fit is clean and exhaustively optimal", failures)


def test_criterion_7_counterexample_family():
    failures = []
    gaps = (0.1, 0.01, 0.001)
    norms = {}
    prev_sep = prev_car = np.inf
    for gap in gaps:
        spec = CounterexampleSpec(num_pairs=4, gap=gap, base_radial_ratio=0.5)
        seq, dec = generate_counterexample(spec)
        sep, car = separation_constant(seq), carleson_constant(seq)
        if not sep <= gap:
            failures.append(f"gap {gap}: separation {sep!r} above gap")
        if not car <= gap:
            failures.append(f"gap {gap}: carleson {car!r} above gap")
        if not (sep <= prev_sep and car <= prev_car):
            failures.append(f"gap {gap}: constants not monotone in gap")
        prev_sep, prev_car = sep, car
        norms[gap] = min_norm(zero_one_problem(dec))
    if not norms[0.001] <= 2.0 * norms[0.1]:
        failures.append(
            f"zero/one norm blew up: {norms[0.001]!r} vs {norms[0.1]!r} at gap 0.1"
        )
    _report(7, "counterexample family separates (C) from zero/one data", failures)


def test_criterion_8_cli_contract(tmp_path):
    failures = []
    seq = PointSequence((0.1 + 0.2j, -0.35, 0.6j), label="round-trip")
    back = cli.parse_point_document(json.loads(json.dumps(cli.sequence_to_document(seq))))
    if not (np.array_equal(back.points, seq.points) and back.label == seq.label):
        failures.append("document round trip is not bit exact")
    doc = write_document(
        tmp_path / "radial.json", [1 - 0.5 ** k for k in range(1, 5)], label="radial"
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    codes = (
        run_cli(["analyze", doc, "--output", str(out1)]),
        run_cli(["analyze", doc, "--output", str(out2)]),
    )
    if codes != (0, 0):
        failures.append(f"analyze exit codes {codes}, want (0, 0)")
    if out1.read_bytes() != out2.read_bytes():
        failures.append("repeated analyze runs differ byte for byte")
    if run_cli(["interpolate", doc, "--targets", "0,1"]) != 64:
        failures.append("mismatched targets did not exit 64")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema_version": 1, "points": []}))
    if run_cli(["analyze", str(empty)]) != 1:
        failures.append("empty document did not exit 1")
    gen = tmp_path / "counterexample.json"
    code = run_cli([
        "counterexample", "--pairs", "4", "--gap", "1e-7", "--ratio", "0.5",
        "--output", str(gen),
    ])
    if code != 0:
        failures.append(f"counterexample generation exited {code}")
    else:
        ce_doc = tmp_path / "ce-points.json"
        ce_doc.write_text(json.dumps(json.loads(gen.read_text())["runs"][0]["document"]))
        chain_out = tmp_path / "chain.json"
        code = run_cli(["verify-theorem", str(ce_doc), "--output", str(chain_out)])
        if code != 1:
            failures.append(f"verify-theorem on counterexample exited {code}, want 1")
        elif json.loads(chain_out.read_text())["hypothesis_ok"] is not False:
            failures.append("counterexample chain did not report hypothesis_ok false")
    _report(8, "cli round trip, determinism, and exit codes", failures)
