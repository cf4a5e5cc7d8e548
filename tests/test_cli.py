"""End-to-end tests of the command-line front end, run in-process."""

import functools
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import run_cli, write_document
from diskinterp import (
    ChainRow,
    PickProblem,
    PointSequence,
    cli,
    corresponding_decomposition,
    exclusion_grid,
    generate_separated_random,
    interpolant_eval,
    separation_constant,
    solve_pick,
)


@pytest.fixture
def pair_doc(tmp_path):
    return write_document(tmp_path / "pair.json", [0.0, 0.5], label="pair")


@pytest.fixture
def radial_doc(tmp_path):
    pts = [1 - 0.5 ** n for n in range(1, 7)]
    return write_document(tmp_path / "radial.json", pts, label="radial")


def read_json(path):
    return json.loads(path.read_text())


def interior_cells(resolution: int) -> int:
    """Cells of the field's square grid that lie in |z| < 0.999."""
    xs = np.linspace(-0.999, 0.999, resolution)
    X, Y = np.meshgrid(xs, xs)
    return int(np.sum(np.abs(X + 1j * Y) < 0.999))


def field_rows(path) -> int:
    """Data rows of a field CSV, below its header."""
    return len(path.read_text().strip().splitlines()) - 1


def assert_same_text(got: str, expected: str):
    """Byte equality, reporting the first differing line (a full diff is slow)."""
    pairs = zip(got.splitlines(keepends=True), expected.splitlines(keepends=True))
    for k, (a, b) in enumerate(pairs):
        assert a == b, f"line {k} differs"
    assert len(got) == len(expected)


class TestDocumentLayer:
    def test_round_trip_is_bit_exact(self):
        seq = PointSequence((0.1 + 0.2j, -0.3, 0.7j), label="t")
        doc = cli.sequence_to_document(seq)
        back = cli.parse_point_document(json.loads(json.dumps(doc)))
        assert np.array_equal(back.points, seq.points)
        assert back.label == seq.label

    def test_rejects_wrong_schema(self):
        with pytest.raises(cli.DomainError, match="schema_version"):
            cli.parse_point_document({"schema_version": 2, "points": []})

    def test_rejects_empty_points(self):
        with pytest.raises(cli.DomainError, match="points"):
            cli.parse_point_document({"schema_version": 1, "points": []})

    def test_names_offending_index(self):
        doc = {"schema_version": 1, "points": [{"re": 0.0, "im": 0.0}, {"re": "x", "im": 0}]}
        with pytest.raises(cli.DomainError, match="point 1"):
            cli.parse_point_document(doc)

    def test_float_formatting_survives_parse(self):
        x = 1 / 3
        assert float(cli._fmt_float(x)) == x

    def test_nan_serializes_as_null(self):
        assert cli._fmt_float(math.nan) == "null"


    def test_rejects_boolean_coordinates(self):
        for rec in ({"re": True, "im": 0}, {"re": 0.5, "im": False}):
            with pytest.raises(cli.DomainError, match="not booleans"):
                cli.parse_point_document({"schema_version": 1, "points": [rec]})

    def test_boolean_coordinate_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "points": [{"re": True, "im": 0}]}))
        assert run_cli(["analyze", str(path)]) == 1
        assert "not booleans" in capsys.readouterr().err

    def test_non_utf8_document_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"label": "Fran\u00e7ois"}'.encode("latin-1"))
        assert run_cli(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8 text" in err


class TestRunConfig:
    def test_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.grid_resolution == 128
        assert cfg.boundary_grid == 4096

    def test_rejects_out_of_range_resolution(self):
        with pytest.raises(cli.UsageError):
            cli.RunConfig(grid_resolution=16)
        with pytest.raises(cli.UsageError):
            cli.RunConfig(boundary_grid=10_000)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(cli.UsageError):
            cli.RunConfig(bisect_rel_tol=0.0)

    @pytest.mark.parametrize("tol", [1.0, 64.0, math.nan])
    def test_tolerance_outside_unit_interval_exits_64(self, tmp_path, pair_doc, capsys, tol):
        # At 1 or more the norm search stopped after its first pass.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bisect_rel_tol": tol}))
        for extra in (["--bisect-rel-tol", repr(tol)], ["--config", str(cfg_file)]):
            assert run_cli(["interpolate", pair_doc, "--targets", "0,1", *extra]) == 64
            out, err = capsys.readouterr()
            assert out == ""
            assert "bisect_rel_tol must lie in (0, 1)" in err

    @pytest.mark.parametrize("key, value", [
        ("grid_resolution", 64.0), ("grid_resolution", True), ("grid_resolution", "64"),
        ("boundary_grid", 300.5), ("boundary_grid", False),
        ("bisect_rel_tol", "x"), ("bisect_rel_tol", True), ("bisect_rel_tol", None),
        ("bisect_rel_tol", math.nan),
        ("output_path", 1), ("output_path", 2), ("output_path", ["out.json"]),
    ])
    def test_rejects_wrongly_typed_values(self, key, value):
        with pytest.raises(cli.UsageError, match=key):
            cli.RunConfig(**{key: value})

    def test_integer_output_path_in_config_writes_nothing(self, tmp_path, pair_doc, capsys):
        # An integer would otherwise be opened as a file descriptor.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"output_path": 1}))
        assert run_cli(["analyze", pair_doc, "--config", str(cfg_file)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "output_path" in err

    def test_precedence_flags_over_file_over_defaults(self, tmp_path, pair_doc):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_resolution": 64}))
        out = tmp_path / "out.csv"
        code = run_cli([
            "field", pair_doc, "--config", str(cfg_file),
            "--grid-resolution", "48", "--output", str(out),
        ])
        assert code == 0
        assert field_rows(out) == interior_cells(48)

    def test_config_file_applies_without_flags(self, tmp_path, pair_doc):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_resolution": 64}))
        out = tmp_path / "out.csv"
        code = run_cli([
            "field", pair_doc, "--config", str(cfg_file), "--output", str(out),
        ])
        assert code == 0
        assert field_rows(out) == interior_cells(64)

    def test_config_resolution_leaves_decompose_alone(self, tmp_path, pair_doc):
        # A shared config file may set grid_resolution; only field reads it.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_resolution": 64}))
        outs = [tmp_path / "with.json", tmp_path / "without.json"]
        assert run_cli(["decompose", pair_doc, "--config", str(cfg_file),
                        "--output", str(outs[0])]) == 0
        assert run_cli(["decompose", pair_doc, "--output", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path, pair_doc):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"resolution": 64}))
        assert run_cli(["decompose", pair_doc, "--config", str(cfg_file)]) == 64

    def test_seed_config_key_is_refused(self, tmp_path, pair_doc, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 3}))
        assert run_cli(["decompose", pair_doc, "--config", str(cfg_file)]) == 64
        assert "unknown config keys: seed" in capsys.readouterr().err

    def test_psd_tol_config_key_is_refused(self, tmp_path, pair_doc, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"psd_tol": 1e-10}))
        assert run_cli(["decompose", pair_doc, "--config", str(cfg_file)]) == 64
        assert "unknown config keys: psd_tol" in capsys.readouterr().err


class TestAnalyze:
    def test_pair_constants(self, tmp_path, pair_doc):
        out = tmp_path / "report.json"
        assert run_cli(["analyze", pair_doc, "--output", str(out)]) == 0
        report = read_json(out)
        assert report["separation_constant"] == pytest.approx(0.5)
        assert report["carleson_constant"] == pytest.approx(0.5)
        assert [p["index"] for p in report["per_point"]] == [0, 1]

    def test_empty_points_exits_domain(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "points": []}))
        assert run_cli(["analyze", str(bad)]) == 1

    def test_duplicate_point_names_index(self, tmp_path, capsys):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "points": [{"re": 0.5, "im": 0.0}, {"re": 0.5, "im": 0.0}],
        }))
        assert run_cli(["analyze", str(bad)]) == 1
        assert "0 and 1" in capsys.readouterr().err

    def test_missing_file_exits_domain(self):
        assert run_cli(["analyze", "/nonexistent/points.json"]) == 1

    def test_determinism_byte_identical(self, tmp_path, radial_doc):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["analyze", radial_doc, "--output", str(out1)]) == 0
        assert run_cli(["analyze", radial_doc, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("per_point", [
        ((0, 0.5),),
        ((0, 0.25), (1, math.nan), (2, 1e-300), (3, 0.1 + 0.2)),
    ])
    def test_per_point_rows_match_generic_writer(self, per_point):
        rows = [{"index": i, "modulus": m} for i, m in per_point]
        assert cli._per_point_json(per_point) == cli._emit_json(rows, indent=1)


class TestDecompose:
    def test_default_delta_is_half_separation(self, tmp_path, pair_doc):
        out = tmp_path / "dec.json"
        assert run_cli(["decompose", pair_doc, "--output", str(out)]) == 0
        dec = read_json(out)
        assert dec["delta"] == pytest.approx(0.25)
        assert sorted(dec["part0"] + dec["part1"]) == [0, 1]

    def test_explicit_delta_overrides(self, tmp_path, pair_doc):
        out = tmp_path / "dec.json"
        code = run_cli(["decompose", pair_doc, "--delta", "0.1", "--output", str(out)])
        assert code == 0
        assert read_json(out)["delta"] == pytest.approx(0.1)

    def test_singleton_is_domain_error(self, tmp_path):
        doc = write_document(tmp_path / "one.json", [0.5])
        assert run_cli(["decompose", str(doc)]) == 1

    def test_reports_rim_fit_diagnostics(self, tmp_path, radial_doc):
        out = tmp_path / "dec.json"
        assert run_cli(["decompose", radial_doc, "--output", str(out)]) == 0
        dec = read_json(out)
        assert list(dec)[5:10] == ["fit_grid_size", "rim_samples", "worst_point",
                                   "worst_rim", "b_gap"]
        assert dec["rim_samples"] == 128
        assert dec["fit_grid_size"] == 6 * 128  # disjoint disks at separation/2
        assert dec["worst_rim"] in range(6)
        assert dec["b_gap"] >= 0.0
        assert "fit_grid_resolution" not in dec

    def test_reports_search_diagnostics(self, tmp_path, radial_doc):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["decompose", radial_doc, "--output", str(out1)]) == 0
        assert run_cli(["decompose", radial_doc, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        search = read_json(out1)["search"]
        assert list(search) == ["method", "masks_enumerated", "masks_evaluated"]
        assert search["method"] == "exhaustive"
        assert search["masks_enumerated"] == 2 ** 5 - 1
        assert 0 < search["masks_evaluated"] <= search["masks_enumerated"]


def near_boundary_points(seed: int) -> np.ndarray:
    """12 points, 1 - |lam| log-uniform in [1e-9, 1e-2], uniform angles."""
    rng = np.random.default_rng(seed)
    return (1.0 - 10.0 ** rng.uniform(-9, -2, 12)) * np.exp(2j * np.pi * rng.random(12))


class TestNearBoundary:
    """decompose on points out to the guard band, 1e-9 from the circle.

    There a factor's log-modulus on a far rim is as small as 1e-10 of its
    neighbours'.  The modulus of (z - lam) / (1 - conj(lam) z) rounded it
    to 0, and a part's sum taken as the total minus the other part lost
    it; either split the search's ratios by zero.
    """

    @pytest.mark.parametrize("seed", range(30))
    def test_decompose_is_silent_with_no_zero_rim_log(self, tmp_path, capsys, seed):
        points = near_boundary_points(seed)
        doc = write_document(tmp_path / "near.json", points)
        assert run_cli(["decompose", doc]) == 0
        assert capsys.readouterr().err == ""
        seq = PointSequence(points)
        grid = exclusion_grid(seq, separation_constant(seq) / 2)
        assert np.all(grid.factors < 0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "fitted_a is exp of about -b, b ~ 1e8 to 1e12 here, and underflows to 0; "
        "reporting log a is ROADMAP item 15's log-domain step"))
    def test_fitted_a_is_positive(self, tmp_path):
        for seed in range(30):
            out = tmp_path / f"dec{seed}.json"
            doc = write_document(tmp_path / "near.json", near_boundary_points(seed))
            assert run_cli(["decompose", doc, "--output", str(out)]) == 0
            assert read_json(out)["fitted_a"] > 0.0, seed


class TestInterpolate:
    def test_pair_zero_one(self, tmp_path, pair_doc):
        out = tmp_path / "sol.json"
        code = run_cli([
            "interpolate", pair_doc, "--targets", "0,1", "--output", str(out),
        ])
        assert code == 0
        sol = read_json(out)
        assert sol["min_norm"] == pytest.approx(2.0, rel=1e-6)
        assert sol["max_abs_residual"] <= 1e-8
        assert len(sol["schur_parameters"]) == 2

    def test_subnormal_centre_runs_silently(self, tmp_path, capsys):
        # A node of subnormal modulus takes the factor b_lam(z) = z of a
        # zero centre; dividing by that modulus once overflowed and warned
        # on stderr.  The report's bytes are those the warning came with.
        doc = write_document(tmp_path / "sub.json", (2.2250738585072014e-309, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["interpolate", doc, "--targets", "0,1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6308509d9448b34afeb7f05c92bd60a146dae5301003ce9c11476adaaba56d90")

    def test_reports_solver_residuals_at_24_nodes(self, tmp_path):
        seq = generate_separated_random(24, 0.1, seed=1)
        doc = write_document(tmp_path / "n24.json", seq.points)
        out = tmp_path / "sol.json"
        targets = ",".join(str(i % 2) for i in range(24))
        code = run_cli([
            "interpolate", doc, "--targets", targets, "--output", str(out),
        ])
        assert code == 0
        sol = read_json(out)
        # The report's modulus is np.abs of the complex residual, which can
        # differ from math.hypot of its parts in the last bit.
        moduli = np.abs([complex(r["re"], r["im"]) for r in sol["residuals"]])
        assert len(moduli) == 24
        assert sol["max_abs_residual"] == np.max(moduli)
        assert sol["max_abs_residual"] <= 1e-8 * sol["min_norm"]

    def test_single_node_constant(self, tmp_path):
        doc = write_document(tmp_path / "one.json", [0.0])
        out = tmp_path / "sol.json"
        code = run_cli([
            "interpolate", str(doc), "--targets", "1", "--output", str(out),
        ])
        assert code == 0
        assert read_json(out)["min_norm"] == pytest.approx(1.0, rel=1e-7)

    def test_overflowing_norm_bound_exits_2(self, tmp_path, capsys):
        # The minimal norm is finite (about 1.55e308); its explicit bound is not.
        doc = write_document(tmp_path / "n48.json", generate_separated_random(48, 0.1, 3).points)
        targets = ",".join(str(7e298 * (i % 2)) for i in range(48))
        assert run_cli(["interpolate", doc, "--targets", targets]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "norm bound" in err and "overflows" in err

    def test_mismatched_targets_usage_error(self, pair_doc):
        assert run_cli(["interpolate", pair_doc, "--targets", "0,1,2"]) == 64

    @pytest.mark.parametrize("targets", ["-0.5,1", "-0.5+0.3j,1", "-.5j,1"])
    def test_targets_may_open_with_a_minus_sign(self, tmp_path, pair_doc, targets):
        # Both flag forms parse; argparse alone reads "-0.5+0.3j,1" as an option.
        outs = [tmp_path / "separate.json", tmp_path / "joined.json"]
        assert run_cli(["interpolate", pair_doc, "--targets", targets,
                        "--output", str(outs[0])]) == 0
        assert run_cli(["interpolate", pair_doc, f"--targets={targets}",
                        "--output", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        sol = read_json(outs[0])
        assert sol["max_abs_residual"] <= 1e-8 * sol["min_norm"]

    def test_unparseable_targets_usage_error(self, pair_doc):
        assert run_cli(["interpolate", pair_doc, "--targets", "0,spam"]) == 64

    def test_boundary_csv(self, tmp_path, pair_doc):
        out = tmp_path / "sol.json"
        csv = tmp_path / "boundary.csv"
        code = run_cli([
            "interpolate", pair_doc, "--targets", "0,1",
            "--boundary-grid", "64", "--output", str(out),
            "--boundary-csv", str(csv),
        ])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "theta,re,im,modulus"
        assert len(lines) == 1 + 64
        moduli = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(moduli) <= 2.0 * (1 + 1e-6)


    def test_boundary_csv_bytes_match_row_writer(self, tmp_path):
        seq = generate_separated_random(10, 0.1, 5)
        targets = np.array([0.3, -0.2j, 0.5 + 0.1j, 0.0, 0.8, -0.4, 0.1j, 0.6, 0.0, -0.7])
        doc = write_document(tmp_path / "ten.json", seq.points)
        csv = tmp_path / "boundary.csv"
        code = run_cli([
            "interpolate", doc, "--targets", ",".join(str(complex(w)) for w in targets),
            "--boundary-grid", "256", "--output", str(tmp_path / "sol.json"),
            "--boundary-csv", str(csv),
        ])
        assert code == 0
        f = solve_pick(PickProblem(seq, targets)).interpolant
        thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        expected = oracles.boundary_csv(thetas, interpolant_eval(f, np.exp(1j * thetas)))
        assert_same_text(csv.read_text(), expected)

    @pytest.mark.parametrize("values", [
        [],
        [0.5 - 0.25j],
        [complex(0.0, -0.0), complex(math.nan, 1e-300), complex(math.inf, -math.inf),
         0.1 + 0.2 + 3e-17j, 1e20 - 7j],
    ])
    def test_complex_rows_match_generic_writer(self, values):
        expected = cli._emit_json([cli._cplx(z) for z in values], indent=1)
        assert cli._complex_json(values) == expected


class TestVerifyTheorem:
    def test_pair_passes(self, tmp_path, pair_doc):
        out = tmp_path / "chain.json"
        code = run_cli(["verify-theorem", pair_doc, "--output", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["hypothesis_ok"] is True
        assert report["c"] == pytest.approx(2.0, rel=2e-4)
        assert report["step_a"][0]["passed"] is True

    def test_radial_exits_zero(self, tmp_path, radial_doc):
        out = tmp_path / "chain.json"
        code = run_cli(["verify-theorem", radial_doc, "--output", str(out)])
        assert code == 0
        assert read_json(out)["hard_steps_pass"] is True

    def test_non_separated_exits_one_with_null_constants(self, tmp_path):
        gen = tmp_path / "ce.json"
        code = run_cli([
            "counterexample", "--pairs", "2", "--gap", "1e-7", "--ratio", "0.5",
            "--output", str(gen),
        ])
        assert code == 0
        doc = read_json(gen)["runs"][0]["document"]
        points = tmp_path / "cepts.json"
        points.write_text(json.dumps(doc))
        out = tmp_path / "chain.json"
        code = run_cli(["verify-theorem", str(points), "--output", str(out)])
        assert code == 1
        report = read_json(out)
        assert report["hypothesis_ok"] is False
        assert report["c"] is None
        assert report["step_a"] == []

    @pytest.mark.parametrize("rows", [
        (),
        (ChainRow(0.5 - 0.25j, 0.75, 0.5, True),),
        (ChainRow(complex(0.0, -0.0), 1e-300, 2.5e-301, True),
         ChainRow(0.1 + 0.2j, 0.25, 0.5, False),
         ChainRow(complex(0.3, math.nan), math.nan, math.inf, False)),
    ])
    def test_chain_rows_match_generic_writer(self, rows):
        dicts = [{"point": cli._cplx(r.point), "value": r.value, "bound": r.bound,
                  "margin": r.margin, "passed": r.passed} for r in rows]
        assert cli._chain_rows_json(rows) == cli._emit_json(dicts, indent=1)

    def test_determinism_byte_identical(self, tmp_path, radial_doc):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        argv = ["verify-theorem", radial_doc]
        assert run_cli(argv + ["--output", str(out1)]) == 0
        assert run_cli(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCounterexample:
    def test_summary_separation_below_gap(self, tmp_path):
        out = tmp_path / "ce.json"
        code = run_cli([
            "counterexample", "--pairs", "2", "--gap", "0.01", "--ratio", "0.5",
            "--output", str(out),
        ])
        assert code == 0
        runs = read_json(out)["runs"]
        assert len(runs) == 1
        assert runs[0]["summary"]["separation_constant"] <= 0.01

    @pytest.mark.parametrize("gap", ["0.5", "0.9"])
    def test_gap_of_half_or_more_exits_64(self, capsys, gap):
        # The split is fitted at delta = 2 * gap, which must stay below 1.
        assert run_cli(["counterexample", "--pairs", "2", "--gap", gap, "--ratio", "0.5"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "gap must lie in (0, 0.5)" in err

    @pytest.mark.parametrize("gap", ["1e-9", "1e-12"])
    def test_gap_at_distinctness_floor_exits_64(self, capsys, gap):
        # Pairs this close would not be distinct points; the usage error
        # names gap instead of the points it would have produced.
        argv = ["counterexample", "--pairs", "4", "--gap", gap, "--ratio", "0.5"]
        assert run_cli(argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "gap must exceed the distinctness floor 1e-09" in err

    def test_gap_rounding_to_floor_exits_64(self, capsys):
        # Above the floor, but the rounded partner of point 4 lands at
        # distance 1e-9 from it.
        argv = ["counterexample", "--pairs", "4", "--gap", "1.0000001e-9", "--ratio", "0.5"]
        assert run_cli(argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "gap 1.0000001e-09 rounds to an in-pair distance" in err

    def test_gap_just_above_floor_runs(self, capsys):
        argv = ["counterexample", "--pairs", "4", "--gap", "1.1e-9", "--ratio", "0.5"]
        assert run_cli(argv) == 0

    def test_split_is_declared_not_searched(self, tmp_path):
        out = tmp_path / "ce.json"
        code = run_cli([
            "counterexample", "--pairs", "2", "--gap", "0.01", "--ratio", "0.5",
            "--output", str(out),
        ])
        assert code == 0
        search = read_json(out)["runs"][0]["decomposition"]["search"]
        assert search == {"method": "declared", "masks_enumerated": 0,
                          "masks_evaluated": 0}

    def test_gap_sweep_emits_one_run_per_gap(self, tmp_path):
        out = tmp_path / "ce.json"
        code = run_cli([
            "counterexample", "--pairs", "2", "--gap", "0.1", "0.01", "--ratio",
            "0.5", "--output", str(out),
        ])
        assert code == 0
        runs = read_json(out)["runs"]
        assert [r["gap"] for r in runs] == [0.1, 0.01]

    def test_wide_gap_still_bounded(self, tmp_path):
        out = tmp_path / "ce.json"
        code = run_cli([
            "counterexample", "--pairs", "2", "--gap", "0.2", "--ratio", "0.5",
            "--output", str(out),
        ])
        assert code == 0
        summary = read_json(out)["runs"][0]["summary"]
        assert summary["separation_constant"] <= 0.2

    def test_document_round_trips(self, tmp_path):
        out = tmp_path / "ce.json"
        run_cli([
            "counterexample", "--pairs", "3", "--gap", "0.05", "--ratio", "0.5",
            "--output", str(out),
        ])
        doc = read_json(out)["runs"][0]["document"]
        seq = cli.parse_point_document(doc)
        assert len(seq) == 6

    def test_guard_violation_is_domain_error(self, tmp_path):
        code = run_cli([
            "counterexample", "--pairs", "40", "--gap", "0.01", "--ratio", "0.5",
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 1


@functools.cache
def format_families() -> dict:
    """Deterministic float64 families for the ``%.17g`` writer, 1.1e6 values in all."""
    rng = np.random.default_rng(1719)
    bits = rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(np.float64)
    # Random mantissas and signs with binary exponents in [-21, 53], which
    # covers the writer's own window 1e-6 <= |x| < 1e16 and its edges.
    exponents = rng.integers(1023 - 21, 1023 + 54, 450_000, dtype=np.uint64) << np.uint64(52)
    mantissas = rng.integers(0, 2 ** 52, 450_000, dtype=np.uint64)
    signs = rng.integers(0, 2, 450_000, dtype=np.uint64) << np.uint64(63)
    window = (signs | exponents | mantissas).view(np.float64)
    log_uniform = 10.0 ** rng.uniform(-60, 60, 300_000) * rng.choice([-1.0, 1.0], 300_000)
    # Every power of ten as the nearest double, with neighbours: among
    # them the doubles just below 1e-14, 1e98 and others, which print as
    # the power itself.
    powers = np.array([float(f"1e{m}") for m in range(-323, 309)])
    steps = np.arange(-3, 4)
    neighbours = np.concatenate([
        (p.view(np.int64) + steps).view(np.float64) for p in powers[powers > 0]])
    ties = (rng.integers(10 ** 15, 4 * 10 ** 15, 30_000)[:, None] + [0.25, 0.5, 0.75]).ravel()
    switches = np.concatenate([
        (np.float64(b).view(np.int64) + np.arange(-1000, 1001)).view(np.float64)
        for b in (1e-6, 1e-5, 1e-4, 1e16)])
    subnormals = rng.integers(1, 2 ** 52, 10_000, dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                         2.2250738585072014e-308, 2.225073858507201e-308])
    return {
        "random_bits": bits[np.isfinite(bits)],
        "window_bits": window,
        "log_uniform": log_uniform,
        "powers_of_ten": np.concatenate([neighbours, -neighbours]),
        "ties": ties,
        "layout_switches": np.concatenate([switches, -switches]),
        "zeros_infinities_subnormals": np.concatenate([specials, subnormals, -subnormals]),
    }


class TestFormat17g:
    """``cli._format_17g`` gives the bytes of ``format(x, ".17g")``, value by value."""

    @staticmethod
    def texts(values) -> list:
        """The writer's text for each value: its row with the NUL bytes dropped."""
        texts = []
        for start in range(0, values.size, 1 << 17):
            cells = cli._format_17g(values[start:start + (1 << 17)])
            lines = np.concatenate(
                [cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)], axis=1)
            texts += lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]
        return texts

    @pytest.mark.parametrize("family", [
        "layout_switches", "log_uniform", "powers_of_ten", "random_bits", "ties",
        "window_bits", "zeros_infinities_subnormals",
    ])
    def test_bytes_match_format(self, family):
        values = format_families()[family]
        got = self.texts(values)
        expected = [format(x, ".17g") for x in values.tolist()]
        assert len(got) == len(expected)
        wrong = [(x, g, e) for x, g, e in zip(values.tolist(), got, expected) if g != e]
        assert not wrong, f"{len(wrong)} values differ, first {wrong[:5]}"

    def test_families_hold_a_million_values(self):
        sizes = {name: values.size for name, values in format_families().items()}
        assert sum(sizes.values()) >= 10 ** 6, sizes
        # Ties at the 17th digit: n.25 and n.75 are halfway between two
        # 17-digit decimals, and half-even rounding picks the even one.
        assert format(1e15 + 0.25, ".17g") == "1000000000000000.2"
        assert format(1e15 + 0.75, ".17g") == "1000000000000000.8"


class TestField:
    def test_singleton_field_is_log_abs(self, tmp_path):
        doc = write_document(tmp_path / "zero.json", [0.0])
        out = tmp_path / "field.csv"
        code = run_cli([
            "field", str(doc), "--grid-resolution", "33", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,log_modulus"
        nan_rows = 0
        for line in lines[1:]:
            x, y, v = line.split(",")
            z = complex(float(x), float(y))
            if v == "nan":
                nan_rows += 1
                assert abs(z) < 1e-6
            else:
                assert float(v) == pytest.approx(math.log(abs(z)), rel=1e-12)
        # Odd resolution puts one exact grid point on the zero itself.
        assert nan_rows == 1

    def test_row_count_matches_interior_filter(self, tmp_path):
        doc = write_document(tmp_path / "zero.json", [0.0])
        out = tmp_path / "field.csv"
        run_cli(["field", str(doc), "--grid-resolution", "32", "--output", str(out)])
        assert field_rows(out) == interior_cells(32)

    def test_split_products_multiply_back(self, tmp_path, pair_doc):
        # log|B0| + log|B1| = log|B| cell by cell on the shared grid.
        outs = {}
        for which in ("B", "B0", "B1"):
            path = tmp_path / f"{which}.csv"
            code = run_cli([
                "field", pair_doc, "--which", which,
                "--grid-resolution", "32", "--output", str(path),
            ])
            assert code == 0
            outs[which] = path.read_text().strip().splitlines()[1:]
        for row_b, row_0, row_1 in zip(outs["B"], outs["B0"], outs["B1"]):
            v_b, v_0, v_1 = (r.split(",")[2] for r in (row_b, row_0, row_1))
            if "nan" in (v_b, v_0, v_1):
                continue
            assert float(v_b) == pytest.approx(float(v_0) + float(v_1), abs=1e-10)


    @pytest.mark.parametrize("resolution, which", [
        (33, "B"), (64, "B"), (64, "B0"), (64, "B1"),
    ])
    def test_bytes_match_row_writer(self, tmp_path, resolution, which):
        # The origin is a cell of every odd-resolution grid, so at 33 one
        # row is an exact zero of B and prints nan.
        points = np.concatenate(([0.0], generate_separated_random(12, 0.1, 3).points))
        doc = write_document(tmp_path / "field.json", points)
        out = tmp_path / "field.csv"
        code = run_cli([
            "field", doc, "--which", which,
            "--grid-resolution", str(resolution), "--output", str(out),
        ])
        assert code == 0
        if which == "B":
            product = points
        else:
            dec = corresponding_decomposition(PointSequence(tuple(points)))
            product = dec.part_sequence(0 if which == "B0" else 1).points
        expected = oracles.field_csv(product, resolution)
        assert_same_text(out.read_text(), expected)
        if resolution == 33:
            assert expected.count(",nan\n") == 1

    @pytest.mark.parametrize("resolution", [32, 33])
    def test_bytes_match_row_writer_near_nodes(self, tmp_path, resolution):
        # Zeros within 1e-6 of a grid node but not on it print nan there.
        # The first two share the column xs[a]; the third shares the row
        # xs[b] with the first and sits 1.27e-6 from its node, inside the
        # axis test on both axes but outside the radius, so its node prints
        # a value.
        xs = np.linspace(-0.999, 0.999, resolution)
        a, b, c, d = 10, 12, 20, resolution - 9
        zeros = [
            xs[a] + 3e-7 + 1j * (xs[b] - 4e-7),
            xs[a] - 2e-7 + 1j * (xs[c] + 5e-7),
            xs[d] + 9e-7 + 1j * (xs[b] + 9e-7),
            xs[d] - 1e-7 + 1j * (xs[d] - 6e-7),
        ]
        points = np.concatenate((zeros, generate_separated_random(8, 0.1, 5).points))
        doc = write_document(tmp_path / "near.json", points)
        out = tmp_path / "field.csv"
        code = run_cli([
            "field", doc, "--grid-resolution", str(resolution), "--output", str(out),
        ])
        assert code == 0
        expected = oracles.field_csv(points, resolution)
        assert_same_text(out.read_text(), expected)
        assert expected.count(",nan\n") == 3

    def test_delta_without_split_exits_64(self, pair_doc, capsys):
        # --which B takes the whole sequence, so no delta is read.
        assert run_cli(["field", pair_doc, "--which", "B", "--delta", "0.1"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "--delta" in err
        assert run_cli(["field", pair_doc, "--which", "B0", "--delta", "0.1"]) == 0


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 64

    def test_seed_flag_is_gone(self, pair_doc, capsys):
        assert run_cli(["decompose", pair_doc, "--seed", "3"]) == 64
        assert "--seed" in capsys.readouterr().err

    def test_psd_tol_flag_is_gone(self, pair_doc, capsys):
        argv = ["interpolate", pair_doc, "--targets", "0,1", "--psd-tol", "1e-10"]
        assert run_cli(argv) == 64
        assert "--psd-tol" in capsys.readouterr().err

    def test_unknown_flag(self, pair_doc):
        assert run_cli(["analyze", pair_doc, "--bogus"]) == 64

    @pytest.mark.parametrize("command", ["verify-theorem", "analyze", "decompose"])
    def test_boundary_grid_flag_belongs_to_interpolate(self, pair_doc, capsys, command):
        # Only interpolate --boundary-csv samples the circle.
        assert run_cli([command, pair_doc, "--boundary-grid", "64"]) == 64
        assert "--boundary-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-theorem", "analyze", "decompose"])
    def test_grid_resolution_flag_belongs_to_field(self, pair_doc, capsys, command):
        # The split fit samples the disk rims; only field rasterizes a grid.
        assert run_cli([command, pair_doc, "--grid-resolution", "64"]) == 64
        assert "--grid-resolution" in capsys.readouterr().err

    def test_out_of_range_resolution_flag(self, pair_doc):
        assert run_cli(["field", pair_doc, "--grid-resolution", "16"]) == 64

    def test_numerical_breakdown_exits_two(self, pair_doc, monkeypatch):
        def blow_up(args, cfg):
            raise cli.NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli, "cmd_analyze", blow_up)
        assert run_cli(["analyze", pair_doc]) == 2

    def test_same_bytes_in_any_order(self, pair_doc, capsys):
        # The parser is built once per process; no call may leave state
        # that changes a later one.
        calls = {
            "usage": ["analyze", pair_doc, "--bogus"],
            "analyze": ["analyze", pair_doc],
            "interpolate": ["interpolate", pair_doc, "--targets", "0,1"],
            "seed": ["decompose", pair_doc, "--seed", "3"],
        }
        results = []
        for order in (["usage", "analyze", "interpolate", "seed"],
                      ["seed", "interpolate", "analyze", "usage"]):
            seen = {}
            for name in order:
                code = run_cli(calls[name])
                seen[name] = (code, *capsys.readouterr())
            results.append(seen)
        assert results[0] == results[1]
        assert [results[0][k][0] for k in calls] == [64, 0, 0, 64]


# Pinned runs: command, input size, separation and seed, extra flags, and
# the sha256 of stdout.  Their test ids leave the digest out, so that a
# re-pin keeps the names.
_PINNED = [
    ("analyze", 17, 0.1, 1, (),
     "0a54932df7036f903fd6a993e5009cfd12a6cbae397e48d887ee0d48f74510c6"),
    ("analyze", 128, 0.05, 2, (),
     "9de358759c9f84b981b2d125f2e4d76525f00dbcc03b003aa342e7abb4f31c8e"),
    ("analyze", 512, 0.01, 3, (),
     "c1c615bbe44ee02b3767ccbdc6ff20686541a55b97108310bf33da5c5854e38d"),
    ("verify-theorem", 10, 0.1, 1, (),
     "54b301bfb4193288b8023ba153035413c81f6a52eb5915501cc5e39c9fa2f7e6"),
    ("verify-theorem", 17, 0.1, 3, (),
     "30b5817ea26ae9b83628c9b721c448d60838148457b66cfb838c7ad905dea915"),
    ("interpolate", 12, 0.1, 4, ("--targets", "0,1,0,1,0,1,0,1,0,1,0,1"),
     "3459b77a59a6cf1e727064b914ad794865e986878c2120c894f2d78e23adc181"),
    ("interpolate", 24, 0.1, 5,
     ("--targets", ",".join(f"{0.5 * (-1) ** i}" for i in range(24))),
     "0a07f2ef2f7a1f902a938cc21b861ace126b9209e0ef9ed25c71056083e6061f"),
    ("decompose", 12, 0.1, 6, (),  # exhaustive search
     "5d83d10c2bcdbbb36ad902759f38a1469490ec3df862030ad7db46f2a77f300a"),
    ("decompose", 20, 0.1, 7, (),  # local search
     "983236bf12640fe87c2a49de0c40aec7833b7cfb5aa10858ba4b4ee83b327b2d"),
    ("decompose", 14, 0.1, 5, (),  # exhaustive search, 224 masks evaluated
     "52c9f107d4e3f5031a5424f6a3c88943e2072cb9b97c436507487af8eeb702ec"),
    ("decompose", 32, 0.1, 5, (),  # local search, 97 masks tried
     "29b5bb889f24994cd22247ed7df96454fd11c728d4008f53e62508c1aea25b3c"),
    ("verify-theorem", 32, 0.1, 5, (),
     "d191ce18b9e0bac889db4842d4f761926631acc1b126ac8114bafd9caa067419"),
]


class TestPinnedOutput:
    """stdout digests of seeded runs, so that a rewrite keeps the bytes."""

    @pytest.mark.parametrize("command, count, sep, seed, extra, digest", _PINNED,
                             ids=[f"{c}-{n}-{sep}-{seed}" for c, n, sep, seed, _, _ in _PINNED])
    def test_stdout_digest(self, tmp_path, capsys, command, count, sep, seed, extra, digest):
        doc = write_document(tmp_path / "in.json",
                             generate_separated_random(count, sep, seed).points)
        assert run_cli([command, doc, *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_counterexample_digest(self, capsys):
        argv = ["counterexample", "--pairs", "4", "--gap", "0.1", "0.01", "--ratio", "0.5"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7796776c8d145e72a1b26ce2c08d28e165972bedf6ea1cb01ec38df4cbca31ac")
