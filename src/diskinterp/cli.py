"""Command-line front end: document I/O, reports, and grid exports.

Subcommands wrap the library pipelines one-to-one: ``analyze`` for the
separation/Carleson invariants, ``decompose`` for the fitted splitting,
``interpolate`` for the minimal-norm solver, ``verify-theorem`` for the
full bound chain, ``counterexample`` for the near-collision family, and
``field`` for CSV export of log-modulus grids.

Reports are JSON with fixed field order and 17-significant-digit floats,
so identical inputs produce byte-identical output.  Point sets travel as
``{"schema_version": 1, "label": ..., "points": [{"re": ..., "im": ...}]}``
documents.  Exit codes: 0 success, 1 domain or hypothesis failure,
2 numerical fault, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .blaschke import PointSequence, analyze, blaschke_log_modulus
from .errors import DomainError, NumericalError
from .harness import (
    CounterexampleSpec,
    generate_counterexample,
    verify_theorem_chain,
    zero_one_problem,
)
from .hoffman import Decomposition, corresponding_decomposition, decompose
from .pick import (
    PickProblem,
    interpolant_eval,
    min_norm,
    solve_pick,
)

log = logging.getLogger("diskinterp")

# Grid cells within this Euclidean radius of a zero export as NaN.
_FIELD_ZERO_RADIUS = 1e-6

# Field grids cover |z| < this radius.
_FIELD_RADIUS = 0.999

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Malformed invocation: bad flags, bad config, or inconsistent arguments."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token as a value rather than an option only when
        # it is a plain negative number; a minus sign followed by a digit or
        # a point is enough here, so --targets -0.5+0.3j,1 parses.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Numerical knobs shared by every subcommand.

    ``grid_resolution`` is read only by ``field`` and ``boundary_grid``
    only by ``interpolate --boundary-csv``.
    """

    grid_resolution: int = 128
    boundary_grid: int = 4096
    bisect_rel_tol: float = 1e-8
    output_path: str = ""

    def __post_init__(self):
        # Config files bypass argparse's type=, so the types are checked here.
        for name, kinds, what in (("grid_resolution", int, "an integer"),
                                  ("boundary_grid", int, "an integer"),
                                  ("bisect_rel_tol", (int, float), "a number"),
                                  ("output_path", str, "a string")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise UsageError(f"{name} must be {what}, got {value!r}")
        if not 32 <= self.grid_resolution <= 4096:
            raise UsageError(
                f"grid_resolution must lie in [32, 4096], got {self.grid_resolution}"
            )
        if not 32 <= self.boundary_grid <= 4096:
            raise UsageError(
                f"boundary_grid must lie in [32, 4096], got {self.boundary_grid}"
            )
        if not self.bisect_rel_tol > 0:  # NaN too, which JSON configs can hold
            raise UsageError("bisect_rel_tol must be positive")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, overlaid by an optional JSON config file, then by flags."""
    cfg = RunConfig()
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        cfg = replace(cfg, **data)
    live = {k: v for k, v in overrides.items() if v is not None}
    if live:
        cfg = replace(cfg, **live)
    return cfg


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


class _Fragment(str):
    """JSON text already laid out at its place in a report; emitted verbatim."""


def _emit_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return value if isinstance(value, _Fragment) else json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_emit_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# Row layouts of the lists that reports write through _list_json: one
# object per row at indent 2, as _emit_json lays out a list of dicts.
_PER_POINT_ROW = '    {\n      "index": %d,\n      "modulus": %s\n    }'
_COMPLEX_ROW = '    {\n      "re": %s,\n      "im": %s\n    }'
_CHAIN_ROW = ('    {\n      "point": {\n        "re": %s,\n        "im": %s\n      },\n'
              '      "value": %s,\n      "bound": %s,\n      "margin": %s,\n'
              '      "passed": %s\n    }')


def _list_json(rows: list) -> _Fragment:
    """A report's list field, from its rows laid out by one of the templates above.

    The same bytes as ``_emit_json`` gives the list of dicts the rows stand
    for at indent 1, without building a dict per row.  Floats in a row are
    formatted by ``_fmt_float``.
    """
    return _Fragment("[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]")


def _per_point_json(per_point) -> _Fragment:
    """analyze's ``per_point`` list of index/modulus objects."""
    return _list_json([_PER_POINT_ROW % (i, _fmt_float(m)) for i, m in per_point])


def _complex_json(values) -> _Fragment:
    """A list of complex numbers as re/im objects."""
    return _list_json([_COMPLEX_ROW % (_fmt_float(z.real), _fmt_float(z.imag))
                       for z in values])


def _chain_rows_json(rows) -> _Fragment:
    """One step of the bound chain: point, value, bound, margin and pass flag per row."""
    return _list_json([
        _CHAIN_ROW % (_fmt_float(r.point.real), _fmt_float(r.point.imag),
                      _fmt_float(r.value), _fmt_float(r.bound), _fmt_float(r.margin),
                      "true" if r.passed else "false")
        for r in rows
    ])


def _csv(header: str, row_format: str, columns) -> str:
    """Header plus one ``row_format`` line per row, in one ``%`` pass; NaN prints nan."""
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    return header + "\n" + (row_format * len(columns[0])) % cells


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def sequence_to_document(seq: PointSequence) -> dict:
    return {
        "schema_version": 1,
        "label": seq.label or "",
        "points": [_cplx(z) for z in seq.points],
    }


def parse_point_document(data: dict) -> PointSequence:
    """Validate a parsed document and build the sequence it describes."""
    if not isinstance(data, dict):
        raise DomainError("point document must be a JSON object")
    if data.get("schema_version") != 1:
        raise DomainError(
            f"unsupported schema_version {data.get('schema_version')!r}"
        )
    points = data.get("points")
    if not isinstance(points, list) or not points:
        raise DomainError("point document needs a nonempty 'points' array")
    values = []
    for i, rec in enumerate(points):
        if not isinstance(rec, dict) or "re" not in rec or "im" not in rec:
            raise DomainError(f"point {i}: expected an object with 're' and 'im'")
        re_part, im_part = rec["re"], rec["im"]
        if isinstance(re_part, bool) or isinstance(im_part, bool):
            raise DomainError(f"point {i}: 're' and 'im' must be numbers, not booleans")
        if not isinstance(re_part, (int, float)) or not isinstance(im_part, (int, float)):
            raise DomainError(f"point {i}: 're' and 'im' must be numbers")
        values.append(complex(float(re_part), float(im_part)))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise DomainError("'label' must be a string when present")
    return PointSequence(np.asarray(values, dtype=complex), label=label or "")


def load_point_document(path: str) -> PointSequence:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from None
    return parse_point_document(data)


def _write_text(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", cfg.output_path)
    else:
        sys.stdout.write(text)


def _decomposition_dict(dec: Decomposition) -> dict:
    return {
        "part0": list(dec.part0),
        "part1": list(dec.part1),
        "delta": dec.delta,
        "fitted_a": dec.fitted_a,
        "fitted_b": dec.fitted_b,
        "fit_grid_size": dec.fit_grid_size,
        "rim_samples": dec.rim_samples,
        "worst_point": _cplx(dec.worst_point),
        "worst_rim": dec.worst_rim,
        "b_gap": dec.b_gap,
        "search": {
            "method": dec.search,
            "masks_enumerated": dec.masks_enumerated,
            "masks_evaluated": dec.masks_evaluated,
        },
    }


def chain_report_dict(report) -> dict:
    return {
        "hypothesis_ok": report.hypothesis_ok,
        "delta": report.delta,
        "c": report.c,
        "eta": report.eta,
        "c_g": report.c_g,
        "eta_g": report.eta_g,
        "fitted_a": report.fitted_a,
        "fitted_b": report.fitted_b,
        "carleson_direct": report.carleson_direct,
        "hard_steps_pass": report.hard_steps_pass,
        "step_a": _chain_rows_json(report.step_a),
        "step_b": _chain_rows_json(report.step_b),
        "step_c": _chain_rows_json(report.step_c),
        "final": _chain_rows_json(report.final),
    }


def cmd_analyze(args, cfg: RunConfig) -> int:
    seq = load_point_document(args.input)
    report = analyze(seq)
    log.info("analyzed %d points", len(seq))
    doc = {
        "label": seq.label or "",
        "count": len(seq),
        "blaschke_sum": report.blaschke_sum,
        "separation_constant": report.separation_constant,
        "carleson_constant": report.carleson_constant,
        "per_point": _per_point_json(report.per_point),
    }
    _write_text(cfg, _emit_json(doc) + "\n")
    return EXIT_OK


def cmd_decompose(args, cfg: RunConfig) -> int:
    seq = load_point_document(args.input)
    if args.delta is not None:
        dec = decompose(seq, args.delta)
    else:
        dec = corresponding_decomposition(seq)
    _write_text(cfg, _emit_json(_decomposition_dict(dec)) + "\n")
    return EXIT_OK


def _parse_targets(raw: str, count: int) -> np.ndarray:
    toks = [t.strip() for t in raw.split(",")]
    try:
        values = [complex(t) for t in toks]
    except ValueError:
        raise UsageError(f"cannot parse targets {raw!r} as complex numbers") from None
    if len(values) != count:
        raise UsageError(f"{len(values)} targets for {count} points")
    return np.asarray(values, dtype=complex)


def cmd_interpolate(args, cfg: RunConfig) -> int:
    seq = load_point_document(args.input)
    targets = _parse_targets(args.targets, len(seq))
    problem = PickProblem(seq, targets)
    solution = solve_pick(problem, rel_tol=cfg.bisect_rel_tol)
    f = solution.interpolant
    doc = {
        "label": seq.label or "",
        "min_norm": solution.min_norm,
        "scale": f.scale,
        "feasibility_margin": solution.feasibility_margin,
        "max_abs_residual": float(np.max(np.abs(solution.residuals))),
        "residuals": _complex_json(solution.residuals.tolist()),
        "schur_parameters": _complex_json([p for _, p in f.schur_steps]),
    }
    _write_text(cfg, _emit_json(doc) + "\n")
    if args.boundary_csv:
        thetas = np.linspace(0.0, 2.0 * math.pi, cfg.boundary_grid, endpoint=False)
        vals = interpolant_eval(f, np.exp(1j * thetas))
        columns = (thetas, vals.real, vals.imag, [abs(v) for v in vals])
        with open(args.boundary_csv, "w", encoding="utf-8") as fh:
            fh.write(_csv("theta,re,im,modulus", "%.17g,%.17g,%.17g,%.17g\n", columns))
    return EXIT_OK


def cmd_verify_theorem(args, cfg: RunConfig) -> int:
    seq = load_point_document(args.input)
    report = verify_theorem_chain(seq, rel_tol=cfg.bisect_rel_tol)
    _write_text(cfg, _emit_json(chain_report_dict(report)) + "\n")
    if not report.hypothesis_ok:
        return EXIT_DOMAIN
    if not report.hard_steps_pass:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_counterexample(args, cfg: RunConfig) -> int:
    runs = []
    for gap in args.gap:
        spec = CounterexampleSpec(
            num_pairs=args.pairs, gap=gap, base_radial_ratio=args.ratio
        )
        seq, dec = generate_counterexample(spec)
        report = analyze(seq)
        norm = min_norm(zero_one_problem(dec), rel_tol=cfg.bisect_rel_tol)
        runs.append(
            {
                "gap": gap,
                "document": sequence_to_document(seq),
                "decomposition": _decomposition_dict(dec),
                "summary": {
                    "separation_constant": report.separation_constant,
                    "carleson_constant": report.carleson_constant,
                    "zero_one_min_norm": norm,
                },
            }
        )
        log.info(
            "gap %g: separation %g, min_norm %g",
            gap, report.separation_constant, norm,
        )
    _write_text(cfg, _emit_json({"runs": runs}) + "\n")
    return EXIT_OK


def cmd_field(args, cfg: RunConfig) -> int:
    """CSV of log|B|, log|B_0| or log|B_1| on the cells |z| < 0.999 of a square grid.

    Cell (j, i) is xs[i] + 1j xs[j], so the axis values are formatted once;
    cells within 1e-6 of a zero print ``nan``.
    """
    seq = load_point_document(args.input)
    if args.which == "B":
        product = seq
    else:
        if args.delta is not None:
            dec = decompose(seq, args.delta)
        else:
            dec = corresponding_decomposition(seq)
        product = dec.part_sequence(0 if args.which == "B0" else 1)
    xs = np.linspace(-_FIELD_RADIUS, _FIELD_RADIUS, cfg.grid_resolution)
    X, Y = np.meshgrid(xs, xs)
    j, i = np.nonzero(np.abs(X + 1j * Y) < _FIELD_RADIUS)
    pts = xs[i] + 1j * xs[j]
    near_zero = np.zeros(pts.size, dtype=bool)
    for lam in product.points:
        near_zero |= np.abs(pts - lam) < _FIELD_ZERO_RADIUS
    values = np.full(pts.size, math.nan)
    values[~near_zero] = blaschke_log_modulus(product, pts[~near_zero])
    labels = np.array([format(x, ".17g") for x in xs.tolist()], dtype=object)
    columns = (labels[i], labels[j], values.tolist())
    _write_text(cfg, _csv("x,y,log_modulus", "%s,%s,%.17g\n", columns))
    return EXIT_OK


def build_parser() -> _Parser:
    """The argument parser; ``handler`` names the ``cmd_*`` function to call."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file with RunConfig fields")
    common.add_argument("--output", dest="output_path", help="write report here")
    common.add_argument("--bisect-rel-tol", type=float, dest="bisect_rel_tol")

    parser = _Parser(
        prog="diskinterp",
        description="Interpolation and Carleson-condition diagnostics in the disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="separation, Carleson, and per-point moduli")
    p.add_argument("input", help="point-set JSON document")
    p.set_defaults(handler="cmd_analyze")

    p = sub.add_parser("decompose", parents=[common],
                       help="fitted two-part splitting")
    p.add_argument("input")
    p.add_argument("--delta", type=float,
                   help="exclusion radius (default: separation/2)")
    p.set_defaults(handler="cmd_decompose")

    p = sub.add_parser("interpolate", parents=[common],
                       help="minimal-norm bounded interpolant")
    p.add_argument("input")
    p.add_argument("--targets", required=True,
                   help="comma-separated complex target values, as --targets X "
                        "or --targets=X; X may open with a minus sign")
    p.add_argument("--boundary-csv", help="also sample |f| on the circle")
    p.add_argument("--boundary-grid", type=int, dest="boundary_grid",
                   help="circle samples for --boundary-csv")
    p.set_defaults(handler="cmd_interpolate")

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="run the zero/one bound chain")
    p.add_argument("input")
    p.set_defaults(handler="cmd_verify_theorem")

    p = sub.add_parser("counterexample", parents=[common],
                       help="near-collision pair family")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--gap", type=float, nargs="+", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.set_defaults(handler="cmd_counterexample")

    p = sub.add_parser("field", parents=[common],
                       help="CSV of log|B| over an interior grid")
    p.add_argument("input")
    p.add_argument("--which", choices=("B", "B0", "B1"), default="B")
    p.add_argument("--delta", type=float,
                   help="split at this delta instead of separation/2")
    p.add_argument("--grid-resolution", type=int, dest="grid_resolution",
                   help="cells per side of the square grid")
    p.set_defaults(handler="cmd_field")
    return parser


@functools.cache
def _parser() -> _Parser:
    """One parser per process; it holds handler names, looked up per call."""
    return build_parser()


_CONFIG_FLAGS = (
    "grid_resolution", "boundary_grid", "bisect_rel_tol", "output_path",
)


def main(argv=None) -> int:
    level = os.environ.get("DISKINTERP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
        overrides = {k: getattr(args, k, None) for k in _CONFIG_FLAGS}
        cfg = load_config(args.config, overrides)
        return globals()[args.handler](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())
