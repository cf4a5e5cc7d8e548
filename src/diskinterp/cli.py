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
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from operator import itemgetter

import numpy as np

from .blaschke import PointSequence, analyze, blaschke_log_modulus
from .errors import DomainError, NumericalError
from .geometry import _two_product
from .harness import (
    CounterexampleSpec,
    generate_counterexample,
    verify_theorem_chain,
    zero_one_problem,
)
from .hoffman import Decomposition, corresponding_decomposition, decompose
from .pick import (
    BISECT_REL_TOL,
    PickProblem,
    interpolant_eval,
    min_norm,
    solve_pick,
)


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
    bisect_rel_tol: float = BISECT_REL_TOL
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
        # NaN fails too, which a flag or a JSON config can hold; a tolerance
        # of 1 or more would stop the norm search after its first pass.
        if not 0 < self.bisect_rel_tol < 1:
            raise UsageError(
                f"bisect_rel_tol must lie in (0, 1), got {self.bisect_rel_tol!r}"
            )


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
# object per row at indent 2, as _emit_json lays out a list of dicts.  Each
# float slot is %.17g right after ": ", where _list_json finds its non-finite
# text.
_PER_POINT_ROW = '    {\n      "index": %d,\n      "modulus": %.17g\n    }'
_COMPLEX_ROW = '    {\n      "re": %.17g,\n      "im": %.17g\n    }'
_CHAIN_ROW = ('    {\n      "point": {\n        "re": %.17g,\n        "im": %.17g\n      },\n'
              '      "value": %.17g,\n      "bound": %.17g,\n      "margin": %.17g,\n'
              '      "passed": %s\n    }')


def _list_json(row: str, count: int, values: tuple) -> _Fragment:
    """A report's list field of ``count`` rows laid out by ``row`` from the flat ``values``.

    The same bytes as ``_emit_json`` gives the list of dicts the rows stand
    for at indent 1, from one ``%`` against the row repeated ``count``
    times, so no call is made per number.  ``%.17g`` prints a float as
    ``_fmt_float`` does, except nan and +-inf, which it prints as ``nan``,
    ``inf`` and ``-inf``.  The sum of the float slots' values is non-finite
    when one of them is, and only then is the text searched: after ": " only
    a value can start, so those words become ``null`` there.
    """
    if not count:
        return _Fragment("[]")
    text = ("[\n" + ",\n".join([row] * count) + "\n  ]") % values
    slots = [slot.startswith(".17g") for slot in row.split("%")[1:]]
    total = sum(sum(values[k::len(slots)]) for k, is_float in enumerate(slots) if is_float)
    if not math.isfinite(total):
        for word in (": nan", ": inf", ": -inf"):
            text = text.replace(word, ": null")
    return _Fragment(text)


def _per_point_json(per_point) -> _Fragment:
    """analyze's ``per_point`` list of index/modulus objects."""
    return _list_json(_PER_POINT_ROW, len(per_point),
                      tuple(itertools.chain.from_iterable(per_point)))


def _complex_json(values) -> _Fragment:
    """A list or array of complex numbers as re/im objects."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    return _list_json(_COMPLEX_ROW, parts.size // 2, tuple(parts.tolist()))


def _chain_rows_json(rows) -> _Fragment:
    """One step of the bound chain: point, value, bound, margin and pass flag per row."""
    return _list_json(_CHAIN_ROW, len(rows), tuple([
        v for r in rows for v in (r.point.real, r.point.imag, r.value, r.bound, r.margin,
                                  "true" if r.passed else "false")
    ]))


# _format_17g prints 10**-6 <= |x| < 10**16 by its own arithmetic: there
# x * 10**(16 - k) multiplies by an exact power of ten, 10**22 at most.
_FORMAT_MIN, _FORMAT_MAX = 1e-6, 1e16

# Bytes per cell of _format_17g, the width of -2.2250738585072014e-308.
_CELL_WIDTH = 24

_POW10 = np.array([float(10 ** p) for p in range(23)])  # exact doubles

# The four ASCII digits of 0..9999, as one native word each, and the count
# of their trailing zeros (4 for 0).
_QUAD_TEXT = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                      axis=-1).reshape(10000, 4)
_QUADS = _QUAD_TEXT.view(np.uint32)[:, 0]
_QUAD_ZEROS = np.cumprod(_QUAD_TEXT[:, ::-1] == ord("0"), axis=1, dtype=np.int8).sum(axis=1)

# _format_17g spells N's digits as one row of words: bytes 3..19 hold
# digits 0..16 and byte 20 the point (_POINT).
_DIGIT0, _POINT = 3, 20


def _layout(k: int) -> tuple[bytes, np.ndarray, bytes]:
    """How ``%.17g`` lays out 17 digits at decimal exponent k, for -6 <= k <= 15.

    Returns the text before the first digit, the bytes of the digit row
    that follow (the digits and the point, by position), and the text
    after them.  Positional from 1e-4 up, ``d.ddde-0X`` below.
    """
    digit = _DIGIT0 + np.arange(17)
    if k < -4:
        return b"", np.r_[digit[0], _POINT, digit[1:]], f"e-{-k:02d}".encode()
    if k < 0:
        return b"0." + b"0" * (-k - 1), digit, b""
    return b"", np.r_[digit[:k + 1], _POINT, digit[k + 1:]], b""


def _blanks() -> np.ndarray:
    """Byte masks, as words, of the digit row bytes that ``%.17g`` prints.

    Row (k + 6) * 18 + sig is for exponent k, -6 <= k <= 15, and sig
    significant digits, 0 <= sig <= 17.  A digit is printed when it is
    significant or left of the point, and the point when a digit follows
    it.
    """
    k = np.arange(-6, 16)[:, None, None]
    sig = np.arange(18)[:, None]
    digit = np.arange(17)
    mask = np.zeros((22, 18, _CELL_WIDTH), dtype=np.uint8)
    mask[..., _DIGIT0:_DIGIT0 + 17] = (digit < sig) | (digit <= k)
    mask[..., _POINT] = ((-4 <= k) & (k < 0) | (sig > np.where(k >= 0, k + 1, 1)))[..., 0]
    return (mask * 0xFF).view(np.uint32).reshape(22 * 18, -1)


_LAYOUTS = {k: _layout(k) for k in range(-6, 16)}
_BLANKS = _blanks()


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) exactly, as hi + lo (Dekker's product), for -6 <= k <= 16."""
    return _two_product(a, _POW10[16 - k])


def _format_17g(values) -> np.ndarray:
    """``format(x, ".17g")`` for every x of a float array, as one row of bytes each.

    Row r of the (size, _CELL_WIDTH) uint8 result, with its NUL bytes
    dropped, is the ASCII text of ``format(values[r], ".17g")``.

    For _FORMAT_MIN <= |x| < _FORMAT_MAX, with k = floor(log10 |x|), the
    product |x| 10**(16 - k) is formed exactly as hi + lo.  hi >= 10**16 >
    2**53 is an even integer, so N = hi + rint(lo) is the exact product
    rounded half to even, which is how CPython's dtoa rounds; k moves by
    one where log10 was off.  N never rounds up to 10**17 here: below each
    power of ten from 1e-5 to 1e16, the nearest double lies more than half
    a unit of the 17th digit away.  N's 17 digits then go into the layout
    of exponent k (:func:`_layout`), with the trailing zeros after the
    point, and the point itself if nothing follows it, blanked to NUL.
    Zeros, nan, infinities, subnormals and the values outside the window
    go through ``format`` one at a time.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    a = np.abs(x)
    fast = (a >= _FORMAT_MIN) & (a < _FORMAT_MAX)
    a[~fast] = 1.0  # a stand-in; format() writes these rows at the end
    k = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int64)
    hi, lo = _scaled(a, k)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(up | down)
    if moved.size:
        k[moved] += up[moved].astype(np.int64) - down[moved]
        fast[moved[k[moved] < -6]] = False
        k[moved] = np.maximum(k[moved], -6)
        hi[moved], lo[moved] = _scaled(a[moved], k[moved])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # N = d0 10**16 + q1 10**12 + q2 10**8 + q3 10**4 + q4 as a row of ASCII
    # words: "000" d0, q1 to q4 and the point, less what is not printed.
    upper, lower = np.divmod(n, 10 ** 8)
    first, upper = np.divmod(upper, 10 ** 8)
    quads = (first, *np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4))
    words = np.empty((x.size, _CELL_WIDTH // 4), dtype=np.uint32)
    for w, q in enumerate(quads):
        np.take(_QUADS, q, out=words[:, w])
    row = words.view(np.uint8)
    row[:, _POINT] = ord(".")
    zeros = _QUAD_ZEROS[quads[4]]
    for run, q in enumerate(quads[3:0:-1], 1):
        zeros += np.where(zeros == 4 * run, _QUAD_ZEROS[q], 0)
    words &= np.take(_BLANKS, (k + 6) * 18 + 17 - zeros, axis=0)
    # Rows of one exponent share a layout: lay them out by exponent, in
    # blocks of the rows sorted by it, then put them back in place.
    rows = np.flatnonzero(fast)
    rows = rows[np.argsort(k[rows].astype(np.int8), kind="stable")]
    exponents = k[rows]
    digits = np.take(words, rows, axis=0).view(np.uint8)
    cells = np.zeros((rows.size, _CELL_WIDTH), dtype=np.uint8)
    cells[:, 0] = np.where(x[rows] < 0, ord("-"), 0)
    edges = np.flatnonzero(np.diff(exponents, prepend=-99, append=99)).tolist()
    for top, bottom in zip(edges, edges[1:]):
        before, order, after = _LAYOUTS[int(exponents[top])]
        block = cells[top:bottom]
        start, end = 1 + len(before), 1 + len(before) + order.size
        block[:, 1:start] = np.frombuffer(before, dtype=np.uint8)
        np.take(digits[top:bottom], order, axis=1, out=block[:, start:end])
        block[:, end:end + len(after)] = np.frombuffer(after, dtype=np.uint8)
    out = np.zeros((x.size, _CELL_WIDTH), dtype=np.uint8)
    out[rows] = cells
    for r in np.flatnonzero(~fast).tolist():
        text = format(float(x[r]), ".17g").encode()
        out[r, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


# Rows per piece of the CSV writer; it bounds the writer's buffers.  The
# peak memory of a `field` run depends on where they fall in the heap:
# 8192 rows, blaschke's chunk of points, measured lowest, and 4096 or 16384
# rows 2-5 MB higher.
_CSV_CHUNK = 8192


def _csv(header: str, size: int, cells):
    """The CSV text in pieces: the header line, then ``size`` lines of comma-separated cells.

    ``cells(rows)`` returns one :func:`_format_17g` matrix per column for a
    slice of rows.  Each chunk's lines are laid out in one uint8 matrix,
    NUL-padded cells followed by a comma or the final newline, and read
    off as its nonzero bytes, one piece per chunk.
    """
    yield header + "\n"
    for start in range(0, size, _CSV_CHUNK):
        columns = cells(slice(start, start + _CSV_CHUNK))
        lines = np.empty((len(columns[0]), len(columns), _CELL_WIDTH + 1), dtype=np.uint8)
        for c, column in enumerate(columns):
            lines[:, c, :-1] = column
        lines[:, :, -1] = ord(",")
        lines[:, -1, -1] = ord("\n")
        yield lines[lines != 0].tobytes().decode("ascii")


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def sequence_to_document(seq: PointSequence) -> dict:
    return {
        "schema_version": 1,
        "label": seq.label or "",
        "points": [_cplx(z) for z in seq.points],
    }


def parse_point_document(data: dict) -> PointSequence:
    """Validate a parsed document and build the sequence it describes.

    The points are read in bulk (:func:`_bulk_points`) and, when that
    declines, one by one (:func:`_walk_points`), which names the first bad
    point; either way a point's value is complex(float(re), float(im)).
    """
    if not isinstance(data, dict):
        raise DomainError("point document must be a JSON object")
    if data.get("schema_version") != 1:
        raise DomainError(
            f"unsupported schema_version {data.get('schema_version')!r}"
        )
    points = data.get("points")
    if not isinstance(points, list) or not points:
        raise DomainError("point document needs a nonempty 'points' array")
    values = _bulk_points(points)
    if values is None:
        values = _walk_points(points)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise DomainError("'label' must be a string when present")
    return PointSequence(values, label=label or "")


def _bulk_points(points: list) -> np.ndarray | None:
    """The points as a complex array, or None for :func:`_walk_points` to decide.

    One pass per list: the records must all be dicts with 're' and 'im',
    and each coordinate list's types int or float exactly, which is what
    ``json`` returns for numbers and excludes bool.  The coordinates fill
    one array each, numpy converting as float() does; an int too large for
    a float raises OverflowError there, and the walk names its point.
    """
    if set(map(type, points)) != {dict}:
        return None
    try:
        re_parts = list(map(itemgetter("re"), points))
        im_parts = list(map(itemgetter("im"), points))
    except KeyError:
        return None
    if not set(map(type, re_parts)) | set(map(type, im_parts)) <= {int, float}:
        return None
    values = np.empty(len(points), dtype=complex)
    try:
        values.real = re_parts
        values.imag = im_parts
    except OverflowError:
        return None
    return values


def _walk_points(points: list) -> list[complex]:
    """The points one at a time, raising DomainError at the first bad one."""
    values = []
    for i, rec in enumerate(points):
        if not isinstance(rec, dict) or "re" not in rec or "im" not in rec:
            raise DomainError(f"point {i}: expected an object with 're' and 'im'")
        re_part, im_part = rec["re"], rec["im"]
        if isinstance(re_part, bool) or isinstance(im_part, bool):
            raise DomainError(f"point {i}: 're' and 'im' must be numbers, not booleans")
        if not isinstance(re_part, (int, float)) or not isinstance(im_part, (int, float)):
            raise DomainError(f"point {i}: 're' and 'im' must be numbers")
        try:
            values.append(complex(float(re_part), float(im_part)))
        except OverflowError:
            raise DomainError(f"point {i}: 're' and 'im' must fit in a float") from None
    return values


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
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DomainError(f"{path}: {exc}") from None
    return parse_point_document(data)


def _write_text(cfg: RunConfig, text) -> None:
    """Write a report, a str or an iterable of its pieces, to --output or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if not cfg.output_path:
        for piece in pieces:
            sys.stdout.write(piece)
        return
    with open(cfg.output_path, "w", encoding="utf-8") as fh:
        for piece in pieces:
            fh.write(piece)


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


def _split(seq: PointSequence, delta: float | None) -> Decomposition:
    """The split at ``--delta``, or at separation/2 when it is not given."""
    return corresponding_decomposition(seq) if delta is None else decompose(seq, delta)


def cmd_decompose(args, cfg: RunConfig) -> int:
    dec = _split(load_point_document(args.input), args.delta)
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
        "residuals": _complex_json(solution.residuals),
        "schur_parameters": _complex_json([p for _, p in f.schur_steps]),
    }
    _write_text(cfg, _emit_json(doc) + "\n")
    if args.boundary_csv:
        thetas = np.linspace(0.0, 2.0 * math.pi, cfg.boundary_grid, endpoint=False)
        vals = interpolant_eval(f, np.exp(1j * thetas))
        columns = (thetas, vals.real, vals.imag, np.hypot(vals.real, vals.imag))
        with open(args.boundary_csv, "w", encoding="utf-8") as fh:
            fh.writelines(_csv("theta,re,im,modulus", thetas.size,
                               lambda rows: [_format_17g(c[rows]) for c in columns]))
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
    _write_text(cfg, _emit_json({"runs": runs}) + "\n")
    return EXIT_OK


def _near_zero_cells(xs: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Mask of the grid cells xs[i] + 1j xs[j] within _FIELD_ZERO_RADIUS of a zero.

    A cell is that close to a zero only if both of its axis values are, so
    one broadcast per axis finds every zero's candidate axis values, and
    only the zeros with candidates on both axes test their cells; the margin
    of 2 covers the rounding of the complex modulus.
    """
    near = np.zeros((xs.size, xs.size), dtype=bool)
    cols = np.abs(xs - zeros.real[:, None]) < 2 * _FIELD_ZERO_RADIUS
    rows = np.abs(xs - zeros.imag[:, None]) < 2 * _FIELD_ZERO_RADIUS
    for m in np.flatnonzero(cols.any(axis=1) & rows.any(axis=1)):
        i = np.flatnonzero(cols[m])
        j = np.flatnonzero(rows[m])[:, None]
        near[j, i] |= np.abs(xs[i] + 1j * xs[j] - zeros[m]) < _FIELD_ZERO_RADIUS
    return near


def cmd_field(args, cfg: RunConfig) -> int:
    """CSV of log|B|, log|B_0| or log|B_1| on the cells |z| < 0.999 of a square grid.

    Cell (j, i) is xs[i] + 1j xs[j], so the axis values are formatted once
    and gathered by cell index; the log-moduli are formatted by the
    vectorized ``%.17g`` writer (:func:`_format_17g`), and the rows are laid
    out as bytes and written chunk by chunk (:func:`_csv`).  Cells within 1e-6 of a zero
    print ``nan``; they are found from the grid axes, so a zero tests only
    the few cells whose axis values lie near its own.
    """
    if args.which == "B" and args.delta is not None:
        raise UsageError("--delta applies only to --which B0 or B1, "
                         "which split the sequence")
    seq = load_point_document(args.input)
    if args.which == "B":
        product = seq
    else:
        product = _split(seq, args.delta).part_sequence(0 if args.which == "B0" else 1)
    xs = np.linspace(-_FIELD_RADIUS, _FIELD_RADIUS, cfg.grid_resolution)
    X, Y = np.meshgrid(xs, xs)
    j, i = np.nonzero(np.abs(X + 1j * Y) < _FIELD_RADIUS)
    pts = xs[i] + 1j * xs[j]
    near_zero = _near_zero_cells(xs, product.points)[j, i]
    values = np.full(pts.size, math.nan)
    values[~near_zero] = blaschke_log_modulus(product, pts[~near_zero])
    labels = _format_17g(xs)
    _write_text(cfg, _csv("x,y,log_modulus", values.size, lambda rows: (
        labels[i[rows]], labels[j[rows]], _format_17g(values[rows]))))
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


if __name__ == "__main__":
    entry()
