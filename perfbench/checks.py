"""Answer checks for each workload, computed with plain numpy.

Every check recomputes the report's numbers from the input points with its
own formulas (no ``diskinterp`` code) and returns ``None`` when the report
is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative tolerance for products and sums of up to 512 log-distances.
RTOL = 1e-9

# Relative tolerance for values the report derives from its own numbers.
EXACT_RTOL = 1e-12

# interpolate: the reported residual must be below this times max(1, norm).
RESIDUAL_TOL = 1e-8

# Relative tolerance of the chain's hard steps A and B.
HARD_STEP_TOL = 1e-6

# field: grid geometry and the radius around a zero that exports NaN.
FIELD_RADIUS = 0.999
FIELD_ZERO_RADIUS = 1e-6
FIELD_SAMPLES = 512


def rho(z, w):
    """Pseudohyperbolic distance |z - w| / |1 - conj(w) z|, broadcasting."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    return np.abs(z - w) / np.abs(1.0 - np.conj(w) * z)


def log_product(z, zeros) -> np.ndarray:
    """log |prod_k b_{zeros_k}(z)| for each z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(zeros) == 0:
        return np.zeros(z.shape)
    return np.log(rho(z[:, None], np.asarray(zeros)[None, :])).sum(axis=1)


def per_point_moduli(points: np.ndarray) -> np.ndarray:
    """|B_n(lam_n)|: each product omits its own factor."""
    d = rho(points[:, None], points[None, :])
    np.fill_diagonal(d, 1.0)
    return np.exp(np.log(d).sum(axis=1))


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def _cplx(rec: dict) -> complex:
    return complex(rec["re"], rec["im"])


def _key(z: complex):
    return (z.real, z.imag)


def check(workload: str, points: np.ndarray, argv: list[str], rc: int, text: str):
    """Check one op's stdout against its input; ``None`` means correct."""
    try:
        return CHECKS[workload](points, argv, rc, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"


def check_chain(points, argv, rc, text):
    r = json.loads(text)
    if not r["hypothesis_ok"]:
        return None if rc == 1 else f"hypothesis failed but exit code {rc}"
    expected_rc = 0 if r["hard_steps_pass"] else 2
    if rc != expected_rc:
        return f"exit code {rc}, report implies {expected_rc}"
    rows = {k: r[k] for k in ("step_a", "step_b", "step_c", "final")}
    pts = {k: np.array([_cplx(row["point"]) for row in v], dtype=complex)
           for k, v in rows.items()}
    part0, part1 = pts["step_b"], pts["step_a"]
    if sorted(np.concatenate([part0, part1]).tolist(), key=_key) != sorted(
        points.tolist(), key=_key
    ):
        return "step A and B points do not partition the input"
    if not np.array_equal(pts["final"], points) or not np.array_equal(
        pts["step_c"], points
    ):
        return "step C / final rows are not the input points in order"
    if not close(r["eta"], 1.0 / r["c"], EXACT_RTOL) or not close(
        r["eta_g"], 1.0 / r["c_g"], EXACT_RTOL
    ):
        return "eta is not 1/c"
    sep = rho(points[:, None], points[None, :])
    np.fill_diagonal(sep, 1.0)
    if not close(r["delta"], float(sep.min()) / 2.0, EXACT_RTOL):
        return f"delta {r['delta']!r} is not half the separation"

    a, b, delta = r["fitted_a"], r["fitted_b"], r["delta"]
    in1 = {z: k for k, z in enumerate(part1.tolist())}
    in0 = {z: k for k, z in enumerate(part0.tolist())}
    expected = {
        "step_a": (np.exp(log_product(part1, part0)), [r["eta"]] * len(part1)),
        "step_b": (np.exp(log_product(part0, part1)), [r["eta_g"]] * len(part0)),
    }
    c_values, c_bounds = [], []
    for z in points.tolist():
        own, other_eta = (part1, r["eta"]) if z in in1 else (part0, r["eta_g"])
        k = in1[z] if z in in1 else in0[z]
        c_values.append(math.exp(log_product(z, np.delete(own, k))[0]))
        c_bounds.append((a / delta) * other_eta ** (1.0 / b))
    expected["step_c"] = (np.array(c_values), c_bounds)
    final_bound = (a / delta) * min(r["eta"], r["eta_g"]) ** (1.0 + 1.0 / b)
    moduli = per_point_moduli(points)
    expected["final"] = (moduli, [final_bound] * len(points))

    for step, (values, bounds) in expected.items():
        for i, row in enumerate(rows[step]):
            if not close(row["value"], float(values[i])):
                return f"{step} row {i}: value {row['value']!r}, expected {values[i]!r}"
            if not close(row["bound"], float(bounds[i]), EXACT_RTOL):
                return f"{step} row {i}: bound {row['bound']!r}, expected {bounds[i]!r}"
            if not close(row["margin"], row["value"] - row["bound"], EXACT_RTOL):
                return f"{step} row {i}: margin is not value - bound"
            passed = row["value"] >= row["bound"] * (1.0 - HARD_STEP_TOL)
            if row["passed"] != passed:
                return f"{step} row {i}: passed flag is {row['passed']}"
    hard = all(row["passed"] for row in rows["step_a"] + rows["step_b"])
    if r["hard_steps_pass"] != hard:
        return "hard_steps_pass disagrees with the step A/B rows"
    if not close(r["carleson_direct"], float(moduli.min())):
        return "carleson_direct is not the smallest per-point modulus"
    return None


def _mobius(lam: complex, z: complex) -> complex:
    if abs(lam) < 1e-14:
        return z
    return (lam.conjugate() / abs(lam)) * (z - lam) / (1.0 - lam.conjugate() * z)


def interpolant_at(nodes, params, scale: float, z: complex) -> complex:
    """Evaluate the recorded one-node reduction at z."""
    s = params[-1]
    for lam, p in zip(nodes[-2::-1], params[-2::-1]):
        u = _mobius(lam, z) * s
        s = (u + p) / (1.0 + p.conjugate() * u)
    return scale * s


def _targets(argv) -> np.ndarray:
    raw = next(a for a in argv if a.startswith("--targets="))[len("--targets="):]
    return np.array([complex(t) for t in raw.split(",")], dtype=complex)


def check_interpolate(points, argv, rc, text):
    if rc != 0:
        return f"exit code {rc}"
    r = json.loads(text)
    w = _targets(argv)
    norm = r["min_norm"]
    if not r["max_abs_residual"] <= RESIDUAL_TOL * max(1.0, norm):
        return f"max_abs_residual {r['max_abs_residual']!r} at min_norm {norm!r}"
    lower = float(np.max(np.abs(w)))
    upper = float(np.sum(np.abs(w) / per_point_moduli(points)))
    if not lower * (1 - EXACT_RTOL) <= norm <= upper * (1 + EXACT_RTOL):
        return f"min_norm {norm!r} outside [max|w|, sum |w|/|B_j|] = [{lower!r}, {upper!r}]"
    reported = [_cplx(x) for x in r["residuals"]]
    params = [_cplx(x) for x in r["schur_parameters"]]
    if len(reported) != len(points) or len(params) != len(points):
        return "residual or parameter count differs from the node count"
    if not close(r["max_abs_residual"], max(abs(x) for x in reported), EXACT_RTOL):
        return "max_abs_residual is not the largest residual"
    if not r["scale"] >= norm:
        return "interpolant scale is below min_norm"
    nodes = points.tolist()
    for j, (z, target) in enumerate(zip(nodes, w.tolist())):
        residual = interpolant_at(nodes, params, r["scale"], z) - target
        if abs(residual) > RESIDUAL_TOL * max(1.0, norm):
            return f"node {j}: recomputed residual {abs(residual):.3e}"
    return None


def field_grid(resolution: int) -> np.ndarray:
    xs = np.linspace(-FIELD_RADIUS, FIELD_RADIUS, resolution)
    X, Y = np.meshgrid(xs, xs)
    pts = (X + 1j * Y).ravel()
    return pts[np.abs(pts) < FIELD_RADIUS]


def check_field(points, argv, rc, text):
    if rc != 0:
        return f"exit code {rc}"
    lines = text.split("\n")
    if lines[0] != "x,y,log_modulus" or lines[-1] != "":
        return "bad CSV header or missing final newline"
    rows = lines[1:-1]
    grid = field_grid(int(argv[argv.index("--grid-resolution") + 1]))
    if len(rows) != grid.size:
        return f"{len(rows)} rows, expected {grid.size}"
    sample = np.unique(np.concatenate([
        [0, grid.size - 1],
        np.random.default_rng(grid.size).integers(0, grid.size, FIELD_SAMPLES),
    ]))
    expected = log_product(grid[sample], points)
    for i, want in zip(sample.tolist(), expected.tolist()):
        x, y, v = rows[i].split(",")
        if complex(float(x), float(y)) != grid[i]:
            return f"row {i}: point ({x}, {y}) is not grid point {grid[i]}"
        if v == "nan":
            if np.min(np.abs(points - grid[i])) >= FIELD_ZERO_RADIUS:
                return f"row {i}: nan away from every zero"
        elif not close(float(v), want):
            return f"row {i}: log|B| {v}, expected {want!r}"
    return None


def check_analyze(points, argv, rc, text):
    if rc != 0:
        return f"exit code {rc}"
    r = json.loads(text)
    n = len(points)
    if r["count"] != n or [p["index"] for p in r["per_point"]] != list(range(n)):
        return "count or per-point indices differ from the input"
    moduli = per_point_moduli(points)
    for i, rec in enumerate(r["per_point"]):
        if not close(rec["modulus"], float(moduli[i])):
            return f"point {i}: modulus {rec['modulus']!r}, expected {moduli[i]!r}"
    d = rho(points[:, None], points[None, :])
    np.fill_diagonal(d, 1.0)
    if not close(r["separation_constant"], float(d.min()), EXACT_RTOL):
        return "separation_constant differs from the smallest pairwise distance"
    if not close(r["carleson_constant"], float(moduli.min())):
        return "carleson_constant differs from the smallest per-point modulus"
    if not close(r["blaschke_sum"], float(np.sum(1.0 - np.abs(points))), EXACT_RTOL):
        return "blaschke_sum differs from sum(1 - |lam|)"
    return None


CHECKS = {
    "chain": check_chain,
    "interpolate": check_interpolate,
    "field": check_field,
    "analyze": check_analyze,
}
