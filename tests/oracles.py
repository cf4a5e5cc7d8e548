"""Independent brute-force implementations used to cross-check the library.

The oracles evaluate the defining formulas directly: plain Python loops,
linear-domain products, no log-space accumulation and no shared code with
the package beyond numpy itself.  The byte-level references at the end
restate earlier package arithmetic and CSV writers exactly, so that
rewritten code can be held to the same bits and bytes.
"""

import math

import numpy as np


def mobius(lam: complex, z: complex) -> complex:
    if abs(lam) < 1e-14:
        return z
    return (abs(lam) / lam) * (z - lam) / (1.0 - np.conj(lam) * z)


def pseudo_distance(z: complex, w: complex) -> float:
    return abs(mobius(w, z))


def blaschke(points, z: complex, skip: int | None = None) -> complex:
    out = complex(1.0)
    for i, lam in enumerate(points):
        if i == skip:
            continue
        out *= mobius(lam, z)
    return out


def carleson(points) -> float:
    if len(points) == 1:
        return 1.0
    return min(
        abs(blaschke(points, lam, skip=n)) for n, lam in enumerate(points)
    )


def separation(points) -> float:
    if len(points) == 1:
        return 1.0
    best = 1.0
    for j in range(len(points)):
        for k in range(j + 1, len(points)):
            best = min(best, pseudo_distance(points[j], points[k]))
    return best


def log_moduli_rows(points, grid) -> np.ndarray:
    """Row i holds log |b_{points[i]}(g)| over the grid, by direct formula."""
    rows = np.empty((len(points), len(grid)))
    for i, lam in enumerate(points):
        for g, z in enumerate(grid):
            rows[i, g] = np.log(abs(mobius(lam, z)))
    return rows


def fit_constants(L0: np.ndarray, L1: np.ndarray) -> tuple[float, float]:
    """Extremal part-symmetric sandwich constants, direct restatement."""
    b = max(1.0, float(np.max(np.maximum(L1 / L0, L0 / L1))))
    a = float(np.exp(np.min(np.minimum(b * L0 - L1, b * L1 - L0))))
    return a, b


def best_partition(rows: np.ndarray) -> tuple[float, float, tuple[int, ...]]:
    """Exhaustive minimum of fitted b (tie: max a, then lex part0), 0 pinned.

    ``rows`` is the per-point log-moduli matrix over the fit grid.  Returns
    (a, b, part0) of the winner.
    """
    n = rows.shape[0]
    total = rows.sum(axis=0)
    best = None
    for code in range(2 ** (n - 1) - 1):
        member = [0] + [j for j in range(1, n) if (code >> (j - 1)) & 1]
        L0 = rows[member].sum(axis=0)
        a, b = fit_constants(L0, total - L0)
        key = (b, -a, tuple(member))
        if best is None or key < best[0]:
            best = (key, (a, b, tuple(member)))
    return best[1]


def local_search(rows: np.ndarray, points) -> tuple[tuple[int, ...], int]:
    """Single-move descent as the package once ran it, every move fully fitted.

    Seeds part0 with every other point by increasing modulus, then flips
    points in index order while a flip lowers (b, -a), refitting each tried
    mask from its full row sum.  Returns (part0 with index 0 pinned,
    masks tried including the seed).
    """
    n = rows.shape[0]
    total = rows.sum(axis=0)
    mask = np.zeros(n, dtype=bool)
    mask[np.argsort(np.abs(points), kind="stable")[0::2]] = True

    def score():
        L0 = rows[mask].sum(axis=0)
        a, b = fit_constants(L0, total - L0)
        return b, -a

    current = score()
    tried = 1
    improved = True
    while improved:
        improved = False
        for i in range(n):
            mask[i] = not mask[i]
            if 0 < mask.sum() < n:
                tried += 1
                cand = score()
                if cand < current:
                    current = cand
                    improved = True
                    continue
            mask[i] = not mask[i]
    if not mask[0]:
        mask = ~mask
    return tuple(np.flatnonzero(mask).tolist()), tried


def _trace_scale(A: np.ndarray) -> float:
    n = A.shape[0]
    return max(1.0, float(np.trace(A).real) / n)


def sarason_min_norm(nodes, targets, dps: int = 80) -> float:
    """Minimal interpolation norm by Sarason's formula, at dps digits.

    With the Pick kernel K[j, k] = 1 / (1 - lam_j conj(lam_k)) = L L*, the
    smallest sup-norm is ||L^-1 D_w L||_2.  The kernel is badly
    conditioned (about 1e18 at 48 nodes), so its Cholesky factor and the
    triangular solve run in mpmath at dps digits.  The product is then
    rounded to complex128: the spectral norm moves by at most ||E||_2
    under a perturbation E, so the rounding costs at most about
    sqrt(n) * 1e-16 relative.
    """
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = dps
    lam = [ctx.mpc(complex(z)) for z in nodes]
    w = [ctx.mpc(complex(x)) for x in targets]
    n = len(lam)
    L = [[ctx.mpc(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1):
            s = 1 / (1 - lam[j] * ctx.conj(lam[k])) - ctx.fsum(
                L[j][m] * ctx.conj(L[k][m]) for m in range(k)
            )
            L[j][k] = ctx.sqrt(s.real) if j == k else s / L[k][k]
    product = np.empty((n, n), dtype=complex)
    for c in range(n):
        y = []
        for j in range(n):
            rhs = w[j] * L[j][c] if j >= c else ctx.mpc(0)
            y.append((rhs - ctx.fsum(L[j][m] * y[m] for m in range(j))) / L[j][j])
        product[:, c] = [complex(v) for v in y]
    return float(np.linalg.norm(product, 2))


def interpolant_values(f, z) -> np.ndarray:
    """The recorded reduction of an interpolant unwound at the array z."""
    z = np.asarray(z, dtype=complex)
    s = np.full(z.shape, complex(f.schur_steps[-1][1]))
    for lam, p in reversed(f.schur_steps[:-1]):
        u = mobius(lam, z) * s
        s = (u + p) / (1.0 + np.conj(p) * u)
    return f.scale * s


def _golden_max(fn, a: float, b: float, tol: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(fc, fd)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        best = max(best, fc, fd)
    return best


def sampled_chain_norms(f, grid: int = 4096) -> tuple[float, float]:
    """(||f||, ||1 - f||) estimated on the unit circle by sampling.

    Maximum modulus over ``grid`` equispaced boundary points, refined by
    golden-section search within one step of the discrete argmax down to a
    bracket of step/64.  This is how the chain once estimated its norms;
    a sample of the sup is a lower bound on it.
    """
    thetas = 2.0 * math.pi * np.arange(grid) / grid
    step = 2.0 * math.pi / grid
    out = []
    for shift, sign in ((0.0, 1.0), (1.0, -1.0)):
        def modulus(t):
            return abs(shift + sign * interpolant_values(f, np.exp(1j * np.asarray(t))))
        vals = modulus(thetas)
        k = int(np.argmax(vals))
        refined = _golden_max(lambda t: float(modulus(t)), thetas[k] - step,
                              thetas[k] + step, step / 64.0)
        out.append(max(float(vals[k]), refined))
    return out[0], out[1]


def _package_distance(z, w):
    """Pseudohyperbolic distance with the package's real/imaginary split."""
    re = 1.0 - (z.real * w.real + z.imag * w.imag)
    im = z.imag * w.real - z.real * w.imag
    return np.abs(z - w) / np.hypot(re, im)


def separation_constant(points) -> float:
    """The separation constant as the package once computed it, by a fresh sweep."""
    points = np.asarray(points, dtype=complex)
    if points.size == 1:
        return 1.0
    dist = _package_distance(points[:, None], points[None, :])
    np.fill_diagonal(dist, 1.0)
    return float(np.min(dist))


def per_point_moduli(points) -> np.ndarray:
    """|B_n(lam_n)| as the package once computed them: a fresh sweep, then logs."""
    points = np.asarray(points, dtype=complex)
    if points.size == 1:
        return np.ones(1)
    with np.errstate(divide="ignore"):
        log_d = np.log(_package_distance(points[:, None], points[None, :]))
    np.fill_diagonal(log_d, 0.0)
    return np.exp(log_d.sum(axis=0))


def exclusion_points(points, delta: float, resolution: int) -> np.ndarray:
    """Exclusion-grid points as the package once filtered them.

    The square's points are kept where the full matrix of pseudohyperbolic
    distances to the sequence has column minimum >= delta; an empty square
    is widened once past the farthest disk rim, as the package does.
    """
    points = np.asarray(points, dtype=complex)
    moduli = np.abs(points)

    def square(R):
        xs = np.linspace(-R, R, resolution)
        X, Y = np.meshgrid(xs, xs)
        pts = (X + 1j * Y).ravel()
        pts = pts[np.abs(pts) < R]
        dist = _package_distance(pts[None, :], points[:, None])
        return pts[np.min(dist, axis=0) >= delta]

    R = min(0.999, float(np.max(moduli)) + 0.05)
    pts = square(R)
    if pts.size == 0:
        rim = float(np.max((moduli + delta) / (1.0 + moduli * delta)))
        if min(0.999, rim + 0.05) > R:
            pts = square(min(0.999, rim + 0.05))
    return pts


def exclusion_rims(points, delta: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rim samples outside every other disk D(lam, delta), by a distance filter.

    Each rim is sampled at m angles about its Euclidean center, with the
    package's closed form and operation order, so the samples match bit for
    bit.  A sample is kept where the full matrix of pseudohyperbolic
    distances to the other points has column minimum >= delta.  Returns
    (kept samples, index of the point whose rim each lies on).
    """
    points = np.asarray(points, dtype=complex)
    angles = 2.0 * np.pi * np.arange(m) / m
    rims = []
    for lam in points.tolist():
        denom = 1.0 - delta * delta * abs(lam) ** 2
        center = lam * (1.0 - delta * delta) / denom
        radius = delta * (1.0 - abs(lam) ** 2) / denom
        rims.append(center + radius * np.exp(1j * angles))
    samples = np.concatenate(rims)
    owner = np.repeat(np.arange(points.size), m)
    dist = _package_distance(samples[None, :], points[:, None])
    dist[owner, np.arange(samples.size)] = np.inf
    keep = np.min(dist, axis=0) >= delta
    return samples[keep], owner[keep]


def _package_mobius(lam: complex, z):
    """b_lam(z) with the package's operation order, for bit-level comparisons."""
    if abs(lam) < 1e-14:
        return z
    return (np.conj(lam) / abs(lam)) * (z - lam) / (1.0 - np.conj(lam) * z)


def package_unwinding(f, z) -> np.ndarray:
    """An interpolant unwound at the array z as the package once did it.

    One ``_package_mobius`` call per recorded step, the constant first, in
    the package's operation order, for bit-level comparisons.
    """
    z = np.asarray(z, dtype=complex)
    s = np.full(z.shape, f.schur_steps[-1][1], dtype=complex)
    for lam, p in reversed(f.schur_steps[:-1]):
        u = _package_mobius(lam, z) * s
        s = (u + p) / (1.0 + np.conjugate(p) * u)
    return f.scale * s


def sequential_log_modulus(points, z) -> np.ndarray:
    """log |B(z)| summed factor by factor, as the package once accumulated it.

    That accumulation also summed the phases, which never entered the
    modulus; exact zeros added 0.
    """
    z = np.asarray(z, dtype=complex)
    log_mod = np.zeros(z.shape)
    for lam in points:
        r = np.abs(np.asarray(_package_mobius(lam, z)))
        with np.errstate(divide="ignore"):
            log_mod += np.where(r == 0.0, 0.0, np.log(np.where(r == 0.0, 1.0, r)))
    return log_mod


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def field_csv(points, resolution: int) -> str:
    """The ``field`` CSV of log |B| as the package once wrote it, row by row."""
    points = np.asarray(points, dtype=complex)
    xs = np.linspace(-0.999, 0.999, resolution)
    X, Y = np.meshgrid(xs, xs)
    pts = (X + 1j * Y).ravel()
    pts = pts[np.abs(pts) < 0.999]
    near_zero = np.min(
        np.abs(pts[None, :] - points[:, None]), axis=0
    ) < 1e-6
    values = np.full(pts.size, math.nan)
    if np.any(~near_zero):
        values[~near_zero] = sequential_log_modulus(points, pts[~near_zero])
    lines = ["x,y,log_modulus"]
    for z, v in zip(pts, values):
        field_val = "nan" if math.isnan(v) else _fmt_float(v)
        lines.append(f"{_fmt_float(z.real)},{_fmt_float(z.imag)},{field_val}")
    return "\n".join(lines) + "\n"


def boundary_csv(thetas, vals) -> str:
    """The ``interpolate --boundary-csv`` text as the package once wrote it."""
    lines = ["theta,re,im,modulus"]
    for t, v in zip(thetas, vals):
        lines.append(
            f"{_fmt_float(t)},{_fmt_float(v.real)},"
            f"{_fmt_float(v.imag)},{_fmt_float(abs(v))}"
        )
    return "\n".join(lines) + "\n"


def ksection_min_norm(problem, rel_tol: float = 1e-8) -> float:
    """``pick.min_norm`` as the package once searched: one blind 15-trial pass per level.

    The first pass tests max|w|, the explicit norm bound and 13 geometric
    trials between; every later pass tests the 15 interior points of the
    17-point grid over the bracket, geometric while its upper end exceeds
    four times the lower and linear after.  The predicate is the package's
    own, looked up at call time, so a counter on it counts these passes too.
    """
    from diskinterp import pick
    from diskinterp.errors import BracketFailureError

    lo = float(np.max(np.abs(problem.targets)))
    hi = pick.norm_upper_bound(problem)
    if hi == 0.0:
        return 0.0
    trials = np.geomspace(lo, hi, 15)
    feasible = np.all(pick._inside(pick._schur_parameters(problem, trials)), axis=1)
    if feasible[0]:
        return lo
    if not feasible[-1]:
        raise BracketFailureError(
            f"norm bound {hi:.6g} tests infeasible; the problem is "
            f"numerically degenerate"
        )
    while True:
        j = int(np.argmax(feasible))  # trials[j - 1] is infeasible
        if trials[j] - trials[j - 1] >= hi - lo:
            return hi  # no float fits strictly inside the bracket
        lo, hi = float(trials[j - 1]), float(trials[j])
        if hi - lo < rel_tol * hi:
            return hi
        space = np.geomspace if hi > 4.0 * lo else np.linspace
        trials = space(lo, hi, 17)
        inner = np.all(pick._inside(pick._schur_parameters(problem, trials[1:-1])), axis=1)
        feasible = np.concatenate(([False], inner, [True]))
