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


def rim_point(lam: complex, delta: float, theta: float) -> complex:
    """The point of the rim dD(lam, delta) at Mobius angle theta.

    b_lam^-1(w) for w = delta e^(i theta): with lam = r u, |u| = 1, it is
    u (w + r) / (1 + r w), and w itself for lam = 0.
    """
    w = delta * complex(math.cos(theta), math.sin(theta))
    r = abs(lam)
    if r < 1e-14:
        return w
    return (lam / r) * (w + r) / (1.0 + r * w)


def exclusion_rims(points, delta: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rim samples outside every other disk D(lam, delta), by a distance filter.

    Sample j of each rim is its point at Mobius angle 2 pi j / m
    (``rim_point``).  A sample is kept where its pseudohyperbolic distance
    to every other point is at least delta.  Returns (kept samples, index
    of the point whose rim each lies on).
    """
    points = [complex(p) for p in points]
    kept, owner = [], []
    for i, lam in enumerate(points):
        for j in range(m):
            z = rim_point(lam, delta, 2.0 * math.pi * j / m)
            if all(pseudo_distance(z, w) >= delta for k, w in enumerate(points) if k != i):
                kept.append(z)
                owner.append(i)
    return np.array(kept, dtype=complex), np.array(owner, dtype=int)


def arc_ratio_max(points, part0, delta: float, rim: int, theta: float, step: float,
                  steps: int = 64) -> float:
    """Largest max(L1/L0, L0/L1) on the arc theta + step j / steps, |j| <= steps.

    The arc runs over Mobius angles of the rim dD(points[rim], delta),
    placed by ``rim_point``.  Arc points closer than delta to another
    point are dropped.  L0 and L1 add the factor log-moduli of each part
    term by term.
    """
    points = [complex(p) for p in points]
    best = -math.inf
    for j in range(-steps, steps + 1):
        z = rim_point(points[rim], delta, theta + step * j / steps)
        if any(pseudo_distance(z, w) < delta for i, w in enumerate(points) if i != rim):
            continue
        logs = [math.log(abs(mobius(w, z))) for w in points]
        L0 = sum(v for i, v in enumerate(logs) if i in part0)
        L1 = sum(v for i, v in enumerate(logs) if i not in part0)
        best = max(best, L1 / L0, L0 / L1)
    return best


def _package_one_minus_abs2(z) -> np.ndarray:
    """1 - |z|^2 by the package's steps, for bit-level comparisons.

    Dekker's exact squares of x and y, then the five terms added by
    TwoSums, larger square first, with the TwoSum errors added last.
    """
    z = np.asarray(z, dtype=complex)
    x, y = np.abs(z.real), np.abs(z.imag)

    def square(v):  # v * v = p + e exactly
        c = 134217729.0 * v
        hi = c - (c - v)
        lo = v - hi
        p = v * v
        return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo

    def two_sum(a, b):
        s = a + b
        v = s - a
        return s, (a - (s - v)) + (b - v)

    (px, ex), (py, ey) = square(x), square(y)
    swap = py > px
    big, small = np.where(swap, py, px), np.where(swap, px, py)
    e_big, e_small = np.where(swap, ey, ex), np.where(swap, ex, ey)
    s = 1.0 - big
    t1 = (1.0 - s) - big
    s, t2 = two_sum(s, -small)
    s, t3 = two_sum(s, -e_big)
    s, t4 = two_sum(s, -e_small)
    return s + ((t1 + t2) + (t3 + t4))


def _package_distance(z, w):
    """Pseudohyperbolic distance as the package computes it: sqrt(D / (D + A)).

    D = |z - w|^2 from the real and imaginary differences, and
    A = (1 - |z|^2)(1 - |w|^2) from ``_package_one_minus_abs2``.
    """
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    dx, dy = z.real - w.real, z.imag - w.imag
    d = dx * dx + dy * dy
    return np.sqrt(d / (d + _package_one_minus_abs2(z) * _package_one_minus_abs2(w)))


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
    """log |B(z)| summed factor by factor, as the package accumulates it.

    Each factor adds log1p(A / D), the Schwarz-Pick form of -2 log |b|,
    and the sum is scaled by -1/2 at the end.
    """
    z = np.asarray(z, dtype=complex)
    z_gap = _package_one_minus_abs2(z)
    total = np.zeros(z.shape)
    for lam in points:
        dx, dy = z.real - lam.real, z.imag - lam.imag
        total += np.log1p(_package_one_minus_abs2(lam) * z_gap / (dx * dx + dy * dy))
    return -0.5 * total


def package_product(points, z) -> np.ndarray:
    """B(z) as the package once evaluated it, one factor at a time.

    The log-moduli and the phases of ``_package_mobius`` are added into
    zeros in factor order, for bit-level comparisons of array results.
    """
    z = np.asarray(z, dtype=complex)
    log_mod = np.zeros(z.shape)
    phase = np.zeros(z.shape)
    for lam in points:
        w = np.asarray(_package_mobius(lam, z))
        with np.errstate(divide="ignore"):
            log_mod += np.log(np.abs(w))
        phase += np.angle(w)
    return np.where(log_mod == -np.inf, 0.0, np.exp(log_mod) * np.exp(1j * phase))


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
