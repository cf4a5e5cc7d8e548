"""
Minimal-norm bounded analytic interpolation
===========================================

"""

import numpy as np

from diskinterp import (
    PickProblem,
    PointSequence,
    min_norm,
    pick_matrix,
    solve_pick,
    sup_norm_boundary,
)

# Interpolation data: f(0) = 0 and f(r) = 1 with f analytic and bounded on
# the disk.  The Schwarz lemma forces sup|f| >= 1/r, and that is attained.
r = 0.5
problem = PickProblem(PointSequence((0.0, r)), (0.0, 1.0))
print("min_norm =", min_norm(problem), " (Schwarz bound:", 1.0 / r, ")")

# Solvability at norm M is a matrix condition: the Pick matrix
# [(M^2 - w_j conj(w_k)) / (1 - lam_j conj(lam_k))] must be PSD.  The
# solver decides it without eigenvalues, by the Schur reduction below,
# which is the generator form of the matrix's Cholesky factorization.
for M in (1.5, 2.0, 3.0):
    smallest = np.linalg.eigvalsh(pick_matrix(problem, M))[0]
    print(f"  M = {M}: smallest Pick eigenvalue = {smallest:+.6f}")

# min_norm brackets the smallest norm that reduction accepts, and solve_pick
# reruns it to build an actual rational interpolant at (slightly above) the
# minimal norm.
solution = solve_pick(problem)
f = solution.interpolant
print("residuals    =", np.abs(solution.residuals))
print("boundary sup =", sup_norm_boundary(f), " <= scale =", f.scale)

# The recorded reduction parameters all lie inside the closed unit disk;
# the interpolant is M times a composition of disk automorphisms.
print("schur parameters:", [p for _, p in f.schur_steps])
