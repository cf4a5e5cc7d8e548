"""
Power-law comparable factorizations of a Blaschke product
=========================================================

"""

import numpy as np

from diskinterp import (
    blaschke_log_modulus,
    corresponding_decomposition,
    exclusion_grid,
    generate_radial,
    pseudohyperbolic_distance,
    separation_constant,
)

# A radial geometric sequence marching toward the boundary.
seq = generate_radial(0.5, 6)
delta0 = separation_constant(seq)
print("points     =", np.round(seq.points.real, 6))
print("separation =", delta0)

# Split the zeros into two groups so that, away from small disks around
# the zeros, each factor controls the other through a power law:
#   a |B_0|^(1/b) <= |B_1| <= (|B_0|^b) / a.
# The split is searched, with delta = delta0 / 2 defining "away from".
dec = corresponding_decomposition(seq)
print("part0 =", dec.part0, " part1 =", dec.part1)
print("fitted a =", dec.fitted_a)
print("fitted b =", dec.fitted_b, f"(refinement raised it by {dec.b_gap:.2e})")
print(f"b is attained on the rim of point {dec.worst_rim}, at", dec.worst_point)


def holds(points):
    """Both sandwich sides at the given points, with the fitted constants."""
    L0 = blaschke_log_modulus(dec.part_sequence(0), points)
    L1 = blaschke_log_modulus(dec.part_sequence(1), points)
    lower = np.all(dec.fitted_a <= np.exp(L1 - L0 / dec.fitted_b))
    upper = np.all(dec.fitted_a <= np.exp(dec.fitted_b * L0 - L1))
    return lower, upper


# The fit is certified on the rims of the exclusion disks: both log-moduli
# vanish on the circle, so by the minimum principle the sandwich holds on
# the whole region once it holds on the rims.
rims = exclusion_grid(seq, dec.delta)
lower, upper = holds(rims.points)
print(f"rims: {len(rims)} samples, lower holds: {lower}, upper holds: {upper}")

# Spot check: an interior grid of the region, outside every disk.
xs = np.linspace(-0.999, 0.999, 201)
grid = (xs[:, None] + 1j * xs[None, :]).ravel()
grid = grid[np.abs(grid) < 0.999]
dist = pseudohyperbolic_distance(grid[None, :], seq.points[:, None])
grid = grid[np.min(dist, axis=0) >= dec.delta]
lower, upper = holds(grid)
print(f"interior: {grid.size} points, lower holds: {lower}, upper holds: {upper}")
