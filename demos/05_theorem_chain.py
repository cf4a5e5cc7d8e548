"""
From one zero/one interpolant to the Carleson condition, numerically
====================================================================

"""

from diskinterp import generate_radial, verify_theorem_chain

# The equivalence under test: a separated sequence is interpolating as
# soon as ONE bounded analytic function takes the values 0 on one part
# and 1 on the other of a power-law comparable split.  The chain below
# re-derives a positive lower bound on the Carleson constant from that
# single function and checks every inequality along the way at actual
# points.
seq = generate_radial(0.5, 6)
report = verify_theorem_chain(seq)

print("hypothesis_ok            =", report.hypothesis_ok)
print("delta                    =", report.delta)
# c and c_g are norm bounds, not samples: the interpolant is built at
# norm M, so ||f|| <= M = c and ||1 - f|| <= 1 + M = c_g.
print("norm bound of f      c   =", report.c, "  eta   = 1/c   =", report.eta)
print("norm bound of 1 - f  c_g =", report.c_g, "  eta_g = 1/c_g =", report.eta_g)
print("fitted (a, b)            =", (report.fitted_a, report.fitted_b))

# Step A: on the zero part, |B_0| >= eta pointwise (minimum modulus
# argument applied to f / B_0).  Step B mirrors it for 1 - f and B_1.
for name, rows in (("A", report.step_a), ("B", report.step_b)):
    worst = min(row.value - row.bound for row in rows)
    print(f"step {name}: {len(rows)} rows, worst margin = {worst:.3e},",
          "all passed" if all(r.passed for r in rows) else "FAILED")

# Step C converts the bound on one factor into a bound on the other via
# the power-law comparability, and the final step divides out the small
# disks to bound |B_n(lam_n)| below at every point of the sequence.
for name, rows in (("C", report.step_c), ("final", report.final)):
    print(f"step {name}: {len(rows)} rows,",
          "all passed" if all(r.passed for r in rows) else "some rows FAILED")

print("direct carleson constant =", report.carleson_direct)
print("chain lower bound        =", report.final[0].bound)
