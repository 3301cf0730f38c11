"""Why no admissible function has all coefficients equal to pi.

Uniform coefficients make the squared norm of the partial sums grow like
pi^2 (N+1), and every partial sum vanishes at +-v_c while the would-be limit
pi does not: the sup distance to pi never drops below pi.  The often-assumed
shortcut "constants are orthogonal to the basis" is false here: the even-mode
projections of the constant 1 are 4 sqrt(v_c)/((n+1) pi), visibly nonzero.
"""

import numpy as np

import deformspec as ds

params = ds.canonical_params()

report = ds.rigidity_report(params, [8, 16, 32, 64])
print("uniform-coefficient partial sums S_N = pi (psi_0 + ... + psi_N):")
print(f"{'N':>4} {'||S_N||^2':>12} {'pi^2 (N+1)':>12} {'sup|S_N - pi|':>14} {'||S_N - pi||':>13}")
for i, n in enumerate(report.series["n"]):
    print(f"{n:>4} {report.series['norm_sq'][i]:>12.4f} {np.pi**2 * (n + 1):>12.4f} "
          f"{report.series['sup_deviation_from_pi'][i]:>14.6f} "
          f"{report.series['l2_distance_to_pi'][i]:>13.4f}")
print(f"verdict: {report.verdict}  (norms diverge, boundary gap stays >= pi)\n")

const = ds.constant_coefficient_report(params, 8)


def fixed(x):
    """x to 10 decimals, with a rounding-level residue of either sign printed as 0."""
    return round(x, 10) + 0.0


print("projections of the constant function 1 (two quadrature rules agree):")
print(f"{'n':>3} {'closed form':>14} {'Gauss-Legendre':>16} {'Simpson':>14}")
for n in range(9):
    print(f"{n:>3} {fixed(const.series['closed_form'][n]):>14.10f} "
          f"{fixed(const.series['gauss_legendre'][n]):>16.10f} "
          f"{fixed(const.series['composite_simpson'][n]):>14.10f}")
print(f"verdict: {const.verdict}")
print("the even-mode values are nonzero, contradicting the shortcut; the rigidity")
print("conclusion itself is untouched, since it rests on the endpoint obstruction")
