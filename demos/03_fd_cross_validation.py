"""Independent cross-check of the closed-form spectrum.

A 3-point finite-difference discretization of the operator gives a symmetric
tridiagonal matrix whose eigenvalues are found by Sturm-sequence bisection,
with no reference to the sine basis.  Agreement at rate h^2 validates both
routes at once.
"""

import numpy as np

import deformspec as ds

params = ds.canonical_params()

print("discrete eigenvalues vs closed form (m = 2000 interior points):")
(report,) = ds.refinement_study(params, [2000], 10)
print(f"{'n':>3} {'lambda_fd':>14} {'C_n':>14} {'rel err':>10}")
for n in range(10):
    print(f"{n:>3} {report.eigenvalues_fd[n]:>14.6f} "
          f"{report.eigenvalues_analytic[n]:>14.6f} {report.rel_errors[n]:>10.2e}")

print("\nrefining the grid divides the error by four per doubling:")
study = ds.refinement_study(params, [250, 500, 1000, 2000], 1)
for r in study:
    print(f"  m = {r.m:>5}: |lambda_fd - C_0| = {r.abs_errors[0]:.3e}")
print(f"fitted convergence order: {study[0].convergence_order:.4f}")

print("\nthe discrete eigenvectors oscillate exactly like the eigenfunctions:")
A = ds.discretize(params, 400)
lams = ds.top_eigenvalues(A, 4)
for n in range(4):
    vec = ds.eigenvector_inverse_iteration(A, lams[n])
    signs = np.sign(vec)
    signs = signs[signs != 0]
    flips = int(np.sum(signs[1:] * signs[:-1] < 0))
    samples = ds.eigenfunction(params, n, ds.interior_grid(params, 400))
    samples /= np.linalg.norm(samples)
    print(f"  mode {n}: {flips} sign changes, "
          f"sup distance to eigenfunction samples = {np.max(np.abs(vec - samples)):.2e}")
