"""Projection onto the eigenbasis and Parseval bookkeeping.

The parabolic profile pi*(1 - v^2) equals 1 at the endpoints while every
basis function vanishes there, so its coefficients decay like 1/n and the
Parseval defect shrinks like 1/N: convergence is honest but slow.
"""

import numpy as np

import deformspec as ds

params = ds.canonical_params()
profile = lambda v: ds.deformation_profile(params, v)

rule = ds.gauss_legendre_rule(params, 512)
gram = ds.gram_matrix(params, 16, rule)
print(f"orthonormality, modes 0..16 with 512 Gauss-Legendre nodes: "
      f"max|G - I| = {np.max(np.abs(gram - np.eye(17))):.2e}\n")

coeffs = ds.project(params, profile, 16, rule)
print("leading coefficients of the profile (odd modes vanish by symmetry):")
for n in range(6):
    print(f"  a_{n} = {coeffs.coefficients[n]: .10f}")

norm_sq = ds.l2_norm(profile, rule) ** 2
v_c = params.v_c
analytic = 2 * np.pi**2 * (v_c - 2 * v_c**3 / 3 + v_c**5 / 5)
print(f"\n||C||^2 by quadrature = {norm_sq:.12f}")
print(f"||C||^2 closed form   = {analytic:.12f}")

print("\nParseval defect ||C||^2 - sum a_n^2 (relative):")
big_rule = ds.default_projection_rule(params, 1000)
big = ds.project(params, profile, 1000, big_rule)
cumulative = np.cumsum(big.coefficients**2)
norm_sq_big = ds.l2_norm(profile, big_rule) ** 2
for n in (64, 128, 256, 512, 1000):
    defect = norm_sq_big - cumulative[n]
    print(f"  N = {n:>4}: {defect/norm_sq_big:.3e}")

print("\nreconstruction: the truncated sum vanishes at the endpoints for every N,")
print("so the sup error near the boundary never drops below the mismatch of 1")
grid = ds.uniform_grid(params, 512)
recon = ds.evaluate(ds.CoefficientVector(params, big.coefficients[:65]), grid)
interior = np.abs(grid) <= 0.9 * v_c
err = np.abs(recon - profile(grid))
print(f"  N = 64: endpoint values = {recon[0]:.1e}, {recon[-1]:.1e}; "
      f"sup error overall = {np.max(err):.3f}, on |v| <= 0.9 v_c = {np.max(err[interior]):.3f}")
