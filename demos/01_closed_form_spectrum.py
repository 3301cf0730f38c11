"""Closed-form spectrum of the deformation operator.

The operator pi*(1 + (hbar/c)^2 d^2/dv^2) with Dirichlet conditions on
[-v_c, v_c] has eigenfunctions sqrt(1/v_c) sin(k_n (v + v_c)) with
k_n = (n+1) pi/(2 v_c) and eigenvalues C_n = pi (1 - (hbar/c)^2 k_n^2):
simple, strictly decreasing, bounded above by pi, unbounded below.
"""

import numpy as np

import deformspec as ds

params = ds.canonical_params()
print(f"canonical parameters: hbar = c = 1, v_c = {params.v_c:.7f} (profile equals 1 there)")
print(f"dimensionless group gamma = hbar/(c v_c) = {params.gamma:.7f}\n")

print("first modes:")
print(f"{'n':>3} {'k_n':>12} {'C_n':>14} {'interior zeros':>15}")
ns = np.arange(9)
for n, k, c in zip(ns, ds.wavenumber(params, ns), ds.eigenvalue(params, ns)):
    zeros = ds.count_interior_zeros(params, n)
    print(f"{n:>3} {k:>12.6f} {c:>14.6f} {zeros:>15}")

print("\nevery eigenvalue sits strictly below pi; the first one is already negative")
print(f"pi - C_0 = {np.pi - ds.eigenvalue(params, 0):.6f}")

print("\ncritical index (largest n with C_n >= 0) vs the floor formula:")
for label, p in [
    ("canonical", params),
    ("hbar = 0.1", ds.custom_params(0.1, 1.0, 0.8256453)),
    ("SI units", ds.si_params()),
]:
    r = ds.critical_index(p)
    print(f"  {label:>10}: x = {r.x:.6g}, floor formula {r.n_star_paper}, "
          f"exact {r.n_star_exact}, agree = {r.agree}")
print("the floor formula overshoots by one whenever x >= 1 (and names a negative")
print("mode when x < 1); both values are reported so the discrepancy stays visible")

print("\nquadratic asymptotics: C_n = pi - alpha n^2 - alpha (2n + 1), exactly")
alpha = ds.asymptotic_coefficient(params)
print(f"alpha = {alpha:.6f}")
for n in (10, 100, 1000):
    remainder = ds.eigenvalue(params, n) - ds.asymptotic_eigenvalue(params, n)
    print(f"  n = {n:>5}: remainder = {remainder:>16.4f} = -alpha(2n+1) "
          f"(|remainder|/n = {abs(remainder)/n:.4f} -> 2 alpha = {2*alpha:.4f})")
