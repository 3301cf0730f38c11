"""Truncation-error study for spectral reconstructions.

The parabolic profile violates the Dirichlet conditions at the endpoints, so
its L^2 truncation error decays like N^(-1/2); a target compatible with the
boundary conditions converges much faster at every truncation.
"""

import numpy as np

import deformspec as ds

params = ds.canonical_params()
profile = lambda v: ds.deformation_profile(params, v)


def boundary_compatible(v):
    return np.sin(np.pi * (np.asarray(v) + params.v_c) / (2 * params.v_c)) ** 3


rough = ds.convergence_study(params, profile, [8, 16, 32, 64, 128])
smooth = ds.convergence_study(params, boundary_compatible, [8, 16, 32, 64, 128])

print("L^2 truncation error vs cutoff N:")
print(f"{'N':>5} {'profile C(v)':>14} {'sqrt(N) * err':>14} {'sin^3 target':>14}")
for i, n in enumerate(rough.series["n"]):
    err = rough.series["l2_error"][i]
    print(f"{n:>5} {err:>14.6f} {err * np.sqrt(n):>14.6f} {smooth.series['l2_error'][i]:>14.2e}")

print(f"\nprofile study verdict: {rough.verdict} "
      f"(non-increasing columns, final L2 error {rough.series['l2_error'][-1]:.4f})")
print("the sqrt(N)-scaled column is flat: the endpoint mismatch pins the rate")
print(f"boundary-compatible target verdict: {smooth.verdict} "
      "(in span of the first three modes, error is quadrature-level noise)")

print("\ninterior sup error on |v| <= 0.9 v_c:")
for i, n in enumerate(rough.series["n"]):
    print(f"  N = {n:>4}: {rough.series['interior_sup_error'][i]:.4f}")
