"""Exponential relaxation of spectral reconstructions.

Coefficients C_n(tau) = pi + A exp(-beta tau) g(n) converge to the uniform
value pi; the reconstruction then converges to the uniform partial sum with
all C^k seminorms of the deviation decaying at the same exponential rate.
"""

import math

import deformspec as ds

params = ds.canonical_params()
model = ds.DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32)

report = ds.inverse_limit_report(model, params, [1, 2, 3, 4, 5, 6, 7, 8], 2)
print("C^k seminorms of the deviation from the uniform partial sum:")
header = f"{'tau':>5}" + "".join(f"{'k=' + str(k):>14}" for k in report.series["k"])
print(header)
for i, tau in enumerate(report.series["tau"]):
    row = f"{tau:>5.1f}"
    for k in report.series["k"]:
        row += f"{report.series['seminorm_k' + str(k)][i]:>14.4e}"
    print(row)

print(f"\nfitted log-slopes per k: {['%.6f' % s for s in report.series['fitted_slope']]}")
print(f"target decay rate: -{model.decay_rate}")
print(f"verdict: {report.verdict}")

s0 = report.series["seminorm_k0"]
print(f"\nsuccessive k=0 ratios equal exp(-beta) = {math.exp(-2.0):.6f} to rounding:")
print("  " + ", ".join(f"{b/a:.9f}" for a, b in zip(s0, s0[1:])))
