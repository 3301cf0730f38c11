"""Output checks against references that never call deformspec.

Each check parses one job's output and compares every value with an
independent reference: closed-form coefficients and integrals, the
textbook tridiagonal eigenpairs through ``numpy.linalg.eigvalsh``, and
``np.sin`` partial sums.  A check returns a :class:`Result` whose ``err`` is
the largest deviation divided by the reference's largest magnitude (the
natural scale of the quantity: the matrix norm for eigenvalues), and which
passes only when ``err < bound``.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

CANONICAL = {"hbar": 1.0, "c": 1.0, "v_c": math.sqrt(1.0 - 1.0 / math.pi)}

# Identity tolerances: rounding-level for exact relations; the fitted order
# rests on mode-0 errors of ~1e-6 and the k-th finite-difference seminorms
# on cancellation of order eps/h^k (measured 8e-5 and 3e-5).
IDENTITY_TOL = 1e-12
ORDER_TOL = 1e-3
FD_IDENTITY_TOL = 1e-3


@dataclass
class Result:
    ok: bool
    err: float
    detail: str = ""


def _result(errors: dict, bound: float, identities: dict | None = None) -> Result:
    """Pass when every scaled error is below the bound and every identity
    deviation below its own tolerance.

    Identities relate output values to each other (an order fitted from the
    output's own errors, a slope fitted from its own seminorms).  They carry
    the program's rounding amplified by cancellation, not a distance to an
    independent reference, so they stay out of ``err``.
    """
    worst = max(errors, key=errors.get)
    err = float(errors[worst])
    if not (math.isfinite(err) and err < bound):
        return Result(False, err, f"{worst}: scaled error {err:.3g} >= bound {bound:.3g}")
    for name, (deviation, tolerance) in (identities or {}).items():
        if not deviation < tolerance:
            return Result(False, err, f"{name}: deviation {deviation:.3g} >= tolerance {tolerance:.3g}")
    return Result(True, err)


def _scaled(out, ref, scale=None) -> float:
    out, ref = np.asarray(out, dtype=float), np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        return math.inf
    scale = float(np.max(np.abs(ref))) if scale is None else scale
    return float(np.max(np.abs(out - ref))) / scale


def _table(text: str, header: str) -> np.ndarray:
    """Numeric CSV body as a 2-d array; raises ValueError on a wrong header."""
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"expected header {header!r} and a final newline")
    width = header.count(",") + 1
    values = np.array(",".join(lines[1:-1]).split(","), dtype=float)
    return values.reshape(-1, width)


# -- closed forms ---------------------------------------------------------


def wavenumbers(p, ns):
    return (np.asarray(ns, dtype=float) + 1.0) * math.pi / (2.0 * p["v_c"])


def eigenvalues(p, ns):
    return math.pi * (1.0 - (p["hbar"] / p["c"] * wavenumbers(p, ns)) ** 2)


def psi(p, ns, v):
    """Eigenfunctions through np.sin: rows ns, columns v."""
    k = wavenumbers(p, ns)[:, None]
    return np.sin(k * (np.asarray(v, dtype=float)[None, :] + p["v_c"])) / math.sqrt(p["v_c"])


def coefficients_profile(p, n_max):
    """a_n of pi*(1 - v^2/c^2): with k = k_n, the integrals of sin(k(v+v_c)),
    (v+v_c) sin and (v+v_c)^2 sin over [-v_c, v_c] leave, for even n,
    (pi/sqrt(v_c)) * (2/k - (2 v_c^2/k - 4/k^3)/c^2), and zero for odd n."""
    ns = np.arange(n_max + 1)
    k = wavenumbers(p, ns)
    even = math.pi / math.sqrt(p["v_c"]) * (2.0 / k - (2.0 * p["v_c"] ** 2 / k - 4.0 / k**3) / p["c"] ** 2)
    return np.where(ns % 2 == 0, even, 0.0)


def coefficients_const(p, n_max):
    ns = np.arange(n_max + 1)
    return np.where(ns % 2 == 0, 4.0 * math.sqrt(p["v_c"]) / ((ns + 1) * math.pi), 0.0)


def norm_sq_profile(p):
    """Integral of (pi*(1 - v^2/c^2))^2 over [-v_c, v_c]."""
    v, c = p["v_c"], p["c"]
    return math.pi**2 * (2.0 * v - 4.0 * v**3 / (3.0 * c**2) + 2.0 * v**5 / (5.0 * c**4))


def coefficients_target(p, target, n_max):
    if target == "C":
        return coefficients_profile(p, n_max)
    if target == "const":
        return coefficients_const(p, n_max)
    unit = np.zeros(n_max + 1)
    unit[int(target.split(":")[1])] = 1.0
    return unit


def tridiagonal(p, m):
    """Dense 3-point discretization on m interior points, Dirichlet rows removed."""
    h = 2.0 * p["v_c"] / (m + 1)
    coeff = math.pi * p["hbar"] ** 2 / (p["c"] ** 2 * h**2)
    return (
        np.diag(np.full(m, math.pi - 2.0 * coeff))
        + np.diag(np.full(m - 1, coeff), 1)
        + np.diag(np.full(m - 1, coeff), -1)
    )


@functools.lru_cache(maxsize=16)
def _eigvalsh(hbar, c, v_c, m):
    values = np.linalg.eigvalsh(tridiagonal({"hbar": hbar, "c": c, "v_c": v_c}, m))[::-1].copy()
    values.flags.writeable = False
    return values


def reference_eigenvalues(p, m):
    """All eigenvalues of the discretization, decreasing (numpy.linalg.eigvalsh)."""
    return _eigvalsh(p["hbar"], p["c"], p["v_c"], m)


def top_eigenvalue_closed(p, m):
    """Largest discrete eigenvalue pi - 4 coeff sin^2(pi/(2(m+1))), free of cancellation."""
    h = 2.0 * p["v_c"] / (m + 1)
    coeff = math.pi * p["hbar"] ** 2 / (p["c"] ** 2 * h**2)
    return math.pi - 4.0 * coeff * math.sin(math.pi / (2.0 * (m + 1))) ** 2


# -- checks ---------------------------------------------------------------


def check_coefficients(text, spec):
    table = _table(text, "n,a_n")
    ref = coefficients_target(CANONICAL, spec["target"], spec["n_max"])
    errors = {"n": _scaled(table[:, 0], np.arange(len(ref)), 1.0), "a_n": _scaled(table[:, 1], ref)}
    return _result(errors, spec["bound"])


def check_gram(text, spec):
    size = spec["n_max"] + 1
    table = _table(text, "n," + ",".join(map(str, range(size))))
    errors = {"n": _scaled(table[:, 0], np.arange(size), 1.0), "gram": _scaled(table[:, 1:], np.eye(size))}
    return _result(errors, spec["bound"])


def _verdict(doc):
    return {"verdict": 0.0 if doc.get("verdict") == "pass" else math.inf}


def check_parseval(text, spec):
    doc = json.loads(text)
    norm_sq = norm_sq_profile(CANONICAL)
    coeff_sq = float(np.sum(coefficients_profile(CANONICAL, spec["n_max"]) ** 2))
    out = [doc["norm_sq"], doc["coefficient_sum_sq"], doc["defect"], doc["relative_defect"] * norm_sq]
    ref = [norm_sq, coeff_sq, norm_sq - coeff_sq, norm_sq - coeff_sq]
    errors = {"values": _scaled(out, ref, norm_sq), "n_max": 0.0 if doc["n_max"] == spec["n_max"] else math.inf}
    return _result(errors, spec["bound"])


def _interior_window(p):
    window = np.linspace(-p["v_c"], p["v_c"], 4097)
    return window[np.abs(window) <= 0.9 * p["v_c"]]


def check_converge(text, spec):
    doc = json.loads(text)
    p, n_list = CANONICAL, spec["n_list"]
    coeffs = coefficients_profile(p, max(n_list))
    norm_sq = norm_sq_profile(p)
    window = _interior_window(p)
    basis = psi(p, np.arange(max(n_list) + 1), window)
    target = math.pi * (1.0 - window**2 / p["c"] ** 2)
    l2, sup = [], []
    for n in n_list:
        l2.append(math.sqrt(norm_sq - float(np.sum(coeffs[: n + 1] ** 2))))
        sup.append(float(np.max(np.abs(target - coeffs[: n + 1] @ basis[: n + 1]))))
    series = doc["series"]
    errors = {
        "n": 0.0 if series["n"] == n_list else math.inf,
        "l2_error": _scaled(series["l2_error"], l2),
        "interior_sup_error": _scaled(series["interior_sup_error"], sup),
        **_verdict(doc),
    }
    return _result(errors, spec["bound"])


def _long_csv(text):
    """series,index,value rows back into a dict of lists."""
    lines = text.split("\n")
    if lines[0] != "series,index,value" or lines[-1] != "":
        raise ValueError("expected header 'series,index,value'")
    series = {}
    for line in lines[1:-1]:
        name, index, value = line.split(",")
        column = series.setdefault(name, [])
        if int(index) != len(column):
            raise ValueError(f"series {name}: index {index} out of order")
        column.append(float(value))
    return series


def check_rigidity(text, spec):
    p, n_list = CANONICAL, spec["n_list"]
    if spec["format"] == "json":
        doc = json.loads(text)
        series, verdict = doc["series"], _verdict(doc)
    else:
        series, verdict = _long_csv(text), {}
    grid = np.linspace(-p["v_c"], p["v_c"], 2049)
    basis = psi(p, np.arange(max(n_list) + 1), grid)
    const = coefficients_const(p, max(n_list))
    pi2 = math.pi**2
    ref = {"norm_sq": [], "norm_sq_over_count_minus_pi_sq": [], "boundary_gap": [], "sup": [], "dist": []}
    for n in n_list:
        partial = math.pi * np.sum(basis[: n + 1], axis=0)
        partial[[0, -1]] = 0.0  # sin((n+1) pi) rounds away from the exact zero
        ref["norm_sq"].append(pi2 * (n + 1))
        ref["norm_sq_over_count_minus_pi_sq"].append(0.0)
        ref["boundary_gap"].append(math.pi)
        ref["sup"].append(float(np.max(np.abs(partial - math.pi))))
        ref["dist"].append(math.sqrt(pi2 * (n + 1) - 2.0 * pi2 * float(np.sum(const[: n + 1])) + 2.0 * p["v_c"] * pi2))
    out = np.array(
        [
            series["norm_sq"],
            series["norm_sq_over_count_minus_pi_sq"],
            series["boundary_gap"],
            series["sup_deviation_from_pi"],
            series["l2_distance_to_pi"],
        ]
    )
    expected = np.array(list(ref.values()))
    errors = {
        "n": 0.0 if [int(n) for n in series["n"]] == n_list else math.inf,
        "values": _scaled(out, expected),
        **verdict,
    }
    return _result(errors, spec["bound"])


def check_fd_validate(text, spec):
    doc = json.loads(text)
    p, modes = spec["params"], spec["modes"]
    analytic = eigenvalues(p, np.arange(modes))
    errors, identities, hs, top_errs = {}, {}, [], []
    if [r["grid"]["m"] for r in doc["reports"]] != spec["sizes"]:
        return _result({"grid": math.inf}, spec["bound"])
    for report in doc["reports"]:
        m = report["grid"]["m"]
        full = reference_eigenvalues(p, m)
        fd = full[:modes]
        scale = float(np.max(np.abs(full)))
        h = 2.0 * p["v_c"] / (m + 1)
        hs.append(h)
        top_errs.append(abs(top_eigenvalue_closed(p, m) - analytic[0]))
        out = np.array([report["eigenvalues_fd"], report["eigenvalues_analytic"], report["abs_errors"]])
        ref = np.array([fd, analytic, np.abs(fd - analytic)])
        errors[f"m={m}"] = _scaled(out, ref, scale)
        errors[f"m={m} h"] = abs(report["grid"]["h"] - h) / h
        rel = np.asarray(report["abs_errors"]) / np.abs(np.asarray(report["eigenvalues_analytic"]))
        identities[f"m={m} rel_errors"] = (_scaled(report["rel_errors"], rel), IDENTITY_TOL)
    order = float(np.polyfit(np.log(hs), np.log(top_errs), 1)[0])
    identities["convergence_order"] = (abs(doc["reports"][0]["convergence_order"] - order) / order, ORDER_TOL)
    return _result(errors, spec["bound"], identities)


def check_all_eigenvalues(values, spec):
    full = reference_eigenvalues(CANONICAL, spec["m"])
    return _result({"eigenvalues": _scaled(values, full)}, spec["bound"])


def check_eigenvectors(vectors, spec):
    """Top modes of the Toeplitz tridiagonal are sin(j pi i/(m+1)), j = 1, 2, ...,
    normalized, with a positive first component."""
    m, modes = spec["m"], spec["modes"]
    i = np.arange(1, m + 1)
    ref = np.sin(np.outer(np.arange(1, modes + 1), i) * math.pi / (m + 1))
    ref /= np.linalg.norm(ref, axis=1, keepdims=True)
    return _result({"vectors": _scaled(vectors, ref)}, spec["bound"])


def _sampled(text, points, p):
    table = _table(text, "v,f")
    grid = np.linspace(-p["v_c"], p["v_c"], points)
    if table.shape[0] != points:
        raise ValueError(f"expected {points} rows, found {table.shape[0]}")
    return table, grid


def check_reconstruct(text, spec):
    p = CANONICAL
    table, grid = _sampled(text, spec["points"], p)
    with open(spec["coeffs"]) as fh:
        coeffs = _table(fh.read(), "n,a_n")[:, 1]
    pick = np.unique(np.r_[np.arange(0, spec["points"], 50), spec["points"] - 1])
    ref = coeffs @ psi(p, np.arange(len(coeffs)), grid[pick])
    ref[grid[pick] == p["v_c"]] = 0.0  # sin((n+1) pi) rounds away from the exact zero
    errors = {"v": _scaled(table[:, 0], grid), "f": _scaled(table[pick, 1], ref)}
    return _result(errors, spec["bound"])


def check_eigenfunction(text, spec):
    p = CANONICAL
    table, grid = _sampled(text, spec["points"], p)
    ref = psi(p, np.array([spec["n"]]), grid)[0]
    ref[[0, -1]] = 0.0
    errors = {"v": _scaled(table[:, 0], grid), "f": _scaled(table[:, 1], ref)}
    return _result(errors, spec["bound"])


def check_spectrum(text, spec):
    p, n_max = CANONICAL, spec["n_max"]
    if spec["format"] == "csv":
        table = _table(text, "n,wavenumber,eigenvalue")
    else:
        modes = json.loads(text)["modes"]
        table = np.array([[m["n"], m["wavenumber"], m["eigenvalue"]] for m in modes], dtype=float)
    ns = np.arange(n_max + 1)
    if table.shape != (n_max + 1, 3):
        return _result({"rows": math.inf}, spec["bound"])
    errors = {
        "n": _scaled(table[:, 0], ns, 1.0),
        "wavenumber": _scaled(table[:, 1], wavenumbers(p, ns)),
        "eigenvalue": _scaled(table[:, 2], eigenvalues(p, ns)),
    }
    return _result(errors, spec["bound"])


def _series_file(directory, column):
    with open(os.path.join(directory, f"inverse_limit__{column}.csv")) as fh:
        return _table(fh.read(), "index,value")[:, 1]


def check_inverse_limit(_text, spec):
    """Default model: A = 1, beta = 2, g(n) = exp(-n), n_max = 32, tau = 1..8.

    The deviation factorizes as exp(-beta tau) times a fixed profile, so every
    seminorm column is its first entry times exp(-beta (tau - tau_1)) and every
    fitted slope is -beta; the k = 0 column is also the np.sin profile's max.
    """
    p, k_max, beta, n_max = CANONICAL, spec["k_max"], 2.0, 32
    taus = np.arange(1.0, 9.0)
    grid = np.linspace(-p["v_c"], p["v_c"], 256 * (n_max + 1) + 1)
    profile = np.exp(-np.arange(n_max + 1.0)) @ psi(p, np.arange(n_max + 1), grid)
    decay = np.exp(-beta * (taus - taus[0]))
    errors = {
        "tau": _scaled(_series_file(spec["dir"], "tau"), taus),
        "k": _scaled(_series_file(spec["dir"], "k"), np.arange(k_max + 1.0), 1.0),
        "seminorm_k0": _scaled(
            _series_file(spec["dir"], "seminorm_k0"), np.max(np.abs(profile)) * np.exp(-beta * taus)
        ),
    }
    slopes = _series_file(spec["dir"], "fitted_slope")
    identities = {"fitted_slope": (_scaled(slopes, np.full(k_max + 1, -beta)), FD_IDENTITY_TOL)}
    for k in range(1, k_max + 1):
        column = _series_file(spec["dir"], f"seminorm_k{k}")
        identities[f"seminorm_k{k}"] = (_scaled(column, column[0] * decay), FD_IDENTITY_TOL)
    return _result(errors, spec["bound"], identities)


CHECKS = {
    "coefficients": check_coefficients,
    "gram": check_gram,
    "parseval": check_parseval,
    "converge": check_converge,
    "rigidity": check_rigidity,
    "fd_validate": check_fd_validate,
    "all_eigenvalues": check_all_eigenvalues,
    "eigenvectors": check_eigenvectors,
    "reconstruct": check_reconstruct,
    "eigenfunction": check_eigenfunction,
    "spectrum": check_spectrum,
    "inverse_limit": check_inverse_limit,
}


def check(output, spec) -> Result:
    """Run the check the spec names; output is text, or an array for library jobs."""
    if spec["kind"] == "exit_only":
        return Result(True, 0.0)
    try:
        return CHECKS[spec["kind"]](output, spec)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return Result(False, math.inf, f"unparseable output: {exc!r}")
