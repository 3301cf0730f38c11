"""Self-time bookkeeping of the span recorder, on a scripted clock."""

import pytest

import tracing


class Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_credit_and_sum():
    # cli.run [0, 10] -> transform.project [1, 9] -> spectrum.eigenfunction [2, 6]
    #   -> spectrum.sinpi [3, 5]; project -> quadrature.gauss_legendre_rule [7, 8]
    tracer = tracing.Tracer(clock=Clock([0, 1, 2, 3, 5, 6, 7, 8, 9, 10]))
    calls = []

    def leaf(name):
        return lambda *a: calls.append(name)

    sinpi = tracer.wrap("spectrum", "sinpi", leaf("sinpi"))
    eigenfunction = tracer.wrap("spectrum", "eigenfunction", lambda p, n, v: sinpi())
    rule = tracer.wrap("quadrature", "gauss_legendre_rule", lambda p, m: None)

    class Params:
        v_c = 1.0

    class Rule:
        nodes = [0.0, 0.5, 1.0]

    def project_body(params, f, n_max, rule_):
        eigenfunction(params, 0, Rule.nodes)
        rule(params, 4)

    project = tracer.wrap("transform", "project", project_body)
    run = tracer.wrap("cli", "run", lambda argv: project(Params, None, 1, Rule))
    tracer.begin_job()
    run([])
    tracer.end_job(0.0, 11.0)
    m = tracer.metrics()
    assert m["cli.self_s"] == 2  # [0,1] and [9,10]
    assert m["transform.self_s"] == m["transform.project_s"] == 3  # [1,2], [6,7], [8,9]
    assert m["spectrum.self_s"] == m["spectrum.eigenfunction_s"] == 4  # sinpi folds into eigenfunction
    assert m["quadrature.rule_s"] == 1
    assert m["trace.unspanned_s"] == 1
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["trace.unspanned_s"]
    assert total == pytest.approx(m["trace.wall_s"])
    assert m["spectrum.eigenfunction_values"] == 3
    assert m["quadrature.gl_nodes"] == 4
    assert m["transform.basis_peak_mb"] == 8 * 2 * 3 / 1e6


def test_repeat_ratios():
    tracer = tracing.Tracer(clock=iter(range(1000)).__next__)

    class Params:
        v_c = 0.5

    rule = tracer.wrap("quadrature", "gauss_legendre_rule", lambda p, m: None)
    eigenfunction = tracer.wrap("spectrum", "eigenfunction", lambda p, n, v: None)
    import numpy as np

    nodes = np.linspace(-1, 1, 9)
    tracer.begin_job()
    for m in (8, 16, 8, 8):
        rule(Params, m)
    eigenfunction(None, np.arange(4)[:, None], nodes[None, :])
    eigenfunction(None, np.arange(6)[:, None], nodes[None, :])
    eigenfunction(None, 2, nodes[::2])  # another node set: not a repeat
    tracer.begin_job()
    eigenfunction(None, np.arange(2)[:, None], nodes[None, :])  # new job: not a repeat
    m = tracer.metrics()
    assert m["quadrature.rule_repeat_ratio"] == 2 / 4
    assert m["spectrum.basis_rows"] == 4 + 6 + 1 + 2
    assert m["spectrum.basis_repeat_ratio"] == 4 / 13
