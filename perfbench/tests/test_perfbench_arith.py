"""Tests of the benchmark's own arithmetic.

    python -m pytest perfbench/tests
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layers import layer_metrics  # noqa: E402
from oracle import (DynamicsExpectation, check_dynamics,  # noqa: E402
                    print_resolution, two_level_p2)
from stats import (count_failures, quartile_spread, self_time,  # noqa: E402
                   tail)
from tracer import Tracer  # noqa: E402


def test_tail_has_ten_values_beyond_it():
    values = list(range(30, 0, -1))
    value, pct = tail(values)
    assert value == 20
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_is_highest_such_percentile():
    values = [float(v) for v in range(1, 101)]
    value, pct = tail(values)
    assert (value, pct) == (90.0, 90.0)


def test_tail_never_below_median():
    assert tail([float(v) for v in range(1, 20)]) == (10.0, 50.0)
    assert tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert tail([3.0]) == (3.0, 50.0)


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_self_time_subtracts_union_of_children():
    # overlapping children count once; a child reaching past the span is clipped
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 6.0
    assert self_time(0.0, 10.0, [(9.0, 12.0)]) == 9.0
    assert self_time(0.0, 10.0, []) == 10.0


def test_count_failures():
    assert count_failures([None, "norm drift", None, "exit code 2"]) == (4, 2)
    assert count_failures([]) == (0, 0)


def _two_level_by_eigendecomposition(t, omega, delta):
    h = np.array([[0.0, omega / 2.0], [omega / 2.0, -delta]])
    energies, vectors = np.linalg.eigh(h)
    out = []
    for ti in t:
        u = vectors @ np.diag(np.exp(-1j * energies * ti)) @ vectors.T
        out.append(abs(u[1, 0]) ** 2)
    return np.array(out)


@pytest.mark.parametrize("delta_over_omega", [0.0, 0.3, -1.0])
def test_two_level_formula_matches_propagator(delta_over_omega):
    omega = 6.8e11
    delta = delta_over_omega * omega
    t = np.linspace(0.0, 3 * 2 * math.pi / omega, 41)
    np.testing.assert_allclose(two_level_p2(t, omega, delta),
                               _two_level_by_eigendecomposition(t, omega, delta),
                               atol=1e-12)


def test_two_level_formula_peak_and_resonance():
    omega = 2.0
    assert two_level_p2(math.pi / omega, omega, 0.0) == pytest.approx(1.0)
    w = math.hypot(omega, omega)
    assert two_level_p2(math.pi / w, omega, omega) == pytest.approx(0.5)


def test_print_resolution_is_half_the_last_digit():
    res = print_resolution([0.523456, 1.0, 0.0, 2.5e-30, 12.0], "table")
    np.testing.assert_allclose(res, [5e-7, 5e-6, 0.0, 5e-36, 5e-5])
    assert not print_resolution([0.5], "json").any()


def _report(exp, perturb=None):
    t = np.linspace(0.0, exp.t_final, exp.samples)
    p2 = two_level_p2(t, exp.omega, exp.delta)
    cols = {"t": t, "P_-2": np.zeros_like(t), "P_0": 1.0 - p2, "P_2": p2,
            "norm": np.ones_like(t), "dipole": np.zeros_like(t)}
    if perturb:
        name, delta = perturb
        cols[name] = cols[name] + delta
    names = list(cols)
    header = "  ".join(f"{n} [s]" if n == "t" else n for n in names)
    lines = ["# dynamics", "", header, "  ".join("-" * len(n) for n in names)]
    lines += ["  ".join(f"{cols[n][i]:.6g}" for n in names)
              for i in range(exp.samples)]
    return "\n".join(lines) + "\n"


EXP = DynamicsExpectation(mode="rwa", fmt="table", t_final=2e-11, samples=51,
                          tol=1e-9, omega=6.8e11, delta=2e11, dipole_scale=1e-20)


def test_exact_report_passes_the_oracle():
    assert check_dynamics(_report(EXP), EXP) == []


@pytest.mark.parametrize("perturb, label", [
    (("P_2", 2e-5), "P_2"),
    (("norm", 1e-4), "norm"),
    (("P_-2", 1e-5), "P_-2"),
    (("dipole", 1e-25), "dipole"),
    (("t", 1e-13), "t"),
])
def test_oracle_gates_catch_each_deviation(perturb, label):
    bad = check_dynamics(_report(EXP, perturb), EXP)
    assert len(bad) == 1 and bad[0].startswith(label)


def test_wrong_row_count_fails():
    exp = DynamicsExpectation(**{**EXP.__dict__, "samples": 50})
    assert check_dynamics(_report(EXP), exp) == ["51 rows, expected 50"]


class _Op:
    def __init__(self, index, periods, samples, output_bytes):
        self.index, self.periods = index, periods
        self.samples, self.output_bytes = samples, output_bytes


def _spans():
    # op 0: cli.run [0, 10] > evolve [1, 9] > terms [1, 2], kernel [2, 7]
    #       cli.run > dipole [9, 9.5]
    # op 1 (not counted): the same shape, shifted by 10
    spans = []
    for op, shift in ((0, 0.0), (1, 10.0)):
        base = len(spans)
        spans += [
            ["cli.run", shift + 0.0, shift + 10.0, None, op, None],
            ["dynamics.evolve", shift + 1.0, shift + 9.0, base, op, None],
            ["coupling.terms", shift + 1.0, shift + 2.0, base + 1, op, None],
            ["kernels.integrate", shift + 2.0, shift + 7.0, base + 1, op,
             {"steps": 100}],
            ["dynamics.dipole", shift + 9.0, shift + 9.5, base, op, None],
        ]
    return spans


def test_layer_metrics_self_times_and_counted_ops():
    ops = [_Op(0, 50.0, 20, 1000), _Op(1, 50.0, 20, 1000)]
    m = layer_metrics(_spans(), set(), ops, counted=1, import_s=0.1,
                      overhead_frac=0.02)
    assert m["dynamics.evolve_self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert m["kernels.integrate_s"] == pytest.approx(5.0)
    assert m["kernels.steps"] == 100
    assert m["kernels.us_per_step"] == pytest.approx(1e6 * 10.0 / 200)
    assert m["kernels.steps_per_period"] == pytest.approx(2.0)
    assert m["kernels.steps_per_sample"] == pytest.approx(5.0)
    assert m["dynamics.evolve_calls"] == 1
    assert m["cli.output_bytes"] == 1000


def test_missing_hook_marks_dependent_metrics_absent():
    ops = [_Op(0, 50.0, 20, 1000)]
    m = layer_metrics(_spans(), {"coupling.terms"}, ops, counted=1,
                      import_s=0.1, overhead_frac=0.0)
    assert m["coupling.terms_s"] is None
    assert m["dynamics.evolve_self_s"] is None
    assert m["kernels.steps"] == 100


def test_tracer_wraps_restores_and_reports_missing_targets():
    mod = types.ModuleType("perfbench_fake_target")
    mod.work = lambda x: (x, 7, 0)
    sys.modules[mod.__name__] = mod
    original = mod.work
    try:
        tracer = Tracer()
        tracer.install(((mod.__name__, "work", "kernels.integrate"),
                        (mod.__name__, "gone", "coupling.terms"),
                        ("perfbench_no_such_module", "f", "config.load")))
        tracer.op = 3
        with tracer.span("op"):
            assert mod.work(1) == (1, 7, 0)
        tracer.restore()
    finally:
        del sys.modules[mod.__name__]
    assert mod.work is original
    assert tracer.missing == {"coupling.terms", "config.load"}
    (op, kernel) = tracer.spans
    assert kernel[0] == "kernels.integrate" and kernel[3] == 0 and kernel[4] == 3
    assert kernel[5] == {"steps": 7}
    assert op[1] <= kernel[1] <= kernel[2] <= op[2]


def test_unreadable_counts_mark_only_the_count_metrics_absent():
    mod = types.ModuleType("perfbench_fake_kernel")
    mod.integrate = lambda: {"steps": 7}      # not the (out, steps, status) tuple
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        tracer.install(((mod.__name__, "integrate", "kernels.integrate"),))
        tracer.op = 0
        mod.integrate()
        tracer.restore()
    finally:
        del sys.modules[mod.__name__]
    assert tracer.missing == {"kernels.integrate.counts"}
    m = layer_metrics(tracer.spans, tracer.missing, [_Op(0, 1.0, 1, 0)],
                      counted=1, import_s=0.1, overhead_frac=0.0)
    assert m["kernels.steps"] is None and m["kernels.us_per_step"] is None
    assert m["kernels.integrate_s"] is not None
