"""Direct checks of the stepping kernel against analytic solutions."""

import tracemalloc

import numpy as np
import pytest

from oamring import _kernels
from oamring._kernels import integrate
from oamring.errors import StepSizeUnderflow

# one kernel; the id keeps the reported test names stable
KERNEL = pytest.mark.parametrize("kernel", [integrate], ids=["_integrate_numpy"])


def single_mode_problem(kappa, nu, t_final, n_samples):
    """dc/dt = kappa * exp(i nu t) * c, solved by
    c(t) = exp(kappa (exp(i nu t) - 1) / (i nu))."""
    c0 = np.array([1.0 + 0.0j])
    rows = np.array([0], dtype=np.int64)
    cols = np.array([0], dtype=np.int64)
    camps = np.array([kappa], dtype=np.complex128)
    nus = np.array([nu], dtype=np.float64)
    samples = np.linspace(0.0, t_final, n_samples)
    exact = np.exp(kappa * (np.exp(1j * nu * samples) - 1.0) / (1j * nu))
    return (c0, 0.0, samples, rows, cols, camps, nus), exact


def two_level_problem(omega, t_final, n_samples):
    """Static off-diagonal coupling: populations sin^2/cos^2(omega t / 2)."""
    c0 = np.array([1.0, 0.0], dtype=np.complex128)
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    camps = np.array([-1j * omega / 2, -1j * omega / 2], dtype=np.complex128)
    nus = np.zeros(2)
    samples = np.linspace(0.0, t_final, n_samples)
    return (c0, 0.0, samples, rows, cols, camps, nus), samples


@KERNEL
def test_oscillating_scalar_mode(kernel):
    # 4001 samples put many samples inside each step
    for n_samples in (41, 4001):
        args, exact = single_mode_problem(2.0e9 + 1.5e9j, 4.0e10, 1e-9,
                                          n_samples)
        out, n_steps = kernel(*args, 1e-10, 1e-9)
        np.testing.assert_allclose(out[:, 0], exact, rtol=0, atol=1e-9)


@KERNEL
def test_two_level_rotation(kernel):
    omega = 2 * np.pi * 1e9
    args, samples = two_level_problem(omega, 3e-9, 61)
    out, n_steps = kernel(*args, 1e-11, 3e-9)
    np.testing.assert_allclose(np.abs(out[:, 1]) ** 2,
                               np.sin(omega * samples / 2) ** 2,
                               rtol=0, atol=1e-10)
    norms = np.sum(np.abs(out) ** 2, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)


@KERNEL
def test_error_budget_scales_with_tol(kernel):
    errs = []
    for tol in (1e-7, 1e-9, 1e-11):
        args, exact = single_mode_problem(1.0e9 + 0.5e9j, 3.0e10, 1e-9, 11)
        out, _ = kernel(*args, tol, 1e-9)
        errs.append(float(np.max(np.abs(out[:, 0] - exact))))
    # each hundredfold tolerance cut should buy well over tenfold accuracy
    assert errs[1] < errs[0] / 10
    assert errs[2] < errs[1] / 10
    assert errs[0] < 1e-6


@KERNEL
def test_zero_rhs_reaches_samples_exactly(kernel):
    c0 = np.array([0.6 + 0.8j])
    empty_i = np.zeros(0, dtype=np.int64)
    empty_c = np.zeros(0, dtype=np.complex128)
    empty_f = np.zeros(0)
    samples = np.array([0.0, 1e-12, 7e-10, 1e-9])
    out, _ = kernel(c0, 0.0, samples, empty_i, empty_i, empty_c, empty_f,
                    1e-9, 1e-9)
    assert np.all(out[:, 0] == c0[0])


@KERNEL
def test_underflow_status(kernel):
    # beat far beyond anything resolvable within the requested span
    args, _ = single_mode_problem(1.0e12 + 0j, 1e30, 1.0, 3)
    with pytest.raises(StepSizeUnderflow,
                       match=r"step size underflow at t = 0\.0 s after \d+ "
                             r"steps: h = .* s, err/target = .* \(tol=1e-10\)"):
        kernel(*args, 1e-10, 1.0)


def test_step_budget_raises(monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_STEPS", 5)
    args, _ = single_mode_problem(2.0e9 + 1.5e9j, 4.0e10, 1e-9, 41)
    with pytest.raises(StepSizeUnderflow) as info:
        integrate(*args, 1e-10, 1e-9)
    message = str(info.value)
    assert message.startswith("step budget exhausted at t = ")
    assert "after 5 steps: h = " in message
    # the last attempted step's ratio is a number, not a placeholder
    ratio = float(message.split("err/target = ")[1].split()[0])
    assert np.isfinite(ratio)


def two_level_propagator(omega, t):
    """exp(-i omega t sigma_x / 2) for each time in ``t``."""
    cos, sin = np.cos(omega * t / 2), np.sin(omega * t / 2)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]]).transpose(2, 0, 1)


def test_identity_state_gives_propagator():
    omega = 2 * np.pi * 1e9
    args, samples = two_level_problem(omega, 3e-9, 31)
    out, _ = integrate(np.eye(2, dtype=complex), *args[1:], 1e-11, 3e-9)
    assert out.shape == (31, 2, 2)
    np.testing.assert_allclose(out, two_level_propagator(omega, samples),
                               rtol=0, atol=1e-10)


def test_samples_in_one_step_need_no_temporaries():
    # 4001 propagator samples inside the first step: the interpolation
    # writes into the output, with no temporaries of the output's size
    omega = 2 * np.pi * 1e9
    args, _ = two_level_problem(omega, 3e-9, 2)
    samples = np.linspace(0.0, 1e-15, 4001)
    tracemalloc.start()
    try:
        out, n_steps = integrate(np.eye(8, dtype=complex), 0.0, samples,
                                 *args[3:], 1e-11, 3e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_steps == 1
    assert peak < 1.5 * out.nbytes


def test_close_samples_keep_the_step_size():
    # samples 1e-25 s apart fall inside one step and are read from its
    # continuous extension; they must not drag the step below the floor
    args, _ = single_mode_problem(2.0e9 + 1.5e9j, 4.0e10, 1e-9, 2)
    samples = np.array([0.0, 5e-10, 5e-10 + 1e-25, 1e-9])
    out, _ = integrate(args[0], 0.0, samples, *args[3:], 1e-10, 1e-9)
    kappa, nu = args[5][0], args[6][0]
    exact = np.exp(kappa * (np.exp(1j * nu * samples) - 1.0) / (1j * nu))
    np.testing.assert_allclose(out[:, 0], exact, rtol=0, atol=1e-9)
