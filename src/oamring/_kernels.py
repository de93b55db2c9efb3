"""Adaptive Runge-Kutta kernel for the interaction-picture state equations.

The state C is one amplitude vector of shape (dim,) or a matrix of shape
(dim, k) whose columns are stepped together, such as a propagator started
from the identity.  Its right-hand side is dC/dt = H(t) C with the dense
coupling matrix

    H(t)[r, c] = sum of camp[j] exp(i nu[j] t) over the terms j at (r, c),

the -i/hbar factor folded into ``camp``.  Each stage sums every entry's
terms with one ``reduceat`` and multiplies.  A Dormand-Prince 5(4) pair does
the stepping; the local error, the root mean square over every entry of the
state, is held to a target that scales with the step (error per unit step),
which keeps the accumulated norm drift of a whole run at the order of the
requested tolerance rather than tolerance-per-step times the step count.
Each sample is the whole state at its time, read from the pair's continuous
extension inside the accepted step that holds it, so the step sequence never
depends on the sample times, only on where the last one lies.

A run that cannot go on raises ``StepSizeUnderflow``, naming the time it
reached, the step size and the error ratio of the last attempted step.
"""

import numpy as np

from .errors import StepSizeUnderflow

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
# fifth-order minus embedded fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_D1, _D3, _D4 = (-12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
                 -10690763975.0 / 1880347072.0)
_D5, _D6, _D7 = (701980252875.0 / 199316789632.0, -1453857185.0 / 822651844.0,
                 69997945.0 / 29380423.0)

MAX_STEPS = 50_000_000


def _rhs(dim, rows, cols, camps, nus):
    # terms sorted by matrix entry, so each entry's sum is one reduceat run
    flat = rows * dim + cols
    order = np.argsort(flat, kind="stable")
    flat, camps, nus = flat[order], camps[order], nus[order]
    entries, starts = np.unique(flat, return_index=True)

    def rhs(t, c):
        h = np.zeros(dim * dim, dtype=np.complex128)
        if camps.shape[0]:
            h[entries] = np.add.reduceat(camps * np.exp(1j * nus * t), starts)
        return h.reshape(dim, dim) @ c
    return rhs


def integrate(c0, t0, sample_times, rows, cols, camps, nus, tol, t_total):
    """Step ``c0`` from ``t0`` past the last of the sorted ``sample_times``.

    Returns ``(out, n_steps)``.  ``out[i]`` is the state at
    ``sample_times[i]``, of the shape of ``c0``, interpolated within the step
    that holds it.  ``t_total`` sets the error budget per unit time and the
    smallest admissible step; pass the duration of the whole run the
    integration belongs to.

    Raises ``StepSizeUnderflow`` when the step size falls below that floor
    or the run needs more than ``MAX_STEPS`` steps.
    """
    c0 = np.asarray(c0, dtype=np.complex128)
    dim = c0.shape[0]
    n_samples = sample_times.shape[0]
    rhs = _rhs(dim, rows, cols, camps, nus)
    out = np.zeros((n_samples,) + c0.shape, dtype=np.complex128)

    t = t0
    y = c0.copy()
    k1 = rhs(t, y)
    h = t_total * 1e-6
    h_floor = 16.0 * np.finfo(np.float64).eps * t_total
    isample = 0
    n_steps = 0
    err = target = np.nan
    while isample < n_samples:
        if n_steps >= MAX_STEPS or h < h_floor:
            failure = ("step budget exhausted" if n_steps >= MAX_STEPS
                       else "step size underflow")
            raise StepSizeUnderflow(
                f"{failure} at t = {float(t)!r} s after {n_steps} steps: "
                f"h = {h:.3e} s, err/target = {err / target:.3e} (tol={tol})")
        n_steps += 1

        k2 = rhs(t + _C2 * h, y + h * (_A21 * k1))
        k3 = rhs(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        k4 = rhs(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = rhs(t + _C5 * h,
                 y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = rhs(t + h,
                 y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                          + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = rhs(t + h, y_new)

        err_vec = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5
                       + _E6 * k6 + _E7 * k7)
        err = np.sqrt(np.mean(np.abs(err_vec) ** 2))
        target = tol * h / t_total

        if err <= target:
            done = np.searchsorted(sample_times, t + h, side="right")
            if done > isample:
                delta = y_new - y
                b = h * k1 - delta
                cont = [y, delta, b, delta - h * k7 - b,
                        h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5
                             + _D6 * k6 + _D7 * k7)]
                theta = ((sample_times[isample:done] - t) / h).reshape(
                    (-1,) + (1,) * (out.ndim - 1))
                rest = 1.0 - theta
                # cont[0] + theta * (cont[1] + rest * (cont[2] + theta *
                # (cont[3] + rest * cont[4]))), evaluated in place, so that
                # many samples in one step need no temporaries of their size
                seg = out[isample:done]
                np.multiply(rest, cont[4], out=seg)
                for factor, term in ((theta, cont[3]), (rest, cont[2]),
                                     (theta, cont[1])):
                    seg += term
                    seg *= factor
                seg += cont[0]
                isample = done
            t = t + h
            y = y_new
            k1 = k7
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (target / err) ** 0.25))
        else:
            h *= max(0.1, 0.9 * (target / err) ** 0.25)
    return out, n_steps
