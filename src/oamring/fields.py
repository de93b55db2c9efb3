"""Ring wavefunction, drive field and matrix elements evaluated as arrays.

The model modules (``ring``, ``beam``, ``coupling``) give every quantity in
closed form with scalar arithmetic.  This module evaluates the same objects
on arrays of the ring angle phi or at given times: the macroscopic
eigenfunctions, the azimuthal drive field A_phi and its phi-derivative, the
time-dependent matrix element reconstructed from its harmonic terms, and
``matrix_element_quadrature_oracle``, which integrates the defining bracket
over phi at extended precision.  The oracle is the ground truth that
``coupling.matrix_element_terms`` is tested against (overall phases are
convention-laden, the oracle is not).
"""

import math
from functools import lru_cache
from typing import List

import numpy as np

from .beam import HarmonicDrive
from .constants import COOPER_CHARGE, COOPER_MASS, HBAR
from .coupling import MatrixElementTerm, _check_truncation
from .errors import NonRealField
from .ring import DEFAULT_N_MAX, RingParams, level_angular_frequency

ORACLE_POINTS = 512
_REALITY_TOL = 1e-14


def ring_wavefunction(n: int, params: RingParams, phi, t: float):
    """Macroscopic eigenfunction sqrt(N*/2pi) exp(-i (n phi + omega_n t)).

    ``phi`` may be a scalar or an array; returns complex values of the same
    shape.  The modulus squared integrates over [0, 2pi) to the total pair
    count.
    """
    omega_n = level_angular_frequency(n, params)
    phase = np.asarray(n * np.asarray(phi, dtype=float) + omega_n * t)
    out = np.sqrt(params.n_pairs / (2.0 * math.pi)) * np.exp(-1j * phase)
    return complex(out) if out.ndim == 0 else out


def _harmonic_sum(drive: HarmonicDrive, phi, t: float, derivative: bool, dtype):
    phi = np.asarray(phi, dtype=np.zeros(0, dtype=dtype).real.dtype)
    total = np.zeros(phi.shape, dtype=dtype)
    omega_t = phi.dtype.type(drive.omega) * phi.dtype.type(t)
    for term in drive.terms:
        amp = dtype(term.amplitude)
        if derivative:
            amp = amp * dtype(-1j * term.winding)
        total += amp * np.exp(-1j * (term.winding * phi + term.time_sign * omega_t))
    return total


def evaluate_A_phi(drive: HarmonicDrive, phi, t: float, dtype=complex):
    """Reconstruct the real field A_phi(phi, t) from its harmonic terms.

    ``phi`` may be scalar or array.  Raises NonRealField if the imaginary
    residue exceeds 1e-14 of the field scale (i.e. the terms are not properly
    conjugate-paired).  ``dtype`` can be widened (e.g. np.clongdouble) when
    the caller needs reference-grade accuracy.
    """
    total = _harmonic_sum(drive, phi, t, derivative=False, dtype=dtype)
    scale = sum(abs(term.amplitude) for term in drive.terms)
    residue = float(np.max(np.abs(total.imag))) if total.size else 0.0
    if residue > _REALITY_TOL * max(scale, 1e-300):
        raise NonRealField(
            f"imaginary residue {residue:.3e} exceeds tolerance for scale {scale:.3e}")
    real = total.real
    return real[()] if real.ndim == 0 else real


def evaluate_A_phi_derivative(drive: HarmonicDrive, phi, t: float, dtype=complex):
    """d/dphi of the reconstructed field, evaluated analytically per harmonic."""
    real = _harmonic_sum(drive, phi, t, derivative=True, dtype=dtype).real
    return real[()] if real.ndim == 0 else real


def evaluate_matrix_element(terms: List[MatrixElementTerm], t: float) -> complex:
    """Reconstruct the time-dependent element sum(amplitude * exp(i beat t))."""
    return sum((term.amplitude * np.exp(1j * term.beat * t) for term in terms),
               start=0.0 + 0.0j)


_CDT = np.clongdouble
_RDT = np.zeros(0, dtype=_CDT).real.dtype
_PI_EXT = np.arccos(_RDT.type(-1.0))
_PHI_GRID = (np.arange(ORACLE_POINTS, dtype=_RDT)
             * (2 * _PI_EXT / _RDT.type(ORACLE_POINTS)))
_PHI_GRID.setflags(write=False)


@lru_cache(maxsize=64)
def _winding_phase(k: int):
    out = np.exp(1j * k * _PHI_GRID)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def _drive_fields(drive: HarmonicDrive, t: float):
    a_phi = evaluate_A_phi(drive, _PHI_GRID, t, dtype=_CDT)
    da_phi = evaluate_A_phi_derivative(drive, _PHI_GRID, t, dtype=_CDT)
    a_sq = a_phi * a_phi
    for arr in (a_phi, da_phi, a_sq):
        arr.setflags(write=False)
    return a_phi, da_phi, a_sq


def matrix_element_quadrature_oracle(m: int, n: int, drive: HarmonicDrive,
                                     params: RingParams, t: float,
                                     n_max: int = DEFAULT_N_MAX) -> complex:
    """<m|H_I|n> by direct quadrature of the defining integral.

    The drive field and its phi-derivative are evaluated in closed form (no
    finite differencing); the phi-integral uses the periodic trapezoidal
    rule, which is exact for trigonometric polynomials of bandwidth below
    ``ORACLE_POINTS``.  Internally runs at extended precision so that tiny
    elements sitting under large cancelling harmonics are still resolved.
    """
    _check_truncation(m, n, n_max)
    a_phi, da_phi, a_sq = _drive_fields(drive, float(t))

    lin_coeff = (1j * _CDT(HBAR) * _CDT(COOPER_CHARGE)
                 / (2.0 * _CDT(COOPER_MASS) * _CDT(params.design.radius))
                 * (_CDT(params.L_K) / _CDT(params.L_T)))
    quad_coeff = _CDT(COOPER_CHARGE) ** 2 / (2.0 * _CDT(COOPER_MASS))

    # (d/dphi A + A d/dphi) acting on exp(-i n phi) = dA - 2 i n A, times exp(-i n phi)
    bracket = lin_coeff * (da_phi - 2j * n * a_phi) + quad_coeff * a_sq
    integrand = _winding_phase(m - n) * bracket
    integral = integrand.sum() * (2 * _PI_EXT / _RDT.type(ORACLE_POINTS))

    omega_m = level_angular_frequency(m, params)
    omega_n = level_angular_frequency(n, params)
    phase = np.exp(1j * (_RDT.type(omega_m) - _RDT.type(omega_n)) * _RDT.type(t))
    return complex((_CDT(params.n_pairs) / (2 * _PI_EXT)) * integral * phase)
