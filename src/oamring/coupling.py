"""Light-ring coupling: matrix elements, selection rules and Rabi frequency.

The drive enters the one-dimensional kinetic Hamiltonian through the minimal
substitution; after eliminating the induced vector potential the interaction
splits into a piece linear in the azimuthal drive field and a piece quadratic
in it:

    H_I = (i hbar q* / (2 m* r)) (L_K/L_T) (d/dphi A + A d/dphi)
        + (q*^2 / (2 m*)) A^2,     A = A_phi(phi, t).

Between winding states the linear piece connects n -> n + k for each drive
harmonic k and the quadratic piece connects n -> n + k1 + k2 for each ordered
pair of harmonics.  ``matrix_element_terms`` performs that contraction in
closed form; ``matrix_element_quadrature_oracle`` evaluates the same bracket
by direct integration over phi and is the ground truth the closed form is
tested against (overall phases are convention-laden, the oracle is not).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Set, Tuple

import numpy as np

from .beam import HarmonicDrive, evaluate_A_phi, evaluate_A_phi_derivative
from .constants import COOPER_CHARGE, COOPER_MASS, HBAR
from .errors import TruncationExceeded
from .ring import (DEFAULT_N_MAX, RingParams, level_angular_frequency,
                   transition_angular_frequency)

ORACLE_POINTS = 512


@dataclass(frozen=True)
class MatrixElementTerm:
    """One harmonic contribution amplitude * exp(i * beat * t) to <m|H_I|n>."""

    amplitude: complex      # J
    beat: float             # rad/s
    order: int              # power of the drive amplitude: 1 or 2


@dataclass(frozen=True)
class TransitionCatalogEntry:
    """A drive frequency at which |initial> <-> |final> becomes resonant."""

    initial: int
    final: int
    required_omega: float   # rad/s, positive
    order: int
    source: str             # harmonic winding(s) responsible


def _check_truncation(m: int, n: int, n_max: int):
    if abs(m) > n_max or abs(n) > n_max:
        raise TruncationExceeded(
            f"levels ({m}, {n}) outside truncated basis |n| <= {n_max}")


def matrix_element_terms(m: int, n: int, drive: HarmonicDrive,
                         params: RingParams,
                         n_max: int = DEFAULT_N_MAX) -> List[MatrixElementTerm]:
    """Closed-form harmonic expansion of <m|H_I|n>.

    Linear part: each drive term (k, a, s) with k = m - n contributes
    (hbar q* N* / (2 m* r)) (L_K/L_T) (k + 2n) a at beat omega_{m,n} - s*omega.
    Quadratic part: each ordered pair with k1 + k2 = m - n contributes
    (q*^2 N* / (2 m*)) a1 a2 at beat omega_{m,n} - (s1+s2)*omega.
    Contributions sharing (order, total time sign) are merged; exact zeros
    are dropped.  The result must agree with the quadrature oracle; tests
    enforce that.
    """
    _check_truncation(m, n, n_max)
    omega_mn = transition_angular_frequency(m, n, params)

    coeff1 = (HBAR * COOPER_CHARGE * params.n_pairs
              / (2.0 * COOPER_MASS * params.design.radius)
              * (params.L_K / params.L_T))
    coeff2 = COOPER_CHARGE ** 2 * params.n_pairs / (2.0 * COOPER_MASS)

    # key: (order, total time sign) -> summed amplitude
    groups: dict = {}
    for term in drive.terms:
        if term.winding == m - n:
            amp = coeff1 * (term.winding + 2 * n) * term.amplitude
            key = (1, term.time_sign)
            groups[key] = groups.get(key, 0.0) + amp
    for t1 in drive.terms:
        for t2 in drive.terms:
            if t1.winding + t2.winding == m - n:
                amp = coeff2 * t1.amplitude * t2.amplitude
                key = (2, t1.time_sign + t2.time_sign)
                groups[key] = groups.get(key, 0.0) + amp

    out = []
    for (order, s_total), amp in sorted(groups.items()):
        if amp == 0:
            continue
        beat = omega_mn - s_total * drive.omega
        out.append(MatrixElementTerm(amplitude=amp, beat=beat, order=order))
    return out


def evaluate_matrix_element(terms: List[MatrixElementTerm], t: float) -> complex:
    """Reconstruct the time-dependent element sum(amplitude * exp(i beat t))."""
    return sum((term.amplitude * np.exp(1j * term.beat * t) for term in terms),
               start=0.0 + 0.0j)


_CDT = np.clongdouble
_RDT = np.zeros(0, dtype=_CDT).real.dtype
_PI_EXT = np.arccos(_RDT.type(-1.0))


@lru_cache(maxsize=32)
def _phi_grid(n_points: int):
    phi = np.arange(n_points, dtype=_RDT) * (2 * _PI_EXT / _RDT.type(n_points))
    phi.setflags(write=False)
    return phi


@lru_cache(maxsize=64)
def _winding_phase(k: int, n_points: int):
    out = np.exp(1j * k * _phi_grid(n_points))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def _drive_fields(drive: HarmonicDrive, t: float, n_points: int):
    phi = _phi_grid(n_points)
    a_phi = evaluate_A_phi(drive, phi, t, dtype=_CDT)
    da_phi = evaluate_A_phi_derivative(drive, phi, t, dtype=_CDT)
    a_sq = a_phi * a_phi
    for arr in (a_phi, da_phi, a_sq):
        arr.setflags(write=False)
    return a_phi, da_phi, a_sq


def matrix_element_quadrature_oracle(m: int, n: int, drive: HarmonicDrive,
                                     params: RingParams, t: float,
                                     n_points: int = ORACLE_POINTS,
                                     n_max: int = DEFAULT_N_MAX) -> complex:
    """<m|H_I|n> by direct quadrature of the defining integral.

    The drive field and its phi-derivative are evaluated in closed form (no
    finite differencing); the phi-integral uses the periodic trapezoidal
    rule, which is exact for trigonometric polynomials of bandwidth below
    ``n_points``.  Internally runs at extended precision so that tiny
    elements sitting under large cancelling harmonics are still resolved.
    """
    _check_truncation(m, n, n_max)
    a_phi, da_phi, a_sq = _drive_fields(drive, float(t), n_points)

    lin_coeff = (1j * _CDT(HBAR) * _CDT(COOPER_CHARGE)
                 / (2.0 * _CDT(COOPER_MASS) * _CDT(params.design.radius))
                 * (_CDT(params.L_K) / _CDT(params.L_T)))
    quad_coeff = _CDT(COOPER_CHARGE) ** 2 / (2.0 * _CDT(COOPER_MASS))

    # (d/dphi A + A d/dphi) acting on exp(-i n phi) = dA - 2 i n A, times exp(-i n phi)
    bracket = lin_coeff * (da_phi - 2j * n * a_phi) + quad_coeff * a_sq
    integrand = _winding_phase(m - n, n_points) * bracket
    integral = integrand.sum() * (2 * _PI_EXT / _RDT.type(n_points))

    omega_m = level_angular_frequency(m, params)
    omega_n = level_angular_frequency(n, params)
    phase = np.exp(1j * (_RDT.type(omega_m) - _RDT.type(omega_n)) * _RDT.type(t))
    return complex((_CDT(params.n_pairs) / (2 * _PI_EXT)) * integral * phase)


def selection_rules(drive: HarmonicDrive) -> Set[Tuple[int, int]]:
    """Reachable (delta_n, order) pairs, derived combinatorially.

    Order 1 covers the drive's nonzero harmonic windings; order 2 covers all
    nonzero pairwise winding sums.
    """
    windings = [term.winding for term in drive.terms]
    rules = {(k, 1) for k in windings if k != 0}
    rules |= {(k1 + k2, 2) for k1 in windings for k2 in windings if k1 + k2 != 0}
    return rules


def resonance_catalog(drive: HarmonicDrive, params: RingParams,
                      n_init: int = 0,
                      n_max: int = DEFAULT_N_MAX) -> List[TransitionCatalogEntry]:
    """Positive drive frequencies that make some |n_init> <-> |m> term static.

    A term beating at omega_{m,n} - s_total*omega is resonant when
    omega = omega_{m,n}/s_total and that value is positive; harmonics whose
    time sign opposes the level splitting produce no resonance, which is why
    a given beam addresses only one member of a degenerate +/-n pair.
    """
    _check_truncation(n_init, n_init, n_max)
    found: dict = {}

    def _consider(delta: int, s_total: int, order: int, source: str):
        if delta == 0 or s_total == 0:
            return
        m = n_init + delta
        if abs(m) > n_max:
            return
        omega_mn = transition_angular_frequency(m, n_init, params)
        omega_req = omega_mn / s_total
        if omega_req <= 0.0:
            return
        found.setdefault((m, order, omega_req), source)

    for term in drive.terms:
        _consider(term.winding, term.time_sign, 1, f"k={term.winding:+d}")
    for t1 in drive.terms:
        for t2 in drive.terms:
            _consider(t1.winding + t2.winding, t1.time_sign + t2.time_sign, 2,
                      f"k={t1.winding:+d},{t2.winding:+d}")

    entries = [
        TransitionCatalogEntry(initial=n_init, final=m, required_omega=w,
                               order=order, source=src)
        for (m, order, w), src in found.items()
    ]
    entries.sort(key=lambda e: (e.final, e.order, e.required_omega))
    return entries


def rabi_frequency(params: RingParams, a0_magnitude: float) -> float:
    """On-resonance Rabi rate (N* q* / (r m*)) (L_K/L_T) |A0|, in rad/s.

    Equals twice the order-1 coupling magnitude divided by hbar.
    """
    if a0_magnitude < 0.0:
        raise ValueError("a0_magnitude must be non-negative")
    return (params.n_pairs * COOPER_CHARGE
            / (params.design.radius * COOPER_MASS)
            * (params.L_K / params.L_T) * a0_magnitude)
