"""Magnetic coupling of two rings and the controlled-Z gate.

Each winding state carries a circulating supercurrent I_n = n Phi_0 / L_T,
so two coaxial rings couple through their mutual inductance with the Ising
energy  H = M * n_a * n_b * (Phi_0/L_T,a) * (Phi_0/L_T,b).  The interaction
is diagonal in the winding basis: free evolution only accumulates phases,
and waiting for the |2,2> phase to reach pi implements a controlled-Z.
Everything here is scalar arithmetic: the gate time, the accumulated
phase and the CZ fidelity need no arrays.  The fidelity takes cos and sin
of the exact phase H(2,2) t / hbar, formed and reduced in ``decimal``, so
each is rounded once to a float however many turns the phase has made.
The gate acting on two-ring states as arrays (``TwoQubitState``,
``phase_vector``, ``entangling_phase``, ``evolve_two_qubit``) lives in
``czgate``, which serves as this module's test oracle.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .constants import FLUX_QUANTUM, HBAR, VACUUM_PERMEABILITY
from .ring import RingParams


def mutual_inductance_coaxial(radius: float, separation: float) -> float:
    """Far-field mutual inductance mu0 pi r^4 / (2 d^3) of coaxial loops.

    Emits a warning when separation < 10 * radius, where the dipole
    approximation behind the formula degrades.
    """
    mutual = _far_field_mutual(radius, separation)
    if separation < 10.0 * radius:
        warnings.warn(
            "separation < 10 * radius: far-field dipole formula is inaccurate",
            stacklevel=2)
    return mutual


def _far_field_mutual(radius: float, separation: float) -> float:
    # mutual_inductance_coaxial without its warning, for workbench.resolve
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    return VACUUM_PERMEABILITY * math.pi * radius ** 4 / (2.0 * separation ** 3)


@dataclass(frozen=True)
class TwoRingConfig:
    """Two coupled rings: their electrical models, spacing and mutual M.

    ``coupling_on`` models an ideal coupling switch; the hardware that would
    implement it is out of scope here.
    """

    params_a: RingParams
    params_b: RingParams
    separation: float
    mutual: float
    coupling_on: bool = True

    def __post_init__(self):
        if self.separation <= 0.0:
            raise ValueError("separation must be positive")
        if self.mutual <= 0.0:
            raise ValueError("mutual inductance must be positive")

    @classmethod
    def from_separation(cls, params: RingParams,
                        separation: float) -> "TwoRingConfig":
        """Two identical rings; M from the coaxial-loop formula."""
        mutual = mutual_inductance_coaxial(params.design.radius, separation)
        return cls(params_a=params, params_b=params, separation=separation,
                   mutual=mutual)


def interaction_energy(n_a: int, n_b: int, config: TwoRingConfig) -> float:
    """Ising energy M n_a n_b (Phi_0/L_T,a)(Phi_0/L_T,b), in J.

    Vanishes whenever either winding is zero or the coupling switch is off.
    """
    if not config.coupling_on:
        return 0.0
    return (config.mutual * n_a * n_b * (FLUX_QUANTUM / config.params_a.L_T)
            * (FLUX_QUANTUM / config.params_b.L_T))


def cz_gate_time(config: TwoRingConfig) -> float:
    """Interaction time pi hbar / H(2,2) that accumulates a pi phase on |2,2>.

    For identical rings this is pi hbar L_T^2 / (4 M Phi_0^2).
    """
    h22 = interaction_energy(2, 2, config)
    if h22 == 0.0:
        raise ValueError("coupling is off; no finite gate time")
    return math.pi * HBAR / h22


def controlled_phase(t: float, config: TwoRingConfig) -> float:
    """Accumulated controlled phase H(2,2) t / hbar, in rad."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    return interaction_energy(2, 2, config) * t / HBAR


def cz_fidelity(config: TwoRingConfig, t: float) -> float:
    """Overlap fidelity with an ideal CZ acting on the equal superposition.

    Uses the interaction-only gauge (single-ring phases echoed away), so the
    number reflects the entangling phase phi = H(2,2) t / hbar alone:
    |<target|psi(t)>|^2 = |3/4 - exp(-i phi)/4|^2.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    c, s = _cos_sin_of_phase(interaction_energy(2, 2, config), t)
    return abs(complex(0.75 - 0.25 * c, 0.25 * s)) ** 2


# decimal digits the reduced phase keeps after the point: cos and sin need
# 17 and a margin that keeps their one rounding to a float off a tie
_PHASE_DIGITS = 40


def _cos_sin_of_phase(energy: float, t: float) -> Tuple[float, float]:
    """cos and sin of energy * t / HBAR, each rounded once to a float.

    The phase is formed in decimal from the three floats as they are, with
    as many digits before the point as it has and _PHASE_DIGITS after it.
    A pi of as many digits reduces it by a multiple of pi/2 to |r| <= pi/4,
    where the Taylor series of cos and sin converge fast.
    """
    from decimal import Decimal, localcontext   # only czgate pays its import
    with localcontext() as ctx:
        energy, t, hbar = Decimal(energy), Decimal(t), Decimal(HBAR)
        ctx.prec = _PHASE_DIGITS + max(
            energy.adjusted() + t.adjusted() + 1 - hbar.adjusted(), 0)
        phase = energy * t / hbar
        half_pi = _pi(ctx.prec) / 2
        quarter = (phase / half_pi).to_integral_value()
        r = phase - quarter * half_pi
        cos_r, sin_r = _taylor(Decimal(1), r * r, 0), _taylor(r, r * r, 1)
        c, s = ((cos_r, sin_r), (-sin_r, cos_r), (-cos_r, -sin_r),
                (sin_r, -cos_r))[int(quarter) % 4]
        return float(c), float(s)


def _taylor(term, r2, k):
    """term - term r2/((k+1)(k+2)) + ... to the context's precision.

    (1, r^2, 0) gives cos r and (r, r^2, 1) gives sin r.
    """
    total, last = term, None
    while total != last:
        last = total
        term = -term * r2 / ((k + 1) * (k + 2))
        k += 2
        total += term
    return total


@lru_cache(maxsize=None)
def _pi(digits: int):
    """pi to ``digits`` significant digits (the series of the decimal docs)."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = digits + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = digits
        return +s
