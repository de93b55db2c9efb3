"""Magnetic coupling of two rings and the controlled-Z gate.

Each winding state carries a circulating supercurrent I_n = n Phi_0 / L_T,
so two coaxial rings couple through their mutual inductance with the Ising
energy  H = M * n_a * n_b * (Phi_0/L_T,a) * (Phi_0/L_T,b).  The interaction
is diagonal in the winding basis: free evolution only accumulates phases,
and waiting for the |2,2> phase to reach pi implements a controlled-Z.
Everything here is scalar arithmetic: the gate time and the accumulated
phase need no arrays.  The gate acting on two-ring states
(``TwoQubitState``, ``phase_vector``, ``entangling_phase``,
``evolve_two_qubit``, ``cz_fidelity``) lives in ``czgate``.
"""

import math
import warnings
from dataclasses import dataclass

from .constants import FLUX_QUANTUM, HBAR, VACUUM_PERMEABILITY
from .ring import RingParams


def mutual_inductance_coaxial(radius: float, separation: float) -> float:
    """Far-field mutual inductance mu0 pi r^4 / (2 d^3) of coaxial loops.

    Emits a warning when separation < 10 * radius, where the dipole
    approximation behind the formula degrades.
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    if separation < 10.0 * radius:
        warnings.warn(
            "separation < 10 * radius: far-field dipole formula is inaccurate",
            stacklevel=2)
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
