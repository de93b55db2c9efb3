"""Magnetic coupling of two rings and the controlled-Z gate.

Each winding state carries a circulating supercurrent I_n = n Phi_0 / L_T,
so two coaxial rings couple through their mutual inductance with the Ising
energy  H = M * n_a * n_b * (Phi_0/L_T,a) * (Phi_0/L_T,b).  The interaction
is diagonal in the winding basis: free evolution only accumulates phases,
and waiting for the |2,2> phase to reach pi implements a controlled-Z.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import FLUX_QUANTUM, HBAR, VACUUM_PERMEABILITY
from .ring import RingParams, level_energy

QUBIT_LEVELS = (0, 2)
BASIS = ((0, 0), (0, 2), (2, 0), (2, 2))


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


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Amplitudes over the qubit basis (n_a, n_b) in {0,2} x {0,2}.

    Basis order: |00>, |02>, |20>, |22>.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("need exactly 4 amplitudes")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: norm^2 = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def equal_superposition(cls) -> "TwoQubitState":
        return cls(np.full(4, 0.5, dtype=complex))

    def schmidt_coefficients(self) -> np.ndarray:
        """Singular values of the 2x2 amplitude matrix (descending)."""
        return np.linalg.svd(self.amplitudes.reshape(2, 2), compute_uv=False)


def phase_vector(config: TwoRingConfig, t: float,
                 include_self_energy: bool = True) -> np.ndarray:
    """Accumulated phases (in rad) of the four basis states after time t.

    With ``include_self_energy`` the single-ring energies E_n contribute on
    top of the interaction; those parts are pure local-Z gauge and drop out
    of the entangling combination phi_00 - phi_02 - phi_20 + phi_22.
    Returned at extended precision: the self-energy phases reach ~1e6 rad
    over a gate time, and the gauge reduction must cancel them far below a
    radian.
    """
    ld = np.longdouble
    phases = np.empty(4, dtype=ld)
    for i, (n_a, n_b) in enumerate(BASIS):
        energy = ld(interaction_energy(n_a, n_b, config))
        if include_self_energy:
            energy += (ld(level_energy(n_a, config.params_a))
                       + ld(level_energy(n_b, config.params_b)))
        phases[i] = energy * ld(t) / ld(HBAR)
    return phases


def entangling_phase(config: TwoRingConfig, t: float) -> float:
    """Local-gauge-invariant combination phi_00 - phi_02 - phi_20 + phi_22."""
    p = phase_vector(config, t, include_self_energy=True)
    return float(p[0] - p[1] - p[2] + p[3])


def evolve_two_qubit(initial: TwoQubitState, config: TwoRingConfig, t: float,
                     include_self_energy: bool = True) -> TwoQubitState:
    """Apply the diagonal phases exp(-i phi) accumulated over time t.

    Never mixes basis amplitudes; magnitudes are constant in time.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    phases = phase_vector(config, t, include_self_energy)
    factors = np.exp(-1j * phases).astype(np.complex128)
    return TwoQubitState(initial.amplitudes * factors)


def cz_fidelity(config: TwoRingConfig, t: float) -> float:
    """Overlap fidelity with an ideal CZ acting on the equal superposition.

    Uses the interaction-only gauge (single-ring phases echoed away), so the
    number reflects the entangling phase alone.
    """
    psi0 = TwoQubitState.equal_superposition()
    evolved = evolve_two_qubit(psi0, config, t, include_self_energy=False)
    target = psi0.amplitudes * np.array([1.0, 1.0, 1.0, -1.0])
    overlap = np.vdot(target, evolved.amplitudes)
    return float(abs(overlap) ** 2)
