"""The controlled-Z gate acting on two-ring states, as arrays.

``twoqubit`` gives the Ising coupling of two rings, the gate time and the
CZ fidelity with scalar arithmetic.  Here the diagonal phases it
accumulates act on amplitudes over the qubit basis: each basis state picks
up its own phase, and the local-gauge-invariant combination of the four is
the entangling phase.  The phases are kept at extended precision, because
the single-ring energies wind through about 1e6 rad over one gate time.
The overlap of an evolved state with an ideal CZ's is the array form of
``twoqubit.cz_fidelity``, and the tests use it as that function's oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .ring import level_energy
from .twoqubit import TwoRingConfig, interaction_energy

QUBIT_LEVELS = (0, 2)
BASIS = ((0, 0), (0, 2), (2, 0), (2, 2))


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

