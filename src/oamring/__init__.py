"""Simulation workbench for a junction-free superconducting ring qubit
controlled by the orbital angular momentum of light."""

from .ring import (DEFAULT_N_MAX, EffectiveRadiusRule, Material, RingDesign,
                   RingParams, derive_ring_params, kinetic_inductance,
                   level_energy, level_supercurrent, ring_wavefunction,
                   self_inductance, transition_angular_frequency)
from .beam import (BeamDrive, HarmonicDrive, HarmonicTerm, IntensityConvention,
                   Polarization, amplitude_from_intensity, azimuthal_component,
                   evaluate_A_phi)
from .coupling import (MatrixElementTerm, TransitionCatalogEntry,
                       matrix_element_quadrature_oracle, matrix_element_terms,
                       rabi_frequency, resonance_catalog, selection_rules)
from .dynamics import (StateVector, Trajectory, density_profile, dipole_moment,
                       evolve, pattern_rotation_check)
from .twoqubit import (TwoQubitState, TwoRingConfig, controlled_phase,
                       cz_fidelity, cz_gate_time, evolve_two_qubit,
                       interaction_energy, mutual_inductance_coaxial)
from .config import DesignConfig, load_bundled_config, load_config
from .workbench import build_feasibility_report, resolve

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_N_MAX", "EffectiveRadiusRule", "Material", "RingDesign",
    "RingParams", "derive_ring_params", "kinetic_inductance", "level_energy",
    "level_supercurrent", "ring_wavefunction", "self_inductance",
    "transition_angular_frequency",
    "BeamDrive", "HarmonicDrive", "HarmonicTerm", "IntensityConvention",
    "Polarization", "amplitude_from_intensity", "azimuthal_component",
    "evaluate_A_phi",
    "MatrixElementTerm", "TransitionCatalogEntry",
    "matrix_element_quadrature_oracle", "matrix_element_terms",
    "rabi_frequency", "resonance_catalog", "selection_rules",
    "StateVector", "Trajectory", "density_profile", "dipole_moment", "evolve",
    "pattern_rotation_check",
    "TwoQubitState", "TwoRingConfig", "controlled_phase", "cz_fidelity",
    "cz_gate_time", "evolve_two_qubit", "interaction_energy",
    "mutual_inductance_coaxial",
    "DesignConfig", "load_bundled_config", "load_config",
    "build_feasibility_report", "resolve",
    "__version__",
]
