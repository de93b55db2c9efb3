"""Simulation workbench for a junction-free superconducting ring qubit
controlled by the orbital angular momentum of light.

The scalar model (ring, beam, coupling, two-ring coupling, config and the
feasibility report) is imported with the package.  The names that compute
arrays, and with them numpy, load on first use (PEP 562).
"""

from importlib import import_module as _import_module

from .ring import (DEFAULT_N_MAX, EffectiveRadiusRule, Material, RingDesign,
                   RingParams, derive_ring_params, kinetic_inductance,
                   level_energy, level_supercurrent, self_inductance,
                   transition_angular_frequency)
from .beam import (BeamDrive, HarmonicDrive, HarmonicTerm, IntensityConvention,
                   Polarization, amplitude_from_intensity, azimuthal_component)
from .coupling import (MatrixElementTerm, TransitionCatalogEntry,
                       matrix_element_terms, rabi_frequency, resonance_catalog,
                       selection_rules)
from .twoqubit import (TwoRingConfig, controlled_phase, cz_fidelity,
                       cz_gate_time, interaction_energy,
                       mutual_inductance_coaxial)
from .config import DesignConfig, load_bundled_config, load_config
from .workbench import build_feasibility_report, resolve

__version__ = "0.1.0"

# array names -> the submodule that defines them
_LAZY = {
    **dict.fromkeys(("ring_wavefunction", "evaluate_A_phi",
                     "matrix_element_quadrature_oracle"), "fields"),
    **dict.fromkeys(("StateVector", "Trajectory", "density_profile",
                     "dipole_moment", "evolve", "pattern_rotation_check"),
                    "dynamics"),
    **dict.fromkeys(("TwoQubitState", "evolve_two_qubit"), "czgate"),
}
_SUBMODULES = ("_kernels", "czgate", "dynamics", "fields")

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


def __getattr__(name):
    """Import an array name's submodule, or an array submodule, on first use."""
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    # what the package offers, loaded or not, without the helpers above
    offered = (name for name in globals()
               if name.startswith("__") or not name.startswith("_"))
    return sorted({*offered, *_LAZY, *_SUBMODULES})
