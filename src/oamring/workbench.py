"""Resolve a design config into model objects and the feasibility report."""

import math
from dataclasses import dataclass
from typing import List, Optional

from .beam import (POLARIZATIONS, BeamDrive, IntensityConvention,
                   amplitude_from_intensity)
from .config import DesignConfig
from .constants import SPEED_OF_LIGHT
from .coupling import rabi_frequency
from .errors import ValidationError
from .ring import (RingParams, derive_ring_params, level_energy,
                   level_supercurrent, transition_angular_frequency)
from .twoqubit import (TwoRingConfig, _far_field_mutual, cz_gate_time,
                       interaction_energy)

@dataclass(frozen=True)
class ResolvedModel:
    """Everything the commands need, derived once from a config."""

    config: DesignConfig
    params: RingParams
    omega_resonance: float     # 0 -> 2 transition, rad/s
    omega_drive: float         # resonance + detuning
    a0_magnitude: float
    drive: BeamDrive
    two_ring: Optional[TwoRingConfig]


def resolve(config: DesignConfig) -> ResolvedModel:
    """Derive ring parameters and the beam drive from a validated config."""
    params = derive_ring_params(
        config.design, config.material,
        rule=config.conventions.effective_radius_rule,
        wire_radius=config.conventions.explicit_radius)
    omega_res = transition_angular_frequency(2, 0, params)
    omega = omega_res + config.beam.detuning
    if not omega > 0.0:
        raise ValidationError(
            "beam.detuning",
            f"omega_20 + detuning must be positive, got {omega!r} rad/s")
    if config.beam.intensity is not None:
        a0_mag = amplitude_from_intensity(
            config.beam.intensity, omega,
            IntensityConvention(config.conventions.intensity_convention))
    else:
        a0_mag = config.beam.amplitude
    drive = BeamDrive(
        oam_index=config.beam.oam_index,
        omega=omega,
        a0=a0_mag * complex(math.cos(config.beam.phase),
                            math.sin(config.beam.phase)),
        polarization=POLARIZATIONS[config.beam.polarization]())
    two_ring = None
    if config.two_qubit_separation is not None:
        # no far-field warning here: the report's dipole_formula_range check
        # states the same condition
        separation = config.two_qubit_separation
        two_ring = TwoRingConfig(
            params_a=params, params_b=params, separation=separation,
            mutual=_far_field_mutual(params.design.radius, separation))
    return ResolvedModel(config=config, params=params,
                         omega_resonance=omega_res, omega_drive=omega,
                         a0_magnitude=a0_mag, drive=drive, two_ring=two_ring)


@dataclass(frozen=True)
class Quantity:
    name: str
    value: float
    unit: str


@dataclass(frozen=True)
class Check:
    name: str
    status: str        # pass | marginal | fail
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    quantities: List[Quantity]
    checks: List[Check]
    conventions: List[str]


def _penetration_status(skin_depth: float, depth: float) -> str:
    if skin_depth >= depth:
        return "pass"
    if skin_depth >= 0.5 * depth:
        return "marginal"
    return "fail"


def build_feasibility_report(model: ResolvedModel) -> FeasibilityReport:
    """Derived design numbers plus the optical/geometric constraint checks."""
    cfg = model.config
    params = model.params
    wavelength = 2.0 * math.pi * SPEED_OF_LIGHT / model.omega_resonance
    rabi = rabi_frequency(params, model.a0_magnitude)

    quantities = [
        Quantity("L_S", params.L_S * 1e12, "pH"),
        Quantity("L_K", params.L_K * 1e12, "pH"),
        Quantity("L_T", params.L_T * 1e12, "pH"),
        Quantity("N_pairs", params.n_pairs, "1"),
        Quantity("omega_20", model.omega_resonance, "rad/s"),
        Quantity("f_20", model.omega_resonance / (2.0 * math.pi * 1e9), "GHz"),
        Quantity("wavelength_20", wavelength * 1e9, "nm"),
        Quantity("A0", model.a0_magnitude, "kg*m/(s^2*A)"),
        Quantity("rabi_Omega", rabi, "rad/s"),
        Quantity("rabi_Omega_cyclic", rabi / (2.0 * math.pi * 1e9), "GHz"),
    ]
    if model.two_ring is not None:
        h22 = interaction_energy(2, 2, model.two_ring)
        quantities += [
            Quantity("mutual_inductance", model.two_ring.mutual * 1e12, "pH"),
            Quantity("H_int_22", h22, "J"),
            Quantity("t_CZ", cz_gate_time(model.two_ring) * 1e9, "ns"),
        ]
    for n in range(-4, 5):
        quantities.append(Quantity(f"E_{n}", level_energy(n, params), "J"))
    for n in range(-4, 5):
        quantities.append(Quantity(f"I_{n}", level_supercurrent(n, params), "A"))

    w = cfg.design.width
    d = cfg.design.depth
    lam_l = cfg.material.london_depth
    skin = cfg.material.skin_depth
    checks = [
        Check("thin_wire_width",
              "pass" if 0.5 * w < lam_l else "fail",
              f"w/2 = {0.5 * w * 1e9:.6g} nm vs lambda_L = {lam_l * 1e9:.6g} nm"),
        Check("thin_wire_depth",
              "pass" if 0.5 * d < lam_l else "fail",
              f"d/2 = {0.5 * d * 1e9:.6g} nm vs lambda_L = {lam_l * 1e9:.6g} nm"),
        Check("optical_penetration",
              _penetration_status(skin, d),
              f"skin depth = {skin * 1e9:.6g} nm vs d = {d * 1e9:.6g} nm"),
        Check("subwavelength_depth",
              "pass" if d < wavelength / 20.0 else "fail",
              f"d = {d * 1e9:.6g} nm vs lambda/20 = {wavelength / 20.0 * 1e9:.6g} nm"),
    ]
    if cfg.two_qubit_separation is not None:
        d_r = cfg.two_qubit_separation
        r = cfg.design.radius
        checks.append(Check(
            "dipole_formula_range",
            "pass" if d_r >= 10.0 * r else "fail",
            f"d_R = {d_r * 1e6:.6g} um vs 10 r = {10.0 * r * 1e6:.6g} um"))

    conventions = [
        f"intensity -> amplitude: {cfg.conventions.intensity_convention} "
        "(|A0| = sqrt(2 I / (c eps0 omega^2)); peak-field is half that)",
        "Rabi convention: Omega of the one-photon resonance is an angular "
        "frequency; GHz figures are cyclic (Omega / 2 pi) with the angular "
        "value printed alongside",
        f"effective wire radius rule: {cfg.conventions.effective_radius_rule}",
    ]
    return FeasibilityReport(quantities=quantities, checks=checks,
                             conventions=conventions)
