"""Design-config files: INI sections with unit-suffixed quantities.

The workbench is driven by one structured-text file (see
``docs/config-schema.md`` and the bundled ``paper-design`` config).  Values
are either bare numbers in SI base units or ``<number> <unit>`` strings with
a short whitelist of units per quantity kind.  Everything is converted to SI
on load; unknown sections or keys are rejected.
"""

import configparser
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Optional

from .errors import MissingSection, ParseError, UnknownKey, ValidationError
from .ring import Material, RingDesign

_LENGTH_UNITS = {
    "m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12,
}
_TIME_UNITS = {
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12,
    "fs": 1e-15,
}
_INTENSITY_UNITS = {
    "W/m^2": 1.0, "mW/m^2": 1e-3,
    "W/cm^2": 1e4, "mW/cm^2": 1e1, "uW/cm^2": 1e-2,
}
_DENSITY_UNITS = {
    "/m^3": 1.0, "1/m^3": 1.0, "m^-3": 1.0,
    "/cm^3": 1e6, "1/cm^3": 1e6, "cm^-3": 1e6,
}
# cyclic-frequency units carry the 2*pi into rad/s
_ANGULAR_FREQUENCY_UNITS = {
    "rad/s": 1.0,
    "Hz": 2.0 * math.pi, "kHz": 2.0 * math.pi * 1e3, "MHz": 2.0 * math.pi * 1e6,
    "GHz": 2.0 * math.pi * 1e9, "THz": 2.0 * math.pi * 1e12,
}
_AMPLITUDE_UNITS = {"kg*m/(s^2*A)": 1.0, "Wb/m": 1.0, "T*m": 1.0}
_PHASE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}
_DIMENSIONLESS: Dict[str, float] = {}

POLARIZATIONS = ("linear-x", "linear-y", "right-circular", "left-circular")
MODES = ("full", "rwa")
INTENSITY_CONVENTIONS = ("paper-consistent", "peak-field")
RADIUS_RULES = ("rosa", "half-mean", "explicit")


def parse_quantity(raw: str, units: Dict[str, float], field: str) -> float:
    """Parse ``"<number> [unit]"``; bare numbers are SI base units."""
    parts = raw.strip().split(None, 1)
    if not parts:
        raise ValidationError(field, "empty value")
    try:
        value = float(parts[0])
    except ValueError:
        raise ValidationError(field, f"not a number: {parts[0]!r}") from None
    if not math.isfinite(value):
        raise ValidationError(field, f"not a finite number: {parts[0]!r}")
    if len(parts) == 1:
        return value
    unit = parts[1].strip()
    if unit not in units:
        known = ", ".join(sorted(units)) or "none (dimensionless)"
        raise ValidationError(field, f"unknown unit {unit!r}; accepted: {known}")
    return value * units[unit]


@dataclass(frozen=True)
class BeamSettings:
    oam_index: int
    polarization: str
    intensity: Optional[float]     # W/m^2; exactly one of intensity/amplitude
    amplitude: Optional[float]     # |A0| in kg m/(s^2 A)
    phase: float                   # drive phase, arg(A0), rad
    detuning: float                # rad/s relative to the 0->2 resonance


@dataclass(frozen=True)
class SimulationSettings:
    t_final: float
    tol: float
    mode: str
    n_max: int


@dataclass(frozen=True)
class Conventions:
    intensity_convention: str
    effective_radius_rule: str
    explicit_radius: Optional[float]


@dataclass(frozen=True)
class DesignConfig:
    design: RingDesign
    material: Material
    beam: BeamSettings
    simulation: SimulationSettings
    conventions: Conventions
    two_qubit_separation: Optional[float]

    def require_two_qubit(self) -> float:
        if self.two_qubit_separation is None:
            raise MissingSection("config has no [two_qubit] section")
        return self.two_qubit_separation


_SCHEMA = {
    "ring": {"radius", "width", "depth"},
    "material": {"pair_density", "london_depth", "skin_depth"},
    "beam": {"oam_index", "polarization", "intensity", "amplitude", "phase",
             "detuning"},
    "two_qubit": {"ring_separation"},
    "simulation": {"t_final", "tol", "mode", "n_max"},
    "conventions": {"intensity_convention", "effective_radius_rule",
                    "explicit_radius"},
}
_REQUIRED_SECTIONS = ("ring", "material", "beam")

_SIM_DEFAULTS = {"t_final": 27e-12, "tol": 1e-9, "mode": "rwa", "n_max": 8}
_CONV_DEFAULTS = {"intensity_convention": "paper-consistent",
                  "effective_radius_rule": "rosa"}


def _positive(value: float, field: str) -> float:
    if not value > 0.0:
        raise ValidationError(field, f"must be positive, got {value}")
    return value


def _choice(value: str, allowed, field: str) -> str:
    value = value.strip().lower()
    if value not in allowed:
        raise ValidationError(field, f"must be one of {', '.join(allowed)}")
    return value


def _int_field(raw: str, field: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ValidationError(field, f"not an integer: {raw!r}") from None


def loads_config(text: str) -> DesignConfig:
    """Parse and validate a config from a string."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise UnknownKey(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise UnknownKey(f"unknown key {section}.{key}")
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise MissingSection(f"config has no [{section}] section")

    def get(section, key):
        if not parser.has_section(section) or not parser.has_option(section, key):
            return None
        return parser.get(section, key)

    def quantity(section, key, units, default=None):
        raw = get(section, key)
        if raw is None:
            if default is None:
                raise ValidationError(f"{section}.{key}", "required key missing")
            return default
        return parse_quantity(raw, units, f"{section}.{key}")

    ring = {key: _positive(quantity("ring", key, _LENGTH_UNITS), f"ring.{key}")
            for key in ("radius", "width", "depth")}
    separation = (
        _positive(quantity("two_qubit", "ring_separation", _LENGTH_UNITS),
                  "two_qubit.ring_separation")
        if parser.has_section("two_qubit") else None)
    try:
        design = RingDesign(**ring)
    except ValueError as exc:
        raise ValidationError("ring", str(exc)) from exc

    try:
        material = Material(
            pair_density=_positive(
                quantity("material", "pair_density", _DENSITY_UNITS),
                "material.pair_density"),
            london_depth=_positive(
                quantity("material", "london_depth", _LENGTH_UNITS),
                "material.london_depth"),
            skin_depth=_positive(
                quantity("material", "skin_depth", _LENGTH_UNITS),
                "material.skin_depth"),
        )
    except ValueError as exc:
        raise ValidationError("material", str(exc)) from exc

    raw_l = get("beam", "oam_index")
    if raw_l is None:
        raise ValidationError("beam.oam_index", "required key missing")
    intensity = (quantity("beam", "intensity", _INTENSITY_UNITS)
                 if get("beam", "intensity") is not None else None)
    amplitude = (quantity("beam", "amplitude", _AMPLITUDE_UNITS)
                 if get("beam", "amplitude") is not None else None)
    if (intensity is None) == (amplitude is None):
        raise ValidationError(
            "beam", "exactly one of 'intensity' or 'amplitude' must be set")
    if intensity is not None and intensity < 0.0:
        raise ValidationError("beam.intensity", "must be non-negative")
    if amplitude is not None and amplitude < 0.0:
        raise ValidationError("beam.amplitude", "must be non-negative")
    beam = BeamSettings(
        oam_index=_int_field(raw_l, "beam.oam_index"),
        polarization=_choice(get("beam", "polarization") or "linear-x",
                             POLARIZATIONS, "beam.polarization"),
        intensity=intensity,
        amplitude=amplitude,
        phase=quantity("beam", "phase", _PHASE_UNITS, default=0.0),
        detuning=quantity("beam", "detuning", _ANGULAR_FREQUENCY_UNITS,
                          default=0.0),
    )

    sim = SimulationSettings(
        t_final=_positive(quantity("simulation", "t_final", _TIME_UNITS,
                                   default=_SIM_DEFAULTS["t_final"]),
                          "simulation.t_final"),
        tol=quantity("simulation", "tol", _DIMENSIONLESS,
                     default=_SIM_DEFAULTS["tol"]),
        mode=_choice(get("simulation", "mode") or _SIM_DEFAULTS["mode"], MODES,
                     "simulation.mode"),
        n_max=_int_field(get("simulation", "n_max") or str(_SIM_DEFAULTS["n_max"]),
                         "simulation.n_max"),
    )
    if not 1e-13 <= sim.tol <= 1e-6:
        raise ValidationError("simulation.tol", "must lie in [1e-13, 1e-6]")
    if sim.n_max < 1 or sim.n_max > 64:
        raise ValidationError("simulation.n_max", "must lie in [1, 64]")

    conv = Conventions(
        intensity_convention=_choice(
            get("conventions", "intensity_convention")
            or _CONV_DEFAULTS["intensity_convention"],
            INTENSITY_CONVENTIONS, "conventions.intensity_convention"),
        effective_radius_rule=_choice(
            get("conventions", "effective_radius_rule")
            or _CONV_DEFAULTS["effective_radius_rule"],
            RADIUS_RULES, "conventions.effective_radius_rule"),
        explicit_radius=(
            _positive(quantity("conventions", "explicit_radius", _LENGTH_UNITS),
                      "conventions.explicit_radius")
            if get("conventions", "explicit_radius") is not None else None),
    )
    if conv.effective_radius_rule == "explicit" and conv.explicit_radius is None:
        raise ValidationError("conventions.explicit_radius",
                              "required when effective_radius_rule = explicit")

    return DesignConfig(
        design=design, material=material, beam=beam, simulation=sim,
        conventions=conv, two_qubit_separation=separation)


def load_config(path: str) -> DesignConfig:
    """Load and validate a config file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    return loads_config(text)


def load_bundled_config(name: str = "paper-design") -> DesignConfig:
    """Load one of the configs shipped with the package."""
    text = resources.files("oamring.data").joinpath(f"{name}.cfg").read_text(
        encoding="utf-8")
    return loads_config(text)


def dumps_config(config: DesignConfig) -> str:
    """Serialize a resolved config (all SI base units, full precision)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["ring"] = {
        "radius": repr(config.design.radius),
        "width": repr(config.design.width),
        "depth": repr(config.design.depth),
    }
    parser["material"] = {
        "pair_density": repr(config.material.pair_density),
        "london_depth": repr(config.material.london_depth),
        "skin_depth": repr(config.material.skin_depth),
    }
    beam = {
        "oam_index": str(config.beam.oam_index),
        "polarization": config.beam.polarization,
        "phase": repr(config.beam.phase),
        "detuning": repr(config.beam.detuning),
    }
    if config.beam.intensity is not None:
        beam["intensity"] = repr(config.beam.intensity)
    else:
        beam["amplitude"] = repr(config.beam.amplitude)
    parser["beam"] = beam
    if config.two_qubit_separation is not None:
        parser["two_qubit"] = {
            "ring_separation": repr(config.two_qubit_separation)}
    parser["simulation"] = {
        "t_final": repr(config.simulation.t_final),
        "tol": repr(config.simulation.tol),
        "mode": config.simulation.mode,
        "n_max": str(config.simulation.n_max),
    }
    conventions = {
        "intensity_convention": config.conventions.intensity_convention,
        "effective_radius_rule": config.conventions.effective_radius_rule,
    }
    if config.conventions.explicit_radius is not None:
        conventions["explicit_radius"] = repr(config.conventions.explicit_radius)
    parser["conventions"] = conventions

    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
