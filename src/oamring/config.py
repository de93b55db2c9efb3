"""Design-config files: INI sections with unit-suffixed quantities.

The workbench is driven by one structured-text file (see
``docs/config-schema.md`` and the bundled ``paper-design`` config).  Values
are either bare numbers in SI base units or ``<number> <unit>`` strings with
a short whitelist of units per quantity kind.  Everything is converted to SI
on load; unknown sections or keys are rejected.  Every key is read by
``_read`` as its ``_KEYS`` entry says (a quantity with a sign rule, a choice
or an integer); only the rules on a range or on more than one key are
written out in ``loads_config``.
"""

import configparser
import io
import math
import pkgutil
from typing import Dict, NamedTuple, Optional

from .beam import POLARIZATIONS, IntensityConvention
from .errors import MissingSection, ParseError, UnknownKey, ValidationError
from .ring import DEFAULT_N_MAX, EffectiveRadiusRule, Material, RingDesign

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

N_MAX_RANGE = (1, 64)
# [simulation] modes, tol range and default, and the default sample count of
# a run; ``dynamics`` and the CLI read them from here
MODES = ("full", "rwa")
TOL_RANGE = (1e-13, 1e-6)
DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 201


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


class BeamSettings(NamedTuple):
    oam_index: int
    polarization: str = "linear-x"
    phase: float = 0.0                  # drive phase, arg(A0), rad
    detuning: float = 0.0               # rad/s relative to the 0->2 resonance
    intensity: Optional[float] = None   # W/m^2; exactly one of intensity/amplitude
    amplitude: Optional[float] = None   # |A0| in kg m/(s^2 A)


class SimulationSettings(NamedTuple):
    t_final: float = 27e-12
    tol: float = DEFAULT_TOL
    mode: str = "rwa"
    n_max: int = DEFAULT_N_MAX


class Conventions(NamedTuple):
    intensity_convention: str = IntensityConvention.PAPER_CONSISTENT.value
    effective_radius_rule: str = EffectiveRadiusRule.ROSA.value
    explicit_radius: Optional[float] = None


class DesignConfig(NamedTuple):
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


# INI sections in file order, each with the DesignConfig field it fills.  The
# keys of a section are the fields of that field's record type, and a key is
# optional when its field has a default.  [two_qubit] is the one exception:
# its single required key fills the float two_qubit_separation.
_SECTIONS = {"ring": "design", "material": "material", "beam": "beam",
             "two_qubit": "two_qubit_separation", "simulation": "simulation",
             "conventions": "conventions"}
_SEPARATION_KEY = "ring_separation"
_FIELD_TYPES = DesignConfig.__annotations__
_REQUIRED = object()
# section -> {key: default, or _REQUIRED for a required key}
_SCHEMA = {
    section: ({_SEPARATION_KEY: _REQUIRED} if section == "two_qubit" else
              {key: _FIELD_TYPES[attr]._field_defaults.get(key, _REQUIRED)
               for key in _FIELD_TYPES[attr]._fields})
    for section, attr in _SECTIONS.items()}
_REQUIRED_SECTIONS = ("ring", "material", "beam")
# key -> (how its text is read, sign rule).  A unit table reads a quantity,
# whose sign rule is "positive", "non-negative" or None (signed); a tuple of
# names reads a choice; int reads an integer.
_KEYS = {
    "radius": (_LENGTH_UNITS, "positive"),
    "width": (_LENGTH_UNITS, "positive"),
    "depth": (_LENGTH_UNITS, "positive"),
    "pair_density": (_DENSITY_UNITS, "positive"),
    "london_depth": (_LENGTH_UNITS, "positive"),
    "skin_depth": (_LENGTH_UNITS, "positive"),
    "oam_index": (int, None),
    "polarization": (tuple(POLARIZATIONS), None),
    "phase": (_PHASE_UNITS, None),
    "detuning": (_ANGULAR_FREQUENCY_UNITS, None),
    "intensity": (_INTENSITY_UNITS, "non-negative"),
    "amplitude": (_AMPLITUDE_UNITS, "non-negative"),
    _SEPARATION_KEY: (_LENGTH_UNITS, "positive"),
    "t_final": (_TIME_UNITS, "positive"),
    "tol": (_DIMENSIONLESS, None),
    "mode": (MODES, None),
    "n_max": (int, None),
    "intensity_convention": (tuple(c.value for c in IntensityConvention), None),
    "effective_radius_rule": (tuple(r.value for r in EffectiveRadiusRule), None),
    "explicit_radius": (_LENGTH_UNITS, "positive"),
}


def _read(parser, section: str, key: str):
    """One key's value (SI for a quantity), or its default when absent."""
    field = f"{section}.{key}"
    if not parser.has_option(section, key):
        if _SCHEMA[section][key] is _REQUIRED:
            raise ValidationError(field, "required key missing")
        return _SCHEMA[section][key]
    raw = parser.get(section, key)
    if not raw.strip():
        raise ValidationError(field, "empty value")
    kind, sign = _KEYS[key]
    if kind is int:
        try:
            return int(raw.strip())
        except ValueError:
            raise ValidationError(field, f"not an integer: {raw!r}") from None
    if isinstance(kind, tuple):
        value = raw.strip().lower()
        if value not in kind:
            raise ValidationError(field, f"must be one of {', '.join(kind)}")
        return value
    value = parse_quantity(raw, kind, field)
    if sign == "positive" and not value > 0.0:
        raise ValidationError(field, f"must be positive, got {value}")
    if sign == "non-negative" and value < 0.0:
        raise ValidationError(field, "must be non-negative")
    return value


def loads_config(text: str) -> DesignConfig:
    """Parse and validate a config from a string.

    Keys are read in section-then-key order of ``_SCHEMA``, so the first
    error reported is that of the first bad key; the rules on a range or on
    more than one key are checked after every key has been read.
    """
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

    settings = {}
    for section, attr in _SECTIONS.items():
        if section == "two_qubit":
            settings[attr] = (_read(parser, section, _SEPARATION_KEY)
                              if parser.has_section(section) else None)
            continue
        values = {key: _read(parser, section, key) for key in _SCHEMA[section]}
        try:
            settings[attr] = _FIELD_TYPES[attr](**values)
        except ValueError as exc:   # RingDesign and Material check themselves
            raise ValidationError(section, str(exc)) from exc
    config = DesignConfig(**settings)

    beam, sim, conv = config.beam, config.simulation, config.conventions
    if (beam.intensity is None) == (beam.amplitude is None):
        raise ValidationError(
            "beam", "exactly one of 'intensity' or 'amplitude' must be set")
    if not TOL_RANGE[0] <= sim.tol <= TOL_RANGE[1]:
        # the bounds as the docs write them: 1e-6, not 1e-06
        low, high = (f"{v:g}".replace("e-0", "e-") for v in TOL_RANGE)
        raise ValidationError("simulation.tol", f"must lie in [{low}, {high}]")
    if not N_MAX_RANGE[0] <= sim.n_max <= N_MAX_RANGE[1]:
        raise ValidationError("simulation.n_max",
                              "must lie in [{}, {}]".format(*N_MAX_RANGE))
    if (conv.effective_radius_rule == EffectiveRadiusRule.EXPLICIT.value
            and conv.explicit_radius is None):
        raise ValidationError("conventions.explicit_radius",
                              "required when effective_radius_rule = explicit")
    return config


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
    # pkgutil, not importlib.resources, which imports inspect from Python 3.12
    data = pkgutil.get_data(__package__, f"data/{name}.cfg")
    return loads_config(data.decode("utf-8"))


def dumps_config(config: DesignConfig) -> str:
    """Serialize a resolved config (all SI base units, full precision)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, attr in _SECTIONS.items():
        value = getattr(config, attr)
        items = (value._asdict() if isinstance(value, tuple)
                 else {_SEPARATION_KEY: value})
        written = {key: item if isinstance(item, str) else repr(item)
                   for key, item in items.items() if item is not None}
        if written:
            parser[section] = written

    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
