import configparser
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oamring import config as config_module
from oamring.beam import POLARIZATIONS, IntensityConvention
from oamring.config import (DEFAULT_TOL, MODES, N_MAX_RANGE, TOL_RANGE,
                            BeamSettings, Conventions, DesignConfig,
                            SimulationSettings, dumps_config,
                            load_bundled_config, load_config, loads_config,
                            parse_quantity)
from oamring.errors import (MissingSection, ParseError, UnknownKey,
                            ValidationError)
from oamring.ring import DEFAULT_N_MAX, EffectiveRadiusRule, Material, RingDesign

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config-schema.md"

GOOD = """
[ring]
radius = 2 um
width = 60 nm
depth = 10 nm

[material]
pair_density = 2.1e28 /m^3
london_depth = 50 nm
skin_depth = 7 nm

[beam]
oam_index = 1
polarization = linear-x
intensity = 6.6e-3 W/cm^2

[two_qubit]
ring_separation = 0.1 mm

[simulation]
t_final = 27 ps
tol = 1e-9
mode = rwa
n_max = 8

[conventions]
intensity_convention = paper-consistent
effective_radius_rule = rosa
"""


def test_bundled_paper_design():
    config = load_bundled_config()
    assert config.design.radius == pytest.approx(2e-6, rel=1e-15)
    assert config.design.width == pytest.approx(60e-9, rel=1e-15)
    assert config.design.depth == pytest.approx(10e-9, rel=1e-15)
    assert config.material.pair_density == pytest.approx(2.1e28, rel=1e-15)
    assert config.beam.oam_index == 1
    assert config.beam.polarization == "linear-x"
    assert config.beam.intensity == pytest.approx(66.0, rel=1e-15)
    assert config.two_qubit_separation == pytest.approx(1e-4, rel=1e-15)
    assert config.conventions.intensity_convention == "paper-consistent"


def test_unit_parsing():
    length = {"m": 1.0, "nm": 1e-9}
    assert parse_quantity("2.5", length, "x") == 2.5
    assert parse_quantity("60 nm", length, "x") == pytest.approx(6e-8, rel=1e-15)
    with pytest.raises(ValidationError, match="unknown unit"):
        parse_quantity("3 furlong", length, "x")
    with pytest.raises(ValidationError, match="not a number"):
        parse_quantity("sixty nm", length, "x")


def test_intensity_units_convert():
    config = loads_config(GOOD)
    assert config.beam.intensity == pytest.approx(66.0, rel=1e-15)


def test_detuning_accepts_cyclic_units():
    import math
    text = GOOD.replace("intensity = 6.6e-3 W/cm^2",
                        "intensity = 6.6e-3 W/cm^2\ndetuning = 1 GHz")
    config = loads_config(text)
    assert config.beam.detuning == pytest.approx(2 * math.pi * 1e9, rel=1e-15)


def test_negative_width_rejected():
    bad = GOOD.replace("width = 60 nm", "width = -1 nm")
    with pytest.raises(ValidationError, match="width"):
        loads_config(bad)


def test_unknown_key_rejected():
    bad = GOOD.replace("depth = 10 nm", "depth = 10 nm\ncolour = blue")
    with pytest.raises(UnknownKey, match="ring.colour"):
        loads_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(UnknownKey, match="cryostat"):
        loads_config(GOOD + "\n[cryostat]\ntemperature = 10\n")


def test_syntax_error_reports_line():
    with pytest.raises(ParseError, match="line"):
        loads_config(GOOD + "\norphan value without key\n")


def test_missing_required_section():
    bad = GOOD.replace("[material]", "[simulation2]")
    with pytest.raises((UnknownKey, MissingSection)):
        loads_config(bad)
    no_ring = "\n".join(line for line in GOOD.splitlines()
                        if not line.startswith(("[ring]", "radius", "width",
                                                "depth")))
    with pytest.raises(MissingSection, match="ring"):
        loads_config(no_ring)


def test_two_qubit_section_optional():
    text = GOOD.replace("[two_qubit]\nring_separation = 0.1 mm\n", "")
    config = loads_config(text)
    assert config.two_qubit_separation is None
    with pytest.raises(MissingSection, match="two_qubit"):
        config.require_two_qubit()


def test_intensity_and_amplitude_exclusive():
    both = GOOD.replace("intensity = 6.6e-3 W/cm^2",
                        "intensity = 6.6e-3 W/cm^2\namplitude = 8.6e-14")
    with pytest.raises(ValidationError, match="exactly one"):
        loads_config(both)
    neither = GOOD.replace("intensity = 6.6e-3 W/cm^2", "")
    with pytest.raises(ValidationError, match="exactly one"):
        loads_config(neither)


def test_amplitude_only_config():
    text = GOOD.replace("intensity = 6.6e-3 W/cm^2", "amplitude = 8.6e-14")
    config = loads_config(text)
    assert config.beam.intensity is None
    assert config.beam.amplitude == pytest.approx(8.6e-14, rel=1e-15)


def test_mode_and_convention_choices():
    with pytest.raises(ValidationError, match="mode"):
        loads_config(GOOD.replace("mode = rwa", "mode = floquet"))
    with pytest.raises(ValidationError, match="intensity_convention"):
        loads_config(GOOD.replace("paper-consistent", "mystery"))
    with pytest.raises(ValidationError, match="tol"):
        loads_config(GOOD.replace("tol = 1e-9", "tol = 1e-3"))


@pytest.mark.parametrize("section, key", [
    ("beam", "polarization"), ("simulation", "mode"), ("simulation", "tol"),
    ("simulation", "n_max"), ("conventions", "effective_radius_rule")])
def test_empty_value_rejected(section, key):
    # an empty value is an error; only an absent key takes the default
    text = re.sub(rf"^{key} = .*$", f"{key} =", GOOD, flags=re.MULTILINE)
    with pytest.raises(ValidationError, match="empty value") as info:
        loads_config(text)
    assert info.value.field == f"{section}.{key}"


def test_explicit_radius_rule_needs_radius():
    bad = GOOD.replace("effective_radius_rule = rosa",
                       "effective_radius_rule = explicit")
    with pytest.raises(ValidationError, match="explicit_radius"):
        loads_config(bad)
    good = GOOD.replace("effective_radius_rule = rosa",
                        "effective_radius_rule = explicit\n"
                        "explicit_radius = 14 nm")
    config = loads_config(good)
    assert config.conventions.explicit_radius == pytest.approx(1.4e-8,
                                                               rel=1e-15)


def test_defaults_when_sections_omitted():
    minimal = """
[ring]
radius = 2 um
width = 60 nm
depth = 10 nm

[material]
pair_density = 2.1e28 /m^3
london_depth = 50 nm
skin_depth = 7 nm

[beam]
oam_index = 1
polarization = linear-x
intensity = 6.6e-3 W/cm^2
"""
    config = loads_config(minimal)
    assert config.simulation.mode == "rwa"
    assert config.simulation.n_max == 8
    assert config.conventions.effective_radius_rule == "rosa"


def test_dump_load_round_trip(tmp_path):
    config = loads_config(GOOD)
    dumped = dumps_config(config)
    again = loads_config(dumped)
    assert again == config
    # and through the filesystem
    path = tmp_path / "resolved.cfg"
    path.write_text(dumped, encoding="utf-8")
    assert load_config(str(path)) == config


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))


def test_beam_phase_reaches_drive():
    import cmath
    from oamring.workbench import resolve
    text = GOOD.replace("polarization = linear-x",
                        "polarization = linear-x\nphase = 90 deg")
    model = resolve(loads_config(text))
    assert cmath.phase(model.drive.a0) == pytest.approx(cmath.pi / 2, rel=1e-12)
    assert abs(model.drive.a0) == pytest.approx(model.a0_magnitude, rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, unit", [("detuning", "rad/s"), ("phase", "rad"),
                                       ("intensity", "W/cm^2")])
def test_non_finite_numbers_rejected(key, unit, value):
    line = f"{key} = {value} {unit}"
    text = GOOD.replace("intensity = 6.6e-3 W/cm^2",
                        line if key == "intensity"
                        else f"intensity = 6.6e-3 W/cm^2\n{line}")
    with pytest.raises(ValidationError, match="finite") as info:
        loads_config(text)
    assert info.value.field == f"beam.{key}"


# -- property: dump then load is the identity over the whole config space --

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def ring_designs(draw):
    radius, width = draw(POSITIVE), draw(POSITIVE)
    assume(width < radius / 10.0)
    return RingDesign(radius=radius, width=width, depth=draw(POSITIVE))


@st.composite
def beam_settings(draw):
    level = draw(NON_NEGATIVE)
    intensity, amplitude = draw(st.sampled_from([(level, None), (None, level)]))
    return BeamSettings(
        oam_index=draw(st.integers()),
        polarization=draw(st.sampled_from(list(POLARIZATIONS))),
        phase=draw(FINITE), detuning=draw(FINITE),
        intensity=intensity, amplitude=amplitude)


@st.composite
def conventions(draw):
    rule = draw(st.sampled_from([r.value for r in EffectiveRadiusRule]))
    explicit = rule == EffectiveRadiusRule.EXPLICIT.value
    return Conventions(
        intensity_convention=draw(
            st.sampled_from([c.value for c in IntensityConvention])),
        effective_radius_rule=rule,
        explicit_radius=draw(POSITIVE if explicit else st.none() | POSITIVE))


# the default settings stand for a section left out of the file
DESIGN_CONFIGS = st.builds(
    DesignConfig,
    design=ring_designs(),
    material=st.builds(Material, pair_density=POSITIVE,
                       london_depth=POSITIVE, skin_depth=POSITIVE),
    beam=beam_settings(),
    simulation=st.just(SimulationSettings()) | st.builds(
        SimulationSettings, t_final=POSITIVE, tol=st.floats(*TOL_RANGE),
        mode=st.sampled_from(MODES), n_max=st.integers(*N_MAX_RANGE)),
    conventions=st.just(Conventions()) | conventions(),
    two_qubit_separation=st.none() | POSITIVE)


@settings(max_examples=300)
@given(DESIGN_CONFIGS, st.booleans())
def test_dump_load_round_trip_property(config, omit_default_sections):
    text = dumps_config(config)
    assert (config.two_qubit_separation is None) == ("[two_qubit]" not in text)
    if omit_default_sections:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        for section, defaults in (("simulation", SimulationSettings()),
                                  ("conventions", Conventions())):
            if getattr(config, section) == defaults:
                parser.remove_section(section)
        lines = []
        for section in parser.sections():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}"
                         for key, value in parser.items(section))
        text = "\n".join(lines)
    assert loads_config(text) == config


# -- the schema document states the values the code owns --

def _doc_tables():
    """{section: {key: [meaning or choices, units or default]}} from the doc."""
    tables, section = {}, None
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = re.match(r"## `\[(\w+)\]`", line)
            section = heading and tables.setdefault(heading.group(1), {})
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        key = re.fullmatch(r"`(\w+)`", cells[0])
        if section is not None and key:
            section[key.group(1)] = cells[1:]
    return tables


def _ticked(text):
    return re.findall(r"`([^`]+)`", text)


def test_schema_doc_lists_every_key():
    tables = _doc_tables()
    assert {section: set(keys) for section, keys in tables.items()} == {
        section: set(keys) for section, keys in config_module._SCHEMA.items()}


def test_schema_doc_matches_owning_constants():
    tables = _doc_tables()
    beam, sim, conv = tables["beam"], tables["simulation"], tables["conventions"]

    choices, default = beam["polarization"][0].split(";")
    assert _ticked(choices) == list(POLARIZATIONS)
    assert _ticked(default) == [BeamSettings.polarization]
    for key in ("phase", "detuning"):
        default = re.search(r"\(default (\S+)\)", beam[key][0]).group(1)
        assert float(default) == getattr(BeamSettings, key)

    assert _ticked(sim["mode"][0]) == list(MODES)
    low, high = re.search(r"\[(.+),(.+)\]", sim["tol"][0]).groups()
    assert (float(low), float(high)) == TOL_RANGE
    low, high = re.search(r"(\d+)\.\.(\d+)", sim["n_max"][0]).groups()
    assert (int(low), int(high)) == N_MAX_RANGE
    defaults = {key: _ticked(cells[1])[0] for key, cells in sim.items()}
    assert parse_quantity(defaults["t_final"], {"ps": 1e-12}, "t_final") == \
        pytest.approx(SimulationSettings.t_final, rel=1e-15)
    assert float(defaults["tol"]) == SimulationSettings.tol == DEFAULT_TOL
    assert defaults["mode"] == SimulationSettings.mode
    assert int(defaults["n_max"]) == SimulationSettings.n_max == DEFAULT_N_MAX

    assert _ticked(conv["intensity_convention"][0]) == [
        c.value for c in IntensityConvention]
    assert _ticked(conv["effective_radius_rule"][0]) == [
        r.value for r in EffectiveRadiusRule]
    assert _ticked(conv["intensity_convention"][1]) == [
        Conventions.intensity_convention]
    assert _ticked(conv["effective_radius_rule"][1]) == [
        Conventions.effective_radius_rule]
    assert conv["explicit_radius"][1] == "-" and Conventions.explicit_radius is None


def test_tol_range_message_matches_doc():
    # the bounds print as the doc writes them, not as repr(1e-6) = '1e-06'
    with pytest.raises(ValidationError) as info:
        loads_config(GOOD.replace("tol = 1e-9", "tol = 1e-3"))
    assert str(info.value) == "simulation.tol: must lie in [1e-13, 1e-6]"
    with pytest.raises(ValidationError) as info:
        loads_config(GOOD.replace("n_max = 8", "n_max = 65"))
    assert str(info.value) == "simulation.n_max: must lie in [1, 64]"


# -- every key is read by one reader; errors name the key and follow the schema --

INTEGER_KEYS = {"oam_index", "n_max"}
CHOICE_KEYS = {"polarization", "mode", "intensity_convention",
               "effective_radius_rule"}
SIGNED_KEYS = {"phase", "detuning", "tol"}


def _with_value(section, key, value):
    """GOOD with ``key`` set to ``value`` (amplitude replaces intensity)."""
    text = GOOD
    if key == "amplitude":
        text = text.replace("intensity = 6.6e-3 W/cm^2\n", "")
    line = re.compile(rf"^{key} = .*$", flags=re.MULTILINE)
    if line.search(text):
        return line.sub(f"{key} = {value}", text)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def _bad_values(key):
    if key in INTEGER_KEYS:
        return ["1.5"]
    if key in CHOICE_KEYS:
        return ["mystery"]
    return ["x", "1 furlong"] + ([] if key in SIGNED_KEYS else ["-1"])


@pytest.mark.parametrize("section, key, value", [
    (section, key, value)
    for section, keys in config_module._SCHEMA.items() for key in keys
    for value in _bad_values(key)])
def test_single_key_error_names_its_key(section, key, value):
    with pytest.raises(ValidationError) as info:
        loads_config(_with_value(section, key, value))
    assert info.value.field == f"{section}.{key}"


@pytest.mark.parametrize("section, key, value, message", [
    ("ring", "radius", "x", "not a number: 'x'"),
    ("material", "pair_density", "1 furlong",
     "unknown unit 'furlong'; accepted: /cm^3, /m^3, 1/cm^3, 1/m^3, cm^-3, "
     "m^-3"),
    ("simulation", "tol", "1 furlong",
     "unknown unit 'furlong'; accepted: none (dimensionless)"),
    ("ring", "width", "-1", "must be positive, got -1.0"),
    ("beam", "intensity", "-1", "must be non-negative"),
    ("simulation", "mode", "mystery", "must be one of full, rwa"),
    ("beam", "oam_index", "1.5", "not an integer: '1.5'"),
])
def test_single_key_error_text(section, key, value, message):
    with pytest.raises(ValidationError) as info:
        loads_config(_with_value(section, key, value))
    assert str(info.value) == f"{section}.{key}: {message}"


def test_first_error_follows_schema_order():
    text = GOOD.replace("oam_index = 1", "oam_index = x").replace(
        "intensity = 6.6e-3 W/cm^2", "intensity = x")
    with pytest.raises(ValidationError) as info:
        loads_config(text)
    assert info.value.field == "beam.oam_index"
    # a bad key is reported before a rule on more than one key
    text = GOOD.replace("polarization = linear-x", "amplitude = -1")
    with pytest.raises(ValidationError) as info:
        loads_config(text)
    assert str(info.value) == "beam.amplitude: must be non-negative"


def test_comment_after_a_value_is_part_of_the_value():
    with pytest.raises(ValidationError, match="unknown unit 'ps  # run"):
        loads_config(GOOD.replace("t_final = 27 ps",
                                  "t_final = 27 ps  # run length"))
    assert loads_config(GOOD.replace("t_final = 27 ps",
                                     "# run length\nt_final = 27 ps")) \
        == loads_config(GOOD)


# doc name of each unit table -> the table it lists
UNIT_TABLES = {
    "length": config_module._LENGTH_UNITS,
    "time": config_module._TIME_UNITS,
    "intensity": config_module._INTENSITY_UNITS,
    "density": config_module._DENSITY_UNITS,
    "angular frequency": config_module._ANGULAR_FREQUENCY_UNITS,
    "amplitude": config_module._AMPLITUDE_UNITS,
    "phase": config_module._PHASE_UNITS,
}


def _doc_unit_tables():
    """{kind: [units]} from the doc's "Unit tables" list."""
    text = SCHEMA_DOC.read_text(encoding="utf-8")
    block = text.split("## Unit tables", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^\* ([^:]+):(.*(?:\n  .*)*)", block, flags=re.MULTILINE)
    return {kind: _ticked(units) for kind, units in items}


def test_schema_doc_unit_tables_match_code():
    listed = _doc_unit_tables()
    assert list(listed) == list(UNIT_TABLES)
    for kind, units in listed.items():
        assert sorted(units) == sorted(UNIT_TABLES[kind]), kind

    # each quantity's row names the kind of its unit table, and no other
    tables = _doc_tables()
    for section, keys in config_module._SCHEMA.items():
        for key in keys:
            units = config_module._KEYS[key][0]
            if not isinstance(units, dict):
                continue
            row = " ".join(tables[section][key])
            named = {kind for kind in UNIT_TABLES
                     if re.search(rf"\b{kind}\b", row)}
            expected = {kind for kind, table in UNIT_TABLES.items()
                        if table is units}
            assert named == expected, (section, key)


def test_schema_doc_lists_keys_in_schema_order():
    # the doc states that errors follow the order of its tables
    assert [(section, list(keys)) for section, keys in _doc_tables().items()] \
        == [(section, list(keys))
            for section, keys in config_module._SCHEMA.items()]
