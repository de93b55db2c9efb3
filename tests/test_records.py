"""The scalar model's value records: construction, equality, immutability,
repr and the field checks seven of them run when built."""

import pytest

from oamring.beam import BeamDrive, HarmonicDrive, HarmonicTerm, Polarization
from oamring.cli import CommandResult
from oamring.config import (BeamSettings, Conventions, DesignConfig,
                            SimulationSettings)
from oamring.coupling import MatrixElementTerm, TransitionCatalogEntry
from oamring.ring import Material, RingDesign, RingParams
from oamring.twoqubit import TwoRingConfig
from oamring.workbench import (Check, FeasibilityReport, Quantity,
                               ResolvedModel)

DESIGN = RingDesign(radius=2e-6, width=60e-9, depth=10e-9)
MATERIAL = Material(pair_density=2.1e28, london_depth=50e-9, skin_depth=7e-9)
PARAMS = RingParams(L_S=1e-11, L_K=2e-11, L_T=1e-11 + 2e-11, n_pairs=3e8,
                    design=DESIGN, material=MATERIAL)
DRIVE = BeamDrive(oam_index=1, omega=2e12, a0=1e-13j,
                  polarization=Polarization.linear_x())
QUANTITY = Quantity(name="L_S", value=12.7, unit="pH")
CHECK = Check(name="thin_wire_width", status="pass", detail="w/2 < lambda_L")
CONFIG = DesignConfig(design=DESIGN, material=MATERIAL,
                      beam=BeamSettings(oam_index=1),
                      simulation=SimulationSettings(),
                      conventions=Conventions(), two_qubit_separation=None)

# record -> (keyword arguments for its fields without a default, the
# defaults of the others).  Sequence fields get tuples so the records hash.
RECORDS = {
    RingDesign: (DESIGN._asdict(), {}),
    Material: (MATERIAL._asdict(), {}),
    RingParams: (PARAMS._asdict(), {}),
    Polarization: ({"ex": 0.6 + 0j, "ey": 0.8j}, {}),
    BeamDrive: (DRIVE._asdict(), {}),
    HarmonicTerm: ({"winding": 2, "amplitude": 0.5j, "time_sign": -1}, {}),
    HarmonicDrive: ({"terms": (HarmonicTerm(0, 0.5, 1),), "omega": 2e12}, {}),
    MatrixElementTerm: ({"amplitude": 1e-22j, "beat": 3.0, "order": 2}, {}),
    TransitionCatalogEntry: ({"initial": 0, "final": 2, "required_omega": 4.0,
                              "order": 1, "source": "k=+2"}, {}),
    TwoRingConfig: ({"params_a": PARAMS, "params_b": PARAMS,
                     "separation": 1e-4, "mutual": 3.2e-17},
                    {"coupling_on": True}),
    BeamSettings: ({"oam_index": -2},
                   {"polarization": "linear-x", "phase": 0.0, "detuning": 0.0,
                    "intensity": None, "amplitude": None}),
    SimulationSettings: ({}, {"t_final": 27e-12, "tol": 1e-9, "mode": "rwa",
                              "n_max": 8}),
    Conventions: ({}, {"intensity_convention": "paper-consistent",
                       "effective_radius_rule": "rosa",
                       "explicit_radius": None}),
    DesignConfig: (CONFIG._asdict(), {}),
    ResolvedModel: ({"config": CONFIG, "params": PARAMS,
                     "omega_resonance": 2e12, "omega_drive": 2e12,
                     "a0_magnitude": 1e-13, "drive": DRIVE, "two_ring": None},
                    {}),
    Quantity: (QUANTITY._asdict(), {}),
    Check: (CHECK._asdict(), {}),
    FeasibilityReport: ({"quantities": (QUANTITY,), "checks": (CHECK,),
                         "conventions": ("rosa",)}, {}),
    CommandResult: ({"command": "spectrum", "columns": (("n", ""),),
                     "rows": ((0,),), "meta": {}}, {"feasibility": None}),
}

# record -> (fields to change, the ValueError message its check raises)
BAD_FIELDS = {
    RingDesign: [
        ({"radius": 0.0}, "radius must be positive"),
        ({"width": -1e-9}, "width must be positive"),
        ({"depth": 0.0}, "depth must be positive"),
        ({"width": 2e-7},
         "non-thin-wire design: width must satisfy width < radius/10"),
    ],
    Material: [
        ({"pair_density": 0.0}, "pair_density must be positive"),
        ({"london_depth": -5e-8}, "london_depth must be positive"),
        ({"skin_depth": 0.0}, "skin_depth must be positive"),
    ],
    RingParams: [
        ({"L_K": 0.0}, "inductances must be positive"),
        ({"L_T": 2e-11}, "L_T must equal L_S + L_K exactly"),
        ({"n_pairs": 0.0}, "n_pairs must be positive"),
    ],
    Polarization: [
        ({"ex": 1.0, "ey": 1.0},
         "Jones vector not normalized: |ex|^2+|ey|^2 = 2.0"),
    ],
    BeamDrive: [({"omega": 0.0}, "omega must be positive")],
    HarmonicTerm: [({"time_sign": 0}, "time_sign must be +1 or -1")],
    TwoRingConfig: [
        ({"separation": 0.0}, "separation must be positive"),
        ({"mutual": -1e-17}, "mutual inductance must be positive"),
    ],
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(record):
    required, defaults = RECORDS[record]
    built = record(**required)
    assert built._asdict() == {**required, **defaults}
    assert list(built._asdict()) == list(record._fields)

    twin = record(**dict(required))
    assert built == twin
    if not any(isinstance(value, dict) for value in required.values()):
        assert hash(built) == hash(twin)

    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(built, name, None)

    fields = ", ".join(f"{name}={getattr(built, name)!r}"
                       for name in record._fields)
    assert repr(built) == f"{record.__name__}({fields})"

    for changes, message in BAD_FIELDS.get(record, []):
        with pytest.raises(ValueError) as info:
            record(**{**required, **changes})
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            built._replace(**changes)
        assert str(info.value) == message
