"""Twisted-light drive: azimuthal vector potential on the ring.

A helical beam with azimuthal index l and Jones polarization (ex, ey) puts a
vector potential A(phi, t) = eps_hat * A0 * exp(-i(l phi + omega t)) + c.c.
on the ring plane.  Only the phi-component couples to the circulating
supercurrent; projecting the Jones vector onto phi_hat gives

    eps_phi(phi) = -ex sin(phi) + ey cos(phi),

so the physical drive is a short sum of azimuthal harmonics
exp(-i(k phi + s omega t)) with windings k = l -/+ 1 and their conjugate
partners.  All radial/longitudinal beam structure is folded into the single
complex amplitude A0 evaluated at the ring radius.  ``fields.evaluate_A_phi``
reconstructs the field from these harmonics on arrays of phi.
"""

import math
from enum import Enum
from typing import NamedTuple, Tuple

from .constants import SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .ring import _Checked

_JONES_NORM_TOL = 1e-12


class _PolarizationFields(NamedTuple):
    ex: complex
    ey: complex


class Polarization(_Checked, _PolarizationFields):
    """Unit-norm Jones vector (ex, ey)."""

    __slots__ = ()

    def _check(self):
        norm = abs(self.ex) ** 2 + abs(self.ey) ** 2
        if not abs(norm - 1.0) <= _JONES_NORM_TOL:
            raise ValueError(f"Jones vector not normalized: |ex|^2+|ey|^2 = {norm}")

    @classmethod
    def linear_x(cls) -> "Polarization":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def linear_y(cls) -> "Polarization":
        return cls(0.0j, 1.0 + 0.0j)

    @classmethod
    def right_circular(cls) -> "Polarization":
        s = 1.0 / math.sqrt(2.0)
        return cls(s + 0.0j, -1j * s)

    @classmethod
    def left_circular(cls) -> "Polarization":
        s = 1.0 / math.sqrt(2.0)
        return cls(s + 0.0j, 1j * s)


# named Jones vectors a config can ask for
POLARIZATIONS = {
    "linear-x": Polarization.linear_x,
    "linear-y": Polarization.linear_y,
    "right-circular": Polarization.right_circular,
    "left-circular": Polarization.left_circular,
}


class _BeamDriveFields(NamedTuple):
    oam_index: int
    omega: float               # rad/s
    a0: complex                # vector-potential amplitude at the ring, kg m/(s^2 A)
    polarization: Polarization


class BeamDrive(_Checked, _BeamDriveFields):
    """One helical beam at the ring: winding l, frequency, amplitude, Jones."""

    __slots__ = ()

    def _check(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")


class _HarmonicTermFields(NamedTuple):
    winding: int
    amplitude: complex
    time_sign: int


class HarmonicTerm(_Checked, _HarmonicTermFields):
    """One azimuthal harmonic a * exp(-i(k phi + s omega t)), s = +/-1."""

    __slots__ = ()

    def _check(self):
        if self.time_sign not in (-1, 1):
            raise ValueError("time_sign must be +1 or -1")


class HarmonicDrive(NamedTuple):
    """Azimuthal-harmonic decomposition of the phi-component of the drive.

    Terms come in conjugate pairs (k, a, +1) <-> (-k, conj(a), -1) so the
    reconstructed field is real.
    """

    terms: Tuple[HarmonicTerm, ...]
    omega: float


class IntensityConvention(Enum):
    """Mapping from beam intensity to the complex amplitude A0.

    PAPER_CONSISTENT treats A0 itself as the field-defining amplitude,
    |A0| = sqrt(2 I / (c eps0 omega^2)).  PEAK_FIELD treats 2|A0| (the peak
    of A0 e^{-i...} + c.c.) as that amplitude and returns half the
    PAPER_CONSISTENT value.  The two differ by exactly a factor 2; both are
    exposed because published figures in this problem family are ambiguous
    at that level.
    """

    PAPER_CONSISTENT = "paper-consistent"
    PEAK_FIELD = "peak-field"


def amplitude_from_intensity(intensity: float, omega: float,
                             convention=IntensityConvention.PAPER_CONSISTENT) -> float:
    """|A0| for a given intensity (W/m^2) and angular frequency (rad/s)."""
    if intensity < 0.0:
        raise ValueError("intensity must be non-negative")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if not isinstance(convention, IntensityConvention):
        convention = IntensityConvention(convention)
    base = math.sqrt(2.0 * intensity
                     / (SPEED_OF_LIGHT * VACUUM_PERMITTIVITY * omega ** 2))
    if convention is IntensityConvention.PEAK_FIELD:
        return 0.5 * base
    return base


def azimuthal_component(beam: BeamDrive) -> HarmonicDrive:
    """Decompose the phi-component of the beam into azimuthal harmonics.

    Expanding eps_phi(phi) = -ex sin(phi) + ey cos(phi) in exp(-/+ i phi)
    gives coefficients (i ex + ey)/2 at winding l-1 and (-i ex + ey)/2 at
    winding l+1, each with time sign +1, plus their conjugate partners.
    Exactly vanishing coefficients (circular polarizations, A0 = 0) are
    dropped.
    """
    ex = complex(beam.polarization.ex)
    ey = complex(beam.polarization.ey)
    l = beam.oam_index
    a0 = complex(beam.a0)

    raw = (
        (l - 1, 0.5 * (1j * ex + ey) * a0),
        (l + 1, 0.5 * (-1j * ex + ey) * a0),
    )
    terms = []
    for k, amp in raw:
        if amp == 0:
            continue
        terms.append(HarmonicTerm(k, amp, +1))
        terms.append(HarmonicTerm(-k, amp.conjugate(), -1))
    return HarmonicDrive(terms=tuple(terms), omega=beam.omega)
