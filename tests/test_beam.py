import math

import numpy as np
import pytest

from oamring.beam import (BeamDrive, HarmonicDrive, HarmonicTerm,
                          IntensityConvention, Polarization,
                          amplitude_from_intensity, azimuthal_component)
from oamring.errors import NonRealField
from oamring.fields import evaluate_A_phi, evaluate_A_phi_derivative

from conftest import PUBLISHED_A0, PUBLISHED_INTENSITY

OMEGA = 2.591e15
POLARIZATIONS = {
    "linear-x": Polarization.linear_x(),
    "right-circular": Polarization.right_circular(),
    "left-circular": Polarization.left_circular(),
}


def jones_phi(pol: Polarization, phi):
    """phi-component of the Jones vector: -ex sin(phi) + ey cos(phi)."""
    return -pol.ex * np.sin(phi) + pol.ey * np.cos(phi)


def closed_form_field(beam: BeamDrive, phi, t):
    """Direct evaluation of the drive field from the Jones expansion."""
    envelope = jones_phi(beam.polarization, phi) * beam.a0 \
        * np.exp(-1j * (beam.oam_index * phi + beam.omega * t))
    return 2.0 * np.real(envelope)


def test_polarization_norm():
    with pytest.raises(ValueError, match="normalized"):
        Polarization(1.0, 1.0)
    with pytest.raises(ValueError, match="normalized"):
        Polarization(complex("nan"), 0.0j)
    for pol in POLARIZATIONS.values():
        assert abs(abs(pol.ex) ** 2 + abs(pol.ey) ** 2 - 1.0) <= 1e-12


def test_amplitude_from_intensity_reproduces_published():
    value = amplitude_from_intensity(PUBLISHED_INTENSITY, OMEGA)
    np.testing.assert_allclose(value, PUBLISHED_A0, rtol=1e-2)


def test_amplitude_from_intensity_zero():
    assert amplitude_from_intensity(0.0, OMEGA) == 0.0


def test_amplitude_convention_ratio():
    base = amplitude_from_intensity(PUBLISHED_INTENSITY, OMEGA,
                                     IntensityConvention.PAPER_CONSISTENT)
    peak = amplitude_from_intensity(PUBLISHED_INTENSITY, OMEGA,
                                    IntensityConvention.PEAK_FIELD)
    assert peak == base / 2.0


def test_decomposition_linear_x():
    a0 = 3.7e-14
    drive = azimuthal_component(BeamDrive(1, OMEGA, a0, Polarization.linear_x()))
    by_key = {(t.winding, t.time_sign): t.amplitude for t in drive.terms}
    assert set(by_key) == {(0, 1), (2, 1), (0, -1), (-2, -1)}
    np.testing.assert_allclose(by_key[(0, 1)], 0.5j * a0, rtol=1e-15)
    np.testing.assert_allclose(by_key[(2, 1)], -0.5j * a0, rtol=1e-15)
    assert by_key[(0, -1)] == np.conj(by_key[(0, 1)])
    assert by_key[(-2, -1)] == np.conj(by_key[(2, 1)])
    assert all(abs(a) == a0 / 2.0 for a in by_key.values())


def test_decomposition_right_circular():
    a0 = 3.7e-14
    drive = azimuthal_component(
        BeamDrive(1, OMEGA, a0, Polarization.right_circular()))
    by_key = {(t.winding, t.time_sign): t.amplitude for t in drive.terms}
    assert set(by_key) == {(2, 1), (-2, -1)}
    np.testing.assert_allclose(by_key[(2, 1)], -1j * a0 / math.sqrt(2.0),
                               rtol=1e-15)
    assert abs(by_key[(2, 1)]) == pytest.approx(a0 / math.sqrt(2.0), rel=1e-15)


def test_decomposition_left_circular():
    a0 = 3.7e-14
    drive = azimuthal_component(
        BeamDrive(1, OMEGA, a0, Polarization.left_circular()))
    by_key = {(t.winding, t.time_sign): t.amplitude for t in drive.terms}
    assert set(by_key) == {(0, 1), (0, -1)}
    np.testing.assert_allclose(by_key[(0, 1)], 1j * a0 / math.sqrt(2.0),
                               rtol=1e-15)


def test_decomposition_zero_amplitude():
    drive = azimuthal_component(BeamDrive(1, OMEGA, 0.0, Polarization.linear_x()))
    assert drive.terms == ()


@pytest.mark.parametrize("polname", list(POLARIZATIONS))
@pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
def test_field_matches_closed_form(polname, l):
    # pointwise oracle vs the Jones-vector expansion at random angles/times
    rng = np.random.default_rng(11)
    beam = BeamDrive(l, OMEGA, 3.7e-14 * np.exp(0.41j), POLARIZATIONS[polname])
    drive = azimuthal_component(beam)
    for _ in range(10):
        t = rng.uniform(0.0, 20 * np.pi / OMEGA)
        phi = rng.uniform(0.0, 2 * np.pi, 10)
        got = evaluate_A_phi(drive, phi, t)
        want = closed_form_field(beam, phi, t)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(beam.a0))


def test_field_empty_drive():
    drive = HarmonicDrive(terms=(), omega=OMEGA)
    assert evaluate_A_phi(drive, 0.3, 1e-15) == 0.0
    assert evaluate_A_phi_derivative(drive, 0.3, 1e-15) == 0.0


def test_field_reality_on_many_points():
    rng = np.random.default_rng(3)
    beam = BeamDrive(1, OMEGA, 5e-14 * np.exp(1.2j), Polarization.linear_x())
    drive = azimuthal_component(beam)
    for t in rng.uniform(0.0, 1e-13, 10):
        values = evaluate_A_phi(drive, rng.uniform(0, 2 * np.pi, 100), t)
        assert values.dtype.kind == "f"


def test_field_rejects_unpaired_terms():
    drive = HarmonicDrive(terms=(HarmonicTerm(2, 1e-14 + 0j, 1),), omega=OMEGA)
    with pytest.raises(NonRealField):
        evaluate_A_phi(drive, np.linspace(0, 2 * np.pi, 32), 0.0)


def test_derivative_matches_finite_difference():
    beam = BeamDrive(1, OMEGA, 4e-14 * np.exp(0.2j), Polarization.linear_x())
    drive = azimuthal_component(beam)
    phi = np.linspace(0.1, 6.0, 25)
    h = 1e-7
    numeric = (evaluate_A_phi(drive, phi + h, 1e-15)
               - evaluate_A_phi(drive, phi - h, 1e-15)) / (2 * h)
    analytic = evaluate_A_phi_derivative(drive, phi, 1e-15)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6,
                               atol=1e-8 * abs(beam.a0))


@pytest.mark.parametrize("polname", list(POLARIZATIONS))
@pytest.mark.parametrize("l", [-2, 0, 1, 3])
def test_parseval(polname, l):
    beam = BeamDrive(l, OMEGA, 2.9e-14 * np.exp(0.7j), POLARIZATIONS[polname])
    drive = azimuthal_component(beam)
    coeff_sum = sum(abs(t.amplitude) ** 2 for t in drive.terms
                    if t.time_sign == 1)
    n_points = 512
    phi = np.arange(n_points) * (2 * np.pi / n_points)
    envelope = jones_phi(beam.polarization, phi) * beam.a0
    quad = float(np.sum(np.abs(envelope) ** 2)) / n_points
    np.testing.assert_allclose(coeff_sum, quad, rtol=1e-10)


def test_mirror_symmetry_linear():
    # real amplitude: flipping l mirrors windings and conjugates amplitudes
    a0 = 4.4e-14
    for l in (1, 2):
        fwd = azimuthal_component(BeamDrive(l, OMEGA, a0, Polarization.linear_x()))
        rev = azimuthal_component(BeamDrive(-l, OMEGA, a0, Polarization.linear_x()))
        fwd_pos = {t.winding: t.amplitude for t in fwd.terms if t.time_sign == 1}
        rev_pos = {t.winding: t.amplitude for t in rev.terms if t.time_sign == 1}
        assert rev_pos == {-k: np.conj(a) for k, a in fwd_pos.items()}


def test_circular_decompositions_recombine_to_linear():
    a0 = 4.4e-14 * np.exp(0.3j)
    l = 1
    lin = azimuthal_component(BeamDrive(l, OMEGA, a0, Polarization.linear_x()))
    rc = azimuthal_component(BeamDrive(l, OMEGA, a0, Polarization.right_circular()))
    lc = azimuthal_component(BeamDrive(l, OMEGA, a0, Polarization.left_circular()))

    def as_map(drive):
        return {(t.winding, t.time_sign): t.amplitude for t in drive.terms}

    lin_map, rc_map, lc_map = as_map(lin), as_map(rc), as_map(lc)
    for key, amp in lin_map.items():
        combined = (rc_map.get(key, 0.0) + lc_map.get(key, 0.0)) / math.sqrt(2.0)
        np.testing.assert_allclose(combined, amp, rtol=0, atol=1e-14 * abs(a0))
