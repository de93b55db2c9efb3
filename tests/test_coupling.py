import itertools
import math

import numpy as np
import pytest

from oamring import beam
from oamring.beam import BeamDrive, Polarization, azimuthal_component
from oamring.constants import COOPER_CHARGE, COOPER_MASS, HBAR
from oamring.coupling import (matrix_element_terms, rabi_frequency,
                              resonance_catalog, selection_rules)
from oamring.dynamics import _coupled_levels
from oamring.errors import TruncationExceeded
from oamring.fields import (evaluate_matrix_element,
                            matrix_element_quadrature_oracle)
from oamring.ring import transition_angular_frequency

from conftest import PUBLISHED_A0

POLARIZATIONS = {
    "linear-x": Polarization.linear_x(),
    "right-circular": Polarization.right_circular(),
    "left-circular": Polarization.left_circular(),
}


@pytest.fixture(scope="module")
def w20(chain_params):
    return transition_angular_frequency(2, 0, chain_params)


@pytest.fixture(scope="module")
def lg01_drive(w20):
    beam = BeamDrive(1, w20, PUBLISHED_A0, Polarization.linear_x())
    return azimuthal_component(beam)


def order1_magnitude(params, a0):
    """First-order coupling scale from the printed closed form."""
    return (HBAR * params.n_pairs * COOPER_CHARGE
            / (2.0 * params.design.radius * COOPER_MASS)
            * (params.L_K / params.L_T) * a0)


def order2_magnitude(params, a0, denominator):
    """Two-photon coupling scale N* q*^2 |A0|^2 / (denominator * m*)."""
    return (params.n_pairs * COOPER_CHARGE ** 2 * a0 ** 2
            / (denominator * COOPER_MASS))


def test_element_0_2_lg01(chain_params, lg01_drive, w20):
    terms = matrix_element_terms(0, 2, lg01_drive, chain_params)
    first = [t for t in terms if t.order == 1]
    assert len(first) == 1
    np.testing.assert_allclose(abs(first[0].amplitude),
                               order1_magnitude(chain_params, PUBLISHED_A0),
                               rtol=1e-12)
    # one-photon beat omega - omega_20 vanishes on resonance
    assert first[0].beat == 0.0

    two_photon = [t for t in terms if t.order == 2 and t.beat > w20 / 2]
    assert len(two_photon) == 1
    np.testing.assert_allclose(abs(two_photon[0].amplitude),
                               order2_magnitude(chain_params, PUBLISHED_A0, 4.0),
                               rtol=1e-12)
    np.testing.assert_allclose(two_photon[0].beat, 2 * w20 - w20, rtol=1e-14)
    # plus the static part of A^2, kept for the full dynamics
    assert len(terms) == 3


def test_element_0_2_regression(chain_params, lg01_drive):
    first = [t for t in matrix_element_terms(0, 2, lg01_drive, chain_params)
             if t.order == 1]
    np.testing.assert_allclose(abs(first[0].amplitude), 3.713767607525156e-23,
                               rtol=1e-9)


def test_element_0_4_lg01(chain_params, lg01_drive, w20):
    terms = matrix_element_terms(0, 4, lg01_drive, chain_params)
    assert len(terms) == 1
    assert terms[0].order == 2
    np.testing.assert_allclose(abs(terms[0].amplitude),
                               order2_magnitude(chain_params, PUBLISHED_A0, 8.0),
                               rtol=1e-12)
    w40 = transition_angular_frequency(4, 0, chain_params)
    np.testing.assert_allclose(terms[0].beat, 2 * w20 - w40, rtol=1e-14)


def test_element_0_3_empty(chain_params, lg01_drive):
    assert matrix_element_terms(0, 3, lg01_drive, chain_params) == []


def test_truncation_guard(chain_params, lg01_drive):
    with pytest.raises(TruncationExceeded):
        matrix_element_terms(0, 9, lg01_drive, chain_params, n_max=8)
    with pytest.raises(TruncationExceeded):
        matrix_element_quadrature_oracle(9, 0, lg01_drive, chain_params, 0.0,
                                         n_max=8)


def test_terms_hermitian_pairing(chain_params, w20):
    drive = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0 * np.exp(0.8j), Polarization.linear_x()))
    for m, n in [(0, 2), (2, 0), (1, 3), (-2, 0), (2, 2)]:
        fwd = matrix_element_terms(m, n, drive, chain_params)
        rev = matrix_element_terms(n, m, drive, chain_params)
        fwd_sorted = sorted(((t.order, t.beat, t.amplitude) for t in fwd))
        rev_conj = sorted(((t.order, -t.beat, np.conj(t.amplitude)) for t in rev))
        assert len(fwd_sorted) == len(rev_conj)
        for a, b in zip(fwd_sorted, rev_conj):
            assert a[0] == b[0]
            np.testing.assert_allclose(a[1], b[1], rtol=1e-14)
            np.testing.assert_allclose(a[2], b[2], rtol=1e-14)


def test_amplitude_scaling_orders(chain_params, w20):
    base = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0, Polarization.linear_x()))
    tripled = azimuthal_component(
        BeamDrive(1, w20, 3 * PUBLISHED_A0, Polarization.linear_x()))
    for m, n in [(0, 2), (0, 4), (2, 4)]:
        t1 = {(t.order, t.beat): t.amplitude
              for t in matrix_element_terms(m, n, base, chain_params)}
        t3 = {(t.order, t.beat): t.amplitude
              for t in matrix_element_terms(m, n, tripled, chain_params)}
        assert set(t1) == set(t3)
        for (order, _), amp in t1.items():
            factor = 3.0 if order == 1 else 9.0
            np.testing.assert_allclose(t3[(order, _)], factor * amp, rtol=1e-12)


def test_oracle_hermitian(chain_params, w20):
    rng = np.random.default_rng(5)
    drive = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0 * np.exp(0.7j), Polarization.linear_x()))
    for t in rng.uniform(0.0, 20 * np.pi / w20, 20):
        a = matrix_element_quadrature_oracle(0, 2, drive, chain_params, t)
        b = matrix_element_quadrature_oracle(2, 0, drive, chain_params, t)
        assert abs(a - np.conj(b)) <= 1e-12 * abs(a)


def test_oracle_zero_drive(chain_params, w20):
    drive = azimuthal_component(BeamDrive(1, w20, 0.0, Polarization.linear_x()))
    assert matrix_element_quadrature_oracle(0, 2, drive, chain_params, 1e-15) == 0.0


def test_oracle_matches_order1_magnitude(chain_params, lg01_drive):
    # on resonance the order-1 term is static; at t=0 the element is the sum
    # of the order-1 part and the (much smaller) A^2 parts
    value = matrix_element_quadrature_oracle(0, 2, lg01_drive, chain_params, 0.0)
    expected = order1_magnitude(chain_params, PUBLISHED_A0)
    assert abs(abs(value) - expected) <= 2e-3 * expected
    np.testing.assert_allclose(expected, 3.75e-23, rtol=2e-2)


@pytest.mark.parametrize("polname", list(POLARIZATIONS))
@pytest.mark.parametrize("l", [-1, 0, 1, 2])
def test_terms_match_oracle(chain_params, w20, polname, l):
    rng = np.random.default_rng(17)
    drive = azimuthal_component(
        BeamDrive(l, w20, PUBLISHED_A0 * np.exp(0.3j), POLARIZATIONS[polname]))
    times = rng.uniform(0.0, 20 * np.pi / w20, 5)
    for m in range(-3, 4):
        for n in range(-3, 4):
            terms = matrix_element_terms(m, n, drive, chain_params)
            for t in times:
                recon = evaluate_matrix_element(terms, t)
                oracle = matrix_element_quadrature_oracle(m, n, drive,
                                                          chain_params, t)
                scale = max(abs(recon), abs(oracle))
                if scale < 1e-30:
                    continue
                assert abs(recon - oracle) <= 1e-10 * scale


def test_selection_rules_linear(w20):
    drive = azimuthal_component(BeamDrive(1, w20, PUBLISHED_A0, Polarization.linear_x()))
    assert selection_rules(drive) == {(2, 1), (-2, 1), (2, 2), (-2, 2),
                                      (4, 2), (-4, 2)}


def test_selection_rules_right_circular(w20):
    drive = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0, Polarization.right_circular()))
    assert selection_rules(drive) == {(2, 1), (-2, 1), (4, 2), (-4, 2)}


def test_selection_rules_left_circular(w20):
    drive = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0, Polarization.left_circular()))
    assert selection_rules(drive) == set()


def test_resonance_catalog_linear(chain_params, lg01_drive, w20):
    entries = resonance_catalog(lg01_drive, chain_params, n_init=0)
    listed = [(e.initial, e.final, e.order) for e in entries]
    assert listed == [(0, 2, 1), (0, 2, 2), (0, 4, 2)]
    np.testing.assert_allclose(entries[0].required_omega, w20, rtol=1e-14)
    np.testing.assert_allclose(entries[1].required_omega, w20 / 2, rtol=1e-14)
    w40 = transition_angular_frequency(4, 0, chain_params)
    np.testing.assert_allclose(entries[2].required_omega, w40 / 2, rtol=1e-14)
    # quadratic spectrum: the two-photon 0->4 resonance sits at 2 omega_20
    assert entries[2].required_omega == 2.0 * entries[0].required_omega


def test_resonance_catalog_circular(chain_params, w20):
    rc = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0, Polarization.right_circular()))
    listed = [(e.final, e.order) for e in resonance_catalog(rc, chain_params, 0)]
    assert listed == [(2, 1), (4, 2)]
    lc = azimuthal_component(
        BeamDrive(1, w20, PUBLISHED_A0, Polarization.left_circular()))
    assert resonance_catalog(lc, chain_params, 0) == []


def test_catalog_degenerate_partner_unreachable(chain_params, lg01_drive):
    # the helical drive addresses only the co-rotating member of the pair
    finals = {e.final for e in resonance_catalog(lg01_drive, chain_params, 0)}
    assert -2 not in finals and -4 not in finals


def test_rabi_frequency(chain_params):
    assert rabi_frequency(chain_params, 0.0) == 0.0
    omega = rabi_frequency(chain_params, PUBLISHED_A0)
    np.testing.assert_allclose(omega, 7.043e11, rtol=1e-3)
    np.testing.assert_allclose(
        omega, 2.0 * order1_magnitude(chain_params, PUBLISHED_A0) / HBAR,
        rtol=1e-12)
    with pytest.raises(ValueError):
        rabi_frequency(chain_params, -1.0)


def test_rabi_frequency_vs_published_band(chain_params):
    # the printed 54 GHz is convention-ambiguous; the angular/cyclic and
    # amplitude-factor readings must bracket it within a factor 2 pi
    omega = rabi_frequency(chain_params, PUBLISHED_A0)
    ratio = (omega / (2 * math.pi * 1e9)) / 54.0
    assert 1.0 / (2 * math.pi) <= ratio <= 2 * math.pi


# the drive-products invariants: OAM index x every named polarization x n_max
SWEEP_A0 = PUBLISHED_A0 * np.exp(0.4j)
SWEEP_N_MAX = (2, 8, 16)


def _swept_beams(omega):
    for l in range(-3, 4):
        for polarization in beam.POLARIZATIONS.values():
            yield BeamDrive(l, omega, SWEEP_A0, polarization())


@pytest.fixture(scope="module")
def swept_elements(chain_params, w20):
    """(drive, n_max, [(m, n, <m|H_I|n> terms)] over all level pairs)."""
    out = []
    for b in _swept_beams(w20):
        drive = azimuthal_component(b)
        for n_max in SWEEP_N_MAX:
            levels = range(-n_max, n_max + 1)
            out.append((drive, n_max, [
                (m, n, matrix_element_terms(m, n, drive, chain_params, n_max))
                for m in levels for n in levels]))
    return out


def test_every_term_is_covered_by_selection_rules(swept_elements):
    checked = 0
    for drive, _, elements in swept_elements:
        rules = selection_rules(drive)
        for m, n, terms in elements:
            if m == n:
                continue
            for term in terms:
                assert (m - n, term.order) in rules
                checked += 1
    assert checked == 8868


def test_catalog_frequencies_zero_the_matching_beat(chain_params, w20):
    checked = 0
    for b in _swept_beams(w20):
        drive = azimuthal_component(b)
        for n_max in SWEEP_N_MAX:
            for n_init in (-1, 0, 2):
                for e in resonance_catalog(drive, chain_params, n_init, n_max):
                    tuned = azimuthal_component(BeamDrive(
                        b.oam_index, e.required_omega, b.a0, b.polarization))
                    terms = matrix_element_terms(e.final, e.initial, tuned,
                                                 chain_params, n_max)
                    assert any(t.order == e.order and t.beat == 0.0
                               for t in terms), e
                    checked += 1
    assert checked == 526


def test_term_arrays_match_all_pairs(swept_elements, chain_params):
    # a walk from every level expands only the pairs some drive product
    # reaches; its table must equal the one built from every pair, filtered
    # to |beat| < omega / 10 for the RWA, bit for bit
    for (drive, n_max, elements), rwa in itertools.product(swept_elements,
                                                            (False, True)):
        rows, cols, camps, nus = [], [], [], []
        for m, n, terms in elements:
            for term in terms:
                if rwa and not abs(term.beat) < drive.omega / 10.0:
                    continue
                rows.append(m + n_max)
                cols.append(n + n_max)
                camps.append(-1j * term.amplitude / HBAR)
                nus.append(term.beat)
        want = (np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
                np.asarray(camps, dtype=np.complex128),
                np.asarray(nus, dtype=np.float64))
        _, got, _, _ = _coupled_levels(drive, chain_params, n_max,
                                       range(-n_max, n_max + 1), rwa)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
