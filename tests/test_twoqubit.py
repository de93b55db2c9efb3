import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamring.constants import FLUX_QUANTUM, HBAR, VACUUM_PERMEABILITY
from oamring.czgate import (TwoQubitState, entangling_phase, evolve_two_qubit,
                            phase_vector)
from oamring.ring import Material, RingDesign, derive_ring_params, level_energy
from oamring.twoqubit import (TwoRingConfig, controlled_phase, cz_fidelity,
                              cz_gate_time, interaction_energy,
                              mutual_inductance_coaxial)

from conftest import (LONDON_DEPTH, PAIR_DENSITY, RADIUS, RING_SEPARATION,
                      SKIN_DEPTH)


@pytest.fixture(scope="module")
def two_ring(published_params):
    return TwoRingConfig.from_separation(published_params, RING_SEPARATION)


def test_mutual_inductance_published():
    value = mutual_inductance_coaxial(2e-6, 1e-4)
    expected = VACUUM_PERMEABILITY * math.pi * (2e-6) ** 4 / (2.0 * (1e-4) ** 3)
    np.testing.assert_allclose(value, expected, rtol=1e-15)
    assert abs(value - 3.2e-17) <= 0.02 * 3.2e-17


def test_mutual_inductance_scaling():
    base = mutual_inductance_coaxial(2e-6, 1e-4)
    assert mutual_inductance_coaxial(2e-6, 2e-4) == base / 8.0
    assert mutual_inductance_coaxial(4e-6, 1e-4) == 16.0 * base


def test_mutual_inductance_near_field_warning():
    with pytest.warns(UserWarning, match="far-field"):
        mutual_inductance_coaxial(2e-6, 1e-5)


def test_interaction_energy(two_ring, published_params):
    phi0 = FLUX_QUANTUM
    for n_b in (-2, 0, 1, 2):
        assert interaction_energy(0, n_b, two_ring) == 0.0
    expected = two_ring.mutual * 4.0 * (phi0 / published_params.L_T) ** 2
    np.testing.assert_allclose(interaction_energy(2, 2, two_ring), expected,
                               rtol=1e-15)
    np.testing.assert_allclose(interaction_energy(2, 2, two_ring), 5.52e-25,
                               rtol=2e-3)
    assert interaction_energy(-2, 2, two_ring) == -interaction_energy(2, 2, two_ring)


def test_interaction_energy_symmetric(two_ring):
    for n_a, n_b in [(1, 2), (2, 3), (-1, 2)]:
        assert interaction_energy(n_a, n_b, two_ring) == \
            interaction_energy(n_b, n_a, two_ring)


def test_interaction_energy_heterogeneous(published_params, design, material,
                                          chain_params):
    config = TwoRingConfig(params_a=published_params, params_b=chain_params,
                           separation=RING_SEPARATION, mutual=3.16e-17)
    phi0 = FLUX_QUANTUM
    expected = (3.16e-17 * 4.0 * (phi0 / published_params.L_T)
                * (phi0 / chain_params.L_T))
    np.testing.assert_allclose(interaction_energy(2, 2, config), expected,
                               rtol=1e-15)


def test_coupling_switch(published_params):
    config = TwoRingConfig.from_separation(published_params, RING_SEPARATION)
    off = TwoRingConfig(params_a=config.params_a, params_b=config.params_b,
                        separation=config.separation, mutual=config.mutual,
                        coupling_on=False)
    assert interaction_energy(2, 2, off) == 0.0
    with pytest.raises(ValueError, match="off"):
        cz_gate_time(off)


def test_cz_gate_time(two_ring):
    t_cz = cz_gate_time(two_ring)
    assert abs(t_cz - 0.6e-9) <= 0.05 * 0.6e-9
    # halving the mutual doubles the gate time exactly
    halved = TwoRingConfig(params_a=two_ring.params_a,
                           params_b=two_ring.params_b,
                           separation=two_ring.separation,
                           mutual=two_ring.mutual / 2.0)
    assert cz_gate_time(halved) == 2.0 * t_cz
    # defining relation: H(2,2) t_CZ / hbar = pi
    h22 = interaction_energy(2, 2, two_ring)
    assert abs(h22 * t_cz / HBAR - math.pi) <= 1e-12


def test_controlled_phase(two_ring):
    t_cz = cz_gate_time(two_ring)
    assert controlled_phase(0.0, two_ring) == 0.0
    np.testing.assert_allclose(controlled_phase(t_cz, two_ring), math.pi,
                               rtol=1e-14)
    t = 0.217e-9
    assert controlled_phase(2 * t, two_ring) == 2.0 * controlled_phase(t, two_ring)
    with pytest.raises(ValueError):
        controlled_phase(-1.0, two_ring)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_time_must_be_finite_and_non_negative(two_ring, t):
    psi = TwoQubitState.equal_superposition()
    with pytest.raises(ValueError, match="finite and non-negative"):
        controlled_phase(t, two_ring)
    with pytest.raises(ValueError, match="finite and non-negative"):
        evolve_two_qubit(psi, two_ring, t)


def test_two_qubit_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="normalized"):
        TwoQubitState(np.full(4, np.nan))
    with pytest.raises(ValueError, match="4 amplitudes"):
        TwoQubitState(np.array([1.0, 0.0]))


def test_evolution_identity_at_zero_time(two_ring):
    psi = TwoQubitState.equal_superposition()
    evolved = evolve_two_qubit(psi, two_ring, 0.0)
    assert np.array_equal(evolved.amplitudes, psi.amplitudes)


def test_evolution_is_diagonal(two_ring):
    rng = np.random.default_rng(31)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    psi = TwoQubitState(amps)
    for t in (0.1e-9, 0.37e-9, 1.4e-9):
        evolved = evolve_two_qubit(psi, two_ring, t)
        np.testing.assert_allclose(np.abs(evolved.amplitudes), np.abs(amps),
                                   rtol=1e-15)


def test_cz_action_on_equal_superposition(two_ring):
    t_cz = cz_gate_time(two_ring)
    psi = TwoQubitState.equal_superposition()
    evolved = evolve_two_qubit(psi, two_ring, t_cz, include_self_energy=False)
    target = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)
    np.testing.assert_allclose(evolved.amplitudes, target, atol=1e-12)


def test_gauge_invariant_phase_is_pi(two_ring):
    t_cz = cz_gate_time(two_ring)
    assert abs(entangling_phase(two_ring, t_cz) - math.pi) < 1e-10
    # the reduction must survive the huge single-ring phases
    raw = phase_vector(two_ring, t_cz, include_self_energy=True)
    assert float(max(abs(raw))) > 1e5


def test_cz_produces_maximal_entanglement(two_ring):
    t_cz = cz_gate_time(two_ring)
    evolved = evolve_two_qubit(TwoQubitState.equal_superposition(), two_ring,
                               t_cz, include_self_energy=True)
    np.testing.assert_allclose(evolved.schmidt_coefficients(),
                               1.0 / math.sqrt(2.0), atol=1e-10)


def test_product_state_stays_product_without_upper_a(two_ring):
    # no interaction phase accumulates while ring a stays in its ground state
    amps = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0)
    psi = TwoQubitState(amps)
    for t in (0.2e-9, 0.7e-9):
        evolved = evolve_two_qubit(psi, two_ring, t)
        schmidt = evolved.schmidt_coefficients()
        assert schmidt[1] < 1e-15


def test_fidelity_curve(two_ring):
    t_cz = cz_gate_time(two_ring)
    assert cz_fidelity(two_ring, 0.0) == pytest.approx(0.25, rel=1e-12)
    assert 1.0 - cz_fidelity(two_ring, t_cz) < 1e-10
    assert cz_fidelity(two_ring, 0.5 * t_cz) == pytest.approx(0.625, rel=1e-6)


@st.composite
def gate_runs(draw):
    """Rings of two different wires 0.05-0.2 mm apart; t up to 100 t_CZ."""
    material = Material(pair_density=PAIR_DENSITY, london_depth=LONDON_DEPTH,
                        skin_depth=SKIN_DEPTH)
    params_a, params_b = (derive_ring_params(RingDesign(
        radius=RADIUS, width=draw(st.floats(30e-9, 120e-9)),
        depth=draw(st.floats(5e-9, 20e-9))), material) for _ in range(2))
    separation = draw(st.floats(0.05e-3, 0.2e-3))
    mutual = mutual_inductance_coaxial(RADIUS, separation)
    config = TwoRingConfig(params_a=params_a, params_b=params_b,
                           separation=separation, mutual=mutual)
    return config, draw(st.floats(0.0, 100.0)) * cz_gate_time(config)


@settings(max_examples=300)
@given(gate_runs())
def test_cz_fidelity_matches_the_array_model(run):
    config, t = run
    psi0 = TwoQubitState.equal_superposition()
    evolved = evolve_two_qubit(psi0, config, t, include_self_energy=False)
    target = psi0.amplitudes * np.array([1.0, 1.0, 1.0, -1.0])
    oracle = float(abs(np.vdot(target, evolved.amplitudes)) ** 2)
    # the array model rounds the phase to 80 bits before its cos and sin,
    # so the two part by a few ulp as the phase grows
    assert abs(cz_fidelity(config, t) - oracle) <= 8 * math.ulp(oracle)


def test_self_energy_phases_match_spectrum(two_ring, published_params):
    t = 0.31e-9
    with_self = phase_vector(two_ring, t, include_self_energy=True)
    without = phase_vector(two_ring, t, include_self_energy=False)
    e2 = level_energy(2, published_params)
    np.testing.assert_allclose(
        np.asarray(with_self - without, dtype=float),
        np.array([0.0, 1.0, 1.0, 2.0]) * e2 * t / HBAR, rtol=1e-12)
