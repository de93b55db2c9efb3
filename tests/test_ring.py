import math

import numpy as np
import pytest

from oamring import constants
from oamring.constants import (COOPER_CHARGE, COOPER_MASS, FLUX_QUANTUM, HBAR,
                               SPEED_OF_LIGHT, VACUUM_PERMEABILITY)
from oamring.errors import NonPositiveLog
from oamring.fields import ring_wavefunction
from oamring.ring import (Material, RingDesign, RingParams, derive_ring_params,
                          kinetic_inductance, level_energy, level_supercurrent,
                          self_inductance, transition_angular_frequency)

from conftest import PUBLISHED_L_K, PUBLISHED_L_S


def test_constants_flux_quantum_consistent():
    h = HBAR * 2.0 * math.pi
    assert abs(FLUX_QUANTUM - h / COOPER_CHARGE) <= 1e-12 * FLUX_QUANTUM


def test_constants_all_positive():
    for name in ("FLUX_QUANTUM", "COOPER_CHARGE", "COOPER_MASS", "HBAR",
                 "VACUUM_PERMEABILITY", "VACUUM_PERMITTIVITY", "SPEED_OF_LIGHT"):
        assert getattr(constants, name) > 0.0


@pytest.mark.parametrize("kwargs", [
    dict(radius=-1e-6, width=60e-9, depth=10e-9),
    dict(radius=2e-6, width=-60e-9, depth=10e-9),
    dict(radius=2e-6, width=60e-9, depth=-10e-9),
    dict(radius=2e-6, width=3e-7, depth=10e-9),   # width >= radius/10
])
def test_design_validation(kwargs):
    with pytest.raises(ValueError):
        RingDesign(**kwargs)


def test_self_inductance_rosa(design):
    # oracle: the closed form evaluated directly at the Rosa radius
    a = 0.2235 * (design.width + design.depth)
    expected = VACUUM_PERMEABILITY * design.radius * (math.log(8 * design.radius / a) - 2.0)
    value = self_inductance(design)
    np.testing.assert_allclose(value, expected, rtol=1e-15)
    np.testing.assert_allclose(value, 12.39e-12, rtol=1e-3)
    np.testing.assert_allclose(value, 1.2390925549672131e-11, rtol=1e-12)


def test_self_inductance_matches_published(design):
    assert abs(self_inductance(design) - PUBLISHED_L_S) <= 0.05 * PUBLISHED_L_S


def test_self_inductance_half_mean(design):
    a = 0.25 * (design.width + design.depth)
    expected = VACUUM_PERMEABILITY * design.radius * (math.log(8 * design.radius / a) - 2.0)
    np.testing.assert_allclose(self_inductance(design, "half-mean"), expected,
                               rtol=1e-15)


def test_self_inductance_explicit_boundary(design):
    # at a = 8r/e^2 the bracket cancels and the inductance is exactly zero
    a = 8.0 * design.radius / math.exp(2.0)
    assert self_inductance(design, "explicit", wire_radius=a) == 0.0


def test_self_inductance_too_thick(design):
    # 8r/a = 4 < e^2 for a = 2r
    with pytest.raises(NonPositiveLog):
        self_inductance(design, "explicit", wire_radius=2 * design.radius)


def test_self_inductance_unknown_rule(design):
    with pytest.raises(ValueError, match="rule"):
        self_inductance(design, "euler")


def test_kinetic_inductance(design, material):
    expected = (2.0 * math.pi * design.radius * COOPER_MASS
                / (material.pair_density * COOPER_CHARGE ** 2
                   * design.width * design.depth))
    value = kinetic_inductance(design, material)
    np.testing.assert_allclose(value, expected, rtol=1e-15)
    np.testing.assert_allclose(value, 1.770e-11, rtol=1e-3)
    assert abs(value - PUBLISHED_L_K) <= 0.06 * PUBLISHED_L_K


def test_kinetic_inductance_cross_section_scaling(design, material):
    base = kinetic_inductance(design, material)
    doubled = RingDesign(radius=design.radius, width=2 * design.width,
                         depth=design.depth)
    assert kinetic_inductance(doubled, material) == base / 2.0


def test_derive_ring_params(design, material, chain_params):
    assert chain_params.L_T == chain_params.L_S + chain_params.L_K
    assert abs(chain_params.L_T - 31.3e-12) <= 0.05 * 31.3e-12
    expected_pairs = (material.pair_density * 2.0 * math.pi * design.radius
                      * design.width * design.depth)
    np.testing.assert_allclose(chain_params.n_pairs, expected_pairs, rtol=1e-15)
    np.testing.assert_allclose(chain_params.n_pairs, 1.583e8, rtol=1e-3)


def test_density_scaling(design, material, chain_params):
    denser = Material(pair_density=2 * material.pair_density,
                      london_depth=material.london_depth,
                      skin_depth=material.skin_depth)
    params2 = derive_ring_params(design, denser)
    assert params2.L_S == chain_params.L_S
    assert params2.L_K == chain_params.L_K / 2.0


def test_ring_params_invariants(design, material):
    with pytest.raises(ValueError, match="L_T"):
        RingParams(L_S=1e-11, L_K=2e-11, L_T=3.1e-11, n_pairs=1e8,
                   design=design, material=material)
    with pytest.raises(ValueError):
        RingParams(L_S=-1e-11, L_K=2e-11, L_T=1e-11, n_pairs=1e8,
                   design=design, material=material)


def test_level_energy(published_params):
    assert level_energy(0, published_params) == 0.0
    expected = (2 * FLUX_QUANTUM) ** 2 / (2.0 * published_params.L_T)
    np.testing.assert_allclose(level_energy(2, published_params), expected,
                               rtol=1e-15)
    np.testing.assert_allclose(level_energy(2, published_params), 2.732e-19,
                               rtol=1e-3)
    assert level_energy(2, published_params) == 4.0 * level_energy(1, published_params)


def test_spectrum_degenerate_and_monotonic(chain_params):
    for n in range(0, 11):
        assert level_energy(n, chain_params) == level_energy(-n, chain_params)
    energies = [level_energy(n, chain_params) for n in range(0, 11)]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_transition_frequency(published_params):
    w20 = transition_angular_frequency(2, 0, published_params)
    np.testing.assert_allclose(w20, 2.591e15, rtol=1e-3)
    wavelength = 2.0 * math.pi * SPEED_OF_LIGHT / w20
    np.testing.assert_allclose(wavelength, 727e-9, rtol=1e-3)
    # antisymmetry and zero on the diagonal
    assert transition_angular_frequency(0, 2, published_params) == -w20
    assert transition_angular_frequency(3, 3, published_params) == 0.0


def test_transition_consistent_with_energies(chain_params):
    w20 = transition_angular_frequency(2, 0, chain_params)
    gap = level_energy(2, chain_params) - level_energy(0, chain_params)
    assert abs(HBAR * w20 - gap) <= 1e-14 * gap


def test_supercurrent(published_params):
    assert level_supercurrent(0, published_params) == 0.0
    np.testing.assert_allclose(level_supercurrent(2, published_params), 1.321e-4,
                               rtol=1e-3)
    for n in (1, 3, 5):
        assert level_supercurrent(n, published_params) == \
            -level_supercurrent(-n, published_params)


def test_inductances_linear_in_radius(design, material):
    # fix the 8r/a ratio so the logarithmic bracket is unchanged
    scaled = RingDesign(radius=2 * design.radius, width=design.width,
                        depth=design.depth)
    a = design.radius / 100.0
    assert self_inductance(scaled, "explicit", wire_radius=2 * a) == \
        2.0 * self_inductance(design, "explicit", wire_radius=a)
    assert kinetic_inductance(scaled, material) == \
        2.0 * kinetic_inductance(design, material)


def test_wavefunction_ground_state(chain_params):
    value = ring_wavefunction(0, chain_params, 1.234, 0.0)
    assert value.imag == 0.0
    np.testing.assert_allclose(
        value.real, math.sqrt(chain_params.n_pairs / (2 * math.pi)), rtol=1e-15)


@pytest.mark.parametrize("n", [0, 1, -1, 2, -2, 4, -4])
def test_wavefunction_normalization(chain_params, n):
    # quadrature oracle: periodic trapezoid over one turn
    n_points = 512
    phi = np.arange(n_points) * (2 * np.pi / n_points)
    psi = ring_wavefunction(n, chain_params, phi, 3.7e-15)
    integral = float(np.sum(np.abs(psi) ** 2)) * (2 * np.pi / n_points)
    np.testing.assert_allclose(integral, chain_params.n_pairs, rtol=1e-10)


def test_wavefunction_single_valued(chain_params):
    phi = np.linspace(0.0, 2 * np.pi, 17)
    a = ring_wavefunction(3, chain_params, phi, 1e-15)
    b = ring_wavefunction(3, chain_params, phi + 2 * np.pi, 1e-15)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_wavefunction_modulus_independent_of_angle_and_time(chain_params):
    rng = np.random.default_rng(7)
    mags = [abs(ring_wavefunction(2, chain_params, phi, t))
            for phi, t in rng.uniform(0, 1, (20, 2))]
    np.testing.assert_allclose(
        mags, math.sqrt(chain_params.n_pairs / (2 * math.pi)), rtol=1e-12)
