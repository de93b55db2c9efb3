import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamring import _kernels, dynamics, load_bundled_config, resolve
from oamring.beam import (POLARIZATIONS, BeamDrive, IntensityConvention,
                          Polarization, amplitude_from_intensity,
                          azimuthal_component)
from oamring.constants import COOPER_CHARGE
from oamring.coupling import rabi_frequency
from oamring.dynamics import (StateVector, Trajectory, _build_term_arrays,
                              _frame_fits, _level_sets, _split_periods,
                              density_profile, dipole_moment, evolve,
                              floquet_min_periods, pattern_rotation_check)
from oamring.errors import NormDrift, NotTwoLevel, StepSizeUnderflow
from oamring.ring import transition_angular_frequency

from conftest import PUBLISHED_A0, PUBLISHED_INTENSITY


@pytest.fixture(scope="module")
def w20(chain_params):
    return transition_angular_frequency(2, 0, chain_params)


@pytest.fixture(scope="module")
def lg01_beam(w20):
    return BeamDrive(1, w20, PUBLISHED_A0, Polarization.linear_x())


@pytest.fixture(scope="module")
def rabi_period(chain_params):
    return 2 * np.pi / rabi_frequency(chain_params, PUBLISHED_A0)


@pytest.fixture(scope="module")
def full_traj(chain_params, lg01_beam, rabi_period):
    """Short full-mode run shared by the slow-path tests."""
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    return evolve(initial, lg01_beam, chain_params, 0.35 * rabi_period,
                  tol=1e-7, mode="full", n_samples=36)


def test_state_vector_validation():
    with pytest.raises(ValueError, match="normalized"):
        StateVector(n_max=2, amplitudes=np.array([1.0, 0, 0, 0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        StateVector(n_max=0, amplitudes=np.array([np.nan]))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="normalized"):
        StateVector.from_levels({0: np.nan})
    with pytest.raises(ValueError, match="shape"):
        StateVector(n_max=2, amplitudes=np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="outside basis"):
        StateVector.from_levels({5: 1.0}, n_max=4)
    state = StateVector.from_levels({0: 1.0, 2: 1.0}, n_max=4)
    assert state.population(0) == pytest.approx(0.5, rel=1e-15)
    assert state.amplitude(2) == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def test_zero_drive_is_static(chain_params, w20):
    beam = BeamDrive(1, w20, 0.0, Polarization.linear_x())
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    traj = evolve(initial, beam, chain_params, 1e-12, tol=1e-10, n_samples=11)
    assert np.all(traj.population_of(0) == 1.0)
    assert np.all(traj.norms == 1.0)


def test_evolve_argument_validation(chain_params, lg01_beam):
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    with pytest.raises(ValueError, match="tol"):
        evolve(initial, lg01_beam, chain_params, 1e-12, tol=1e-5)
    with pytest.raises(ValueError, match="t_final"):
        evolve(initial, lg01_beam, chain_params, -1.0)
    with pytest.raises(ValueError, match="mode"):
        evolve(initial, lg01_beam, chain_params, 1e-12, mode="secular")
    with pytest.raises(ValueError, match="sample_times"):
        evolve(initial, lg01_beam, chain_params, 1e-12,
               sample_times=[0.0, 2e-12])


@pytest.mark.parametrize("mode", ["rwa", "full"])
@pytest.mark.parametrize("t_final, sample_times", [
    (math.nan, None), (math.inf, None), (1e-12, [0.0, math.nan, 1e-12]),
    (1e300, None)])
def test_evolve_rejects_non_finite_times(chain_params, lg01_beam, mode,
                                         t_final, sample_times):
    # raised before any stepping; a NaN time would never be reached, and
    # 1e300 s is finite but overflows its count of drive periods
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    with pytest.raises(ValueError, match="finite"):
        evolve(initial, lg01_beam, chain_params, t_final, tol=1e-6,
               mode=mode, sample_times=sample_times)


@pytest.mark.parametrize("mode, t_final", [("rwa", 1e-12), ("full", 1e-11)])
def test_evolve_rejects_zero_samples(chain_params, lg01_beam, mode, t_final):
    # 1e-11 s is past floquet_min_periods(4), so "full" takes the Floquet path
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    with pytest.raises(ValueError, match="n_samples"):
        evolve(initial, lg01_beam, chain_params, t_final, tol=1e-6,
               mode=mode, n_samples=0)


def test_evolve_builds_no_state_vectors(monkeypatch, chain_params, lg01_beam):
    built = []
    real = StateVector.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    monkeypatch.setattr(StateVector, "__post_init__", counting)
    traj = evolve(initial, lg01_beam, chain_params, 1e-12, tol=1e-9,
                  mode="rwa", n_samples=2000)
    assert traj.amplitudes.shape == (2000, 17)
    assert built == []


def _direct_full_run(lg01_beam):
    # a full-mode run short of the Floquet path, so the kernel steps it
    period = 2 * np.pi / lg01_beam.omega
    return 0.5 * floquet_min_periods(4) * period


def test_evolve_rejects_norm_drift(monkeypatch, chain_params, lg01_beam):
    # a drift past max(1e-9, 10 tol) in any sample must be rejected
    real = _kernels.integrate

    def drifting(*args):
        out, n_steps = real(*args)
        return out * (1.0 + 1e-7), n_steps

    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    t_final = _direct_full_run(lg01_beam)
    evolve(initial, lg01_beam, chain_params, t_final, tol=1e-9, mode="full",
           n_samples=11)
    monkeypatch.setattr(_kernels, "integrate", drifting)
    with pytest.raises(NormDrift, match="state not normalized"):
        evolve(initial, lg01_beam, chain_params, t_final, tol=1e-9,
               mode="full", n_samples=11)


def test_evolve_rejects_nan_samples(monkeypatch, chain_params, lg01_beam):
    real = _kernels.integrate

    def nan_row(*args):
        out, n_steps = real(*args)
        out[-1] = np.nan
        return out, n_steps

    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    monkeypatch.setattr(_kernels, "integrate", nan_row)
    with pytest.raises(NormDrift, match="state not normalized"):
        evolve(initial, lg01_beam, chain_params, _direct_full_run(lg01_beam),
               tol=1e-9, mode="full", n_samples=11)


def test_evolve_rejects_rwa_norm_drift(monkeypatch, chain_params, lg01_beam):
    # the closed-form RWA samples pass the same norm check as stepped ones
    real = dynamics._evolve_rwa

    def drifting(*args):
        return real(*args) * (1.0 + 1e-7)

    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    evolve(initial, lg01_beam, chain_params, 1e-12, tol=1e-9, mode="rwa",
           n_samples=11)
    monkeypatch.setattr(dynamics, "_evolve_rwa", drifting)
    with pytest.raises(NormDrift, match="state not normalized"):
        evolve(initial, lg01_beam, chain_params, 1e-12, tol=1e-9,
               mode="rwa", n_samples=11)


def test_evolve_rejects_rwa_nan_samples(monkeypatch, chain_params, lg01_beam):
    real = dynamics._evolve_rwa

    def nan_row(*args):
        out = real(*args)
        out[-1] = np.nan
        return out

    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    monkeypatch.setattr(dynamics, "_evolve_rwa", nan_row)
    with pytest.raises(NormDrift, match="state not normalized"):
        evolve(initial, lg01_beam, chain_params, 1e-12, tol=1e-9,
               mode="rwa", n_samples=11)


def test_rwa_matches_two_level_rabi(chain_params, lg01_beam, rabi_period):
    # analytic oracle: resonant two-level populations sin^2(Omega t / 2)
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    traj = evolve(initial, lg01_beam, chain_params, 3 * rabi_period,
                  tol=1e-10, mode="rwa", n_samples=301)
    expected = np.sin(omega_rabi * traj.times / 2) ** 2
    assert np.max(np.abs(traj.population_of(2) - expected)) < 1e-3
    assert np.max(np.abs(traj.population_of(2) - expected)) < 1e-9
    assert np.max(np.abs(traj.norms - 1.0)) < 10 * 1e-10
    # the counter-rotating partner is never coupled under the RWA
    assert np.all(traj.population_of(-2) == 0.0)


def test_rwa_detuned_drive_oscillates_below_unity(chain_params, w20,
                                                  rabi_period):
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    detuned = BeamDrive(1, w20 + 2 * omega_rabi, PUBLISHED_A0,
                        Polarization.linear_x())
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    traj = evolve(initial, detuned, chain_params, 2 * rabi_period,
                  tol=1e-10, mode="rwa", n_samples=201)
    # generalized Rabi: peak transfer Omega^2 / (Omega^2 + delta^2) = 1/5
    peak = np.max(traj.population_of(2))
    np.testing.assert_allclose(peak, 0.2, atol=2e-3)


def test_mirror_drive_swaps_windings(chain_params, w20, rabi_period):
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    fwd = evolve(initial, BeamDrive(1, w20, PUBLISHED_A0, Polarization.linear_x()),
                 chain_params, rabi_period, tol=1e-10, mode="rwa", n_samples=51)
    rev = evolve(initial, BeamDrive(-1, w20, PUBLISHED_A0, Polarization.linear_x()),
                 chain_params, rabi_period, tol=1e-10, mode="rwa", n_samples=51)
    np.testing.assert_allclose(rev.populations, fwd.populations[:, ::-1],
                               atol=1e-9)


def test_full_mode_norm_drift(full_traj):
    assert np.max(np.abs(full_traj.norms - 1.0)) < 10 * 1e-7


def test_full_mode_leakage(full_traj):
    # regression bound, measured at the published drive strength
    leak = 1.0 - full_traj.population_of(0) - full_traj.population_of(2)
    assert np.max(leak) < 5e-7
    assert np.max(full_traj.population_of(-2)) < 1e-6


def test_full_mode_tracks_rwa_envelope(chain_params, lg01_beam, full_traj,
                                       rabi_period):
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    expected = np.sin(omega_rabi * full_traj.times / 2) ** 2
    assert np.max(np.abs(full_traj.population_of(2) - expected)) < 1e-3


def test_full_mode_basis_convergence(chain_params, lg01_beam, full_traj,
                                     rabi_period):
    # doubling the winding cutoff must not move any reported population
    initial = StateVector.from_levels({0: 1.0}, n_max=16)
    wide = evolve(initial, lg01_beam, chain_params, 0.35 * rabi_period,
                  tol=1e-7, mode="full", n_samples=36)
    narrow_pops = full_traj.populations
    wide_pops = wide.populations[:, 8:-8]
    assert np.max(np.abs(wide_pops - narrow_pops)) < 1e-8


def test_nonzero_reference_time(chain_params, lg01_beam, rabi_period):
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    t0 = 5e-12
    initial = StateVector.from_levels({0: 1.0}, n_max=8, reference_time=t0)
    traj = evolve(initial, lg01_beam, chain_params, rabi_period, tol=1e-10,
                  mode="rwa", n_samples=51)
    assert traj.times[0] == t0
    expected = np.sin(omega_rabi * (traj.times - t0) / 2) ** 2
    np.testing.assert_allclose(traj.population_of(2), expected, atol=1e-9)


def test_drive_phase_leaves_resonant_populations(chain_params, w20,
                                                 rabi_period):
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    plain = evolve(initial, BeamDrive(1, w20, PUBLISHED_A0,
                                      Polarization.linear_x()),
                   chain_params, rabi_period, tol=1e-10, mode="rwa",
                   n_samples=41)
    rotated = evolve(initial, BeamDrive(1, w20, PUBLISHED_A0 * np.exp(1.1j),
                                        Polarization.linear_x()),
                     chain_params, rabi_period, tol=1e-10, mode="rwa",
                     n_samples=41)
    np.testing.assert_allclose(rotated.populations, plain.populations,
                               atol=1e-9)


def test_custom_sample_times(chain_params, lg01_beam, rabi_period):
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    samples = np.array([0.0, 0.25, 0.5, 1.0]) * rabi_period
    traj = evolve(initial, lg01_beam, chain_params, rabi_period, tol=1e-9,
                  mode="rwa", sample_times=samples)
    assert np.array_equal(traj.times, samples)
    np.testing.assert_allclose(traj.population_of(2)[-1], 0.0, atol=1e-6)


def test_step_size_underflow(chain_params):
    # beats twenty orders above the window force the controller under h_min
    beam = BeamDrive(1, 1e30, PUBLISHED_A0, Polarization.linear_x())
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    with pytest.raises(StepSizeUnderflow):
        evolve(initial, beam, chain_params, 1.0, tol=1e-10, n_samples=3)


@pytest.mark.parametrize("mode, reference_time", [("rwa", math.inf),
                                                   ("rwa", math.nan),
                                                   ("full", math.inf)])
def test_non_finite_reference_time_rejected(mode, reference_time):
    # an unchecked start time made RWA runs return non-finite sample times,
    # or fail later as a numerical error
    model = resolve(load_bundled_config())
    with pytest.raises(ValueError, match="reference_time must be finite"):
        initial = StateVector.from_levels({0: 1.0}, n_max=8,
                                          reference_time=reference_time)
        evolve(initial, model.drive, model.params, 2e-13, mode=mode,
               n_samples=3)


def test_close_sample_times_do_not_underflow():
    model = resolve(load_bundled_config())
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    traj = evolve(initial, model.drive, model.params, 2e-13, tol=1e-9,
                  mode="rwa", sample_times=[0.0, 1e-13, 1e-13 + 1e-28, 2e-13])
    np.testing.assert_allclose(traj.populations[1], traj.populations[2],
                               rtol=0, atol=1e-12)


def _direct_amplitudes(initial, beam, params, times, tol, t_final):
    terms = _build_term_arrays(azimuthal_component(beam), params,
                               initial.n_max)
    out, _ = _kernels.integrate(initial.amplitudes, initial.reference_time,
                                times, *terms, tol, t_final)
    return out


@pytest.mark.parametrize("n_max", [4, 8, 16])
def test_floquet_matches_direct_stepping(chain_params, w20, n_max):
    # complex amplitudes, not populations: a lost frame phase shows only here,
    # and only off resonance, where the even levels' phases over a period
    # are not whole turns
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    beam = BeamDrive(1, w20 + 2 * omega_rabi, PUBLISHED_A0,
                     Polarization.linear_x())
    period = 2 * np.pi / beam.omega
    t0 = 5e-12
    n_periods = floquet_min_periods(n_max) + 2.5
    times = t0 + period * np.r_[0.0, 1.0, 2.0,
                                np.linspace(2.3, n_periods, 12)]
    initial = StateVector.from_levels({0: 0.8, 1: 0.36j, 2: 0.48}, n_max=n_max,
                                      reference_time=t0)
    traj = evolve(initial, beam, chain_params, n_periods * period,
                  tol=1e-9, mode="full", sample_times=times)
    floquet = traj.amplitudes
    direct = _direct_amplitudes(initial, beam, chain_params, times, 1e-9,
                                n_periods * period)
    assert np.max(np.abs(floquet - direct)) < 1e-10


def _rwa_terms(beam, params, n_max):
    rows, cols, camps, nus = _build_term_arrays(azimuthal_component(beam),
                                                params, n_max)
    keep = np.abs(nus) < beam.omega / 10.0
    return rows[keep], cols[keep], camps[keep], nus[keep]


@pytest.mark.parametrize("n_max", [8, 16])
@pytest.mark.parametrize("detuning", [0.0, 0.37, -1.3])
@pytest.mark.parametrize("polarization", list(POLARIZATIONS))
def test_rwa_closed_form_matches_direct_stepping(chain_params, w20,
                                                 rabi_period, polarization,
                                                 detuning, n_max):
    # complex amplitudes against the kernel stepping the same kept terms
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    beam = BeamDrive(1, w20 + detuning * omega_rabi, PUBLISHED_A0,
                     POLARIZATIONS[polarization]())
    t0, t_final = 5e-12, 3 * rabi_period
    initial = StateVector.from_levels({0: 0.8, 1: 0.36j, 2: 0.48}, n_max=n_max,
                                      reference_time=t0)
    traj = evolve(initial, beam, chain_params, t_final, mode="rwa",
                  n_samples=4000)
    assert traj.n_steps == 0
    terms = _rwa_terms(beam, chain_params, n_max)
    direct, _ = _kernels.integrate(initial.amplitudes, t0, traj.times, *terms,
                                   1e-13, t_final)
    assert np.max(np.abs(traj.amplitudes - direct)) < 1e-10

    # levels no chain of kept terms links to the initial state stay exactly 0
    rows, cols = terms[:2]
    reached = set(np.flatnonzero(initial.amplitudes).tolist())
    while True:
        grown = reached | set(rows[np.isin(cols, list(reached))].tolist())
        if grown == reached:
            break
        reached = grown
    unreached = [i for i in range(2 * n_max + 1) if i not in reached]
    assert unreached
    assert np.all(traj.amplitudes[:, unreached] == 0.0)


def test_rwa_inconsistent_frame_falls_back_to_stepping(monkeypatch,
                                                       chain_params,
                                                       lg01_beam):
    # a synthetic 3-cycle whose beats add up to 0.15 omega: no level
    # potential fits it, so the RWA branch steps it with the kernel
    omega = lg01_beam.omega
    nu = 0.05 * omega
    rows = np.array([1, 2, 0, 0, 1, 2])
    cols = np.array([0, 1, 2, 1, 2, 0])
    camps = np.full(6, -1e-3j * omega)          # a Hermitian coupling
    nus = np.array([nu, nu, nu, -nu, -nu, -nu])
    consistent = np.array([nu, nu, -2 * nu, -nu, -nu, 2 * nu])
    for beats, fits in ((consistent, True), (nus, False)):
        theta, _ = _level_sets(3, rows, cols, beats)
        assert _frame_fits(theta, rows, cols, beats, omega) is fits

    terms = (rows, cols, camps, nus)
    monkeypatch.setattr(dynamics, "_build_term_arrays", lambda *args: terms)
    initial = StateVector.from_levels({0: 1.0}, n_max=1)
    t_final = 20 * 2 * np.pi / omega
    traj = evolve(initial, lg01_beam, chain_params, t_final, tol=1e-9,
                  mode="rwa", n_samples=9)
    stepped, n_steps = _kernels.integrate(initial.amplitudes, 0.0, traj.times,
                                          *terms, 1e-9, t_final)
    assert traj.n_steps == n_steps > 0
    np.testing.assert_array_equal(traj.amplitudes, stepped)


@settings(max_examples=60)
@given(oam_index=st.integers(-6, 6),
       polarization=st.sampled_from(list(POLARIZATIONS)),
       detuning=st.floats(-3.0, 3.0),
       n_max=st.sampled_from([2, 8, 32, 64]),
       convention=st.sampled_from(list(IntensityConvention)))
def test_rwa_frame_is_consistent_property(chain_params, oam_index,
                                          polarization, detuning, n_max,
                                          convention):
    # every kept beat is a difference of level potentials, so RWA runs
    # never fall back to stepping anywhere in the config space
    w20 = transition_angular_frequency(2, 0, chain_params)
    a0 = amplitude_from_intensity(PUBLISHED_INTENSITY, w20, convention)
    omega = w20 + detuning * rabi_frequency(chain_params, a0)
    beam = BeamDrive(oam_index, omega,
                     amplitude_from_intensity(PUBLISHED_INTENSITY, omega,
                                              convention),
                     POLARIZATIONS[polarization]())
    rows, cols, _, nus = _rwa_terms(beam, chain_params, n_max)
    dim = 2 * n_max + 1
    theta, sets = _level_sets(dim, rows, cols, nus)
    assert _frame_fits(theta, rows, cols, nus, omega)
    np.testing.assert_allclose(theta[rows] - theta[cols], nus, rtol=0,
                               atol=1e-12 * omega)
    assert sorted(i for members in sets for i in members) == list(range(dim))
    set_of = {i: k for k, members in enumerate(sets) for i in members}
    assert all(set_of[r] == set_of[c] for r, c in zip(rows, cols))


def test_path_choice_follows_run_shape(monkeypatch, chain_params, lg01_beam):
    state_ranks = []
    real = _kernels.integrate

    def spy(c0, *args):
        state_ranks.append(np.ndim(c0))
        return real(c0, *args)

    monkeypatch.setattr(_kernels, "integrate", spy)
    period = 2 * np.pi / lg01_beam.omega
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    shortest = floquet_min_periods(4) * period
    for mode, t_final, ranks in [("full", shortest, [2]),
                                 ("full", 0.9 * shortest, [1]),
                                 ("rwa", shortest, [])]:
        state_ranks.clear()
        evolve(initial, lg01_beam, chain_params, t_final, tol=1e-6, mode=mode,
               n_samples=5)
        assert state_ranks == ranks, mode


@pytest.mark.parametrize("share", [0.5, 1.0])   # direct, then Floquet
def test_full_run_steps_only_the_reached_levels(monkeypatch, chain_params,
                                                lg01_beam, share):
    # an OAM-1 drive changes the winding by 0, +-2 or +-4, so from |0> only
    # the n_max + 1 even levels are stepped and the odd ones stay exactly 0
    stepped = []
    real = _kernels.integrate

    def spy(c0, *args):
        stepped.append(np.shape(c0)[0])
        return real(c0, *args)

    monkeypatch.setattr(_kernels, "integrate", spy)
    n_max = 8
    period = 2 * np.pi / lg01_beam.omega
    initial = StateVector.from_levels({0: 1.0}, n_max=n_max)
    traj = evolve(initial, lg01_beam, chain_params,
                  share * floquet_min_periods(n_max) * period, tol=1e-6,
                  mode="full", n_samples=7)
    assert stepped == [n_max + 1]
    assert np.all(traj.amplitudes[:, 1::2] == 0.0)      # odd windings
    assert np.all(traj.amplitudes[-1, ::2] != 0.0)


@pytest.mark.parametrize("n_periods, rank", [
    (0.999 * floquet_min_periods(64), 1), (1000.0, 2)],
    ids=["direct", "floquet"])
def test_norm_drift_within_budget_at_large_n_max(monkeypatch, n_periods, rank):
    ranks = []
    real = _kernels.integrate

    def spy(c0, *args):
        ranks.append(np.ndim(c0))
        return real(c0, *args)

    monkeypatch.setattr(_kernels, "integrate", spy)
    model = resolve(load_bundled_config())
    period = 2 * np.pi / model.drive.omega
    initial = StateVector.from_levels({0: 1.0}, n_max=64)
    tol = 1e-6
    traj = evolve(initial, model.drive, model.params, n_periods * period,
                  tol=tol, mode="full", n_samples=9)
    assert ranks == [rank]
    assert np.max(np.abs(traj.norms - 1.0)) <= 10 * tol


def test_floquet_chunks_match_one_pass(monkeypatch, chain_params, lg01_beam):
    # a budget of a few propagators of the 9 levels splits the distinct
    # sample phases into groups: the pass over the period records the first
    # group and U_I(T), and each later group is stepped on from the last
    # propagator of the one before.  The second grid puts samples on whole
    # periods and repeats its offsets in every period, so one phase serves
    # samples in many periods, within and across the group boundaries.
    n_max = 4
    period = 2 * np.pi / lg01_beam.omega
    initial = StateVector.from_levels({0: 0.8, 1: 0.6j}, n_max=n_max)
    offsets = np.array([0.0, 0.125, 0.25, 0.5, 0.625, 0.75]) * period
    shared = np.concatenate([m * period + offsets for m in range(40)])

    def run(times):
        return evolve(initial, lg01_beam, chain_params, 40.3 * period,
                      tol=1e-9, mode="full", sample_times=times,
                      n_samples=201)

    real = _kernels.integrate
    for propagators, times in ((10, None), (3, shared)):
        one_pass = run(times).amplitudes
        budget = propagators * 16 * (2 * n_max + 1) ** 2
        calls = []

        def spy(c0, t0, sample_times, *args):
            out, n_steps = real(c0, t0, sample_times, *args)
            calls.append((c0, t0, sample_times, out))
            return out, n_steps

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_RECORD_BYTES", budget)
            patch.setattr(_kernels, "integrate", spy)
            chunked = run(times)

        # pass 1 records U_I(T) after its group; each later call starts from
        # the last record of the group before it
        assert calls[0][2][-1] == period
        groups = [(calls[0][2][:-1], calls[0][3][:-1])] + [
            (sample_times, out) for _, _, sample_times, out in calls[1:]]
        assert len(groups) >= 3
        for (last_times, last_out), (c0, t0, _, _) in zip(groups, calls[1:]):
            assert t0 == last_times[-1]
            assert np.array_equal(c0, last_out[-1])     # a propagator
        _, tau = _split_periods(chunked.times, 0.0, period)
        phases, counts = np.unique(tau, return_counts=True)
        if times is shared:
            assert counts[0] == 40 and np.any(counts[propagators - 1:] > 1)
        recorded = np.concatenate([group for group, _ in groups])
        assert np.array_equal(recorded, phases)     # each phase once
        assert max(out.nbytes for _, _, _, out in calls) <= budget
        assert np.max(np.abs(chunked.amplitudes - one_pass)) < 1e-10


@pytest.mark.parametrize("mode", ["rwa", "full"])
def test_sample_grid_does_not_steer_the_steps(chain_params, lg01_beam,
                                              rabi_period, mode):
    # RWA is closed-form; the full run takes the Floquet path.  Its samples
    # stay in the first period, so every sample is the recorded propagator
    # times the initial state and no powering order differs between the
    # grids.
    period = 2 * np.pi / lg01_beam.omega
    t_final = (0.3 * rabi_period if mode == "rwa"
               else floquet_min_periods(4) * period)
    span = t_final if mode == "rwa" else 0.75 * period
    initial = StateVector.from_levels({0: 0.8, 2: 0.6j}, n_max=4)
    fine = np.linspace(0.0, span, 2001)
    coarse, dense = (evolve(initial, lg01_beam, chain_params, t_final,
                            tol=1e-9, mode=mode, sample_times=times)
                     for times in (fine[::500], fine))
    assert coarse.n_steps == dense.n_steps
    np.testing.assert_array_equal(coarse.amplitudes, dense.amplitudes[::500])


def test_floquet_period_boundary_samples(chain_params, lg01_beam):
    # t0 + jT rounded either way splits as (j, 0), never as (j - 1, ~T)
    period = 2 * np.pi / lg01_beam.omega
    t0 = 3e-12
    initial = StateVector.from_levels({0: 1.0}, n_max=4, reference_time=t0)
    t_final = 40 * period
    boundary = t0 + 17 * period
    states = []
    for shift in (-4, 0, 4):
        at = boundary + shift * np.spacing(boundary)
        traj = evolve(initial, lg01_beam, chain_params, t_final, tol=1e-6,
                      mode="full",
                      sample_times=[t0, t0 + 3.5 * period, at, t0 + t_final])
        states.append(traj.amplitudes[2])
    np.testing.assert_array_equal(states[0], states[1])
    np.testing.assert_array_equal(states[2], states[1])


def test_floquet_records_each_phase_once(monkeypatch, chain_params,
                                        lg01_beam):
    # samples on whole periods all have phase 0, so pass 1 keeps the
    # propagator there and at T only, not one per sample
    shapes = []
    real = _kernels.integrate

    def spy(*args):
        out, n_steps = real(*args)
        shapes.append(out.shape)
        return out, n_steps

    monkeypatch.setattr(_kernels, "integrate", spy)
    period = 2 * np.pi / lg01_beam.omega
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    evolve(initial, lg01_beam, chain_params, 40 * period, tol=1e-6,
           mode="full", sample_times=period * np.arange(41))
    assert shapes == [(2, 5, 5)]


def test_split_periods_exact_at_huge_counts():
    whole, tau = _split_periods(np.array([0.0, 1.0, 2.5]), 0.0, 1e-30)
    assert all(isinstance(m, int) for m in whole)
    assert whole[0] == 0 and whole[1] > 2 ** 64
    assert np.all((tau >= 0.0) & (tau < 1e-30))


def test_floquet_cost_flat_in_period_count(chain_params, lg01_beam):
    period = 2 * np.pi / lg01_beam.omega
    initial = StateVector.from_levels({0: 1.0}, n_max=4)
    steps = []
    for n_periods in (1e3, 1e5):
        traj = evolve(initial, lg01_beam, chain_params, n_periods * period,
                      tol=1e-6, mode="full", n_samples=5)
        assert np.max(np.abs(traj.norms - 1.0)) < 10 * 1e-6
        steps.append(traj.n_steps)
    # direct stepping would take a hundred times as many; the tighter error
    # budget per period costs a few times more steps per pass
    assert steps[1] < 5 * steps[0]


def test_density_uniform_ground_state(chain_params):
    state = StateVector.from_levels({0: 1.0}, n_max=4)
    phi = np.linspace(0, 2 * np.pi, 33)
    dens = density_profile(state, chain_params, phi, 2.2e-13)
    np.testing.assert_allclose(
        dens, chain_params.n_pairs / (2 * np.pi), rtol=1e-12)


def test_density_two_lobe_interference(chain_params):
    state = StateVector.from_levels({0: 1.0, 2: 1.0}, n_max=4)
    phi = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    dens = density_profile(state, chain_params, phi, 0.0)
    expected = chain_params.n_pairs / (2 * np.pi) * (1.0 + np.cos(2 * phi))
    np.testing.assert_allclose(dens, expected, rtol=0,
                               atol=1e-12 * chain_params.n_pairs)
    scale = chain_params.n_pairs / (2 * np.pi)
    assert density_profile(state, chain_params, np.pi / 2, 0.0) < 1e-12 * scale
    assert density_profile(state, chain_params, 3 * np.pi / 2, 0.0) < 1e-12 * scale


def test_density_single_lobe(chain_params):
    state = StateVector.from_levels({0: 1.0, 1: 1.0}, n_max=4)
    omega_10 = transition_angular_frequency(1, 0, chain_params)
    phi = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for t in (0.0, 3.3e-15):
        dens = density_profile(state, chain_params, phi, t)
        expected = chain_params.n_pairs / (2 * np.pi) \
            * (1.0 + np.cos(phi + omega_10 * t))
        np.testing.assert_allclose(dens, expected, rtol=0,
                                   atol=1e-12 * chain_params.n_pairs)


def test_density_normalization_along_trajectory(chain_params, lg01_beam,
                                                rabi_period):
    initial = StateVector.from_levels({0: 1.0}, n_max=8)
    traj = evolve(initial, lg01_beam, chain_params, 0.5 * rabi_period,
                  tol=1e-9, mode="rwa", n_samples=6)
    n_points = 512
    phi = np.arange(n_points) * (2 * np.pi / n_points)
    for t, amps in zip(traj.times, traj.amplitudes):
        state = StateVector(n_max=8, amplitudes=amps)
        dens = density_profile(state, chain_params, phi, float(t))
        integral = float(np.sum(dens)) * (2 * np.pi / n_points)
        np.testing.assert_allclose(integral, chain_params.n_pairs, rtol=1e-10)


def _quadrature_dipole(state, params, t, n_points=512):
    # periodic trapezoid over one turn, exact for profiles band-limited
    # below n_points
    phi = np.arange(n_points) * (2 * np.pi / n_points)
    dens = density_profile(state, params, phi, t)
    weight = COOPER_CHARGE * params.design.radius * 2 * np.pi / n_points
    return weight * np.array([np.sum(dens * np.cos(phi)),
                              np.sum(dens * np.sin(phi))])


@pytest.mark.parametrize("n_max", [1, 4, 8, 16, 32])
def test_dipole_matches_quadrature_oracle(chain_params, n_max):
    rng = np.random.default_rng(100 + n_max)
    scale = (COOPER_CHARGE * chain_params.n_pairs
             * chain_params.design.radius)
    c = (rng.normal(size=(8, 2 * n_max + 1))
         + 1j * rng.normal(size=(8, 2 * n_max + 1)))
    traj = Trajectory(times=np.sort(rng.uniform(0.0, 1e-11, size=8)),
                      amplitudes=c / np.linalg.norm(c, axis=1, keepdims=True))
    stacked = dipole_moment(traj, chain_params, traj.times)
    assert stacked.shape == (8, 2)
    for t, amps, dip in zip(traj.times, traj.amplitudes, stacked):
        state = StateVector(n_max=n_max, amplitudes=amps)
        np.testing.assert_allclose(
            dipole_moment(state, chain_params, t),
            _quadrature_dipole(state, chain_params, t),
            rtol=0, atol=1e-10 * scale)
        # one call over the trajectory equals per-sample calls; vectorised
        # and scalar complex products may round apart in the last bit
        np.testing.assert_allclose(dip, dipole_moment(state, chain_params, t),
                                   rtol=0, atol=64 * np.finfo(float).eps * scale)


def test_dipole_qubit_subspace_dark(chain_params):
    # any |0>,|2> superposition keeps an inversion-symmetric density
    rng = np.random.default_rng(23)
    scale = (COOPER_CHARGE * chain_params.n_pairs
             * chain_params.design.radius)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        state = StateVector.from_levels({0: c[0], 2: c[1]}, n_max=4)
        t = rng.uniform(0.0, 1e-12)
        assert np.linalg.norm(dipole_moment(state, chain_params, t)) \
            < 1e-12 * scale


def test_dipole_pure_level_dark(chain_params):
    scale = (COOPER_CHARGE * chain_params.n_pairs
             * chain_params.design.radius)
    for n in (0, 1, -3):
        state = StateVector.from_levels({n: 1.0}, n_max=4)
        assert np.linalg.norm(dipole_moment(state, chain_params, 0.0)) \
            < 1e-14 * scale


def test_dipole_bright_superposition(chain_params):
    state = StateVector.from_levels({0: 1.0, 1: 1.0}, n_max=4)
    omega_10 = transition_angular_frequency(1, 0, chain_params)
    expected = (COOPER_CHARGE * chain_params.n_pairs
                * chain_params.design.radius / 2.0)
    mags = []
    for t in (0.0, 0.4 / omega_10, 1.1 / omega_10):
        dip = dipole_moment(state, chain_params, t)
        mags.append(np.hypot(dip[0], dip[1]))
    np.testing.assert_allclose(mags, expected, rtol=1e-10)
    # direction rotates with the level beat
    dt = 0.1 / omega_10
    d0 = dipole_moment(state, chain_params, 0.0)
    d1 = dipole_moment(state, chain_params, dt)
    turned = math.atan2(d1[1], d1[0]) - math.atan2(d0[1], d0[0])
    np.testing.assert_allclose(turned, -omega_10 * dt, rtol=1e-8)


def test_pattern_rotation_qubit_pair(chain_params, w20):
    state = StateVector.from_levels({0: 1.0, 2: 1.0}, n_max=4)
    velocity = pattern_rotation_check(state, chain_params, 0.3 / w20)
    np.testing.assert_allclose(velocity, w20 / 2.0, rtol=1e-14)


def test_pattern_rotation_dipole_pair(chain_params):
    omega_10 = transition_angular_frequency(1, 0, chain_params)
    state = StateVector.from_levels({0: 1.0, 1: 1.0}, n_max=4)
    velocity = pattern_rotation_check(state, chain_params, 0.5 / omega_10)
    np.testing.assert_allclose(velocity, omega_10, rtol=1e-14)


def test_pattern_rotation_degenerate_pair_static(chain_params):
    state = StateVector.from_levels({2: 1.0, -2: 1.0}, n_max=4)
    assert pattern_rotation_check(state, chain_params, 1e-13) == 0.0


def test_pattern_rotation_requires_two_levels(chain_params):
    with pytest.raises(NotTwoLevel):
        pattern_rotation_check(StateVector.from_levels({0: 1.0}, n_max=4),
                               chain_params, 1e-13)
    three = StateVector.from_levels({0: 1.0, 1: 1.0, 2: 1.0}, n_max=4)
    with pytest.raises(NotTwoLevel):
        pattern_rotation_check(three, chain_params, 1e-13)
