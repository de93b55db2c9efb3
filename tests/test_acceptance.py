"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import json
import math
import time

import numpy as np

from oamring.beam import BeamDrive, Polarization, azimuthal_component
from oamring.cli import run
from oamring.constants import (COOPER_CHARGE, COOPER_MASS, SPEED_OF_LIGHT,
                               VACUUM_PERMEABILITY)
from oamring.coupling import (matrix_element_terms, rabi_frequency,
                              selection_rules)
from oamring.czgate import TwoQubitState, evolve_two_qubit, phase_vector
from oamring.dynamics import (StateVector, dipole_moment, evolve,
                              pattern_rotation_check)
from oamring.fields import (evaluate_matrix_element,
                            matrix_element_quadrature_oracle)
from oamring.ring import transition_angular_frequency
from oamring.twoqubit import (TwoRingConfig, cz_gate_time,
                              mutual_inductance_coaxial)

from conftest import PUBLISHED_A0, PUBLISHED_L_K, PUBLISHED_L_S, RING_SEPARATION

POLARIZATIONS = {
    "linear-x": Polarization.linear_x(),
    "right-circular": Polarization.right_circular(),
    "left-circular": Polarization.left_circular(),
}


def _report(num: int, description: str, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num:02d} {status}: {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_resonance_wavelength(chain_params, published_params):
    failures = []
    lam_published = (2 * math.pi * SPEED_OF_LIGHT
                       / transition_angular_frequency(2, 0, published_params))
    if abs(lam_published - 727e-9) > 0.015 * 727e-9:
        failures.append(f"wavelength at published L_T: {lam_published}")
    # the derived wavelength tracks the inductance chain exactly
    lam_chain = (2 * math.pi * SPEED_OF_LIGHT
                 / transition_angular_frequency(2, 0, chain_params))
    tracked = lam_chain * published_params.L_T / chain_params.L_T
    if abs(tracked - lam_published) > 1e-12 * lam_published:
        failures.append(f"chain tracking broken: {tracked} vs {lam_published}")
    _report(1, "0->2 vacuum wavelength is 727 nm within 1.5%, tracking L_T",
            failures)


def test_criterion_02_inductances(design, material, chain_params):
    failures = []
    a = 0.2235 * (design.width + design.depth)
    closed_ls = VACUUM_PERMEABILITY * design.radius * (
        math.log(8 * design.radius / a) - 2.0)
    closed_lk = (2 * math.pi * design.radius * COOPER_MASS
                 / (material.pair_density * COOPER_CHARGE ** 2
                    * design.width * design.depth))
    checks = [
        ("L_S vs published", chain_params.L_S, PUBLISHED_L_S, 0.05),
        ("L_K vs published", chain_params.L_K, PUBLISHED_L_K, 0.06),
        ("L_T vs published", chain_params.L_T, 31.3e-12, 0.05),
    ]
    for name, got, want, tol in checks:
        if abs(got - want) > tol * want:
            failures.append(f"{name}: {got} vs {want}")
    for name, got, want in [("L_S closed form", chain_params.L_S, closed_ls),
                            ("L_K closed form", chain_params.L_K, closed_lk),
                            ("L_T sum", chain_params.L_T, closed_ls + closed_lk)]:
        if abs(got - want) > 1e-12 * want:
            failures.append(f"{name}: {got} vs {want}")
    _report(2, "inductance chain matches published values and closed forms",
            failures)


def test_criterion_03_two_qubit_numbers(published_params, chain_params):
    failures = []
    mutual = mutual_inductance_coaxial(published_params.design.radius,
                                       RING_SEPARATION)
    if abs(mutual - 3.2e-17) > 0.02 * 3.2e-17:
        failures.append(f"mutual inductance {mutual}")
    t_cz = cz_gate_time(TwoRingConfig.from_separation(published_params,
                                                      RING_SEPARATION))
    if abs(t_cz - 0.6e-9) > 0.05 * 0.6e-9:
        failures.append(f"gate time at published L_T: {t_cz}")
    # gate time tracks the inductance chain quadratically
    t_cz_chain = cz_gate_time(TwoRingConfig.from_separation(chain_params,
                                                            RING_SEPARATION))
    tracked = t_cz_chain * (published_params.L_T / chain_params.L_T) ** 2
    if abs(tracked - t_cz) > 1e-12 * t_cz:
        failures.append(f"chain tracking broken: {tracked} vs {t_cz}")
    _report(3, "mutual inductance 3.2e-5 pH within 2%, gate time 0.6 ns "
            "within 5%", failures)


def test_criterion_04_rabi_frequency_band(chain_params):
    failures = []
    omega = rabi_frequency(chain_params, PUBLISHED_A0)
    cyclic_ghz = omega / (2 * math.pi * 1e9)
    ratio = cyclic_ghz / 54.0
    if not (1.0 / (2 * math.pi) <= ratio <= 2 * math.pi):
        failures.append(f"Rabi {cyclic_ghz} GHz out of band around 54 GHz")
    code, text = run(["--format", "json", "feasibility"])
    conventions = " ".join(json.loads(text)["conventions"])
    if code != 0 or "paper-consistent" not in conventions \
            or "angular" not in conventions:
        failures.append("convention statement missing from feasibility report")
    _report(4, "published Rabi figure reproduced within the documented "
            "convention band", failures)


def test_criterion_05_matrix_element_oracle(chain_params):
    failures = []
    w20 = transition_angular_frequency(2, 0, chain_params)
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for l in range(-2, 3):
        for pol in POLARIZATIONS.values():
            drive = azimuthal_component(
                BeamDrive(l, w20, PUBLISHED_A0 * np.exp(0.3j), pol))
            times = rng.uniform(0.0, 20 * np.pi / w20, 20)
            for m in range(-4, 5):
                for n in range(-4, 5):
                    terms = matrix_element_terms(m, n, drive, chain_params)
                    for t in times:
                        recon = evaluate_matrix_element(terms, t)
                        oracle = matrix_element_quadrature_oracle(
                            m, n, drive, chain_params, t)
                        scale = max(abs(recon), abs(oracle))
                        if scale < 1e-30:
                            continue
                        worst = max(worst, abs(recon - oracle) / scale)
    elapsed = time.perf_counter() - start
    if worst > 1e-10:
        failures.append(f"worst relative deviation {worst}")
    if elapsed > 10.0:
        failures.append(f"sweep took {elapsed:.1f} s")
    _report(5, "closed-form elements match the 512-point quadrature oracle "
            f"to 1e-10 (worst {worst:.2e}, {elapsed:.1f} s)", failures)


def test_criterion_06_selection_rules(chain_params):
    failures = []
    w20 = transition_angular_frequency(2, 0, chain_params)

    def rules(pol):
        return selection_rules(azimuthal_component(
            BeamDrive(1, w20, PUBLISHED_A0, pol)))

    expected_linear = {(2, 1), (-2, 1), (2, 2), (-2, 2), (4, 2), (-4, 2)}
    expected_rc = {(2, 1), (-2, 1), (4, 2), (-4, 2)}
    if rules(Polarization.linear_x()) != expected_linear:
        failures.append("linear-x set mismatch")
    if rules(Polarization.right_circular()) != expected_rc:
        failures.append("right-circular set mismatch")
    if rules(Polarization.left_circular()) != set():
        failures.append("left-circular set not empty")
    _report(6, "polarization selection rules match exactly", failures)


def _fit_frequency(times, populations, omega_guess):
    """Deterministic least-squares fit of sin^2(omega t / 2)."""

    def ssr(omega):
        return float(np.sum((np.sin(omega * times / 2) ** 2 - populations) ** 2))

    lo, hi = 0.9 * omega_guess, 1.1 * omega_guess
    grid = np.linspace(lo, hi, 201)
    center = grid[int(np.argmin([ssr(w) for w in grid]))]
    span = (hi - lo) / 200
    a, b = center - span, center + span
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_gold * (b - a)
    d = a + inv_gold * (b - a)
    for _ in range(80):
        if ssr(c) < ssr(d):
            b, d = d, c
            c = b - inv_gold * (b - a)
        else:
            a, c = c, d
            d = a + inv_gold * (b - a)
    return 0.5 * (a + b)


def test_criterion_07_dynamics_oracle(chain_params):
    failures = []
    start = time.perf_counter()
    w20 = transition_angular_frequency(2, 0, chain_params)
    omega_rabi = rabi_frequency(chain_params, PUBLISHED_A0)
    period = 2 * np.pi / omega_rabi
    beam = BeamDrive(1, w20, PUBLISHED_A0, Polarization.linear_x())
    initial = StateVector.from_levels({0: 1.0}, n_max=8)

    rwa = evolve(initial, beam, chain_params, 3 * period, tol=1e-10,
                 mode="rwa", n_samples=301)
    rwa_err = float(np.max(np.abs(rwa.population_of(2)
                                  - np.sin(omega_rabi * rwa.times / 2) ** 2)))
    if rwa_err > 1e-3:
        failures.append(f"RWA deviation from sin^2 oracle: {rwa_err}")

    full = evolve(initial, beam, chain_params, 1.2 * period, tol=1e-6,
                  mode="full", n_samples=601)
    fitted = _fit_frequency(full.times, full.population_of(2), omega_rabi)
    if abs(fitted - omega_rabi) > 0.02 * omega_rabi:
        failures.append(f"fitted Rabi {fitted} vs {omega_rabi}")
    leak = float(np.max(full.population_of(-2)))
    if leak > 1e-6:
        failures.append(f"counter-rotating leakage {leak}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"dynamics checks took {elapsed:.1f} s")
    _report(7, "RWA matches the two-level oracle, full mode reproduces the "
            f"Rabi rate within 2% ({elapsed:.1f} s)", failures)


def test_criterion_08_dipole_properties(chain_params):
    failures = []
    rng = np.random.default_rng(8)
    scale = (COOPER_CHARGE * chain_params.n_pairs
             * chain_params.design.radius)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        state = StateVector.from_levels({0: c[0], 2: c[1]}, n_max=4)
        mag = float(np.linalg.norm(
            dipole_moment(state, chain_params, rng.uniform(0, 1e-12))))
        if mag > 1e-12 * scale:
            failures.append(f"qubit-subspace dipole {mag}")
            break
    bright = StateVector.from_levels({0: 1.0, 1: 1.0}, n_max=4)
    mag = float(np.linalg.norm(dipole_moment(bright, chain_params, 4.4e-15)))
    if abs(mag - scale / 2) > 1e-10 * (scale / 2):
        failures.append(f"bright-state dipole {mag} vs {scale / 2}")
    for levels, expect in [({0: 1.0, 2: 1.0}, 0.5),
                           ({0: 1.0, 1: 1.0}, 1.0),
                           ({-1: 1.0, 3: 1.0}, 2.0)]:
        state = StateVector.from_levels(levels, n_max=4)
        w20 = transition_angular_frequency(2, 0, chain_params)
        velocity = pattern_rotation_check(state, chain_params, 0.2 / w20)
        pair = sorted(levels)
        want = (transition_angular_frequency(pair[1], pair[0], chain_params)
                / (pair[1] - pair[0]))
        if abs(velocity - want) > 1e-12 * abs(want):
            failures.append(f"rotation rate for {pair}: {velocity} vs {want}")
    _report(8, "dipole darkness of the qubit subspace and rigid pattern "
            "rotation verified", failures)


def test_criterion_09_cz_gate(published_params):
    failures = []
    config = TwoRingConfig.from_separation(published_params, RING_SEPARATION)
    t_cz = cz_gate_time(config)
    raw = phase_vector(config, t_cz, include_self_energy=True)
    residual = float(raw[0] - raw[1] - raw[2] + raw[3])
    if abs(residual - math.pi) > 1e-10:
        failures.append(f"gauge-invariant phase {residual} vs pi")
    evolved = evolve_two_qubit(TwoQubitState.equal_superposition(), config,
                               t_cz, include_self_energy=True)
    schmidt = evolved.schmidt_coefficients()
    if np.max(np.abs(schmidt - 1 / math.sqrt(2))) > 1e-10:
        failures.append(f"Schmidt coefficients {schmidt}")
    _report(9, "accumulated phases equal CZ up to local Z gauge; equal "
            "superposition becomes maximally entangled", failures)


def test_criterion_10_determinism():
    failures = []
    commands = [
        ["--format", "json", "feasibility"],
        ["--format", "json", "spectrum"],
        ["--format", "json", "selection"],
        ["--format", "json", "rabi"],
        ["--format", "json", "dynamics", "--samples", "41",
         "--t-final", "5e-12"],
        ["--format", "json", "czgate", "--samples", "11"],
    ]

    def run_all():
        chunks = []
        for argv in commands:
            code, text = run(argv)
            if code != 0:
                failures.append(f"command {argv} exited {code}")
            chunks.append(text)
        return "".join(chunks)

    first = run_all()
    second = run_all()
    if first != second:
        failures.append("reports differ between runs")
    _report(10, "two runs of the full command set produce bit-identical "
            "JSON reports", failures)
