"""Time evolution in the truncated winding basis, plus density and dipole
analysis of superposition states.

Evolution runs in the interaction picture: the state is expanded on the ring
eigenfunctions including their energy phases, so the equations of motion
contain only the coupling beats (differences of drive and transition
frequencies), never the bare optical carrier.  ``evolve`` assembles the
coupling term list once (for the RWA only the slow terms), finds its
coupled level sets and keeps the levels of those the initial state touches:
no term links them to any other level, so every path below runs on those
levels alone and the others stay exactly 0.  It then either solves the
terms in closed form (RWA) or hands the stepping to the kernel in
``_kernels`` (full mode).

RWA runs are not stepped.  Every kept beat is a difference
theta_r - theta_c of a level "potential" theta, so in the frame
c_n = exp(i theta_n t) b_n the equations have a constant generator, and one
Hermitian eigendecomposition per coupled level set gives every sample
exactly (``_evolve_rwa``); ``tol`` does not set their accuracy and
``n_steps`` is 0.  Only a term list that no theta fits is stepped.

Full (non-RWA) runs that span many drive periods still carry the carrier in
their beats, but the lab-frame Hamiltonian repeats exactly with the drive
period.  Those runs step the propagator over one period once, recording it
at every sample phase and at the period's end, and reach each sample's
period by powering the Floquet monodromy (``_evolve_floquet``), so their
cost no longer grows with the number of carrier cycles.  Short full runs
step directly.  The kernel interpolates every sample within its step, so
the number of samples does not set the number of steps.
A ``Trajectory`` keeps the samples as one (n_samples, dim) amplitude array.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from . import _kernels
from .beam import BeamDrive, azimuthal_component
from .config import DEFAULT_SAMPLES, DEFAULT_TOL, MODES, TOL_RANGE
from .constants import COOPER_CHARGE, HBAR
from .coupling import drive_products, matrix_element_terms
from .errors import NormDrift, NotTwoLevel
from .ring import (DEFAULT_N_MAX, RingParams, level_angular_frequency,
                   transition_angular_frequency)

_SUPPORT_TOL = 1e-12
_ROTATION_POINTS = 100  # angles at which pattern rigidity is checked
_ROTATION_RTOL = 1e-10  # rigidity tolerance, relative to the pattern scale
NORM_TOL = 1e-9     # accepted deviation of sum |c_n|^2 from 1
_RWA_BLOCK = 256    # samples per block of the closed-form RWA product
_RECORD_BYTES = 16 * 2 ** 20    # bytes of samples one Floquet kernel call keeps


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes c_n over windings n in [-n_max, n_max].

    The coefficient vector is unit-normalized to ``NORM_TOL`` (the
    macroscopic pair count enters only through density/dipole operations).
    """

    n_max: int
    amplitudes: np.ndarray
    reference_time: float = 0.0

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if not math.isfinite(self.reference_time):
            raise ValueError("reference_time must be finite")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"amplitudes must have shape ({2 * self.n_max + 1},), got {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: sum |c_n|^2 = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_levels(cls, levels: Dict[int, complex], n_max: int = DEFAULT_N_MAX,
                    reference_time: float = 0.0) -> "StateVector":
        """Build a state from a {winding: amplitude} mapping (normalized)."""
        amps = np.zeros(2 * n_max + 1, dtype=complex)
        for n, c in levels.items():
            if abs(n) > n_max:
                raise ValueError(f"level {n} outside basis |n| <= {n_max}")
            amps[n + n_max] = c
        norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        if norm == 0.0:
            raise ValueError("at least one amplitude must be nonzero")
        return cls(n_max=n_max, amplitudes=amps / norm,
                   reference_time=reference_time)

    def amplitude(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise ValueError(f"level {n} outside basis |n| <= {self.n_max}")
        return complex(self.amplitudes[n + self.n_max])

    def population(self, n: int) -> float:
        return abs(self.amplitude(n)) ** 2

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: times, amplitudes, per-level populations, norms."""

    times: np.ndarray
    amplitudes: np.ndarray      # shape (n_samples, 2 n_max + 1)
    n_steps: int = 0
    populations: np.ndarray = field(init=False)     # |c_n|^2 per sample
    norms: np.ndarray = field(init=False)           # raw sum |c_n|^2

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        populations = np.abs(self.amplitudes) ** 2
        object.__setattr__(self, "populations", populations)
        object.__setattr__(self, "norms", populations.sum(axis=1))

    def population_of(self, n: int) -> np.ndarray:
        n_max = (self.amplitudes.shape[1] - 1) // 2
        if abs(n) > n_max:
            raise ValueError(f"level {n} outside basis |n| <= {n_max}")
        return self.populations[:, n + n_max]


def _build_term_arrays(drive, params, n_max, rwa=False):
    """The coupling terms of H_I as arrays (rows, cols, camps, nus).

    With ``rwa`` only the terms the RWA keeps, those beating slower than a
    tenth of the drive frequency; a pair no drive product can give such a
    beat is not expanded at all.
    """
    signs = {}      # winding change -> total time signs of its products
    for k, s, _ in drive_products(drive):
        signs.setdefault(k, set()).add(s)
    cutoff = drive.omega / 10.0
    rows, cols, camps, nus = [], [], [], []
    for m in range(-n_max, n_max + 1):
        for n in range(-n_max, n_max + 1):
            if m - n not in signs:      # no other pair has a term
                continue
            if rwa:
                # the beat expression of ``matrix_element_terms``
                omega_mn = transition_angular_frequency(m, n, params)
                if not any(abs(omega_mn - s * drive.omega) < cutoff
                           for s in signs[m - n]):
                    continue
            for term in matrix_element_terms(m, n, drive, params, n_max=n_max):
                if rwa and not abs(term.beat) < cutoff:
                    continue
                rows.append(m + n_max)
                cols.append(n + n_max)
                camps.append(-1j * term.amplitude / HBAR)
                nus.append(term.beat)
    return (np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(camps, dtype=np.complex128),
            np.asarray(nus, dtype=np.float64))


def floquet_min_periods(n_max: int) -> float:
    """Shortest full-mode run, in drive periods, that takes the Floquet path.

    The Floquet pass steps a propagator of the reached levels over one
    period, and high windings beat fast, so it costs about as much as
    n_max^2 / 16 periods of direct stepping.  Measured run lengths at which
    the two paths cost the same (5 samples, bundled design, tol 1e-6 / 1e-9):

        n_max                      4          8          16         32
        from |0>               2.4 / 2.5  5.3 / 6.0  16.6 / 14.7  49 / 50
        from 0.8|0> + 0.6|1>   2.8 / 2.4  6.4 / 6.1  22.5 / 16.3  72 / 69
        this threshold             3          6          18         66

    A state with both parities steps all 2 n_max + 1 levels, one from |0>
    only the n_max + 1 even ones under an OAM-1 drive, hence the wider
    spread at large n_max; the threshold lies within it for n_max >= 8.
    """
    return 2.0 + n_max * n_max / 16.0


def _split_periods(times, t0, period):
    """Split ``times - t0`` into whole periods m (Python ints) and phases tau.

    Times within a few rounding units of a period boundary split as
    (boundary, 0), so a sample on t0 + jT lands on the same (j, 0) however its
    time was rounded.  Python ints keep m exact at any period count.
    """
    offsets = times - t0
    tau = np.fmod(offsets, period)
    whole = np.rint((offsets - tau) / period)
    slack = 8.0 * np.finfo(np.float64).eps * float(np.max(np.abs(times)))
    up = tau > max(period - slack, 0.5 * period)
    whole[up] += 1.0
    tau[up | (tau < slack)] = 0.0
    return [int(v) for v in whole], tau


def _evolve_floquet(c0, t0, times, terms, tol, t_total, period, omega_levels):
    """Amplitudes at ``times`` from stepping one drive period once.

    The lab-frame Hamiltonian repeats with the drive period T.  With
    D(t) = diag(exp(-i omega_n t)) the interaction-picture propagator obeys

        U_I(t0 + mT + tau, t0) = D(mT)^* U_I(t0 + tau, t0) P^m,
        P = D(T) U_I(t0 + T, t0)          (the monodromy).

    Each sample splits as t_k = t0 + m_k T + tau_k.  One pass steps the
    identity over one period and records U_I(tau) at the sample phases and
    U_I(T) at its end, read from the kernel's dense output at no extra
    right-hand-side call.  P follows from the last record,
    w_k = P^{m_k} c0 by binary powering in order of m_k, and sample k is
    D(m_k T)^* U_I(tau_k) w_k.  The error budget per unit time stays that of
    the whole run.  The caller passes only the levels the initial state
    reaches, so the identity is as small as those.

    The distinct phases are recorded in sorted groups of as many propagators
    as fit in ``_RECORD_BYTES`` next to U_I(T), but at least one: the pass
    over the period records the first group, and each later group is
    stepped on from the last propagator of the group before it.
    """
    dim = c0.shape[0]
    whole, tau = _split_periods(times, t0, period)
    phases, phase_of = np.unique(tau, return_inverse=True)
    group = max(1, _RECORD_BYTES // (16 * dim * dim) - 1)
    records, n_steps = _kernels.integrate(
        np.eye(dim, dtype=np.complex128), t0,
        t0 + np.append(phases[:group], period), *terms, tol, t_total)
    powers = [np.exp(-1j * omega_levels * period)[:, None] * records[-1]]

    out = np.empty((times.size, dim), dtype=np.complex128)
    state, done = c0, 0
    for k, m in enumerate(whole):
        rest, bit = m - done, 0
        while rest:
            if bit == len(powers):
                powers.append(powers[-1] @ powers[-1])
            if rest & 1:
                state = powers[bit] @ state
            rest >>= 1
            bit += 1
        done = m
        out[k] = state

    for start in range(0, phases.size, group):
        if start:
            records, more = _kernels.integrate(
                records[group - 1], t0 + phases[start - 1],
                t0 + phases[start:start + group], *terms, tol, t_total)
            n_steps += more
        # one matrix-vector product per sample, so that its value does not
        # depend on how many samples share a phase
        for k in np.flatnonzero(phase_of // group == start // group):
            out[k] = records[phase_of[k] - start] @ out[k]
    out *= np.exp(1j * np.outer(np.array(whole, dtype=float) * period,
                                omega_levels))
    return out, n_steps


def _level_sets(dim, rows, cols, nus):
    """The coupled level sets of the terms and a level potential theta.

    A breadth-first walk over the terms (r, c, nu) sets theta = 0 at the
    first level of each set and theta_r = theta_c + nu along the walk.
    Returns ``(theta, sets)``.  Only the RWA reads theta, and only where it
    fits every term (``_frame_fits``).
    """
    neighbours = [[] for _ in range(dim)]
    for r, c, nu in zip(rows.tolist(), cols.tolist(), nus.tolist()):
        neighbours[c].append((r, nu))
        neighbours[r].append((c, -nu))
    theta = [None] * dim
    sets = []
    for root in range(dim):
        if theta[root] is not None:
            continue
        theta[root] = 0.0
        members = [root]
        for level in members:       # grows while it is walked
            for other, nu in neighbours[level]:
                if theta[other] is None:
                    theta[other] = theta[level] + nu
                    members.append(other)
        sets.append(members)
    return np.array(theta), sets


def _frame_fits(theta, rows, cols, nus, omega):
    """Whether theta_r - theta_c = nu holds for every term (r, c, nu).

    The slack is the rounding of the at most ``theta.size`` beats, each of
    size ``omega``, summed into a theta.  A true mismatch is a whole
    multiple of ``omega`` around a cycle, which takes at least 11 kept RWA
    terms of |nu| < omega / 10.
    """
    slack = 8.0 * theta.size * np.finfo(np.float64).eps * omega
    return bool(np.all(np.abs(theta[rows] - theta[cols] - nus) <= slack))


def _evolve_rwa(c0, t0, times, rows, cols, camps, nus, theta, sets):
    """Amplitudes at ``times`` under the kept RWA terms, in closed form.

    With nu_j = theta_r - theta_c for every term (``_frame_fits``),
    c_n = exp(i theta_n t) b_n turns the equations into db/dt = G b with the
    constant G = A - i diag(theta), A the terms' ``camps`` as a matrix.  Each
    coupled level set is diagonalised on its own, i G = V diag(lam) V^+, so V
    is block-diagonal:

        c(t_k) = exp(i theta t_k) * V exp(-i lam (t_k - t0)) V^+ exp(-i theta t0) c0.
    """
    dim = c0.shape[0]
    generator = np.diag(theta).astype(np.complex128)      # i G
    np.add.at(generator, (rows, cols), 1j * camps)
    lam = np.empty(dim)
    vecs = np.zeros((dim, dim), dtype=np.complex128)
    for members in sets:
        block = np.ix_(members, members)
        lam[members], vecs[block] = np.linalg.eigh(generator[block])
    weights = vecs.conj().T @ (np.exp(-1j * theta * t0) * c0)
    # V's entries within each set, grouped by row: output level i sums
    # V[i, j] * modes[j] over the j of its own set only
    v_rows, v_cols = np.array(sorted((i, j) for members in sets
                                     for i in members for j in members)).T
    v_vals = vecs[v_rows, v_cols]
    starts = np.searchsorted(v_rows, np.arange(dim))
    moving = np.flatnonzero(theta)      # the frame turns only these levels

    # samples in blocks, so no temporary is as large as the output; each
    # sample is summed on its own, so its value does not depend on the block
    out = np.empty((times.size, dim), dtype=np.complex128)
    scratch = np.empty((min(times.size, _RWA_BLOCK), dim), dtype=np.complex128)
    for start in range(0, times.size, _RWA_BLOCK):
        t = times[start:start + _RWA_BLOCK, None]
        chunk, modes = out[start:start + _RWA_BLOCK], scratch[:t.shape[0]]
        np.exp(np.multiply(t - t0, -1j * lam, out=modes), out=modes)
        modes *= weights
        products = modes[:, v_cols]
        products *= v_vals
        np.add.reduceat(products, starts, axis=1, out=chunk)
        chunk[:, moving] *= np.exp(1j * t * theta[moving])
    return out


def evolve(initial: StateVector, drive: BeamDrive, params: RingParams,
           t_final: float, tol: float = DEFAULT_TOL, mode: str = "full",
           sample_times: Optional[Sequence[float]] = None,
           n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Integrate the driven state over a duration ``t_final``.

    Only the levels that some chain of coupling terms links to the initial
    state's support are solved for; every other amplitude is exactly 0.

    Parameters
    ----------
    mode : str, one of ``MODES``
        "full" keeps every coupling term including static level shifts;
        "rwa" keeps only terms whose beat magnitude is below a tenth of the
        drive frequency, and is solved in closed form, not stepped: the
        result is exact to rounding and ``Trajectory.n_steps`` is 0.
        Full runs of at least ``floquet_min_periods(n_max)`` drive periods are
        propagated period by period with the Floquet monodromy instead of
        stepping every carrier cycle; the result is the same to the
        integration tolerance.
    tol : float
        Accumulated local-error budget for the whole of a stepped
        (full-mode) run; the norm drift stays below 10 * tol.  Samples are
        interpolated within their steps to the same budget, so they do not
        shorten steps: the steps depend on the last sample time only, not on
        how many samples there are.  RWA runs check ``tol``'s range and the
        norm drift against it, but their accuracy does not depend on it.
    sample_times : sequence of float, optional
        Absolute times (within the run span) at which to record the state;
        defaults to ``n_samples`` equispaced points.

    Raises
    ------
    ValueError
        If ``t_final``, its length in drive periods or a sample time is not
        finite, before any stepping.
    StepSizeUnderflow
        If the controller cannot meet the tolerance with a representable
        step (stiff or ill-conditioned input).
    NormDrift
        If some sample's sum |c_n|^2 is not finite or deviates from 1 by
        more than ``max(NORM_TOL, 10 * tol)``.
    """
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]}, {TOL_RANGE[1]}]")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if not math.isfinite(t_final):
        raise ValueError("t_final must be finite")
    period = 2.0 * math.pi / drive.omega
    if not math.isfinite(t_final / period):
        raise ValueError(f"t_final = {t_final!r} s is not a finite number of "
                         f"drive periods ({period!r} s each)")
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}")

    t0 = initial.reference_time
    if sample_times is None:
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        times = t0 + np.linspace(0.0, t_final, n_samples)
    else:
        times = np.asarray(sample_times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("sample_times must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(times)):
            raise ValueError("sample_times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample_times must be strictly increasing")
        if times[0] < t0 or times[-1] > t0 + t_final * (1.0 + 1e-12):
            raise ValueError("sample_times must lie within the run span")

    rwa = mode == "rwa"
    dim = 2 * initial.n_max + 1
    rows, cols, camps, nus = _build_term_arrays(azimuthal_component(drive),
                                                params, initial.n_max, rwa)
    theta, sets = _level_sets(dim, rows, cols, nus)
    # only the level sets the initial state touches move: the run is solved
    # on their levels alone, and every other level stays exactly 0
    amps0 = np.asarray(initial.amplitudes, dtype=np.complex128)
    sets = [members for members in sets if np.any(amps0[members])]
    reached = np.array(sorted(i for members in sets for i in members))
    index = np.full(dim, -1)
    index[reached] = np.arange(reached.size)
    keep = index[rows] >= 0
    rows, cols = index[rows[keep]], index[cols[keep]]
    camps, nus = camps[keep], nus[keep]
    terms = (rows, cols, camps, nus)
    c0, theta = amps0[reached], theta[reached]

    t0 = float(t0)
    n_steps = 0
    if rwa and _frame_fits(theta, rows, cols, nus, drive.omega):
        sub = _evolve_rwa(c0, t0, times, *terms, theta,
                          [index[members].tolist() for members in sets])
    elif not rwa and t_final >= floquet_min_periods(initial.n_max) * period:
        omega_levels = level_angular_frequency(reached - initial.n_max, params)
        sub, n_steps = _evolve_floquet(c0, t0, times, terms, float(tol),
                                       float(t_final), period, omega_levels)
    else:
        sub, n_steps = _kernels.integrate(c0, t0, times, *terms, float(tol),
                                          float(t_final))
    if reached.size == dim:
        out = sub
    else:
        out = np.zeros((times.size, dim), dtype=np.complex128)
        out[:, reached] = sub

    traj = Trajectory(times=times, amplitudes=out, n_steps=n_steps)
    drift = np.abs(traj.norms - 1.0)
    bad = np.flatnonzero(~(drift <= max(NORM_TOL, 10.0 * tol)))
    if bad.size:
        raise NormDrift(f"state not normalized: sum |c_n|^2 = {traj.norms[bad[0]]}")
    return traj


def density_profile(state: StateVector, params: RingParams, phi, t: float):
    """Cooper-pair density per radian of arc at angle ``phi`` and time ``t``.

    N* |sum_n c_n exp(-i(n phi + omega_n t))|^2 / (2 pi); integrates over a
    full turn to the total pair count.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.zeros(phi.shape, dtype=complex)
    for n in range(-state.n_max, state.n_max + 1):
        c = state.amplitudes[n + state.n_max]
        if c == 0:
            continue
        omega_n = level_angular_frequency(n, params)
        psi += c * np.exp(-1j * (n * phi + omega_n * t))
    dens = params.n_pairs * np.abs(psi) ** 2 / (2.0 * math.pi)
    return float(dens) if dens.ndim == 0 else dens


def dipole_moment(state, params: RingParams, t) -> np.ndarray:
    """In-plane electric dipole (d_x, d_y) in C m, shape (..., 2).

    Only adjacent windings contribute to the density's first angular moment:
    d_x + i d_y = q* r N* sum_n c_{n+1} conj(c_n) exp(-i omega_{n+1,n} t).
    Takes a ``StateVector`` at a scalar ``t`` or a ``Trajectory`` at its times.
    """
    amps = state.amplitudes
    n_max = (amps.shape[-1] - 1) // 2
    beats = np.diff(level_angular_frequency(np.arange(-n_max, n_max + 1),
                                            params))
    t = np.asarray(t, dtype=float)
    moment = np.zeros(np.broadcast_shapes(amps.shape[:-1], t.shape),
                      dtype=complex)
    for j, beat in enumerate(beats):
        moment += amps[..., j + 1] * amps[..., j].conj() * np.exp(-1j * beat * t)
    moment *= COOPER_CHARGE * params.design.radius * params.n_pairs
    return np.stack([moment.real, moment.imag], axis=-1)


def pattern_rotation_check(state: StateVector, params: RingParams,
                           dt: float) -> float:
    """Angular velocity of the rigid density pattern of a two-level state.

    For support on levels n1 != n2 the density depends on phi and t only
    through (n2 - n1) phi + (omega_{n2} - omega_{n1}) t, so the whole pattern
    rotates rigidly at omega_{n2,n1} / (n2 - n1) (invariant under swapping
    the two levels).  The rigidity is verified pointwise before returning:
    density(phi, t + dt) must match density(phi + v dt, t) at
    ``_ROTATION_POINTS`` angles to ``_ROTATION_RTOL`` of the pattern scale.

    Raises
    ------
    NotTwoLevel
        If the state is not supported on exactly two levels.
    """
    support = [n for n in range(-state.n_max, state.n_max + 1)
               if abs(state.amplitudes[n + state.n_max]) > _SUPPORT_TOL]
    if len(support) != 2:
        raise NotTwoLevel(
            f"state supported on {len(support)} levels, need exactly 2")
    n1, n2 = support
    omega1 = level_angular_frequency(n1, params)
    omega2 = level_angular_frequency(n2, params)
    velocity = (omega2 - omega1) / (n2 - n1)

    t0 = state.reference_time
    phi = np.arange(_ROTATION_POINTS) * (2.0 * math.pi / _ROTATION_POINTS)
    later = density_profile(state, params, phi, t0 + dt)
    shifted = density_profile(state, params, phi + velocity * dt, t0)
    scale = float(np.max(np.abs(later)))
    dev = float(np.max(np.abs(later - shifted)))
    if dev > _ROTATION_RTOL * max(scale, 1e-300):
        raise RuntimeError(
            f"density pattern is not rigid: deviation {dev:.3e} at scale {scale:.3e}")
    return velocity
