"""Light-ring coupling: matrix elements, selection rules and Rabi frequency.

The drive enters the one-dimensional kinetic Hamiltonian through the minimal
substitution; after eliminating the induced vector potential the interaction
splits into a piece linear in the azimuthal drive field and a piece quadratic
in it:

    H_I = (i hbar q* / (2 m* r)) (L_K/L_T) (d/dphi A + A d/dphi)
        + (q*^2 / (2 m*)) A^2,     A = A_phi(phi, t).

Between winding states the linear piece connects n -> n + k for each drive
harmonic k and the quadratic piece connects n -> n + k1 + k2 for each ordered
pair of harmonics.  ``drive_products`` alone lists those products; the matrix
elements, ``selection_rules`` and ``resonance_catalog`` all read it.
``matrix_element_terms`` performs the contraction in closed form, with
scalar arithmetic only.  The array side lives in ``fields``:
``evaluate_matrix_element`` sums the terms at a time, and
``matrix_element_quadrature_oracle`` evaluates the same bracket by direct
integration over phi and is the ground truth the closed form is tested
against.
"""

from typing import Iterator, List, NamedTuple, Set, Tuple

from .beam import HarmonicDrive
from .constants import COOPER_CHARGE, COOPER_MASS, HBAR
from .errors import TruncationExceeded
from .ring import DEFAULT_N_MAX, RingParams, transition_angular_frequency


class MatrixElementTerm(NamedTuple):
    """One harmonic contribution amplitude * exp(i * beat * t) to <m|H_I|n>."""

    amplitude: complex      # J
    beat: float             # rad/s
    order: int              # power of the drive amplitude: 1 or 2


class TransitionCatalogEntry(NamedTuple):
    """A drive frequency at which |initial> <-> |final> becomes resonant."""

    initial: int
    final: int
    required_omega: float   # rad/s, positive
    order: int
    source: str             # harmonic winding(s) responsible


def _check_truncation(m: int, n: int, n_max: int):
    if abs(m) > n_max or abs(n) > n_max:
        raise TruncationExceeded(
            f"levels ({m}, {n}) outside truncated basis |n| <= {n_max}")


def drive_products(drive: HarmonicDrive) -> Iterator[tuple]:
    """Every product of drive harmonics that enters H_I, as (k, s, factors).

    Each harmonic (order 1, linear piece) and then each ordered pair of
    harmonics (order 2, quadratic piece), with k the winding change and s
    the total time sign of the product, and ``factors`` the ``HarmonicTerm``s
    multiplied; the order is ``len(factors)``.
    """
    for term in drive.terms:
        yield term.winding, term.time_sign, (term,)
    for t1 in drive.terms:
        for t2 in drive.terms:
            yield t1.winding + t2.winding, t1.time_sign + t2.time_sign, (t1, t2)


def matrix_element_terms(m: int, n: int, drive: HarmonicDrive,
                         params: RingParams,
                         n_max: int = DEFAULT_N_MAX) -> List[MatrixElementTerm]:
    """Closed-form harmonic expansion of <m|H_I|n>.

    Linear part: each drive term (k, a, s) with k = m - n contributes
    (hbar q* N* / (2 m* r)) (L_K/L_T) (k + 2n) a at beat omega_{m,n} - s*omega.
    Quadratic part: each ordered pair with k1 + k2 = m - n contributes
    (q*^2 N* / (2 m*)) a1 a2 at beat omega_{m,n} - (s1+s2)*omega.
    Contributions sharing (order, total time sign) are merged; exact zeros
    are dropped.  The result must agree with the quadrature oracle; tests
    enforce that.
    """
    _check_truncation(m, n, n_max)
    omega_mn = transition_angular_frequency(m, n, params)

    coeff1 = (HBAR * COOPER_CHARGE * params.n_pairs
              / (2.0 * COOPER_MASS * params.design.radius)
              * (params.L_K / params.L_T))
    coeff2 = COOPER_CHARGE ** 2 * params.n_pairs / (2.0 * COOPER_MASS)

    # key: (order, total time sign) -> summed amplitude
    groups: dict = {}
    for k, s_total, factors in drive_products(drive):
        if k != m - n:
            continue
        if len(factors) == 1:
            amp = coeff1 * (k + 2 * n) * factors[0].amplitude
        else:
            amp = coeff2 * factors[0].amplitude * factors[1].amplitude
        key = (len(factors), s_total)
        groups[key] = groups.get(key, 0.0) + amp

    out = []
    for (order, s_total), amp in sorted(groups.items()):
        if amp == 0:
            continue
        beat = omega_mn - s_total * drive.omega
        out.append(MatrixElementTerm(amplitude=amp, beat=beat, order=order))
    return out


def selection_rules(drive: HarmonicDrive) -> Set[Tuple[int, int]]:
    """Reachable (delta_n, order) pairs, derived combinatorially.

    Order 1 covers the drive's nonzero harmonic windings; order 2 covers all
    nonzero pairwise winding sums.
    """
    return {(k, len(factors)) for k, _, factors in drive_products(drive)
            if k != 0}


def resonance_catalog(drive: HarmonicDrive, params: RingParams,
                      n_init: int = 0,
                      n_max: int = DEFAULT_N_MAX) -> List[TransitionCatalogEntry]:
    """Positive drive frequencies that make some |n_init> <-> |m> term static.

    A term beating at omega_{m,n} - s_total*omega is resonant when
    omega = omega_{m,n}/s_total and that value is positive; harmonics whose
    time sign opposes the level splitting produce no resonance, which is why
    a given beam addresses only one member of a degenerate +/-n pair.
    """
    _check_truncation(n_init, n_init, n_max)
    found: dict = {}
    for delta, s_total, factors in drive_products(drive):
        m = n_init + delta
        if delta == 0 or s_total == 0 or abs(m) > n_max:
            continue
        omega_mn = transition_angular_frequency(m, n_init, params)
        omega_req = omega_mn / s_total
        if omega_req <= 0.0:
            continue
        source = "k=" + ",".join(f"{f.winding:+d}" for f in factors)
        found.setdefault((m, len(factors), omega_req), source)

    entries = [
        TransitionCatalogEntry(initial=n_init, final=m, required_omega=w,
                               order=order, source=src)
        for (m, order, w), src in found.items()
    ]
    entries.sort(key=lambda e: (e.final, e.order, e.required_omega))
    return entries


def rabi_frequency(params: RingParams, a0_magnitude: float) -> float:
    """On-resonance Rabi rate (N* q* / (r m*)) (L_K/L_T) |A0|, in rad/s.

    Equals twice the order-1 coupling magnitude divided by hbar.
    """
    if a0_magnitude < 0.0:
        raise ValueError("a0_magnitude must be non-negative")
    return (params.n_pairs * COOPER_CHARGE
            / (params.design.radius * COOPER_MASS)
            * (params.L_K / params.L_T) * a0_magnitude)
