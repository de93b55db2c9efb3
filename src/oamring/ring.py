"""Ring geometry, material model, inductances and the winding-number spectrum.

A junction-free superconducting loop quantizes its fluxoid: the macroscopic
wavefunction must be single-valued around the ring, which restricts the
supercurrent states to integer winding numbers n with energies

    E_n = (n Phi_0)^2 / (2 L_T),        L_T = L_S + L_K,

where L_S is the geometric self-inductance and L_K the kinetic inductance of
the Cooper-pair fluid.  Everything here is a pure scalar function of frozen
value objects; ``fields.ring_wavefunction`` evaluates the eigenfunctions on
arrays of the ring angle.
"""

import math
from enum import Enum
from typing import NamedTuple, Optional, Union

from .constants import (COOPER_CHARGE, COOPER_MASS, FLUX_QUANTUM, HBAR,
                        VACUUM_PERMEABILITY)
from .errors import NonPositiveLog

DEFAULT_N_MAX = 8


class _Checked:
    """Mixin that runs a ``NamedTuple`` record's ``_check`` when it is built.

    A record ``class X(_Checked, _XFields)`` takes its fields from the
    ``NamedTuple`` ``_XFields``; ``__slots__ = ()`` on X keeps it immutable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):   # so that _replace checks too
        return cls(*iterable)


class _RingDesignFields(NamedTuple):
    radius: float
    width: float
    depth: float


class RingDesign(_Checked, _RingDesignFields):
    """Loop geometry: radius, wire width (in-plane) and depth (out-of-plane).

    The thin-wire model needs ``width << radius``; we reject anything with
    width >= radius/10.
    """

    __slots__ = ()

    def _check(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.depth <= 0.0:
            raise ValueError("depth must be positive")
        if not self.width < self.radius / 10.0:
            raise ValueError(
                "non-thin-wire design: width must satisfy width < radius/10"
            )


class _MaterialFields(NamedTuple):
    pair_density: float      # Cooper pairs per m^3
    london_depth: float      # m
    skin_depth: float        # optical skin depth, m


class Material(_Checked, _MaterialFields):
    """Superconductor parameters of the film."""

    __slots__ = ()

    def _check(self):
        if self.pair_density <= 0.0:
            raise ValueError("pair_density must be positive")
        if self.london_depth <= 0.0:
            raise ValueError("london_depth must be positive")
        if self.skin_depth <= 0.0:
            raise ValueError("skin_depth must be positive")


class EffectiveRadiusRule(Enum):
    """How to map the rectangular cross-section to an effective wire radius.

    ROSA is the classical equivalent radius a = 0.2235 (w + d) for a
    rectangular conductor; HALF_MEAN uses a = (w + d)/4; EXPLICIT takes a
    user-supplied radius.
    """

    ROSA = "rosa"
    HALF_MEAN = "half-mean"
    EXPLICIT = "explicit"


RuleLike = Union[EffectiveRadiusRule, str]


def _coerce_rule(rule: RuleLike) -> EffectiveRadiusRule:
    if isinstance(rule, EffectiveRadiusRule):
        return rule
    try:
        return EffectiveRadiusRule(rule)
    except ValueError:
        raise ValueError(f"unknown effective-radius rule: {rule!r}") from None


def effective_wire_radius(design: RingDesign, rule: RuleLike = EffectiveRadiusRule.ROSA,
                          wire_radius: Optional[float] = None) -> float:
    """Effective circular radius of the rectangular wire cross-section."""
    rule = _coerce_rule(rule)
    if rule is EffectiveRadiusRule.ROSA:
        return 0.2235 * (design.width + design.depth)
    if rule is EffectiveRadiusRule.HALF_MEAN:
        return 0.25 * (design.width + design.depth)
    if wire_radius is None or wire_radius <= 0.0:
        raise ValueError("EXPLICIT rule needs a positive wire_radius")
    return wire_radius


def self_inductance(design: RingDesign, rule: RuleLike = EffectiveRadiusRule.ROSA,
                    wire_radius: Optional[float] = None) -> float:
    """Geometric self-inductance mu0 * r * (ln(8r/a) - 2) of the loop.

    Raises
    ------
    NonPositiveLog
        If 8r/a < e^2, i.e. the wire is too thick for the thin-wire formula
        to give a positive inductance.  Exactly 8r/a = e^2 returns 0.
    """
    a = effective_wire_radius(design, rule, wire_radius)
    r = design.radius
    bracket = math.log(8.0 * r / a) - 2.0
    if bracket < 0.0:
        raise NonPositiveLog(
            f"8r/a = {8.0 * r / a:.4g} < e^2; thin-wire formula inapplicable"
        )
    return VACUUM_PERMEABILITY * r * bracket


def kinetic_inductance(design: RingDesign, material: Material) -> float:
    """Kinetic inductance 2 pi r m* / (n* q*^2 w d) from Cooper-pair inertia."""
    return (2.0 * math.pi * design.radius * COOPER_MASS
            / (material.pair_density * COOPER_CHARGE ** 2
               * design.width * design.depth))


class _RingParamsFields(NamedTuple):
    L_S: float
    L_K: float
    L_T: float
    n_pairs: float          # total number of Cooper pairs in the loop
    design: RingDesign
    material: Material


class RingParams(_Checked, _RingParamsFields):
    """Derived electrical model of one ring.

    ``L_T == L_S + L_K`` must hold exactly; build instances through
    :func:`derive_ring_params` unless you are deliberately pinning inductance
    values (e.g. reproducing published numbers).
    """

    __slots__ = ()

    def _check(self):
        if self.L_S <= 0.0 or self.L_K <= 0.0:
            raise ValueError("inductances must be positive")
        if self.L_T != self.L_S + self.L_K:
            raise ValueError("L_T must equal L_S + L_K exactly")
        if self.n_pairs <= 0.0:
            raise ValueError("n_pairs must be positive")


def pair_count(design: RingDesign, material: Material) -> float:
    """Total Cooper pairs: density times the wire volume 2 pi r w d."""
    return (material.pair_density * 2.0 * math.pi * design.radius
            * design.width * design.depth)


def derive_ring_params(design: RingDesign, material: Material,
                       rule: RuleLike = EffectiveRadiusRule.ROSA,
                       wire_radius: Optional[float] = None) -> RingParams:
    """Assemble the electrical model from geometry and material."""
    l_s = self_inductance(design, rule, wire_radius)
    l_k = kinetic_inductance(design, material)
    return RingParams(
        L_S=l_s,
        L_K=l_k,
        L_T=l_s + l_k,
        n_pairs=pair_count(design, material),
        design=design,
        material=material,
    )


def level_energy(n: int, params: RingParams) -> float:
    """Energy (n Phi_0)^2 / (2 L_T) of winding state n, in J."""
    return (n * FLUX_QUANTUM) ** 2 / (2.0 * params.L_T)


def level_angular_frequency(n: int, params: RingParams) -> float:
    """omega_n = E_n / hbar."""
    return level_energy(n, params) / HBAR


def transition_angular_frequency(n: int, m: int, params: RingParams) -> float:
    """omega_{n,m} = (E_n - E_m) / hbar; antisymmetric in (n, m)."""
    return (level_energy(n, params) - level_energy(m, params)) / HBAR


def level_supercurrent(n: int, params: RingParams) -> float:
    """Circulating supercurrent n Phi_0 / L_T of winding state n, in A."""
    return n * FLUX_QUANTUM / params.L_T
