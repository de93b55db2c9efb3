import pytest
from hypothesis import settings

from oamring.ring import Material, RingDesign, RingParams, derive_ring_params

# every property test runs the same examples on every run, keeps no example
# database and has no time limit per example; a test sets only its count
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

# feasibility design point used throughout the tests
RADIUS = 2e-6
WIDTH = 60e-9
DEPTH = 10e-9
PAIR_DENSITY = 2.1e28
LONDON_DEPTH = 50e-9
SKIN_DEPTH = 7e-9
RING_SEPARATION = 1e-4

# published rounded inductances; the chain values land a few percent below
PUBLISHED_L_S = 12.7e-12
PUBLISHED_L_K = 18.6e-12

PUBLISHED_INTENSITY = 66.0          # 6.6e-3 W/cm^2 in W/m^2
PUBLISHED_A0 = 8.6e-14


@pytest.fixture(scope="session")
def design():
    return RingDesign(radius=RADIUS, width=WIDTH, depth=DEPTH)


@pytest.fixture(scope="session")
def material():
    return Material(pair_density=PAIR_DENSITY, london_depth=LONDON_DEPTH,
                    skin_depth=SKIN_DEPTH)


@pytest.fixture(scope="session")
def chain_params(design, material):
    """Electrical model derived end-to-end from geometry and material."""
    return derive_ring_params(design, material)


@pytest.fixture(scope="session")
def published_params(design, material, chain_params):
    """Model pinned to the published inductance values."""
    return RingParams(L_S=PUBLISHED_L_S, L_K=PUBLISHED_L_K, L_T=PUBLISHED_L_S + PUBLISHED_L_K,
                      n_pairs=chain_params.n_pairs, design=design,
                      material=material)
