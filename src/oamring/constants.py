"""CODATA values and the Cooper-pair charge and mass of the ring-qubit model.

Values are CODATA 2018 at double precision, pinned here as literals so that
regression numbers do not drift with library upgrades.  The charge carriers
are Cooper pairs: charge 2e, mass 2*m_e.  The model is fixed by these
values, so the physics functions read the module names directly.
"""

import math

# CODATA 2018
PLANCK = 6.62607015e-34           # J s (exact)
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg
SPEED_OF_LIGHT = 299792458.0      # m/s (exact)
VACUUM_PERMEABILITY = 1.25663706212e-6   # H/m
VACUUM_PERMITTIVITY = 8.8541878128e-12   # F/m

# Derived
FLUX_QUANTUM = PLANCK / (2.0 * ELEMENTARY_CHARGE)   # Phi_0 = h / (2e), Wb
HBAR = PLANCK / (2.0 * math.pi)                     # J s
COOPER_CHARGE = 2.0 * ELEMENTARY_CHARGE             # q* = 2e, C
COOPER_MASS = 2.0 * ELECTRON_MASS                   # m* = 2 m_e, kg
