"""Nonlinear modes of an axially compressed beam.

Periods and orbits of the single-mode cubic oscillator, Floquet stability
of mode pairs, two-mode energy transfer, parameter-regime classification,
stationary profiles, and stability atlases over amplitude/energy grids.

The root holds the entry points the README documents; everything else is
imported from the module that defines it.
"""

from . import atlas, duffing, errors, hill, integrate, regime, special, stationary, twomode
from .duffing import ModeParams, period_of
from .hill import classify_stability
from .regime import table_regime
from .stationary import stationary_catalog

__version__ = "0.1.0"
