"""Numerical laboratory for mechanism-based spring-lattice metamaterials.

Builds the Kagome and Rotating Squares lattices (and their parametric
variants), evaluates orientation-penalized spring energies on periodic
supercells, estimates the effective energy density through the cell
problem, constructs and certifies exact mechanisms (twists, searched
periodic modes, domain walls), verifies the explicit-constant lower
bounds, and runs compressive-conformal soft-mode scaling experiments.

The package re-exports the public names of each module, as listed in
that module's ``__all__``.
"""

from . import cellsolver, energy, geometry, lattice, mechanisms, softmodes
from .cellsolver import *
from .energy import *
from .geometry import *
from .lattice import *
from .mechanisms import *
from .softmodes import *

__version__ = "0.1.0"

__all__ = [*lattice.__all__, *energy.__all__, *geometry.__all__, *mechanisms.__all__,
           *cellsolver.__all__, *softmodes.__all__, "__version__"]
