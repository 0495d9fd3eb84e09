"""Numerical laboratory for mechanism-based spring-lattice metamaterials.

Builds the Kagome and Rotating Squares lattices (and their parametric
variants), evaluates orientation-penalized spring energies on periodic
supercells, estimates the effective energy density through the cell
problem, constructs and certifies exact mechanisms (twists, searched
periodic modes, domain walls), verifies the explicit-constant lower
bounds, and runs compressive-conformal soft-mode scaling experiments.

The package re-exports the public names of each module, as listed in
that module's ``__all__``.  Importing the package loads no module: each
submodule, and each re-exported name, is imported on first access
(PEP 562), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# in the order of __all__
_MODULES = ("lattice", "energy", "geometry", "mechanisms", "cellsolver", "softmodes")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [*(n for m in _MODULES for n in __getattr__(m).__all__), "__version__"]
    else:
        owner = next((module for module in map(__getattr__, _MODULES)
                      if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
