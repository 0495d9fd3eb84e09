import json
import os

import numpy as np
import pytest

from latmech.lattice import (
    PeriodicDeformation,
    Supercell,
    build_kagome,
    build_rotating_squares,
    build_variant,
)

# the warning filters of pyproject.toml reach in-process tests only; every
# process a test starts (a demo, a command, an import check) fails on a
# floating-point warning too, as the CI run sets it
os.environ.setdefault("PYTHONWARNINGS", "error::RuntimeWarning")


@pytest.fixture(scope="session")
def kagome():
    return build_kagome()


@pytest.fixture(scope="session")
def rotating_squares():
    return build_rotating_squares()


@pytest.fixture(scope="session")
def all_specs(kagome, rotating_squares):
    return [
        kagome,
        rotating_squares,
        build_variant("isosceles-kagome", apex=1.2, size_ratio=0.8),
        build_variant("general-kagome", alpha=1.1, leg_ratio=0.75),
        build_variant("rhombus-squares", angle=1.3, size_ratio=0.6),
        build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6),
    ]


@pytest.fixture(scope="session")
def twist_specs(kagome, rotating_squares):
    """Specs whose counter-rotation closes (the generic quad does not:
    its pin chase needs the diagonals to bisect each other)."""
    return [
        kagome,
        rotating_squares,
        build_variant("isosceles-kagome", apex=1.2, size_ratio=0.8),
        build_variant("general-kagome", alpha=1.1, leg_ratio=0.75),
        build_variant("rhombus-squares", angle=1.3, size_ratio=0.6),
        build_variant("quad-squares", alpha=1.2, s=0.5, q=0.5),
    ]


def random_deformation(spec, k, rng, lam=None, amp=0.3):
    """A supercell deformation with Gaussian periodic part."""
    cell = Supercell(spec, k)
    if lam is None:
        lam = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
    psi = amp * rng.standard_normal((cell.n_nodes, 2))
    return PeriodicDeformation(cell, np.asarray(lam, dtype=float), psi)


def one_row_edge_vectors(lam, z, tail, head, dx):
    """Deformed vectors ``(n, k*k, 2)`` of stacked edge classes under one
    ``lam`` ``(2, 2)`` and one flat ``psi`` vector ``z``, gathered by fancy
    index: the one-row reference of ``lattice.edge_vectors``."""
    return z[head] - z[tail] + np.matmul(lam, dx[:, :, None])[:, None, :, 0]


def orphan_spring_json():
    """Rotating squares with only its first triangle penalized, only marker
    0, and an extra spring ``D -> D + v1`` on node 2, which no penalized
    triangle touches."""
    data = json.loads(build_rotating_squares().to_json())
    for tri in data["triangles"][1:]:
        tri["penalized"] = False
    data["markers"] = data["markers"][:1]
    data["springs"].append({"a": [2, 0, 0], "b": [2, 1, 0], "k_spring": 1.0})
    return json.dumps(data, indent=2)


def percolating_units_json():
    """Kagome with every cover triangle penalized: the rigid units glue to
    their own lattice translates, so the spec loads but has no twist."""
    data = json.loads(build_kagome().to_json())
    for tri in data["triangles"]:
        tri["penalized"] = True
    return json.dumps(data, indent=2)
