"""Bit-level pins of the supercell energy, gradient, certificate and marker
computations.

Each pin is the sha256 of every output over kagome, rotating squares and
the four variant families at k = 1, 2, 3, each on one fixed random
``(lam, psi)``.  Floats are hashed by their exact bits, so any change in
summation or scatter order shows up.  The density-sweep artifacts depend
on these bits through L-BFGS.  To print fresh pins after an intended
change of the arithmetic, run ``PYTHONPATH=src python tests/test_pins.py``.
"""

import hashlib

import numpy as np
import pytest

from latmech.cellsolver import _marker_arrays, estimate_density, jensen_weighted_rest
from latmech.energy import (
    LatticeMap,
    barrier_grad,
    energy_breakdown,
    smoothed_energy_grad,
    spring_energy_grad,
    triangle_dets,
)
from latmech.geometry import averaged_vectors
from latmech.lattice import (
    PeriodicDeformation,
    Supercell,
    build_kagome,
    build_rotating_squares,
    build_variant,
)
from latmech.mechanisms import certify, mechanism_tangent_rank

ETA = 0.1


def _specs():
    return [
        build_kagome(),
        build_rotating_squares(),
        build_variant("isosceles-kagome", apex=1.2, size_ratio=0.8),
        build_variant("general-kagome", alpha=1.1, leg_ratio=0.75),
        build_variant("rhombus-squares", angle=1.3, size_ratio=0.6),
        build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6),
    ]


def _cases():
    """``(spec, k, rough, mild)`` with a rough deformation (reversed
    triangles likely) and a mild one (all orientations positive)."""
    cases = []
    for i, spec in enumerate(_specs()):
        for k in (1, 2, 3):
            rng = np.random.default_rng([2024, i, k])
            cell = Supercell(spec, k)
            rough = PeriodicDeformation(
                cell, np.eye(2) + 0.4 * rng.standard_normal((2, 2)),
                0.3 * rng.standard_normal((cell.n_nodes, 2)))
            mild = PeriodicDeformation(
                cell, np.eye(2) + 0.05 * rng.standard_normal((2, 2)),
                0.01 * rng.standard_normal((cell.n_nodes, 2)))
            cases.append((spec, k, rough, mild))
    return cases


def _barrier(spec, k, rough, mild):
    out = barrier_grad(mild.cell, mild.lam, mild.psi, mu=1e-3)
    assert np.isfinite(out[0])
    return out


def _certify(spec, k, rough, mild):
    c = certify(rough, ETA)
    return (c.energy, c.eta_ref, c.max_spring_residual, c.min_det, c.lam,
            c.sigma1, c.sigma2, c.det_sign)


def _breakdown(spec, k, rough, mild):
    bd = energy_breakdown(rough, ETA)
    return (bd.per_triangle_spring, bd.per_triangle_penalty, bd.orientation_ok,
            bd.reversed_counts, bd.penalty_unit, bd.spring_total, bd.penalty_total)


QUANTITIES = {
    "energy_breakdown": _breakdown,
    "triangle_dets": lambda spec, k, rough, mild: list(triangle_dets(rough)),
    "spring_energy_grad":
        lambda spec, k, rough, mild: spring_energy_grad(rough.cell, rough.lam, rough.psi),
    "smoothed_energy_grad": lambda spec, k, rough, mild: smoothed_energy_grad(
        rough.cell, rough.lam, rough.psi, ETA, 0.02),
    "barrier_grad": _barrier,
    "certify": _certify,
    "averaged_vectors": lambda spec, k, rough, mild: averaged_vectors(rough),
    "marker_arrays": lambda spec, k, rough, mild: _marker_arrays(rough),
    "jensen_weighted_rest": lambda spec, k, rough, mild: jensen_weighted_rest(rough),
    "mechanism_tangent_rank": lambda spec, k, rough, mild: mechanism_tangent_rank(spec, k),
    "tile": lambda spec, k, rough, mild: rough.tile(k + 1).psi,
    "from_periodic": lambda spec, k, rough, mild: LatticeMap.from_periodic(
        rough, 0.5, [(i, j) for i in range(-1, 2) for j in range(-1, 2)]).positions,
}

PINS = {
    "averaged_vectors": "1381f271a8b1b27c60a550b11dfa0c07e972a485f8c048fbb49412df663c85d3",
    "barrier_grad": "51cb7cf85c99b4618b2d099da7ee6a9dd2723128ddf9e3532926301a942fd874",
    "certify": "244167e7da35df659908ff72395fb588d89bc233ee4750380bcec0919ca18b9b",
    "energy_breakdown": "4fa8a1ce088ca5e3488755b96d5cba715fcf5a62425c5b31c1eaef1aeee0bb57",
    "from_periodic": "36bf3c6998ca7342a1c370f3afa6913666301706a447e6b1ac94d0232a3c493e",
    "jensen_weighted_rest": "ec71d7e3ff3624230fa7593ad76e6ea74fd23dfb08c317a5e3a8625384cfddd2",
    "marker_arrays": "70e81bb657f6c292deaf292c5e4433dae9c4d52a40d9a70120f2cacebce5093d",
    "mechanism_tangent_rank": "fde5486f067670efb47bacdcd0b580b035500ee1f140d43ebe3410ecf5b6204f",
    "smoothed_energy_grad": "33a6a3f3d5147385de892d55a1c238fbf46ec1aa0601e37bfdbcfd78d6714edb",
    "spring_energy_grad": "b5b2cf87c90d8df717debcf871ffb55bbd9e0c34d6a45162e45c635bf38d2a3c",
    "tile": "566e4c64b80860fb774b1f792e6cd9b72faf72c9f5a2791d9d8b8748040528fa",
    "triangle_dets": "c36e5d199387d23c7cc3ef04870f0af4f59c263dfc2140f0622876a0c1d93869",
}

DENSITY_PIN = (
    "0x1.cf0cb35738282p-7",
    "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
)


def _feed(h, value):
    """Feed the exact bits of a (possibly nested) result into ``h``."""
    if isinstance(value, (tuple, list)):
        h.update(f"[{len(value)}".encode())
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        arr = np.asarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())


def _digest(name, cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        _feed(h, QUANTITIES[name](*case))
    return h.hexdigest()


def _density():
    """One anisotropic density solve on kagome at k = 2: the exact upper
    bound and a digest of the minimizer."""
    est = estimate_density(build_kagome(), np.diag([1.15, 0.9]), 0.05, k=2,
                           restarts=1, anneal=(0.05, 0.008))
    return (est.upper.hex(),
            hashlib.sha256(np.ascontiguousarray(est.minimizer.psi).tobytes()).hexdigest())


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_supercell_outputs_are_pinned(name, cases):
    assert _digest(name, cases) == PINS[name]


def test_anisotropic_density_solve_is_pinned():
    assert _density() == DENSITY_PIN


if __name__ == "__main__":
    all_cases = _cases()
    for name in sorted(QUANTITIES):
        print(f'    "{name}": "{_digest(name, all_cases)}",')
    print(f"DENSITY_PIN = {_density()!r}")
