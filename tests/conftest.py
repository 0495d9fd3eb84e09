import json
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pytest

from latmech.energy import LatticeMap
from latmech.lattice import (
    LatticeSpec,
    PeriodicDeformation,
    Supercell,
    _cell_keys,
    build_kagome,
    build_rotating_squares,
    build_variant,
    cross2,
    ordered_sum,
    rotation,
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


def scale_coordinates(factor):
    """A mutation of a spec's JSON data that scales its period vectors and
    basic nodes, and so every length, by ``factor``."""
    def mutate(d):
        d.update(v1=[factor * x for x in d["v1"]], v2=[factor * x for x in d["v2"]],
                 basic_nodes=[[factor * x for x in row] for row in d["basic_nodes"]])
    return mutate


def scaled_json(spec, factor) -> str:
    """The JSON text of ``spec`` with every length times ``factor``."""
    data = json.loads(spec.to_json())
    scale_coordinates(factor)(data)
    return json.dumps(data)


def percolating_units_json():
    """Kagome with every cover triangle penalized: the rigid units glue to
    their own lattice translates, so the spec loads but has no twist."""
    data = json.loads(build_kagome().to_json())
    for tri in data["triangles"]:
        tri["penalized"] = True
    return json.dumps(data, indent=2)


# ---------------------------------------------------------------------------
# references: an identity and a sampled fit that no command runs, kept for
# the assertions the acceptance criteria, unit tests and pins make on them
# ---------------------------------------------------------------------------


def commutator_closed_form(lam, alpha: float):
    """Closed form of the commutator norm, independent of the unit vector:

    ``|sin(alpha)| * (sigma1 - sigma2)``  when ``det lam >= 0``,
    ``|sin(alpha)| * (sigma1 + sigma2)``  when ``det lam < 0``.

    Both branches equal ``|sin(alpha)| * hypot(a - d, b + c)``, which is
    what is evaluated; accepts stacked matrices ``(..., 2, 2)``.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = lam[..., 0, 0], lam[..., 0, 1]
    c, d = lam[..., 1, 0], lam[..., 1, 1]
    return np.abs(np.sin(alpha)) * np.hypot(a - d, b + c)


@dataclass
class CellBoundsReport:
    """Fitted constants for the single-cell energy sandwich

    ``max(C2 * (|grad u|^2 - D2 |U|), 0)  <=  E  <=  C1 * (|grad u|^2 + |U|)``

    where ``|grad u|^2`` is the squared L2 norm over the cover and ``D2``
    is calibrated on the zero-energy (mechanism) samples supplied.
    ``C2`` is fitted on the ``n_positive_slack`` samples with positive
    energy and positive slack ``|grad u|^2 - D2 |U|``; it is ``inf`` when
    there are none."""

    C1: float
    C2: float
    D2: float
    n_samples: int
    n_zero_energy: int
    n_positive_slack: int


def check_cell_bounds(
    spec: LatticeSpec,
    n_samples: int = 10000,
    eta: float = 0.05,
    seed: int = 0,
    extra_deformations: Iterable[PeriodicDeformation] = (),
) -> CellBoundsReport:
    """Sample single-cell deformations and fit the sandwich constants.

    Samples are ``u = lam x + noise`` with matrix entries and nodal noise
    componentwise uniform in ``[-3, 3]``, plus the identity, a few pure
    rotations, and any supplied zero-energy deformations (restricted to
    one cell).  All fitted constants must come out finite and positive.
    """
    rng = np.random.default_rng(seed)
    keys = _cell_keys(spec)
    X = spec.node_positions(keys)
    cell = LatticeMap(spec, 1.0, keys, X)
    nr = len(keys)

    lam = rng.uniform(-3, 3, size=(n_samples, 2, 2))
    noise = rng.uniform(-3, 3, size=(n_samples, nr, 2))
    U = np.einsum("sab,nb->sna", lam, X) + noise

    # deterministic zero-energy states: identity, rotations, supplied modes
    special = [X.copy()]
    for ang in (0.4, 1.1, 2.5):
        special.append(X @ rotation(ang).T)
    for defm in extra_deformations:
        special.append(defm.node_positions(keys))
    U = np.concatenate([U, np.asarray(special)], axis=0)
    n_tot = U.shape[0]

    # the rows of each class's nodes among the cell's keys
    sa, sb = cell.rows(spec.spring_keys, 0, 0)[..., 0].T
    t0, t1, t2 = cell.rows(spec.penalized_keys, 0, 0)[..., 0].T
    lengths = np.linalg.norm(U[:, sb] - U[:, sa], axis=2)
    cross = cross2(U[:, t1] - U[:, t0], U[:, t2] - U[:, t0])
    E = ordered_sum(np.concatenate([
        (spec.spring_stiffness * (lengths - spec.spring_rest) ** 2).T,
        np.where(cross > 0, 0.0, spec.penalized_area / eta).T]))

    grad2 = np.zeros(n_tot)
    cover = cell.rows(spec.cover_keys, 0, 0)[..., 0]
    q0, q1, q2 = X[cover.T]
    dinvs = np.linalg.inv(np.stack([q1 - q0, q2 - q0], axis=-1))
    areas = 0.5 * cross2(q1 - q0, q2 - q0)
    for (i0, i1, i2), dinv, area in zip(cover, dinvs, areas.tolist()):
        G = np.einsum("snk,kl->snl", np.stack(
            [U[:, i1] - U[:, i0], U[:, i2] - U[:, i0]], axis=2), dinv)
        grad2 += area * np.einsum("sij,sij->s", G, G)

    area_U = spec.cell_area
    zero = E <= 1e-18
    D2 = float(np.max(grad2[zero]) / area_U) if np.any(zero) else 0.0
    C1 = float(np.max(E / (grad2 + area_U)))
    slack = grad2 - D2 * area_U
    pos = (~zero) & (slack > 1e-9)
    C2 = float(np.min(E[pos] / slack[pos])) if np.any(pos) else np.inf
    return CellBoundsReport(
        C1=C1, C2=C2, D2=D2, n_samples=n_tot,
        n_zero_energy=int(zero.sum()), n_positive_slack=int(pos.sum()),
    )
