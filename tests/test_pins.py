"""Bit-level pins of the supercell energy, gradient, certificate and marker
computations, and of the twist (counter-rotation) constructions.

Each supercell pin is the sha256 of every output over kagome, rotating
squares and the four variant families at k = 1, 2, 3, each on one fixed
random ``(lam, psi)``.  Each twist pin hashes one construction over the
six specs whose counter-rotation closes (plus, for the pin chase, a quad
whose chase does not close), the soft-mode positions of ``modulate`` at
``epsilon = 1/8, 1/16`` among them; the domain-wall pin hashes the
kagome strip, the rigid-units pin hashes every spec's units, the
inequalities pins hash the scalar inequality report and every compression
slack on two grids, the Jensen pins hash every trial slack of the
unit-rest bounds, the two density pins hash solves that reach L-BFGS, the
isotropic-bound pin holds every energy-gap ratio of two short fits, and
the search pin hashes every mechanism of a short kagome search.
Floats are hashed by their exact bits, so any change in summation or
scatter order shows up.  The density-sweep and soft-mode artifacts depend
on these bits through L-BFGS and the twist seed.  To print fresh pins
after an intended change of the arithmetic, run
``PYTHONPATH=src python tests/test_pins.py``.
"""

import hashlib

import numpy as np
import pytest

from latmech.cellsolver import (
    _invert_contraction,
    _jensen_slacks,
    _marker_direction_frame,
    _twist_seed,
    estimate_density,
    lambda_grid,
    verify_isotropic_bound,
    verify_jensen_bounds,
)
from latmech.energy import (
    LatticeMap,
    _barrier,
    _kernel,
    energy_breakdown,
    smoothed_energy_grad,
)
from latmech.geometry import (
    _compression_slack,
    _pair_grid,
    averaged_vectors,
    scalar_inequality_report,
)
from latmech.lattice import (
    DegenerateGeometryError,
    LatticeSpec,
    PeriodicDeformation,
    Supercell,
    VARIANT_KINDS,
    build_kagome,
    build_rotating_squares,
    build_variant,
    rotation,
)
from latmech.mechanisms import (
    MechanismError,
    PlacementPlan,
    _twist_contraction_table,
    _twist_fields,
    _twist_mechanisms,
    certify,
    domain_wall_mechanism,
    rigid_units,
    search_mechanisms,
    twist_admissible_range,
)
from latmech.softmodes import default_target, modulate

from conftest import check_cell_bounds, percolating_units_json

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


def _one_shot(kernel, lam, psi):
    """``(E, glam, gpsi)`` of a variable-``lam`` gradient kernel at one
    state, a stack of one row ``(lam.ravel(), psi)``."""
    E, G = kernel(np.concatenate([np.ravel(lam), np.ravel(psi)])[None], None)
    return float(E[0]), G[0, :4].reshape(2, 2), G[0, 4:].reshape(-1, 2)


def _barrier_grad(spec, k, rough, mild):
    out = _one_shot(_kernel(mild.cell, False, _barrier(1e-3)), mild.lam, mild.psi)
    assert np.isfinite(out[0])
    return out


def _one_trial(family, defm) -> float:
    """The slack of the Jensen bound ``family`` on the one trial ``defm``."""
    frame = _marker_direction_frame(defm.spec)
    return float(_jensen_slacks(defm.cell, family, defm.lam[None], defm.psi[None], frame)[0])


def _certify(spec, k, rough, mild):
    c = certify(rough)
    return (c.energy, c.eta_ref, c.max_spring_residual, c.min_det, c.lam,
            c.sigma1, c.sigma2, c.det_sign)


def _breakdown(spec, k, rough, mild):
    bd = energy_breakdown(rough, ETA)
    return (bd.per_triangle_spring, bd.per_triangle_penalty, bd.dets > 0,
            bd.reversed_counts, bd.penalty_unit, bd.spring_total, bd.penalty_total)


QUANTITIES = {
    "energy_breakdown": _breakdown,
    "triangle_dets": lambda spec, k, rough, mild: list(energy_breakdown(rough, ETA).dets),
    "spring_energy_grad":
        lambda spec, k, rough, mild: _one_shot(_kernel(rough.cell, True), rough.lam, rough.psi),
    "smoothed_energy_grad": lambda spec, k, rough, mild: smoothed_energy_grad(
        rough.cell, rough.lam, rough.psi, ETA, 0.02),
    "barrier_grad": _barrier_grad,
    "certify": _certify,
    "averaged_vectors": lambda spec, k, rough, mild: averaged_vectors(rough),
    "jensen_weighted_rest": lambda spec, k, rough, mild: _one_trial("weighted-rest", rough),
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
    "smoothed_energy_grad": "33a6a3f3d5147385de892d55a1c238fbf46ec1aa0601e37bfdbcfd78d6714edb",
    "spring_energy_grad": "b5b2cf87c90d8df717debcf871ffb55bbd9e0c34d6a45162e45c635bf38d2a3c",
    "tile": "566e4c64b80860fb774b1f792e6cd9b72faf72c9f5a2791d9d8b8748040528fa",
    "triangle_dets": "c36e5d199387d23c7cc3ef04870f0af4f59c263dfc2140f0622876a0c1d93869",
}


def _twist_specs():
    """The specs whose counter-rotation closes (the conftest ``twist_specs``);
    the field and pin-chase pins add a quad whose chase does not close."""
    return [
        build_kagome(),
        build_rotating_squares(),
        build_variant("isosceles-kagome", apex=1.2, size_ratio=0.8),
        build_variant("general-kagome", alpha=1.1, leg_ratio=0.75),
        build_variant("rhombus-squares", angle=1.3, size_ratio=0.6),
        build_variant("quad-squares", alpha=1.2, s=0.5, q=0.5),
    ]


def _or_error(fn, *args, **kwargs):
    """``fn(*args)``, or the message of the :class:`MechanismError` it raises."""
    try:
        return fn(*args, **kwargs)
    except MechanismError as exc:
        return f"MechanismError: {exc}"


def _seed(spec):
    out = []
    for k in (1, 2):
        for lam in (0.8 * rotation(0.3), 0.55 * rotation(-1.1),
                    np.diag([0.92, 0.88]), 0.97 * np.eye(2), 0.2 * np.eye(2),
                    np.diag([1.2, 0.8])):
            seed, _ = _twist_seed(spec, lam)
            out.append("none" if seed is None else np.repeat(seed, k * k, axis=0))
    return out


def _field(spec):
    return [_or_error(lambda: tuple(a[0] for a in _twist_fields(spec, [theta], k)))
            for k in (1, 2, 3) for theta in (0.0, 0.05, 0.3, 0.7, 1.2, 1.6, 2.4, 3.0)]


def _chase(spec):
    """The pin chase on a k = 2 window: counter-rotation and an angle that
    varies with unit and cell (misfit nonzero), positions in placement
    order."""
    units = rigid_units(spec)
    plan = PlacementPlan.compile(spec, units, [(i, j) for i in range(-1, 3)
                                               for j in range(-1, 3)])
    out = []
    for fn in (lambda u, ci, cj: 0.4 if units[u].parity == 0 else -0.4,
               lambda u, ci, cj: 0.3 * (1 + 0.1 * u) + 0.01 * ci - 0.02 * cj):
        pos, misfit = plan.place([[fn(*inst) for inst in plan.insts.tolist()]])
        out.append((plan.keys, pos[0], float(misfit[0])))
    return out


TWIST_QUANTITIES = {
    "contraction_table": lambda spec: _twist_contraction_table(spec),
    "admissible_range": lambda spec: [_or_error(twist_admissible_range, spec, step)
                                      for step in (0.01, 0.05)],
    "invert_contraction": lambda spec: [
        _invert_contraction(spec, c)[0]
        for c in (1.0, 0.999, 0.97, 0.9, 0.8, 0.7, 0.6, 0.5, 0.42, 0.3, 0.1)],
    "twist_seed": _seed,
    "twist_field": _field,
    "pin_chase": _chase,
    "modulate": lambda spec: [modulate(spec, default_target(), eps).positions
                              for eps in (1 / 8, 1 / 16)],
}

TWIST_PINS = {
    "admissible_range": "bcf0ce51ebe574aacaaf379ade155c3ec847dc249b14fd9d7f69b91cafd7ed94",
    "contraction_table": "7cfe4c8ab972aaa2af7fd8d6aff369851f728295fee71c9d23640c6202d39297",
    "invert_contraction": "f61957a6e79e704df132d4d90ea239219c7960cbce96b52d79bc4fa92378c1d5",
    "modulate": "990f2b46dbbd6430b819d0505fe0d2ddc2500572a2ffc6492caa62dcd86b346f",
    "pin_chase": "f88f5c1aa7da62cdad7083dda18439307fdb26be3593858beabd0f1887a3d27a",
    "twist_field": "f73d8f3a0706f999f3a6a629ea519156e3cad1ce77ac360a03028c3a80cfd946",
    "twist_seed": "87818c8a6c6ad88016c7aab2e3db1fc408cf2c070afec8907d728cf4f1e63b6e",
}

UNITS_PIN = "f431295a8acad0998d31d7a58defabe0005f85ed0e8318781c219654dc3e03ae"

PERCOLATING_UNITS_ERROR = "a rigid unit contains a lattice translate of itself"

WALL_PIN = "38bdf3b43145467f98c47891042d1a63796300faa0597e2371a6450c9428ff61"

# the coarse test grid and the golden-sample grid of ``inequalities``
INEQUALITY_GRIDS = ((0.05, 0.01), (0.1, 0.05))

INEQUALITIES_PIN = "eeba84e06443af56cad17168da890486ff622c51edde2de72be8a034310552b7"

# every element of the three-direction compression slack, one sha256 per
# grid of INEQUALITY_GRIDS, recorded from the sweep in 256-angle chunks
COMPRESSION_SLACK_PINS = (
    "71a50cb8c8fcf7de1a01b95f5fb047bccd6134647d05bbf728ae1fc43475e290",
    "e9dc6d7ea47e8f7ce05aefae1bfb661ff99302db671c2a9fa8c448bd888db39d",
)

# per matrix of _density: the upper bound in hex and the minimizer's sha256
DENSITY_PIN = (
    ("0x1.cf0cb35738282p-7",
     "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5"),
    ("0x1.6a7902fedd071p-8",
     "20b6e930e773b457df679dab16757a84ae5d811840384ca57fea0eadf20bda04"),
)

DENSITY_K3_PIN = (
    "0x1.04ce74d497447p+3",
    "584f7d17cb6c73ba80485c3fa068965f095f45f24113dd023fe1d783f847e22e",
)

# per spec (kagome, rotating squares): c_fit in hex and the sha256 of the ratios
ISOTROPIC_BOUND_PIN = [
    ("0x1.8e9df3374c83bp-3", "8581d9c2a4f55e640428b49e3c6e752d8b4670684285768cc590537e294cb9b1"),
    ("0x1.7517df8c484abp-2", "917cd11179ee75f15b214bffc06afa4a9cf128e5c753a052ad3999e095a787e9"),
]

SEARCH_PIN = "9114b8f17d09083833abf71f400cbc3d3c6822ae49e2aa48bd9a8091d017e3c0"


JENSEN_PINS = {
    "diag-stretch": "888576be56c414c8ec1625cf2c2f40b2453a2148010264eadb6bb1513d8cc7bf",
    "three-direction": "96b56e5a2b0c097e7068cc098857dc23fa9fc62349f31b2f8494c92ff2ff6add",
    "two-direction": "747343817c2e727f5b5ab64c444499d9049b0894b062b1df5e64d8b7bceed50e",
}


def _jensen_digest(name) -> str:
    """The slack of one unit-rest Jensen bound on fixed random trials (four
    per k = 1, 2, 3) on kagome, rotating squares and the four variants at
    their default parameters, wherever ``verify_jensen_bounds`` checks it;
    ``lam`` is a random diagonal with entries in [0, 2) for the
    diagonal-stretch bound, a random perturbation of the identity
    otherwise."""
    h = hashlib.sha256()
    specs = [build_kagome(), build_rotating_squares(),
             *(build_variant(kind) for kind in sorted(VARIANT_KINDS))]
    for i, spec in enumerate(specs):
        if name not in verify_jensen_bounds(spec, n_trials=1, k_max=1):
            continue
        h.update(spec.name.encode())
        for k in (1, 2, 3):
            rng = np.random.default_rng([31, i, k])
            cell = Supercell(spec, k)
            for _ in range(4):
                psi = 0.4 * rng.standard_normal((cell.n_nodes, 2))
                lam = (np.diag(rng.uniform(0.0, 2.0, size=2)) if name == "diag-stretch"
                       else np.eye(2) + 0.6 * rng.standard_normal((2, 2)))
                _feed(h, _one_trial(name, PeriodicDeformation(cell, lam, psi)))
    return h.hexdigest()


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


def _inequalities_digest() -> str:
    """Every name, slack, arg-min and witness of the scalar inequality
    report on each grid of ``INEQUALITY_GRIDS``."""
    h = hashlib.sha256()
    for lam_step, theta_step in INEQUALITY_GRIDS:
        for rep in scalar_inequality_report(lam_step, theta_step):
            h.update(rep.name.encode())
            _feed(h, [rep.min_slack, list(rep.argmin), list(rep.witness or ())])
    return h.hexdigest()


def _compression_slack_digests() -> tuple:
    """The slack rows of ``_compression_slack``, in angle order, on each
    grid of ``INEQUALITY_GRIDS`` as ``scalar_inequality_report`` sweeps it,
    read row by row from blocks of up to 256 angles."""
    digests = []
    for lam_step, theta_step in INEQUALITY_GRIDS:
        l1, l2 = _pair_grid(lam_step)
        theta = np.arange(0.0, 2 * np.pi, theta_step)
        h = hashlib.sha256()
        for block in _compression_slack(l1, l2, theta[theta < np.pi / 3], 256 * len(l1)):
            for row in block:
                h.update(row.tobytes())
        digests.append(h.hexdigest())
    return tuple(digests)


def _twist_digest(name) -> str:
    specs = _twist_specs()
    if name in ("pin_chase", "twist_field"):
        specs.append(build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6))
    h = hashlib.sha256()
    for spec in specs:
        _feed(h, TWIST_QUANTITIES[name](spec))
    return h.hexdigest()


def _int_rows(members):
    """``(n, 3)`` int64 rows of a unit's triangles or nodes, whether each
    member is a nested tuple ``(a, (b, c))`` or an integer row."""
    return np.array([np.hstack(m) for m in members], dtype=np.int64).reshape(-1, 3)


def _units_digest() -> str:
    """The rigid units of every spec of :func:`_specs`, in unit order:
    triangles ``(t, di, dj)`` and nodes ``(node, o1, o2)`` as plain int
    rows, and the parity."""
    h = hashlib.sha256()
    for spec in _specs():
        for unit in rigid_units(spec):
            _feed(h, (_int_rows(unit.triangles), _int_rows(unit.nodes), int(unit.parity)))
    return h.hexdigest()


def _wall_digest() -> str:
    """The kagome domain-wall strip at ``half_width = 5``: positions in
    placement order, misfit, spring residual, orientations and the
    compression read-offs."""
    h = hashlib.sha256()
    for theta1 in (2.2, 2.5, 2.9):
        w = domain_wall_mechanism(theta1, half_width=5)
        _feed(h, (w.keys, w.positions, w.max_misfit,
                  w.max_spring_residual, w.min_det, w.compression_left,
                  w.compression_right, np.asarray(list(w.compression_profile.items())),
                  w.vertical_compression, w.theta))
    return h.hexdigest()


def _density():
    """Two anisotropic density solves on kagome at k = 2, per matrix the
    exact upper bound and a digest of the minimizer.  The first one's best
    seed is the unpolished zero field; the second one's is the twist seed
    polished by L-BFGS, so the pin also holds the bits of a solve."""
    out = []
    for lam in (np.diag([1.15, 0.9]), np.array([[1.0, 0.1], [0.05, 0.95]])):
        est = estimate_density(build_kagome(), lam, 0.05, k=2, restarts=1)
        out.append((est.upper.hex(), hashlib.sha256(
            np.ascontiguousarray(est.minimizer.psi).tobytes()).hexdigest()))
    assert est.solver_trace["best_seed"] != "zero"
    assert est.solver_trace["iterations"] > 0
    return tuple(out)


def _density_k3():
    """A rotating-squares density solve at k = 3 on ``diag(1.1, -0.8)``,
    which has no twist seed, so every seed is polished by L-BFGS: the
    exact upper bound and a digest of the minimizer."""
    est = estimate_density(build_rotating_squares(), np.diag([1.1, -0.8]), 0.05, k=3,
                           restarts=2)
    assert est.solver_trace["iterations"] > 0
    return (est.upper.hex(),
            hashlib.sha256(np.ascontiguousarray(est.minimizer.psi).tobytes()).hexdigest())


def _isotropic_bound():
    """The isotropy energy-gap fit on kagome and rotating squares over the
    first four ``noniso`` matrices: ``c_fit`` and a digest of every ratio."""
    out = []
    for spec in (build_kagome(), build_rotating_squares()):
        rep = verify_isotropic_bound(spec, 0.05, lambda_grid("noniso")[:4], rng_seed=3)
        out.append((rep.c_fit.hex(),
                    hashlib.sha256(np.ascontiguousarray(rep.ratios).tobytes()).hexdigest()))
    return out


def _search_digest() -> str:
    """Every mechanism that ``search_mechanisms(kagome, 2, restarts=4)``
    accepts, in its order: restart, deformation and certificate."""
    h = hashlib.sha256()
    _feed(h, [(m.params["restart"], m.deformation.lam, m.deformation.psi,
               m.certificate.energy, m.certificate.max_spring_residual,
               m.certificate.min_det, m.certificate.sigma1, m.certificate.sigma2)
              for m in search_mechanisms(build_kagome(), 2, restarts=4)])
    return h.hexdigest()


def _cell_bounds():
    """:func:`check_cell_bounds` on kagome, rotating squares and the s = 0.4
    quad, with a twist as the extra zero-energy state where one closes
    (on a k = 2 supercell for kagome, so its slots wrap)."""
    out = []
    for spec, k in ((build_kagome(), 2), (build_rotating_squares(), 1),
                    (build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6), 1)):
        try:
            extra = (next(_twist_mechanisms(spec, [0.4], k)).deformation,)
        except MechanismError:
            extra = ()
        rep = check_cell_bounds(spec, n_samples=300, seed=3, extra_deformations=extra)
        out.append((rep.C1, rep.C2, rep.D2, rep.n_samples, rep.n_zero_energy))
    return out


def _wall_strip():
    """The kagome wall strip at the size of the certificate pass."""
    w = domain_wall_mechanism(2.25, half_width=40, rows=5)
    return (w.keys, w.positions, w.max_misfit,
            w.max_spring_residual, w.min_det, w.compression_left,
            w.compression_right, np.asarray(list(w.compression_profile.items())),
            w.vertical_compression)


def _interpolate():
    """Values and gradients of the eps = 1/16 soft-mode map at its
    weak-limit probe points."""
    spec, target = build_kagome(), default_target()
    lmap = modulate(spec, target, 1 / 16)
    edge = max(float(np.linalg.norm(tri[a] - tri[(a + 1) % 3]))
               for tri in spec.node_positions(spec.cover_keys) for a in range(3))
    margin = 1.25 * lmap.epsilon * edge
    x0, x1, y0, y1 = target.domain
    px = np.linspace(x0 + margin, x1 - margin, 12)
    py = np.linspace(y0 + margin, y1 - margin, 12)
    return lmap.interpolate(np.column_stack([m.ravel() for m in np.meshgrid(px, py)]))


CONSUMER_QUANTITIES = {
    "cell_bounds": _cell_bounds,
    "wall_strip": _wall_strip,
    "interpolate": _interpolate,
}

CONSUMER_PINS = {
    "cell_bounds": "521a0594d690d0538396c508ef6ca36a05eb607e4a36b5751a2eca3a04c222eb",
    "interpolate": "f8ab3557b23fec2b8875b15ea3e19e63ce7c2f6c2c7a2c1f81804ede7fb6ec82",
    "wall_strip": "ab3770bd2595029f9c4997b629f12c68a41b0035a4c70c69b540b4909ae7ce93",
}


def _consumer_digest(name) -> str:
    h = hashlib.sha256()
    _feed(h, CONSUMER_QUANTITIES[name]())
    return h.hexdigest()


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_supercell_outputs_are_pinned(name, cases):
    assert _digest(name, cases) == PINS[name]


@pytest.mark.parametrize("name", sorted(TWIST_QUANTITIES))
def test_twist_outputs_are_pinned(name):
    assert _twist_digest(name) == TWIST_PINS[name]


def test_rigid_units_are_pinned():
    assert _units_digest() == UNITS_PIN


def test_percolating_units_error_is_pinned():
    spec = LatticeSpec.from_json(percolating_units_json())
    with pytest.raises(DegenerateGeometryError) as exc:
        rigid_units(spec)
    assert type(exc.value) is DegenerateGeometryError
    assert str(exc.value) == PERCOLATING_UNITS_ERROR


def test_domain_wall_is_pinned():
    assert _wall_digest() == WALL_PIN


def test_scalar_inequalities_are_pinned():
    assert _inequalities_digest() == INEQUALITIES_PIN


def test_compression_slack_is_pinned():
    assert _compression_slack_digests() == COMPRESSION_SLACK_PINS


def test_anisotropic_density_solve_is_pinned():
    assert _density() == DENSITY_PIN


def test_k3_density_solve_is_pinned():
    assert _density_k3() == DENSITY_K3_PIN


def test_isotropic_bound_is_pinned():
    assert _isotropic_bound() == ISOTROPIC_BOUND_PIN


def test_mechanism_search_is_pinned():
    assert _search_digest() == SEARCH_PIN


@pytest.mark.parametrize("name", sorted(JENSEN_PINS))
def test_jensen_slacks_are_pinned(name):
    assert _jensen_digest(name) == JENSEN_PINS[name]


@pytest.mark.parametrize("name", sorted(CONSUMER_QUANTITIES))
def test_lattice_map_consumers_are_pinned(name):
    assert _consumer_digest(name) == CONSUMER_PINS[name]


if __name__ == "__main__":
    all_cases = _cases()
    for name in sorted(QUANTITIES):
        print(f'    "{name}": "{_digest(name, all_cases)}",')
    for name in sorted(TWIST_QUANTITIES):
        print(f'    "{name}": "{_twist_digest(name)}",')
    for name in sorted(CONSUMER_QUANTITIES):
        print(f'    "{name}": "{_consumer_digest(name)}",')
    for name in sorted(JENSEN_PINS):
        print(f'    "{name}": "{_jensen_digest(name)}",')
    print(f'UNITS_PIN = "{_units_digest()}"')
    print(f'WALL_PIN = "{_wall_digest()}"')
    print(f'INEQUALITIES_PIN = "{_inequalities_digest()}"')
    print(f"COMPRESSION_SLACK_PINS = {_compression_slack_digests()!r}")
    print(f"DENSITY_PIN = {_density()!r}")
    print(f"DENSITY_K3_PIN = {_density_k3()!r}")
    print(f"ISOTROPIC_BOUND_PIN = {_isotropic_bound()!r}")
    print(f'SEARCH_PIN = "{_search_digest()}"')
