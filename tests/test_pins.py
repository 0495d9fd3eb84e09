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
the search pin hashes every mechanism of a short kagome search.  The
supercell, twist, rigid-units and Jensen pins are pairs: one digest over
every spec but the two kagome-family variants (``KAGOME_VARIANTS``), one
over those two, so a change to the variants' layout re-records only the
second.
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

# the specs of the second digest of each split pin
KAGOME_VARIANTS = ("isosceles-kagome", "general-kagome")


def _split_digest(items, feed, spec=lambda item: item) -> tuple:
    """Two sha256 digests of ``feed(h, item)`` over ``items`` in order: the
    first over those whose ``spec`` is not one of ``KAGOME_VARIANTS``, the
    second over those whose is."""
    halves = (hashlib.sha256(), hashlib.sha256())
    for item in items:
        feed(halves[spec(item).name in KAGOME_VARIANTS], item)
    return tuple(h.hexdigest() for h in halves)


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
    "averaged_vectors": (
        "b2d9202886c5181da7ce349c1d74191afbaaa43ec54ac65b0e2636f628e35b2b",
        "ba8f61098655b2ed5084dc0aa0588745d9b0c2cc449b6feb01aa4e21ca0c7756",
    ),
    "barrier_grad": (
        "e5c41cc57d8cdc9e67e8332486a00de17e411351e3a0c5eeb1f9b0927bece96d",
        "4616bb90955cfdfca0509464afa40a915f98fdc0ffe577544ffc9007be300484",
    ),
    "certify": (
        "f2ef2f5491a56c50d0c358e6d485162dc0ad0731e1fd569e884b177cdc793c10",
        "51bb40cb0426ae99d588ec96ed4c37af1ec6a407cad12cb08a0db0f30bdfa78a",
    ),
    "energy_breakdown": (
        "d58cfae36c5fc8e7ea07bc1527f81c32f7207bc09f2031a49db85206d0b1df06",
        "60d2da6630df767ba40853df787188b1dbd58f222fb95d0246577631134b7f50",
    ),
    "from_periodic": (
        "c1229ca2c12905f3a7e31f36fbb6ddf59732d14497343b8b9a8b22c2f31d4e66",
        "bc57886045c8c7814ccb79b8a4a99783d78b4a7516a2b36f2572813f7ade47f0",
    ),
    "jensen_weighted_rest": (
        "d8a6938a0c17f906bce8d480ce851ab7ca0bd684c7da848827edfe476ab222c0",
        "7fc365787109d59dd86076ecf9b31c8ba9151bd519d875721493fd6b89fed05d",
    ),
    "smoothed_energy_grad": (
        "71ecba074f66216db0a70826b8ae76cd48b488d38eca0860b3f694a4fae206db",
        "e6bc2dda691b45c8c7f0d38d1f6ef4a97a006d22c142abef49c28081d5ea9c6b",
    ),
    "spring_energy_grad": (
        "36f799d82dd01744a27cef2e389e20a8fc2e8edb19121aae8789a35ea105b2d0",
        "b7b2e7056606ede167f14cf6584aa33291201df0752b107da35caae22ca8178d",
    ),
    "tile": (
        "b37b7f387e7b6d6b96d327e80b69780d83a3b18c15450982b56b6916b89ac596",
        "ced6bfead96dbabab207056d0a59dfdbdf88633e40715f8bb0b0dfe2d90c9367",
    ),
    "triangle_dets": (
        "b8460a16eb1dd451b9a4506d68dba569a7523b76c63c41fa1fa1d434e0335ba3",
        "006a305977d34719fa87124d4a4a885d5352d4a91eea53ade3b1b7028d869cfa",
    ),
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
    "admissible_range": (
        "5ee4e55571586bbb51a5fa5221b40d8b79f250932f1187ae9107f406933fb949",
        "081a662607ae3e6c8baa47cbaf3e58820c644c7828b22d9e151738ec67649721",
    ),
    "contraction_table": (
        "e2b17d5c8ce0cf2a3aaeb550e37ac82651dccb82d3209afcfd1ae326983d312c",
        "0cbeda7c14d9e0fb83dce2bec1d67e6ed5144c37a73624845193730d610f4e84",
    ),
    "invert_contraction": (
        "7847af38652489749f13c99a9add17e08577c8738f29001912fddd47ff92aad0",
        "7f5a4860b175243af5ffe432d1888825f0cf80af17f204b46a65863e3b377612",
    ),
    "modulate": (
        "aa7b021d61da62de34278861adc6ff8a89bb61e998c7565e5273f63b3b2493ff",
        "fed4205aa817d1d1ce4a4196dc95bf56026b1b45492458f4256d50099ed176e7",
    ),
    "pin_chase": (
        "707eccd2717de8b50d1aa1e60bf2cb7a21fe8ab1b31e12a6f5e417692f9ad812",
        "5bb5c20f7bc656d832e23ec1bf15df3687d6fc84b00cd559b9556dc343c3f912",
    ),
    "twist_field": (
        "be3c8829e410434655f05a1b05ca37f01a09e5a06b452e425f2a80d4c03bd717",
        "ca2d3269f745f76e583e41dd8a7404480c573c82131eefa6b8edffe27f3cc612",
    ),
    "twist_seed": (
        "87038919532e49a2cdbd9599c873bac11dd11dc1a877d8248c20f3961db6515b",
        "697a7cd2b6a7dd4bf14426aa502a3cc7f28bbd21b5fe4f6a9c371990bcc0b0bf",
    ),
}

UNITS_PIN = (
    "a3dcb50b5819d2b9f597d83031fa7b1dd1405d02f922b1956f9d9378ffadc768",
    "9681355546d228e9405b868afeecea2c72aa0846dffb767db65c7e8fa6277e11",
)

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
    ("0x1.cf0cb35738282p-7", "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5"),
    ("0x1.6a7902fedd071p-8", "20b6e930e773b457df679dab16757a84ae5d811840384ca57fea0eadf20bda04"),
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
    "diag-stretch": (
        "888576be56c414c8ec1625cf2c2f40b2453a2148010264eadb6bb1513d8cc7bf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "three-direction": (
        "71fc696f65a61d0d360db4f484398fc96fcfc1ec1257d35d673814ab9f644080",
        "9a482c79ef573c640872b6451d8ea93c6d31913324faeae882312c34054505db",
    ),
    "two-direction": (
        "3207b2726f3fe106896898167679603cb3cf3e6b1710d12da444d9a4772c2e70",
        "6f99893333c87a67f340ce48d06db27f7a126377eeb306c4e1cd5a52221b1f06",
    ),
}


def _jensen_digest(name) -> tuple:
    """The slack of one unit-rest Jensen bound on fixed random trials (four
    per k = 1, 2, 3) on kagome, rotating squares and the four variants at
    their default parameters, wherever ``verify_jensen_bounds`` checks it;
    ``lam`` is a random diagonal with entries in [0, 2) for the
    diagonal-stretch bound, a random perturbation of the identity
    otherwise."""
    def feed(h, item):
        i, spec = item
        if name not in verify_jensen_bounds(spec, n_trials=1, k_max=1):
            return
        h.update(spec.name.encode())
        for k in (1, 2, 3):
            rng = np.random.default_rng([31, i, k])
            cell = Supercell(spec, k)
            for _ in range(4):
                psi = 0.4 * rng.standard_normal((cell.n_nodes, 2))
                lam = (np.diag(rng.uniform(0.0, 2.0, size=2)) if name == "diag-stretch"
                       else np.eye(2) + 0.6 * rng.standard_normal((2, 2)))
                _feed(h, _one_trial(name, PeriodicDeformation(cell, lam, psi)))

    specs = [build_kagome(), build_rotating_squares(),
             *(build_variant(kind) for kind in sorted(VARIANT_KINDS))]
    return _split_digest(list(enumerate(specs)), feed, spec=lambda item: item[1])


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


def _digest(name, cases) -> tuple:
    return _split_digest(cases, lambda h, case: _feed(h, QUANTITIES[name](*case)),
                         spec=lambda case: case[0])


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


def _twist_digest(name) -> tuple:
    specs = _twist_specs()
    if name in ("pin_chase", "twist_field"):
        specs.append(build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6))
    return _split_digest(specs, lambda h, spec: _feed(h, TWIST_QUANTITIES[name](spec)))


def _int_rows(members):
    """``(n, 3)`` int64 rows of a unit's triangles or nodes, whether each
    member is a nested tuple ``(a, (b, c))`` or an integer row."""
    return np.array([np.hstack(m) for m in members], dtype=np.int64).reshape(-1, 3)


def _units_digest() -> tuple:
    """The rigid units of every spec of :func:`_specs`, in unit order:
    triangles ``(t, di, dj)`` and nodes ``(node, o1, o2)`` as plain int
    rows, and the parity."""
    def feed(h, spec):
        for unit in rigid_units(spec):
            _feed(h, (_int_rows(unit.triangles), _int_rows(unit.nodes), int(unit.parity)))

    return _split_digest(_specs(), feed)


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


def _literal(value, indent="", lead=0):
    """``value``, a digest, a hex float or a tuple, list or table of them,
    as Python source in the layout of the pins above, its first line
    ``lead`` columns in: a sequence on one line where it fits in 99
    columns, else one item a line; a table one entry a line."""
    if isinstance(value, str):
        return f'"{value}"'
    inner = indent + "    "
    if isinstance(value, dict):
        rows = "".join(f'{inner}"{k}": {_literal(v, inner, len(inner) + len(k) + 4)},\n'
                       for k, v in sorted(value.items()))
        return "{\n" + rows + indent + "}"
    items = [_literal(v, inner, len(inner)) for v in value]
    opening, closing = "[]" if isinstance(value, list) else "()"
    flat = opening + ", ".join(items) + closing
    if lead + len(flat) < 99 and "\n" not in flat:
        return flat
    return opening + "\n" + "".join(f"{inner}{item},\n" for item in items) + indent + closing


if __name__ == "__main__":
    # every pin of this file, recomputed, as source to paste over the pins
    all_cases = _cases()
    for name, value in {
        "PINS": {name: _digest(name, all_cases) for name in QUANTITIES},
        "TWIST_PINS": {name: _twist_digest(name) for name in TWIST_QUANTITIES},
        "UNITS_PIN": _units_digest(),
        "WALL_PIN": _wall_digest(),
        "INEQUALITIES_PIN": _inequalities_digest(),
        "COMPRESSION_SLACK_PINS": _compression_slack_digests(),
        "DENSITY_PIN": _density(),
        "DENSITY_K3_PIN": _density_k3(),
        "ISOTROPIC_BOUND_PIN": _isotropic_bound(),
        "SEARCH_PIN": _search_digest(),
        "JENSEN_PINS": {name: _jensen_digest(name) for name in JENSEN_PINS},
        "CONSUMER_PINS": {name: _consumer_digest(name) for name in CONSUMER_QUANTITIES},
    }.items():
        print(f"{name} = {_literal(value, lead=len(name) + 3)}")
