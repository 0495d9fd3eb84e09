"""Rigid units, twist mechanisms, search, and the kagome domain wall."""

import json

import numpy as np
import pytest

from latmech.energy import _lbfgsb, _search_objective, energy_breakdown, triangle_dets
from latmech.geometry import signed_svd
from latmech.lattice import (DegenerateGeometryError, LatticeSpec, PeriodicDeformation,
                             Supercell, build_kagome, build_variant, rotation)
from latmech.mechanisms import (
    MechanismError,
    PlacementPlan,
    _pack,
    _unpack,
    _twist_fields,
    _twist_plan,
    certify,
    domain_wall_angles,
    domain_wall_mechanism,
    rigid_units,
    search_mechanisms,
    twist_admissible_range,
    twist_mechanism,
)

from conftest import percolating_units_json, random_deformation


# ---------------------------------------------------------------------------
# rigid units
# ---------------------------------------------------------------------------


def test_rigid_units_two_colored(all_specs):
    for spec in all_specs:
        units = rigid_units(spec)
        assert len(units) == 2
        assert sorted(u.parity for u in units) == [0, 1]
        covered = {t for u in units for t in u.triangles[:, 0].tolist()}
        assert covered == set(range(len(spec.penalized_keys)))


def test_rigid_unit_sizes(kagome, rotating_squares):
    # kagome triangles are their own units; each square glues two triangles
    assert sorted(len(u.triangles) for u in rigid_units(kagome)) == [1, 1]
    assert sorted(len(u.triangles) for u in rigid_units(rotating_squares)) == [2, 2]


@pytest.mark.parametrize("penalized, message", [
    ((3, 4), "pin adjacency of rigid units is not two-colorable"),
    ((3, 4, 5), "unit coloring is not one-cell periodic; no one-periodic "
                "counter-rotation exists"),
])
def test_rigid_unit_coloring_errors(penalized, message):
    # kagome with other cover triangles penalized: units whose pin
    # adjacency has an odd cycle, or whose coloring alternates by cell
    data = json.loads(build_kagome().to_json())
    for t, tri in enumerate(data["triangles"]):
        tri["penalized"] = t in penalized
    with pytest.raises(DegenerateGeometryError) as exc:
        rigid_units(LatticeSpec.from_json(json.dumps(data)))
    assert str(exc.value) == message


def test_assemble_zero_rotation_reproduces_reference(kagome):
    units = rigid_units(kagome)
    cells = [(i, j) for i in range(3) for j in range(3)]
    plan = PlacementPlan.compile(kagome, units, cells)
    pos, misfit = plan.place(np.zeros((1, len(plan.insts))))
    assert misfit[0] <= 1e-14
    for key, y in zip(plan.keys, pos[0]):
        assert np.allclose(y, kagome.node_positions(key), atol=1e-14)


# ---------------------------------------------------------------------------
# counter-rotation mechanisms
# ---------------------------------------------------------------------------


def test_twist_zero_angle_is_reference(all_specs):
    for spec in all_specs:
        mech = twist_mechanism(spec, 0.0)
        assert np.allclose(mech.deformation.lam, np.eye(2), atol=1e-14)
        assert np.max(np.abs(mech.deformation.psi)) <= 1e-12


def test_twist_certificates_on_builtins(kagome, rotating_squares):
    for spec in (kagome, rotating_squares):
        for theta in (0.1, 0.4, 0.8, 1.2):
            mech = twist_mechanism(spec, theta, k=1)
            cert = mech.certificate
            assert cert.energy <= 1e-12
            assert cert.max_spring_residual <= 1e-10
            assert cert.min_det > 0
            # the affine part is the isotropic contraction cos(theta) * I
            assert np.allclose(
                mech.deformation.lam, np.cos(theta) * np.eye(2), atol=1e-12)
            assert cert.isotropy_defect <= 1e-12
            assert cert.sigma1 <= 1 + 1e-8


def test_twist_certificates_on_variants(twist_specs):
    for spec in twist_specs[2:]:
        mech = twist_mechanism(spec, 0.6, k=2)
        cert = mech.certificate
        assert cert.energy <= 1e-12
        assert cert.min_det > 0
        assert cert.isotropy_defect <= 1e-8
        assert cert.sigma1 <= 1 + 1e-8


def test_twist_respects_supercell_period(kagome):
    m1 = twist_mechanism(kagome, 0.5, k=1)
    m3 = twist_mechanism(kagome, 0.5, k=3)
    assert np.allclose(m1.deformation.lam, m3.deformation.lam, atol=1e-12)
    assert m3.certificate.energy <= 1e-12


def test_twist_admissible_range_symmetric(twist_specs):
    for spec in twist_specs:
        lo, hi = twist_admissible_range(spec, probe_step=0.05)
        assert lo == -hi
        assert hi > 0.5
        # the contraction decreases strictly on the admissible branch
        cs = [twist_mechanism(spec, t).certificate.sigma1
              for t in np.linspace(0.05, hi, 6)]
        assert all(a > b for a, b in zip(cs, cs[1:]))


def test_twist_admissible_range_exact_probe(kagome, rotating_squares):
    # the probe stops after 157 accumulated steps of 0.01 on both builtins
    for spec in (kagome, rotating_squares):
        assert twist_admissible_range(spec) == (-1.5700000000000012, 1.5700000000000012)


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0, -0.01, np.pi, 4.0])
def test_twist_admissible_range_rejects_bad_probe_step(kagome, step):
    # a zero or negative step would never end the probe loop; NaN, inf and
    # steps of pi or more leave no probe and would blame the spec
    with pytest.raises(ValueError, match=r"probe_step must be in \(0, pi\), got "):
        twist_admissible_range(kagome, probe_step=step)


def _admissible_range_by_probe(spec, probe_step):
    """The reference: the probe-by-probe scan that ``twist_admissible_range``
    ran before it took one mask over the stacked probes."""
    probes = []
    theta = 0.0
    while theta + probe_step < np.pi:
        theta += probe_step
        probes.append(theta)
    try:
        plan = _twist_plan(spec, 1)
    except MechanismError:
        raise MechanismError("no admissible twist angle found") from None
    good = 0.0
    c_prev = 1.0
    lam, _, misfit, drift = plan.fields(probes)
    for theta, lam_t, m, d in zip(probes, lam, misfit, drift):
        if not (m <= 1e-12 and d <= 1e-12):
            break
        S = np.linalg.svd(lam_t).S
        det = (1.0 if np.linalg.det(lam_t) >= 0 else -1.0) * float(S[0]) * float(S[1])
        if float(S[0]) >= c_prev or det <= 1e-8:
            break
        c_prev = float(S[0])
        good = theta
    if good == 0.0:
        raise MechanismError("no admissible twist angle found")
    return (-good, good)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MechanismError, DegenerateGeometryError) as exc:
        return type(exc), str(exc)


def test_twist_admissible_range_matches_the_probe_scan(kagome, rotating_squares):
    specs = [kagome, rotating_squares, LatticeSpec.from_json(percolating_units_json())]
    specs += [build_variant("isosceles-kagome", apex=a, size_ratio=r)
              for a in (0.8, 1.6, 2.2) for r in (0.6, 1.4)]
    specs += [build_variant("general-kagome", alpha=a, leg_ratio=0.6, size_ratio=r)
              for a in (0.7, 1.5) for r in (0.8, 1.3)]
    specs += [build_variant("rhombus-squares", angle=a, size_ratio=0.4) for a in (0.9, 2.0)]
    specs += [build_variant("quad-squares", alpha=1.0, s=s, q=q)
              for s, q in ((0.5, 0.5), (0.4, 0.6), (0.3, 0.5))]
    for spec in specs:
        for step in (0.01, 0.05, 0.3):
            want = _outcome(_admissible_range_by_probe, spec, step)
            assert _outcome(twist_admissible_range, spec, step) == want, (spec.name, step)


def test_twist_field_is_the_mechanism_deformation(twist_specs):
    for spec in twist_specs:
        for theta, k in ((0.4, 1), (0.9, 2)):
            lam, psi = _twist_fields(spec, [theta], k)
            defm = twist_mechanism(spec, theta, k).deformation
            assert lam[0].tobytes() == defm.lam.tobytes()
            assert psi[0].tobytes() == defm.psi.tobytes()


def _first_break(spec, probe_step):
    """The admissible-range probe run one angle at a time: the last good
    angle before the first closure or monotonicity break."""
    theta, good, c_prev = 0.0, 0.0, 1.0
    while theta + probe_step < np.pi:
        theta += probe_step
        try:
            lam = _twist_fields(spec, [theta])[0][0]
        except MechanismError:
            break
        sd = signed_svd(lam)
        if sd.sigma1 >= c_prev or sd.det_sign * sd.sigma1 * sd.sigma2 <= 1e-8:
            break
        c_prev, good = sd.sigma1, theta
    return good


def test_batched_twist_equals_one_angle_path(twist_specs):
    # the batch runs past the monotonicity break near pi/2 up to pi
    thetas = np.arange(1, 63) * 0.05
    for spec in twist_specs:
        for k in (1, 2):
            plan = _twist_plan(spec, k)
            batch = plan.fields(thetas)
            for i, theta in enumerate(thetas):
                one = plan.fields([theta])
                for b, o in zip(batch, one):
                    assert b[i].tobytes() == o[0].tobytes()
                lam, psi = _twist_fields(spec, [theta], k)
                assert batch[0][i].tobytes() == lam[0].tobytes()
                assert batch[1][i].tobytes() == psi[0].tobytes()
        assert twist_admissible_range(spec, 0.05)[1] == _first_break(spec, 0.05)
    # a quad whose chase does not close: the batch misfit is the misfit of
    # the one-angle pin chase, and every angle but zero breaks closure
    spec = build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6)
    units = rigid_units(spec)
    misfit = _twist_plan(spec, 1).fields(thetas)[2]
    chase = PlacementPlan.compile(spec, units, [(i, j) for i in range(-1, 2)
                                                for j in range(-1, 2)])
    for theta, m in zip(thetas, misfit):
        angles = [theta if units[u].parity == 0 else -theta for u, _, _ in chase.insts]
        one = float(chase.place([angles])[1][0])
        assert m.hex() == one.hex() and m > 1e-12
    with pytest.raises(MechanismError, match="no admissible"):
        twist_admissible_range(spec, 0.05)


def test_twist_closure_failure_raises():
    # breaking the side-length balance of the quad stops the pin chase
    spec = build_variant("quad-squares", alpha=1.2, s=0.3, q=0.6)
    with pytest.raises(MechanismError):
        twist_mechanism(spec, 0.2)
    with pytest.raises(MechanismError):
        _twist_fields(spec, [0.2])
    # a NaN angle leaves a NaN misfit, which closes no mechanism either
    with pytest.raises(MechanismError, match="counter-rotation by nan does not close"):
        twist_mechanism(build_kagome(), float("nan"))


# ---------------------------------------------------------------------------
# certification of arbitrary deformations
# ---------------------------------------------------------------------------


def test_certify_rejects_random_deformation(kagome):
    rng = np.random.default_rng(5)
    defm = random_deformation(kagome, 2, rng)
    cert = certify(defm)
    assert cert.eta_ref == 0.1
    bd = energy_breakdown(defm, 0.1)
    assert cert.energy == bd.averaged
    assert cert.energy > 1e-6
    assert cert.max_spring_residual > 1e-6
    assert cert.min_det == min(float(np.min(d)) for d in triangle_dets(defm))
    assert np.array_equal(cert.lam, defm.lam)


# ---------------------------------------------------------------------------
# numerical search
# ---------------------------------------------------------------------------


def test_search_finds_mechanisms(kagome):
    hits = search_mechanisms(kagome, 1, restarts=6, rng_seed=0)
    assert hits
    for mech in hits:
        assert mech.certificate.energy <= 1e-12
        assert mech.certificate.min_det > 0
        assert mech.certificate.sigma1 <= 1 + 1e-8
    energies = [m.certificate.energy for m in hits]
    assert energies == sorted(energies)


def _search_alone(spec, k, restarts=32, rng_seed=0):
    """``search_mechanisms`` as it was with each restart run through the
    barrier stages in turn, a stack of one at a time: the reference of
    the stacked search, as ``(restart, energy, lam, psi)`` per hit."""
    cell = Supercell(spec, k)
    n = cell.n_nodes
    rng = np.random.default_rng(rng_seed)
    objectives = [_search_objective(cell, mu) for mu in (1e-2, 1e-4, 1e-6, 0.0)]
    starts = []
    while len(starts) < restarts:
        if len(starts) % 2 == 0:
            lam0 = rng.uniform(0.2, 0.99) * rotation(rng.uniform(0, 2 * np.pi))
            lam0 += 0.02 * rng.standard_normal((2, 2))
        else:
            lam0 = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        starts.append(_pack(lam0, 0.2 * rng.standard_normal((n, 2))))
    found = []
    for si, x in enumerate(starts):
        for objective in objectives:
            [(x, *_)] = _lbfgsb(objective, x[None], 400, 1e-18, 1e-14)
        lam, psi = _unpack(x, n)
        defm = PeriodicDeformation(cell, lam, psi)
        cert = certify(defm)
        if cert.energy <= 1e-12 and cert.min_det > 0:
            found.append((cert.energy, energy_breakdown(defm, 0.1).spring_total, si,
                          lam.tobytes(), psi.tobytes()))
    found.sort(key=lambda rec: rec[:3])
    return [(si, energy, lam, psi) for energy, _, si, lam, psi in found]


@pytest.mark.parametrize("spec_name, k", [("kagome", 2), ("rotating_squares", 1)])
def test_stacked_search_equals_running_each_restart_alone(request, spec_name, k):
    spec = request.getfixturevalue(spec_name)
    with np.errstate(all="raise"):
        hits = search_mechanisms(spec, k, restarts=32, rng_seed=7)
    want = _search_alone(spec, k, restarts=32, rng_seed=7)
    assert want
    assert [(m.params["restart"], m.certificate.energy, m.deformation.lam.tobytes(),
             m.deformation.psi.tobytes()) for m in hits] == want


# ---------------------------------------------------------------------------
# domain wall
# ---------------------------------------------------------------------------


def test_wall_angles_flat_column_is_fixed_point():
    th = domain_wall_angles(2 * np.pi / 3, n=20)
    assert np.max(np.abs(th - 2 * np.pi / 3)) <= 1e-14


def test_wall_angles_validation():
    with pytest.raises(ValueError):
        domain_wall_angles(2 * np.pi / 3 - 0.01)
    with pytest.raises(ValueError):
        domain_wall_angles(np.pi)


def test_wall_angles_saturate():
    th = domain_wall_angles(2.2, n=25)
    assert np.all(np.diff(th) >= -1e-14)        # monotone outward
    assert abs(th[20] - th[10]) < 1e-3          # convergence to the limit
    assert th[-1] < np.pi


def test_wall_strip_needs_two_rows():
    # horizontal neighbours in one row of kagome cells share no node
    with pytest.raises(ValueError, match="rows >= 2, got 3 and 1"):
        domain_wall_mechanism(2.2, half_width=3, rows=1)


def test_wall_strip_assembles():
    wall = domain_wall_mechanism(2.2, half_width=6, rows=3)
    assert wall.max_misfit <= 1e-10
    assert wall.max_spring_residual <= 1e-10
    assert wall.min_det > 0
    assert 0 < wall.compression_right <= 1.0
    assert wall.far_field_gap <= 1e-8
    # compression profile is mirror symmetric about the wall
    prof = wall.compression_profile
    for col in prof:
        if -col in prof:
            assert abs(prof[col] - prof[-col]) <= 1e-10
    # the far field contracts like the limiting twist state
    c_limit = abs(np.cos(wall.theta_limit - 2 * np.pi / 3))
    assert abs(wall.compression_right - c_limit) <= 1e-2
    assert abs(wall.vertical_compression - wall.compression_right) <= 1e-3
