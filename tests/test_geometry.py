"""Marker averages, commutator identities, brackets, and triangle rigidity."""

import tracemalloc

import numpy as np
import pytest

from latmech import geometry
from latmech.geometry import (
    _compression_parts,
    _compression_slack,
    _pair_grid,
    _pos_sq,
    averaged_vectors,
    conformal_check,
    lambda_from_averages,
    lower_bracket,
    principal_stretches,
    rigidity_constant,
    sample_triangle_deformations,
    scalar_inequality_report,
    signed_svd,
    triangle_deviation,
    triangle_reference,
    triangle_spring_energy,
)
from latmech.lattice import _GRID_POINTS, PeriodicDeformation, Supercell, rotation
from latmech.mechanisms import _twist_plan


# independent references: the identities the library evaluates in closed
# or vectorized form, computed the direct way


def commutator_direct(lam, alpha: float, e) -> float:
    """``|(lam R(alpha) - R(alpha) lam) e|`` for a unit vector ``e``."""
    R = rotation(alpha)
    C = lam @ R - R @ lam
    return float(np.linalg.norm(C @ e))


def direction_stretch(l1, l2, theta):
    """``|diag(l1, l2) e_theta|`` for the unit direction at angle theta
    measured from the first principal axis."""
    return np.sqrt(l2**2 + (l1**2 - l2**2) * np.cos(theta) ** 2)


from conftest import commutator_closed_form, random_deformation


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# averaged marker vectors
# ---------------------------------------------------------------------------


def test_affine_part_recovered_from_averages(all_specs):
    rng = np.random.default_rng(7)
    for spec in all_specs:
        for k in (1, 2, 3):
            defm = random_deformation(spec, k, rng)
            lam_hat = lambda_from_averages(defm)
            scale = 1.0 + np.linalg.norm(defm.lam)
            assert np.max(np.abs(lam_hat - defm.lam)) <= 1e-12 * scale


def test_averages_reduce_to_reference_at_identity(all_specs):
    for spec in all_specs:
        cell = Supercell(spec, 2)
        defm = PeriodicDeformation(cell, np.eye(2), np.zeros((cell.n_nodes, 2)))
        a1, a2, at1, at2 = averaged_vectors(defm)
        assert np.allclose(at1, a1, atol=1e-14)
        assert np.allclose(at2, a2, atol=1e-14)
        # the reference averages are the summed marker vectors
        b_sum = sum(b for b, _ in spec.segments(spec.marker_keys))
        r_sum = sum(r for _, r in spec.segments(spec.marker_keys))
        assert np.allclose(a1, b_sum, atol=1e-14)
        assert np.allclose(a2, r_sum, atol=1e-14)


# ---------------------------------------------------------------------------
# commutator with a rotation
# ---------------------------------------------------------------------------


def test_commutator_closed_form_matches_direct():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = rng.uniform(-2, 2, size=(2, 2))
        alpha = rng.uniform(0.1, np.pi - 0.1)
        phi = rng.uniform(0, 2 * np.pi)
        e = np.array([np.cos(phi), np.sin(phi)])
        direct = commutator_direct(lam, alpha, e)
        closed = float(commutator_closed_form(lam, alpha))
        assert abs(direct - closed) <= 1e-12 * (1.0 + closed)


def test_commutator_closed_form_svd_branches():
    rng = np.random.default_rng(12)
    for _ in range(100):
        lam = rng.uniform(-2, 2, size=(2, 2))
        alpha = rng.uniform(0.1, np.pi - 0.1)
        s = np.linalg.svd(lam, compute_uv=False)
        if np.linalg.det(lam) >= 0:
            expect = abs(np.sin(alpha)) * (s[0] - s[1])
        else:
            expect = abs(np.sin(alpha)) * (s[0] + s[1])
        assert abs(float(commutator_closed_form(lam, alpha)) - expect) <= 1e-12


def test_commutator_closed_form_batched():
    rng = np.random.default_rng(13)
    lams = rng.uniform(-2, 2, size=(7, 2, 2))
    batch = commutator_closed_form(lams, 1.1)
    assert batch.shape == (7,)
    for lam, val in zip(lams, batch):
        assert abs(float(commutator_closed_form(lam, 1.1)) - val) == 0.0


def test_commutator_vanishes_on_scaled_rotations():
    for theta in (0.0, 0.4, np.pi / 2, 2.0):
        assert float(commutator_closed_form(1.7 * _rot(theta), 1.0)) <= 1e-15


# ---------------------------------------------------------------------------
# stretches, signed SVD, brackets
# ---------------------------------------------------------------------------


def test_principal_stretches_match_numpy():
    rng = np.random.default_rng(21)
    lams = rng.uniform(-3, 3, size=(500, 2, 2))
    s1, s2, ds = principal_stretches(lams)
    sv = np.linalg.svd(lams, compute_uv=False)
    dets = np.linalg.det(lams)
    assert np.max(np.abs(s1 - sv[:, 0])) <= 1e-12
    assert np.max(np.abs(s2 - sv[:, 1])) <= 1e-12
    assert np.all(ds[dets > 0] == 1.0)
    assert np.all(ds[dets < 0] == -1.0)


def test_signed_svd_reconstructs():
    rng = np.random.default_rng(22)
    for _ in range(100):
        lam = rng.uniform(-2, 2, size=(2, 2))
        dat = signed_svd(lam)
        # the singular values carry the Frobenius norm, the sign the determinant
        assert abs(dat.sigma1 ** 2 + dat.sigma2 ** 2 - np.sum(lam ** 2)) <= 1e-12
        assert abs(dat.det_sign * dat.sigma1 * dat.sigma2 - np.linalg.det(lam)) <= 1e-12
        assert dat.sigma1 >= dat.sigma2 >= 0


def test_stacked_signed_svd_matches_one_matrix_calls(twist_specs):
    rng = np.random.default_rng(23)
    scale = 10.0 ** rng.integers(-6, 7, size=(40, 25, 1, 1))
    stacks = [rng.uniform(-2, 2, size=(1000, 2, 2)), scale * rng.standard_normal((40, 25, 2, 2)),
              np.zeros((3, 2, 2)), np.tile(np.diag([1.0, -1.0]), (2, 1, 1))]
    # the twist fields at the admissible-range probes, closing or not
    probes = 0.01 * np.arange(1, 315)
    stacks += [_twist_plan(spec, 1).fields(probes)[0] for spec in twist_specs]
    for lam in stacks:
        sd = signed_svd(lam)
        one = [(np.linalg.svd(m).S, 1.0 if np.linalg.det(m) >= 0 else -1.0)
               for m in lam.reshape(-1, 2, 2)]
        for got, want in ((sd.sigma1, [S[0] for S, _ in one]),
                          (sd.sigma2, [S[1] for S, _ in one]),
                          (sd.det_sign, [sign for _, sign in one])):
            assert got.shape == lam.shape[:-2]
            assert got.tobytes() == np.array(want).tobytes()
    single = signed_svd(stacks[0][0])
    assert all(type(v) is float for v in (single.sigma1, single.sigma2, single.det_sign))


def test_isotropy_defect():
    """``sigma1 - sigma2``, the certificates' isotropy defect, is zero on
    scaled rotations."""
    for lam, defect, tol in ((0.7 * _rot(1.2), 0.0, 1e-15), (np.diag([2.0, 1.0]), 1.0, 1e-14)):
        s1, s2, _ = principal_stretches(lam)
        assert abs(float(s1 - s2) - defect) <= tol


def test_lower_bracket_values():
    assert float(lower_bracket(np.eye(2))) == 0.0
    # compressive scaled rotations sit exactly on the floor
    assert float(lower_bracket(0.5 * _rot(0.9))) <= 1e-15
    # diag(2, 1): anisotropy 1 plus one unit of over-stretch
    assert abs(float(lower_bracket(np.diag([2.0, 1.0]))) - 2.0) <= 1e-12
    # orientation-reversing isometries pay (sigma1 + sigma2)^2
    refl = np.diag([1.0, -1.0]) @ _rot(0.3)
    assert abs(float(lower_bracket(refl)) - 4.0) <= 1e-12
    # expansive scaled rotations pay only the over-stretch parts
    assert abs(float(lower_bracket(1.5 * _rot(0.2))) - 0.5) <= 1e-12


def test_lower_bracket_batched():
    rng = np.random.default_rng(23)
    lams = rng.uniform(-2, 2, size=(50, 2, 2))
    vals = lower_bracket(lams)
    assert vals.shape == (50,)
    assert np.all(vals >= 0)
    for lam, v in zip(lams, vals):
        assert float(lower_bracket(lam)) == v


def test_direction_stretch_axes():
    assert abs(direction_stretch(2.0, 0.5, 0.0) - 2.0) <= 1e-15
    assert abs(direction_stretch(2.0, 0.5, np.pi / 2) - 0.5) <= 1e-15
    # against the direct |diag(l1,l2) e| formula
    th = 0.77
    e = np.array([np.cos(th), np.sin(th)])
    direct = np.linalg.norm(np.diag([1.3, 0.6]) @ e)
    assert abs(direction_stretch(1.3, 0.6, th) - direct) <= 1e-14


# ---------------------------------------------------------------------------
# scalar inequality certificates (coarse grids; the dense run is in
# the acceptance suite)
# ---------------------------------------------------------------------------


def test_scalar_inequalities_on_coarse_grids():
    reports = scalar_inequality_report(lam_step=0.05, theta_step=0.01)
    names = [r.name for r in reports]
    assert names == [
        "three-direction-max",
        "two-direction-max",
        "three-direction-compression",
        "commutator-compression-three",
        "commutator-compression-two",
    ]
    for r in reports:
        assert r.min_slack >= -1e-12, r.name


def test_three_direction_compression_has_period_pi_over_3():
    offsets = (0.0, np.pi / 3, 2 * np.pi / 3)

    def total(l1, l2, theta):
        return sum(np.maximum(direction_stretch(l1, l2, theta + o) - 1.0, 0.0) ** 2
                   for o in offsets)

    rng = np.random.default_rng(11)
    l1, l2 = rng.uniform(0.0, 3.0, (2, 500))
    theta = rng.uniform(0.0, 2 * np.pi, 500)
    gap = total(l1, l2, theta) - total(l1, l2, theta + np.pi / 3)
    assert np.max(np.abs(gap)) <= 1e-12

    # the one-period sweep certifies the same minimum as the full circle
    lam_step, theta_step = 0.1, 0.01
    vals = np.arange(0.0, 3.0 + 0.5 * lam_step, lam_step)
    g1, g2 = np.meshgrid(vals, vals, indexing="ij")
    keep = g1 >= g2
    g1, g2 = g1[keep], g2[keep]
    full = np.arange(0.0, 2 * np.pi, theta_step)[:, None]
    rhs = np.maximum(np.sqrt(0.75 * g1**2 + 0.25 * g2**2) - 1.0, 0.0) ** 2
    full_min = float(np.min(total(g1[None, :], g2[None, :], full) - rhs[None, :]))
    reports = {r.name: r for r in scalar_inequality_report(lam_step, theta_step)}
    rep = reports["three-direction-compression"]
    assert abs(rep.min_slack - full_min) <= 1e-12
    assert 0.0 <= rep.argmin[2] < np.pi / 3


def test_direction_max_witnesses():
    reports = {r.name: r for r in scalar_inequality_report(0.1, 0.05)}
    angle, value = reports["three-direction-max"].witness
    assert abs(angle - np.pi / 2) <= 1e-15
    assert abs(value - 0.75) <= 1e-15
    angle, value = reports["two-direction-max"].witness
    assert abs(angle - np.pi / 4) <= 1e-15
    assert abs(value - 0.5) <= 1e-12


# (size, angles per block) over 496 pairs and 105 angles: one angle a
# block, ten with a last block of five, and every angle in one block
@pytest.mark.parametrize("size, rows", [(1, 1), (496 * 10 + 495, 10), (496 * 10 ** 4, 105)])
def test_compression_slack_rows_equal_the_broadcast_expression(size, rows):
    offsets = (0.0, np.pi / 3, 2 * np.pi / 3)
    l1, l2 = _pair_grid(0.1)
    period = np.arange(0.0, np.pi / 3, 0.01)
    assert (len(l1), len(period)) == (496, 105)
    lhs = sum(np.maximum(direction_stretch(l1[None, :], l2[None, :],
                                           period[:, None] + o) - 1.0, 0.0) ** 2
              for o in offsets)
    rhs = np.maximum(np.sqrt(0.75 * l1**2 + 0.25 * l2**2) - 1.0, 0.0) ** 2
    blocks = [block.copy() for block in _compression_slack(l1, l2, period, size)]
    assert [len(b) for b in blocks] == [rows] * (105 // rows) + [105 % rows] * (105 % rows > 0)
    assert np.concatenate(blocks).tobytes() == (lhs - rhs[None, :]).tobytes()


def per_angle_slack(l1, l2, period):
    """Yield the three-direction compression slack at every pair, one
    angle at a time: the sweep before it ran in blocks, kept as the
    reference.  It reads ``geometry._compression_parts`` when called, so
    a test that patches the inputs patches this sweep too."""
    a, b, rhs, cos2 = geometry._compression_parts(l1, l2, period)
    for i in range(len(period)):
        lhs = geometry._direction_term(a, b, cos2[0][i])
        for c2 in cos2[1:]:
            lhs = lhs + geometry._direction_term(a, b, c2[i])
        yield lhs - rhs


def exhaustive_compression(lam_step, theta_step):
    """``(min, argmin)`` of the three-direction compression slack over every
    pair of the grid, the first strict minimum in (theta, pair) order."""
    l1, l2 = _pair_grid(lam_step)
    theta = np.arange(0.0, 2 * np.pi, theta_step)
    period = theta[theta < np.pi / 3]
    best = (np.inf, (0.0, 0.0, 0.0))
    for i, slack in enumerate(per_angle_slack(l1, l2, period)):
        j = int(np.argmin(slack))
        if slack[j] < best[0]:
            best = (float(slack[j]), (float(l1[j]), float(l2[j]), float(period[i])))
    return best


def reported_compression(lam_step, theta_step):
    rep = {r.name: r for r in scalar_inequality_report(lam_step, theta_step)}
    rep = rep["three-direction-compression"]
    return rep.min_slack, rep.argmin


def bits(result):
    value, argmin = result
    return np.array([value, *argmin]).tobytes()


@pytest.mark.parametrize("lam_step, theta_step", [
    (0.01, 0.001), (0.1, 0.01), (0.037, 0.0021), (0.02, 0.002), (0.29, 0.013),
    (0.8, 1.0), (3.0, 0.5), (0.5, 0.01),
])
def test_pruned_compression_sweep_has_the_bits_of_the_exhaustive_one(lam_step, theta_step):
    assert bits(reported_compression(lam_step, theta_step)) == \
        bits(exhaustive_compression(lam_step, theta_step))


def block_spy(calls):
    """A ``_compression_slack`` that records each call's pairs, angle
    count, size and block shapes in ``calls``."""
    def spy(l1, l2, period, size):
        shapes = []
        calls.append((l1.tolist(), l2.tolist(), len(period), size, shapes))
        for block in _compression_slack(l1, l2, period, size):
            shapes.append(block.shape)
            yield block
    return spy


@pytest.mark.parametrize("lam_step, theta_step, shapes", [
    (0.5, 0.01, [(28, 1)] * 3 + [(21, 1)]),
    (0.29, 0.013, [(66, 1), (15, 1)]),
])
def test_swept_pairs_span_several_blocks(monkeypatch, lam_step, theta_step, shapes):
    # one swept pair; a block holds as many angles as the grid has pairs
    calls = []
    monkeypatch.setattr(geometry, "_compression_slack", block_spy(calls))
    assert bits(reported_compression(lam_step, theta_step)) == \
        bits(exhaustive_compression(lam_step, theta_step))
    n_pairs = len(_pair_grid(lam_step)[0])
    assert calls == [([0.0], [0.0], sum(s[0] for s in shapes), n_pairs, shapes)]
    assert shapes[0][0] == n_pairs


def false_compression_parts(l1, l2, period):
    """The sweep's inputs with right-hand-side weights 0.9/0.1, which make
    the inequality false near ``(1.3, 0)``."""
    a, b, _, cos2 = _compression_parts(l1, l2, period)
    return a, b, _pos_sq(np.sqrt(0.9 * l1**2 + 0.1 * l2**2) - 1.0), cos2


@pytest.mark.parametrize("lam_step, theta_step", [(0.01, 0.001), (0.037, 0.0021)])
def test_pruned_sweep_finds_the_minimum_of_a_false_inequality(monkeypatch, lam_step,
                                                              theta_step):
    monkeypatch.setattr(geometry, "_compression_parts", false_compression_parts)
    calls = []
    monkeypatch.setattr(geometry, "_compression_slack", block_spy(calls))
    pruned = reported_compression(lam_step, theta_step)
    exhaustive = exhaustive_compression(lam_step, theta_step)
    assert bits(pruned) == bits(exhaustive)
    assert pruned[0] < -0.02
    # the bound still rules out some pairs, and keeps those that go negative
    [(l1, _, _, size, _)] = calls
    assert 1 < len(l1) < len(_pair_grid(lam_step)[0]) == size


def test_default_compression_sweep_receives_one_pair(monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "_compression_slack", block_spy(calls))
    scalar_inequality_report()
    # of 45,451 pairs only (0, 0) can set the minimum, over all 1048 angles,
    # which one block holds
    assert len(_pair_grid(0.01)[0]) == 45451
    assert calls == [([0.0], [0.0], 1048, 45451, [(1048, 1)])]


def test_scalar_inequalities_default_grid_memory():
    # the default grid is 1048 angles x 45,451 pairs; a (256, pairs)
    # float64 temporary alone is 93 MB, one pair-length buffer 0.36 MB
    tracemalloc.start()
    try:
        scalar_inequality_report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_inequality_grids_in_use_are_far_inside_the_point_limit():
    # the default steps, and the coarser ones of the docs and the bench
    for lam_step, theta_step in ((0.01, 0.001), (0.02, 0.002), (0.1, 0.01)):
        assert 100 * len(np.arange(0.0, 3.0 + 0.5 * lam_step, lam_step)) ** 2 <= _GRID_POINTS
        assert 100 * len(np.arange(0.0, 2 * np.pi, theta_step)) <= _GRID_POINTS
    assert scalar_inequality_report.__defaults__ == (0.01, 0.001)


# ---------------------------------------------------------------------------
# single-triangle rigidity sampling
# ---------------------------------------------------------------------------


def test_triangle_reference_geometry():
    for alpha in (np.pi / 3, 1.1, 2.0):
        A, B, C = triangle_reference(alpha)
        b = B - C
        r = B - A
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-15
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-15
        assert abs(float(b @ r) - np.cos(alpha)) <= 1e-14
        # r is b rotated by +alpha
        assert np.allclose(r, _rot(alpha) @ b, atol=1e-14)


def test_triangle_energy_and_deviation_vanish_on_isometries():
    alpha = np.pi / 3
    ref = triangle_reference(alpha)
    moved = (_rot(0.8) @ ref.T).T + np.array([3.0, -1.0])
    assert float(triangle_spring_energy(moved, alpha)) <= 1e-24
    assert np.linalg.norm(triangle_deviation(moved, alpha)) <= 1e-12
    # reflections are isometries too; the deviation flips its rotation sign
    mirrored = moved @ np.diag([1.0, -1.0])
    assert float(triangle_spring_energy(mirrored, alpha)) <= 1e-24
    assert np.linalg.norm(triangle_deviation(mirrored, alpha)) <= 1e-12


def test_triangle_deviation_oriented_formula():
    alpha = 1.2
    pts = triangle_reference(alpha) + 0.05 * np.array(
        [[0.3, -0.1], [-0.2, 0.4], [0.1, 0.2]])
    A, B, C = pts
    b, r = B - C, B - A
    if b[0] * r[1] - b[1] * r[0] >= 0:
        expect = r - _rot(alpha) @ b
    else:
        expect = r - _rot(-alpha) @ b
    assert np.allclose(triangle_deviation(pts, alpha), expect, atol=1e-14)


def test_sampled_rigidity_constants_positive():
    est = rigidity_constant(alpha=np.pi / 3, n_samples=20000, seed=0)
    assert est.c > 0
    assert est.cos_coeff > 0
    assert 0 < est.n_admissible <= 20000
    # fresh samples respect both sampled estimates
    pts = sample_triangle_deformations(np.pi / 3, 5000, seed=99)
    E = triangle_spring_energy(pts, np.pi / 3)
    keep = E <= est.energy_cap
    z2 = np.sum(triangle_deviation(pts[keep], np.pi / 3) ** 2, axis=-1)
    assert np.all(E[keep] >= est.c * z2 - 1e-15)


def test_rigidity_constant_rejects_bad_angle():
    with pytest.raises(ValueError):
        rigidity_constant(alpha=0.0, n_samples=10)
    with pytest.raises(ValueError):
        rigidity_constant(alpha=np.pi, n_samples=10)


# ---------------------------------------------------------------------------
# conformality diagnostics for gradient fields
# ---------------------------------------------------------------------------


def test_conformal_check_exact_scaled_rotations():
    rng = np.random.default_rng(31)
    cs = rng.uniform(0.2, 0.9, size=40)
    ths = rng.uniform(0, 2 * np.pi, size=40)
    grads = np.array([c * _rot(t) for c, t in zip(cs, ths)])
    rep = conformal_check(grads)
    assert rep.cr_residual <= 1e-12
    assert abs(rep.max_factor - cs.max()) <= 1e-12
    assert rep.n_fields == 40


def test_conformal_check_flags_anisotropy():
    rep = conformal_check([np.diag([1.2, 0.8])])
    assert abs(rep.cr_residual_1 - 0.4) <= 1e-14
    assert rep.cr_residual_2 == 0.0
    # best scaled-rotation fit has modulus (1.2 + 0.8) / 2 = 1
    assert abs(rep.max_factor - 1.0) <= 1e-14


def test_conformal_check_orientation_reversal():
    # a reflection is anti-conformal: the cR fit collapses
    rep = conformal_check([np.diag([1.0, -1.0])])
    assert abs(rep.max_factor - 0.0) <= 1e-14
    assert abs(rep.cr_residual_1 - 2.0) <= 1e-14


def test_conformal_check_expansive_not_compressive():
    rep = conformal_check([1.5 * _rot(0.3)])
    assert abs(rep.max_factor - 1.5) <= 1e-12


def test_conformal_check_needs_a_sample():
    with pytest.raises(ValueError):
        conformal_check(np.zeros((0, 2, 2)))
