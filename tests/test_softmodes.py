"""Conformal targets, twist modulation, and weak-limit diagnostics."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from latmech.energy import LatticeMap, _cell_window, domain_energy
from latmech.mechanisms import _twist_contraction_table
from latmech.softmodes import (
    _OMEGA,
    _TETHER,
    ConformalTarget,
    _box_gradients,
    _pchip,
    _relax,
    decay_exponent,
    default_target,
    ladder_exponents,
    modulate,
    soft_mode_report,
    weak_limit_check,
)


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def test_target_validation():
    with pytest.raises(ValueError):
        ConformalTarget(coeffs=(0.0, 0.5), domain=(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        # |f'| = 1.5 > 1 everywhere
        ConformalTarget(coeffs=(0.0, 1.5), domain=(0.0, 1.0, 0.0, 1.0))
    # a NaN derivative passes no comparison; an infinite constant has derivative 0
    for coeffs in ((0.0, float("nan")), (float("inf"),)):
        with pytest.raises(ValueError, match="target coefficients must be finite"):
            ConformalTarget(coeffs=coeffs, domain=(0.0, 1.0, 0.0, 1.0))


def test_default_target_shape():
    tgt = default_target()
    assert tgt.domain == (0.2, 1.2, -0.5, 0.5)
    assert tgt.area == 1.0
    assert tgt.polygon.shape == (4, 2)
    z = 0.5 - 0.2j
    assert abs(tgt.value(z) - (z - z**2 / 4)) <= 1e-14
    assert abs(tgt.derivative(z) - (1 - z / 2)) <= 1e-14
    # |f'(z)| = |1 - z/2| spans about [0.40, 0.94] over the rectangle
    assert abs(tgt.min_derivative - 0.4) <= 1e-12
    assert abs(tgt.max_derivative - abs(1 - (0.2 + 0.5j) / 2)) <= 1e-12
    assert tgt.max_derivative < 1.0


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------


def test_uniform_target_is_reproduced_exactly(kagome):
    # constant |f'| needs no spatial modulation: the map is an exact
    # mechanism up to rounding, before and after relaxation
    tgt = ConformalTarget(coeffs=(0.0, 0.7), domain=(-0.4, 0.4, -0.4, 0.4))
    for sweeps in (0, 50):
        lmap = modulate(kagome, tgt, 1 / 8, relax_sweeps=sweeps)
        rep = domain_energy(lmap, tgt.polygon, 0.05)
        assert rep.total <= 1e-16
        assert rep.n_cells > 0


def test_modulate_rejects_unreachable_contraction(kagome):
    tgt = ConformalTarget(coeffs=(0.0, 1e-5), domain=(-0.4, 0.4, -0.4, 0.4))
    with pytest.raises(ValueError, match="reachable mechanism contraction"):
        modulate(kagome, tgt, 1 / 8)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.125])
def test_modulate_rejects_a_cell_size_that_is_not_positive_and_finite(kagome, eps):
    # refused before any cell window is counted or made, with no numpy warning
    with pytest.raises(ValueError) as info:
        modulate(kagome, default_target(), eps)
    assert str(info.value) == f"cell size epsilon must be positive and finite, got {eps:g}"


def _ladder_report(spec, target, eps_list):
    return soft_mode_report([modulate(spec, target, eps) for eps in eps_list], target)


def test_soft_mode_energy_decays(kagome):
    rep = _ladder_report(kagome, default_target(), (1 / 8, 1 / 16))
    assert rep.energy_densities[1] < rep.energy_densities[0]
    assert rep.monotone_violation_fraction == 0.0
    assert rep.final_over_first < 1.0
    assert rep.exponent_defined
    assert rep.fitted_exponent > 0.5
    assert rep.n_cells[1] > rep.n_cells[0]
    rows = list(rep.rows())
    assert len(rows) == 2
    assert all(len(row) == 8 for row in rows)
    assert rows[0][0] == 1 / 8
    assert [row[4:] for row in rows] == list(zip(
        rep.weak.l2_errors, rep.weak.cr_residuals, rep.weak.max_factors, rep.weak.n_boxes))
    # per-cell worst case controls the density
    for _, n, dens, mx, *_ in rows:
        assert dens <= mx * n / default_target().area + 1e-18


def test_uniform_target_marks_exponent_undefined(kagome):
    tgt = ConformalTarget(coeffs=(0.0, 0.7), domain=(-0.4, 0.4, -0.4, 0.4))
    rep = _ladder_report(kagome, tgt, (1 / 8, 1 / 16))
    assert not rep.exponent_defined
    assert max(rep.energy_densities) <= 1e-12


def test_decay_exponent_needs_two_distinct_rungs():
    assert np.isnan(decay_exponent([1 / 8], [1e-3]))
    assert np.isnan(decay_exponent([1 / 8, 0.125], [1e-3, 1.1e-3]))
    assert np.isnan(decay_exponent([1 / 8, 1 / 16], [1e-3, 1e-11]))
    assert decay_exponent([1 / 8, 1 / 16, 1 / 16], [4e-3, 1e-3, 1e-3]) > 0


def test_ladder_exponents_go_coarse_to_fine():
    # density eps^1 down to 1/32, then eps^2: the successive exponents
    # show the change that one fit over every rung averages away
    eps = [1 / 64, 1 / 8, 1 / 32, 1 / 16, 1 / 128]
    dens = [e if e >= 1 / 32 else e * e * 32 for e in eps]
    steps, fine, fine_eps = ladder_exponents(eps, dens)
    assert np.allclose(steps, [1, 1, 2, 2], atol=1e-12)
    assert fine_eps == (1 / 32, 1 / 64, 1 / 128)
    assert abs(fine - 2) <= 1e-12
    assert decay_exponent(eps, dens) < fine


# ---------------------------------------------------------------------------
# monotone interpolation
# ---------------------------------------------------------------------------


def _assert_pchip_matches_scipy(x, y, v):
    from scipy.interpolate import PchipInterpolator

    want, got = PchipInterpolator(x, y)(v), _pchip(x, y)(v)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_pchip_matches_scipy_on_the_contraction_tables(request, spec_name):
    thetas, cs = _twist_contraction_table(request.getfixturevalue(spec_name))
    x, y = cs[::-1], thetas[::-1]
    # the knots, both endpoints, a dense sweep with extrapolation, and NaN
    v = np.concatenate([x, np.linspace(x[0] - 0.05, x[-1] + 0.05, 20001), [np.nan]])
    _assert_pchip_matches_scipy(x, y, v)
    _assert_pchip_matches_scipy(x, y, 0.5)
    assert np.isnan(_pchip(x, y)(np.nan))


def test_pchip_matches_scipy_on_random_data():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 10))
        x = np.cumsum(rng.uniform(0.05, 2.0, n)) - 2.0
        y = rng.standard_normal((n, 3) if trial % 3 == 0 else n)
        if trial % 2:
            y = np.round(y)  # flat segments and sign changes of the slope
        v = np.concatenate([x, rng.uniform(x[0] - 1, x[-1] + 1, 40), [np.nan]])
        _assert_pchip_matches_scipy(x, y, v)
        _assert_pchip_matches_scipy(x, y, float(v[1]))


def test_pchip_two_points_is_the_chord():
    f = _pchip([0.0, 2.0], [1.0, 5.0])
    assert f(0.5) == 2.0
    assert isinstance(f(0.5), float)
    assert np.array_equal(f(np.array([-1.0, 3.0])), [-1.0, 7.0])
    _assert_pchip_matches_scipy([0.0, 2.0], [1.0, 5.0], np.array([-1.0, 0.0, 0.5, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# weak-limit diagnostics
# ---------------------------------------------------------------------------


def test_weak_limit_check_converges(kagome):
    wl = _ladder_report(kagome, default_target(), (1 / 8, 1 / 16)).weak
    assert wl.l2_errors[1] <= wl.l2_errors[0]
    assert wl.cr_decreasing
    assert wl.l2_errors[-1] < 0.05
    assert all(f <= 1.0 + 0.05 for f in wl.max_factors)
    assert all(n > 0 for n in wl.n_boxes)


def test_weak_limit_check_flags_corruption(kagome):
    lm = modulate(kagome, default_target(), 1 / 16)
    squeeze = np.diag([1.3, 0.7])
    bad = LatticeMap(lm.spec, lm.epsilon, lm.keys, lm.positions @ squeeze.T)
    good = soft_mode_report([lm], default_target()).weak
    worse = weak_limit_check([bad], default_target())
    assert worse.cr_residuals[0] > 0.2 > good.cr_residuals[0]
    assert worse.l2_errors[0] > 0.1 > good.l2_errors[0]


def _box_gradients_by_masks(lmap, bounds, box_size):
    """The box fit with one full node mask per box, as a reference."""
    x0, x1, y0, y1 = bounds
    refs, vals = lmap.reference_positions, lmap.positions
    nx = max(int(np.floor((x1 - x0) / box_size)), 1)
    ny = max(int(np.floor((y1 - y0) / box_size)), 1)
    grads = []
    for bi in range(nx):
        for bj in range(ny):
            lo = np.array([x0 + bi * box_size, y0 + bj * box_size])
            hi = np.minimum(lo + box_size, [x1, y1])
            mask = np.all((refs >= lo) & (refs < hi), axis=1)
            if int(mask.sum()) < 6:
                continue
            X = np.column_stack([refs[mask], np.ones(int(mask.sum()))])
            coef, *_ = np.linalg.lstsq(X, vals[mask], rcond=None)
            grads.append(coef[:2].T)
    return np.asarray(grads)


def _assert_box_gradients_match(lmap, bounds, box_size):
    got = _box_gradients(lmap, bounds, box_size)
    want = _box_gradients_by_masks(lmap, bounds, box_size)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("denom", [8, 17, 33, 65, 129])
def test_box_gradients_match_per_box_masks(twist_specs, denom):
    target = default_target()
    for spec in twist_specs:
        lmap = modulate(spec, target, 1 / denom, relax_sweeps=0)
        _assert_box_gradients_match(lmap, target.domain, float(np.sqrt(lmap.epsilon)))


def test_box_gradients_match_per_box_masks_on_box_edges():
    # nodes exactly on every box edge, the domain's far edges included,
    # and a few between them
    x0, x1, y0, y1 = default_target().domain
    box_size = float(np.sqrt(1 / 17))
    xs = [x0 + b * box_size for b in range(5)] + [x1, 0.5, 0.7071]
    ys = [y0 + b * box_size for b in range(5)] + [y1, 0.0, -0.3]
    xs += [min(x + box_size, x1) for x in xs]
    ys += [min(y + box_size, y1) for y in ys]
    refs = np.array([(x, y) for x in xs for y in ys for _ in range(2)])
    vals = np.random.default_rng(3).standard_normal(refs.shape)
    lmap = SimpleNamespace(reference_positions=refs, positions=vals)
    _assert_box_gradients_match(lmap, (x0, x1, y0, y1), box_size)


def test_weak_limit_check_validation():
    with pytest.raises(ValueError):
        weak_limit_check([], default_target())


def test_modulated_cells_preserve_orientation(kagome):
    # every penalized triangle in every counted cell keeps its orientation
    # (the soft hinge regions between units are allowed to shear freely)
    lmap = modulate(kagome, default_target(), 1 / 16)
    rep = domain_energy(lmap, default_target().polygon, 0.05)
    assert rep.n_cells > 0
    for (ci, cj) in rep.cells.tolist():
        for tri in kagome.penalized_keys.tolist():
            rows = lmap.rows(tri, ci, cj)[:, 0]
            assert (rows >= 0).all()
            p0, p1, p2 = lmap.positions[rows]
            q0, q1, q2 = kagome.node_positions(tri)
            ref = (q1 - q0)[0] * (q2 - q0)[1] - (q1 - q0)[1] * (q2 - q0)[0]
            defc = (p1 - p0)[0] * (p2 - p0)[1] - (p1 - p0)[1] * (p2 - p0)[0]
            assert defc / ref > 0


# sha256 of ``modulate(SPEC, default_target(), 1 / D, relax_sweeps=0)``'s
# positions: the node averages of the rigid placements, recorded while
# they were scattered as one 2-D ``np.add.at``
AVERAGED_POSITIONS_SHA256 = {
    ("kagome", 16): "e2666db474b1f64480a5c1895115fdbd11f74cd752e1626d08ad294c5a5f1892",
    ("kagome", 33): "77f1985c521ca8b298b342e10ec9e2ec45a07c64666dbd2a994504df838c0bc5",
    ("rotating_squares", 16): "d7e672fa9cdae1dbec0e024f365b8a294fe3a2d48316b2906ceeffc4e7d0ce99",
    ("rotating_squares", 33): "91e000c6c19d4aaf6f26c091ba76185a7637dc32e1fee4c80552944ebcd17a0e",
}


@pytest.mark.parametrize("spec_name, denom", sorted(AVERAGED_POSITIONS_SHA256))
def test_modulate_averaged_positions_keep_their_bits(request, spec_name, denom):
    lmap = modulate(request.getfixturevalue(spec_name), default_target(), 1 / denom,
                    relax_sweeps=0)
    assert (hashlib.sha256(lmap.positions.tobytes()).hexdigest()
            == AVERAGED_POSITIONS_SHA256[spec_name, denom])


def _relax_by_concatenation(lmap, ci, cj, sweeps):
    """Reference ``_relax``: fancy-index gathers, and each coordinate's
    pulls concatenated and multiplied into fresh arrays every sweep."""
    spec, eps, pos0 = lmap.spec, lmap.epsilon, lmap.positions
    ra, rb = lmap.rows(spec.spring_keys, ci, cj).transpose(1, 0, 2)
    both = (ra >= 0) & (rb >= 0)
    ia, ib = ra[both], rb[both]
    count = both.sum(axis=1)
    rest = np.repeat(eps * spec.spring_rest, count)
    stiff = np.repeat(spec.spring_stiffness, count)
    wsum = np.full(len(pos0), _TETHER)
    np.add.at(wsum, ia, stiff)
    np.add.at(wsum, ib, stiff)
    ends, stiff2 = np.concatenate([ia, ib]), np.concatenate([stiff, stiff])
    x, y = pos0.T.copy()
    for _ in range(sweeps):
        xa, xb, ya, yb = x[ia], x[ib], y[ia], y[ib]
        dx, dy = xa - xb, ya - yb
        lengths = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-300)
        rx, ry = rest * (dx / lengths), rest * (dy / lengths)
        pull_x, pull_y = _TETHER * pos0[:, 0], _TETHER * pos0[:, 1]
        np.add.at(pull_x, ends, stiff2 * np.concatenate([xb + rx, xa - rx]))
        np.add.at(pull_y, ends, stiff2 * np.concatenate([yb + ry, ya - ry]))
        x = (1 - _OMEGA) * x + _OMEGA * pull_x / wsum
        y = (1 - _OMEGA) * y + _OMEGA * pull_y / wsum
    return np.column_stack([x, y])


@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
@pytest.mark.parametrize("denom", [16, 33])
def test_relax_matches_the_concatenating_sweeps(request, spec_name, denom):
    spec, target = request.getfixturevalue(spec_name), default_target()
    lmap = modulate(spec, target, 1 / denom, relax_sweeps=0)
    ci, cj = _cell_window(spec, target.polygon, 1 / denom)
    for sweeps in (0, 1, 17):
        got = _relax(lmap, ci, cj, sweeps)
        want = _relax_by_concatenation(lmap, ci, cj, sweeps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), sweeps
    relaxed = modulate(spec, target, 1 / denom, relax_sweeps=17)
    assert relaxed.positions.tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# the contraction range
# ---------------------------------------------------------------------------


def test_twist_state_table_spans_the_contraction_table(twist_specs):
    # modulate clamps |f'| to [cs.min(), 1] of the twist's contraction
    # table: a uniform target f(z) = c z places at c = 1 (every unit
    # unturned) and at c = cs.min(), and is rejected just below it
    for spec in twist_specs:
        c_min = _twist_contraction_table(spec)[1].min()
        lmap = modulate(spec, ConformalTarget((0.0, 1.0), (0.0, 1.0, 0.0, 1.0)),
                        1 / 8, relax_sweeps=0)
        assert np.allclose(lmap.positions, lmap.reference_positions, rtol=0, atol=1e-12)
        lmap = modulate(spec, ConformalTarget((0.0, c_min), (0.0, 1.0, 0.0, 1.0)),
                        1 / 8, relax_sweeps=0)
        assert len(lmap.positions) > 0
        below = ConformalTarget((0.0, c_min - 1e-6), (0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="below the reachable mechanism contraction"):
            modulate(spec, below, 1 / 8, relax_sweeps=0)
