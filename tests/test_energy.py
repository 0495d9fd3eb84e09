"""Energy evaluation: axioms, decomposition, gradients, scaled maps."""

import ast
import hashlib
import importlib.machinery
import importlib.util
import pickle
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from latmech.energy import (
    _LEN_FLOOR,
    _STATUS_MESSAGES,
    _TASK_MESSAGES,
    LatticeMap,
    _barrier,
    _cell_energies,
    _cell_window,
    _kernel,
    _lbfgsb,
    _scipy_extension,
    _smoothed,
    domain_energy,
    energy_breakdown,
    smoothed_energy_grad,
)
from latmech.cellsolver import _ANNEAL, _MAXITER
from latmech.lattice import (LatticeSpec, PeriodicDeformation, Supercell, cross2, ordered_sum,
                             rotation)
from latmech.mechanisms import _pack, _search_objective, _unpack, twist_mechanism
from latmech.softmodes import _probe_margin, default_target, modulate

from conftest import check_cell_bounds, random_deformation, scaled_json
from test_pins import _one_shot, _specs


def _reference(spec, k):
    """The undeformed state of the ``k x k`` supercell of ``spec``."""
    cell = Supercell(spec, k)
    return PeriodicDeformation(cell, np.eye(2), np.zeros((cell.n_nodes, 2)))


def test_reference_state_has_zero_energy(all_specs):
    for spec in all_specs:
        defm = _reference(spec, 2)
        bd = energy_breakdown(defm, 0.05)
        # float dust only: stored rest lengths round-trip through norms
        assert bd.total < 1e-28
        assert (bd.dets > 0).all()
        assert bd.penalty_total == 0.0


def test_eta_must_be_positive(kagome):
    defm = _reference(kagome, 1)
    with pytest.raises(ValueError):
        energy_breakdown(defm, 0.0)
    with pytest.raises(ValueError):
        energy_breakdown(defm, -0.1)
    for eta in (np.inf, np.nan):
        with pytest.raises(ValueError, match="eta must be positive"):
            energy_breakdown(defm, eta)
    # positive, but the penalty unit area/eta overflows
    for eta in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="penalty unit area/eta overflows"):
            energy_breakdown(defm, eta)


def test_translation_invariance(all_specs):
    rng = np.random.default_rng(3)
    for spec in all_specs:
        defm = random_deformation(spec, 2, rng)
        bd = energy_breakdown(defm, 0.1)
        shifted = energy_breakdown(defm.translate(rng.standard_normal(2)), 0.1)
        assert shifted.total == pytest.approx(bd.total, abs=1e-10 * (1 + bd.total))


def test_frame_indifference(all_specs):
    rng = np.random.default_rng(4)
    for spec in all_specs:
        defm = random_deformation(spec, 1, rng)
        bd = energy_breakdown(defm, 0.1)
        rot = energy_breakdown(defm.rotate(rotation(rng.uniform(0, 2 * np.pi))), 0.1)
        assert rot.total == pytest.approx(bd.total, abs=1e-10 * (1 + bd.total))
        assert np.array_equal(rot.reversed_counts, bd.reversed_counts)


def test_penalty_quantization_is_exact(kagome, rotating_squares):
    """Step penalties enter as (reversed count per class) x (area/eta);
    recomputing both factors from scratch reproduces the total bitwise."""
    rng = np.random.default_rng(5)
    eta = 0.07
    for spec in (kagome, rotating_squares):
        units = [a / eta for a in spec.penalized_area.tolist()]
        hits = 0
        for _ in range(200):
            defm = random_deformation(spec, 1, rng, amp=0.8)
            bd = energy_breakdown(defm, eta)
            counts = [int(np.sum(d <= 0)) for d in bd.dets]
            expected = float(sum(c * u for c, u in zip(counts, units)))
            assert bd.penalty_total == expected  # bitwise
            assert bd.total == bd.spring_total + bd.penalty_total
            if any(counts):
                hits += 1
                assert not (bd.dets > 0).all()
                assert list(bd.reversed_counts) == counts
        assert hits > 10  # the sample actually exercised the penalty


def test_reflection_reverses_every_triangle(rotating_squares):
    cell = Supercell(rotating_squares, 2)
    defm = PeriodicDeformation(cell, np.diag([1.0, -1.0]),
                               np.zeros((cell.n_nodes, 2)))
    bd = energy_breakdown(defm, 0.05)
    n_tri = len(rotating_squares.penalized_keys) * 4
    assert int(np.sum(np.asarray(bd.per_triangle_penalty) > 0)) == n_tri
    assert all((d < 0).all() for d in bd.dets)


def test_averaged_energy_normalization(kagome):
    rng = np.random.default_rng(6)
    defm = random_deformation(kagome, 2, rng)
    bd = energy_breakdown(defm, 0.1)
    assert bd.averaged == pytest.approx(bd.total / (4 * kagome.cell_area), rel=1e-14)
    # tiling a deformation preserves the averaged density
    bd4 = energy_breakdown(defm.tile(4), 0.1)
    assert bd4.averaged == pytest.approx(bd.averaged, rel=1e-10)


def _fd_check(fun, lam, psi, glam, gpsi, h=1e-6):
    rng = np.random.default_rng(11)
    dlam = rng.standard_normal((2, 2))
    dpsi = rng.standard_normal(psi.shape)
    ep, _, _ = fun(lam + h * dlam, psi + h * dpsi)
    em, _, _ = fun(lam - h * dlam, psi - h * dpsi)
    fd = (ep - em) / (2 * h)
    an = float(np.sum(glam * dlam) + np.sum(gpsi * dpsi))
    assert fd == pytest.approx(an, rel=5e-5, abs=1e-8)


def test_spring_gradient_matches_finite_differences(kagome):
    rng = np.random.default_rng(12)
    cell = Supercell(kagome, 2)
    lam = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    psi = 0.2 * rng.standard_normal((cell.n_nodes, 2))
    springs = _kernel(cell, True)
    E, glam, gpsi = _one_shot(springs, lam, psi)
    assert E > 0
    _fd_check(lambda l, p: _one_shot(springs, l, p), lam, psi, glam, gpsi)


def test_smoothed_gradient_matches_finite_differences(rotating_squares):
    rng = np.random.default_rng(13)
    cell = Supercell(rotating_squares, 1)
    lam = 0.8 * rotation(0.4) + 0.1 * rng.standard_normal((2, 2))
    psi = 0.15 * rng.standard_normal((cell.n_nodes, 2))
    E, glam, gpsi = smoothed_energy_grad(cell, lam, psi, eta=0.05, tau=0.02)
    _fd_check(lambda l, p: smoothed_energy_grad(cell, l, p, 0.05, 0.02),
              lam, psi, glam, gpsi)


@pytest.mark.parametrize("e", [-10, -40, -50])
def test_smoothed_energy_grad_scales_exactly_by_powers_of_two(kagome, rotating_squares, e):
    # every length times 2**e: E and glam scale by 2**(2 e), gpsi by 2**e,
    # with no bit lost, as the length floor is relative to each rest length
    s = 2.0 ** e
    rng = np.random.default_rng(15)
    for spec in (kagome, rotating_squares):
        cell = Supercell(spec, 2)
        small = Supercell(LatticeSpec.from_json(scaled_json(spec, s)), 2)
        lam = 0.8 * rotation(0.4) + 0.1 * rng.standard_normal((2, 2))
        psi = 0.15 * rng.standard_normal((cell.n_nodes, 2))
        E, glam, gpsi = smoothed_energy_grad(cell, lam, psi, eta=0.05, tau=0.02)
        Es, glam_s, gpsi_s = smoothed_energy_grad(small, lam, s * psi, eta=0.05, tau=0.02)
        assert E > 0 and Es == s * s * E
        assert np.array_equal(glam_s, s * s * glam)
        assert np.array_equal(gpsi_s, s * gpsi)


def test_smoothed_energy_dominates_springs_near_feasible(kagome):
    """The sigmoid penalty is nonnegative, so the surrogate lies above
    the bare spring energy."""
    rng = np.random.default_rng(14)
    cell = Supercell(kagome, 1)
    springs = _kernel(cell, True)
    for _ in range(20):
        lam = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        psi = 0.3 * rng.standard_normal((cell.n_nodes, 2))
        Es, _, _ = _one_shot(springs, lam, psi)
        Et, _, _ = smoothed_energy_grad(cell, lam, psi, 0.05, 0.02)
        assert Et >= Es - 1e-12


def test_barrier_infeasible_returns_inf(kagome):
    cell = Supercell(kagome, 1)
    barrier = _kernel(cell, False, _barrier(1e-3))
    # every class reversed, then only the second: pushing the pinch node
    # below the up triangle's base flips it but not the down triangle
    pinched = np.zeros((cell.n_nodes, 2))
    pinched[cell.slot(1, 0, 0)] = (0.0, -1.4)
    for lam, psi in ((np.diag([1.0, -1.0]), np.zeros((cell.n_nodes, 2))),
                     (np.eye(2), pinched)):
        E, glam, gpsi = _one_shot(barrier, lam, psi)
        assert np.isinf(E)
        assert np.all(glam == 0) and np.all(gpsi == 0)
    dets = energy_breakdown(PeriodicDeformation(cell, np.eye(2), pinched), 1e-3).dets
    assert (dets[0] > 0).all() and (dets[1] < 0).all()


def test_penalties_settle_their_own_infinite_rows(kagome):
    # row 1 holds one zero and one reversed orientation; rows 0 and 2 are positive
    det = np.random.default_rng(3).uniform(0.5, 1.5, (3, 2, 4))
    det[1, 0, 1], det[1, 1, 3] = 0.0, -0.2
    out = _barrier(1e-3)(det)
    assert len(out) == 2
    E, slope = out
    assert E.shape == (3, 2) and slope.shape == det.shape
    assert np.all(E[1] == np.inf) and np.all(slope[1] == 0.0)
    for i in (0, 2):
        assert np.array_equal(E[i], -1e-3 * np.add.reduce(np.log(det[i]), axis=1))
        assert np.array_equal(slope[i], -1e-3 / det[i])
    # the sigmoid's quotient det / tau overflows unwarned to the step's limits
    cell = Supercell(kagome, 1)
    huge = np.array([[[1e306], [-1e306]]])
    out = _smoothed(cell, 0.05, 1e-3)(huge)
    assert len(out) == 2
    E, slope = out
    assert np.array_equal(E[0], [0.0, cell.tri_area[1] / 0.05])
    assert np.all(slope == 0.0)


# -- per-class reference kernels ---------------------------------------------
# The gradient kernels as they were before the flat edge layout and scatter
# stream: per-class gathers, stacked slots and values, one bincount per
# component.  The index arrays are rebuilt from the spec's rows, so the
# reference does not read the supercell's flat layouts, and they gather
# from ``psi`` ``(n, 2)`` by slot.


def _slot_edge_vectors(lam, psi, tail, head, dx):
    """Deformed vectors ``(n, k*k, 2)`` of edge classes with ``tail`` and
    ``head`` slots ``(n, k*k)``."""
    return psi[head] - psi[tail] + np.matmul(lam, dx[:, :, None])[:, None, :, 0]


def _ref_arrays(cell):
    """Spring edges ``(tail, head, dx)``, triangle slots ``(nt, 3, k*k)``
    and the reference edges ``P1 - P0``, ``P2 - P0``."""
    spec, k = cell.spec, cell.k
    ci, cj = np.repeat(np.arange(k), k), np.tile(np.arange(k), k)

    def slots(key):
        return cell.slot(key[..., 0:1], key[..., 1:2] + ci, key[..., 2:3] + cj)

    sk, pk = spec.spring_keys, spec.penalized_keys
    x = spec.node_positions(pk)
    return ((slots(sk[:, 0]), slots(sk[:, 1]), spec.segments(sk)),
            slots(pk), x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])


def _ref_triangle_edges(cell, lam, psi):
    _, tri_slots, tri_d1, tri_d2 = _ref_arrays(cell)
    s0, s1, s2 = tri_slots.transpose(1, 0, 2)
    d1 = _slot_edge_vectors(lam, psi, s0, s1, tri_d1)
    d2 = _slot_edge_vectors(lam, psi, s0, s2, tri_d2)
    return d1, d2, cross2(d1, d2) / cell.tri_cross0[:, None]


def _ref_spring_terms(cell, lam, psi):
    (tail, head, dx), _, _, _ = _ref_arrays(cell)
    d = _slot_edge_vectors(lam, psi, tail, head, dx)
    lengths = np.linalg.norm(d, axis=2)
    rest = cell.spring_rest[:, None]
    stiffness = cell.spring_stiffness[:, None]
    E = cell.spring_stiffness * np.sum((lengths - rest) ** 2, axis=1)
    coeff = 2.0 * stiffness * (1.0 - rest / np.maximum(lengths, _LEN_FLOOR * rest))
    g = coeff[:, :, None] * d
    glam = g.sum(axis=1)[:, :, None] * dx[:, None, :]
    slots = np.stack([head, tail], axis=1)
    return E, glam, slots, np.stack([g, -g], axis=1)


def _ref_triangle_terms(cell, d1, d2, E, dE_ddet):
    _, tri_slots, tri_d1, tri_d2 = _ref_arrays(cell)
    dE_dcross = dE_ddet / cell.tri_cross0[:, None]
    g1 = dE_dcross[:, :, None] * np.stack([d2[..., 1], -d2[..., 0]], axis=-1)
    g2 = dE_dcross[:, :, None] * np.stack([-d1[..., 1], d1[..., 0]], axis=-1)
    glam = (g1.sum(axis=1)[:, :, None] * tri_d1[:, None, :]
            + g2.sum(axis=1)[:, :, None] * tri_d2[:, None, :])
    s0, s1, s2 = tri_slots.transpose(1, 0, 2)
    slots = np.stack([s1, s2, s0], axis=1)
    return E, glam, slots, np.stack([g1, g2, -(g1 + g2)], axis=1)


def _ref_add_up(psi, *groups):
    E = np.concatenate([g[0] for g in groups])
    glam = np.concatenate([g[1] for g in groups])
    slots = np.concatenate([g[2].ravel() for g in groups])
    values = np.concatenate([g[3].reshape(-1, 2) for g in groups])
    gpsi = np.stack([np.bincount(slots, values[:, c], minlength=len(psi))
                     for c in (0, 1)], axis=1)
    return float(ordered_sum(E)), ordered_sum(glam), gpsi


def _ref_spring(cell, lam, psi):
    return _ref_add_up(psi, _ref_spring_terms(cell, lam, psi))


def _ref_smoothed(cell, lam, psi, eta, tau):
    from scipy.special import expit

    d1, d2, det = _ref_triangle_edges(cell, lam, psi)
    sig = expit(-det / tau)
    E = cell.tri_area / eta * np.sum(sig, axis=1)
    dE_ddet = -(cell.tri_area / (eta * tau))[:, None] * sig * (1.0 - sig)
    return _ref_add_up(psi, _ref_spring_terms(cell, lam, psi),
                       _ref_triangle_terms(cell, d1, d2, E, dE_ddet))


def _ref_barrier(cell, lam, psi, mu):
    d1, d2, det = _ref_triangle_edges(cell, lam, psi)
    if np.any(det <= 0):
        return np.inf, np.zeros((2, 2)), np.zeros_like(psi)
    B = -mu * np.sum(np.log(det), axis=1)
    return _ref_add_up(psi, _ref_triangle_terms(cell, d1, d2, B, -mu / det))


def _bit_cases(spec, k, seed):
    """``(name, lam, psi)``: rough (some triangles reversed), every
    triangle reversed, mild (all orientations positive) and mild with one
    spring instance collapsed below the length floor."""
    cell = Supercell(spec, k)
    rng = np.random.default_rng(seed)
    n = cell.n_nodes
    rough = (np.eye(2) + 0.4 * rng.standard_normal((2, 2)), 0.3 * rng.standard_normal((n, 2)))
    flipped = (np.diag([1.0, -1.0]), 1e-3 * rng.standard_normal((n, 2)))
    mild = (np.eye(2) + 0.05 * rng.standard_normal((2, 2)), 0.01 * rng.standard_normal((n, 2)))
    lam, psi = mild[0], mild[1].copy()
    (tail, head, dx), _, _, _ = _ref_arrays(cell)
    i, c = np.argwhere(head != tail)[0]
    psi[head[i, c]] = psi[tail[i, c]] - lam @ dx[i]
    length = np.linalg.norm(_slot_edge_vectors(lam, psi, tail, head, dx)[i, c])
    assert length < _LEN_FLOOR * cell.spring_rest[i]
    return cell, [("rough", *rough), ("flipped", *flipped), ("mild", *mild),
                  ("collapsed", lam, psi)]


def _same_bits(got, want):
    assert float(got[0]).hex() == float(want[0]).hex()
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


def _same_psi_bits(got, want):
    """``(E, G)`` of a fixed-``lam`` kernel on a stack of one against a
    full ``(E, glam, gpsi)``."""
    assert len(got) == 2 and got[1].shape[0] == 1
    assert float(got[0][0]).hex() == float(want[0]).hex()
    assert np.array_equal(got[1][0], want[2].ravel())


def _same_row_bits(got, want):
    """``(E, G)`` of a variable-``lam`` kernel on a stack of one against a
    full ``(E, glam, gpsi)``: ``G`` is ``(glam.ravel(), gpsi)``."""
    assert len(got) == 2 and got[1].shape[0] == 1
    assert float(got[0][0]).hex() == float(want[0]).hex()
    assert np.array_equal(got[1][0], np.concatenate([want[1].ravel(), want[2].ravel()]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("si", range(6))
def test_gradient_kernels_match_per_class_reference_bit_for_bit(si, k):
    """The flat edge layout and scatter stream change no bit of the three
    gradient kernels or of ``EnergyBreakdown.dets``, whatever tau, mu or state;
    the fixed-``lam`` kernel, the density stage objective, has the bits of
    ``E`` and ``gpsi`` of the full kernel and of the reference, and
    ``smoothed_energy_grad`` those of the kernel's one row."""
    spec = _specs()[si]
    cell, cases = _bit_cases(spec, k, [si, k])
    dets = {}
    for name, lam, psi in cases:
        dets[name] = energy_breakdown(PeriodicDeformation(cell, lam, psi), 0.1).dets
        assert np.array_equal(dets[name], _ref_triangle_edges(cell, lam, psi)[2])
        _same_bits(_one_shot(_kernel(cell, True), lam, psi), _ref_spring(cell, lam, psi))
        for tau in (0.02, 1e-3, 1e-6):
            full = smoothed_energy_grad(cell, lam, psi, 0.1, tau)
            ref = _ref_smoothed(cell, lam, psi, 0.1, tau)
            _same_bits(full, ref)
            smoothed = _smoothed(cell, 0.1, tau)
            one_row = _kernel(cell, True, smoothed)(
                np.concatenate([lam.ravel(), psi.ravel()])[None], None)
            _same_row_bits(one_row, full)
            _same_row_bits(one_row, ref)
            psi_only = _kernel(cell, True, smoothed, lam=lam[None])(psi.reshape(1, -1), [0])
            _same_psi_bits(psi_only, full)
            _same_psi_bits(psi_only, ref)
        for mu in (1e-2, 1e-6):
            _same_bits(_one_shot(_kernel(cell, False, _barrier(mu)), lam, psi),
                       _ref_barrier(cell, lam, psi, mu))
    assert (dets["flipped"] < 0).all()
    assert (dets["mild"] > 0).all()


def _rows_alone(kernel, X, at, want):
    """``kernel`` on the stack ``X``, for a fixed-``lam`` kernel rows of
    ``psi`` with ``at`` the index of each row's ``lam``, otherwise rows
    ``(lam.ravel(), psi)`` with ``at`` ``None``: each row has the bits of
    the kernel on a stack of that row alone and of ``want(row) -> (E,
    glam, gpsi)``, its gradient laid out as the row is, ``gpsi`` or
    ``(glam.ravel(), gpsi)``.  Returns the stack's energies."""
    fixed = at is not None
    stacked = kernel(X, at)
    assert len(stacked) == 2
    assert stacked[0].shape == (len(X),) and stacked[1].shape == X.shape
    for i in range(len(X)):
        alone = kernel(X[i:i + 1], at[i:i + 1] if fixed else None)
        E, glam, gpsi = want(i)
        G = gpsi.ravel() if fixed else np.concatenate([glam.ravel(), gpsi.ravel()])
        for got, row in ((stacked, i), (alone, 0)):
            assert float(got[0][row]).hex() == float(E).hex()
            assert np.array_equal(got[1][row], G)
    return stacked[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_stacked_kernel_rows_have_the_bits_of_each_row_alone(request, spec_name, k):
    """Each row of a stacked :func:`_kernel` call has the bits of that row
    alone and of the per-class reference, in all three modes: fixed-``lam``
    smoothed (every row at one ``lam``, and each row at its own, gathered
    out of order), variable-``lam`` springs and barrier.  A row with a
    reversed triangle gives ``(inf, 0)`` in the barrier, beside rows that
    do not, and no floating-point warning.

    The gather must be ``np.take(Z, head, axis=1)``: a fancy gather
    ``Z[:, head]`` returns a layout that is not C-ordered, and from k = 3
    on the sums over the cells then add in another order and round
    differently."""
    spec = request.getfixturevalue(spec_name)
    cell, cases = _bit_cases(spec, k, [k, 35])
    lams = np.array([lam for _, lam, _ in cases])
    psis = [psi for _, _, psi in cases]
    Z = np.array([psi.ravel() for psi in psis])
    rows = np.concatenate([lams.reshape(-1, 4), Z], axis=1)     # (lam.ravel(), psi)
    order = np.random.default_rng([k, 36]).permutation(len(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in lams:        # every psi at each fixed lam
            _rows_alone(_kernel(cell, True, _smoothed(cell, 0.1, 0.02), lam=lam[None]), Z,
                        np.zeros(len(Z), int),
                        lambda i: _ref_smoothed(cell, lam, psis[i], 0.1, 0.02))
        with np.errstate(all="raise"):
            # each psi at its own fixed lam, the flipped one among them
            _rows_alone(_kernel(cell, True, _smoothed(cell, 0.1, 0.02), lam=lams[order]), Z,
                        np.argsort(order),
                        lambda i: _ref_smoothed(cell, lams[i], psis[i], 0.1, 0.02))
            _rows_alone(_kernel(cell, True), rows, None,
                        lambda i: _ref_spring(cell, lams[i], psis[i]))
            E = _rows_alone(_kernel(cell, False, _barrier(1e-3)), rows, None,
                            lambda i: _ref_barrier(cell, lams[i], psis[i], 1e-3))
    names = [name for name, _, _ in cases]
    assert E[names.index("flipped")] == np.inf and np.isfinite(E[names.index("mild")])


def _ref_search(cell, x, mu):
    """The mechanism search's objective at the packed ``(lam, psi[1:])``
    as the sum of the variable-``lam`` spring and barrier kernels' ``(E,
    G)`` at its padded row ``(lam.ravel(), psi)``, less the gradient of
    the pinned node."""
    lam, psi = _unpack(x, cell.n_nodes)
    row = np.concatenate([lam.ravel(), psi.ravel()])[None]
    E, G = _kernel(cell, True)(row, None)
    if mu > 0:
        B, G2 = _kernel(cell, False, _barrier(mu))(row, None)
        if not np.isfinite(B[0]):
            return np.inf, np.zeros_like(x)
        E = E + B
        G = G + G2
    return E[0], np.delete(G[0], [4, 5])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("si", range(6))
def test_search_objective_matches_summed_kernels_bit_for_bit(si, k):
    """Each barrier stage of the search, mu = 0 included, has the bits of
    adding the spring and barrier kernels on every row of a stack; a row
    with a reversed triangle gives ``(inf, 0)`` at every mu > 0, with no
    floating-point warning, beside rows that do not."""
    spec = _specs()[si]
    cell, cases = _bit_cases(spec, k, [si, k, 7])
    objectives = {mu: _search_objective(cell, mu) for mu in (1e-2, 1e-4, 1e-6, 0.0)}
    X = np.array([_pack(lam, psi) for _, lam, psi in cases])
    reversed_ = [bool((_ref_triangle_edges(cell, *_unpack(x, cell.n_nodes))[2] <= 0).any())
                 for x in X]
    for mu, f in objectives.items():
        with np.errstate(all="raise"):
            E, G = f(X, np.arange(len(X)))
        assert E.shape == (len(X),) and G.shape == X.shape
        for x, e, g, rev in zip(X, E, G, reversed_):
            want = _ref_search(cell, x, mu)
            assert float(e).hex() == float(want[0]).hex()
            assert np.array_equal(g, want[1])
            if mu > 0 and rev:
                assert e == np.inf and np.array_equal(g, np.zeros_like(x))
            else:
                assert np.isfinite(e)
    assert reversed_[1] and not reversed_[2]        # flipped and mild


def test_kernel_buffers_stay_those_of_the_tallest_stack(kagome):
    """A stack whose height falls row by row, as the rows of an L-BFGS
    stack stop, writes into the buffers of its tallest height: after
    heights R, R - 1, ..., 1 the kernel holds no more memory than after R
    alone, and every row keeps its bits."""
    cell = Supercell(kagome, 2)
    R = 64
    rng = np.random.default_rng(37)
    lams = np.eye(2) + 0.1 * rng.standard_normal((R, 2, 2))
    Z = 0.1 * rng.standard_normal((R, 2 * cell.n_nodes))
    kernel = _kernel(cell, True, _smoothed(cell, 0.1, 0.02), lam=lams)
    tracemalloc.start()
    try:
        E, G = kernel(Z, np.arange(R))
        held = tracemalloc.get_traced_memory()[0]
        for B in range(R - 1, 0, -1):
            E_B, G_B = kernel(Z[:B], np.arange(B))
            assert E_B.tobytes() == E[:B].tobytes() and G_B.tobytes() == G[:B].tobytes()
        del E_B, G_B
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    # a buffer set per height would hold about R / 2 times the tallest one's
    assert grown < 8 * Z.nbytes


def test_stage_objectives_return_a_new_gradient_every_call(kagome):
    """A later call must leave the results of an earlier one, and the
    stack it was given, as they were."""
    cell = Supercell(kagome, 2)
    n = cell.n_nodes
    rng = np.random.default_rng(21)
    lam = np.eye(2) + 0.05 * rng.standard_normal((2, 2))
    # the search's points start with lam near the identity: no triangle reversed
    stages = [(_kernel(cell, True, _smoothed(cell, 0.05, 0.02), lam=lam[None]), np.zeros(2 * n))]
    stages += [(_search_objective(cell, mu), _pack(np.eye(2), np.zeros((n, 2))))
               for mu in (1e-4, 0.0)]
    for f, base in stages:
        Xs = [base + 0.01 * rng.standard_normal((2, len(base))) for _ in range(3)]
        kept = Xs[0].copy()
        at = np.zeros(2, int)       # both rows at the density stage's one lam
        first = f(Xs[0], at)
        copies = [a.copy() for a in first]
        second = f(Xs[1], at)
        f(Xs[2], at)
        assert all(np.array_equal(a, c) for a, c in zip(first, copies))
        assert np.array_equal(Xs[0], kept)
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert np.isfinite(first[0]).all() and not np.array_equal(first[1], second[1])
        assert f(Xs[0], at)[0].tobytes() == first[0].tobytes()


def _lbfgsb_against_minimize(f, X0, maxiter, ftol, gtol):
    """One L-BFGS stage by ``_lbfgsb`` on the stack ``X0`` and by scipy's
    ``minimize`` on each row alone, the reference it repeats, with ``f``
    on a stack of one: each row's point, iteration count, status, message
    and final gradient must agree bit for bit.  Returns ``_lbfgsb``'s
    rows."""
    from scipy.optimize import minimize

    def alone(x, i):
        E, G = f(x[None], [i])
        return E[0], G[0]

    rows = _lbfgsb(f, X0, maxiter, ftol, gtol)
    assert len(rows) == len(X0)
    for i, (x0, (x, nit, status, message, g)) in enumerate(zip(X0, rows)):
        res = minimize(alone, x0, args=(i,), jac=True, method="L-BFGS-B",
                       options={"maxiter": maxiter, "ftol": ftol, "gtol": gtol})
        assert x.tobytes() == res.x.tobytes()
        assert g.tobytes() == res.jac.tobytes()
        assert (nit, status, message) == (res.nit, res.status, res.message)
    return rows


def _chain(f_stages, X, *options):
    """The stack ``X`` through every stage objective in turn, each stage
    checked by :func:`_lbfgsb_against_minimize`; the statuses seen."""
    seen = set()
    for f in f_stages:
        rows = _lbfgsb_against_minimize(f, X, *options)
        X = np.array([row[0] for row in rows])
        seen.update(row[2] for row in rows)
    return seen


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_lbfgsb_matches_minimize_on_the_density_stages(request, spec_name, k):
    """Every anneal stage of the density solve, chained as
    ``estimate_density`` chains them, on one stack of the zero seed and
    two random seeds."""
    cell = Supercell(request.getfixturevalue(spec_name), k)
    n = cell.n_nodes
    rng = np.random.default_rng([28, k])
    lam = np.diag([1.15, 0.9])
    X = np.array([np.zeros(2 * n), 0.1 * rng.standard_normal(2 * n),
                  0.3 * rng.standard_normal(2 * n)])
    lams = np.array([lam] * len(X))
    seen = _chain([_kernel(cell, True, _smoothed(cell, 0.05, tau), lam=lams) for tau in _ANNEAL], X,
                  _MAXITER, 1e-16, 1e-12)
    assert 0 in seen


def _search_starts(cell, k):
    """Two random starts of the mechanism search, a reflected one, where
    every barrier stage starts at ``(inf, 0)``, and the identity."""
    n = cell.n_nodes
    rng = np.random.default_rng([28, k])
    starts = [(0.7 * rotation(0.4) + 0.02 * rng.standard_normal((2, 2)), 0.2),
              (np.eye(2) + 0.3 * rng.standard_normal((2, 2)), 0.2),
              (np.diag([1.0, -1.0]), 0.0), (np.eye(2), 0.0)]
    X = []
    for lam0, amp in starts:
        psi0 = amp * rng.standard_normal((n, 2))
        psi0[0] = 0.0
        X.append(_pack(lam0, psi0))
    return np.array(X)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_lbfgsb_matches_minimize_on_the_search_stages(request, spec_name, k):
    """Every barrier stage of the mechanism search, chained as
    ``search_mechanisms`` chains them, on one stack of the starts of
    :func:`_search_starts`."""
    cell = Supercell(request.getfixturevalue(spec_name), k)
    objectives = [_search_objective(cell, mu) for mu in (1e-2, 1e-4, 1e-6, 0.0)]
    X = _search_starts(cell, k)
    assert objectives[0](X, np.arange(len(X)))[0][2] == np.inf
    with np.errstate(all="raise"):
        seen = _chain(objectives, X, 400, 1e-18, 1e-14)
    assert 0 in seen


def test_lbfgsb_matches_minimize_at_the_iteration_limit_and_a_stalled_line_search(
        kagome, rotating_squares):
    """Stacks whose rows end every way a stage ends: converged, at the
    iteration limit, with a stalled line search (it finds no decrease),
    and converged at once from ``(inf, 0)``."""
    cell = Supercell(rotating_squares, 1)
    n = cell.n_nodes
    f = _kernel(cell, True, _smoothed(cell, 0.05, 0.05),
                lam=np.array([[[1.1, 0.3], [-0.2, 0.7]]] * 4))
    rng = np.random.default_rng(4)
    X = np.array([0.3 * np.random.default_rng(3).standard_normal(2 * n), np.zeros(2 * n),
                  0.1 * rng.standard_normal(2 * n), 0.3 * rng.standard_normal(2 * n)])
    rows = _lbfgsb_against_minimize(f, X, 20, 1e-16, 1e-12)
    assert [row[2] for row in rows] == [2, 0, 0, 1]
    assert rows[0][3] == "ABNORMAL: "
    assert rows[3][1:4] == (20, 1, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")

    cell = Supercell(kagome, 1)
    rows = _lbfgsb_against_minimize(_search_objective(cell, 1e-2), _search_starts(cell, 1),
                                    12, 1e-18, 1e-14)
    assert [row[1:3] for row in rows] == [(10, 2), (12, 1), (0, 0), (4, 0)]


def test_lbfgsb_messages_are_scipys():
    from scipy.optimize._lbfgsb_py import status_messages, task_messages

    assert _STATUS_MESSAGES == status_messages
    assert _TASK_MESSAGES == task_messages


def test_loaded_expit_is_scipys_bit_for_bit():
    from scipy.special import expit as scipy_expit

    expit = _scipy_extension("special", "_special_ufuncs", "expit").expit
    tiny, normal = np.finfo(float).smallest_subnormal, np.finfo(float).smallest_normal
    subnormals = np.array([tiny, 2 * tiny, 1e-310, normal / 2, normal - tiny])
    edges = np.concatenate([[0.0, np.inf, np.nan, 745.0], subnormals])
    x = np.concatenate([edges, -edges, 50 * np.random.default_rng(33).standard_normal(10**5)])
    assert expit(x).tobytes() == scipy_expit(x).tobytes()


def _extension_calls():
    """The ``(package, name, attr)`` of every ``_scipy_extension`` call in
    latmech's source, one per call site (an argument that is not a
    literal fails the scan)."""
    src = Path(__file__).resolve().parents[1] / "src" / "latmech"
    calls = [node for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)]
    # a plain or a dotted call: _scipy_extension(...) or energy._scipy_extension(...)
    return sorted(tuple(ast.literal_eval(arg) for arg in call.args) for call in calls
                  if getattr(call.func, "id", getattr(call.func, "attr", None))
                  == "_scipy_extension")


# every extension the solvers load is checked where the loader finds it
_EXTENSIONS = _extension_calls()


def test_extension_scan_finds_every_call_site():
    assert _EXTENSIONS == [("optimize", "_lbfgsb", "setulb"), ("optimize", "_zeros", "_brentq"),
                           ("special", "_special_ufuncs", "expit")]


@pytest.mark.parametrize("package, name, attr", _EXTENSIONS)
def test_solver_extensions_load_from_scipys_directory(package, name, attr):
    root = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    path = Path(_scipy_extension(package, name, attr).__file__)
    assert path.parent == root / package and path.name.startswith(name + ".")


def test_missing_scipy_extension_names_the_path(monkeypatch):
    base = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    lbfgsb = str(base / "optimize" / "_lbfgsb")
    with pytest.raises(ImportError, match=re.escape(f"{lbfgsb}.") + ".* has no 'no_step'"):
        _scipy_extension("optimize", "_lbfgsb", "no_step")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".nope"])
    _scipy_extension.cache_clear()
    with pytest.raises(ImportError, match=re.escape(f"looked for {lbfgsb}.nope")):
        _scipy_extension("optimize", "_lbfgsb", "setulb")


def _one_cell(lmap, cell):
    """The scaled energy at ``eta = 0.05`` of the one cell ``(i, j)``."""
    return float(_cell_energies(lmap, 0.05, np.array([cell[0]]), np.array([cell[1]]))[0])


def test_scaled_map_matches_periodic_energy(kagome):
    """Sampling u_eps(x) = eps u(x/eps) scales each cell energy by eps^2."""
    rng = np.random.default_rng(15)
    defm = random_deformation(kagome, 1, rng, amp=0.05)
    bd = energy_breakdown(defm, 0.05)
    eps = 0.25
    cells = [(i, j) for i in range(-1, 3) for j in range(-1, 3)]
    lmap = LatticeMap.from_periodic(defm, eps, cells)
    e_cell = _one_cell(lmap, (0, 0))
    assert e_cell == pytest.approx(eps**2 * bd.total, rel=1e-10)


def test_scaled_twist_energy_is_zero(kagome):
    defm = twist_mechanism(kagome, 0.7).deformation
    cells = [(i, j) for i in range(-2, 4) for j in range(-2, 4)]
    lmap = LatticeMap.from_periodic(defm, 0.125, cells)
    assert _one_cell(lmap, (0, 0)) < 1e-28


def _zero_map(spec, eps):
    defm = _reference(spec, 1)
    return LatticeMap.from_periodic(defm, eps, [(i, j) for i in range(-8, 9) for j in range(-8, 9)])


def test_domain_energy_containment(kagome):
    lmap = _zero_map(kagome, 0.25)
    rect = np.array([[0.0, 0.0], [1.5, 0.0], [1.5, 1.5], [0.0, 1.5]])
    rep = domain_energy(lmap, rect, 0.05)
    assert rep.total < 1e-28
    assert rep.n_cells == len(rep.cells) == len(rep.energies) > 0
    assert rep.cells.shape == (rep.n_cells, 2)
    # every counted cell keeps its vertices strictly inside the rectangle
    verts = np.unique(kagome.cover_keys.reshape(-1, 3), axis=0)
    for (i, j) in rep.cells.tolist():
        for ref in verts:
            p = 0.25 * (kagome.node_positions(ref) + i * kagome.v1 + j * kagome.v2)
            assert (0 < p[0] < 1.5) and (0 < p[1] < 1.5)
    with pytest.raises(ValueError, match="no lattice cell"):
        domain_energy(lmap, rect * 1e-3, 0.05)


@pytest.mark.parametrize("polygon", [
    [[0.0, 0.0], [1.5, 0.0], [1.5, 1.5]],                           # a triangle
    [[0.0, 0.0], [1.5, 0.0], [1.5, 1.5], [0.0, 1.5], [0.0, 0.7]],   # five corners
    [[0.0, 0.0], [1.5, 1.5], [1.5, 0.0], [0.0, 1.5]],               # a bow tie
    [[0.75, 0.0], [1.5, 0.75], [0.75, 1.5], [0.0, 0.75]],           # a rotated square
    [[0.0, 0.0], [1.5, 0.0], [1.5, 0.0], [0.0, 0.0]],               # no area
    [[0.0, 0.0], [1.5, 0.0], [1.5, np.nan], [0.0, 1.5]],
    [0.0, 0.0, 1.5, 1.5],
])
def test_domain_energy_needs_a_rectangle(kagome, polygon):
    with pytest.raises(ValueError, match="axis-aligned rectangle"):
        domain_energy(_zero_map(kagome, 0.25), polygon, 0.05)


def test_domain_energy_is_independent_of_orientation(kagome):
    """Both orientations of a rectangle count the same cells.  Clockwise,
    the polygon test this one replaced also counted the cells (0, 1) and
    (1, -1), whose cover vertices touch the edge x = 0.25."""
    lmap = _zero_map(kagome, 0.25)
    ccw = np.array([[0.25, -1.0], [1.75, -1.0], [1.75, 1.0], [0.25, 1.0]])
    want = [[1, 0], [1, 1], [2, -2], [2, -1], [2, 0], [3, -2]]
    for polygon in (ccw, ccw[::-1]):
        assert np.array_equal(domain_energy(lmap, polygon, 0.05).cells, want)


# domain_energy on a counterclockwise rectangle, recorded before the
# rectangle test replaced the polygon test: float.hex of the total, the
# counted cells, and sha256 of the per-cell energies' float64 bytes
RECT = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.4], [0.0, 1.4]])
RECT_PINNED = {
    "kagome": (
        "0x1.fbdadac791f82p-3",
        [(-3, 7), (-2, 5), (-2, 6), (-2, 7), (-1, 3), (-1, 4), (-1, 5), (-1, 6),
         (-1, 7), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1),
         (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 1), (2, 2), (2, 3),
         (2, 4), (2, 5), (2, 6), (2, 7), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
         (3, 6), (3, 7), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (4, 7),
         (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (5, 7), (6, 1), (6, 2),
         (6, 3), (6, 4), (6, 5), (7, 1), (7, 2), (7, 3), (8, 1)],
        "91d3235517a29f2430a3bc13a2c91ba0f64f357f22226f3ba7ddbf6ad8716d83",
    ),
    "rotating-squares": (
        "0x1.0d68b99d6c66ap-2",
        [(i, j) for i in range(1, 9) for j in range(1, 6)],
        "59df038ffebff6bfa6df6d1c0297382378ca81bad824456abb8efa6d06de9b1f",
    ),
}


def _l_shape_map(spec):
    rng = np.random.default_rng(7)
    cell = Supercell(spec, 2)
    lam = np.array([[0.9, 0.15], [-0.1, 1.05]])
    defm = PeriodicDeformation(cell, lam, 0.2 * rng.standard_normal((cell.n_nodes, 2)))
    cells = [(i, j) for i in range(-12, 30) for j in range(-12, 30)]
    return LatticeMap.from_periodic(defm, 0.1, cells)


def test_domain_energy_rectangle_pinned(kagome, rotating_squares):
    for spec in (kagome, rotating_squares):
        rep = domain_energy(_l_shape_map(spec), RECT, 0.05)
        total, cells, digest = RECT_PINNED[spec.name]
        assert rep.total.hex() == total
        assert [tuple(c) for c in rep.cells.tolist()] == cells
        assert rep.energies.dtype == np.float64 and rep.energies.shape == (len(cells),)
        assert hashlib.sha256(rep.energies.tobytes()).hexdigest() == digest
        assert rep.max_cell == max(rep.energies.tolist())


def _random_rectangle(rng, spec, eps, verts):
    """A counterclockwise rectangle in ``[0, 1.2]^2`` whose edges each lie,
    with even odds, exactly on a coordinate of some cell's cover vertex."""
    edges = []
    for axis in (0, 1, 0, 1):
        i, j = rng.integers(0, int(1.2 / eps), size=2)
        snapped = (eps * (verts + i * spec.v1 + j * spec.v2))[rng.integers(len(verts)), axis]
        edges.append(snapped if rng.random() < 0.5 else rng.uniform(0.0, 1.2))
    x0, x1 = sorted(edges[0::2])
    y0, y1 = sorted(edges[1::2])
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def test_domain_energy_cells_match_per_cell_open_box(twist_specs):
    """The cells ``domain_energy`` counts are those whose cover vertices
    all lie strictly inside the rectangle, tested one cell and one point
    at a time, whatever the orientation and first corner of the polygon."""
    rng = np.random.default_rng(15)
    touching = 0
    for spec in twist_specs:
        verts = np.unique(spec.node_positions(spec.cover_keys).reshape(-1, 2).round(12), axis=0)
        for _ in range(12):
            eps = float(rng.choice([1 / 8, 1 / 12, 1 / 16]))
            rect = _random_rectangle(rng, spec, eps, verts)
            (x0, y0), (x1, y1) = rect[0], rect[2]
            ci, cj = _cell_window(spec, rect, eps)
            want = []
            for i, j in zip(ci.tolist(), cj.tolist()):
                pts = (eps * (verts + i * spec.v1 + j * spec.v2)).tolist()
                if all(x0 < x < x1 and y0 < y < y1 for x, y in pts):
                    want.append([i, j])
                elif all(x0 <= x <= x1 and y0 <= y <= y1 for x, y in pts):
                    touching += 1
            defm = _reference(spec, 1)
            lmap = LatticeMap.from_periodic(defm, eps, np.column_stack([ci, cj]))
            start = int(rng.integers(4))
            for polygon in (np.roll(rect, start, axis=0), np.roll(rect[::-1], start, axis=0)):
                if not want:
                    with pytest.raises(ValueError, match="no lattice cell"):
                        domain_energy(lmap, polygon, 0.05)
                    continue
                assert domain_energy(lmap, polygon, 0.05).cells.tolist() == want
    # cells with a vertex on an edge and none outside are left out
    assert touching > 0


def test_missing_node_raises_key_error(kagome):
    lmap = _l_shape_map(kagome)
    # drop one node of cell (3, 3): both entry points name node and cell
    node, o1, o2 = kagome.spring_keys[0, 1].tolist()
    gone = (node, (o1 + 3, o2 + 3))
    row = lmap.rows([node, o1, o2], 3, 3)[0]
    kept = np.arange(len(lmap.keys)) != row
    holed = LatticeMap(kagome, lmap.epsilon, lmap.keys[kept], lmap.positions[kept])
    assert row >= 0 and holed.rows([node, o1, o2], 3, 3)[0] == -1
    with pytest.raises(KeyError, match=r"missing .* needed for cell \(3, 3\)"):
        _one_cell(holed, (3, 3))
    with pytest.raises(KeyError, match=re.escape(str(gone))):
        domain_energy(holed, RECT, 0.05)
    assert _one_cell(holed, (0, 0)) == _one_cell(lmap, (0, 0))


def test_lattice_map_arrays_and_values_view(kagome):
    lmap = _l_shape_map(kagome)
    index = {(node, (o1, o2)): row for row, (node, o1, o2) in enumerate(lmap.keys.tolist())}
    keys = list(index)
    assert keys == sorted(keys) and len(keys) == len(lmap.keys)
    assert lmap.values is lmap.positions
    with pytest.raises(ValueError):
        lmap.positions[0, 0] = 1.0
    rebuilt = LatticeMap(kagome, lmap.epsilon, lmap.keys.tolist(), lmap.positions.tolist())
    assert np.array_equal(rebuilt.keys, lmap.keys)
    assert np.array_equal(rebuilt.positions, lmap.positions)
    assert lmap.rows(lmap.keys[5], 0, 0).tolist() == [5]
    assert lmap.rows([0, 10**6, 0], 0, 0).tolist() == [-1]
    # stacked rows over cells: (2, 3) keys by 4 cells
    ci, cj = np.array([0, 1, 2, 10**6]), np.array([0, -1, 3, 0])
    rows = lmap.rows(lmap.keys[:6].reshape(2, 3, 3), ci, cj)
    assert rows.shape == (2, 3, 4)
    for key, row in zip(lmap.keys[:6].tolist(), rows.reshape(6, 4)):
        for c in range(4):
            ref = (key[0], (key[1] + int(ci[c]), key[2] + int(cj[c])))
            assert row[c] == index.get(ref, -1)
    assert (rows[..., 0] == np.arange(6).reshape(2, 3)).all()
    for ref in keys[:50]:
        key = [ref[0], *ref[1]]
        row = lmap.rows(key, 0, 0)[0]
        assert np.array_equal(lmap.reference_positions[row],
                              lmap.epsilon * lmap.spec.node_positions(key))


def test_placed_keeps_class_cell_order_and_drops_instances_missing_a_node(kagome):
    lmap = _l_shape_map(kagome)
    # remove every fifth node, so that many instances miss one
    kept = np.arange(len(lmap.keys)) % 5 != 0
    holed = LatticeMap(kagome, lmap.epsilon, lmap.keys[kept], lmap.positions[kept])
    ci, cj = np.array([0, 1, 2, 3, 10**6]), np.array([0, -1, 3, 5, 0])
    for keys in (kagome.spring_keys, kagome.penalized_keys):
        for m in (lmap, holed):
            cls, rows = m.placed(keys, ci, cj)
            assert all(end.flags.c_contiguous and end.ndim == 1 for end in rows)
            # (class, cell) order by a loop over both, each instance kept
            # when every node is held
            want = [(c, [m.rows(key, ci[n], cj[n])[0] for key in keys[c]])
                    for c in range(len(keys)) for n in range(len(ci))]
            want = [(c, ends) for c, ends in want if min(ends) >= 0]
            assert cls.tolist() == [c for c, _ in want]
            assert rows.T.tolist() == [ends for _, ends in want]
        full, holey = len(lmap.placed(keys, ci, cj)[0]), len(holed.placed(keys, ci, cj)[0])
        assert 0 < holey < full < len(keys) * len(ci)


def test_pickled_lattice_map_keeps_its_layout(kagome):
    # soft-mode's worker processes return their maps by pickle
    lmap = _l_shape_map(kagome)
    back = pickle.loads(pickle.dumps(lmap))
    assert back.spec == lmap.spec and back.epsilon == lmap.epsilon
    for name in ("keys", "positions"):
        arr, ref = getattr(back, name), getattr(lmap, name)
        assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes(), name
        assert not arr.flags.writeable, name
    assert back.values is back.positions
    ci, cj = np.array([0, 1, -2]), np.array([0, 2, 1])
    assert np.array_equal(back.rows(kagome.spring_keys, ci, cj),
                          lmap.rows(kagome.spring_keys, ci, cj))


def test_interpolate_affine_maps_are_exact(kagome):
    cell = Supercell(kagome, 1)
    lam = np.array([[0.9, 0.1], [0.0, 1.1]])
    defm = PeriodicDeformation(cell, lam, np.zeros((cell.n_nodes, 2)))
    cells = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
    lmap = LatticeMap.from_periodic(defm, 0.5, cells)
    pts = np.array([[0.3, 0.4], [0.7, 0.2], [-0.5, 0.6]])
    vals, grads = lmap.interpolate(pts)
    assert np.allclose(vals, pts @ lam.T, atol=1e-12)
    assert np.allclose(grads, lam, atol=1e-10)
    with pytest.raises(ValueError):
        lmap.interpolate([[50.0, 50.0]])


def _interpolate_by_triangle(lmap, points):
    """Reference ``LatticeMap.interpolate``: one pass per cell offset and
    cover triangle."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    spec = lmap.spec
    Minv = np.linalg.inv(spec.cell_matrix) / lmap.epsilon
    values = np.empty((len(points), 2))
    grads = np.empty((len(points), 2, 2))
    q = spec.node_positions(spec.cover_keys)
    dinvs = np.linalg.inv(np.stack([q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]], axis=-1)
                          * lmap.epsilon)
    base = np.floor(np.matmul(Minv, points[:, :, None])[:, :, 0]).astype(int)
    todo = np.arange(len(points))
    for di in (0, -1, 1, -2, 2):
        for dj in (0, -1, 1, -2, 2):
            for tri, dinv in zip(spec.cover_keys, dinvs):
                ci, cj = base[todo, 0] + di, base[todo, 1] + dj
                rows = lmap.rows(tri, ci, cj)
                p = points[todo]
                bary = np.matmul(dinv, (p - lmap.reference_positions[rows[0]])[:, :, None])[:, :, 0]
                bsum = bary[:, 0] + bary[:, 1]
                hit = ((rows >= 0).all(axis=0) & (bary[:, 0] >= -1e-9)
                       & (bary[:, 1] >= -1e-9) & (bsum <= 1 + 1e-9))
                u0, u1, u2 = lmap.positions[rows[:, hit]]
                b0, b1 = bary[hit, 0:1], bary[hit, 1:2]
                values[todo[hit]] = (1 - bsum[hit, None]) * u0 + b0 * u1 + b1 * u2
                grads[todo[hit]] = np.matmul(np.stack([u1 - u0, u2 - u0], axis=-1), dinv)
                todo = todo[~hit]
                if not len(todo):
                    return values, grads
    raise ValueError(f"point {points[todo[0]]} is not covered by stored nodal values")


@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
@pytest.mark.parametrize("denom", [16, 33])
def test_interpolate_matches_one_triangle_passes(request, spec_name, denom):
    # every cover triangle of a cell offset is tested in one pass; each
    # point still takes its first hit in (offset, triangle) order
    # points of the target rectangle, kept inside the probe margin of
    # weak_limit_check so that the map covers them
    spec, target = request.getfixturevalue(spec_name), default_target()
    lmap = modulate(spec, target, 1 / denom, relax_sweeps=5)
    x0, x1, y0, y1 = target.domain
    m = _probe_margin(spec, target, 1 / denom)
    rng = np.random.default_rng(500)
    points = np.column_stack([rng.uniform(x0 + m, x1 - m, 500), rng.uniform(y0 + m, y1 - m, 500)])
    # nodes lie on several cover triangles at once
    refs = lmap.reference_positions
    nodes = refs[(refs[:, 0] > x0 + m) & (refs[:, 0] < x1 - m)
                 & (refs[:, 1] > y0 + m) & (refs[:, 1] < y1 - m)]
    points = np.vstack([points, nodes[::3]])
    got, want = lmap.interpolate(points), _interpolate_by_triangle(lmap, points)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # the first uncovered point is named, as the reference names it
    stray = np.vstack([points[:7], [[5.0, 5.0]], points[7:9], [[-5.0, 2.0]]])
    with pytest.raises(ValueError) as want_err:
        _interpolate_by_triangle(lmap, stray)
    with pytest.raises(ValueError) as got_err:
        lmap.interpolate(stray)
    assert str(got_err.value) == str(want_err.value) == (
        "point [5. 5.] is not covered by stored nodal values")


def test_check_cell_bounds_finite(kagome, rotating_squares):
    for spec in (kagome, rotating_squares):
        rep = check_cell_bounds(spec, n_samples=500, eta=0.05, seed=1)
        assert np.isfinite(rep.C1) and rep.C1 > 0
        assert np.isfinite(rep.C2) and rep.C2 > 0
        assert np.isfinite(rep.D2) and rep.D2 >= 0
        assert rep.n_samples >= 500
        assert 0 < rep.n_positive_slack <= rep.n_samples - rep.n_zero_energy


def test_check_cell_bounds_reports_no_positive_slack(kagome):
    # without random samples only the zero-energy states remain: nothing
    # to fit C2 on
    rep = check_cell_bounds(kagome, n_samples=0)
    assert rep.n_samples == rep.n_zero_energy == 4
    assert rep.n_positive_slack == 0
    assert rep.C2 == np.inf
