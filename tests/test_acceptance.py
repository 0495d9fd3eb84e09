"""End-to-end acceptance runs, one test per advertised guarantee.

Each test exercises the full advertised scope at the documented
tolerances, asserts its wall-clock budget, and prints a one-line
summary with the measured extremes.
"""

import time

import numpy as np

from latmech.cellsolver import (
    estimate_density,
    lambda_grid,
    sandwich_report,
    verify_jensen_bounds,
)
from latmech.energy import energy_breakdown
from latmech.geometry import (
    averaged_vectors,
    rigidity_constant,
    sample_triangle_deformations,
    scalar_inequality_report,
    triangle_deviation,
    triangle_spring_energy,
)
from latmech.lattice import PeriodicDeformation, Supercell
from latmech.mechanisms import (
    domain_wall_angles,
    domain_wall_mechanism,
    search_mechanisms,
    twist_admissible_range,
    twist_mechanism,
)
from latmech.softmodes import default_target, modulate, soft_mode_report

from conftest import check_cell_bounds, commutator_closed_form


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _report(label, elapsed, detail):
    print(f"{label} PASS ({elapsed:.1f}s): {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_averaged_vector_identity(all_specs):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ks = (1, 2, 3, 5)
    cells = {(id(s), k): Supercell(s, k) for s in all_specs for k in ks}
    worst = 0.0
    for trial in range(1000):
        spec = all_specs[trial % len(all_specs)]
        k = ks[(trial // len(all_specs)) % len(ks)]
        cell = cells[(id(spec), k)]
        lam = np.eye(2) + rng.uniform(-0.8, 0.8, size=(2, 2))
        psi = 0.5 * rng.standard_normal((cell.n_nodes, 2))
        a1, a2, at1, at2 = averaged_vectors(PeriodicDeformation(cell, lam, psi))
        scale = 1.0 + np.linalg.norm(lam)
        dev = max(np.linalg.norm(at1 - lam @ a1), np.linalg.norm(at2 - lam @ a2))
        worst = max(worst, dev / scale)
        assert dev <= 1e-12 * scale
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("criterion 01 averaged-vector identity", elapsed,
            f"worst scaled deviation {worst:.2e} over 1000 trials, "
            f"{len(all_specs)} lattices, k in {ks}")


def test_criterion_02_commutator_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    lams = rng.uniform(-2.0, 2.0, size=(100000, 2, 2))
    phis = rng.uniform(0.0, 2 * np.pi, size=100)
    es = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    worst = 0.0
    for alpha in (np.pi / 3, np.pi / 2):
        R = _rot(alpha)
        C = lams @ R - R @ lams
        closed = commutator_closed_form(lams, alpha)
        for e in es:
            direct = np.linalg.norm(C @ e, axis=1)
            rel = np.max(np.abs(direct - closed) / (1.0 + closed))
            worst = max(worst, rel)
            assert rel <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion 02 commutator closed form", elapsed,
            f"worst relative gap {worst:.2e} over 1e5 matrices, "
            f"2 angles, 100 directions")


def test_criterion_03_mechanism_isotropy(twist_specs):
    t0 = time.monotonic()

    def check(cert, where):
        assert cert.energy <= 1e-12, where
        assert cert.isotropy_defect <= 1e-8, where
        assert cert.det_sign * cert.sigma1 * cert.sigma2 > 0, where
        assert cert.sigma1 <= 1 + 1e-8, where

    n_twist = 0
    for spec in twist_specs:
        lo, hi = twist_admissible_range(spec, probe_step=0.05)
        for theta in np.linspace(lo, hi, 50):
            check(twist_mechanism(spec, float(theta)).certificate,
                  f"{spec.name} twist {theta:.3f}")
            n_twist += 1

    n_hits = 0
    for spec in twist_specs[:2]:
        for k in (1, 2):
            hits = search_mechanisms(spec, k, restarts=32)
            assert hits, f"{spec.name} k={k}"
            for mech in hits:
                check(mech.certificate, f"{spec.name} k={k} search")
            n_hits += len(hits)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report("criterion 03 mechanism isotropy", elapsed,
            f"{n_twist} twist certificates and {n_hits} search hits, "
            f"all isotropic contractions")


def test_criterion_04_zero_set_dichotomy(kagome):
    t0 = time.monotonic()
    worst_iso = 0.0
    for lam in lambda_grid("iso"):
        for k in (1, 2):
            est = estimate_density(kagome, lam, 0.05, k=k)
            worst_iso = max(worst_iso, est.upper)
            assert est.upper <= 1e-10
    least_noniso = np.inf
    for lam in lambda_grid("noniso"):
        for k in (1, 2):
            est = estimate_density(kagome, lam, 0.05, k=k)
            least_noniso = min(least_noniso, est.upper)
            assert est.upper >= 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report("criterion 04 zero-set dichotomy", elapsed,
            f"isotropic grid peak {worst_iso:.2e} (80 x k in 1,2), "
            f"non-isotropic floor {least_noniso:.2e} (20 x k in 1,2)")


def test_criterion_05_lower_bound_sandwich(kagome):
    t0 = time.monotonic()
    rep = sandwich_report(kagome, lambda_grid("noniso"), eta=0.05,
                          k_list=(1, 2), restarts=4, eta_factor=0.5)
    assert rep.c_fit > 0
    assert rep.c_fit_alt > 0
    assert rep.stability <= 2.0
    elapsed = time.monotonic() - t0
    _report("criterion 05 lower-bound sandwich", elapsed,
            f"bracket constant {rep.c_fit:.4f} at eta=0.05, "
            f"{rep.c_fit_alt:.4f} at eta=0.025, stability {rep.stability:.3f}")


def test_criterion_06_explicit_jensen_bounds(kagome, rotating_squares):
    t0 = time.monotonic()
    rs_reports = verify_jensen_bounds(rotating_squares, n_trials=1000, k_max=3,
                                      rng_seed=606)
    kag_reports = verify_jensen_bounds(kagome, n_trials=1000, k_max=3,
                                       rng_seed=607)
    diag = rs_reports["diag-stretch"]
    assert diag.min_slack >= -1e-12
    assert diag.equality_gap <= 1e-12
    names = set()
    for reports in (rs_reports, kag_reports):
        for rep in reports.values():
            assert rep.n_trials == 1000
            assert rep.min_slack >= -1e-12, rep.name
            names.add(rep.name)
    assert names >= {"diag-stretch", "two-direction", "three-direction",
                     "weighted-rest"}
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    worst = min(rep.min_slack
                for reports in (rs_reports, kag_reports)
                for rep in reports.values())
    _report("criterion 06 explicit-constant bounds", elapsed,
            f"4 bound families, 1000 trials each, worst slack {worst:.2e}, "
            f"diagonal equality gap {diag.equality_gap:.1e}")


def test_criterion_07_scalar_inequalities():
    t0 = time.monotonic()
    reports = {r.name: r for r in scalar_inequality_report(0.01, 0.001)}
    assert len(reports) == 5
    for rep in reports.values():
        assert rep.min_slack >= -1e-12, rep.name
    angle, value = reports["three-direction-max"].witness
    assert abs(angle - np.pi / 2) <= 1e-12
    assert abs(value - 0.75) <= 1e-12
    _, value2 = reports["two-direction-max"].witness
    assert abs(value2 - 0.5) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    worst = min(r.min_slack for r in reports.values())
    _report("criterion 07 scalar inequalities", elapsed,
            f"5 inequalities on dense grids, worst slack {worst:.2e}, "
            f"equality witness t(pi/2) = 3/4 reproduced")


def test_criterion_08_triangle_rigidity():
    t0 = time.monotonic()
    est = rigidity_constant(alpha=np.pi / 3, n_samples=100000, seed=0)
    assert est.c > 0 and est.cos_coeff > 0

    pts = sample_triangle_deformations(np.pi / 3, 100000, seed=20260814)
    E = triangle_spring_energy(pts, np.pi / 3)
    keep = E <= est.energy_cap          # sqrt(E) <= 1/6
    E = E[keep]
    z2 = np.sum(triangle_deviation(pts[keep], np.pi / 3) ** 2, axis=-1)
    assert np.all(E >= est.c * z2 - 1e-15)

    b = pts[keep][:, 1] - pts[keep][:, 2]
    r = pts[keep][:, 1] - pts[keep][:, 0]
    cosg = np.sum(b * r, axis=1) / (np.linalg.norm(b, axis=1)
                                    * np.linalg.norm(r, axis=1))
    cos_dev = np.abs(cosg - 0.5)
    c1 = 2.0 * est.cos_coeff
    assert np.all(cos_dev <= (c1 / 2.0) * np.sqrt(E) + 1e-15)
    elapsed = time.monotonic() - t0
    _report("criterion 08 triangle rigidity", elapsed,
            f"c = {est.c:.4f}, c1 = {c1:.4f} certified on 1e5 samples, "
            f"{int(keep.sum())} fresh small-energy deformations re-checked")


def test_criterion_09_domain_wall():
    t0 = time.monotonic()
    th = domain_wall_angles(2 * np.pi / 3, n=30)
    assert np.max(np.abs(th - 2 * np.pi / 3)) <= 1e-14

    # start values span the admissible interval but stay clear of the
    # neutral fixed point at 2*pi/3, where the recursion needs more than
    # twenty steps to settle
    worst_tail = 0.0
    worst_resid = 0.0
    worst_gap = 0.0
    for theta1 in np.linspace(2 * np.pi / 3 + 0.06, np.pi - 0.01, 20):
        th = domain_wall_angles(float(theta1), n=25)
        worst_tail = max(worst_tail, abs(th[20] - th[10]))
        assert abs(th[20] - th[10]) < 1e-3
        wall = domain_wall_mechanism(float(theta1), half_width=15)
        worst_resid = max(worst_resid, wall.max_spring_residual)
        worst_gap = max(worst_gap, wall.far_field_gap)
        assert wall.max_spring_residual <= 1e-10
        assert wall.far_field_gap <= 1e-6
        assert wall.min_det > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("criterion 09 domain wall", elapsed,
            f"flat wall constant; 20 walls: tail drift {worst_tail:.1e}, "
            f"strip residual {worst_resid:.1e}, far-field gap {worst_gap:.1e}")


def test_criterion_10_soft_mode_scaling(kagome):
    t0 = time.monotonic()
    target = default_target()
    rep = soft_mode_report([modulate(kagome, target, eps)
                            for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64)], target)
    assert rep.monotone_violation_fraction <= 0.05
    assert rep.final_over_first < 0.10
    wl = rep.weak
    assert wl.cr_decreasing
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    dens = ", ".join(f"{d:.2e}" for d in rep.energy_densities)
    _report("criterion 10 soft-mode scaling", elapsed,
            f"densities [{dens}] (final/first {rep.final_over_first:.3f}), "
            f"CR residuals decreasing {tuple(round(c, 4) for c in wl.cr_residuals)}")


def test_criterion_11_energy_axioms(all_specs, kagome, rotating_squares):
    t0 = time.monotonic()
    rng = np.random.default_rng(1111)
    cells = {(id(s), k): Supercell(s, k) for s in all_specs for k in (1, 2, 3)}
    worst = 0.0
    for trial in range(1000):
        spec = all_specs[trial % len(all_specs)]
        k = 1 + (trial // len(all_specs)) % 3
        cell = cells[(id(spec), k)]
        lam = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
        psi = 0.4 * rng.standard_normal((cell.n_nodes, 2))
        defm = PeriodicDeformation(cell, lam, psi)
        bd = energy_breakdown(defm, 0.05)
        moved = energy_breakdown(defm.translate(rng.uniform(-5, 5, size=2)), 0.05)
        rotated = energy_breakdown(defm.rotate(_rot(rng.uniform(0, 2 * np.pi))), 0.05)
        scale = 1.0 + abs(bd.total)
        dev = max(abs(moved.total - bd.total), abs(rotated.total - bd.total))
        worst = max(worst, dev / scale)
        assert dev <= 1e-10 * scale
        assert np.array_equal(moved.reversed_counts, bd.reversed_counts)
        assert np.array_equal(rotated.reversed_counts, bd.reversed_counts)

    # penalty quantization: totals are exact integer multiples of area/eta
    n_flipped = 0
    for trial in range(200):
        spec = all_specs[trial % len(all_specs)]
        cell = cells[(id(spec), 2)]
        lam = np.diag([1.0, -1.0]) @ (np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
        psi = 0.2 * rng.standard_normal((cell.n_nodes, 2))
        defm = PeriodicDeformation(cell, lam, psi)
        bd = energy_breakdown(defm, 0.05)
        counts = [int(np.sum(d <= 0)) for d in bd.dets]
        units = [a / 0.05 for a in spec.penalized_area.tolist()]
        assert bd.penalty_total == sum(c * u for c, u in zip(counts, units))
        assert list(bd.reversed_counts) == counts
        n_flipped += sum(counts)
    assert n_flipped > 0

    for spec in (kagome, rotating_squares):
        rep = check_cell_bounds(spec, n_samples=10000)
        assert rep.n_samples >= 10000
        assert rep.n_positive_slack > 0
        for name in ("C1", "C2", "D2"):
            val = getattr(rep, name)
            assert np.isfinite(val) and val > 0, (spec.name, name)
    elapsed = time.monotonic() - t0
    _report("criterion 11 energy axioms", elapsed,
            f"invariance deviation {worst:.2e} over 1000 trials; penalty "
            f"quantization exact on 200 reflected trials; cell-bound "
            f"constants finite on 1e4 samples for both built-ins")
