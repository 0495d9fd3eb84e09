"""Cell-problem density estimates, lambda grids, and explicit-constant bounds."""

import json
from itertools import chain

import numpy as np
import pytest
from conftest import one_row_edge_vectors, percolating_units_json, scaled_json

from latmech.energy import _kernel, _smoothed, energy_breakdown
from latmech.geometry import _pos_sq, lower_bracket, principal_stretches, signed_svd
from latmech.lattice import (DegenerateGeometryError, LatticeSpec, PeriodicDeformation,
                             Supercell, VARIANT_KINDS, build_kagome, build_rotating_squares,
                             build_variant, edge_vectors, lam_times, norms)
from latmech.mechanisms import _twist_fields, twist_admissible_range, twist_mechanism
import latmech.cellsolver as cellsolver
from latmech.cellsolver import (
    _invert_contraction,
    _jensen_slacks,
    _jensen_trials,
    _marker_direction_frame,
    _pos_sq_pow,
    _twist_contraction_table,
    estimate_density,
    lambda_grid,
    orientation_threshold,
    sandwich_report,
    verify_isotropic_bound,
    verify_jensen_bounds,
)


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_contraction_table_cached_by_spec_content(kagome):
    thetas, cs = _twist_contraction_table(kagome)
    before = _twist_contraction_table.cache_info()
    rebuilt = LatticeSpec.from_json(kagome.to_json())
    assert _twist_contraction_table(rebuilt)[1] is cs
    after = _twist_contraction_table.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_failed_twist_bracket_is_reported(kagome, monkeypatch):
    # a solve that inverts through the real table runs brentq
    est = estimate_density(kagome, 0.7 * np.eye(2), 0.05, restarts=0)
    assert est.solver_trace["twist_bracket_gap"] is None
    # a table that claims c = 0.7 is reached between theta = 0.1 and 0.15
    # (the true contraction there is ~0.99): the bracket cannot change sign
    fake = (np.linspace(0.0, 0.2, 5), np.linspace(1.0, 0.5, 5))
    monkeypatch.setattr(cellsolver, "_twist_contraction_table", lambda spec: fake)
    theta, gap = _invert_contraction(kagome, 0.7)
    assert theta == fake[0][3]   # the nearer end
    assert 0.25 < gap < 0.3
    monkeypatch.setattr(cellsolver, "_ANNEAL", (0.05,))
    est = estimate_density(kagome, 0.7 * np.eye(2), 0.05, restarts=0)
    assert est.solver_trace["twist_bracket_gap"] == gap


def test_estimate_density_validation(kagome):
    with pytest.raises(ValueError):
        estimate_density(kagome, np.eye(2), 0.0)
    with pytest.raises(ValueError):
        estimate_density(kagome, np.eye(2), -0.1)
    with pytest.raises(ValueError):
        estimate_density(kagome, np.eye(2), 0.05, k=0)
    # positive, but the smoothed slope overflows (5e-324 * tau rounds to 0)
    for eta in (1e-320, 5e-324):
        with pytest.raises(ValueError, match=r"slope area/\(eta\*tau\) at tau=0.003 overflows"):
            estimate_density(kagome, np.eye(2), eta)


def test_negative_restarts_are_refused_before_any_supercell(kagome, monkeypatch):
    # a 600 x 600 supercell is some 350 MB: the refusal must not build it
    def no_supercell(*args):
        raise AssertionError("a supercell was built")

    monkeypatch.setattr(cellsolver, "Supercell", no_supercell)
    with pytest.raises(ValueError) as info:
        estimate_density(kagome, np.eye(2), 0.05, k=600, restarts=-1)
    assert str(info.value) == "restarts must be >= 0, got -1"


def test_estimate_density_identity_short_circuits(kagome):
    est = estimate_density(kagome, np.eye(2), 0.05)
    assert est.upper == 0.0
    assert lower_bracket(np.eye(2)) == 0.0
    assert est.solver_trace["short_circuit"]
    assert est.solver_trace["best_seed"] == "zero"


def test_estimate_density_reachable_compression(kagome, rotating_squares):
    # isotropic contractions inside the twist range cost nothing
    for spec in (kagome, rotating_squares):
        for lam in (0.8 * _rot(0.3), 0.5 * _rot(-1.0), 0.95 * np.eye(2)):
            est = estimate_density(spec, lam, 0.05)
            assert est.upper <= 1e-10
            assert est.solver_trace["best_seed"] in ("twist", "zero")
            assert lower_bracket(lam) <= 1e-12


def test_estimate_density_anisotropic_positive(kagome):
    lam = np.diag([1.2, 0.8])
    est = estimate_density(kagome, lam, 0.05, k=1, restarts=4)
    assert est.upper > 1e-4
    assert est.upper == est.upper_spring + est.upper_penalty
    assert lower_bracket(lam) > 0
    assert est.upper / lower_bracket(lam) > 0.01


def test_estimate_density_reports_unconverged_stages(kagome, monkeypatch):
    monkeypatch.setattr(cellsolver, "_MAXITER", 1)
    est = estimate_density(kagome, np.diag([1.2, 0.8]), 0.05, k=1, restarts=1)
    trace = est.solver_trace
    # at most two seeds (zero, one random) times four anneal stages
    assert 0 < trace["unconverged_stages"] <= 2 * 4
    assert "ITERATIONS" in trace["last_unconverged_message"].upper()
    done = estimate_density(kagome, 0.6 * np.eye(2), 0.05, k=1, restarts=1)
    assert done.solver_trace["short_circuit"]
    assert done.solver_trace["unconverged_stages"] == 0
    assert done.solver_trace["last_unconverged_message"] is None


def test_estimate_density_reports_stalled_line_searches_apart(kagome, monkeypatch):
    # at diag(1.2, 0.8) the annealed stages end in an abnormal line
    # search, not at the iteration limit
    trace = estimate_density(kagome, np.diag([1.2, 0.8]), 0.05, k=1, restarts=1).solver_trace
    assert trace["stalled_stages"] > 0
    assert trace["unconverged_stages"] == 0
    assert trace["last_unconverged_message"] is None
    monkeypatch.setattr(cellsolver, "_MAXITER", 1)
    cut = estimate_density(kagome, np.diag([1.2, 0.8]), 0.05, k=1, restarts=1)
    assert cut.solver_trace["unconverged_stages"] > 0
    assert cut.solver_trace["stalled_stages"] == 0


def test_estimate_density_normalization_survives_tiling(kagome):
    # the averaged energy of the k=1 minimizer is unchanged by tiling it
    est = estimate_density(kagome, np.diag([1.2, 0.8]), 0.05, k=1, restarts=2)
    tiled = est.minimizer.tile(2)
    bd = energy_breakdown(tiled, 0.05)
    assert abs(bd.averaged - est.upper) <= 1e-12 * (1 + est.upper)


def test_percolating_rigid_units_solve_without_twist_seed(monkeypatch):
    spec = LatticeSpec.from_json(percolating_units_json())
    with pytest.raises(DegenerateGeometryError, match="translate of itself"):
        twist_admissible_range(spec)
    lam = np.diag([1.1, 0.9])
    assert cellsolver._twist_seed(spec, lam)[0] is None
    monkeypatch.setattr(cellsolver, "_ANNEAL", (0.05,))
    est = estimate_density(spec, lam, 0.05, restarts=1)
    assert est.solver_trace["restarts"] == 2      # zero and one random seed
    assert np.isfinite(est.upper) and est.upper > 0
    # an identity solve short-circuits on the zero seed, twist or none
    assert estimate_density(spec, np.eye(2), 0.05).solver_trace["short_circuit"]


def test_estimate_density_screens_seeds_before_polishing(kagome, rotating_squares,
                                                         monkeypatch):
    stages = []     # the smoothing of every L-BFGS stage built
    sizes = set()   # (stack, row, gradient row) lengths of every energy evaluation
    real_smoothed, real_kernel = cellsolver._smoothed, cellsolver._kernel

    def smoothed(cell, eta, tau):
        stages.append(tau)
        return real_smoothed(cell, eta, tau)

    def counted(*args, **kwargs):
        f = real_kernel(*args, **kwargs)

        def evaluate(X, at):
            E, G = f(X, at)
            sizes.add((X.ndim, X.shape[1], G.shape[1]))
            return E, G

        return evaluate

    monkeypatch.setattr(cellsolver, "_smoothed", smoothed)
    monkeypatch.setattr(cellsolver, "_kernel", counted)
    # a reachable compression short-circuits on the twist seed before the
    # zero seed is polished: no L-BFGS stage runs
    for spec in (kagome, rotating_squares):
        est = estimate_density(spec, 0.6 * _rot(0.9), 0.05, k=2)
        assert est.upper <= 1e-13
        assert est.solver_trace["best_seed"] == "twist"
        assert est.solver_trace["short_circuit"]
        assert est.solver_trace["iterations"] == 0
    assert stages == []
    # det < 0 has no twist seed: the seeds go through every L-BFGS stage
    lam = np.diag([1.1, -0.8])
    assert cellsolver._twist_seed(kagome, lam)[0] is None
    est = estimate_density(kagome, lam, 0.05, restarts=1)
    trace = est.solver_trace
    assert trace["restarts"] == 2          # zero and one random seed
    assert not trace["short_circuit"]
    assert trace["best_seed"] in ("zero", "random0")
    assert trace["iterations"] > 0
    # one objective per stage, every seed in its stack
    assert stages == list(cellsolver._ANNEAL)
    # the solve at fixed lam asks for no lam gradient: stacks of psi rows, 2 per node
    assert sizes == {(2, 2 * kagome.n_basic, 2 * kagome.n_basic)}


def test_estimate_density_keeps_the_winning_breakdown(kagome, monkeypatch):
    # one exact energy per screened seed and per polished field; the
    # winner's is reused, not evaluated again
    calls = []
    real = cellsolver.energy_breakdown

    def counted(defm, eta):
        calls.append(defm)
        return real(defm, eta)

    monkeypatch.setattr(cellsolver, "energy_breakdown", counted)
    est = estimate_density(kagome, 0.8 * _rot(0.3), 0.05, k=2)
    assert est.solver_trace["best_seed"] == "twist"
    assert len(calls) == 2                  # the zero and twist seeds
    calls.clear()
    est = estimate_density(kagome, np.diag([1.1, -0.8]), 0.05, restarts=1)
    assert not est.solver_trace["short_circuit"]
    assert len(calls) == 2 + 2              # two seeds screened, then polished
    assert est.upper == real(est.minimizer, 0.05).averaged


def test_estimate_density_solver_trace_is_pinned(kagome, monkeypatch):
    # a twist-seeded solve that short-circuits and an annealed one, whole
    # traces in key order
    short = estimate_density(kagome, 0.8 * _rot(0.3), 0.05, k=2, restarts=2)
    assert list(short.solver_trace.items()) == [
        ("restarts", 4), ("iterations", 0), ("final_grad_norm", 0.0),
        ("best_seed", "twist"), ("short_circuit", True), ("unconverged_stages", 0),
        ("last_unconverged_message", None), ("stalled_stages", 0), ("twist_bracket_gap", None)]
    assert short.upper == float.fromhex("0x1.3a141b9e9364ep-103")
    monkeypatch.setattr(cellsolver, "_ANNEAL", (0.05, 0.008))
    annealed = estimate_density(kagome, np.diag([1.15, 0.9]), 0.05, k=1, restarts=1)
    assert list(annealed.solver_trace.items()) == [
        ("restarts", 2), ("iterations", 15),
        ("final_grad_norm", float.fromhex("0x1.ab84a957c48b5p-48")),
        ("best_seed", "random0"), ("short_circuit", False), ("unconverged_stages", 0),
        ("last_unconverged_message", None), ("stalled_stages", 0),
        ("twist_bracket_gap", None)]
    assert annealed.upper == float.fromhex("0x1.cf0cb3573827fp-7")


def test_polish_to_zero_short_circuits_wherever_the_seed_stands(kagome, monkeypatch):
    # L-BFGS "finds" the twist at its own lam, so every seed is polished
    # down to zero; the trace must not depend on whether a seed follows the
    # zero seed, though every seed is polished
    twist = twist_mechanism(kagome, 0.5).deformation
    monkeypatch.setattr(cellsolver, "_twist_seed", lambda *args: (None, None))
    norms_seen = []     # per stage, the gradient norm of every row polished

    def polish_to_twist(fun, X0, maxiter, ftol, gtol):
        X = np.repeat(twist.psi.reshape(1, -1), len(X0), axis=0)
        G = fun(X, np.arange(len(X0)))[1]
        norms_seen.append([float(np.linalg.norm(g)) for g in G])
        return [(x, 1, 0, "converged", g) for x, g in zip(X, G)]

    monkeypatch.setattr(cellsolver, "_lbfgsb", polish_to_twist)
    traces = []
    for restarts in (0, 1):
        norms_seen.clear()
        est = estimate_density(kagome, twist.lam, 0.05, restarts=restarts)
        assert est.upper <= cellsolver._SHORT_TOL
        # one stack per stage, of every seed
        assert [len(stack) for stack in norms_seen] == [1 + restarts] * len(cellsolver._ANNEAL)
        trace = est.solver_trace
        assert trace["best_seed"] == "zero" and trace["short_circuit"]
        # the polish's own gradient norm, not a made-up zero
        assert trace["final_grad_norm"] == norms_seen[-1][0] > 0
        traces.append({key: v for key, v in trace.items() if key != "restarts"})
    assert traces[0] == traces[1]


def _polish_alone(spec, lam, eta, k=1, restarts=6, rng_seed=0):
    """``estimate_density`` as it was with each seed polished in turn, a
    stack of one at a time, and the seeds after a zero polish not
    polished: the reference of the stacked polish."""
    lam = np.asarray(lam, dtype=float).reshape(2, 2)
    cell = Supercell(spec, k)
    n = cell.n_nodes
    trouble = {"unconverged_stages": 0, "last_unconverged_message": None,
               "stalled_stages": 0, "twist_bracket_gap": None}
    fixed = [("zero", np.zeros((n, 2)))]
    tw, trouble["twist_bracket_gap"] = cellsolver._twist_seed(spec, lam)
    if tw is not None:
        fixed.append(("twist", np.repeat(tw, k * k, axis=0)))

    def random_seeds():
        rng = np.random.default_rng(rng_seed)
        for r in range(restarts):
            amp = 0.1 if r % 2 == 0 else 0.3
            yield f"random{r}", amp * rng.standard_normal((n, 2))

    def exact(psi):
        return energy_breakdown(PeriodicDeformation(cell, lam, psi), eta)

    best, seeds, starts = None, [], []
    for label, psi0 in chain(fixed, random_seeds()):
        seeds.append((label, psi0))
        starts.append(exact(psi0))
        if starts[-1].averaged <= cellsolver._SHORT_TOL:
            best = (starts[-1], label, psi0, 0.0)
            break
    total_iters = 0
    short_circuit = best is not None
    for (label, psi0), bd0 in ([] if short_circuit else zip(seeds, starts)):
        if best is None or bd0.averaged < best[0].averaged:
            best = (bd0, label, psi0, np.nan)
        x = psi0.ravel()
        for tau in cellsolver._ANNEAL:
            [(x, nit, status, message, g)] = cellsolver._lbfgsb(
                _kernel(cell, True, _smoothed(cell, eta, tau), lam=lam[None]), x[None],
                cellsolver._MAXITER, 1e-16, 1e-12)
            total_iters += nit
            if status == 1:
                trouble["unconverged_stages"] += 1
                trouble["last_unconverged_message"] = message
            elif status == 2:
                trouble["stalled_stages"] += 1
            grad_norm = float(np.linalg.norm(g))
        psi = x.reshape(n, 2)
        bd = exact(psi)
        if (bd.averaged, bd.spring_total) < (best[0].averaged, best[0].spring_total):
            best = (bd, label, psi, grad_norm)
        if best[0].averaged <= cellsolver._SHORT_TOL:
            short_circuit = True
            break
    bd, label, psi, grad_norm = best
    return cellsolver.DensityEstimate(
        upper=bd.averaged, upper_spring=bd.spring_total / bd.cell_area,
        upper_penalty=bd.penalty_total / bd.cell_area,
        minimizer=PeriodicDeformation(cell, lam, psi),
        solver_trace={"restarts": len(fixed) + restarts, "iterations": total_iters,
                      "final_grad_norm": grad_norm, "best_seed": label,
                      "short_circuit": short_circuit, **trouble})


def _same_estimate(got, want):
    """Every field of two density estimates, bit for bit (a NaN equal to a NaN)."""
    for name in ("upper", "upper_spring", "upper_penalty"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name
    assert got.minimizer.lam.tobytes() == want.minimizer.lam.tobytes()
    assert got.minimizer.psi.tobytes() == want.minimizer.psi.tobytes()
    assert got.minimizer.cell.k == want.minimizer.cell.k
    assert list(got.solver_trace) == list(want.solver_trace)
    for key, value in want.solver_trace.items():
        assert repr(got.solver_trace[key]) == repr(value), key


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_stacked_polish_equals_polishing_each_seed_alone(request, spec_name, k):
    # noniso rows 0, 3 and 12 and the det < 0 row 16, which has no twist seed
    spec = request.getfixturevalue(spec_name)
    grid = lambda_grid("noniso")
    assert np.linalg.det(grid[16]) < 0
    for row in (0, 3, 12, 16):
        _same_estimate(estimate_density(spec, grid[row], 0.05, k=k, rng_seed=row),
                       _polish_alone(spec, grid[row], 0.05, k=k, rng_seed=row))


@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_grid_solve_equals_each_gradient_alone(request, spec_name, monkeypatch):
    """Each solve of a grid on k = 1, 2, 3, its seeds polished in one stack
    per k beside those of the other gradients, equals ``estimate_density``
    on its gradient and k alone, field by field, trace included: noniso
    rows 0, 3 and 12 and the det < 0 row 16, with a reachable compression
    that screening short-circuits among them.  Cut into chunks of one
    solve, the grid keeps every bit."""
    spec = request.getfixturevalue(spec_name)
    grid = lambda_grid("noniso")
    lams = [grid[0], grid[3], 0.6 * _rot(0.9), grid[12], grid[16]]
    ks = [1, 2, 3]
    stacks = []     # the rows of every L-BFGS stage
    real = cellsolver._lbfgsb

    def counted(f, X0, *options):
        stacks.append(len(X0))
        return real(f, X0, *options)

    monkeypatch.setattr(cellsolver, "_lbfgsb", counted)
    stages = len(cellsolver._ANNEAL)
    alone, alone_stacks, grid_stacks = {}, [], []
    for k in ks:
        stacks.clear()
        for i, lam in enumerate(lams):
            alone[i, k] = estimate_density(spec, lam, 0.05, k=k, restarts=2, rng_seed=5)
        assert alone[2, k].solver_trace["short_circuit"]
        assert alone[2, k].solver_trace["iterations"] == 0
        assert len(stacks) // stages == 4       # the solves L-BFGS opened
        alone_stacks += stacks
        grid_stacks += [sum(stacks) // stages] * stages
    for chunk, want_stacks in ((cellsolver._POLISH_CHUNK, grid_stacks), (1, alone_stacks)):
        monkeypatch.setattr(cellsolver, "_POLISH_CHUNK", chunk)
        stacks.clear()
        with np.errstate(all="raise"):
            solves = cellsolver._estimate_densities(spec, lams, 0.05, ks, 2, 5)
        # one stack per k and stage of the seeds of every open solve, or of each alone
        assert stacks == want_stacks
        assert len(solves) == len(lams)
        for i, per_k in enumerate(solves):
            assert len(per_k) == len(ks)
            for k, got in zip(ks, per_k):
                _same_estimate(got, alone[i, k])


def test_grid_solve_inverts_each_twist_once(kagome, monkeypatch):
    # the twist seed does not depend on k: one inversion per gradient whose
    # mean stretch is in reach (diag(1.2, 0.8)'s is 1, the angle 0),
    # whatever the number of supercell sizes
    calls = []
    real = cellsolver._invert_contraction

    def counted(spec, c):
        calls.append(c)
        return real(spec, c)

    monkeypatch.setattr(cellsolver, "_invert_contraction", counted)
    lams = [0.6 * _rot(0.9), 0.8 * _rot(0.3), np.diag([1.2, 0.8])]
    solves = cellsolver._estimate_densities(kagome, lams, 0.05, [1, 2, 3], 1, 0)
    assert calls == pytest.approx([0.6, 0.8, 1.0], abs=1e-15)
    for per_k in solves[:2]:
        assert [est.solver_trace["best_seed"] for est in per_k] == ["twist"] * 3


def test_estimate_densities_of_no_gradient_solve_nothing(kagome):
    assert cellsolver._estimate_densities(kagome, [], 0.05, [2], 1, 0) == []


# ---------------------------------------------------------------------------
# twist inversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_invert_contraction_matches_scipy_brentq_on_the_contraction_tables(request, spec_name):
    # every bracket a dense contraction sweep inverts through, on the real
    # gap function: the compiled root is scipy.optimize.brentq's, bit for bit
    from scipy.optimize import brentq

    spec = request.getfixturevalue(spec_name)
    thetas, cs = _twist_contraction_table(spec)
    for c in np.linspace(cs.min(), 1.0, 200, endpoint=False):
        idx = int(np.searchsorted(cs[::-1], c))
        lo, hi = sorted([thetas[::-1][max(idx - 1, 0)], thetas[::-1][min(idx, len(thetas) - 1)]])

        def gap(th):
            sd = signed_svd(_twist_fields(spec, [th])[0][0])
            return 0.5 * (sd.sigma1 + sd.sigma2) - c

        want = brentq(gap, lo, hi, xtol=1e-14)
        theta, gap = _invert_contraction(spec, c)
        assert theta.hex() == want.hex(), c
        assert gap is None


def test_invert_contraction_raises_on_a_nan_gap(kagome, monkeypatch):
    # as scipy.optimize.brentq does: the compiled routine alone takes a NaN
    # end of the bracket for a sign change and returns a root
    thetas, cs = _twist_contraction_table(kagome)
    c, end = 0.5 * (cs[10] + cs[11]), max(thetas[10], thetas[11])
    real_fields = cellsolver._twist_fields

    def twist_fields(spec, angles):
        lams, psis = real_fields(spec, angles)
        return np.where(np.asarray(angles)[:, None, None] >= end, np.inf, lams), psis

    monkeypatch.setattr(cellsolver, "_twist_fields", twist_fields)
    # an infinite field has NaN stretches (and an invalid determinant)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="theta=.* is NaN"):
        _invert_contraction(kagome, c)


@pytest.mark.parametrize("spec_name", ["kagome", "rotating_squares"])
def test_invert_contraction_evaluates_each_twist_once(request, spec_name, monkeypatch):
    # the bracket ends are evaluated once, for the same-sign check, and
    # remembered for the root finder: every twist field is a new angle
    spec = request.getfixturevalue(spec_name)
    cs = _twist_contraction_table(spec)[1]
    fields = []
    real_fields = cellsolver._twist_fields

    def twist_fields(spec, thetas):
        fields.extend(thetas)
        return real_fields(spec, thetas)

    monkeypatch.setattr(cellsolver, "_twist_fields", twist_fields)
    for c in np.linspace(cs.min(), 1.0, 50, endpoint=False):
        fields.clear()
        _invert_contraction(spec, c)
        # the end of the table brackets with a single angle
        assert len(fields) >= (1 if c == cs.min() else 2)
        assert len(set(fields)) == len(fields)


# ---------------------------------------------------------------------------
# lambda grids
# ---------------------------------------------------------------------------


def test_lambda_grid_iso():
    grid = lambda_grid("iso")
    assert len(grid) == 80
    s1, s2, ds = principal_stretches(np.array(grid))
    assert np.max(s1 - s2) <= 1e-12
    assert np.max(s1) <= 1.0 + 1e-12
    assert np.min(s1) >= 0.3 - 1e-12
    assert np.all(ds == 1.0)


def test_lambda_grid_diag():
    grid = lambda_grid("diag")
    assert len(grid) == 36
    for m in grid:
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_lambda_grid_noniso():
    grid = lambda_grid("noniso")
    assert len(grid) == 20
    s1, s2, _ = principal_stretches(np.array(grid))
    assert np.all((s1 - s2 >= 0.1 - 1e-12) | (s1 >= 1.1 - 1e-12))


def test_lambda_grid_random():
    grid = lambda_grid("random:7", rng_seed=3)
    again = lambda_grid("random:7", rng_seed=3)
    assert len(grid) == 7
    assert all(np.array_equal(a, b) for a, b in zip(grid, again))

    with pytest.raises(ValueError):
        lambda_grid("no-such-grid")


# ---------------------------------------------------------------------------
# explicit-constant bounds
# ---------------------------------------------------------------------------


def test_orientation_threshold(kagome, rotating_squares):
    assert abs(orientation_threshold(kagome) - np.sqrt(3) / 4) <= 1e-15
    assert orientation_threshold(rotating_squares) == 0.5


def test_isotropic_bound_small(kagome):
    rep = verify_isotropic_bound(kagome, 0.05, [np.diag([1.2, 0.8]), np.diag([0.9, 0.7])])
    assert rep.holds
    assert rep.c_fit > 0
    assert rep.n_trials == 8              # 2 gradients x (minimizer + 3 random)
    assert np.all(rep.ratios >= rep.c_fit)


def test_isotropic_bound_eta_gate(kagome):
    c0 = orientation_threshold(kagome)
    with pytest.raises(ValueError):
        verify_isotropic_bound(kagome, c0 * 1.01, [np.diag([1.2, 0.8])])


def test_jensen_bounds_rotating_squares(rotating_squares):
    reports = verify_jensen_bounds(rotating_squares, n_trials=200, k_max=2)
    # diagonals are the markers: unit rests, axis aligned, third side not a rest
    assert sorted(reports) == ["diag-stretch", "two-direction", "weighted-rest"]
    for rep in reports.values():
        assert rep.holds, rep.name
        assert rep.n_trials == 200
    # exact equality of the diagonal-stretch bound at lam = diag(1.5, 1), psi = 0
    assert reports["diag-stretch"].equality_gap == 0.0


def test_jensen_bounds_kagome(kagome):
    reports = verify_jensen_bounds(kagome, n_trials=200, k_max=2)
    assert sorted(reports) == ["three-direction", "two-direction", "weighted-rest"]
    for rep in reports.values():
        assert rep.holds, rep.name


def test_jensen_bounds_unequal_rests_fall_back_to_weighted():
    spec = build_variant("isosceles-kagome", apex=1.2, size_ratio=0.8)
    reports = verify_jensen_bounds(spec, n_trials=100, k_max=2)
    assert sorted(reports) == ["weighted-rest"]
    assert reports["weighted-rest"].holds


@pytest.mark.parametrize("factor", [1.0, 1e-6, 1e-10])
def test_marker_frame_refuses_skew_b_vectors_at_any_scale(factor):
    # kagome with marker 1 moved to a 60-degree spring and its 120-degree
    # partner: the spec is valid, but its b is not along marker 0's
    data = json.loads(build_kagome().to_json())
    data["markers"][1].update(b=[[2, 0, -1], [1, 0, 0]], r=[[0, 0, 0], [1, 0, 0]])
    spec = LatticeSpec.from_json(scaled_json(LatticeSpec.from_json(json.dumps(data)), factor))
    with pytest.raises(ValueError, match="^marker b vectors do not share a direction$"):
        _marker_direction_frame(spec)
    with pytest.raises(ValueError, match="^marker b vectors do not share a direction$"):
        verify_jensen_bounds(spec, n_trials=1, k_max=1)


def test_diag_stretch_equality_witness(rotating_squares):
    cell = Supercell(rotating_squares, 1)
    slack = _jensen_slacks(cell, "diag-stretch", np.diag([1.5, 1.0])[None],
                           np.zeros((1, cell.n_nodes, 2)),
                           _marker_direction_frame(rotating_squares))
    # both sides of the bound equal (1.5 - 1)^2 = 0.25
    assert abs(slack[0]) <= 1e-12


# -- the per-trial Jensen evaluation that the stacked trials replaced -------


def _marker_edges(defm):
    """Deformed marker vectors ``(b, r)``, each ``(n_markers, k*k, 2)``."""
    cell, z = defm.cell, defm.psi.ravel()
    return (one_row_edge_vectors(defm.lam, z, *cell.marker_b),
            one_row_edge_vectors(defm.lam, z, *cell.marker_r))


def _ref_direction_slack(edges, stretches) -> float:
    lhs = float(sum(np.mean((np.linalg.norm(e, axis=2) - 1.0) ** 2) for e in edges))
    rhs = float(sum(_pos_sq(s - 1.0) for s in stretches))
    return lhs - rhs


def _ref_diag_stretch(defm) -> float:
    lam = defm.lam
    return _ref_direction_slack(_marker_edges(defm), (lam[0, 0], lam[1, 1]))


def _ref_three_direction(defm) -> float:
    eb, er = _marker_direction_frame(defm.spec)
    e3 = er - eb
    e3 = e3 / np.linalg.norm(e3)
    bs, rs = _marker_edges(defm)
    return _ref_direction_slack((bs, rs, rs - bs),
                                [np.linalg.norm(defm.lam @ e) for e in (eb, er, e3)])


def _ref_two_direction(defm) -> float:
    eb, er = _marker_direction_frame(defm.spec)
    return _ref_direction_slack(_marker_edges(defm),
                                [np.linalg.norm(defm.lam @ e) for e in (eb, er)])


def _ref_weighted_rest(defm) -> float:
    spec = defm.spec
    eb, er = _marker_direction_frame(spec)
    cell, lam = defm.cell, defm.lam
    slacks = []
    for edges, spring, e in ((cell.marker_b, cell.marker_b_spring, eb),
                             (cell.marker_r, cell.marker_r_spring, er)):
        rest = cell.spring_rest[spring]
        stiffness = cell.spring_stiffness[spring]
        lengths = np.linalg.norm(one_row_edge_vectors(lam, defm.psi.ravel(), *edges), axis=2)
        energies = stiffness[:, None] * (lengths - rest[:, None]) ** 2
        M = float(np.min(stiffness * rest))
        l_avg = float(np.mean(rest))
        avg_energy = float(np.mean(energies))
        lhs = _pos_sq(float(np.linalg.norm(lam @ e)) - 1.0)
        slacks.append(avg_energy / (M * l_avg) - lhs)
    return float(min(slacks))


def _ref_trials(spec, n_trials, k_max, rng_seed):
    """Every trial slack and the reports ``{name: (min_slack hex, n_trials,
    equality_gap hex)}`` of ``verify_jensen_bounds`` as it was when each
    trial was one call per bound."""
    rng = np.random.default_rng(rng_seed)
    eb, er = _marker_direction_frame(spec)
    legs = spec.segments(spec.marker_keys)
    unit_rests = bool((abs(norms(legs) - 1.0) < 1e-12).all())
    unit_third_side = unit_rests and bool(
        (abs(norms(legs[:, 1] - legs[:, 0]) - 1.0) < 1e-12).all())
    axis_aligned = (abs(eb @ np.array([0.0, 1.0])) < 1e-12
                    and abs(er @ np.array([1.0, 0.0])) < 1e-12)
    checks = {"weighted-rest": _ref_weighted_rest}
    if unit_rests:
        checks["two-direction"] = _ref_two_direction
    if unit_third_side:
        checks["three-direction"] = _ref_three_direction
    if unit_rests and axis_aligned:
        checks["diag-stretch"] = _ref_diag_stretch

    cells = {k: Supercell(spec, k) for k in range(1, k_max + 1)}
    slacks = {name: [] for name in checks}
    for _ in range(n_trials):
        k = int(rng.integers(1, k_max + 1))
        cell = cells[k]
        psi = 0.4 * rng.standard_normal((cell.n_nodes, 2))
        for name, fn in checks.items():
            if name == "diag-stretch":
                lam = np.diag(rng.uniform(0.0, 2.0, size=2))
            else:
                lam = np.eye(2) + 0.6 * rng.standard_normal((2, 2))
            defm = PeriodicDeformation(cell, lam, psi)
            slacks[name].append(fn(defm))
    reports = {name: [float(np.min(vals)).hex(), len(vals), None]
               for name, vals in slacks.items()}
    if "diag-stretch" in reports:
        cell = cells[1]
        defm = PeriodicDeformation(cell, np.diag([1.5, 1.0]), np.zeros((cell.n_nodes, 2)))
        reports["diag-stretch"][2] = abs(_ref_diag_stretch(defm)).hex()
    return slacks, reports


def _assert_jensen_matches_reference(spec, n_trials, k_max, seed) -> int:
    """Compare every trial slack and every report with the per-trial
    reference, bit for bit; return the number of chunks."""
    ref_slacks, ref_reports = _ref_trials(spec, n_trials, k_max, seed)
    chunks = list(_jensen_trials(spec, n_trials, k_max, seed))
    assert [list(c) for c in chunks] == [list(ref_slacks)] * len(chunks)
    for name, ref in ref_slacks.items():
        got = np.concatenate([c[name] for c in chunks])
        assert [float(v).hex() for v in got] == [v.hex() for v in ref], name
    reports = verify_jensen_bounds(spec, n_trials=n_trials, k_max=k_max, rng_seed=seed)
    assert {name: [rep.min_slack.hex(), rep.n_trials,
                   None if rep.equality_gap is None else rep.equality_gap.hex()]
            for name, rep in reports.items()} == ref_reports
    return len(chunks)


# kagome, rotating squares and the four variants at their defaults and at
# the ``all_specs`` parameters (unequal rests: the weighted-rest bound only)
_JENSEN_SPECS = {
    "kagome": build_kagome,
    "rotating-squares": build_rotating_squares,
    **{kind: (lambda kind=kind: build_variant(kind)) for kind in sorted(VARIANT_KINDS)},
    "isosceles-kagome-1.2-0.8":
        lambda: build_variant("isosceles-kagome", apex=1.2, size_ratio=0.8),
    "general-kagome-1.1-0.75":
        lambda: build_variant("general-kagome", alpha=1.1, leg_ratio=0.75),
    "rhombus-squares-1.3-0.6":
        lambda: build_variant("rhombus-squares", angle=1.3, size_ratio=0.6),
    "quad-squares-1.2-0.4-0.6":
        lambda: build_variant("quad-squares", alpha=1.2, s=0.4, q=0.6),
}


@pytest.mark.parametrize("k_max, seed, n_trials",
                         [(1, 0, 1), (1, 3, 25), (2, 1, 25), (3, 0, 25), (4, 2, 25), (4, 5, 1)])
@pytest.mark.parametrize("spec", sorted(_JENSEN_SPECS))
def test_jensen_trials_match_per_trial_reference_bit_for_bit(spec, k_max, seed, n_trials):
    assert _assert_jensen_matches_reference(_JENSEN_SPECS[spec](), n_trials, k_max, seed) == 1


def test_jensen_trials_one_chunk_plus_one_bit_for_bit(rotating_squares):
    # at k_max = 1 every trial holds n_basic node slots
    n = -(-cellsolver._JENSEN_CHUNK // rotating_squares.n_basic) + 1
    assert _assert_jensen_matches_reference(rotating_squares, n, 1, 4) == 2


def test_jensen_trials_many_chunks_bit_for_bit(kagome, monkeypatch):
    monkeypatch.setattr(cellsolver, "_JENSEN_CHUNK", 40)
    assert _assert_jensen_matches_reference(kagome, 60, 4, 2) > 10


def test_jensen_trials_build_only_the_drawn_sizes(rotating_squares, monkeypatch):
    built = []

    def spy(spec, k):
        built.append(k)
        return Supercell(spec, k)

    monkeypatch.setattr(cellsolver, "Supercell", spy)
    verify_jensen_bounds(rotating_squares, n_trials=1, k_max=90)
    # the size seed 0 draws for the one trial, then the k = 1 equality
    # witness of diag-stretch
    assert built == [int(np.random.default_rng(0).integers(1, 91)), 1]


def test_stacked_stretch_terms_have_the_scalar_bits(kagome, rotating_squares):
    """The Jensen kernel forms ``(|lam e| - 1)_+^2`` on arrays; every
    entry must have the bits of the scalar ``_pos_sq(norm(lam @ e) - 1)``."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 3.0, 200_000)
    want = np.array([_pos_sq(v) for v in x])
    assert np.array_equal(_pos_sq_pow(x), want)
    # the array square is what the scalar power is not
    assert not np.array_equal(_pos_sq(x), want)
    lam = np.eye(2) + 0.6 * rng.standard_normal((20_000, 2, 2))
    dirs = [*_marker_direction_frame(kagome), *_marker_direction_frame(rotating_squares)]
    stacked = norms(np.matmul(lam[:, None], np.array(dirs)[None, :, :, None])[..., 0])
    scalar = [[np.linalg.norm(m @ e) for e in dirs] for m in lam]
    assert np.array_equal(stacked, scalar)


def _old_diag_stretch_slacks(cell, lam, psi):
    """``_jensen_slacks(cell, "diag-stretch", lam, psi, frame)`` as it was
    formed before that family read the shared stretch terms: the diagonal
    of ``lam`` for ``|lam e|``, and builtin sums."""
    T = len(lam)
    z = psi.reshape(T, -1)
    edges = [edge_vectors(z, e.tail, e.head, lam_times(lam, e.dx))
             for e in (cell.marker_b, cell.marker_r)]
    lhs = sum(((np.linalg.norm(e, axis=-1) - 1.0) ** 2).reshape(T, -1).mean(axis=1)
              for e in edges)
    return lhs - sum(_pos_sq_pow(np.diagonal(lam, axis1=1, axis2=2) - 1.0).T)


def test_diag_stretch_has_the_bits_of_the_diagonal_formula():
    # every spec whose Jensen check runs the diag-stretch family
    specs = [name for name, build in sorted(_JENSEN_SPECS.items())
             if "diag-stretch" in verify_jensen_bounds(build(), n_trials=1, k_max=1)]
    assert "rotating-squares" in specs
    rng = np.random.default_rng(8)
    for name in specs:
        spec = _JENSEN_SPECS[name]()
        frame = _marker_direction_frame(spec)
        for k in (1, 2, 3):
            cell = Supercell(spec, k)
            lam = np.zeros((400, 2, 2))
            lam[:, 0, 0], lam[:, 1, 1] = rng.uniform(0.0, 2.0, size=(2, 400))
            psi = 0.4 * rng.standard_normal((400, cell.n_nodes, 2))
            assert _jensen_slacks(cell, "diag-stretch", lam, psi, frame).tobytes() == \
                _old_diag_stretch_slacks(cell, lam, psi).tobytes(), (name, k)
        # the equality witness
        cell = Supercell(spec, 1)
        lam, psi = np.diag([1.5, 1.0])[None], np.zeros((1, cell.n_nodes, 2))
        assert _jensen_slacks(cell, "diag-stretch", lam, psi, frame).tobytes() == \
            _old_diag_stretch_slacks(cell, lam, psi).tobytes(), name


# ---------------------------------------------------------------------------
# eta-independence of the bracket constant
# ---------------------------------------------------------------------------


def test_sandwich_report_small(kagome):
    rep = sandwich_report(
        kagome, [np.diag([1.2, 0.8]), np.diag([1.35, 0.75])],
        eta=0.1, k_list=(1,), restarts=2,
    )
    assert rep.c_fit > 0
    assert rep.c_fit_alt > 0
    assert 1.0 <= rep.stability <= 2.0
    assert len(rep.ratios) == 2
    with pytest.raises(ValueError, match="k_list"):
        sandwich_report(kagome, [np.diag([1.2, 0.8])], k_list=())
