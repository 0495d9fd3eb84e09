"""Cell-problem solver: upper bounds on the effective energy density.

``estimate_density`` minimizes the averaged supercell energy over the
periodic perturbation ``psi`` at fixed macroscopic gradient ``lam``,
annealing a sigmoid-smoothed orientation penalty and always reporting the
exact step-penalty value of the final iterate (any feasible field is a
valid upper bound, so poor convergence can never overstate softness).

The verification helpers compare those estimates against the stretch
bracket (the shape the density is bounded below by, up to a constant
that is not known, so not itself a lower bound), the isotropy bound,
and the four explicit-constant Jensen bounds that follow from the
averaged-vector identity (one per marker direction family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .energy import _check_eta, energy_breakdown, smoothed_energy_grad
from .geometry import _SLACK_TOL, _pos_sq, lower_bracket, signed_svd
from .lattice import (DegenerateGeometryError, LatticeSpec, PeriodicDeformation, Supercell,
                      cross2, edge_vectors, norms, rotation)
from .mechanisms import MechanismError, _twist_contraction_table, _twist_field

__all__ = [
    "DensityEstimate",
    "estimate_density",
    "lambda_grid",
    "orientation_threshold",
    "IsotropicBoundReport",
    "verify_isotropic_bound",
    "JensenBoundReport",
    "verify_jensen_bounds",
    "SandwichReport",
    "sandwich_report",
]

_ANNEAL = (0.05, 0.02, 0.008, 0.003)
_SHORT_TOL = 1e-13      # an exact energy density at or below this is a zero


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


@dataclass
class DensityEstimate:
    """An upper bound on the effective energy density at one ``lam``."""

    lam: np.ndarray
    eta: float
    k: int
    upper: float                  # best exact averaged energy found
    upper_spring: float           # spring part of upper (same normalization)
    upper_penalty: float          # step-penalty part of upper
    minimizer: PeriodicDeformation
    lower_bracket: float          # stretch bracket with unit constant
    solver_trace: dict = field(default_factory=dict)


def _invert_contraction(spec: LatticeSpec, c: float,
                        trace: Optional[dict] = None) -> float:
    """The twist angle whose contraction equals ``c``, to root-finder
    precision (``c`` is clipped into the reachable interval).

    When the tabulated bracket does not change sign, the nearer end is
    returned and its residual contraction gap is recorded in ``trace``
    under ``twist_bracket_gap``."""
    thetas, cs = _twist_contraction_table(spec)
    c = float(np.clip(c, cs.min(), 1.0))
    if c >= 1.0:
        return 0.0
    idx = int(np.searchsorted(cs[::-1], c))
    lo = thetas[::-1][max(idx - 1, 0)]
    hi = thetas[::-1][min(idx, len(thetas) - 1)]
    if lo > hi:
        lo, hi = hi, lo

    def gap(th):
        sd = signed_svd(_twist_field(spec, th)[0])
        return 0.5 * (sd.sigma1 + sd.sigma2) - c

    # at the end of the table (c clipped to its minimum) both ends are one angle
    gap_lo = gap(lo)
    gap_hi = gap(hi) if hi != lo else gap_lo
    if gap_lo * gap_hi > 0:
        theta, residual = (lo, gap_lo) if abs(gap_lo) < abs(gap_hi) else (hi, gap_hi)
        if trace is not None:
            trace["twist_bracket_gap"] = float(residual)
        return theta
    return _brentq(gap, lo, gap_lo, hi, gap_hi, xtol=1e-14)


def _brentq(f, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """A root of ``f`` in the bracket ``[a, b]`` by Brent's method, given
    the end values ``fa = f(a)`` and ``fb = f(b)``.

    Repeats scipy's C ``brentq`` step for step (inverse quadratic
    extrapolation, secant interpolation or bisection, by the same rules;
    relative tolerance ``4 eps`` and at most 100 iterations), so the root
    agrees with ``scipy.optimize.brentq(f, a, b, xtol=xtol)`` bit for bit.
    Raises ``ValueError`` when a value of ``f`` is NaN or ``fa`` and ``fb``
    share a sign, and ``RuntimeError`` when it does not converge.
    """
    rtol = 4 * math.ulp(1.0)     # 4 eps, as float (not a numpy scalar)

    def value(x, fx):
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:   # C divides to inf or NaN: both bisect
                    stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry     # a good short step
                bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur, f(xcur))
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur!r}")


def _twist_seed(spec: LatticeSpec, lam: np.ndarray, k: int,
                trace: Optional[dict] = None) -> Optional[PeriodicDeformation]:
    """The twist field whose contraction matches ``lam``, rotated so its
    affine part aligns with the polar rotation of ``lam``.  Returns
    ``None`` when ``lam`` is nowhere near a reachable isotropic
    compression.  ``trace`` receives a failed inversion bracket (see
    :func:`_invert_contraction`)."""
    sd = signed_svd(lam)
    if sd.det_sign <= 0:
        return None
    c = 0.5 * (sd.sigma1 + sd.sigma2)
    try:
        thetas, cs = _twist_contraction_table(spec)
    except (MechanismError, DegenerateGeometryError):   # no twist: the seed is optional
        return None
    if not cs.min() - 0.05 <= c <= 1.0 + 1e-9:
        return None
    tlam, psi = _twist_field(spec, _invert_contraction(spec, c, trace))
    if abs(np.linalg.det(tlam)) < 1e-12:
        return None
    # project the alignment onto a rotation so the seed stays energy-free
    u, _, vt = np.linalg.svd(lam @ np.linalg.inv(tlam))
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        rot = u @ np.diag([1.0, -1.0]) @ vt
    seeded = PeriodicDeformation(Supercell(spec, 1), tlam, psi).rotate(rot)
    if k > 1:
        seeded = seeded.tile(k)
    return seeded


def estimate_density(
    spec: LatticeSpec,
    lam,
    eta: float,
    k: int = 1,
    restarts: int = 6,
    rng_seed: int = 0,
    anneal: Sequence[float] = _ANNEAL,
    maxiter: int = 300,
) -> DensityEstimate:
    """Upper-bound the effective energy density at fixed ``lam``.

    Seeds: ``psi = 0``, the aligned twist field when ``lam`` is close to a
    reachable isotropic compression, and ``restarts`` random fields.  The
    exact energy of every seed is screened first: the first seed at or
    below 1e-13 short-circuits, with no L-BFGS run (and scipy
    never imported).  Otherwise each seed is polished in turn through the
    smoothing anneal; the reported value is always the exact step-penalty
    energy of the best iterate.
    ``solver_trace`` counts the L-BFGS stages that hit the iteration or
    evaluation limit (``unconverged_stages``), keeps the last such
    termination message (``last_unconverged_message``), counts the
    stages whose line search stalled (``stalled_stages``; typically at
    the floating-point floor of the smoothed energy), and holds the
    residual contraction gap of the twist seed when its inversion
    bracket failed (``twist_bracket_gap``; ``None`` otherwise).
    """
    _check_eta(eta)
    if k < 1:
        raise ValueError(f"supercell size must be >= 1, got {k}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    lam = np.asarray(lam, dtype=float).reshape(2, 2)
    cell = Supercell(spec, k)
    n = cell.n_nodes
    rng = np.random.default_rng(rng_seed)

    trouble = {"unconverged_stages": 0, "last_unconverged_message": None,
               "stalled_stages": 0, "twist_bracket_gap": None}
    seeds = [("zero", np.zeros((n, 2)))]
    tw = _twist_seed(spec, lam, k, trouble)
    if tw is not None:
        seeds.append(("twist", tw.psi.copy()))
    for r in range(restarts):
        amp = 0.1 if r % 2 == 0 else 0.3
        seeds.append((f"random{r}", amp * rng.standard_normal((n, 2))))

    def exact(psi):
        return energy_breakdown(PeriodicDeformation(cell, lam, psi), eta)

    best = None  # (breakdown, label, psi, final gradient norm)
    starts = []  # exact energy of each seed, screened before any polishing
    for label, psi0 in seeds:
        starts.append(exact(psi0))
        if starts[-1].averaged <= _SHORT_TOL:
            best = (starts[-1], label, psi0, 0.0)
            break
    total_iters = 0
    short_circuit = best is not None
    polish = [] if short_circuit else list(zip(seeds, starts))
    if polish:
        from scipy.optimize import minimize
    for (label, psi0), bd0 in polish:
        if best is None or bd0.averaged < best[0].averaged:
            best = (bd0, label, psi0, np.nan)
        if best[0].averaged <= _SHORT_TOL:    # an earlier seed was polished down to zero
            short_circuit = True
            best = best[:3] + (0.0,)
            break

        x = psi0.ravel().copy()
        grad_norm = np.nan
        for tau in anneal:
            def fun(xv):
                E, _, gpsi = smoothed_energy_grad(
                    cell, lam, xv.reshape(n, 2), eta, tau)
                return E, gpsi.ravel()

            res = minimize(fun, x, jac=True, method="L-BFGS-B",
                           options={"maxiter": maxiter, "ftol": 1e-16,
                                    "gtol": 1e-12})
            x = res.x
            total_iters += int(res.nit)
            if res.status == 1:         # iteration or evaluation limit
                trouble["unconverged_stages"] += 1
                trouble["last_unconverged_message"] = str(res.message)
            elif res.status == 2:       # abnormal line-search termination
                trouble["stalled_stages"] += 1
            grad_norm = float(np.linalg.norm(res.jac))
        psi = x.reshape(n, 2)
        bd = exact(psi)
        if (bd.averaged, bd.spring_total) < (best[0].averaged, best[0].spring_total):
            best = (bd, label, psi.copy(), grad_norm)

    bd, label, psi, grad_norm = best
    return DensityEstimate(
        lam=lam, eta=eta, k=k,
        upper=bd.averaged,
        upper_spring=bd.spring_total / bd.cell_area,
        upper_penalty=bd.penalty_total / bd.cell_area,
        minimizer=PeriodicDeformation(cell, lam, psi),
        lower_bracket=lower_bracket(lam),
        solver_trace={"restarts": len(seeds), "iterations": total_iters,
                      "final_grad_norm": grad_norm, "best_seed": label,
                      "short_circuit": short_circuit, **trouble},
    )


# ---------------------------------------------------------------------------
# lambda grids
# ---------------------------------------------------------------------------


def lambda_grid(kind: str, rng_seed: int = 0):
    """Named grids of macroscopic gradients for sweeps.

    ``iso``: 10 x 8 isotropic compressions ``c R_phi`` with c in [0.3, 1];
    ``diag``: 6 x 6 diagonal matrices with entries in [0.5, 1.5];
    ``noniso``: 20 deterministic matrices with ``sigma1 - sigma2 >= 0.1``
    or ``sigma1 >= 1.1``; ``random:N``: seeded Gaussian matrices;
    ``file:PATH``: a JSON list of 2x2 rows.
    """
    if kind == "iso":
        return [float(c) * rotation(phi)
                for c in np.linspace(0.3, 1.0, 10)
                for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)]
    if kind == "diag":
        return [np.diag([float(a), float(b)])
                for a in np.linspace(0.5, 1.5, 6)
                for b in np.linspace(0.5, 1.5, 6)]
    if kind == "noniso":
        mats = []
        for a, b in [(1.2, 0.8), (1.1, 0.95), (1.3, 1.0), (0.9, 0.7),
                     (1.0, 0.85), (1.5, 1.2), (0.8, 0.6), (1.15, 1.0)]:
            mats.append(np.diag([a, b]))
        for c in (1.1, 1.2, 1.4):
            mats.append(c * rotation(0.4))
        for g in (0.25, 0.4, 0.6):
            mats.append(np.array([[1.0, g], [0.0, 1.0]]))
        mats.append(rotation(0.3) @ np.diag([1.25, 0.9]) @ rotation(-0.7))
        mats.append(rotation(-0.2) @ np.diag([1.0, 0.8]) @ rotation(0.5))
        mats.append(np.diag([1.1, -0.8]))
        mats.append(np.array([[0.9, 0.3], [-0.2, 0.7]]))
        mats.append(np.diag([2.0, 2.0]))
        mats.append(np.diag([1.35, 0.75]))
        return mats
    if kind.startswith("random:"):
        try:
            n = int(kind.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"random grid needs an integer count, got {kind!r}") from None
        if n < 1:
            raise ValueError(f"random grid needs at least 1 matrix, got {kind!r}")
        rng = np.random.default_rng(rng_seed)
        return [np.eye(2) + 0.5 * rng.standard_normal((2, 2)) for _ in range(n)]
    if kind.startswith("file:"):
        import json

        path = kind.split(":", 1)[1]
        with open(path) as fh:
            rows = json.load(fh)
        if not isinstance(rows, list):
            raise ValueError(f"grid file {path} must hold a JSON list of 2x2 matrices, "
                             f"got {type(rows).__name__}")
        if not rows:
            raise ValueError(f"grid file {path} holds an empty list")
        mats = []
        for i, m in enumerate(rows):
            try:
                mat = np.asarray(m, dtype=float)
            except (TypeError, ValueError):
                mat = None
            if mat is None or mat.shape != (2, 2):
                raise ValueError(f"grid file {path}: entry {i} is not a 2x2 matrix")
            if not np.isfinite(mat).all():
                raise ValueError(f"grid file {path}: entry {i} is not finite: {m!r}")
            mats.append(mat)
        return mats
    raise ValueError(f"unknown lambda grid {kind!r}")


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------


def orientation_threshold(spec: LatticeSpec) -> float:
    """The penalty-strength threshold ``c0`` below which the isotropy
    bound applies: the smallest penalized-triangle area."""
    return float(spec.penalized_area.min())


@dataclass
class IsotropicBoundReport:
    eta: float
    c0: float
    ratios: np.ndarray            # averaged energy / (sigma1 - sigma2)^2
    c_fit: float
    n_trials: int

    @property
    def holds(self) -> bool:
        return self.n_trials > 0 and self.c_fit > 0


def verify_isotropic_bound(
    spec: LatticeSpec,
    eta: float,
    lams: Iterable,
    k: int = 1,
    restarts: int = 3,
    n_random: int = 3,
    rng_seed: int = 0,
) -> IsotropicBoundReport:
    """Check the anisotropy lower bound: averaged energy over
    ``(sigma1 - sigma2)^2`` stays above a positive constant.

    Trials per ``lam``: the density-solver minimizer (the hardest field)
    plus ``n_random`` random perturbations.  Requires ``eta`` at most the
    orientation threshold ``c0`` of the spec.
    """
    _check_eta(eta)
    c0 = orientation_threshold(spec)
    if eta > c0:
        raise ValueError(
            f"isotropy bound needs eta <= c0 = {c0:g}, got {eta:g}"
        )
    rng = np.random.default_rng(rng_seed)
    cell = Supercell(spec, k)
    ratios = []
    for lam in lams:
        lam = np.asarray(lam, dtype=float).reshape(2, 2)
        sd = signed_svd(lam)
        gap = (sd.sigma1 - sd.sigma2) ** 2
        if gap < 1e-10:
            continue
        est = estimate_density(spec, lam, eta, k=k, restarts=restarts,
                               rng_seed=rng_seed)
        fields = [est.minimizer.psi]
        fields += [0.2 * rng.standard_normal((cell.n_nodes, 2))
                   for _ in range(n_random)]
        for psi in fields:
            e = energy_breakdown(PeriodicDeformation(cell, lam, psi), eta).averaged
            ratios.append(e / gap)
    ratios = np.asarray(ratios)
    c_fit = float(ratios.min()) if ratios.size else np.nan
    return IsotropicBoundReport(eta=eta, c0=c0, ratios=ratios,
                                c_fit=c_fit, n_trials=int(ratios.size))


# -- Jensen bounds ----------------------------------------------------------


def _marker_arrays(defm: PeriodicDeformation):
    """Deformed marker vectors, stacked ``(n_markers, k*k, 2)``."""
    cell = defm.cell
    return (edge_vectors(defm.lam, defm.psi, *cell.marker_b),
            edge_vectors(defm.lam, defm.psi, *cell.marker_r))


def _marker_direction_frame(spec: LatticeSpec):
    """Unit vectors of the marker direction families ``(e_b, e_r)``; every
    marker's ``b`` (resp. ``r``) must be a positive multiple of the shared
    direction."""
    legs = spec.segments(spec.marker_keys)
    b0, r0 = legs[0]
    eb = b0 / np.linalg.norm(b0)
    er = r0 / np.linalg.norm(r0)
    for b, r in legs:
        if abs(float(cross2(eb, b))) > 1e-9 or float(eb @ b) <= 0:
            raise ValueError("marker b vectors do not share a direction")
        if abs(float(cross2(er, r))) > 1e-9 or float(er @ r) <= 0:
            raise ValueError("marker r vectors do not share a direction")
    return eb, er


@dataclass
class JensenBoundReport:
    """Worst slack per explicit-constant bound (nonnegative = holds)."""

    name: str
    min_slack: float
    n_trials: int
    equality_gap: Optional[float] = None

    @property
    def holds(self) -> bool:
        return self.min_slack >= -_SLACK_TOL


def _direction_slack(edges, stretches) -> float:
    """Slack of a unit-rest Jensen bound: the marker averages of
    ``(|e~| - 1)^2`` summed over the deformed edge arrays ``edges``, minus
    ``(s - 1)_+^2`` summed over the macroscopic ``stretches`` ``|lam e|``
    of their unit directions."""
    lhs = float(sum(np.mean((np.linalg.norm(e, axis=2) - 1.0) ** 2) for e in edges))
    rhs = float(sum(_pos_sq(s - 1.0) for s in stretches))
    return lhs - rhs


def jensen_diag_stretch(defm: PeriodicDeformation) -> float:
    """Slack of the diagonal-stretch bound: marker-averaged
    ``(|b~|-1)^2 + (|r~|-1)^2`` minus ``(lam1-1)_+^2 + (lam2-1)_+^2``,
    for diagonal ``lam`` with nonnegative entries (unit rest lengths)."""
    lam = defm.lam
    if abs(lam[0, 1]) > 1e-12 or abs(lam[1, 0]) > 1e-12:
        raise ValueError("diagonal-stretch bound needs a diagonal lam")
    if lam[0, 0] < 0 or lam[1, 1] < 0:
        raise ValueError("diagonal-stretch bound needs nonnegative entries")
    return _direction_slack(_marker_arrays(defm), (lam[0, 0], lam[1, 1]))


def jensen_three_direction(defm: PeriodicDeformation) -> float:
    """Slack of the three-direction bound: marker-triangle spring energy
    average minus the sum of ``(|lam e_i| - 1)_+^2`` over the three unit
    lattice directions (b, r, and their difference)."""
    eb, er = _marker_direction_frame(defm.spec)
    e3 = er - eb
    e3 = e3 / np.linalg.norm(e3)
    bs, rs = _marker_arrays(defm)
    return _direction_slack((bs, rs, rs - bs),
                            [np.linalg.norm(defm.lam @ e) for e in (eb, er, e3)])


def jensen_two_direction(defm: PeriodicDeformation) -> float:
    """Slack of the two-direction bound: marker-averaged
    ``(|b~|-1)^2 + (|r~|-1)^2`` minus
    ``(|lam e_b|-1)_+^2 + (|lam e_r|-1)_+^2``."""
    eb, er = _marker_direction_frame(defm.spec)
    return _direction_slack(_marker_arrays(defm),
                            [np.linalg.norm(defm.lam @ e) for e in (eb, er)])


def jensen_weighted_rest(defm: PeriodicDeformation) -> float:
    """Slack of the rest-length-weighted compression bound for lattices
    whose marker springs have unequal rest lengths.

    With ``M = min stiffness * rest`` over the marker springs of one
    family and ``l_avg`` their mean rest length,

        (|lam e| - 1)_+^2 <= (1 / (M l_avg)) * averaged spring energy

    holds per family; the returned slack is the minimum over the b and r
    families of RHS - LHS.
    """
    spec = defm.spec
    eb, er = _marker_direction_frame(spec)
    cell, lam = defm.cell, defm.lam
    slacks = []
    for edges, spring, e in ((cell.marker_b, cell.marker_b_spring, eb),
                             (cell.marker_r, cell.marker_r_spring, er)):
        rest = cell.spring_rest[spring]
        stiffness = cell.spring_stiffness[spring]
        lengths = np.linalg.norm(edge_vectors(lam, defm.psi, *edges), axis=2)
        energies = stiffness[:, None] * (lengths - rest[:, None]) ** 2
        M = float(np.min(stiffness * rest))
        l_avg = float(np.mean(rest))
        avg_energy = float(np.mean(energies))
        lhs = _pos_sq(float(np.linalg.norm(lam @ e)) - 1.0)
        slacks.append(avg_energy / (M * l_avg) - lhs)
    return float(min(slacks))


def verify_jensen_bounds(
    spec: LatticeSpec,
    n_trials: int = 1000,
    k_max: int = 3,
    rng_seed: int = 0,
) -> dict:
    """Run every applicable explicit-constant bound on random trials.

    Returns ``{name: JensenBoundReport}``.  The diagonal-stretch bound is
    checked only when the marker families are perpendicular with unit rest
    lengths (it needs diagonal ``lam``); the weighted-rest bound is always
    applicable and reduces to the two-direction bound at equal rests.
    """
    if n_trials < 1 or k_max < 1:
        raise ValueError(f"trials and k_max must be >= 1, got {n_trials} and {k_max}")
    rng = np.random.default_rng(rng_seed)
    eb, er = _marker_direction_frame(spec)
    legs = spec.segments(spec.marker_keys)
    unit_rests = bool((abs(norms(legs) - 1.0) < 1e-12).all())
    unit_third_side = unit_rests and bool(
        (abs(norms(legs[:, 1] - legs[:, 0]) - 1.0) < 1e-12).all())
    axis_aligned = (abs(eb @ np.array([0.0, 1.0])) < 1e-12
                    and abs(er @ np.array([1.0, 0.0])) < 1e-12)
    # the unweighted bounds silently assume unit rest lengths; the
    # weighted-rest form is the general statement and always applies
    checks = {"weighted-rest": jensen_weighted_rest}
    if unit_rests:
        checks["two-direction"] = jensen_two_direction
    if unit_third_side:
        checks["three-direction"] = jensen_three_direction
    if unit_rests and axis_aligned:
        checks["diag-stretch"] = jensen_diag_stretch

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

    out = {}
    for name, vals in slacks.items():
        report = JensenBoundReport(name=name,
                                   min_slack=float(np.min(vals)),
                                   n_trials=len(vals))
        out[name] = report
    if "diag-stretch" in out:
        cell = cells[1]
        defm = PeriodicDeformation(cell, np.diag([1.5, 1.0]),
                                   np.zeros((cell.n_nodes, 2)))
        out["diag-stretch"].equality_gap = abs(jensen_diag_stretch(defm))
    return out


# -- sandwich ---------------------------------------------------------------


@dataclass
class SandwichReport:
    eta: float
    eta_alt: float
    ratios: np.ndarray
    ratios_alt: np.ndarray
    c_fit: float
    c_fit_alt: float

    @property
    def stability(self) -> float:
        hi = max(self.c_fit, self.c_fit_alt)
        lo = min(self.c_fit, self.c_fit_alt)
        return hi / lo if lo > 0 else np.inf


def sandwich_report(
    spec: LatticeSpec,
    lams: Iterable,
    eta: float = 0.05,
    k_list: Sequence[int] = (1, 2),
    restarts: int = 4,
    eta_factor: float = 0.5,
) -> SandwichReport:
    """Fit ``c = min upper / lower_bracket`` over non-isotropic gradients
    at ``eta`` and at ``eta * eta_factor``; the two fits should agree to a
    modest factor if the bracket constant really is ``eta``-independent."""
    lams = [np.asarray(m, dtype=float).reshape(2, 2) for m in lams]

    def fit(eta_val):
        ratios = []
        for lam in lams:
            br = lower_bracket(lam)
            if br < 1e-12:
                continue
            upper = min(
                estimate_density(spec, lam, eta_val, k=k, restarts=restarts).upper
                for k in k_list
            )
            ratios.append(upper / br)
        return np.asarray(ratios)

    ratios = fit(eta)
    ratios_alt = fit(eta * eta_factor)
    return SandwichReport(
        eta=eta, eta_alt=eta * eta_factor,
        ratios=ratios, ratios_alt=ratios_alt,
        c_fit=float(ratios.min()) if ratios.size else np.nan,
        c_fit_alt=float(ratios_alt.min()) if ratios_alt.size else np.nan,
    )
