"""Cell-problem solver: upper bounds on the effective energy density.

``estimate_density`` minimizes the averaged supercell energy over the
periodic perturbation ``psi`` at fixed macroscopic gradient ``lam``,
annealing a sigmoid-smoothed orientation penalty and always reporting the
exact step-penalty value of the final iterate (any feasible field is a
valid upper bound, so poor convergence can never overstate softness).
``_estimate_densities`` solves a grid of gradients on a list of supercell
sizes: each gradient's twist seed is found once, and at each size every
seed of every gradient goes through one L-BFGS stack, with the bits of
solving each gradient alone.

The verification helpers compare those estimates against the stretch
bracket (the shape the density is bounded below by, up to a constant
that is not known, so not itself a lower bound), the isotropy bound,
and the four explicit-constant Jensen bounds that follow from the
averaged-vector identity (one per marker direction family).  One
private kernel, ``_jensen_slacks``, evaluates a Jensen bound on a stack
of trials on one supercell; ``verify_jensen_bounds`` draws its random
trials one by one, scales the raw draws on stacked arrays and hands them
to it in stacks, one per supercell size, in chunks of ``_JENSEN_CHUNK``
node slots (so memory is bounded for any trial count); the
diagonal-stretch equality witness is that kernel on a stack of one.
Every slack keeps the bits of evaluating its trial alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .energy import (_check_eta, _kernel, _lbfgsb, _scipy_extension, _smoothed,
                     energy_breakdown)
from .geometry import _SLACK_TOL, lower_bracket, signed_svd
from .lattice import (DegenerateGeometryError, LatticeSpec, MechanismError,
                      PeriodicDeformation, Supercell, _check_size, _polar, cross2, edge_vectors,
                      lam_times, norms, ordered_sum, rotation, unique_rows)
from .mechanisms import _twist_contraction_table, _twist_fields

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

_ANNEAL = (0.05, 0.02, 0.008, 0.003)   # smoothing widths tau of the L-BFGS stages
_MAXITER = 300          # L-BFGS iterations per anneal stage
_SHORT_TOL = 1e-13      # an exact energy density at or below this is a zero
_JENSEN_CHUNK = 1 << 14  # psi node slots of the Jensen trials stacked at once
_POLISH_CHUNK = 1 << 15  # psi node slots of the density seeds polished in one stack


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


@dataclass
class DensityEstimate:
    """An upper bound on the effective energy density at one ``lam``."""

    upper: float                  # best exact averaged energy found
    upper_spring: float           # spring part of upper (same normalization)
    upper_penalty: float          # step-penalty part of upper
    minimizer: PeriodicDeformation
    solver_trace: dict = field(default_factory=dict)


def _invert_contraction(spec: LatticeSpec, c: float):
    """``(theta, gap)``: the twist angle whose contraction equals ``c``, to
    root-finder precision (``c`` is clipped into the reachable interval),
    and ``gap = None``; when the tabulated bracket does not change sign,
    its nearer end and the residual contraction gap there.  The root is
    scipy's compiled ``brentq``, loaded by file, with the arguments and
    bits of ``scipy.optimize.brentq(gap, lo, hi, xtol=1e-14)`` (a NaN gap
    raises ``ValueError``).  The gap remembers its values, so each twist
    field is solved once, the bracket ends too."""
    thetas, cs = _twist_contraction_table(spec)
    c = float(np.clip(c, cs.min(), 1.0))
    if c >= 1.0:
        return 0.0, None
    idx = int(np.searchsorted(cs[::-1], c))
    lo = float(thetas[::-1][max(idx - 1, 0)])
    hi = float(thetas[::-1][min(idx, len(thetas) - 1)])
    if lo > hi:
        lo, hi = hi, lo
    seen = {}

    def gap(th):
        if th not in seen:
            sd = signed_svd(_twist_fields(spec, [th])[0][0])
            seen[th] = float(0.5 * (sd.sigma1 + sd.sigma2) - c)
        if math.isnan(seen[th]):
            raise ValueError(f"the contraction gap at theta={th} is NaN")
        return seen[th]

    # at the end of the table (c clipped to its minimum) both ends are one angle
    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo * gap_hi > 0:
        return (lo, gap_lo) if abs(gap_lo) < abs(gap_hi) else (hi, gap_hi)
    brentq = _scipy_extension("optimize", "_zeros", "_brentq")._brentq
    return brentq(gap, lo, hi, 1e-14, 4 * math.ulp(1.0), 100, (), False, True), None


def _check_cell_eta(spec: LatticeSpec, eta, k: int) -> None:
    """Reject an ``eta`` that the cell problem on the ``k x k`` supercell
    cannot use: ``_check_eta`` over its cells at the narrowest smoothing
    width of the anneal."""
    _check_eta(eta, spec.penalized_area, k * k, min(_ANNEAL))


def _check_cell_lams(spec: LatticeSpec, lams, k: int) -> None:
    """Reject a grid matrix whose exact energy on the ``k x k`` supercell
    at ``psi = 0`` overflows, naming its index: every solve from it would
    run on infinities.  The penalty part of that energy is finite once
    ``eta`` passes :func:`_check_cell_eta`, so the spring part, ``k * k``
    times its one-cell sum, is checked here, for the whole grid at once."""
    with np.errstate(over="ignore", invalid="ignore"):
        lengths = norms(lam_times(np.array(lams), spec.segments(spec.spring_keys)))
        springs = k * k * (spec.spring_stiffness * (lengths - spec.spring_rest) ** 2).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(springs))
    if len(bad):
        raise ValueError(f"grid matrix {bad[0]} {lams[bad[0]].tolist()}: its exact energy on "
                         f"the {k} x {k} supercell at psi = 0 overflows")


def _twist_seed(spec: LatticeSpec, lam: np.ndarray):
    """``(psi, gap)``: the one-cell ``psi`` of the twist field whose
    contraction matches ``lam``, rotated so its affine part aligns with
    the polar rotation of ``lam``, and the residual contraction gap of a
    failed inversion bracket (see :func:`_invert_contraction`).  ``psi``
    is ``None`` when ``lam`` is nowhere near a reachable isotropic
    compression."""
    sd = signed_svd(lam)
    if sd.det_sign <= 0:
        return None, None
    c = 0.5 * (sd.sigma1 + sd.sigma2)
    try:
        thetas, cs = _twist_contraction_table(spec)
    except (MechanismError, DegenerateGeometryError):   # no twist: the seed is optional
        return None, None
    if not cs.min() - 0.05 <= c <= 1.0 + 1e-9:
        return None, None
    theta, gap = _invert_contraction(spec, c)
    (tlam,), (psi,) = _twist_fields(spec, [theta])
    if abs(np.linalg.det(tlam)) < 1e-12:
        return None, gap
    # project the alignment onto a rotation so the seed stays energy-free
    rot = _polar((lam @ np.linalg.inv(tlam))[None])[0]
    return psi @ rot.T, gap


def estimate_density(
    spec: LatticeSpec,
    lam,
    eta: float,
    k: int = 1,
    restarts: int = 6,
    rng_seed: int = 0,
) -> DensityEstimate:
    """Upper-bound the effective energy density at fixed ``lam``: the one
    gradient, one size case of :func:`_estimate_densities`.

    Seeds: ``psi = 0``, the aligned twist field when ``lam`` is close to a
    reachable isotropic compression, and ``restarts`` random fields.  The
    exact energy of every seed is screened first: the first seed at or
    below 1e-13 short-circuits, with no L-BFGS run (and nothing of scipy
    loaded but the twist inversion's compiled root finder).  A random seed
    is drawn only when screening reaches it, so a short circuit before the
    first draws none (and never imports ``numpy.random``); the draws keep
    their order, so each random field is the same whichever seed ends the
    screen.  Otherwise every screened seed is polished through the
    smoothing anneal, by L-BFGS over ``psi`` alone: one stage per width
    ``tau`` of ``_ANNEAL``, each capped at ``_MAXITER`` iterations.  Each
    stage hands L-BFGS one objective, built once for the stage at its
    ``tau``: the fixed-``lam`` :func:`~latmech.energy._kernel` of
    :func:`~latmech.energy.smoothed_energy_grad`'s energy and ``psi``
    gradient (no ``lam`` gradient), its ``lam`` products and constants
    made once.  The stage runs in :func:`~latmech.energy._lbfgsb` on one stack
    of seeds, one objective call per round on the seeds that ask for an
    evaluation, each seed with the bits of ``scipy.optimize.minimize`` on
    it alone; a grid solve stacks the seeds of all its gradients, each
    row at its own ``lam``, so every estimate keeps the bits of its solve
    alone.  That step, the smoothed penalty's ``expit`` and the twist
    seed's root finder are scipy's compiled modules loaded by file, so no
    scipy package is ever imported.  One walk then takes the seeds in
    order, each start and then, in a polished solve, its polish, as if
    polished one after another: it stops where the best reaches 1e-13, and
    the seeds after count neither in the result nor in the trace.  The
    reported value is always the exact step-penalty energy of the best iterate.

    ``solver_trace`` says whether the walk stopped at a zero
    (``short_circuit``) and gives the gradient norm at the end of the best
    seed's last stage (``final_grad_norm``: 0.0 for a seed screened at
    zero, NaN for a screened seed that no polish beat).  It counts the
    L-BFGS stages that hit the iteration or evaluation limit
    (``unconverged_stages``), keeps the last such termination message
    (``last_unconverged_message``), counts the stages whose line search
    stalled (``stalled_stages``; typically at the floating-point floor of
    the smoothed energy), and holds the residual contraction gap of the
    twist seed when its inversion bracket failed (``twist_bracket_gap``;
    ``None`` otherwise).
    """
    return _estimate_densities(spec, [lam], eta, [k], restarts, rng_seed)[0][0]


def _screen(cell: Supercell, lam: np.ndarray, twist, eta: float, restarts: int,
            rng_seed: int) -> list:
    """The screened seeds of the solve at ``lam``, ``(label, psi,
    breakdown)`` records in order, up to the first at or below
    ``_SHORT_TOL`` (see :func:`estimate_density`); ``twist`` is the
    one-cell field of :func:`_twist_seed`, tiled to every cell, or ``None``."""
    n = cell.n_nodes

    def seeds():
        yield "zero", np.zeros((n, 2))
        if twist is not None:
            yield "twist", np.repeat(twist, cell.k * cell.k, axis=0)
        rng = np.random.default_rng(rng_seed)
        for r in range(restarts):
            yield f"random{r}", (0.1 if r % 2 == 0 else 0.3) * rng.standard_normal((n, 2))

    screened = []
    for label, psi0 in seeds():
        screened.append((label, psi0, energy_breakdown(PeriodicDeformation(cell, lam, psi0), eta)))
        if screened[-1][2].averaged <= _SHORT_TOL:
            break
    return screened


def _select(cell: Supercell, eta: float, lam: np.ndarray, screened: list, polished,
            n_seeds: int, gap) -> DensityEstimate:
    """The estimate of one solve, its seeds walked in order as if polished
    one after another: each seed's start, by a strict ``<`` on the
    averaged energy, then, when the solve was polished, its polish
    (``polished[j]`` holds seed ``j``'s ``(x, nit, status, message, g)``
    of each anneal stage), by ``(averaged, spring_total)``.  The walk
    stops where the best is at or below ``_SHORT_TOL`` (``short_circuit``):
    a seed after a zero polish is polished but not counted.  A solve that
    screening ended has ``polished=None``, and its last record stops the walk."""
    best, iterations, unconverged, message, stalled = None, 0, 0, None, 0
    for j, (label, psi0, bd0) in enumerate(screened):
        if best is None or bd0.averaged < best[0].averaged:
            best = (bd0, label, psi0, 0.0 if polished is None else np.nan)
        if polished is not None:
            for _, nit, status, msg, _ in polished[j]:
                iterations += nit
                if status == 1:             # iteration or evaluation limit
                    unconverged, message = unconverged + 1, msg
                elif status == 2:           # abnormal line-search termination
                    stalled += 1
            psi = polished[j][-1][0].reshape(-1, 2)
            bd = energy_breakdown(PeriodicDeformation(cell, lam, psi), eta)
            if (bd.averaged, bd.spring_total) < (best[0].averaged, best[0].spring_total):
                best = (bd, label, psi, float(np.linalg.norm(polished[j][-1][4])))
        if best[0].averaged <= _SHORT_TOL:    # a zero: no later seed can beat it
            break

    bd, label, psi, grad_norm = best
    return DensityEstimate(
        upper=bd.averaged,
        upper_spring=bd.spring_total / bd.cell_area,
        upper_penalty=bd.penalty_total / bd.cell_area,
        minimizer=PeriodicDeformation(cell, lam, psi),
        solver_trace={"restarts": n_seeds, "iterations": iterations,
                      "final_grad_norm": grad_norm, "best_seed": label,
                      "short_circuit": bd.averaged <= _SHORT_TOL,
                      "unconverged_stages": unconverged,
                      "last_unconverged_message": message, "stalled_stages": stalled,
                      "twist_bracket_gap": gap},
    )


def _polish(cell: Supercell, eta: float, solves: list) -> list:
    """The estimates of ``solves``, each ``(lam, screened, n_seeds, gap)``:
    the seeds of every open solve (its last record not at or below
    ``_SHORT_TOL``) go through the anneal as one stack, each row at its
    solve's ``lam``, one :func:`~latmech.energy._lbfgsb` call per stage."""
    open_ = [not screened[-1][2].averaged <= _SHORT_TOL for _, screened, _, _ in solves]
    rows = [(lam, psi0.ravel()) for (lam, screened, _, _), is_open in zip(solves, open_)
            if is_open for _, psi0, _ in screened]
    stages = []     # per anneal stage, every row's (x, nit, status, message, g)
    if rows:
        lam, X = map(np.array, zip(*rows))
        for tau in _ANNEAL:
            stages.append(_lbfgsb(_kernel(cell, True, _smoothed(cell, eta, tau), lam=lam), X,
                                  _MAXITER, 1e-16, 1e-12))
            X = np.array([row[0] for row in stages[-1]])
    per_row = iter(zip(*stages))        # each row's stages
    return [_select(cell, eta, lam, screened,
                    [next(per_row) for _ in screened] if is_open else None, n_seeds, gap)
            for (lam, screened, n_seeds, gap), is_open in zip(solves, open_)]


def _estimate_densities(spec: LatticeSpec, lams, eta: float, ks: Sequence[int],
                        restarts: int, rng_seed: int) -> list:
    """:func:`estimate_density` at each of ``lams`` on each ``k x k``
    supercell of ``ks``: per gradient, one estimate per ``k`` with the
    bits of that function alone.  Each gradient's twist seed is found
    once.  At each ``k`` the solves are screened in order; the seeds of
    every solve that screening did not end are polished in one stack,
    each row at its own ``lam``, up to ``_POLISH_CHUNK`` node slots (a row
    counting at least 64), so memory is bounded for any number of
    gradients.  Rows never interact, so the chunks move no bit."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    for k in ks:
        _check_cell_eta(spec, eta, k)
    cells = [Supercell(spec, k) for k in ks]
    lams = [np.asarray(lam, dtype=float).reshape(2, 2) for lam in lams]
    twists = [_twist_seed(spec, lam) for lam in lams]
    out = [[] for _ in lams]
    for cell in cells:
        ests, chunk, slots = [], [], 0
        for lam, (twist, gap) in zip(lams, twists):
            screened = _screen(cell, lam, twist, eta, restarts, rng_seed)
            chunk.append((lam, screened, 1 + (twist is not None) + restarts, gap))
            if not screened[-1][2].averaged <= _SHORT_TOL:
                slots += len(screened) * max(cell.n_nodes, 64)
            if slots >= _POLISH_CHUNK:
                ests += _polish(cell, eta, chunk)
                chunk, slots = [], 0
        for row, est in zip(out, ests + _polish(cell, eta, chunk)):
            row.append(est)
    return out


# ---------------------------------------------------------------------------
# lambda grids
# ---------------------------------------------------------------------------


def lambda_grid(kind: str, rng_seed: int = 0):
    """Named grids of macroscopic gradients for sweeps.

    ``iso``: 10 x 8 isotropic compressions ``c R_phi`` with c in [0.3, 1];
    ``diag``: 6 x 6 diagonal matrices with entries in [0.5, 1.5];
    ``noniso``: 20 deterministic matrices with ``sigma1 - sigma2 >= 0.1``
    or ``sigma1 >= 1.1``; ``random:N``: seeded Gaussian matrices.  The
    command line reads ``--grid file:PATH`` itself: no library module
    reads a file.
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
        _check_size(n, f"the matrices of random grid {kind!r}")
        rng = np.random.default_rng(rng_seed)
        return [np.eye(2) + 0.5 * rng.standard_normal((2, 2)) for _ in range(n)]
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
    rng_seed: int = 0,
) -> IsotropicBoundReport:
    """Check the anisotropy lower bound: averaged energy over
    ``(sigma1 - sigma2)^2`` stays above a positive constant.

    Trials per ``lam`` (an isotropic ``lam`` is skipped): the minimizer of
    a three-restart density solve (the hardest field), whose energy is the
    solve's exact upper bound, plus three random perturbations of
    amplitude 0.2.  Requires ``eta`` at most the orientation threshold
    ``c0`` of the spec.
    """
    _check_cell_eta(spec, eta, k)
    c0 = orientation_threshold(spec)
    if eta > c0:
        raise ValueError(
            f"isotropy bound needs eta <= c0 = {c0:g}, got {eta:g}"
        )
    rng = np.random.default_rng(rng_seed)
    cell = Supercell(spec, k)
    kept = []   # (lam, gap) of each anisotropic lam
    for lam in lams:
        lam = np.asarray(lam, dtype=float).reshape(2, 2)
        sd = signed_svd(lam)
        gap = (sd.sigma1 - sd.sigma2) ** 2
        if not gap < 1e-10:
            kept.append((lam, gap))
    # the solves draw nothing from ``rng``, so all of them go first, as one grid
    solves = _estimate_densities(spec, [lam for lam, _ in kept], eta, [k], 3, rng_seed)
    ratios = []
    for (lam, gap), (est,) in zip(kept, solves):
        ratios.append(est.upper / gap)
        for _ in range(3):
            psi = 0.2 * rng.standard_normal((cell.n_nodes, 2))
            e = energy_breakdown(PeriodicDeformation(cell, lam, psi), eta).averaged
            ratios.append(e / gap)
    ratios = np.asarray(ratios)
    c_fit = float(ratios.min()) if ratios.size else np.nan
    return IsotropicBoundReport(ratios=ratios, c_fit=c_fit, n_trials=int(ratios.size))


# -- Jensen bounds ----------------------------------------------------------


def _marker_direction_frame(spec: LatticeSpec):
    """Unit vectors of the marker direction families ``(e_b, e_r)``; every
    marker's ``b`` must be a positive multiple of the shared direction, to
    a sine of 1e-9 whatever its length.  Each ``r`` then is one of ``e_r``:
    the spec holds every marker to ``r = c R(alpha) b``."""
    legs = spec.segments(spec.marker_keys)
    b0, r0 = legs[0]
    eb = b0 / np.linalg.norm(b0)
    er = r0 / np.linalg.norm(r0)
    for b, _ in legs:
        if abs(float(cross2(eb, b))) > 1e-9 * float(np.linalg.norm(b)) or float(eb @ b) <= 0:
            raise ValueError("marker b vectors do not share a direction")
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


def _pos_sq_pow(x) -> np.ndarray:
    """``_pos_sq`` of every entry of ``x`` with the bits it has on one
    ``np.float64`` scalar: there ``** 2`` calls libm ``pow``, as Python's
    float power and ``np.float_power`` do, while on an array it squares,
    which moves the last bit of a few results in ten thousand."""
    return np.float_power(np.maximum(x, 0.0), 2.0)


def _jensen_slacks(cell: Supercell, family: str, lam, psi, frame) -> np.ndarray:
    """Slacks ``(T,)`` of the Jensen bound ``family`` on ``T`` trials
    stacked on one supercell: ``lam`` ``(T, 2, 2)``, ``psi``
    ``(T, n_nodes, 2)``.  ``frame`` is the spec's marker direction frame
    ``(e_b, e_r)``.

    A slack is the marker average of ``(|b~|-1)^2 + (|r~|-1)^2`` less
    ``(|lam e|-1)_+^2`` over ``e = e_b, e_r`` (``two-direction``, and
    ``diag-stretch`` on diagonal ``lam`` with entries ``>= 0`` and the
    frame along the axes, where ``|lam e_x|`` is ``lam_11``), or adding
    ``(|r~-b~|-1)^2`` and the unit ``e_r - e_b`` (``three-direction``).
    ``weighted-rest`` is the smaller over the b and r families of the
    spring energy average over ``M l_avg`` (``M`` the least stiffness
    times rest, ``l_avg`` the mean rest) less ``(|lam e|-1)_+^2``.

    Each slack has the bits of the same bound evaluated on its trial
    alone: one :func:`edge_vectors` gather per marker family over the
    stack, the marker average of each trial as the mean of one contiguous
    row, and the stretch terms ``(|lam e| - 1)_+^2`` through
    :func:`lam_times`, :func:`norms` (the bits of ``np.linalg.norm`` of one
    vector) and :func:`_pos_sq_pow`.
    """
    T = len(lam)
    z = psi.reshape(T, -1)

    def gather(edges):
        return edge_vectors(z, edges.tail, edges.head, lam_times(lam, edges.dx))

    def marker_mean(values):
        return values.reshape(T, -1).mean(axis=1)

    def stretch_sq(dirs):
        """``(|lam e| - 1)_+^2`` ``(T, len(dirs))`` over the unit ``dirs``."""
        return _pos_sq_pow(norms(lam_times(lam, np.asarray(dirs))) - 1.0)

    if family == "weighted-rest":
        slacks = []
        for edges, spring, e in ((cell.marker_b, cell.marker_b_spring, frame[0]),
                                 (cell.marker_r, cell.marker_r_spring, frame[1])):
            rest = cell.spring_rest[spring]
            stiffness = cell.spring_stiffness[spring]
            lengths = np.linalg.norm(gather(edges), axis=-1)
            energies = stiffness[:, None] * (lengths - rest[:, None]) ** 2
            M = float(np.min(stiffness * rest))
            l_avg = float(np.mean(rest))
            slacks.append(marker_mean(energies) / (M * l_avg) - stretch_sq([e])[:, 0])
        s_b, s_r = slacks
        # Python's ``min`` of the pair: the b family's unless the r family's is below it
        return np.where(s_r < s_b, s_r, s_b)
    bs, rs = gather(cell.marker_b), gather(cell.marker_r)
    edges, dirs = [bs, rs], list(frame)
    if family == "three-direction":
        e3 = frame[1] - frame[0]
        edges.append(rs - bs)
        dirs.append(e3 / np.linalg.norm(e3))
    elif family not in ("two-direction", "diag-stretch"):
        raise ValueError(f"unknown Jensen bound family {family!r}")
    lhs = ordered_sum(np.array([marker_mean((np.linalg.norm(e, axis=-1) - 1.0) ** 2)
                                for e in edges]))
    return lhs - ordered_sum(stretch_sq(dirs).T)


def _jensen_trials(spec: LatticeSpec, n_trials: int, k_max: int, rng_seed: int):
    """The slacks of :func:`verify_jensen_bounds`: one ``{family: slacks}``
    per chunk, each array in trial order.

    Each trial draws, in this order, its ``k`` in ``1..k_max``, its
    ``psi`` and one ``lam`` per family.  A chunk holds the trials drawn
    until their ``psi`` reach ``_JENSEN_CHUNK`` node slots; the raw draws
    are scaled on the chunk's stacked arrays, and its trials are grouped
    by ``k``, each group one :func:`_jensen_slacks` call per family.
    """
    rng = np.random.default_rng(rng_seed)
    frame = eb, er = _marker_direction_frame(spec)
    legs = spec.segments(spec.marker_keys)
    unit_rests = bool((abs(norms(legs) - 1.0) < 1e-12).all())
    unit_third_side = unit_rests and bool(
        (abs(norms(legs[:, 1] - legs[:, 0]) - 1.0) < 1e-12).all())
    axis_aligned = (abs(eb @ np.array([0.0, 1.0])) < 1e-12
                    and abs(er @ np.array([1.0, 0.0])) < 1e-12)
    # the unweighted bounds silently assume unit rest lengths; the
    # weighted-rest form is the general statement and always applies
    families = ["weighted-rest"]
    if unit_rests:
        families.append("two-direction")
    if unit_third_side:
        families.append("three-direction")
    if unit_rests and axis_aligned:
        families.append("diag-stretch")

    drawn = 0
    while drawn < n_trials:
        ks, psis, raws = [], [], {name: [] for name in families}
        slots = 0
        while drawn < n_trials and slots < _JENSEN_CHUNK:
            k = int(rng.integers(1, k_max + 1))
            psis.append(rng.standard_normal((spec.n_basic * k * k, 2)))
            for name in families:
                raws[name].append(rng.uniform(0.0, 2.0, size=2) if name == "diag-stretch"
                                  else rng.standard_normal((2, 2)))
            ks.append(k)
            slots += len(psis[-1])
            drawn += 1
        ks = np.array(ks)
        lams = {}
        for name, raw in raws.items():
            raw = np.array(raw)
            if name == "diag-stretch":      # diag(raw) per trial
                lams[name] = np.zeros((len(raw), 2, 2))
                lams[name][:, 0, 0], lams[name][:, 1, 1] = raw.T
            else:
                lams[name] = np.eye(2) + 0.6 * raw
        slacks = {name: np.empty(len(ks)) for name in families}
        for k in unique_rows(ks[:, None])[:, 0]:
            idx = np.flatnonzero(ks == k)
            psi = 0.4 * np.array([psis[i] for i in idx])
            cell = Supercell(spec, k)
            for name in families:
                slacks[name][idx] = _jensen_slacks(cell, name, lams[name][idx], psi, frame)
        yield slacks


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

    The trials are drawn one after another, as a loop over single trials
    would draw them, and evaluated as stacked arrays, one
    :func:`_jensen_slacks` call per supercell size and family in each
    chunk of ``_JENSEN_CHUNK`` node slots; every slack has the bits of
    the same bound on its trial alone.  A chunk builds only the supercell
    sizes it drew, so memory stays bounded whatever ``n_trials`` and ``k_max``.
    """
    if n_trials < 1 or k_max < 1:
        raise ValueError(f"trials and k_max must be >= 1, got {n_trials} and {k_max}")
    minima = {}
    for slacks in _jensen_trials(spec, n_trials, k_max, rng_seed):
        for name, vals in slacks.items():
            minima.setdefault(name, []).append(np.min(vals))
    out = {name: JensenBoundReport(name=name, min_slack=float(np.min(mins)),
                                   n_trials=n_trials)
           for name, mins in minima.items()}
    if "diag-stretch" in out:
        # the equality witness: both sides are (1.5 - 1)^2 at psi = 0
        cell = Supercell(spec, 1)
        gap = _jensen_slacks(cell, "diag-stretch", np.diag([1.5, 1.0])[None],
                             np.zeros((1, cell.n_nodes, 2)), _marker_direction_frame(spec))
        out["diag-stretch"].equality_gap = abs(float(gap[0]))
    return out


# -- sandwich ---------------------------------------------------------------


@dataclass
class SandwichReport:
    ratios: np.ndarray
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
    if not k_list:
        raise ValueError("the sandwich needs at least one supercell size in k_list")
    lams = [np.asarray(m, dtype=float).reshape(2, 2) for m in lams]

    def fit(eta_val):
        kept = [(lam, br) for lam, br in zip(lams, map(lower_bracket, lams))
                if not br < 1e-12]
        solves = _estimate_densities(spec, [lam for lam, _ in kept], eta_val, k_list,
                                     restarts, 0)
        return np.asarray([min(est.upper for est in ests) / br
                           for (_, br), ests in zip(kept, solves)])

    ratios = fit(eta)
    alt = fit(eta * eta_factor)
    return SandwichReport(
        ratios=ratios,
        c_fit=float(ratios.min()) if ratios.size else np.nan,
        c_fit_alt=float(alt.min()) if alt.size else np.nan,
    )
