"""Cell-problem solver: upper bounds on the effective energy density.

``estimate_density`` minimizes the averaged supercell energy over the
periodic perturbation ``psi`` at fixed macroscopic gradient ``lam``,
annealing a sigmoid-smoothed orientation penalty and always reporting the
exact step-penalty value of the final iterate (any feasible field is a
valid upper bound, so poor convergence can never overstate softness).
``_estimate_densities`` solves a grid of gradients at one supercell size
at once, every seed of every gradient in one L-BFGS stack, with the bits
of solving each gradient alone.

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
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .energy import (_check_eta, _density_objective, _lbfgsb, _scipy_extension,
                     energy_breakdown)
from .geometry import _SLACK_TOL, lower_bracket, signed_svd
from .lattice import (DegenerateGeometryError, LatticeSpec, MechanismError, PeriodicDeformation,
                      Supercell, cross2, norms, rotation, unique_rows)
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


def _invert_contraction(spec: LatticeSpec, c: float, trace: dict) -> float:
    """The twist angle whose contraction equals ``c``, to root-finder
    precision (``c`` is clipped into the reachable interval): scipy's
    compiled ``brentq``, loaded by file, with the arguments and bits of
    ``scipy.optimize.brentq(gap, lo, hi, xtol=1e-14)`` (a NaN gap raises
    ``ValueError``).  The gap remembers its values, so each twist field is
    solved once, the bracket ends too.  When the tabulated bracket does
    not change sign, the nearer end is returned and its residual
    contraction gap is recorded in ``trace`` under ``twist_bracket_gap``."""
    thetas, cs = _twist_contraction_table(spec)
    c = float(np.clip(c, cs.min(), 1.0))
    if c >= 1.0:
        return 0.0
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
        theta, residual = (lo, gap_lo) if abs(gap_lo) < abs(gap_hi) else (hi, gap_hi)
        trace["twist_bracket_gap"] = residual
        return theta
    brentq = _scipy_extension("optimize", "_zeros", "_brentq")._brentq
    return brentq(gap, lo, hi, 1e-14, 4 * math.ulp(1.0), 100, (), False, True)


def _check_cell_eta(spec: LatticeSpec, eta, k: int) -> None:
    """Reject an ``eta`` that the cell problem on the ``k x k`` supercell
    cannot use: ``_check_eta`` over its cells at the narrowest smoothing
    width of the anneal."""
    _check_eta(eta, spec.penalized_area, k * k, min(_ANNEAL))


def _twist_seed(spec: LatticeSpec, lam: np.ndarray, k: int,
                trace: dict) -> Optional[np.ndarray]:
    """The ``psi`` of the twist field whose contraction matches ``lam``,
    rotated so its affine part aligns with the polar rotation of ``lam``,
    on the slots of the k x k supercell (every slot of a basic node holds
    its one-cell value).  Returns ``None`` when ``lam`` is nowhere near a
    reachable isotropic compression.  ``trace`` receives a failed
    inversion bracket (see :func:`_invert_contraction`)."""
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
    lams, psis = _twist_fields(spec, [_invert_contraction(spec, c, trace)])
    tlam, psi = lams[0], psis[0]
    if abs(np.linalg.det(tlam)) < 1e-12:
        return None
    # project the alignment onto a rotation so the seed stays energy-free
    u, _, vt = np.linalg.svd(lam @ np.linalg.inv(tlam))
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        rot = u @ np.diag([1.0, -1.0]) @ vt
    return np.repeat(psi @ rot.T, k * k, axis=0)


def estimate_density(
    spec: LatticeSpec,
    lam,
    eta: float,
    k: int = 1,
    restarts: int = 6,
    rng_seed: int = 0,
) -> DensityEstimate:
    """Upper-bound the effective energy density at fixed ``lam``: the one
    gradient case of :func:`_estimate_densities`, which solves a grid.

    Seeds: ``psi = 0``, the aligned twist field when ``lam`` is close to a
    reachable isotropic compression, and ``restarts`` random fields.  The
    exact energy of every seed is screened first: the first seed at or
    below 1e-13 short-circuits, with no L-BFGS run (and nothing of scipy
    loaded but the twist inversion's compiled root finder).  A random seed
    is drawn only when screening reaches it, so
    a short circuit before the first draws none (and never imports
    ``numpy.random``); the draws keep their order, so each random field
    is the same whichever seed ends the screen.  Otherwise every screened
    seed is polished through the smoothing anneal, by L-BFGS over ``psi``
    alone: one stage per width ``tau`` of ``_ANNEAL``, each capped at
    ``_MAXITER`` iterations.  Each stage hands L-BFGS one objective, built
    once for the stage at its ``tau``: the energy of
    :func:`~latmech.energy.smoothed_energy_grad` and its ``psi`` gradient
    (no ``lam`` gradient), with the fixed ``lam @ dx`` and constants made
    once.  The stage runs in :func:`~latmech.energy._lbfgsb` on one stack
    of seeds, one objective call per round on the seeds that ask for an
    evaluation, each seed with the bits of ``scipy.optimize.minimize`` on
    it alone; a grid solve stacks the seeds of all its gradients, each
    row at its own ``lam``, so every estimate keeps the bits of its solve
    alone.  That step, the smoothed penalty's ``expit`` and the twist
    seed's root finder are scipy's compiled modules loaded by file, so no
    scipy package is ever imported.  The polished seeds are then taken in
    order, as if polished one after another: the first that reaches 1e-13
    short-circuits the seeds after it, which count neither in the result
    nor in the trace.  The reported value is always the exact
    step-penalty energy of the best iterate.

    ``solver_trace`` says whether either short circuit ended the solve
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
    return _estimate_densities(spec, [lam], eta, k, restarts, rng_seed)[0]


@dataclass
class _Screened:
    """One density solve after screening: its seeds in order with the
    exact energy of each, and the seed that short-circuits the solve,
    ``best = (breakdown, label, psi, 0.0)``, or ``None``."""

    lam: np.ndarray
    seeds: list         # (label, psi) of each seed screened
    starts: list        # the exact energy of each
    best: Optional[tuple]
    trouble: dict
    n_seeds: int        # the fixed seeds and restarts, screened or not


def _screen(spec: LatticeSpec, cell: Supercell, lam: np.ndarray, eta: float,
            restarts: int, rng_seed: int) -> _Screened:
    """Screen the seeds of the solve at ``lam`` in order, up to the first
    at or below ``_SHORT_TOL`` (see :func:`estimate_density`)."""
    n = cell.n_nodes
    trouble = {"unconverged_stages": 0, "last_unconverged_message": None,
               "stalled_stages": 0, "twist_bracket_gap": None}
    fixed = [("zero", np.zeros((n, 2)))]
    tw = _twist_seed(spec, lam, cell.k, trouble)
    if tw is not None:
        fixed.append(("twist", tw))

    def random_seeds():
        rng = np.random.default_rng(rng_seed)
        for r in range(restarts):
            amp = 0.1 if r % 2 == 0 else 0.3
            yield f"random{r}", amp * rng.standard_normal((n, 2))

    out = _Screened(lam, [], [], None, trouble, len(fixed) + restarts)
    for label, psi0 in chain(fixed, random_seeds()):
        bd = energy_breakdown(PeriodicDeformation(cell, lam, psi0), eta)
        out.seeds.append((label, psi0))
        out.starts.append(bd)
        if bd.averaged <= _SHORT_TOL:
            out.best = (bd, label, psi0, 0.0)
            break
    return out


def _select(cell: Supercell, eta: float, solve: _Screened, polished) -> DensityEstimate:
    """The estimate of a screened solve: ``polished[j]`` holds seed ``j``'s
    ``(x, nit, status, message, g)`` of each anneal stage, and is empty
    when screening ended the solve.  The seeds are taken in order, as if
    polished one after another: a seed after a zero polish is polished
    but not counted."""
    best, trouble = solve.best, solve.trouble
    short_circuit = best is not None
    total_iters = 0
    for (label, psi0), bd0, stages in zip(solve.seeds, solve.starts, polished):
        if best is None or bd0.averaged < best[0].averaged:
            best = (bd0, label, psi0, np.nan)
        for _, nit, status, message, _ in stages:
            total_iters += nit
            if status == 1:             # iteration or evaluation limit
                trouble["unconverged_stages"] += 1
                trouble["last_unconverged_message"] = message
            elif status == 2:           # abnormal line-search termination
                trouble["stalled_stages"] += 1
        x, g = stages[-1][0], stages[-1][4]
        psi = x.reshape(-1, 2)
        bd = energy_breakdown(PeriodicDeformation(cell, solve.lam, psi), eta)
        if (bd.averaged, bd.spring_total) < (best[0].averaged, best[0].spring_total):
            best = (bd, label, psi, float(np.linalg.norm(g)))
        if best[0].averaged <= _SHORT_TOL:    # polished down to zero: no later seed can beat it
            short_circuit = True
            break

    bd, label, psi, grad_norm = best
    return DensityEstimate(
        upper=bd.averaged,
        upper_spring=bd.spring_total / bd.cell_area,
        upper_penalty=bd.penalty_total / bd.cell_area,
        minimizer=PeriodicDeformation(cell, solve.lam, psi),
        solver_trace={"restarts": solve.n_seeds, "iterations": total_iters,
                      "final_grad_norm": grad_norm, "best_seed": label,
                      "short_circuit": short_circuit, **trouble},
    )


def _polish(cell: Supercell, eta: float, solves: list) -> list:
    """The estimates of screened ``solves``: the seeds of every solve that
    screening did not end go through the anneal as one stack, each row at
    its solve's ``lam``, one :func:`~latmech.energy._lbfgsb` call per
    stage."""
    open_ = [solve for solve in solves if solve.best is None]
    stages = []     # per anneal stage, every row's (x, nit, status, message, g)
    if open_:
        lam = np.array([solve.lam for solve in open_ for _ in solve.seeds])
        X = np.array([psi0.ravel() for solve in open_ for _, psi0 in solve.seeds])
        for tau in _ANNEAL:
            stages.append(_lbfgsb(_density_objective(cell, lam, eta, tau), X,
                                  _MAXITER, 1e-16, 1e-12))
            X = np.array([row[0] for row in stages[-1]])
    per_row = iter(zip(*stages))        # each row's stages
    return [_select(cell, eta, solve, [] if solve.best is not None
                    else [next(per_row) for _ in solve.seeds])
            for solve in solves]


def _estimate_densities(spec: LatticeSpec, lams, eta: float, k: int, restarts: int,
                        rng_seed: int) -> list:
    """:func:`estimate_density` at each of ``lams`` on the ``k x k``
    supercell, each estimate with the bits of that function on its
    ``lam`` alone.  The solves are screened one by one, in order; the
    seeds of every solve that screening did not end are polished in one
    stack, each row at its own ``lam``, up to ``_POLISH_CHUNK`` node slots
    (a row counting at least 64) of seeds, so memory is bounded for any
    number of gradients.  Rows never interact, so the chunks do not move a
    bit."""
    _check_cell_eta(spec, eta, k)
    if k < 1:
        raise ValueError(f"supercell size must be >= 1, got {k}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    cell = Supercell(spec, k)
    out, chunk, slots = [], [], 0
    for lam in lams:
        lam = np.asarray(lam, dtype=float).reshape(2, 2)
        chunk.append(_screen(spec, cell, lam, eta, restarts, rng_seed))
        if chunk[-1].best is None:
            slots += len(chunk[-1].seeds) * max(cell.n_nodes, 64)
        if slots >= _POLISH_CHUNK:
            out += _polish(cell, eta, chunk)
            chunk, slots = [], 0
    return out + _polish(cell, eta, chunk)


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
    solves = _estimate_densities(spec, [lam for lam, _ in kept], eta, k, 3, rng_seed)
    ratios = []
    for (lam, gap), est in zip(kept, solves):
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


def _pos_sq_pow(x) -> np.ndarray:
    """``_pos_sq`` of every entry of ``x`` with the bits it has on one
    ``np.float64`` scalar: there ``** 2`` calls libm ``pow``, as Python's
    float power does, while on an array it squares, which moves the last
    bit of a few results in ten thousand."""
    return np.array([v ** 2 for v in np.maximum(x, 0.0).ravel().tolist()]).reshape(x.shape)


def _jensen_slacks(cell: Supercell, family: str, lam, psi, frame=None) -> np.ndarray:
    """Slacks ``(T,)`` of the Jensen bound ``family`` on ``T`` trials
    stacked on one supercell: ``lam`` ``(T, 2, 2)``, ``psi``
    ``(T, n_nodes, 2)``.  ``frame`` is the spec's marker direction frame
    ``(e_b, e_r)``; ``diag-stretch`` does not read it.

    A slack is the marker average of ``(|b~|-1)^2 + (|r~|-1)^2`` less
    ``(|lam e|-1)_+^2`` over ``e = e_b, e_r`` (``two-direction``), with
    the diagonal entries of ``lam`` for ``|lam e|`` (``diag-stretch``), or
    adding ``(|r~-b~|-1)^2`` and the unit ``e_r - e_b`` (``three-direction``).
    ``weighted-rest`` is the smaller over the b and r families of the
    spring energy average over ``M l_avg`` (``M`` the least stiffness
    times rest, ``l_avg`` the mean rest) less ``(|lam e|-1)_+^2``.

    Each slack has the bits of the same bound evaluated on its trial
    alone: one edge gather per marker family over the stack, the marker
    average of each trial as the mean of one contiguous row, and the
    stretch terms ``(|lam e| - 1)_+^2`` through :func:`norms` (the bits
    of ``np.linalg.norm`` of one vector) and :func:`_pos_sq_pow`.
    """
    T = len(lam)
    z = psi.reshape(T, -1)

    def gather(edges):
        tail, head, dx = edges
        # matmul over stacked columns gives the bits of ``lam @ dx`` per trial and class
        return (z[:, head] - z[:, tail]
                + np.matmul(lam[:, None], dx[None, :, :, None])[:, :, None, :, 0])

    def marker_mean(values):
        return values.reshape(T, -1).mean(axis=1)

    def stretch_sq(dirs):
        """``(|lam e| - 1)_+^2`` ``(T, len(dirs))`` over the unit ``dirs``."""
        e = np.asarray(dirs)[None, :, :, None]
        return _pos_sq_pow(norms(np.matmul(lam[:, None], e)[..., 0]) - 1.0)

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
    edges = [bs, rs]
    if family == "diag-stretch":
        rhs = _pos_sq_pow(np.diagonal(lam, axis1=1, axis2=2) - 1.0)
    elif family == "two-direction":
        rhs = stretch_sq(frame)
    elif family == "three-direction":
        eb, er = frame
        e3 = er - eb
        e3 = e3 / np.linalg.norm(e3)
        edges.append(rs - bs)
        rhs = stretch_sq((eb, er, e3))
    else:
        raise ValueError(f"unknown Jensen bound family {family!r}")
    # ``sum`` adds one term after another from zero, marker averages and stretch terms alike
    lhs = sum(marker_mean((np.linalg.norm(e, axis=-1) - 1.0) ** 2) for e in edges)
    return lhs - sum(rhs.T)


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

    cells = {k: Supercell(spec, k) for k in range(1, k_max + 1)}
    drawn = 0
    while drawn < n_trials:
        ks, psis, raws = [], [], {name: [] for name in families}
        slots = 0
        while drawn < n_trials and slots < _JENSEN_CHUNK:
            k = int(rng.integers(1, k_max + 1))
            psis.append(rng.standard_normal((cells[k].n_nodes, 2)))
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
            for name in families:
                slacks[name][idx] = _jensen_slacks(cells[k], name, lams[name][idx], psi, frame)
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
    the same bound on its trial alone.  The chunks keep memory bounded
    whatever ``n_trials`` and ``k_max``.
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
                             np.zeros((1, cell.n_nodes, 2)))
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
        # one grid solve per k
        per_k = [_estimate_densities(spec, [lam for lam, _ in kept], eta_val, k, restarts, 0)
                 for k in k_list]
        return np.asarray([min(est.upper for est in solves) / br
                           for (_, br), solves in zip(kept, zip(*per_k))])

    ratios = fit(eta)
    alt = fit(eta * eta_factor)
    return SandwichReport(
        ratios=ratios,
        c_fit=float(ratios.min()) if ratios.size else np.nan,
        c_fit_alt=float(alt.min()) if alt.size else np.nan,
    )
