"""Penalized spring energies.

The energy of a deformation ``u = lam x + psi`` on a ``k x k`` supercell is

    E = sum_springs  stiffness * (|deformed length| - rest)^2
      + sum_penalized_triangles  area * f_eta(det grad u)

with the hard orientation step ``f_eta(t) = 1/eta`` for ``t <= 0`` and ``0``
for ``t > 0``.  Reported energies always use the exact step; the smoothed
sigmoid version (with temperature ``tau``) exists only as a solver
surrogate and is exposed separately.

Every spring's energy is attributed to penalized triangles (see
:func:`latmech.lattice.spring_attribution`), which makes the per-triangle
breakdown sum to the totals exactly -- the totals are *defined* as sums of
the exposed per-part arrays.

The module also evaluates energies of deformations given directly as nodal
maps on an ``epsilon``-scaled lattice: the scaled energy of each cell and
their sum over all cells compactly contained in a rectangular domain.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable

import numpy as np

from .lattice import (LatticeSpec, PeriodicDeformation, Supercell, _cell_keys, cross2,
                      edge_vectors, norms, ordered_sum, rotation, unique_rows)

__all__ = [
    "EnergyBreakdown",
    "energy_breakdown",
    "smoothed_energy_grad",
    "triangle_dets",
    "LatticeMap",
    "DomainEnergyReport",
    "domain_energy",
    "CellBoundsReport",
    "check_cell_bounds",
]

_LEN_FLOOR = 1e-12  # guards normalization of nearly collapsed springs

# scipy's messages for the setulb task codes, as scipy.optimize._lbfgsb_py has them
_STATUS_MESSAGES = {0: "START", 1: "NEW_X", 2: "RESTART", 3: "FG", 4: "CONVERGENCE",
                    5: "STOP", 6: "WARNING", 7: "ERROR", 8: "ABNORMAL"}
_TASK_MESSAGES = {0: "", 301: "", 302: "",
                  401: "NORM OF PROJECTED GRADIENT <= PGTOL",
                  402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
                  501: "CPU EXCEEDING THE TIME LIMIT",
                  502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
                  503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
                  504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
                  505: "CALLBACK REQUESTED HALT",
                  601: "ROUNDING ERRORS PREVENT PROGRESS",
                  602: "STP = STPMAX", 603: "STP = STPMIN", 604: "XTOL TEST SATISFIED",
                  701: "NO FEASIBLE SOLUTION", 702: "FACTR < 0", 703: "FTOL < 0",
                  704: "GTOL < 0", 705: "XTOL < 0", 706: "STP < STPMIN", 707: "STP > STPMAX",
                  708: "STPMIN < 0", 709: "STPMAX < STPMIN", 710: "INITIAL G >= 0",
                  711: "M <= 0", 712: "N <= 0", 713: "INVALID NBD"}


@cache
def _scipy_extension(package: str, name: str, attr: str):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its
    file in scipy's install directory, which must provide ``attr``.

    No scipy package is imported: importing ``scipy.optimize`` or
    ``scipy.special`` runs their ``__init__``, which loads most of scipy
    (about 0.5 s and 38 MB), while the file alone loads in a few
    milliseconds.  The loader records a single-phase module under its full
    name in ``sys.modules``, so a later ``import scipy.<package>`` reuses
    it.  Raises :class:`ImportError` naming the path looked for when the
    file or ``attr`` is missing.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    base = os.path.join(spec.submodule_search_locations[0], package, name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base + suffix
        if os.path.isfile(path):
            ext = importlib.util.spec_from_file_location(f"scipy.{package}.{name}", path)
            module = importlib.util.module_from_spec(ext)
            ext.loader.exec_module(module)
            if not hasattr(module, attr):
                raise ImportError(f"scipy's {path} has no {attr!r}")
            return module
    looked = ", ".join(base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    raise ImportError(f"scipy's compiled module scipy.{package}.{name} is missing: "
                      f"looked for {looked}")


# ---------------------------------------------------------------------------
# periodic supercell energies
# ---------------------------------------------------------------------------


def _check_eta(eta, area, cells: int, tau=1.0) -> None:
    """Reject a penalty strength ``eta`` that is not finite and positive,
    or so small that, for a penalized triangle of ``area``, the penalty
    unit ``area / eta`` or, at a smoothing width ``tau < 1``, the smoothed
    slope ``area / (eta * tau)`` overflows, or that the penalty total of
    ``cells`` cells with every triangle reversed overflows (summed as
    ``EnergyBreakdown.penalty_total`` sums it: ``cells`` times each unit)."""
    if not 0 < eta < np.inf:
        raise ValueError(f"penalty strength eta must be positive, got {eta:g}")
    # Python floats, so no numpy warning; the largest area gives the largest quotient
    areas = area.tolist()
    scale = eta * tau
    if scale == 0 or math.isinf(max(areas, default=0.0) / scale):
        what = ("penalty unit area/eta" if tau == 1.0
                else f"smoothed slope area/(eta*tau) at tau={tau:g}")
        raise ValueError(f"penalty strength eta {eta!r} is so small that the {what} overflows")
    if math.isinf(sum(cells * (a / eta) for a in areas)):
        raise ValueError(f"penalty strength eta {eta!r} is so small that the penalty total "
                         f"of {cells} cells with every triangle reversed overflows")


def _dets(cell: Supercell, d) -> np.ndarray:
    """``det(grad u)`` ``(nt, k*k)`` from the penalized triangles' deformed
    edges ``d`` ``(2 nt, k*k, 2)``: the ``P0 -> P1`` rows, then ``P0 -> P2``."""
    nt = len(cell.tri_area)
    return cross2(d[:nt], d[nt:]) / cell.tri_cross0[:, None]


def triangle_dets(defm: PeriodicDeformation) -> np.ndarray:
    """``det(grad u)`` per penalized-triangle class (rows) and cell."""
    cell = defm.cell
    ns = len(cell.spring_rest)
    return _dets(cell, edge_vectors(defm.lam, defm.psi.ravel(), *(a[ns:] for a in cell.edges)))


@dataclass
class EnergyBreakdown:
    """Exact energy of one deformation, split by penalized triangle.

    ``spring_total`` is the sum of ``per_triangle_spring``;
    ``penalty_total`` is ``sum_t reversed_counts[t] * penalty_unit[t]`` with
    ``penalty_unit = area / eta``, so the penalty is an integer combination
    of the per-class units by construction.
    """

    k: int
    cell_area: float
    per_triangle_spring: np.ndarray     # (n_pen, k*k)
    per_triangle_penalty: np.ndarray    # (n_pen, k*k)
    spring_lengths: np.ndarray          # (n_springs, k*k) deformed lengths
    dets: np.ndarray                    # (n_pen, k*k) det(grad u)
    reversed_counts: np.ndarray         # (n_pen,)
    penalty_unit: np.ndarray            # (n_pen,)
    spring_total: float = field(init=False)
    penalty_total: float = field(init=False)

    def __post_init__(self):
        self.spring_total = float(np.sum(self.per_triangle_spring))
        self.penalty_total = float(
            sum(int(c) * float(u) for c, u in zip(self.reversed_counts, self.penalty_unit))
        )

    @property
    def total(self) -> float:
        return self.spring_total + self.penalty_total

    @property
    def averaged(self) -> float:
        """Energy density: total over supercell area."""
        return self.total / self.cell_area

    def rows(self):
        """Yield ``(i, j, t, spring_energy, penalty_energy)`` per triangle."""
        k = self.k
        for t in range(self.per_triangle_spring.shape[0]):
            for c in range(k * k):
                yield (c // k, c % k, t,
                       float(self.per_triangle_spring[t, c]),
                       float(self.per_triangle_penalty[t, c]))


def energy_breakdown(defm: PeriodicDeformation, eta: float) -> EnergyBreakdown:
    """Exact penalized energy with the per-triangle decomposition."""
    cell = defm.cell
    _check_eta(eta, cell.tri_area, cell.k * cell.k)
    kk = cell.k * cell.k
    ns = len(cell.spring_rest)
    d = edge_vectors(defm.lam, defm.psi.ravel(), *cell.edges)
    lengths = np.linalg.norm(d[:ns], axis=2)
    spring_e = cell.spring_stiffness[:, None] * (lengths - cell.spring_rest[:, None]) ** 2

    # attribution rows added up per triangle in row order
    n_pen = len(cell.tri_cross0)
    share = cell.attr_weight[:, None] * spring_e[cell.attr_spring[:, None], cell.attr_cells]
    target = cell.attr_triangle[:, None] * kk + np.arange(kk)
    per_spring = np.bincount(target.ravel(), share.ravel(),
                             minlength=n_pen * kk).reshape(n_pen, kk)

    dets = _dets(cell, d[ns:])
    ok = dets > 0.0
    unit = cell.tri_area / eta
    return EnergyBreakdown(
        k=cell.k,
        cell_area=cell.cell_area,
        per_triangle_spring=per_spring,
        per_triangle_penalty=np.where(ok, 0.0, unit[:, None]),
        spring_lengths=lengths,
        dets=dets,
        reversed_counts=(~ok).sum(axis=1),
        penalty_unit=unit,
    )


# ---------------------------------------------------------------------------
# gradients (solver surrogates)
# ---------------------------------------------------------------------------


def _kernel(cell: Supercell, springs: bool, penalty=None, lam=None):
    """The energy and gradients of the spring classes (when ``springs``),
    then of the penalized triangles (when ``penalty`` maps their
    ``det(grad u)`` ``(B, nt, k*k)`` to per-class energies ``(B, nt)``,
    the derivative in ``det`` and a mask ``(B,)`` of the rows whose
    energy is infinite, or ``None`` for none), as a function
    ``f(Z, at) -> (E, glam, gZ)`` of a stack of ``B`` flat ``psi``
    vectors ``Z`` ``(B, 2 n)``: ``E`` ``(B,)``, ``glam`` ``(B, 2, 2)`` and
    ``gZ`` ``(B, 2 n)``.  A row with an infinite energy has zero
    gradients.

    Everything that does not depend on ``Z`` is built here once: the
    slices of ``cell.edges`` and ``cell.scatter`` and the constants of the
    springs.  With fixed gradients ``lam`` ``(R, 2, 2)`` the products
    ``lam @ dx`` of all ``R`` are formed once too; ``at`` holds the index
    in ``lam`` of each row of ``Z``, whose products are gathered, and
    ``f`` returns ``glam = None``.  Otherwise ``at`` is one ``lam``
    ``(B, 2, 2)`` per row, on every call.  The buffers are one set, made
    at the tallest stack seen so far; a shorter stack writes the first
    ``B`` rows, so a stack whose height falls row by row allocates
    nothing.  The results are new arrays on every call.

    Each row has the bits of evaluating it alone, in a stack of one.  One
    gather of the needed edge classes, by ``take`` along the row axis
    (a fancy gather ``Z[:, head]`` returns a layout that is not C-ordered,
    and the reductions over the cells then add in another order), one
    value buffer filled in the order of ``cell.scatter`` and one
    ``bincount``, its bins offset by ``2 n`` per row: totals run class by
    class and the scatter in stream order, as ``+=`` and ``np.add.at``
    loops over the classes would.  The operations are those of
    ``np.linalg.norm(axis=2)``, ``np.sum`` and
    :func:`~latmech.lattice.cross2`, spelled out to save the calls.
    """
    ns, nt, kk = len(cell.spring_rest), len(cell.tri_area), cell.k * cell.k
    n_s, n_t = (ns if springs else 0), (nt if penalty else 0)
    tail, head, dx = (a[ns - n_s:ns + 2 * n_t] for a in cell.edges)
    bins = cell.scatter[4 * (ns - n_s) * kk:(4 * ns + 6 * n_t) * kk]
    size = 2 * cell.n_nodes

    def lam_dx(lam):
        """``lam @ dx`` ``(B, classes, 1, 2)`` for ``lam`` ``(B, 2, 2)``:
        matmul over stacked columns gives its bits row by row and class
        by class."""
        return np.matmul(lam[:, None], dx[:, :, None])[:, :, None, :, 0]

    fixed = lam is not None
    if fixed:
        ldx = lam_dx(lam)
    rest = cell.spring_rest[:, None]
    twice_k = 2.0 * cell.spring_stiffness[:, None]
    cross0 = cell.tri_cross0[:, None]
    tallest = []    # the one buffer set, of the tallest stack seen

    def stack_buffers(B):
        """Views of the first ``B`` rows of the buffers, which are made
        anew only for a stack taller than any before."""
        if not tallest or len(tallest[0]) < B:
            # a leading zero column makes the totals the ordered sums of the terms
            tallest[:] = (np.zeros((B, 1 + n_s + n_t)),
                          None if fixed else np.zeros((B, 1 + n_s + n_t, 2, 2)),
                          np.empty((B, len(bins))),
                          (bins + size * np.arange(B)[:, None]).ravel())
        E, glam, values, rows = tallest
        values = values[:B]
        return (E[:B], None if fixed else glam[:B], values,
                values[:, :4 * n_s * kk].reshape(B, n_s, 2, kk, 2),   # head, tail
                values[:, 4 * n_s * kk:].reshape(B, n_t, 3, kk, 2),   # P1, P2, P0
                rows[:B * len(bins)])

    def f(Z, at):
        B = len(Z)
        E, glam, values, v_s, v_t, rows = stack_buffers(B)
        d = Z.take(head, axis=1) - Z.take(tail, axis=1) + (ldx[at] if fixed else lam_dx(at))
        infinite = None
        if springs:
            sx, sy = d[:, :ns, :, 0], d[:, :ns, :, 1]
            lengths = np.sqrt(sx * sx + sy * sy)
            np.multiply(cell.spring_stiffness, np.add.reduce((lengths - rest) ** 2, axis=2),
                        out=E[:, 1:1 + ns])
            coeff = twice_k * (1.0 - rest / np.maximum(lengths, _LEN_FLOOR))
            g = np.multiply(coeff[..., None], d[:, :ns], out=v_s[:, :, 0])
            np.negative(g, out=v_s[:, :, 1])
            if not fixed:
                np.multiply(np.add.reduce(g, axis=2)[..., None], dx[:ns, None, :],
                            out=glam[:, 1:1 + ns])

        if penalty:
            d1, d2 = d[:, n_s:n_s + nt], d[:, n_s + nt:]
            E[:, 1 + n_s:], dE_ddet, infinite = penalty(
                (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]) / cross0)
            dE_dcross = (dE_ddet / cross0)[..., None]
            # dE_dcross * (d2y, -d2x) and dE_dcross * (-d1y, d1x); negation is exact
            g1 = np.multiply(dE_dcross, d2[..., ::-1], out=v_t[:, :, 0])
            g2 = np.multiply(dE_dcross, d1[..., ::-1], out=v_t[:, :, 1])
            np.negative(g1[..., 1], out=g1[..., 1])
            np.negative(g2[..., 0], out=g2[..., 0])
            np.negative(np.add(g1, g2, out=v_t[:, :, 2]), out=v_t[:, :, 2])
            if not fixed:
                np.add(np.add.reduce(g1, axis=2)[..., None] * dx[n_s:n_s + nt, None, :],
                       np.add.reduce(g2, axis=2)[..., None] * dx[n_s + nt:, None, :],
                       out=glam[:, 1 + n_s:])

        E_total = np.add.accumulate(E, axis=1)[:, -1]
        glam_total = None if fixed else np.add.accumulate(glam, axis=1)[:, -1]
        gZ = np.bincount(rows, values.ravel(), minlength=B * size).reshape(B, size)
        if infinite is not None:
            E_total[infinite] = np.inf
            gZ[infinite] = 0.0
            if not fixed:
                glam_total[infinite] = 0.0
        return E_total, glam_total, gZ

    return f


def _smoothed(cell: Supercell, eta: float, tau: float):
    """The sigmoid-smoothed orientation penalty of :func:`_kernel` at ``(eta, tau)``,
    by scipy's compiled ``expit`` ufunc (the one ``scipy.special.expit``
    is), loaded by :func:`_scipy_extension` with no scipy package."""
    expit = _scipy_extension("special", "_special_ufuncs", "expit").expit

    unit = cell.tri_area / eta
    slope = -(cell.tri_area / (eta * tau))[:, None]

    def penalty(det):
        sig = expit(-det / tau)
        return unit * np.add.reduce(sig, axis=2), slope * sig * (1.0 - sig), None

    return penalty


def _barrier(mu: float):
    """The log-barrier ``-mu * sum log det`` of :func:`_kernel` at ``mu``:
    infinite on a row with an orientation that is not positive, where no
    ``log`` or quotient of its ``det`` is taken."""
    def penalty(det):
        infinite = (det <= 0).any(axis=(1, 2))
        if infinite.any():
            det = np.where(infinite[:, None, None], 1.0, det)
        return -mu * np.add.reduce(np.log(det), axis=2), -mu / det, infinite

    return penalty


def smoothed_energy_grad(cell: Supercell, lam, psi, eta: float, tau: float):
    """The spring energy plus the sigmoid-smoothed orientation penalty,
    with gradients ``(E, glam, gpsi)``, by :func:`_kernel` on a stack of
    one.

    The smoothed penalty is ``area / eta * expit(-det / tau)``; it tends to
    the exact step as ``tau -> 0`` and exists only to give descent methods
    a usable gradient.  Reported energies must use
    :func:`energy_breakdown` instead.
    """
    E, glam, g = _kernel(cell, True, _smoothed(cell, eta, tau))(
        np.reshape(psi, (1, -1)), np.asarray(lam, dtype=float)[None])
    return float(E[0]), glam[0], g[0].reshape(-1, 2)


def _density_objective(cell: Supercell, lam, eta: float, tau: float):
    """The L-BFGS objective ``f(X, at) -> (E, G)`` of one anneal stage of
    the density solve on a stack of flat ``psi`` vectors ``X`` ``(B, 2 n)``,
    row ``i`` at the fixed gradient ``lam[at[i]]`` of ``lam`` ``(R, 2, 2)``:
    the smoothed energy of :func:`smoothed_energy_grad` and its gradient
    in ``psi``, with the bits of that function's ``E`` and ``gpsi`` row by
    row."""
    kernel = _kernel(cell, True, _smoothed(cell, eta, tau), lam=lam)

    def f(X, at):
        E, _, G = kernel(X, at)
        return E, G

    return f


def _search_objective(cell: Supercell, mu: float):
    """The L-BFGS objective ``f(X, at) -> (E, G)`` of one barrier stage of
    the mechanism search on a stack of packed ``x = (lam.ravel(),
    psi[1:].ravel())`` ``(B, 2 n + 2)`` (the first node pinned at zero;
    ``at`` is not read):
    the spring energy plus, when ``mu > 0``, the log-barrier at ``mu``, or
    ``(inf, 0)`` on a row where that is not finite.

    The two parts are summed apart and then added, energy, ``lam`` and
    ``psi`` gradient alike, so each row has the bits of adding the
    results of the variable-``lam`` spring and barrier kernels at its
    state.  A gradient row is the ``lam`` gradient, then the ``psi``
    gradient without the pinned node's.
    """
    springs = _kernel(cell, True)
    barrier = _kernel(cell, False, _barrier(mu)) if mu > 0 else None

    def f(X, at):
        lam = X[:, :4].reshape(-1, 2, 2)
        Z = np.zeros((len(X), 2 * cell.n_nodes))
        Z[:, 2:] = X[:, 4:]
        E, gl, g = springs(Z, lam)
        if barrier is not None:
            B, gl2, g2 = barrier(Z, lam)
            E += B
            gl += gl2
            g += g2
        G = np.concatenate([gl.reshape(-1, 4), g[:, 2:]], axis=1)
        if barrier is not None:
            infinite = ~np.isfinite(B)
            E[infinite] = np.inf
            G[infinite] = 0.0
        return E, G

    return f


def _lbfgsb(f, X0, maxiter: int, ftol: float, gtol: float):
    """Minimize ``f(X, at) -> (E, G)`` from each start of the stack ``X0``
    ``(B, n)`` by scipy's compiled L-BFGS-B step with no bounds; returns
    one ``(x, nit, status, message, g)`` per row.  ``at`` holds the index
    in ``X0`` of each row of ``X``.

    Each row is the loop of ``scipy.optimize.minimize(f1, x0, jac=True,
    method="L-BFGS-B", options={"maxiter": maxiter, "ftol": ftol,
    "gtol": gtol})`` on that row alone, with ``f1`` the row's ``f`` on a
    stack of one (10 corrections, 20 line-search steps, at most 15000
    evaluations; status 0 converged, 1 a limit hit, 2 anything else, and
    scipy's messages), without its Python wrappers.  Every row keeps its
    own ``setulb`` state and runs until it asks for an evaluation or
    stops; then ``f`` is called once on the stack of the rows that asked,
    with their indices, and the round repeats until every row has stopped.  ``f`` must give
    each row the bits of evaluating it alone; then each row's ``x``,
    ``nit``, ``status``, ``message`` and final gradient ``g`` are those of
    ``minimize`` on it, bit for bit.  ``minimize`` neither repeats nor
    counts an evaluation at the point it evaluated last; ``f`` is pure, so
    only the count of evaluations can differ, and only in a stage that
    nears 15000 of them.  ``setulb`` comes from scipy's compiled
    ``_lbfgsb`` module, loaded by :func:`_scipy_extension` with no scipy
    package; its messages are scipy's, copied in ``_STATUS_MESSAGES`` and
    ``_TASK_MESSAGES``.
    """
    setulb = _scipy_extension("optimize", "_lbfgsb", "setulb").setulb

    m, maxls, maxfun = 10, 20, 15000
    X = np.array(X0, dtype=float)
    B, n = X.shape
    nbd, free = np.zeros(n, np.int32), np.zeros(n)     # no bound on any entry
    fx, G = np.zeros(B), np.zeros((B, n))
    wa = np.zeros((B, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((B, 3 * n), np.int32)
    task, ln_task, lsave = (np.zeros((B, size), np.int32) for size in (2, 2, 4))
    isave, dsave = np.zeros((B, 44), np.int32), np.zeros((B, 29))
    factr = ftol / math.ulp(1.0)
    nit, nfev = [0] * B, [0] * B
    rows = list(zip(X, G, wa, iwa, task, lsave, isave, dsave, ln_task))  # each row's views
    running = range(B)
    while running:
        asking = []
        for i in running:
            x, g, wa_i, iwa_i, task_i, lsave_i, isave_i, dsave_i, ln_task_i = rows[i]
            while True:
                setulb(m, x, free, free, nbd, float(fx[i]), g, factr, gtol, wa_i, iwa_i,
                       task_i, lsave_i, isave_i, dsave_i, maxls, ln_task_i)
                if task_i[0] == 3:          # FG: evaluate at x
                    asking.append(i)
                    nfev[i] += 1
                    break
                if task_i[0] != 1:          # stopped
                    break
                nit[i] += 1                 # NEW_X: an iteration ended; STOP at a limit
                if nit[i] >= maxiter:
                    task_i[:] = 5, 504
                elif nfev[i] > maxfun:
                    task_i[:] = 5, 502
        if asking:
            fx[asking], G[asking] = f(X[asking], asking)
        running = asking
    out = []
    for i in range(B):
        status = 0 if task[i, 0] == 4 else 1 if nfev[i] > maxfun or nit[i] >= maxiter else 2
        message = f"{_STATUS_MESSAGES[task[i, 0]]}: {_TASK_MESSAGES[task[i, 1]]}"
        out.append((X[i].copy(), nit[i], status, message, G[i].copy()))
    return out


# ---------------------------------------------------------------------------
# scaled lattices and domain energies
# ---------------------------------------------------------------------------


class LatticeMap:
    """A deformation given by nodal values on an ``epsilon``-scaled lattice.

    ``keys`` is an ``(n, 3)`` integer array of node references
    ``(node, o1, o2)`` (absolute offsets; see :mod:`latmech.lattice`),
    unique and in lexicographic order; ``positions`` holds the ``(n, 2)``
    deformed positions row by row.  :meth:`rows` is the one lookup: it
    translates stacked integer rows such as the spec's ``spring_keys``
    over many cells at once, through a dense ``(node, o1, o2)`` grid built
    once.  These two arrays are the map's one layout.  The reference
    position of a node is ``epsilon`` times its unscaled position.
    """

    def __init__(self, spec: LatticeSpec, epsilon: float, keys, positions):
        """Wrap key rows that are already unique and lexicographically sorted."""
        self.spec = spec
        self.epsilon = epsilon
        self.keys = np.ascontiguousarray(keys, dtype=np.int64).reshape(-1, 3)
        self.positions = np.ascontiguousarray(positions, dtype=float).reshape(-1, 2)
        for arr in (self.keys, self.positions):
            arr.setflags(write=False)
        n = len(self.keys)
        lo = self.keys.min(axis=0) if n else np.zeros(3, dtype=np.int64)
        hi = self.keys.max(axis=0) if n else lo - 1
        self._lo = tuple(lo.tolist())
        self._grid = np.full(tuple(hi - lo + 1), -1, dtype=np.int64)
        self._grid[tuple((self.keys - lo).T)] = np.arange(n)
        # perfbench/layers.py counts nodes as ``len(lmap.values)``, so this
        # alias goes when the bench changes
        self.values = self.positions

    def rows(self, keys, ci, cj) -> np.ndarray:
        """Rows ``keys.shape[:-1] + (n_cells,)`` of the integer node rows
        ``keys`` ``(..., 3)`` translated by each cell ``(ci[c], cj[c])``,
        -1 where the map lacks the node."""
        keys = np.asarray(keys)[..., None, :] - self._lo
        idx = np.broadcast_arrays(keys[..., 0], keys[..., 1] + ci, keys[..., 2] + cj)
        ok = np.logical_and.reduce([(i >= 0) & (i < n) for i, n in zip(idx, self._grid.shape)])
        out = np.full(ok.shape, -1, dtype=np.int64)
        out[ok] = self._grid[tuple(i[ok] for i in idx)]
        return out

    def __reduce__(self):
        # rebuilt by the constructor, which freezes the arrays and makes the grid
        return LatticeMap, (self.spec, self.epsilon, self.keys, self.positions)

    @cached_property
    def reference_positions(self) -> np.ndarray:
        return self.epsilon * self.spec.node_positions(self.keys)

    @classmethod
    def from_periodic(cls, defm: PeriodicDeformation, epsilon: float, cells) -> "LatticeMap":
        """Sample ``u_eps(x) = eps * u(x / eps)`` over the given cells."""
        spec = defm.spec
        refs = _cell_keys(spec)
        cells = np.asarray(list(cells), dtype=np.int64).reshape(-1, 2)
        shifts = np.column_stack([np.zeros(len(cells), dtype=np.int64), cells])
        keys = unique_rows((shifts[:, None, :] + refs[None, :, :]).reshape(-1, 3))
        return cls(spec, epsilon, keys, epsilon * defm.node_positions(keys))

    def interpolate(self, points):
        """Piecewise-affine value and gradient at reference points.

        Each point takes the first cover triangle, over candidate cells
        near its own and then the triangulation order, that contains it
        and whose three nodes the map stores.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        spec = self.spec
        Minv = np.linalg.inv(spec.cell_matrix) / self.epsilon
        values = np.empty((len(points), 2))
        grads = np.empty((len(points), 2, 2))
        q = spec.node_positions(spec.cover_keys)
        dinvs = np.linalg.inv(np.stack([q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]], axis=-1)
                              * self.epsilon)
        cover = list(zip(spec.cover_keys, dinvs))
        base = np.floor(np.matmul(Minv, points[:, :, None])[:, :, 0]).astype(int)
        todo = np.arange(len(points))
        for di in (0, -1, 1, -2, 2):
            for dj in (0, -1, 1, -2, 2):
                for tri, dinv in cover:
                    ci, cj = base[todo, 0] + di, base[todo, 1] + dj
                    rows = self.rows(tri, ci, cj)
                    p = points[todo]
                    bary = np.matmul(dinv, (p - self.reference_positions[rows[0]])[:, :, None])[:, :, 0]
                    bsum = bary[:, 0] + bary[:, 1]
                    hit = ((rows >= 0).all(axis=0) & (bary[:, 0] >= -1e-9)
                           & (bary[:, 1] >= -1e-9) & (bsum <= 1 + 1e-9))
                    u0, u1, u2 = self.positions[rows[:, hit]]
                    b0, b1 = bary[hit, 0:1], bary[hit, 1:2]
                    values[todo[hit]] = (1 - bsum[hit, None]) * u0 + b0 * u1 + b1 * u2
                    grads[todo[hit]] = np.matmul(np.stack([u1 - u0, u2 - u0], axis=-1), dinv)
                    todo = todo[~hit]
                    if not len(todo):
                        return values, grads
        raise ValueError(f"point {points[todo[0]]} is not covered by stored nodal values")


def _cell_energies(lmap: LatticeMap, eta: float, ci, cj) -> np.ndarray:
    """Scaled energies of the cells ``(ci[c], cj[c])``, summed per cell in
    spring order and then penalized-triangle order."""
    spec = lmap.spec
    eps = lmap.epsilon
    # node references in the order a missing one is reported: b then a
    # per spring, then the triangle vertices
    keys = np.concatenate([spec.spring_keys[:, ::-1].reshape(-1, 3),
                           spec.penalized_keys.reshape(-1, 3)])
    rows = lmap.rows(keys, ci, cj)
    missing = rows < 0
    if missing.any():
        c = int(np.argmax(missing.any(axis=0)))
        node, o1, o2 = keys[int(np.argmax(missing[:, c]))].tolist()
        cell = (int(ci[c]), int(cj[c]))
        key = (node, (o1 + cell[0], o2 + cell[1]))
        raise KeyError(
            f"node {key} missing from the lattice map but needed for cell {cell}"
        )
    ns = len(spec.spring_keys)
    pb, pa = lmap.positions[rows[:2 * ns]].reshape(ns, 2, len(ci), 2).transpose(1, 0, 2, 3)
    p0, p1, p2 = lmap.positions[rows[2 * ns:]].reshape(-1, 3, len(ci), 2).transpose(1, 0, 2, 3)

    # norms and float_power give the bits of norm() and ** on scalars
    springs = spec.spring_stiffness[:, None] * np.float_power(
        norms(pb - pa) - eps * spec.spring_rest[:, None], 2.0)
    cross_ref = 2 * spec.penalized_area * eps * eps
    cross_def = cross2(p1 - p0, p2 - p0)
    # a triangle that keeps its orientation adds 0.0, which leaves the sum as is
    penalty = np.where(cross_def / cross_ref[:, None] <= 0,
                       (eps * eps * spec.penalized_area / eta)[:, None], 0.0)
    return ordered_sum(np.concatenate([springs, penalty]))


# -- domain helpers ----------------------------------------------------------


def _cell_box(spec: LatticeSpec, points, epsilon: float):
    """The first and last cell ``(ci, cj)``, as floats, of the window of
    :func:`_cell_window`, so that its cells can be counted before any is
    made; an entry is ``inf`` or NaN, with no warning, where the window
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        frac = (np.asarray(points, dtype=float) / epsilon) @ np.linalg.inv(spec.cell_matrix).T
        return np.floor(frac.min(axis=0)) - 2, np.ceil(frac.max(axis=0)) + 2


def _cell_window(spec: LatticeSpec, points, epsilon: float):
    """The lattice cells ``(ci, cj)``, row-major, of the box in lattice
    coordinates that holds ``points`` ``(n, 2)`` scaled by ``1 / epsilon``,
    widened by two cells on every side."""
    lo, hi = (end.astype(int) for end in _cell_box(spec, points, epsilon))
    ci, cj = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1),
                         indexing="ij")
    return ci.ravel(), cj.ravel()


def _rectangle_box(polygon):
    """The corners ``lo``, ``hi`` of the axis-aligned rectangle whose four
    corners ``polygon`` lists in order, in either orientation."""
    p = np.asarray(polygon, dtype=float)
    if p.shape == (4, 2):
        # each edge moves along one axis, the other one than the edge before
        moved = np.roll(p, -1, axis=0) != p
        if (moved.any(axis=1) & (moved != np.roll(moved, 1, axis=0)).all(axis=1)).all():
            return p.min(axis=0), p.max(axis=0)
    raise ValueError("the domain must be an axis-aligned rectangle given by its four "
                     f"corners in order, got {p.tolist()}")


@dataclass
class DomainEnergyReport:
    """The counted ``cells`` ``(n, 2)``, rows ``(ci, cj)`` in row-major
    order, their scaled ``energies`` ``(n,)`` and ``total``, their sum."""

    total: float
    cells: np.ndarray
    energies: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def max_cell(self) -> float:
        return float(self.energies.max())


def domain_energy(lmap: LatticeMap, polygon, eta: float) -> DomainEnergyReport:
    """Sum of scaled cell energies over every lattice cell compactly
    contained in ``polygon``: the four corners, in order, of an
    axis-aligned rectangle (``ConformalTarget.polygon`` or its reverse;
    anything else raises ``ValueError``).  A cell counts when all of its
    cover vertices lie strictly inside the rectangle's open box, which,
    being convex, then holds the whole cell."""
    spec = lmap.spec
    _check_eta(eta, spec.penalized_area, 1)
    lo, hi = _rectangle_box(polygon)
    eps = lmap.epsilon
    # return_inverse: a plain np.unique imports numpy.ma (numpy >= 2.3)
    verts = np.unique(spec.node_positions(spec.cover_keys).reshape(-1, 2).round(12), axis=0,
                      return_inverse=True)[0]
    ci, cj = _cell_window(spec, polygon, eps)
    pts = eps * (verts[None] + ci[:, None, None] * spec.v1 + cj[:, None, None] * spec.v2)
    keep = ((lo < pts) & (pts < hi)).all(axis=(1, 2))
    ci, cj = ci[keep], cj[keep]
    if not len(ci):
        raise ValueError("no lattice cell is compactly contained in the rectangle")

    energies = _cell_energies(lmap, eta, ci, cj)
    return DomainEnergyReport(
        total=float(ordered_sum(energies)),  # sequential, in cell order
        cells=np.column_stack([ci, cj]),
        energies=energies,
    )


# ---------------------------------------------------------------------------
# cell-level energy bounds
# ---------------------------------------------------------------------------


@dataclass
class CellBoundsReport:
    """Fitted constants for the single-cell energy sandwich

    ``max(C2 * (|grad u|^2 - D2 |U|), 0)  <=  E  <=  C1 * (|grad u|^2 + |U|)``

    where ``|grad u|^2`` is the squared L2 norm over the cover and ``D2``
    is calibrated on the zero-energy (mechanism) samples supplied.
    ``C2`` is fitted on the ``n_positive_slack`` samples with positive
    energy and positive slack ``|grad u|^2 - D2 |U|``; it is ``inf`` when
    there are none."""

    C1: float
    C2: float
    D2: float
    n_samples: int
    n_zero_energy: int
    n_positive_slack: int


def check_cell_bounds(
    spec: LatticeSpec,
    n_samples: int = 10000,
    eta: float = 0.05,
    seed: int = 0,
    extra_deformations: Iterable[PeriodicDeformation] = (),
) -> CellBoundsReport:
    """Sample single-cell deformations and fit the sandwich constants.

    Samples are ``u = lam x + noise`` with matrix entries and nodal noise
    componentwise uniform in ``[-3, 3]``, plus the identity, a few pure
    rotations, and any supplied zero-energy deformations (restricted to
    one cell).  All fitted constants must come out finite and positive.
    """
    rng = np.random.default_rng(seed)
    keys = _cell_keys(spec)
    X = spec.node_positions(keys)
    cell = LatticeMap(spec, 1.0, keys, X)
    nr = len(keys)

    lam = rng.uniform(-3, 3, size=(n_samples, 2, 2))
    noise = rng.uniform(-3, 3, size=(n_samples, nr, 2))
    U = np.einsum("sab,nb->sna", lam, X) + noise

    # deterministic zero-energy states: identity, rotations, supplied modes
    special = [X.copy()]
    for ang in (0.4, 1.1, 2.5):
        special.append(X @ rotation(ang).T)
    for defm in extra_deformations:
        special.append(defm.node_positions(keys))
    U = np.concatenate([U, np.asarray(special)], axis=0)
    n_tot = U.shape[0]

    # the rows of each class's nodes among the cell's keys
    sa, sb = cell.rows(spec.spring_keys, 0, 0)[..., 0].T
    t0, t1, t2 = cell.rows(spec.penalized_keys, 0, 0)[..., 0].T
    lengths = np.linalg.norm(U[:, sb] - U[:, sa], axis=2)
    cross = cross2(U[:, t1] - U[:, t0], U[:, t2] - U[:, t0])
    E = ordered_sum(np.concatenate([
        (spec.spring_stiffness * (lengths - spec.spring_rest) ** 2).T,
        np.where(cross > 0, 0.0, spec.penalized_area / eta).T]))

    grad2 = np.zeros(n_tot)
    cover = cell.rows(spec.cover_keys, 0, 0)[..., 0]
    q0, q1, q2 = X[cover.T]
    dinvs = np.linalg.inv(np.stack([q1 - q0, q2 - q0], axis=-1))
    areas = 0.5 * cross2(q1 - q0, q2 - q0)
    for (i0, i1, i2), dinv, area in zip(cover, dinvs, areas.tolist()):
        G = np.einsum("snk,kl->snl", np.stack(
            [U[:, i1] - U[:, i0], U[:, i2] - U[:, i0]], axis=2), dinv)
        grad2 += area * np.einsum("sij,sij->s", G, G)

    area_U = spec.cell_area
    zero = E <= 1e-18
    D2 = float(np.max(grad2[zero]) / area_U) if np.any(zero) else 0.0
    C1 = float(np.max(E / (grad2 + area_U)))
    slack = grad2 - D2 * area_U
    pos = (~zero) & (slack > 1e-9)
    C2 = float(np.min(E[pos] / slack[pos])) if np.any(pos) else np.inf
    return CellBoundsReport(
        C1=C1, C2=C2, D2=D2, n_samples=n_tot,
        n_zero_energy=int(zero.sum()), n_positive_slack=int(pos.sum()),
    )
