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

import numpy as np

from .lattice import (LatticeSpec, PeriodicDeformation, Supercell, _cell_keys, cross2,
                      edge_vectors, lam_times, norms, ordered_sum, unique_rows)

__all__ = [
    "EnergyBreakdown",
    "energy_breakdown",
    "smoothed_energy_grad",
    "LatticeMap",
    "DomainEnergyReport",
    "domain_energy",
]

_LEN_FLOOR = 1e-12  # times a spring's rest length, guards normalizing a nearly collapsed one

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


def _dets(d1, d2, cross0) -> np.ndarray:
    """``det(grad u)`` of triangles from their deformed edges ``d1`` =
    ``P0 -> P1`` and ``d2`` = ``P0 -> P2`` (components on the trailing
    axis): the deformed cross product over the reference one, ``cross0``,
    which broadcasts against it."""
    return cross2(d1, d2) / cross0


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


def energy_breakdown(defm: PeriodicDeformation, eta: float) -> EnergyBreakdown:
    """Exact penalized energy with the per-triangle decomposition."""
    cell = defm.cell
    _check_eta(eta, cell.tri_area, cell.k * cell.k)
    kk = cell.k * cell.k
    ns = len(cell.spring_rest)
    tail, head, dx = cell.edges
    d = edge_vectors(defm.psi.reshape(1, -1), tail, head, lam_times(defm.lam[None], dx))[0]
    lengths = np.linalg.norm(d[:ns], axis=2)
    spring_e = cell.spring_stiffness[:, None] * (lengths - cell.spring_rest[:, None]) ** 2

    # attribution rows added up per triangle in row order
    n_pen = len(cell.tri_cross0)
    share = cell.attr_weight[:, None] * spring_e[cell.attr_spring[:, None], cell.attr_cells]
    target = cell.attr_triangle[:, None] * kk + np.arange(kk)
    per_spring = np.bincount(target.ravel(), share.ravel(),
                             minlength=n_pen * kk).reshape(n_pen, kk)

    dets = _dets(*d[ns:].reshape(2, n_pen, kk, 2), cell.tri_cross0[:, None])
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
    """The objective ``f(X, at) -> (E, G)`` that :func:`_lbfgsb` minimizes:
    the energy ``E`` ``(B,)`` and gradient ``G`` of each of the ``B`` rows
    of ``X``, of the spring classes (when ``springs``), then of the
    penalized triangles (when ``penalty`` maps their ``det(grad u)``
    ``(B, nt, k*k)`` to two final arrays, the per-class energies ``(B, nt)``
    and the derivative in ``det`` ``(B, nt, k*k)``).  A penalty settles its
    own non-finite rows: a row of zero slopes has zero penalty gradients.
    With fixed gradients ``lam`` ``(R, 2, 2)`` a row is a flat ``psi``
    ``(2 n,)`` at ``lam[at[i]]``, and ``G`` is the ``psi`` gradient;
    otherwise a row is ``(lam.ravel(), psi)``, ``at`` is not read, and
    ``G`` is ``(glam.ravel(), gpsi)``.

    Everything that does not depend on ``X`` is built here once: the
    slices of ``cell.edges`` and ``cell.scatter``, the constants of the
    springs and, with fixed ``lam``, the products
    :func:`~latmech.lattice.lam_times` of all ``R`` and ``dx``.  The
    buffers are one set, made at the tallest stack seen so far; a shorter
    stack writes the first ``B`` rows, so a stack whose height falls row
    by row allocates nothing.  The results are new arrays on every call.

    Each row has the bits of evaluating it alone, in a stack of one.  One
    :func:`~latmech.lattice.edge_vectors` gather of the needed edge
    classes, one value buffer filled in the order of ``cell.scatter`` and
    one ``bincount``, its bins offset by the row length per row: totals
    run class by class and the scatter in stream order, as ``+=`` and
    ``np.add.at`` loops over the classes would.  The operations are those of
    ``np.linalg.norm(axis=2)`` and ``np.sum``, spelled out to save the calls.
    """
    ns, nt, kk = len(cell.spring_rest), len(cell.tri_area), cell.k * cell.k
    n_s, n_t = (ns if springs else 0), (nt if penalty else 0)
    tail, head, dx = (a[ns - n_s:ns + 2 * n_t] for a in cell.edges)
    fixed = lam is not None
    if fixed:
        ldx = lam_times(lam, dx)
    size = 2 * cell.n_nodes
    width = size if fixed else 4 + size     # a row of X and of G
    bins = cell.scatter[4 * (ns - n_s) * kk:(4 * ns + 6 * n_t) * kk]
    rest = cell.spring_rest[:, None]
    floor = _LEN_FLOOR * rest
    twice_k = 2.0 * cell.spring_stiffness[:, None]
    cross0 = cell.tri_cross0[:, None]
    tallest = []    # the one buffer set, of the tallest stack seen

    def stack_buffers(B):
        """Views of the first ``B`` rows of the buffers, which are made
        anew only for a stack taller than any before."""
        if not tallest or len(tallest[0]) < B:
            # a leading zero column makes the totals the ordered sums of the terms
            tallest[:] = (np.zeros((B, 1 + n_s + n_t)),
                          np.zeros((B, 0 if fixed else 1 + n_s + n_t, 2, 2)),
                          np.empty((B, len(bins))),
                          # a row's psi gradient comes after its lam gradient, if any
                          (bins + width * np.arange(B)[:, None] + width - size).ravel())
        E, glam, values, rows = tallest
        values = values[:B]
        return (E[:B], glam[:B], values,
                values[:, :4 * n_s * kk].reshape(B, n_s, 2, kk, 2),   # head, tail
                values[:, 4 * n_s * kk:].reshape(B, n_t, 3, kk, 2),   # P1, P2, P0
                rows[:B * len(bins)])

    def f(X, at):
        B = len(X)
        E, glam, values, v_s, v_t, rows = stack_buffers(B)
        ldx_B = ldx[at] if fixed else lam_times(X[:, :4].reshape(B, 2, 2), dx)
        d = edge_vectors(X[:, width - size:], tail, head, ldx_B)
        if springs:
            sx, sy = d[:, :ns, :, 0], d[:, :ns, :, 1]
            lengths = np.sqrt(sx * sx + sy * sy)
            np.multiply(cell.spring_stiffness, np.add.reduce((lengths - rest) ** 2, axis=2),
                        out=E[:, 1:1 + ns])
            coeff = twice_k * (1.0 - rest / np.maximum(lengths, floor))
            g = np.multiply(coeff[..., None], d[:, :ns], out=v_s[:, :, 0])
            np.negative(g, out=v_s[:, :, 1])
            if not fixed:
                np.multiply(np.add.reduce(g, axis=2)[..., None], dx[:ns, None, :],
                            out=glam[:, 1:1 + ns])

        if penalty:
            d1, d2 = d[:, n_s:n_s + nt], d[:, n_s + nt:]
            E[:, 1 + n_s:], dE_ddet = penalty(_dets(d1, d2, cross0))
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

        G = np.bincount(rows, values.ravel(), minlength=B * width).reshape(B, width)
        if not fixed:
            G[:, :4] = np.add.accumulate(glam, axis=1)[:, -1].reshape(B, 4)
        return np.add.accumulate(E, axis=1)[:, -1], G

    return f


def _smoothed(cell: Supercell, eta: float, tau: float):
    """The sigmoid-smoothed orientation penalty of :func:`_kernel` at ``(eta, tau)``,
    per-class energies and slopes, by scipy's compiled ``expit`` ufunc (the
    one ``scipy.special.expit`` is), loaded by :func:`_scipy_extension` with
    no scipy package.  The quotient ``-det / tau`` may overflow unwarned:
    ``expit`` of ``+-inf`` is exactly its limit 1 or 0."""
    expit = _scipy_extension("special", "_special_ufuncs", "expit").expit

    unit = cell.tri_area / eta
    slope = -(cell.tri_area / (eta * tau))[:, None]

    def penalty(det):
        with np.errstate(over="ignore"):
            sig = expit(-det / tau)
        return unit * np.add.reduce(sig, axis=2), slope * sig * (1.0 - sig)

    return penalty


def _barrier(mu: float):
    """The log-barrier ``-mu * sum log det`` of :func:`_kernel` at ``mu``,
    its per-class energies and slopes: on a row with an orientation that
    is not positive every energy is ``inf`` and every slope ``0.0``, and no
    ``log`` or quotient of its ``det`` is taken."""
    def penalty(det):
        infinite = (det <= 0).any(axis=(1, 2))
        if infinite.any():
            det = np.where(infinite[:, None, None], 1.0, det)
        E, slope = -mu * np.add.reduce(np.log(det), axis=2), -mu / det
        E[infinite], slope[infinite] = np.inf, 0.0
        return E, slope

    return penalty


def smoothed_energy_grad(cell: Supercell, lam, psi, eta: float, tau: float):
    """The spring energy plus the sigmoid-smoothed orientation penalty,
    with gradients ``(E, glam, gpsi)``, by :func:`_kernel` on one
    variable-``lam`` row ``(lam.ravel(), psi)``.

    The smoothed penalty is ``area / eta * expit(-det / tau)``; it tends to
    the exact step as ``tau -> 0`` and exists only to give descent methods
    a usable gradient.  Reported energies must use
    :func:`energy_breakdown` instead.
    """
    E, G = _kernel(cell, True, _smoothed(cell, eta, tau))(
        np.concatenate([np.ravel(lam), np.ravel(psi)], dtype=float)[None], None)
    return float(E[0]), G[0, :4].reshape(2, 2), G[0, 4:].reshape(-1, 2)


def _lbfgsb(f, X0, maxiter: int, ftol: float, gtol: float):
    """Minimize ``f(X, at) -> (E, G)`` from each start of the stack ``X0``
    ``(B, n)`` by scipy's compiled L-BFGS-B step with no bounds; returns
    one ``(x, nit, status, message, g)`` per row.  ``at`` holds the index
    in ``X0`` of each row of ``X``.  ``f`` is a :func:`_kernel`, whose rows
    are flat ``psi`` at the fixed ``lam[at[i]]`` or ``(lam.ravel(), psi)``,
    or a function of the same contract over another row layout.

    Each row is the loop of ``scipy.optimize.minimize(f1, x0, jac=True,
    method="L-BFGS-B", options={"maxiter": maxiter, "ftol": ftol,
    "gtol": gtol})`` on that row alone, with ``f1`` the row's ``f`` on a
    stack of one (10 corrections, 20 line-search steps, at most 15000
    evaluations; status 0 converged, 1 a limit hit, 2 anything else, and
    scipy's messages), without its Python wrappers.  Every row keeps its
    own ``setulb`` state and runs until it asks for an evaluation or
    stops; then ``f`` is called once on the stack of the rows that asked,
    with their indices, and the round repeats until every row has
    stopped.  ``f`` must give each row the bits of evaluating it alone;
    then each row's ``x``, ``nit``, ``status``, ``message`` and final
    gradient ``g`` are those of ``minimize`` on it, bit for bit.  ``minimize`` neither repeats nor
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
    once; :meth:`placed` keeps the instances whose every node the map
    holds.  These two arrays are the map's one layout.  The reference
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

    def placed(self, keys, ci, cj):
        """The instances of the integer rows ``keys`` ``(n_cls, n_ends, 3)``
        over the cells ``(ci, cj)`` whose every node the map holds, in
        (class, cell) order: ``(cls, rows)``, each one's class ``(m,)`` and
        the ``(n_ends, m)`` rows of its ends, each end C-contiguous."""
        rows = self.rows(keys, ci, cj)
        kept = (rows >= 0).all(axis=1)
        return np.nonzero(kept)[0], np.stack([end[kept] for end in rows.transpose(1, 0, 2)])

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
        base = np.floor(np.matmul(Minv, points[:, :, None])[:, :, 0]).astype(int)
        todo = np.arange(len(points))
        for di in (0, -1, 1, -2, 2):
            for dj in (0, -1, 1, -2, 2):
                rows = self.rows(spec.cover_keys, base[todo, 0] + di, base[todo, 1] + dj)
                d = points[todo] - self.reference_positions[rows[:, 0]]
                bary = np.matmul(dinvs[:, None], d[..., None])[..., 0]
                bsum = bary[..., 0] + bary[..., 1]
                hits = ((rows >= 0).all(axis=1) & (bary[..., 0] >= -1e-9)
                        & (bary[..., 1] >= -1e-9) & (bsum <= 1 + 1e-9))
                hit = hits.any(axis=0)
                at = np.flatnonzero(hit)
                tri = hits[:, hit].argmax(axis=0)
                u0, u1, u2 = self.positions[rows[tri, :, at].T]
                b0, b1 = bary[tri, at, 0:1], bary[tri, at, 1:2]
                values[todo[hit]] = (1 - bsum[tri, at, None]) * u0 + b0 * u1 + b1 * u2
                grads[todo[hit]] = np.matmul(np.stack([u1 - u0, u2 - u0], axis=-1), dinvs[tri])
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
    dets = _dets(p1 - p0, p2 - p0, (2 * spec.penalized_area * eps * eps)[:, None])
    # a triangle that keeps its orientation adds 0.0, which leaves the sum as is
    penalty = np.where(dets <= 0, (eps * eps * spec.penalized_area / eta)[:, None], 0.0)
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
