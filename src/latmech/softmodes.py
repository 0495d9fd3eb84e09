"""Soft modes: spatial modulation of the twist by a conformal target.

A compressive conformal map (holomorphic ``f`` with ``|f'| <= 1``) can be
tracked by the lattice at asymptotically vanishing cost: each rigid unit
is put into the local twist state whose contraction matches ``|f'|`` at
the unit's scaled position, rotated by ``arg f'`` and anchored at ``f``.
A short, strictly local spring relaxation (fixed sweep budget, each node
tethered to its constructed placement so nothing drifts globally)
reconciles neighboring units.  The area-averaged energy of the resulting
maps decays as the cell size ``epsilon`` shrinks, and their
coarse-grained gradients approach scaled rotations with vanishing
Cauchy-Riemann residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import LatticeMap, _cell_window, domain_energy
from .geometry import conformal_check
from .lattice import LatticeSpec, norms, rotation, unique_rows
from .mechanisms import _twist_contraction_table, _unit_members, _walk_units, rigid_units

__all__ = [
    "ConformalTarget",
    "default_target",
    "modulate",
    "SoftModeReport",
    "decay_exponent",
    "ladder_exponents",
    "soft_mode_report",
    "WeakLimitReport",
    "weak_limit_check",
]


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalTarget:
    """A polynomial holomorphic map on a rectangle, with ``|f'| <= 1``.

    ``coeffs`` are the ascending complex polynomial coefficients of ``f``;
    ``domain`` is ``(x0, x1, y0, y1)``.  Compressiveness is checked on a
    sampling grid at construction.
    """

    coeffs: tuple
    domain: tuple

    def __post_init__(self):
        # a NaN derivative would pass the compressiveness check below
        if not np.isfinite(np.asarray(self.coeffs, dtype=complex)).all():
            raise ValueError(f"target coefficients must be finite, got {self.coeffs!r}")
        x0, x1, y0, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"empty target domain {self.domain!r}")
        if self.max_derivative > 1.0 + 1e-9:
            raise ValueError(
                f"target is not compressive: max |f'| = {self.max_derivative:.6f} > 1"
            )

    def _sample_grid(self):
        x0, x1, y0, y1 = self.domain
        xs, ys = np.meshgrid(np.linspace(x0, x1, 101), np.linspace(y0, y1, 101))
        return xs + 1j * ys

    def value(self, z):
        return np.polyval(list(self.coeffs[::-1]), np.asarray(z, dtype=complex))

    def derivative(self, z):
        dcoeffs = [n * c for n, c in enumerate(self.coeffs)][1:] or [0.0]
        return np.polyval(dcoeffs[::-1], np.asarray(z, dtype=complex))

    @property
    def max_derivative(self) -> float:
        return float(np.abs(self.derivative(self._sample_grid())).max())

    @property
    def min_derivative(self) -> float:
        return float(np.abs(self.derivative(self._sample_grid())).min())

    @property
    def polygon(self) -> np.ndarray:
        x0, x1, y0, y1 = self.domain
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    @property
    def area(self) -> float:
        x0, x1, y0, y1 = self.domain
        return (x1 - x0) * (y1 - y0)


def default_target() -> ConformalTarget:
    """The built-in non-constant target ``f(z) = z - z^2/4`` on
    ``[0.2, 1.2] x [-0.5, 0.5]``, where ``|f'|`` stays within about
    ``[0.40, 0.94]`` -- strictly inside the reachable twist range."""
    return ConformalTarget(coeffs=(0.0, 1.0, -0.25),
                           domain=(0.2, 1.2, -0.5, 0.5))


# ---------------------------------------------------------------------------
# angles and interpolation
# ---------------------------------------------------------------------------


def _wrap_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def _pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant (PCHIP) through
    ``(x, y)``, extrapolated from the end intervals.

    ``x`` is strictly increasing and ``y`` has ``len(x)`` rows (any
    trailing shape).  Returns a callable whose value at ``v`` has shape
    ``shape(v) + shape(y)[1:]``; NaN maps to NaN.  The derivatives,
    coefficients and evaluation repeat the floating-point operations of
    scipy's ``PchipInterpolator`` one for one, so the values agree with it
    bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        d = np.concatenate([m, m])
    else:
        # interior: weighted harmonic mean of the adjacent slopes, zero
        # where they differ in sign or either vanishes
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))

        def edge(h0, h1, m0, m1):
            # one-sided three-point estimate, kept shape-preserving
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            wrong_sign = np.sign(e) != np.sign(m0)
            overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            return np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, e))

        d = np.concatenate([edge(h[0], h[1], m[0], m[1])[None], inner,
                            edge(h[-1], h[-2], m[-1], m[-2])[None]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def evaluate(v):
        v = np.asarray(v, dtype=np.float64)
        i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, len(x) - 2)
        s = (v - x[i]).reshape(v.shape + (1,) * (y.ndim - 1))
        ss = s * s
        return (((0.0 + c3[i]) + c2[i] * s) + c1[i] * ss + c0[i] * (ss * s))[()]

    return evaluate


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------


_OMEGA = 0.5     # damping of each Jacobi sweep
_TETHER = 0.5    # weight pulling each node back to its constructed position


def _relax(lmap: LatticeMap, ci, cj, sweeps: int):
    """Tethered damped-Jacobi sweeps over every spring instance in the
    cells ``(ci, cj)`` whose two ends the map holds, taken in (spring
    class, cell) order; returns the relaxed positions."""
    spec, eps, pos0 = lmap.spec, lmap.epsilon, lmap.positions
    cls, rows = lmap.placed(spec.spring_keys, ci, cj)
    ia, ib = rows
    rest = (eps * spec.spring_rest)[cls]
    stiff = spec.spring_stiffness[cls]
    wsum = np.full(len(pos0), _TETHER)
    np.add.at(wsum, ia, stiff)
    np.add.at(wsum, ib, stiff)
    # per coordinate, one np.add.at over [ia, ib] adds the pulls in the
    # order scatters over ia and then over ib would; contiguous 1-D
    # arrays take numpy's fast path.  The pulls of both ends go to one
    # buffer that every sweep and coordinate reuses.
    m = len(ia)
    ends, stiff2 = rows.ravel(), np.concatenate([stiff, stiff])
    tether_x, tether_y = _TETHER * pos0[:, 0], _TETHER * pos0[:, 1]
    pulls = np.empty(2 * m)
    x, y = pos0.T.copy()
    for _ in range(sweeps):
        xa, xb, ya, yb = x.take(ia), x.take(ib), y.take(ia), y.take(ib)
        dx, dy = xa - xb, ya - yb
        # sqrt(dx^2 + dy^2) is what np.linalg.norm(d, axis=1) computes
        lengths = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-300)
        rx, ry = rest * (dx / lengths), rest * (dy / lengths)
        pull_x, pull_y = tether_x.copy(), tether_y.copy()
        for pull, a, b, r in ((pull_x, xa, xb, rx), (pull_y, ya, yb, ry)):
            np.add(b, r, out=pulls[:m])
            np.subtract(a, r, out=pulls[m:])
            np.multiply(stiff2, pulls, out=pulls)
            np.add.at(pull, ends, pulls)
        x = (1 - _OMEGA) * x + _OMEGA * pull_x / wsum
        y = (1 - _OMEGA) * y + _OMEGA * pull_y / wsum
    return np.column_stack([x, y])


def modulate(
    spec: LatticeSpec,
    target: ConformalTarget,
    epsilon: float,
    relax_sweeps: int = 200,
) -> LatticeMap:
    """Build the modulated deformation at cell size ``epsilon``.

    Every rigid unit whose nodes touch the target domain is placed
    rigidly: put into the twist state whose contraction matches ``|f'|``
    at the unit center (its angle ``+-theta``, by parity, interpolated
    over the twist's contraction table), rotated by the tree-unwrapped
    argument of ``f'``, and anchored at ``f`` of the center.  Nodes
    shared by several units take the average placement, followed by
    ``relax_sweeps`` damped Jacobi spring sweeps.  Each sweep
    pulls a node toward local spring equilibrium while a tether weight
    holds it near its constructed position, so the relaxation stays local
    and the ``epsilon``-scaling reflects the construction rather than
    global optimization.

    Raises :class:`ValueError` when ``|f'|`` falls below the table's
    smallest contraction at a unit inside the domain (the location is
    reported); boundary-overhanging units are clamped into
    ``[cs.min(), 1]`` instead.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"cell size epsilon must be positive and finite, got {epsilon:g}")
    if relax_sweeps < 0:
        raise ValueError(f"relax_sweeps must be >= 0, got {relax_sweeps}")
    units = rigid_units(spec)
    thetas, cs = _twist_contraction_table(spec)
    c_min = cs.min()

    x0, x1, y0, y1 = target.domain

    def inside(p):
        return (x0 <= p[:, 0]) & (p[:, 0] <= x1) & (y0 <= p[:, 1]) & (p[:, 1] <= y1)

    # candidate unit instances (ci, cj, u), in that order, over the cell
    # window of the target rectangle; keep those with any node inside the
    # domain.  Memberships list each instance's nodes in unit order.
    CI, CJ = _cell_window(spec, target.polygon, epsilon)
    n_units = len(units)
    mem_inst, mem_key = _unit_members(units, CI, CJ)
    mem_pos = epsilon * spec.node_positions(mem_key)
    kept = np.bincount(mem_inst, weights=inside(mem_pos), minlength=len(CI) * n_units) > 0
    if not kept.any():
        raise ValueError("target domain contains no lattice cells at this epsilon")
    sel = kept[mem_inst]
    mem_inst = (np.cumsum(kept) - 1)[mem_inst[sel]]
    mem_key, mem_pos = mem_key[sel], mem_pos[sel]
    inst_flat = np.flatnonzero(kept)
    inst_unit = inst_flat % n_units
    n_inst = len(inst_flat)
    keys, mem_node = unique_rows(mem_key, return_inverse=True)

    # unit centers: members averaged per instance, grouped by unit size
    size = np.array([len(unit.nodes) for unit in units])[inst_unit]
    centers = np.empty((n_inst, 2))
    for m in unique_rows(size[:, None])[:, 0]:
        has = size == m
        centers[has] = mem_pos[has[mem_inst]].reshape(-1, m, 2).mean(axis=1)

    # local contraction per unit, clamped only for boundary overhang
    fp = target.derivative(centers[:, 0] + 1j * centers[:, 1])
    c = np.hypot(fp.real, fp.imag)
    low = (c < c_min - 1e-9) & inside(centers)
    if low.any():
        n = int(np.argmax(low))
        z = centers[n]
        raise ValueError(
            f"|f'| = {c[n]:.6f} at ({z[0]:.4f}, {z[1]:.4f}) is below the "
            f"reachable mechanism contraction {c_min:.6f}"
        )
    c_loc = np.minimum(np.maximum(c, c_min), 1.0)

    # unwrap arg f' along the walk over the unit adjacency, depth by depth:
    # each instance takes the branch nearest the one it was reached from;
    # instances never reached (disconnected pockets) keep the principal one
    order, parent, depth = _walk_units(mem_inst, mem_node, n_inst)
    phi = np.angle(fp)
    level_at = np.cumsum(np.bincount(depth[order])).tolist()
    for a, b in zip(level_at, level_at[1:]):
        lev = order[a:b]
        up = phi[parent[lev]]
        phi[lev] = up + _wrap_angle(phi[lev] - up)

    # rigid placement: each unit turns by +theta or -theta by its parity,
    # theta interpolated over the contraction table in ascending order
    sign = 1 - 2 * np.array([unit.parity for unit in units])
    turns = _pchip(cs[::-1], sign * thetas[::-1, None])(c_loc)
    R = rotation(phi) @ rotation(turns[np.arange(n_inst), inst_unit])
    zc = np.empty(n_inst, dtype=complex)
    zc.real, zc.imag = centers[:, 0], centers[:, 1]
    w = target.value(zc)
    anchor = np.column_stack([w.real, w.imag])
    rel = (mem_pos - centers[mem_inst])[:, :, None]
    placed = anchor[mem_inst] + (R[mem_inst] @ rel)[:, :, 0]

    # node averaging in instance order, one contiguous 1-D scatter per
    # coordinate (-0.0 is the exact additive identity)
    count = np.bincount(mem_node, minlength=len(keys))
    pos0 = np.empty((len(keys), 2))
    for c in range(2):
        total = np.full(len(keys), -0.0)
        np.add.at(total, mem_node, placed[:, c].copy())
        pos0[:, c] = total / count
    pos = _relax(LatticeMap(spec, epsilon, keys, pos0), CI, CJ, relax_sweeps)
    return LatticeMap(spec, epsilon, keys, pos)


# ---------------------------------------------------------------------------
# scaling and weak-limit reports
# ---------------------------------------------------------------------------


@dataclass
class SoftModeReport:
    """The soft-mode table: area-averaged energy and weak-limit
    diagnostics of modulated maps across cell sizes.

    ``fitted_exponent`` is the least-squares slope of ``log energy``
    against ``log epsilon`` (positive = decay); it is undefined (NaN)
    when the energies are too small to carry a meaningful trend, e.g.
    for uniform targets that the mechanism matches exactly.  ``weak``
    holds the distance of the same maps from the target.
    """

    energy_densities: tuple
    max_cell_energies: tuple
    n_cells: tuple
    fitted_exponent: float
    weak: WeakLimitReport

    @property
    def exponent_defined(self) -> bool:
        return not np.isnan(self.fitted_exponent)

    @property
    def monotone_violation_fraction(self) -> float:
        e = np.asarray(self.energy_densities)
        if len(e) < 2:
            return 0.0
        return float(np.mean(e[1:] > e[:-1]))

    @property
    def final_over_first(self) -> float:
        return self.energy_densities[-1] / self.energy_densities[0]

    def rows(self):
        """The ``soft_mode.csv`` rows, one per map, in its column order."""
        w = self.weak
        return zip(w.eps_list, self.n_cells, self.energy_densities,
                   self.max_cell_energies, w.l2_errors, w.cr_residuals,
                   w.max_factors, w.n_boxes)


def decay_exponent(eps_list, densities) -> float:
    """Least-squares slope of ``log density`` against ``log epsilon``;
    NaN unless there are two or more distinct ``epsilon``, and every
    density is above the solver floor ``1e-10``."""
    e = np.asarray(densities, dtype=float)
    eps = np.asarray(eps_list, dtype=float)
    # return_inverse: a plain np.unique imports numpy.ma (numpy >= 2.3)
    if len(np.unique(eps, return_inverse=True)[0]) < 2 or not (e > 1e-10).all():
        return float("nan")
    return float(np.polyfit(np.log(eps), np.log(e), 1)[0])


def ladder_exponents(eps_list, densities):
    """The asymptotics of a ladder of distinct ``epsilon``, coarse to
    fine: the decay exponent between each pair of successive rungs, and
    the one fitted over the finest half of the ladder (at least two
    rungs), with that half's ``epsilon``.  A single fit over every rung
    mixes in the pre-asymptotic coarse rungs."""
    order = np.argsort(-np.asarray(eps_list, dtype=float), kind="stable")
    eps = np.asarray(eps_list, dtype=float)[order]
    dens = np.asarray(densities, dtype=float)[order]
    steps = tuple(decay_exponent(eps[i:i + 2], dens[i:i + 2]) for i in range(len(eps) - 1))
    half = max(2, (len(eps) + 1) // 2)
    return steps, decay_exponent(eps[-half:], dens[-half:]), tuple(eps[-half:].tolist())


def soft_mode_report(
    maps: Sequence[LatticeMap],
    target: ConformalTarget,
    eta: float = 0.05,
) -> SoftModeReport:
    """Tabulate maps already modulated toward ``target`` (see
    :func:`modulate`), in the order given: the domain energy per target
    area, the worst per-cell energy, the fitted decay exponent, and the
    weak-limit check."""
    weak = weak_limit_check(maps, target)
    densities, max_cells, n_cells = [], [], []
    for lmap in maps:
        rep = domain_energy(lmap, target.polygon, eta)
        densities.append(rep.total / target.area)
        max_cells.append(rep.max_cell)
        n_cells.append(rep.n_cells)
    return SoftModeReport(
        energy_densities=tuple(densities),
        max_cell_energies=tuple(max_cells),
        n_cells=tuple(n_cells),
        fitted_exponent=decay_exponent(weak.eps_list, densities),
        weak=weak,
    )


@dataclass
class WeakLimitReport:
    """Distance of the modulated maps from the target, across scales.

    ``l2_errors`` are rms distances to the target on a fixed 12 x 12
    probe grid; ``cr_residuals``, ``max_factors`` and ``n_boxes`` are the
    Cauchy-Riemann residuals, largest conformal factors and sample counts
    of :func:`~latmech.geometry.conformal_check` on the gradients
    coarse-grained over boxes of side ``sqrt(epsilon)``; ``cr_decreasing``
    tells whether the residuals decrease along ``eps_list``."""

    eps_list: tuple
    l2_errors: tuple
    cr_residuals: tuple
    max_factors: tuple
    n_boxes: tuple

    @property
    def cr_decreasing(self) -> bool:
        e = self.cr_residuals
        return all(b <= a for a, b in zip(e, e[1:]))


def _box_gradients(lmap: LatticeMap, bounds, box_size: float):
    """Least-squares affine gradient per box of side ``box_size`` over
    the nodes inside; boxes with fewer than six nodes are skipped.

    Box ``(bi, bj)`` spans ``[lo, hi)`` per axis, ``lo = x0 + bi *
    box_size`` and ``hi = min(lo + box_size, x1)``; the memberships of
    each axis are computed once, and each box takes its nodes in
    ascending order."""
    x0, x1, y0, y1 = bounds
    refs, vals = lmap.reference_positions, lmap.positions
    nx = max(int(np.floor((x1 - x0) / box_size)), 1)
    ny = max(int(np.floor((y1 - y0) / box_size)), 1)

    def within(coord, start, end, n):
        lo = start + np.arange(n) * box_size
        hi = np.minimum(lo + box_size, end)
        return (coord >= lo[:, None]) & (coord < hi[:, None])

    in_y = within(refs[:, 1], y0, y1, ny)
    grads = []
    for in_x in within(refs[:, 0], x0, x1, nx):
        col = np.flatnonzero(in_x)
        for row in in_y:
            box = col[row[col]]
            if len(box) < 6:
                continue
            X = np.column_stack([refs[box], np.ones(len(box))])
            coef, *_ = np.linalg.lstsq(X, vals[box], rcond=None)
            grads.append(coef[:2].T)
    if not grads:
        raise ValueError("no box contained enough nodes for a gradient fit")
    return np.asarray(grads)


def _probe_margin(spec: LatticeSpec, target: ConformalTarget, eps: float) -> float:
    """The probe margin of a ladder whose coarsest cell size is ``eps``:
    1.25 ``eps`` times the longest cover edge, so that the coarsest map
    covers every probe point.  Raises ``ValueError`` when twice the margin
    does not fit inside each side of the target rectangle."""
    x0, x1, y0, y1 = target.domain
    q = spec.node_positions(spec.cover_keys)
    margin = 1.25 * eps * float(norms(q - q[:, [1, 2, 0]]).max())
    if x1 - x0 <= 2 * margin or y1 - y0 <= 2 * margin:
        raise ValueError(f"target domain too small for the probe margin {margin:.6g} "
                         f"of the coarsest cell size {eps:.6g}")
    return margin


def weak_limit_check(lmaps: Sequence[LatticeMap], target: ConformalTarget) -> WeakLimitReport:
    """Check that the maps converge to the target: rms distance on a
    fixed 12 x 12 interior grid, and conformality of the gradients
    coarse-grained over mesoscale boxes of side ``sqrt(epsilon)``, both
    expected to decrease along the list."""
    if not lmaps:
        raise ValueError("need at least one lattice map")
    x0, x1, y0, y1 = target.domain
    eps_list = [lmap.epsilon for lmap in lmaps]
    margin = _probe_margin(lmaps[0].spec, target, max(eps_list))
    px = np.linspace(x0 + margin, x1 - margin, 12)
    py = np.linspace(y0 + margin, y1 - margin, 12)
    points = np.column_stack([m.ravel() for m in np.meshgrid(px, py)])
    fz = target.value(points[:, 0] + 1j * points[:, 1])
    fvals = np.column_stack([fz.real, fz.imag])

    l2s, crs, facs, boxes = [], [], [], []
    for lmap in lmaps:
        values, _ = lmap.interpolate(points)
        l2s.append(float(np.sqrt(np.mean(np.sum((values - fvals) ** 2, axis=1)))))
        grads = _box_gradients(lmap, target.domain, float(np.sqrt(lmap.epsilon)))
        rep = conformal_check(grads)
        crs.append(rep.cr_residual)
        facs.append(rep.max_factor)
        boxes.append(rep.n_fields)
    return WeakLimitReport(
        eps_list=tuple(float(e) for e in eps_list),
        l2_errors=tuple(l2s),
        cr_residuals=tuple(crs),
        max_factors=tuple(facs),
        n_boxes=tuple(boxes),
    )
