"""Exact mechanisms: counter-rotations, searched modes, and domain walls.

The penalized triangles of a lattice glue into *rigid units* wherever two
of them share a full edge (two common nodes).  Units touch at single-node
pin joints, and when the unit adjacency is two-colorable the signature
zero-energy deformation rotates one color class by ``+theta`` and the
other by ``-theta``, with translations determined by chasing the pins.
This module derives the units from the spec, assembles such rotations into
certified periodic deformations, and also assembles the non-periodic
domain wall that interpolates between two one-periodic twist states
through a column-by-column angle recursion.

The order of the pin chase does not depend on the angles.  It is walked
once per window and compiled into a :class:`PlacementPlan` of arrays
(placement order, pins, first placements and shared-node checks), which
then places the units for a whole stack of angle assignments at once.
The twist's plan (:class:`TwistPlan`, cached per spec content and
supercell size) adds the read-offs of ``lam`` and ``psi``, so the probe
grid of the admissible range and the contraction table are one call
each, bit for bit the same as placing one angle at a time.

A numerical mechanism search (spring energy plus annealed determinant
barrier over ``(lam, psi)`` jointly) complements the exact constructions.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Optional

import numpy as np

from .energy import (LatticeMap, barrier_grad, energy_breakdown, spring_energy_grad,
                     triangle_dets)
from .geometry import signed_svd
from .lattice import (
    DegenerateGeometryError,
    LatticeSpec,
    PeriodicDeformation,
    Supercell,
    _slot,
    build_kagome,
    cross2,
    edge_vectors,
    norms,
    rotation,
)

__all__ = [
    "MechanismError",
    "RigidUnit",
    "rigid_units",
    "assemble_rotated_units",
    "MechanismCertificate",
    "certify",
    "Mechanism",
    "twist_mechanism",
    "twist_admissible_range",
    "search_mechanisms",
    "mechanism_tangent_rank",
    "domain_wall_angles",
    "DomainWall",
    "domain_wall_mechanism",
]


class MechanismError(RuntimeError):
    """An exact construction failed to close up to tolerance."""


# ---------------------------------------------------------------------------
# rigid units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidUnit:
    """A maximal edge-glued cluster of penalized triangles.

    ``triangles`` lists ``(triangle_class, (d1, d2))`` cell offsets relative
    to the unit's anchor cell; ``nodes`` the node references covered;
    ``parity`` the color of the unit in the two-coloring of the pin-joint
    adjacency (0 or 1).
    """

    triangles: tuple
    nodes: tuple
    parity: int


def _triangle_node_keys(spec: LatticeSpec, t: int, ci: int, cj: int):
    return [(node, (o1 + ci, o2 + cj)) for node, o1, o2 in spec.penalized_keys[t].tolist()]


@lru_cache(maxsize=64)
def rigid_units(spec: LatticeSpec):
    """Derive the rigid units of a lattice and two-color them.

    Raises if a unit glues to its own lattice translate (a percolating
    rigid line has no counter-rotation) or if the pin adjacency is not
    two-colorable with a one-cell period.
    """
    npen = len(spec.penalized_keys)
    win = range(-2, 3)
    insts = [(t, i, j) for t in range(npen) for i in win for j in win]
    by_node = {}
    for inst in insts:
        for key in _triangle_node_keys(spec, *inst):
            by_node.setdefault(key, []).append(inst)
    shared = Counter()
    for lst in by_node.values():
        for a, b in combinations(sorted(lst), 2):
            shared[(a, b)] += 1

    parent = {inst: inst for inst in insts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), cnt in shared.items():
        if cnt >= 2:
            parent[find(a)] = find(b)

    comps = {}
    for inst in insts:
        comps.setdefault(find(inst), []).append(inst)

    units = []
    seen = set()
    for t in range(npen):
        comp = comps[find((t, 0, 0))]
        t0, i0, j0 = min(comp)
        tris = tuple(sorted((tt, (ii - i0, jj - j0)) for tt, ii, jj in comp))
        if tris in seen:
            continue
        seen.add(tris)
        classes = [x[0] for x in tris]
        if len(set(classes)) != len(classes):
            raise DegenerateGeometryError(
                "a rigid unit contains a lattice translate of itself"
            )
        nodes = set()
        for tt, (di, dj) in tris:
            nodes.update(_triangle_node_keys(spec, tt, di, dj))
        units.append(RigidUnit(tris, tuple(sorted(nodes)), -1))

    # two-color the pin adjacency of unit instances on a window
    unit_nodes = {
        (u, ci, cj): frozenset(
            (n, (o1 + ci, o2 + cj)) for n, (o1, o2) in unit.nodes
        )
        for u, unit in enumerate(units)
        for ci in win
        for cj in win
    }
    node_owner = {}
    for inst, keys in unit_nodes.items():
        for key in keys:
            node_owner.setdefault(key, []).append(inst)
    color = {}
    start = (0, 0, 0)
    color[start] = 0
    queue = deque([start])
    while queue:
        inst = queue.popleft()
        for key in unit_nodes[inst]:
            for other in node_owner[key]:
                if other == inst:
                    continue
                if other not in color:
                    color[other] = 1 - color[inst]
                    queue.append(other)
                elif color[other] == color[inst]:
                    raise DegenerateGeometryError(
                        "pin adjacency of rigid units is not two-colorable"
                    )
    out = []
    for u, unit in enumerate(units):
        cols = {color[(u, ci, cj)] for ci in (0, 1) for cj in (0, 1)
                if (u, ci, cj) in color}
        if len(cols) != 1:
            raise DegenerateGeometryError(
                "unit coloring is not one-cell periodic; no one-periodic "
                "counter-rotation exists"
            )
        out.append(RigidUnit(unit.triangles, unit.nodes, cols.pop()))
    return tuple(out)


# ---------------------------------------------------------------------------
# assembly of prescribed unit rotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementPlan:
    """The pin chase over a window of unit instances, compiled once into
    arrays.

    The breadth-first order in which instances are placed, the pin each is
    anchored at, and which node placements come first or re-check an
    earlier one depend on ``(spec, units, cells)`` only, never on the
    angles.  Instance nodes are stored flat: entry ``f`` belongs to
    instance ``flat_inst[f]`` (in placement order) with reference position
    ``ref[f]``.  Row ``r`` of the placed positions is node reference
    ``keys[r]``, first placed by entry ``src[r]``.
    """

    insts: tuple                  # (u, ci, cj) per instance, placement order
    flat_inst: np.ndarray         # instance of each flat entry
    ref: np.ndarray               # (n_flat, 2) reference positions
    centroid: np.ndarray          # first instance's centroid (its fixed point)
    pin_flat: np.ndarray          # flat entry of each instance's pin (-1: first)
    pin_src: np.ndarray           # flat entry that first placed that pin
    levels: tuple                 # instance indices by pin-chase depth >= 1
    keys: tuple                   # node reference of each row
    src: np.ndarray               # flat entry placing each row first
    check: np.ndarray             # (n_check, 2) pairs (flat entry, row) re-placing a row

    @classmethod
    def compile(cls, spec: LatticeSpec, units, cells: Iterable) -> "PlacementPlan":
        """Walk the breadth-first chase once; raises
        :class:`MechanismError` when the instance graph is disconnected."""
        cells = list(cells)
        insts = [(u, ci, cj) for (ci, cj) in cells for u in range(len(units))]
        inst_keys = {
            (u, ci, cj): [(n, (o1 + ci, o2 + cj)) for n, (o1, o2) in units[u].nodes]
            for (u, ci, cj) in insts
        }
        owner = {}
        for inst, keys in inst_keys.items():
            for key in keys:
                owner.setdefault(key, []).append(inst)

        order, flat_keys, flat_inst, src, check = [], [], [], [], []
        # the first instance turns about its centroid instead of a pin
        pin_flat, pin_src, depth = [-1], [-1], [0]
        placed = set()
        row = {}
        queue = deque()

        def place(inst):
            i = len(order)
            order.append(inst)
            placed.add(inst)
            for key in inst_keys[inst]:
                f = len(flat_keys)
                flat_keys.append(key)
                flat_inst.append(i)
                if key in row:
                    check.append((f, row[key]))
                else:
                    row[key] = len(src)
                    src.append(f)
            queue.append(inst)

        place(insts[0])
        while queue:
            inst = queue.popleft()
            for key in inst_keys[inst]:
                for other in owner[key]:
                    if other in placed:
                        continue
                    j, pin = next((j, kk) for j, kk in enumerate(inst_keys[other])
                                  if kk in row)
                    pin_flat.append(len(flat_keys) + j)
                    pin_src.append(src[row[pin]])
                    depth.append(depth[flat_inst[pin_src[-1]]] + 1)
                    place(other)
        if len(placed) != len(insts):
            raise MechanismError("unit instance graph is disconnected over the given cells")

        flat_inst = np.asarray(flat_inst)
        depth = np.asarray(depth)
        ref = spec.node_positions([(n, o1, o2) for n, (o1, o2) in flat_keys])
        return cls(
            insts=tuple(order),
            flat_inst=flat_inst,
            ref=ref,
            centroid=ref[flat_inst == 0].mean(axis=0),
            pin_flat=np.asarray(pin_flat),
            pin_src=np.asarray(pin_src),
            levels=tuple(np.flatnonzero(depth == d) for d in range(1, depth.max() + 1)),
            keys=tuple(flat_keys[f] for f in src),
            src=np.asarray(src),
            check=np.asarray(check, dtype=int).reshape(-1, 2),
        )

    def place(self, angles):
        """Place every instance rotated by ``angles`` ``(n, n_insts)`` (one
        row of per-instance angles per evaluation, in placement order).

        Returns ``(positions, misfit)``: ``(n, n_rows, 2)`` deformed
        positions per row and the ``(n,)`` largest disagreement between
        the placements of a shared node.  Every product and sum is the one
        the one-angle chase forms, ``R @ x + (pos[pin] - R @ x_pin)``, so
        the bits do not depend on how many angles are stacked.
        """
        R = rotation(np.asarray(angles, dtype=float))
        RX = np.matmul(R[:, self.flat_inst], self.ref[:, :, None])[..., 0]
        tau = np.empty((len(R), len(self.insts), 2))
        tau[:, 0] = self.centroid - np.matmul(R[:, 0], self.centroid[:, None])[..., 0]
        for lev in self.levels:
            p = self.pin_src[lev]
            tau[:, lev] = (RX[:, p] + tau[:, self.flat_inst[p]]) - RX[:, self.pin_flat[lev]]
        pos = RX[:, self.src] + tau[:, self.flat_inst[self.src]]
        f, r = self.check.T
        gap = pos[:, r] - (RX[:, f] + tau[:, self.flat_inst[f]])
        return pos, norms(gap).max(axis=-1, initial=0.0)


def assemble_rotated_units(
    spec: LatticeSpec,
    units,
    cells: Iterable,
    angle_fn: Callable[[int, int, int], float],
):
    """Place every unit instance ``(u, cell)`` rigidly rotated by
    ``angle_fn(u, ci, cj)``, chaining translations through shared pins.

    Returns ``(positions, misfit)``: deformed positions per node reference
    (in placement order) and the largest disagreement between the
    placements of a shared node.  The instance graph must be connected
    over ``cells``.
    """
    plan = PlacementPlan.compile(spec, units, cells)
    pos, misfit = plan.place([[angle_fn(*inst) for inst in plan.insts]])
    return dict(zip(plan.keys, pos[0])), float(misfit[0])


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class MechanismCertificate:
    """Exact evidence that a deformation is (or is not) a mechanism."""

    energy: float                 # exact averaged energy at eta_ref
    eta_ref: float
    max_spring_residual: float    # max | |deformed| - rest | over springs
    min_det: float                # min det(grad u) over penalized triangles
    lam: np.ndarray
    sigma1: float
    sigma2: float
    det_sign: float

    @property
    def isotropy_defect(self) -> float:
        return self.sigma1 - self.sigma2


def certify(defm: PeriodicDeformation, eta_ref: float = 0.1) -> MechanismCertificate:
    bd = energy_breakdown(defm, eta_ref)
    cell = defm.cell
    lengths = np.linalg.norm(edge_vectors(defm.lam, defm.psi, *cell.spring_edges), axis=2)
    resid = float(np.max(np.abs(lengths - cell.spring_rest[:, None])))
    min_det = float(np.min(triangle_dets(defm)))
    sd = signed_svd(defm.lam)
    return MechanismCertificate(
        energy=bd.averaged,
        eta_ref=eta_ref,
        max_spring_residual=resid,
        min_det=min_det,
        lam=defm.lam.copy(),
        sigma1=sd.sigma1,
        sigma2=sd.sigma2,
        det_sign=sd.det_sign,
    )


@dataclass
class Mechanism:
    kind: str
    params: dict
    deformation: PeriodicDeformation
    certificate: MechanismCertificate


# ---------------------------------------------------------------------------
# counter-rotation (twist) mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistPlan:
    """The counter-rotation on the k x k supercell, compiled once per
    ``(spec, k)``: the pin chase over cells ``-1..k`` squared, the sign of
    each instance's angle, and the read-offs of ``lam`` (three rows one
    period apart) and ``psi`` (the first row per slot, later rows checked
    for period drift)."""

    placement: PlacementPlan
    sign: np.ndarray              # +1 / -1 per instance (unit parity)
    base: np.ndarray              # rows of (node, (0, 0)), (node, (k, 0)), (node, (0, k))
    period_inv: np.ndarray        # inverse of the k-periods as columns
    ref: np.ndarray               # (n_rows, 2) reference position of each row
    first: np.ndarray             # first row of each slot
    drift: np.ndarray             # (n_drift, 2) pairs (row, first row of its slot)

    def fields(self, thetas):
        """``(lam, psi, misfit, drift)`` for each of ``thetas``, stacked."""
        thetas = np.asarray(thetas, dtype=float)
        angles = np.where(self.sign > 0, thetas[:, None], -thetas[:, None])
        pos, misfit = self.placement.place(angles)
        y0, y1, y2 = (pos[:, b] for b in self.base)
        lam = np.matmul(np.stack([y1 - y0, y2 - y0], axis=-1), self.period_inv)
        val = pos - np.matmul(lam[:, None], self.ref[:, :, None])[..., 0]
        row, first = self.drift.T
        drift = norms(val[:, first] - val[:, row]).max(axis=-1, initial=0.0)
        return lam, val[:, self.first], misfit, drift


@lru_cache(maxsize=64)
def _twist_plan(spec: LatticeSpec, k: int) -> TwistPlan:
    """Compile the counter-rotation of ``spec`` on the k x k supercell,
    cached by spec content like :func:`rigid_units`.  Raises
    :class:`MechanismError` when the window cannot read off the periods
    or leaves a supercell node unplaced, whatever the angle."""
    if k < 1:
        raise ValueError(f"supercell size must be >= 1, got {k}")
    units = rigid_units(spec)
    cells = [(i, j) for i in range(-1, k + 1) for j in range(-1, k + 1)]
    placement = PlacementPlan.compile(spec, units, cells)
    row = {key: r for r, key in enumerate(placement.keys)}
    base = None
    for node in range(spec.n_basic):
        keys = [(node, (0, 0)), (node, (k, 0)), (node, (0, k))]
        if all(kk in row for kk in keys):
            base = [row[kk] for kk in keys]
            break
    if base is None:
        raise MechanismError("assembly window too small to read off periods")
    first = {}
    drift = []
    for r, (node, (o1, o2)) in enumerate(placement.keys):
        slot = _slot(k, node, o1, o2)
        if slot in first:
            drift.append((r, first[slot]))
        else:
            first[slot] = r
    if len(first) != spec.n_basic * k * k:
        raise MechanismError("assembly window left supercell nodes unplaced")
    return TwistPlan(
        placement=placement,
        sign=np.asarray([1 - 2 * units[u].parity for u, _, _ in placement.insts]),
        base=np.asarray(base),
        period_inv=np.linalg.inv(np.column_stack([k * spec.v1, k * spec.v2])),
        ref=placement.ref[placement.src],
        first=np.asarray([first[s] for s in sorted(first)]),
        drift=np.asarray(drift, dtype=int).reshape(-1, 2),
    )


def _closure_error(theta, k, misfit, drift, tol) -> Optional[str]:
    """Why the counter-rotation by ``theta`` is no mechanism, or ``None``."""
    if misfit > tol:
        return f"counter-rotation by {theta:g} does not close: misfit {misfit:.3e}"
    if drift > tol:
        return f"counter-rotation is not {k}-periodic: period drift {drift:.3e}"
    return None


def _twist_fields(spec: LatticeSpec, thetas, k: int = 1, tol: float = 1e-12):
    """:func:`_twist_field` for every angle of ``thetas`` at once, stacked
    ``(lam, psi)``; raises for the first angle that does not close."""
    lam, psi, misfit, drift = _twist_plan(spec, k).fields(thetas)
    for theta, m, d in zip(thetas, misfit, drift):
        error = _closure_error(theta, k, m, d, tol)
        if error:
            raise MechanismError(error)
    return lam, psi


def _twist_field(spec: LatticeSpec, theta: float, k: int = 1,
                 tol: float = 1e-12):
    """The counter-rotation by ``+-theta`` as ``(lam, psi)`` on the k x k
    supercell slots, without building the supercell or certifying it.
    Raises :class:`MechanismError` when the pin chase does not close."""
    lam, psi = _twist_fields(spec, [theta], k, tol)
    return lam[0], psi[0]


def twist_mechanism(spec: LatticeSpec, theta: float, k: int = 1,
                    tol: float = 1e-12, eta_ref: float = 0.1) -> Mechanism:
    """The counter-rotation by ``+-theta`` as a certified k-periodic
    deformation.  Raises :class:`MechanismError` when the pin chase does
    not close (not every parameter slice of every family rotates)."""
    lam, psi = _twist_field(spec, theta, k, tol)
    defm = PeriodicDeformation(Supercell(spec, k), lam, psi)
    return Mechanism(
        kind="twist",
        params={"theta": float(theta), "k": int(k)},
        deformation=defm,
        certificate=certify(defm, eta_ref),
    )


def _probe_fields(plan: TwistPlan, probes, batch: int = 1024):
    """``(theta, lam, misfit, drift)`` per probe angle, evaluated ``batch``
    angles per call (the default grid is one call), so memory stays
    bounded however fine the grid."""
    for lo in range(0, len(probes), batch):
        chunk = probes[lo:lo + batch]
        lam, _, misfit, drift = plan.fields(chunk)
        yield from zip(chunk, lam, misfit, drift)


def twist_admissible_range(spec: LatticeSpec, probe_step: float = 0.01,
                           det_floor: float = 1e-8):
    """Numerically probe the symmetric interval of twist angles on which
    the counter-rotation closes, ``det lam`` stays above ``det_floor``,
    and the contraction ``c(theta) = sigma1(lam)`` is strictly decreasing
    (the branch the soft-mode inversion needs).  Returns
    ``(-theta_max, theta_max)``."""
    probes = []
    theta = 0.0
    while theta + probe_step < np.pi:
        theta += probe_step
        probes.append(theta)
    try:
        plan = _twist_plan(spec, 1)
    except MechanismError:      # the window fails whatever the angle
        raise MechanismError("no admissible twist angle found") from None
    good = 0.0
    c_prev = 1.0
    for theta, lam_t, m, d in _probe_fields(plan, probes):
        if _closure_error(theta, 1, m, d, 1e-12):
            break
        sd = signed_svd(lam_t)
        det = sd.det_sign * sd.sigma1 * sd.sigma2
        if sd.sigma1 >= c_prev or det <= det_floor:
            break
        c_prev = sd.sigma1
        good = theta
    if good == 0.0:
        raise MechanismError("no admissible twist angle found")
    return (-good, good)


# ---------------------------------------------------------------------------
# numerical mechanism search
# ---------------------------------------------------------------------------


def _pack(lam, psi):
    return np.concatenate([np.asarray(lam).ravel(), np.asarray(psi)[1:].ravel()])


def _unpack(x, n_nodes):
    lam = x[:4].reshape(2, 2)
    psi = np.zeros((n_nodes, 2))
    psi[1:] = x[4:].reshape(n_nodes - 1, 2)
    return lam, psi


def search_mechanisms(
    spec: LatticeSpec,
    k: int,
    seed: Optional[PeriodicDeformation] = None,
    restarts: int = 32,
    tol: float = 1e-12,
    rng_seed: int = 0,
    eta_ref: float = 0.1,
):
    """Joint minimization of spring energy over ``(lam, psi)`` with an
    annealed log-barrier keeping triangle orientations positive.

    Returns every accepted :class:`Mechanism` (exact averaged energy at
    ``eta_ref`` at most ``tol`` and strictly positive orientations),
    sorted by ``(energy, spring energy, restart index)``.  The first node's
    ``psi`` is pinned to remove translations.
    """
    from scipy.optimize import minimize

    cell = Supercell(spec, k)
    n = cell.n_nodes
    rng = np.random.default_rng(rng_seed)

    def objective(x, mu):
        lam, psi = _unpack(x, n)
        E, gl, gp = spring_energy_grad(cell, lam, psi)
        if mu > 0:
            B, gl2, gp2 = barrier_grad(cell, lam, psi, mu)
            if not np.isfinite(B):
                return np.inf, np.zeros_like(x)
            E += B
            gl = gl + gl2
            gp = gp + gp2
        return E, np.concatenate([gl.ravel(), gp[1:].ravel()])

    starts = []
    if seed is not None:
        if seed.cell.k != k:
            seed = seed.tile(k)
        starts.append(_pack(seed.lam, seed.psi - seed.psi[0]))
    while len(starts) < restarts:
        i = len(starts)
        if i % 2 == 0:
            c = rng.uniform(0.2, 0.99)
            lam0 = c * rotation(rng.uniform(0, 2 * np.pi))
            lam0 += 0.02 * rng.standard_normal((2, 2))
        else:
            lam0 = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        psi0 = 0.2 * rng.standard_normal((n, 2))
        psi0[0] = 0.0
        starts.append(_pack(lam0, psi0))

    found = []
    for si, x0 in enumerate(starts):
        x = x0
        for mu in (1e-2, 1e-4, 1e-6, 0.0):
            res = minimize(
                objective, x, args=(mu,), jac=True, method="L-BFGS-B",
                options={"maxiter": 400, "ftol": 1e-18, "gtol": 1e-14},
            )
            x = res.x
        lam, psi = _unpack(x, n)
        defm = PeriodicDeformation(cell, lam, psi)
        cert = certify(defm, eta_ref)
        if cert.energy <= tol and cert.min_det > 0:
            spring = energy_breakdown(defm, eta_ref).spring_total
            found.append((cert.energy, spring, si,
                          Mechanism("searched", {"restart": si, "k": k}, defm, cert)))
    found.sort(key=lambda rec: rec[:3])
    return [rec[3] for rec in found]


def mechanism_tangent_rank(spec: LatticeSpec, k: int):
    """Dimension of the first-order mechanism space at the reference state.

    Linearizes all spring-length constraints in ``(lam, psi)`` and returns
    ``(raw, quotiented)``: the raw kernel dimension and the dimension after
    removing the three-parameter trivial family (two translations and the
    rotation tangent, which lives in the skew part of ``lam``).
    """
    cell = Supercell(spec, k)
    kk = cell.k * cell.k
    tail, head, dx = cell.spring_edges
    u = dx / np.linalg.norm(dx, axis=1, keepdims=True)
    # one row per spring instance, class by class, cells in order
    J = np.zeros((len(dx) * kk, 4 + 2 * cell.n_nodes))
    J[:, :4] = np.repeat((u[:, :, None] * dx[:, None, :]).reshape(-1, 4), kk, axis=0)
    rows = np.arange(len(J))[:, None]
    u_rows = np.repeat(u, kk, axis=0)
    np.add.at(J, (rows, 4 + 2 * head.reshape(-1, 1) + [0, 1]), u_rows)
    np.add.at(J, (rows, 4 + 2 * tail.reshape(-1, 1) + [0, 1]), -u_rows)
    sv = np.linalg.svd(J, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    raw = J.shape[1] - rank
    return raw, raw - 3


# ---------------------------------------------------------------------------
# domain wall
# ---------------------------------------------------------------------------


def domain_wall_angles(theta1: float, n: int = 30) -> np.ndarray:
    """Solve the column-angle recursion

        sin(theta_k - pi/3) = sin(theta_{k+1} - pi/3)
                              - sin(theta_{k+1}) + sin(theta_{k+2})

    outward from ``theta_0 = 2 pi / 3`` (the flat wall column) and the
    chosen ``theta_1``.  Of the two arcsine branches the one closer to the
    previous angle is taken.  Returns ``theta_0 .. theta_n``.
    """
    if not 2 * np.pi / 3 <= theta1 < np.pi:
        raise ValueError(
            f"theta1 must lie in [2*pi/3, pi), got {theta1:g}"
        )
    if n < 1:
        raise ValueError(f"the recursion needs n >= 1 columns, got {n}")
    th = np.empty(n + 1)
    th[0] = 2 * np.pi / 3
    th[1] = theta1
    for k in range(n - 1):
        s = np.sin(th[k] - np.pi / 3) - np.sin(th[k + 1] - np.pi / 3) + np.sin(th[k + 1])
        if abs(s) > 1:
            raise ValueError(f"angle recursion left [-1, 1] at step {k + 2}")
        a = float(np.arcsin(s))
        th[k + 2] = min((a, np.pi - a), key=lambda cand: abs(cand - th[k + 1]))
    return th


@dataclass
class DomainWall:
    """An assembled strip of the wall between two twist states."""

    theta: np.ndarray             # column angles 0..2*half_width
    positions: dict               # node reference -> deformed position
    half_width: int
    rows: int
    max_misfit: float
    max_spring_residual: float
    min_det: float
    compression_left: float
    compression_right: float
    compression_profile: dict     # column -> horizontal compression
    vertical_compression: float
    theta_limit: float

    @property
    def far_field_gap(self) -> float:
        return abs(self.compression_left - self.compression_right)


def domain_wall_mechanism(theta1: float, half_width: int = 15,
                          rows: int = 4, tol: float = 1e-10) -> DomainWall:
    """Assemble the kagome wall: triangle rotations follow the angle
    recursion column by column, mirrored about the wall, with positions
    chased through the pin joints.

    The wall lives on the standard kagome lattice; column ``m`` of pinch
    joints rotates its down-triangle by ``+(theta_|m| - 2 pi / 3)`` and its
    up-triangle by the opposite angle, with the sign mirrored for
    ``m < 0``.  Every spring with both ends in the strip is checked.
    """
    if half_width < 1 or rows < 1:
        raise ValueError(f"the strip needs half_width >= 1 and rows >= 1, "
                         f"got {half_width} and {rows}")
    spec = build_kagome()
    K = 2 * half_width
    th = domain_wall_angles(theta1, K)
    phi = th - 2 * np.pi / 3

    units = rigid_units(spec)
    # Rotation signs: a down-pointing triangle (body above its pinch
    # node, which is basic node 1) rotates by +phi on the right half.
    down_sign = {}
    for u, unit in enumerate(units):
        keys = np.array([(node, o1, o2) for node, (o1, o2) in unit.nodes])
        pts = spec.node_positions(keys)
        pinch_y = pts[np.argmax(keys[:, 0] == 1), 1]
        down_sign[u] = 1.0 if pts[:, 1].mean() > pinch_y else -1.0

    cells = []
    for j in range(rows):
        i_lo = int(np.floor((-K - j) / 2))
        i_hi = int(np.ceil((K - j) / 2))
        for i in range(i_lo, i_hi + 1):
            if abs(2 * i + j) <= K:
                cells.append((i, j))

    def angle_fn(u, ci, cj):
        col = 2 * ci + cj
        side = 1.0 if col >= 0 else -1.0
        return down_sign[u] * side * phi[abs(col)]

    pos, misfit = assemble_rotated_units(spec, units, cells, angle_fn)
    if misfit > tol:
        raise MechanismError(f"domain wall does not close: misfit {misfit:.3e}")

    # check all springs and orientations inside the strip
    strip = LatticeMap(spec, 1.0, pos)
    x = strip.positions
    ci, cj = np.array(cells).T
    a, b = strip.rows(spec.spring_keys, ci, cj).transpose(1, 0, 2)
    length = norms(x[b] - x[a])
    both = (a >= 0) & (b >= 0)
    resid = float(np.abs(length - spec.spring_rest[:, None])[both].max(initial=0.0))
    t = strip.rows(spec.penalized_keys, ci, cj)
    p0, p1, p2 = x[t].transpose(1, 0, 2, 3)
    dets = cross2(p1 - p0, p2 - p0) / (2 * spec.penalized_area)[:, None]
    min_det = float(dets[(t >= 0).all(axis=1)].min(initial=np.inf))

    # pinch-joint compression profile along a middle row, whose cells run
    # over consecutive columns two apart
    mid = cj == rows // 2
    col = 2 * ci[mid] + cj[mid]
    pinch = strip.rows([1, 0, 0], ci[mid], cj[mid])
    width = norms(x[pinch[1:]] - x[pinch[:-1]]) / 2.0
    ok = (pinch[1:] >= 0) & (pinch[:-1] >= 0)
    profile = dict(zip((col[1:][ok] - 1).tolist(), width[ok].tolist()))
    left = profile[min(profile)]
    right = profile[max(profile)]

    # vertical compression at the right edge (one vertical period = -v1+2v2),
    # from the rightmost cell holding both ends
    order = np.argsort(-(2 * ci + cj), kind="stable")
    lo, hi = strip.rows([[1, 0, 0], [1, -1, 2]], ci[order], cj[order])
    ok = (lo >= 0) & (hi >= 0)
    vert = np.nan
    if ok.any():
        n = int(np.argmax(ok))
        vert = float(norms(x[hi[n]] - x[lo[n]])) / (2 * np.sqrt(3.0))

    return DomainWall(
        theta=th,
        positions=pos,
        half_width=half_width,
        rows=rows,
        max_misfit=misfit,
        max_spring_residual=resid,
        min_det=min_det,
        compression_left=left,
        compression_right=right,
        compression_profile=profile,
        vertical_compression=vert,
        theta_limit=float(th[-1]),
    )
