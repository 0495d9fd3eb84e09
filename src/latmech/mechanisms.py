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

Units are integer rows of the spec: their triangles ``(t, di, dj)`` and
nodes ``(node, o1, o2)``.  One breadth-first walk over unit instances
joined at shared nodes (:func:`_walk_units`) gives the two-coloring (its
depth parity), the placement order of the pin chase and the unwrapping
of ``arg f'`` in :mod:`latmech.softmodes`.  The order of the pin chase
does not depend on the angles.  It is walked once per window and
compiled into a :class:`PlacementPlan` of arrays (placement order, pins,
first placements and shared-node checks), which then places the units
for a whole stack of angle assignments at once.
The twist's plan (:class:`TwistPlan`, cached per spec content and
supercell size) adds the read-offs of ``lam`` and ``psi``, so the probe
grid of the admissible range, the contraction table and a certificate
grid on a small supercell are one call each, bit for bit the same as
placing one angle at a time.

A numerical mechanism search (spring energy plus annealed determinant
barrier over ``(lam, psi)`` jointly) complements the exact constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable

import numpy as np

from .energy import LatticeMap, _barrier, _dets, _kernel, _lbfgsb, energy_breakdown
from .geometry import signed_svd
from .lattice import (
    DegenerateGeometryError,
    LatticeSpec,
    MechanismError,
    PeriodicDeformation,
    Supercell,
    _check_size,
    _frozen,
    _slot,
    build_kagome,
    lam_times,
    norms,
    rotation,
    unique_rows,
)

__all__ = [
    "MechanismError",
    "RigidUnit",
    "rigid_units",
    "MechanismCertificate",
    "certify",
    "Mechanism",
    "twist_mechanism",
    "twist_admissible_range",
    "search_mechanisms",
    "domain_wall_angles",
    "DomainWall",
    "domain_wall_mechanism",
]


_CLOSURE_TOL = 1e-12     # largest misfit or period drift of a closing twist, per cell and
                         # in units of the spec's longest period vector
_ETA_REF = 0.1           # penalty strength of the exact-energy certificates
_SEARCH_TOL = 1e-12      # largest certified energy a searched mechanism may have
_STACK_ROWS = 2 ** 16    # most placed rows, over its angles, of one stacked twist block


# ---------------------------------------------------------------------------
# rigid units
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RigidUnit:
    """A maximal edge-glued cluster of penalized triangles.

    ``triangles`` holds read-only ``(n, 3)`` integer rows ``(t, di, dj)``:
    penalized triangle ``t`` shifted ``(di, dj)`` cells from the unit's
    anchor cell, in lexicographic order; ``nodes`` the read-only ``(m, 3)``
    rows ``(node, o1, o2)`` of the node references covered, in
    lexicographic order; ``parity`` the color of the unit in the
    two-coloring of the pin-joint adjacency (0 or 1).
    """

    triangles: np.ndarray
    nodes: np.ndarray
    parity: int


def _unit_members(units, ci, cj):
    """The nodes of the unit instances ``(u, ci[c], cj[c])``, numbered cell
    by cell and unit by unit (instance ``c * len(units) + u``).  Returns
    ``(inst, keys)``: each member's instance and its ``(node, o1, o2)``
    row, every instance's members together and in unit order."""
    unit = np.concatenate([np.full(len(x.nodes), u) for u, x in enumerate(units)])
    ref = np.concatenate([x.nodes for x in units])
    shifts = np.column_stack([np.zeros_like(ci), ci, cj])
    keys = (shifts[:, None, :] + ref[None, :, :]).reshape(-1, 3)
    inst = (np.arange(len(ci))[:, None] * len(units) + unit[None, :]).ravel()
    return inst, keys


def _walk_units(inst, node, n_inst):
    """The breadth-first walk over unit instances joined at shared nodes.

    ``inst`` and ``node`` list the memberships (integer node ids), each
    instance's together and in member order.  From instance 0, every
    instance taken from the queue steps through its nodes in member order
    to the instances sharing them, in instance order.  Returns ``(order,
    parent, depth)``: the instances reached, in the order they are
    reached, and per instance the one it was reached from and its depth
    (-1 where never reached; the parent of instance 0 is -1 too).
    """
    # each instance's nodes and each node's owners as slices of two lists
    nodes = node.tolist()
    node_at = [0] + np.cumsum(np.bincount(inst, minlength=n_inst)).tolist()
    owners = inst[np.argsort(node, kind="stable")].tolist()
    owner_at = [0] + np.cumsum(np.bincount(node)).tolist()
    parent, depth = [-1] * n_inst, [-1] * n_inst
    depth[0] = 0
    order = [0]
    for i in order:             # the order is the queue: it grows as it is read
        for n in nodes[node_at[i]:node_at[i + 1]]:
            for other in owners[owner_at[n]:owner_at[n + 1]]:
                if depth[other] < 0:
                    parent[other], depth[other] = i, depth[i] + 1
                    order.append(other)
    return np.asarray(order), np.asarray(parent), np.asarray(depth)


def _node_ids(keys) -> np.ndarray:
    """Flat integer ids of the rows stacked in ``keys`` (``(..., 3)`` node
    references or ``(..., 2)`` node-id pairs), equal rows sharing one."""
    keys = np.asarray(keys)
    return unique_rows(keys.reshape(-1, keys.shape[-1]), return_inverse=True)[1]


@lru_cache(maxsize=64)
def rigid_units(spec: LatticeSpec):
    """Derive the rigid units of a lattice and two-color them.

    Raises if a unit glues to its own lattice translate (a percolating
    rigid line has no counter-rotation) or if the pin adjacency is not
    two-colorable with a one-cell period.
    """
    # penalized triangle instances (t, i, j) on a 5 x 5 window, in
    # lexicographic order; each is labelled with the smallest instance it
    # is glued to through a chain of shared edges
    win = np.arange(-2, 3)
    tri = np.stack(np.meshgrid(np.arange(len(spec.penalized_keys)), win, win,
                               indexing="ij"), axis=-1).reshape(-1, 3)
    keys = spec.penalized_keys[tri[:, 0]] + (tri * [0, 1, 1])[:, None]
    node = _node_ids(keys)
    edge = _node_ids(np.sort(node.reshape(-1, 3)[:, [[0, 1], [1, 2], [2, 0]]], axis=-1))
    label = np.arange(len(tri))
    while True:
        low = np.full(edge.max() + 1, len(tri))
        np.minimum.at(low, edge, np.repeat(label, 3))
        glued = low[edge].reshape(-1, 3).min(axis=1)
        if np.array_equal(glued, label):
            break
        label = glued

    units = []
    seen = set()
    for home in np.flatnonzero((tri[:, 1] == 0) & (tri[:, 2] == 0)):
        members = np.flatnonzero(label == label[home])
        anchor = tri[members[0]] * [0, 1, 1]
        tris = tri[members] - anchor
        if tris.tobytes() in seen:
            continue
        seen.add(tris.tobytes())
        if len(unique_rows(tris[:, :1])) != len(tris):
            raise DegenerateGeometryError(
                "a rigid unit contains a lattice translate of itself"
            )
        nodes = unique_rows((keys[members] - anchor).reshape(-1, 3))
        units.append(RigidUnit(_frozen(tris, (-1, 3)), _frozen(nodes, (-1, 3)), -1))

    # two-color the pin adjacency of unit instances on the window by the
    # depth parity of the walk from unit 0 in cell (0, 0), listed first
    win = np.array([0, -2, -1, 1, 2])
    ci, cj = np.repeat(win, len(win)), np.tile(win, len(win))
    inst, keys = _unit_members(units, ci, cj)
    node = _node_ids(keys)
    _, _, depth = _walk_units(inst, node, len(ci) * len(units))
    color = np.where(depth >= 0, depth % 2, -1)
    reached = color[inst] >= 0
    pairs = np.column_stack([node, color[inst]])[reached]
    if len(unique_rows(pairs)) < len(pairs):
        raise DegenerateGeometryError("pin adjacency of rigid units is not two-colorable")
    near = color.reshape(len(ci), len(units))[np.isin(ci, (0, 1)) & np.isin(cj, (0, 1))]
    out = []
    for u, unit in enumerate(units):
        cols = set(near[:, u].tolist()) - {-1}
        if len(cols) != 1:
            raise DegenerateGeometryError(
                "unit coloring is not one-cell periodic; no one-periodic "
                "counter-rotation exists"
            )
        out.append(replace(unit, parity=cols.pop()))
    return tuple(out)


# ---------------------------------------------------------------------------
# assembly of prescribed unit rotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementPlan:
    """The pin chase over a window of unit instances, compiled once into
    arrays.

    The placement order is the order in which :func:`_walk_units` reaches
    the instances.  Each instance after the first is anchored at its pin:
    its first node that an earlier instance placed.  Which node placements
    come first or re-check an earlier one depend on ``(spec, units,
    cells)`` only, never on the angles.  Instance nodes are stored flat:
    entry ``f`` belongs to instance ``flat_inst[f]`` (in placement order)
    with reference position ``ref[f]``.  Row ``r`` of the placed positions
    is the node reference ``keys[r]`` ``(node, o1, o2)``, first placed by
    entry ``src[r]``.
    """

    insts: np.ndarray             # (n_insts, 3) rows (u, ci, cj), placement order
    flat_inst: np.ndarray         # instance of each flat entry
    ref: np.ndarray               # (n_flat, 2) reference positions
    centroid: np.ndarray          # first instance's centroid (its fixed point)
    pin_flat: np.ndarray          # flat entry of each instance's pin (-1: first)
    pin_src: np.ndarray           # flat entry that first placed that pin
    levels: tuple                 # instance indices by pin-chase depth >= 1
    keys: np.ndarray              # (n_rows, 3) node reference of each row
    src: np.ndarray               # flat entry placing each row first
    check: np.ndarray             # (n_check, 2) pairs (flat entry, row) re-placing a row

    @classmethod
    def compile(cls, spec: LatticeSpec, units, cells: Iterable) -> "PlacementPlan":
        """Walk the instances once; raises :class:`MechanismError` when the
        instance graph is disconnected."""
        ci, cj = np.asarray(list(cells), dtype=np.int64).reshape(-1, 2).T
        n_insts = len(ci) * len(units)
        inst, keys = _unit_members(units, ci, cj)
        node = _node_ids(keys)
        order, _, _ = _walk_units(inst, node, n_insts)
        if len(order) != n_insts:
            raise MechanismError("unit instance graph is disconnected over the given cells")

        # flat entries: every instance's members, in placement order
        rank = np.empty_like(order)
        rank[order] = np.arange(n_insts)
        flat = np.argsort(rank[inst], kind="stable")
        flat_inst, flat_node = rank[inst][flat], node[flat]
        start = np.searchsorted(flat_inst, np.arange(n_insts))
        # the entry first placing each entry's node; the rows are the nodes
        # in order of their first placement
        first = np.unique(flat_node, return_index=True)[1][flat_node]
        src = np.flatnonzero(first == np.arange(len(flat)))
        again = np.flatnonzero(first != np.arange(len(flat)))
        # the pin of each later instance, and its depth along the pins
        earlier = np.flatnonzero(first < start[flat_inst])
        pin_flat = np.concatenate([[-1], earlier[np.searchsorted(earlier, start[1:])]])
        pin_src = np.concatenate([[-1], first[pin_flat[1:]]])
        depth = [0] * n_insts
        for i, p in enumerate(flat_inst[pin_src[1:]].tolist(), 1):
            depth[i] = depth[p] + 1
        depth = np.asarray(depth)

        ref = spec.node_positions(keys[flat])
        return cls(
            insts=np.column_stack([order % len(units), ci[order // len(units)],
                                   cj[order // len(units)]]),
            flat_inst=flat_inst,
            ref=ref,
            centroid=ref[flat_inst == 0].mean(axis=0),
            pin_flat=pin_flat,
            pin_src=pin_src,
            levels=tuple(np.flatnonzero(depth == d) for d in range(1, depth.max() + 1)),
            keys=keys[flat][src],
            src=src,
            check=np.column_stack([again, np.searchsorted(src, first[again])]),
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


def certify(defm: PeriodicDeformation) -> MechanismCertificate:
    bd = energy_breakdown(defm, _ETA_REF)
    resid = float(np.max(np.abs(bd.spring_lengths - defm.cell.spring_rest[:, None])))
    sd = signed_svd(defm.lam)
    return MechanismCertificate(
        energy=bd.averaged,
        eta_ref=_ETA_REF,
        max_spring_residual=resid,
        min_det=float(np.min(bd.dets)),
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
    base: np.ndarray              # rows of (node, 0, 0), (node, k, 0), (node, 0, k)
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
        val = pos - lam_times(lam, self.ref)
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
    keys = placement.keys
    # the first node placed at (node, 0, 0), (node, k, 0) and (node, 0, k)
    want = np.zeros((spec.n_basic, 3, 3), dtype=np.int64)
    want[:, :, 0] = np.arange(spec.n_basic)[:, None]
    want[:, 1, 1] = want[:, 2, 2] = k
    hit = (keys == want[:, :, None, :]).all(axis=-1)
    full = hit.any(axis=-1).all(axis=-1)
    if not full.any():
        raise MechanismError("assembly window too small to read off periods")
    # the first row of each slot; later rows of a slot check the drift
    slot = _slot(k, *keys.T)
    _, first, inverse = np.unique(slot, return_index=True, return_inverse=True)
    if len(first) != spec.n_basic * k * k:
        raise MechanismError("assembly window left supercell nodes unplaced")
    owner = first[inverse.ravel()]
    again = np.flatnonzero(owner != np.arange(len(slot)))
    parity = np.asarray([unit.parity for unit in units])
    return TwistPlan(
        placement=placement,
        sign=1 - 2 * parity[placement.insts[:, 0]],
        base=hit[np.argmax(full)].argmax(axis=-1),
        period_inv=np.linalg.inv(np.column_stack([k * spec.v1, k * spec.v2])),
        ref=placement.ref[placement.src],
        first=first,
        drift=np.column_stack([again, owner[again]]),
    )


def _closure_error(spec, thetas, k, misfit, drift):
    """``(closes, error)`` for the stacked ``fields`` of ``thetas``: per
    angle whether the counter-rotation closes (misfit and period drift at
    most ``_CLOSURE_TOL * k * k`` times the longest period vector of
    ``spec``: the chase's rounding grows with k^2 and with the lengths; a
    NaN one, from a NaN angle, does not), and why the first that does not
    is no mechanism, or ``None``."""
    tol = _CLOSURE_TOL * k * k * max(np.linalg.norm(spec.v1), np.linalg.norm(spec.v2))
    fits, periodic = misfit <= tol, drift <= tol
    closes = fits & periodic
    if closes.all():
        return closes, None
    i = int(np.argmin(closes))
    if not fits[i]:
        return closes, f"counter-rotation by {thetas[i]:g} does not close: misfit {misfit[i]:.3e}"
    return closes, f"counter-rotation is not {k}-periodic: period drift {drift[i]:.3e}"


def _twist_fields(spec: LatticeSpec, thetas, k: int = 1):
    """The counter-rotation by ``+-theta`` for every angle of ``thetas``, as
    ``(lam, psi)`` on the k x k supercell slots stacked over the angles,
    without building the supercell or certifying it.  Raises
    :class:`MechanismError` for the first angle whose pin chase does not
    close."""
    lam, psi, misfit, drift = _twist_plan(spec, k).fields(thetas)
    error = _closure_error(spec, thetas, k, misfit, drift)[1]
    if error:
        raise MechanismError(error)
    return lam, psi


def _twist_mechanisms(spec: LatticeSpec, thetas, k: int):
    """Yield the counter-rotation by ``+-theta`` as a certified k-periodic
    deformation for each of ``thetas`` in turn.  One :class:`Supercell`
    serves every angle, and the fields of each block of angles come from
    one stacked :func:`_twist_fields` call, bit for bit the fields of one
    angle.  A block holds at most ``_STACK_ROWS`` placed rows over its
    angles (at least one angle), so a large supercell stacks few angles:
    the stacked fields cost about 140 bytes per row.  Raises
    :class:`MechanismError` at the first block holding an angle whose pin
    chase does not close."""
    step = max(1, _STACK_ROWS // len(_twist_plan(spec, k).ref))
    cell = None
    for start in range(0, len(thetas), step):
        block = thetas[start:start + step]
        lams, psis = _twist_fields(spec, block, k)
        if cell is None:        # built once the first block closes
            cell = Supercell(spec, k)
        for theta, lam, psi in zip(block, lams, psis):
            defm = PeriodicDeformation(cell, lam, psi)
            yield Mechanism(
                kind="twist",
                params={"theta": float(theta), "k": int(k)},
                deformation=defm,
                certificate=certify(defm),
            )


def twist_mechanism(spec: LatticeSpec, theta: float) -> Mechanism:
    """The counter-rotation by ``+-theta`` as a certified one-periodic
    deformation.  Raises :class:`MechanismError` when the pin chase does
    not close (not every parameter slice of every family rotates)."""
    return next(_twist_mechanisms(spec, [theta], 1))


def twist_admissible_range(spec: LatticeSpec, probe_step: float = 0.01):
    """Numerically probe the symmetric interval of twist angles on which
    the counter-rotation closes, ``det lam`` stays above 1e-8,
    and the contraction ``c(theta) = sigma1(lam)`` is strictly decreasing
    (the branch the soft-mode inversion needs), at the probe angles
    ``probe_step, 2 probe_step, ...`` below ``pi`` (with ``c = 1`` before
    the first).  One stacked twist and SVD cover the probes; ``theta_max``
    is the last probe before the first that fails.  Returns
    ``(-theta_max, theta_max)``."""
    if not 0 < probe_step < np.pi:      # NaN fails too
        raise ValueError(f"probe_step must be in (0, pi), got {probe_step:g}")
    probes = []
    theta = 0.0
    while theta + probe_step < np.pi:
        theta += probe_step
        probes.append(theta)
    try:
        plan = _twist_plan(spec, 1)
    except MechanismError:      # the window fails whatever the angle
        raise MechanismError("no admissible twist angle found") from None
    lam, _, misfit, drift = plan.fields(probes)
    sd = signed_svd(lam)
    ok = (_closure_error(spec, probes, 1, misfit, drift)[0]
          & (sd.sigma1 < np.concatenate([[1.0], sd.sigma1[:-1]]))
          & (sd.det_sign * sd.sigma1 * sd.sigma2 > 1e-8))
    good = int(np.argmin(np.append(ok, False)))     # probes that pass before the first fails
    if good == 0:
        raise MechanismError("no admissible twist angle found")
    return (-probes[good - 1], probes[good - 1])


@lru_cache(maxsize=32)
def _twist_contraction_table(spec: LatticeSpec):
    """Sampled ``theta -> c = (sigma1 + sigma2) / 2`` over the admissible
    twist range (a strictly decreasing curve, by construction)."""
    lo, hi = twist_admissible_range(spec)
    thetas = np.linspace(0.0, hi, 160)
    sd = signed_svd(_twist_fields(spec, thetas[1:])[0])
    return thetas, np.concatenate([[1.0], 0.5 * (sd.sigma1 + sd.sigma2)])


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


def _search_objective(cell: Supercell, mu: float):
    """The L-BFGS objective ``f(X, at) -> (E, G)`` of one barrier stage of
    the mechanism search on a stack of packed ``x = (lam.ravel(),
    psi[1:].ravel())`` ``(B, 2 n + 2)`` (the first node pinned at zero;
    ``at`` is not read), gradients packed alike: the spring energy plus,
    when ``mu > 0``, the log-barrier at ``mu``, or ``(inf, 0)`` on a row
    where that is not finite.  The stack is padded with the pinned zeros
    into the rows ``(lam.ravel(), psi)`` of the variable-``lam`` spring and
    barrier :func:`~latmech.energy._kernel`, whose results are added, so
    each row has the bits of adding the two kernels' results at its state.
    """
    springs = _kernel(cell, True)
    barrier = _kernel(cell, False, _barrier(mu)) if mu > 0 else None

    def f(X, at):
        Z = np.zeros((len(X), X.shape[1] + 2))
        Z[:, :4], Z[:, 6:] = X[:, :4], X[:, 4:]
        E, G = springs(Z, at)
        if barrier is not None:
            B, G2 = barrier(Z, at)
            E += B
            G += G2
            infinite = ~np.isfinite(B)
            E[infinite] = np.inf
            G[infinite] = 0.0
        return E, np.concatenate([G[:, :4], G[:, 6:]], axis=1)

    return f


def search_mechanisms(
    spec: LatticeSpec,
    k: int,
    restarts: int = 32,
    rng_seed: int = 0,
):
    """Joint minimization of spring energy over ``(lam, psi)`` with an
    annealed log-barrier keeping triangle orientations positive.

    Returns every accepted :class:`Mechanism` (exact averaged energy at
    ``eta_ref = 0.1`` at most ``1e-12`` and strictly positive orientations),
    sorted by ``(energy, spring energy, restart index)``.  The first node's
    ``psi`` is pinned to remove translations.  Every restart runs the
    barrier stages ``mu = 1e-2, 1e-4, 1e-6, 0`` by L-BFGS over the packed
    ``(lam, psi[1:])``, all restarts together: each stage is one
    :func:`~latmech.energy._lbfgsb` run on the stack of restarts (scipy's
    compiled L-BFGS-B step, loaded by file with no scipy package imported,
    one objective call per round on the restarts that ask for an
    evaluation, each restart bit for bit ``scipy.optimize.minimize`` on it
    alone).  Each stage's objective is built once per search (its gather,
    scatter and constants) and has, on every restart, the bits of adding
    the spring and barrier energies and gradients at the same state (see
    :func:`_search_objective`); a restart with a reversed triangle gets
    ``(inf, 0)``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    cell = Supercell(spec, k)
    n = cell.n_nodes
    rng = np.random.default_rng(rng_seed)

    objectives = [_search_objective(cell, mu) for mu in (1e-2, 1e-4, 1e-6, 0.0)]
    starts = []
    while len(starts) < restarts:
        i = len(starts)
        if i % 2 == 0:
            c = rng.uniform(0.2, 0.99)
            lam0 = c * rotation(rng.uniform(0, 2 * np.pi))
            lam0 += 0.02 * rng.standard_normal((2, 2))
        else:
            lam0 = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        starts.append(_pack(lam0, 0.2 * rng.standard_normal((n, 2))))

    X = np.array(starts)
    for objective in objectives:    # every restart at once, one stack per stage
        X = np.array([row[0] for row in _lbfgsb(objective, X, 400, 1e-18, 1e-14)])
    found = []
    for si, x in enumerate(X):
        lam, psi = _unpack(x, n)
        defm = PeriodicDeformation(cell, lam, psi)
        cert = certify(defm)
        if cert.energy <= _SEARCH_TOL and cert.min_det > 0:
            spring = energy_breakdown(defm, _ETA_REF).spring_total
            found.append((cert.energy, spring, si,
                          Mechanism("searched", {"restart": si, "k": k}, defm, cert)))
    found.sort(key=lambda rec: rec[:3])
    return [rec[3] for rec in found]


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
    _check_size(n, "the n columns of the recursion")
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
    """An assembled strip of the wall between two twist states.

    ``keys`` holds the ``(n, 3)`` node references ``(node, o1, o2)`` of the
    strip and ``positions`` their ``(n, 2)`` deformed positions, both in
    placement order."""

    theta: np.ndarray             # column angles 0..2*half_width
    keys: np.ndarray              # (n, 3) node references, placement order
    positions: np.ndarray         # (n, 2) deformed positions, row by row
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


def _strip_cells(K: int, rows: int) -> list:
    """The wall strip's cells ``(i, j)``, row by row: ``0 <= j < rows``, ``|2 i + j| <= K``."""
    return [(i, j) for j in range(rows) for i in range(-K - j, K + 1) if abs(2 * i + j) <= K]


def domain_wall_mechanism(theta1: float, half_width: int = 15, rows: int = 4) -> DomainWall:
    """Assemble the kagome wall: triangle rotations follow the angle
    recursion column by column, mirrored about the wall, with positions
    chased through the pin joints.

    The wall lives on the standard kagome lattice; column ``m`` of pinch
    joints rotates its down-triangle by ``+(theta_|m| - 2 pi / 3)`` and its
    up-triangle by the opposite angle, with the sign mirrored for
    ``m < 0``.  Every spring with both ends in the strip is checked.
    The strip needs two rows at least: the cells of one row share no
    node, so one row never connects.
    """
    if half_width < 1 or rows < 2:
        raise ValueError(f"the strip needs half_width >= 1 and rows >= 2, "
                         f"got {half_width} and {rows}")
    _check_size((2 * half_width + 1) * rows,
                f"the strip cells of half_width {half_width} and rows {rows}")
    spec = build_kagome()
    K = 2 * half_width
    th = domain_wall_angles(theta1, K)
    phi = th - 2 * np.pi / 3

    units = rigid_units(spec)
    # unit 0, the down triangle C O D (its body above its pinch node O),
    # has parity 0 and turns by +phi on the right half, the up one by -phi
    sign = 1 - 2 * np.array([unit.parity for unit in units])
    cells = _strip_cells(K, rows)
    plan = PlacementPlan.compile(spec, units, cells)
    # each instance's angle, the right half mirrored to the left
    col = 2 * plan.insts[:, 1] + plan.insts[:, 2]
    side = np.where(col >= 0, 1.0, -1.0)
    pos, misfit = plan.place([sign[plan.insts[:, 0]] * side * phi[np.abs(col)]])
    keys, pos, misfit = plan.keys, pos[0], float(misfit[0])
    if misfit > 1e-10:
        raise MechanismError(f"domain wall does not close: misfit {misfit:.3e}")

    # check all springs and orientations inside the strip
    order = np.lexsort(keys.T[::-1])
    strip = LatticeMap(spec, 1.0, keys[order], pos[order])
    x = strip.positions
    ci, cj = np.array(cells).T
    cls, (a, b) = strip.placed(spec.spring_keys, ci, cj)
    resid = float(np.abs(norms(x[b] - x[a]) - spec.spring_rest[cls]).max(initial=0.0))
    cls, (t0, t1, t2) = strip.placed(spec.penalized_keys, ci, cj)
    dets = _dets(x[t1] - x[t0], x[t2] - x[t0], 2 * spec.penalized_area[cls])
    min_det = float(dets.min(initial=np.inf))

    # pinch-joint compression profile along a middle row, whose cells run
    # over consecutive columns two apart: the pinch node of each cell and
    # of the next, keyed by the column between them
    mid = cj == rows // 2
    _, (a, b) = strip.placed([[[1, 0, 0], [1, 1, 0]]], ci[mid][:-1], cj[mid][:-1])
    col = 2 * strip.keys[a, 1] + strip.keys[a, 2] + 1
    profile = dict(zip(col.tolist(), (norms(x[b] - x[a]) / 2.0).tolist()))
    left = profile[min(profile)]
    right = profile[max(profile)]

    # vertical compression at the right edge (one vertical period = -v1+2v2),
    # from the rightmost cell holding both ends
    order = np.argsort(-(2 * ci + cj), kind="stable")
    _, (lo, hi) = strip.placed([[[1, 0, 0], [1, -1, 2]]], ci[order], cj[order])
    vert = float(norms(x[hi[0]] - x[lo[0]])) / (2 * np.sqrt(3.0)) if len(lo) else np.nan

    return DomainWall(
        theta=th,
        keys=keys,
        positions=pos,
        max_misfit=misfit,
        max_spring_residual=resid,
        min_det=min_det,
        compression_left=left,
        compression_right=right,
        compression_profile=profile,
        vertical_compression=vert,
        theta_limit=float(th[-1]),
    )
