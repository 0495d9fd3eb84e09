"""Reference geometry of periodic spring lattices.

A lattice is described by two independent period vectors ``v1, v2``, a
finite list of *basic nodes* (positions of the nodes owned by one unit
cell), springs connecting lattice translates of basic nodes, a conforming
triangulation of the unit-cell region, and a distinguished subset of the
triangulation -- the *penalized triangles* -- whose orientation is
penalized by the energy.  Each structure also carries *marker edges*: pairs
``(b, r)`` of spring-aligned edge vectors satisfying ``r = c * R(alpha) b``
with one constant ``c`` and one angle ``alpha`` shared by every marker.
These markers drive the averaged-vector identities in
:mod:`latmech.geometry`.

Node references are pairs ``(node_index, (o1, o2))``: basic node
``node_index`` translated by ``o1 * v1 + o2 * v2``.  All springs and
triangles are stored per unit cell with offsets chosen so that every
endpoint lies in the closure of the triangulated cell region.  Every
layer below the spec reads them as stacked integer rows ``(node, o1, o2)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "Spring",
    "PenalizedTriangle",
    "MarkerPair",
    "LatticeSpec",
    "Supercell",
    "PeriodicDeformation",
    "build_kagome",
    "build_rotating_squares",
    "build_variant",
    "cross2",
    "kabsch_rotations",
    "rotation",
    "VARIANT_KINDS",
]

# A node reference: (basic node index, (offset1, offset2)).
NodeRef = tuple


class DegenerateGeometryError(ValueError):
    """Requested parameters produce a degenerate or inconsistent lattice."""


def rotation(angle) -> np.ndarray:
    """Counterclockwise rotation matrices through ``angle`` radians, of
    shape ``np.shape(angle) + (2, 2)``."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.empty(np.shape(c) + (2, 2))
    R[..., 0, 0] = R[..., 1, 1] = c
    R[..., 0, 1] = -s
    R[..., 1, 0] = s
    return R


def cross2(a, b):
    """z-component of the planar cross product over the trailing axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def norms(v):
    """Euclidean norms over the trailing axis, each with the bits of
    ``np.linalg.norm`` of one vector (a dot product, as ``vecdot`` forms
    it; ``norm(axis=...)`` sums the squares differently)."""
    return np.sqrt(np.vecdot(v, v))


def kabsch_rotations(X, Y) -> np.ndarray:
    """Best-fit rotations ``(n, 2, 2)`` carrying each centred point set
    ``X[i]`` onto ``Y[i]`` (stacks ``(n, m, 2)``); reflections are
    excluded by flipping the last left singular vector."""
    H = np.matmul((Y - Y.mean(axis=1, keepdims=True)).transpose(0, 2, 1),
                  X - X.mean(axis=1, keepdims=True))
    U, _, Vt = np.linalg.svd(H)
    U[np.linalg.det(U @ Vt) < 0, :, -1] *= -1
    return U @ Vt


def _as_ref(obj) -> NodeRef:
    node, (o1, o2) = obj
    return (int(node), (int(o1), int(o2)))


def _frozen(values, shape=-1) -> np.ndarray:
    """``values`` as a read-only array of the given shape."""
    arr = np.array(values).reshape(shape)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spring:
    """A spring class: one spring per unit cell between two node references.

    ``rest_length`` always equals the reference distance of the endpoints;
    it is derived from positions, never entered independently.
    """

    a: NodeRef
    b: NodeRef
    rest_length: float
    stiffness: float = 1.0


@dataclass(frozen=True)
class PenalizedTriangle:
    """An oriented triangle (counterclockwise) carrying the orientation
    penalty, with its reference area."""

    nodes: tuple
    area: float


@dataclass(frozen=True)
class MarkerPair:
    """Marker edges ``b`` and ``r`` (spring-aligned, ``r = c R(alpha) b``)
    together with the index of the penalized triangle they decorate."""

    b_edge: tuple
    r_edge: tuple
    triangle: int


def _seg_key(a: NodeRef, b: NodeRef):
    """Translation-invariant, orientation-free key of a lattice segment."""
    (ia, oa), (ib, ob) = a, b
    rep1 = (ia, ib, ob[0] - oa[0], ob[1] - oa[1])
    rep2 = (ib, ia, oa[0] - ob[0], oa[1] - ob[1])
    return min(rep1, rep2)


@dataclass(eq=False)
class LatticeSpec:
    """Immutable description of one periodic spring lattice.

    Equality and hashing go by the canonical :meth:`to_json` text, so a
    spec rebuilt from its JSON equals (and caches like) the original.
    Rest lengths and areas are not serialized; they are derived from the
    node positions that are.

    The classes are also read-only stacked arrays, built on first use,
    one row per class in tuple order, node references as integer rows
    ``(node, o1, o2)``: ``spring_keys`` ``(ns, 2, 3)`` (ends ``a``, ``b``)
    with ``spring_rest`` and ``spring_stiffness``; ``penalized_keys``
    ``(nt, 3, 3)`` with ``penalized_area``; the triangulation
    ``cover_keys`` ``(ntri, 3, 3)``; the marker edges ``b``, ``r`` as
    ``marker_keys`` ``(nm, 2, 2, 3)``.
    """

    name: str
    v1: np.ndarray
    v2: np.ndarray
    basic_nodes: np.ndarray
    springs: tuple
    penalized_triangles: tuple
    marker_edges: tuple
    alpha: float
    c_marker: float
    triangulation: tuple

    def __post_init__(self):
        self.v1 = np.asarray(self.v1, dtype=float).reshape(2)
        self.v2 = np.asarray(self.v2, dtype=float).reshape(2)
        self.basic_nodes = np.asarray(self.basic_nodes, dtype=float).reshape(-1, 2)
        for arr in (self.v1, self.v2, self.basic_nodes):
            arr.setflags(write=False)
        self.springs = tuple(self.springs)
        self.penalized_triangles = tuple(self.penalized_triangles)
        self.marker_edges = tuple(self.marker_edges)
        self.triangulation = tuple(self.triangulation)
        _validate_spec(self)

    # -- basic geometry -----------------------------------------------------

    @property
    def n_basic(self) -> int:
        return self.basic_nodes.shape[0]

    @property
    def cell_matrix(self) -> np.ndarray:
        """Columns are the period vectors."""
        return np.column_stack([self.v1, self.v2])

    @property
    def cell_area(self) -> float:
        return abs(float(cross2(self.v1, self.v2)))

    def node_position(self, ref: NodeRef) -> np.ndarray:
        if not 0 <= ref[0] < self.n_basic:
            raise ValueError(f"unknown node reference {ref!r}")
        return _position((self.v1, self.v2, self.basic_nodes), ref)

    def node_positions(self, keys) -> np.ndarray:
        """:meth:`node_position` over integer rows ``(node, o1, o2)``."""
        keys = np.asarray(keys)
        return (self.basic_nodes[keys[..., 0]] + keys[..., 1:2] * self.v1
                + keys[..., 2:3] * self.v2)

    def edge_vector(self, edge) -> np.ndarray:
        a, b = edge
        return self.node_position(b) - self.node_position(a)

    def marker_vectors(self, m: int):
        """Reference ``(b, r)`` vectors of marker ``m``."""
        mk = self.marker_edges[m]
        return self.edge_vector(mk.b_edge), self.edge_vector(mk.r_edge)

    # -- the classes as stacked integer rows ----------------------------------

    @cached_property
    def spring_keys(self) -> np.ndarray:
        return _frozen([(n, *o) for s in self.springs for n, o in (s.a, s.b)], (-1, 2, 3))

    @cached_property
    def spring_rest(self) -> np.ndarray:
        return _frozen([s.rest_length for s in self.springs])

    @cached_property
    def spring_stiffness(self) -> np.ndarray:
        return _frozen([s.stiffness for s in self.springs])

    @cached_property
    def penalized_keys(self) -> np.ndarray:
        return _frozen([(n, *o) for t in self.penalized_triangles for n, o in t.nodes],
                       (-1, 3, 3))

    @cached_property
    def penalized_area(self) -> np.ndarray:
        return _frozen([t.area for t in self.penalized_triangles])

    @cached_property
    def cover_keys(self) -> np.ndarray:
        return _frozen([(n, *o) for tri in self.triangulation for n, o in tri], (-1, 3, 3))

    @cached_property
    def marker_keys(self) -> np.ndarray:
        return _frozen([(n, *o) for mk in self.marker_edges
                        for n, o in mk.b_edge + mk.r_edge], (-1, 2, 2, 3))

    def __eq__(self, other):
        if not isinstance(other, LatticeSpec):
            return NotImplemented
        return self._json == other._json

    def __hash__(self):
        return hash(self._json)

    # -- serialization -------------------------------------------------------

    def to_json(self, path=None) -> str:
        """Serialize to the documented JSON format (see ``docs/formats.md``)."""
        text = self._json
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @cached_property
    def _json(self) -> str:
        """The canonical JSON text, built once per (immutable) instance."""
        pen_sets = [frozenset(t.nodes) for t in self.penalized_triangles]
        data = {
            "name": self.name,
            "v1": list(self.v1),
            "v2": list(self.v2),
            "basic_nodes": [list(p) for p in self.basic_nodes],
            "springs": [{"a": a, "b": b, "k_spring": s.stiffness}
                        for (a, b), s in zip(self.spring_keys.tolist(), self.springs)],
            "triangles": [{"nodes": nodes, "penalized": frozenset(tri) in pen_sets}
                          for nodes, tri in zip(self.cover_keys.tolist(), self.triangulation)],
            "markers": [{"b": b, "r": r, "t": m.triangle}
                        for (b, r), m in zip(self.marker_keys.tolist(), self.marker_edges)],
            "alpha": self.alpha,
            "c_marker": self.c_marker,
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, source) -> "LatticeSpec":
        """Load a spec from a JSON string or file path.

        Unknown keys are rejected; spring rest lengths and triangle areas
        are recomputed from node positions rather than read from the file.
        """
        text = source
        if "\n" not in str(source) and str(source).endswith(".json"):
            with open(source) as fh:
                text = fh.read()
        data = json.loads(text)
        required = {
            "name", "v1", "v2", "basic_nodes", "springs",
            "triangles", "markers", "alpha", "c_marker",
        }
        got = set(data)
        if got != required:
            extra, missing = got - required, required - got
            raise ValueError(
                f"bad lattice JSON: unknown keys {sorted(extra)}, missing {sorted(missing)}"
            )

        def ref(lst):
            i, o1, o2 = lst
            return (int(i), (int(o1), int(o2)))

        v1 = np.asarray(data["v1"], dtype=float)
        v2 = np.asarray(data["v2"], dtype=float)
        basic = np.asarray(data["basic_nodes"], dtype=float)
        frame = (v1, v2, basic)

        springs = []
        for s in data["springs"]:
            if set(s) != {"a", "b", "k_spring"}:
                raise ValueError(f"bad spring entry keys {sorted(s)}")
            springs.append(_spring(frame, ref(s["a"]), ref(s["b"]), s["k_spring"]))
        triangulation = []
        penalized = []
        for t in data["triangles"]:
            if set(t) != {"nodes", "penalized"}:
                raise ValueError(f"bad triangle entry keys {sorted(t)}")
            nodes = tuple(ref(r) for r in t["nodes"])
            triangulation.append(nodes)
            if t["penalized"]:
                penalized.append(_triangle(frame, nodes))
        markers = []
        for m in data["markers"]:
            if set(m) != {"b", "r", "t"}:
                raise ValueError(f"bad marker entry keys {sorted(m)}")
            markers.append(
                MarkerPair(
                    (ref(m["b"][0]), ref(m["b"][1])),
                    (ref(m["r"][0]), ref(m["r"][1])),
                    int(m["t"]),
                )
            )
        return cls(
            name=str(data["name"]),
            v1=v1,
            v2=v2,
            basic_nodes=basic,
            springs=tuple(springs),
            penalized_triangles=tuple(penalized),
            marker_edges=tuple(markers),
            alpha=float(data["alpha"]),
            c_marker=float(data["c_marker"]),
            triangulation=tuple(triangulation),
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _point_in_cover(spec: LatticeSpec, p: np.ndarray, tol: float = 1e-9) -> bool:
    q0, q1, q2 = spec.node_positions(spec.cover_keys).transpose(1, 0, 2)
    b = np.linalg.solve(np.stack([q1 - q0, q2 - q0], axis=-1), (p - q0)[..., None])[..., 0]
    return bool(((b >= -tol).all(axis=1) & (b[:, 0] + b[:, 1] <= 1 + tol)).any())


def _validate_spec(spec: LatticeSpec) -> None:
    scale = max(np.linalg.norm(spec.v1), np.linalg.norm(spec.v2))
    if abs(float(cross2(spec.v1, spec.v2))) <= 1e-12 * scale**2:
        raise DegenerateGeometryError("period vectors are linearly dependent")
    if spec.n_basic == 0:
        raise DegenerateGeometryError("lattice has no basic nodes")

    # basic nodes must be distinct modulo the lattice
    M = spec.cell_matrix
    for i in range(spec.n_basic):
        for j in range(i + 1, spec.n_basic):
            frac = np.linalg.solve(M, spec.basic_nodes[i] - spec.basic_nodes[j])
            if np.max(np.abs(frac - np.round(frac))) < 1e-9:
                raise DegenerateGeometryError(
                    f"basic nodes {i} and {j} coincide modulo the lattice"
                )

    # triangulation: counterclockwise triangles tiling one cell area
    total = 0.0
    seen_nodes = set()
    for tri in spec.triangulation:
        if len(tri) != 3:
            raise ValueError(f"triangle {tri!r} does not have three vertices")
        p0, p1, p2 = (spec.node_position(r) for r in tri)
        area2 = float(cross2(p1 - p0, p2 - p0))
        if area2 <= 1e-12 * scale**2:
            raise DegenerateGeometryError(
                f"triangle {tri!r} is degenerate or clockwise (2*area={area2:g})"
            )
        total += 0.5 * area2
        seen_nodes.update(r[0] for r in tri)
    if abs(total - spec.cell_area) > 1e-9 * scale**2:
        raise DegenerateGeometryError(
            f"cover area {total:g} does not match cell area {spec.cell_area:g}"
        )
    if seen_nodes != set(range(spec.n_basic)):
        raise DegenerateGeometryError("some basic node never appears in the cover")

    # penalized triangles must be cover triangles with matching areas
    cover_sets = {frozenset(t) for t in spec.triangulation}
    for t in spec.penalized_triangles:
        if frozenset(t.nodes) not in cover_sets:
            raise DegenerateGeometryError(
                f"penalized triangle {t.nodes!r} is not part of the cover"
            )
        p0, p1, p2 = (spec.node_position(r) for r in t.nodes)
        if abs(0.5 * float(cross2(p1 - p0, p2 - p0)) - t.area) > 1e-12 * scale**2:
            raise DegenerateGeometryError("penalized triangle area mismatch")

    # springs: positive rest length equal to reference distance, endpoints
    # inside the closed cell region (springs never cross the cell boundary)
    spring_keys = {}
    for idx, s in enumerate(spec.springs):
        d = np.linalg.norm(spec.edge_vector((s.a, s.b)))
        if d <= 1e-12 * scale:
            raise DegenerateGeometryError(f"spring {idx} has zero length")
        if abs(d - s.rest_length) > 1e-9 * scale:
            raise DegenerateGeometryError(
                f"spring {idx} rest length {s.rest_length:g} != distance {d:g}"
            )
        if s.stiffness <= 0:
            raise DegenerateGeometryError(f"spring {idx} has non-positive stiffness")
        key = _seg_key(s.a, s.b)
        if key in spring_keys:
            raise DegenerateGeometryError(
                f"springs {spring_keys[key]} and {idx} are lattice translates"
            )
        spring_keys[key] = idx
        for end in (s.a, s.b):
            if not _point_in_cover(spec, spec.node_position(end)):
                raise DegenerateGeometryError(
                    f"spring {idx} endpoint {end!r} lies outside the cell region"
                )

    # every spring's energy must reach a penalized triangle through a
    # shared basic node (see spring_attribution)
    pen_nodes = {r[0] for t in spec.penalized_triangles for r in t.nodes}
    for idx, s in enumerate(spec.springs):
        if s.a[0] not in pen_nodes and s.b[0] not in pen_nodes:
            raise DegenerateGeometryError(
                f"spring {idx} shares no endpoint with any penalized triangle"
            )

    # markers: spring-aligned edges with r = c R(alpha) b
    R = rotation(spec.alpha)
    for m, mk in enumerate(spec.marker_edges):
        if not 0 <= mk.triangle < len(spec.penalized_triangles):
            raise ValueError(f"marker {m} points to invalid triangle {mk.triangle}")
        for edge in (mk.b_edge, mk.r_edge):
            if _seg_key(*edge) not in spring_keys:
                raise DegenerateGeometryError(
                    f"marker {m} edge {edge!r} does not lie along a spring"
                )
        b, r = spec.marker_vectors(m)
        if np.linalg.norm(r - spec.c_marker * (R @ b)) > 1e-9 * scale:
            raise DegenerateGeometryError(
                f"marker {m} violates r = c R(alpha) b"
            )
    if not spec.marker_edges:
        raise DegenerateGeometryError("lattice carries no marker edges")


# ---------------------------------------------------------------------------
# spring-to-triangle attribution
# ---------------------------------------------------------------------------


def spring_attribution(spec: LatticeSpec):
    """Assign every spring's energy to penalized triangles.

    A spring claimed as a side by ``m`` penalized triangles contributes the
    fraction ``1 / m`` of its energy to each; springs that are a side of no
    penalized triangle go wholesale to the lowest-index penalized triangle
    sharing one of their endpoints.  Returns, per penalized triangle, a
    list of ``(spring_index, (d1, d2), weight)``: the triangle in cell
    ``(i, j)`` owns that share of the spring instance in cell
    ``(i + d1, j + d2)``.  Weights per spring class always sum to one, so
    per-triangle energies sum to the spring total exactly.
    """
    keys = {_seg_key(s.a, s.b): i for i, s in enumerate(spec.springs)}
    claims = [[] for _ in spec.penalized_triangles]
    counts = np.zeros(len(spec.springs), dtype=int)
    for t, tri in enumerate(spec.penalized_triangles):
        for u, v in ((0, 1), (1, 2), (2, 0)):
            a, b = tri.nodes[u], tri.nodes[v]
            idx = keys.get(_seg_key(a, b))
            if idx is None:
                continue
            s = spec.springs[idx]
            # align the side with the spring class to find the cell offset
            if a[0] == s.a[0] and b[0] == s.b[0] and (
                a[1][0] - s.a[1][0] == b[1][0] - s.b[1][0]
                and a[1][1] - s.a[1][1] == b[1][1] - s.b[1][1]
            ):
                delta = (a[1][0] - s.a[1][0], a[1][1] - s.a[1][1])
            else:
                delta = (a[1][0] - s.b[1][0], a[1][1] - s.b[1][1])
            claims[t].append((idx, delta))
            counts[idx] += 1
    out = [[] for _ in spec.penalized_triangles]
    for t, lst in enumerate(claims):
        for idx, delta in lst:
            out[t].append((idx, delta, 1.0 / counts[idx]))
    # leftover springs: attach to the first penalized triangle sharing a
    # node (one exists: _validate_spec checks it)
    for idx, s in enumerate(spec.springs):
        if counts[idx]:
            continue
        t, vert, end = next(
            (t, vert, end)
            for t, tri in enumerate(spec.penalized_triangles)
            for vert in tri.nodes
            for end in (s.a, s.b)
            if vert[0] == end[0]
        )
        out[t].append((idx, (vert[1][0] - end[1][0], vert[1][1] - end[1][1]), 1.0))
    return out


# ---------------------------------------------------------------------------
# supercells
# ---------------------------------------------------------------------------


class Edges(NamedTuple):
    """Stacked edge classes: ``tail`` and ``head`` slots ``(n, k*k)`` over
    the cells and reference vectors ``dx`` ``(n, 2)``."""

    tail: np.ndarray
    head: np.ndarray
    dx: np.ndarray


def edge_vectors(lam, psi, tail, head, dx) -> np.ndarray:
    """Deformed vectors ``(n, k*k, 2)`` of stacked edge classes under
    ``u = lam x + psi``."""
    # matmul over stacked columns gives the bits of ``lam @ dx`` class by class
    return psi[head] - psi[tail] + np.matmul(lam, dx[:, :, None])[:, None, :, 0]


def ordered_sum(terms):
    """Sum over the first axis from zero, one term after another, as a
    ``+=`` loop does; ``np.sum`` switches to pairwise sums from eight
    terms on, which moves the last bits."""
    zero = np.zeros((1,) + terms.shape[1:])
    return np.add.accumulate(np.concatenate([zero, terms]))[-1]


def _slot(k, node, o1, o2):
    """:meth:`Supercell.slot` on a ``k x k`` supercell."""
    return (node * k + o1 % k) * k + o2 % k


def _cell_keys(spec: LatticeSpec) -> np.ndarray:
    """Sorted ``(n, 3)`` rows ``(node, o1, o2)`` of the node references of
    one cell: spring endpoints and cover vertices."""
    return np.unique(np.concatenate([spec.spring_keys.reshape(-1, 3),
                                     spec.cover_keys.reshape(-1, 3)]), axis=0)


class Supercell:
    """Assembled index arrays for a ``k x k`` periodic tiling of a spec.

    Node slots are numbered ``(node * k + i) * k + j`` for basic node
    ``node`` in cell ``(i, j)``; cells are enumerated ``c = i * k + j``.
    Each class of springs, penalized triangles and markers is one row of
    a stacked array, built from the spec's integer rows (``spring_keys``,
    ``penalized_keys``, ``marker_keys``) in class order; axes of length
    ``k*k`` run over the cells ``c``:

    - ``springs``: :class:`Edges` from ``a`` to ``b``; ``spring_rest`` and
      ``spring_stiffness`` ``(ns,)``;
    - ``tri_slots`` ``(nt, 3, k*k)``: slots of the vertices ``P0, P1, P2``;
      ``tri_d1``, ``tri_d2`` ``(nt, 2)``: reference edges ``P1 - P0`` and
      ``P2 - P0``; ``tri_cross0`` ``(nt,)``: their cross product (twice
      the area, positive); ``tri_area`` ``(nt,)``;
    - ``marker_b``, ``marker_r``: :class:`Edges` of the marker edges;
      ``marker_b_spring``, ``marker_r_spring`` ``(nm,)``: the spring class
      each edge lies along;
    - attribution rows, grouped by triangle in :func:`spring_attribution`
      order: the triangle in cell ``c`` owns ``attr_weight`` of spring
      ``attr_spring`` in cell ``attr_cells[:, c]`` (``attr_triangle``,
      ``attr_spring``, ``attr_weight`` ``(na,)``, ``attr_cells``
      ``(na, k*k)``).

    Energies and gradients add these rows up in exactly this order, class
    by class, which fixes the bits of every result.
    """

    def __init__(self, spec: LatticeSpec, k: int):
        k = int(k)
        if k < 1:
            raise ValueError(f"supercell size must be >= 1, got {k}")
        self.spec = spec
        self.k = k
        kk = k * k
        nb = spec.n_basic
        self.n_nodes = nb * kk
        self.cell_area = kk * spec.cell_area

        ci = np.repeat(np.arange(k), k)
        cj = np.tile(np.arange(k), k)
        shifts = ci[:, None] * spec.v1 + cj[:, None] * spec.v2
        self.ref_positions = (
            spec.basic_nodes[:, None, :] + shifts[None, :, :]
        ).reshape(self.n_nodes, 2)

        def slots(key):
            return self.slot(key[..., 0:1], key[..., 1:2] + ci, key[..., 2:3] + cj)

        def edges(key):
            x = spec.node_positions(key)
            return Edges(slots(key[:, 0]), slots(key[:, 1]), x[:, 1] - x[:, 0])

        self.springs = edges(spec.spring_keys)
        self.spring_rest = spec.spring_rest
        self.spring_stiffness = spec.spring_stiffness

        x = spec.node_positions(spec.penalized_keys)
        self.tri_slots = slots(spec.penalized_keys)
        self.tri_d1 = x[:, 1] - x[:, 0]
        self.tri_d2 = x[:, 2] - x[:, 0]
        self.tri_cross0 = cross2(self.tri_d1, self.tri_d2)
        self.tri_area = 0.5 * self.tri_cross0

        index = {_seg_key(s.a, s.b): i for i, s in enumerate(spec.springs)}
        self.marker_b = edges(spec.marker_keys[:, 0])
        self.marker_r = edges(spec.marker_keys[:, 1])
        self.marker_b_spring = np.array([index[_seg_key(*mk.b_edge)] for mk in spec.marker_edges])
        self.marker_r_spring = np.array([index[_seg_key(*mk.r_edge)] for mk in spec.marker_edges])

        rows = [(t, idx, d1, d2, w)
                for t, entries in enumerate(spring_attribution(spec))
                for idx, (d1, d2), w in entries]
        t, idx, d1, d2, w = (np.array(col) for col in zip(*rows))
        self.attr_triangle, self.attr_spring, self.attr_weight = t, idx, w
        # node 0's slot in a cell is the cell's number
        self.attr_cells = self.slot(0, ci + d1[:, None], cj + d2[:, None])

    def slot(self, node, o1, o2):
        """Slot of basic node ``node`` translated by ``(o1, o2)``, wrapped
        into the supercell; works elementwise on integer arrays."""
        return _slot(self.k, node, o1, o2)

    def zero_deformation(self, lam=None) -> "PeriodicDeformation":
        lam = np.eye(2) if lam is None else lam
        return PeriodicDeformation(self, lam, np.zeros((self.n_nodes, 2)))


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------


@dataclass
class PeriodicDeformation:
    """A deformation ``u(x) = lam x + psi(x)`` with ``psi`` periodic on a
    ``k x k`` supercell; ``psi`` holds one 2-vector per node slot."""

    cell: Supercell
    lam: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float).reshape(2, 2)
        self.psi = np.asarray(self.psi, dtype=float).reshape(self.cell.n_nodes, 2)

    @property
    def spec(self) -> LatticeSpec:
        return self.cell.spec

    def evaluate(self, ref: NodeRef, cell=(0, 0)) -> np.ndarray:
        """Deformed position of node ``ref`` translated by ``cell``."""
        node, (o1, o2) = ref
        return self.node_positions([node, o1 + cell[0], o2 + cell[1]])

    def node_positions(self, keys) -> np.ndarray:
        """Deformed positions of integer node rows ``keys`` ``(..., 3)``;
        ``lam`` multiplies each row like ``lam @ x`` on one vector."""
        keys = np.asarray(keys)
        x = self.spec.node_positions(keys)
        return (np.matmul(self.lam, x[..., None])[..., 0]
                + self.psi[self.cell.slot(keys[..., 0], keys[..., 1], keys[..., 2])])

    def node_values(self) -> np.ndarray:
        """Deformed positions of all canonical supercell nodes."""
        return self.cell.ref_positions @ self.lam.T + self.psi

    def translate(self, shift) -> "PeriodicDeformation":
        return PeriodicDeformation(self.cell, self.lam, self.psi + np.asarray(shift))

    def rotate(self, R) -> "PeriodicDeformation":
        """Left-compose with a linear map (typically a rotation)."""
        R = np.asarray(R, dtype=float)
        return PeriodicDeformation(self.cell, R @ self.lam, self.psi @ R.T)

    def tile(self, k: int) -> "PeriodicDeformation":
        """Re-express on a finer ``k x k`` supercell (``k`` need not be a
        multiple of the current period; ``psi`` wraps periodically)."""
        big = Supercell(self.spec, k)
        # the slots of ``big`` enumerate (node, i, j) in C order
        node, i, j = np.indices((self.spec.n_basic, k, k)).reshape(3, -1)
        return PeriodicDeformation(big, self.lam, self.psi[self.cell.slot(node, i, j)])


# ---------------------------------------------------------------------------
# built-in structures
# ---------------------------------------------------------------------------


def _position(frame, ref) -> np.ndarray:
    """Reference position of ``ref`` in ``frame = (v1, v2, basic_nodes)``."""
    v1, v2, basic = frame
    node, (o1, o2) = ref
    return basic[node] + o1 * v1 + o2 * v2


def _spring(frame, a, b, stiffness=1.0) -> Spring:
    a, b = _as_ref(a), _as_ref(b)
    length = np.linalg.norm(_position(frame, b) - _position(frame, a))
    return Spring(a, b, float(length), float(stiffness))


def _triangle(frame, refs) -> PenalizedTriangle:
    refs = tuple(_as_ref(r) for r in refs)
    p0, p1, p2 = (_position(frame, r) for r in refs)
    return PenalizedTriangle(refs, 0.5 * float(cross2(p1 - p0, p2 - p0)))


def _assemble(name, v1, v2, basic, springs, penalized, markers, holes,
              alpha, c_marker) -> LatticeSpec:
    """A spec with rest lengths and areas taken from the reference
    geometry.  ``springs`` are ``(a, b)`` or ``(a, b, stiffness)``,
    ``markers`` ``(b_edge, r_edge, triangle)``; the cover lists the
    ``penalized`` triangles first, then the ``holes``."""
    frame = (v1, v2, basic)
    penalized = tuple(_triangle(frame, t) for t in penalized)
    return LatticeSpec(
        name=name,
        v1=v1,
        v2=v2,
        basic_nodes=basic,
        springs=tuple(_spring(frame, *s) for s in springs),
        penalized_triangles=penalized,
        marker_edges=tuple(MarkerPair(*m) for m in markers),
        alpha=alpha,
        c_marker=c_marker,
        triangulation=tuple(t.nodes for t in penalized) + tuple(holes),
    )


def build_kagome() -> LatticeSpec:
    """Triangles of unit side on the kagome arrangement.

    The cell ``[0, 2] x [0, sqrt(3)]`` holds one upward and one downward
    triangle joined at a pinch node, the surrounding hexagonal holes split
    into four cover triangles.  Markers point along the horizontal spring
    lines (``b``) and their 60-degree partners (``r``).

    The basic nodes and their labels differ from ``general-kagome`` at its
    defaults (node ``A`` there sits at the origin), so the built-in keeps
    its own layout: its artifacts and the pinch node of
    :func:`latmech.mechanisms.domain_wall_mechanism` depend on it.
    """
    rt3 = np.sqrt(3.0)
    A, O, D = 0, 1, 2
    return _assemble(
        "kagome",
        np.array([2.0, 0.0]),
        np.array([1.0, rt3]),
        np.array([[1.0, 0.0], [0.5, 0.5 * rt3], [1.0, rt3]]),
        springs=(
            ((A, (0, 0)), (O, (0, 0))),     # A-O
            ((D, (0, -1)), (O, (0, 0))),    # B-O
            ((A, (-1, 1)), (O, (0, 0))),    # C-O
            ((D, (0, 0)), (O, (0, 0))),     # D-O
            ((A, (0, 0)), (D, (1, -1))),    # A-F
            ((D, (0, 0)), (A, (0, 1))),     # D-E
        ),
        penalized=(
            ((A, (-1, 1)), (O, (0, 0)), (D, (0, 0))),   # down: C O D
            ((A, (0, 0)), (O, (0, 0)), (D, (0, -1))),   # up:   A O B
        ),
        markers=(
            (((A, (-1, 1)), (D, (0, 0))), ((O, (0, 0)), (D, (0, 0))), 0),
            (((D, (0, -1)), (A, (0, 0))), ((D, (0, -1)), (O, (0, 0))), 1),
        ),
        holes=(
            ((D, (0, -1)), (O, (0, 0)), (A, (-1, 1))),   # B O C
            ((A, (0, 0)), (D, (1, -1)), (O, (0, 0))),    # A F O
            ((D, (1, -1)), (A, (0, 1)), (D, (0, 0))),    # F E D
            ((D, (1, -1)), (D, (0, 0)), (O, (0, 0))),    # F D O
        ),
        alpha=np.pi / 3,
        c_marker=1.0,
    )


def build_rotating_squares() -> LatticeSpec:
    """Unit squares joined at corners, diagonally braced.

    Each square is split by its braced diagonal (stiffness 2) into two
    penalized triangles; the square holes between them are covered but not
    penalized.  Markers run along the horizontal spring lines (``b``) and
    the vertical ones (``r``).  This is ``rhombus-squares`` at angle
    ``pi/2``, sizes 1, with the exact unit direction ``(0, 1)`` (the
    variant's ``cos(pi/2)`` is ``6e-17``)."""
    return _rhombus_family("rotating-squares", np.pi / 2, (0.0, 1.0), 1.0, 1.0)


# ---------------------------------------------------------------------------
# parametric variants
# ---------------------------------------------------------------------------


def _kagome_family(name, alpha, leg_ratio, size_ratio, size) -> LatticeSpec:
    """Triangles of one shape and two sizes on the kagome topology.

    Each triangle has a ``b`` side of length ``l`` along the horizontal
    spring line and an ``r`` side of length ``leg_ratio * l`` at angle
    ``alpha``; the two triangle families have ``l = size`` and
    ``l = size * size_ratio``.
    """
    if not 0 < alpha < np.pi:
        raise DegenerateGeometryError(f"marker angle must be in (0, pi), got {alpha:g}")
    if leg_ratio <= 0 or size_ratio <= 0 or size <= 0:
        raise DegenerateGeometryError("ratios and sizes must be positive")
    l1 = float(size)
    l2 = float(size * size_ratio)
    c = float(leg_ratio)
    e1 = np.array([1.0, 0.0])
    ea = np.array([np.cos(alpha), np.sin(alpha)])
    nB = c * l1 * ea
    nC = nB + l2 * e1          # the shared corner node, kept inside the cell
    A, B, C = 0, 1, 2
    penalized = (
        ((A, (1, 0)), (B, (1, 0)), (C, (0, 0))),
        ((A, (0, 1)), (B, (0, 0)), (C, (0, 0))),
    )
    cycle = (
        (A, (0, 0)), (A, (1, 0)), (B, (1, 0)), (A, (1, 1)), (A, (0, 1)), (B, (0, 0)),
    )
    fans = [((C, (0, 0)), cycle[m], cycle[(m + 1) % 6]) for m in range(6)]
    pen_sets = {frozenset(t) for t in penalized}
    return _assemble(
        name,
        (l1 + l2) * e1,
        c * (l1 + l2) * ea,
        np.array([np.zeros(2), nB, nC]),
        springs=(
            ((A, (1, 0)), (B, (1, 0))),
            ((B, (1, 0)), (C, (0, 0))),
            ((C, (0, 0)), (A, (1, 0))),
            ((A, (0, 1)), (B, (0, 0))),
            ((B, (0, 0)), (C, (0, 0))),
            ((C, (0, 0)), (A, (0, 1))),
        ),
        penalized=penalized,
        markers=(
            (((C, (0, 0)), (B, (1, 0))), ((A, (1, 0)), (B, (1, 0))), 0),
            (((B, (0, 0)), (C, (0, 0))), ((B, (0, 0)), (A, (0, 1))), 1),
        ),
        holes=[t for t in fans if frozenset(t) not in pen_sets],
        alpha=alpha,
        c_marker=c,
    )


def _squares(name, v1, v2, basic, alpha, springs, markers, holes) -> LatticeSpec:
    """Corner-joined quadrilaterals ``A B O D`` (basic nodes 0-3) with the
    ``A-O`` diagonal braced (stiffness 2), each split into two penalized
    triangles; ``springs`` and ``holes`` follow the shared ones."""
    A, B, D, O = 0, 1, 2, 3
    return _assemble(
        name, v1, v2, basic,
        springs=(
            ((A, (0, 0)), (B, (0, 0))),             # A-B
            ((A, (0, 0)), (O, (0, 0)), 2.0),        # A-O brace
            ((A, (0, 0)), (D, (0, 0))),             # A-D
            ((B, (0, 0)), (A, (1, 0))),             # B-C
            ((B, (0, 0)), (O, (0, 0))),             # B-O
            ((D, (0, 0)), (O, (0, 0))),             # D-O
            ((O, (0, 0)), (D, (1, 0))),             # O-E
            ((D, (0, 0)), (A, (0, 1))),             # D-F
            ((O, (0, 0)), (B, (0, 1))),             # O-G
            ((O, (0, 0)), (A, (1, 1)), 2.0),        # O-H brace
        ) + springs,
        penalized=(
            ((A, (0, 0)), (B, (0, 0)), (O, (0, 0))),
            ((A, (0, 0)), (O, (0, 0)), (D, (0, 0))),
            ((O, (0, 0)), (D, (1, 0)), (A, (1, 1))),
            ((O, (0, 0)), (A, (1, 1)), (B, (0, 1))),
        ),
        markers=markers,
        holes=(
            ((B, (0, 0)), (A, (1, 0)), (D, (1, 0))),
            ((B, (0, 0)), (D, (1, 0)), (O, (0, 0))),
        ) + holes,
        alpha=alpha,
        c_marker=1.0,
    )


def _rhombus_family(name, angle, ew, size_ratio, size) -> LatticeSpec:
    """Corner-joined rhombi of two sizes, diagonally braced, with sides
    along ``(1, 0)`` and the unit direction ``ew`` at ``angle``."""
    if not 0 < angle < np.pi:
        raise DegenerateGeometryError(f"rhombus angle must be in (0, pi), got {angle:g}")
    if size <= 0 or size_ratio <= 0:
        raise DegenerateGeometryError("sizes must be positive")
    L1 = float(size)
    L2 = float(size * size_ratio)
    eu = np.array([1.0, 0.0])
    ew = np.array(ew)
    A, B, D, O = 0, 1, 2, 3
    return _squares(
        name, (L1 + L2) * eu, (L1 + L2) * ew,
        np.array([np.zeros(2), L1 * eu, L1 * ew, L1 * (eu + ew)]), angle,
        springs=(),
        markers=(
            (((A, (0, 0)), (B, (0, 0))), ((B, (0, 0)), (O, (0, 0))), 0),
            (((D, (0, 0)), (O, (0, 0))), ((A, (0, 0)), (D, (0, 0))), 1),
            (((O, (0, 0)), (D, (1, 0))), ((D, (1, 0)), (A, (1, 1))), 2),
            (((B, (0, 1)), (A, (1, 1))), ((O, (0, 0)), (B, (0, 1))), 3),
        ),
        holes=(
            ((D, (0, 0)), (O, (0, 0)), (B, (0, 1))),
            ((D, (0, 0)), (B, (0, 1)), (A, (0, 1))),
        ),
    )


def _rhombus_squares(angle=np.pi / 2, size_ratio=1.0, size=1.0):
    return _rhombus_family("rhombus-squares", angle, (np.cos(angle), np.sin(angle)),
                           size_ratio, size)


def _quad_squares(alpha=np.pi / 2, s=0.5, q=0.5, d1=1.0, d2=1.0) -> LatticeSpec:
    """Corner-joined congruent quadrilaterals with both diagonals braced.

    The diagonals have equal length ``d1 = d2`` and meet at angle
    ``alpha``; ``s`` and ``q`` locate the crossing point along the two
    diagonals.  Markers run along the diagonals themselves: the braced
    ``b`` diagonal ``A-O`` and the ``r`` diagonal ``B-D``.
    """
    if abs(d1 - d2) > 1e-12 * max(d1, d2):
        raise DegenerateGeometryError(
            f"diagonals must have equal length, got {d1:g} and {d2:g}"
        )
    if not 0 < alpha < np.pi:
        raise DegenerateGeometryError(f"diagonal angle must be in (0, pi), got {alpha:g}")
    if not (0 < s < 1 and 0 < q < 1):
        raise DegenerateGeometryError("crossing fractions must lie in (0, 1)")
    if d1 <= 0:
        raise DegenerateGeometryError("diagonal length must be positive")
    L = float(d1)
    e1 = np.array([1.0, 0.0])
    er = np.array([np.cos(alpha), np.sin(alpha)])
    nB = s * L * e1 - q * L * er
    nD = s * L * e1 + (1 - q) * L * er
    A, B, D, O = 0, 1, 2, 3
    return _squares(
        "quad-squares", L * (e1 - er), L * (e1 + er),
        np.array([np.zeros(2), nB, nD, L * e1]), alpha,
        springs=(
            ((B, (0, 0)), (D, (0, 0))),          # r diagonal
            ((D, (1, 0)), (B, (0, 1))),          # r diagonal
        ),
        markers=(
            (((A, (0, 0)), (O, (0, 0))), ((B, (0, 0)), (D, (0, 0))), 0),
            (((O, (0, 0)), (A, (1, 1))), ((D, (1, 0)), (B, (0, 1))), 2),
        ),
        holes=(
            ((O, (0, 0)), (B, (0, 1)), (A, (0, 1))),
            ((O, (0, 0)), (A, (0, 1)), (D, (0, 0))),
        ),
    )


def _isosceles_kagome(apex=np.pi / 3, size_ratio=1.0, size=1.0):
    return _kagome_family("isosceles-kagome", apex, 1.0, size_ratio, size)


def _general_kagome(alpha=np.pi / 3, leg_ratio=1.0, size_ratio=1.0, size=1.0):
    return _kagome_family("general-kagome", alpha, leg_ratio, size_ratio, size)


VARIANT_KINDS = {
    "isosceles-kagome": _isosceles_kagome,
    "general-kagome": _general_kagome,
    "rhombus-squares": _rhombus_squares,
    "quad-squares": _quad_squares,
}


def build_variant(kind: str, **params) -> LatticeSpec:
    """Build one of the parametric families in :data:`VARIANT_KINDS`.

    ``isosceles-kagome(apex, size_ratio, size)``:
        triangles with two equal marker sides meeting at ``apex``; the two
        families scale by ``size_ratio``.
    ``general-kagome(alpha, leg_ratio, size_ratio, size)``:
        same topology with ``|r| = leg_ratio * |b|``, so ``c != 1``.
    ``rhombus-squares(angle, size_ratio, size)``:
        corner-joined rhombi with interior angle ``angle``.  The built-in
        :func:`build_rotating_squares` is this family at ``angle = pi/2``,
        both sizes 1, with the exact direction ``(0, 1)`` in place of
        ``(cos(pi/2), sin(pi/2))``.
    ``quad-squares(alpha, s, q, d1, d2)``:
        congruent quadrilaterals with equal braced diagonals meeting at
        ``alpha``, crossing at fractions ``s`` and ``q``.  The pure
        counter-rotation mechanism requires midpoint crossing
        (``s = q = 1/2``); other parameters still build a valid lattice.
    """
    try:
        builder = VARIANT_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown variant kind {kind!r}; choose one of {sorted(VARIANT_KINDS)}"
        ) from None
    return builder(**params)
