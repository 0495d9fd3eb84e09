"""Reference geometry of periodic spring lattices.

A lattice is described by two independent period vectors ``v1, v2``, a
finite list of *basic nodes* (positions of the nodes owned by one unit
cell), springs connecting lattice translates of basic nodes, a conforming
triangulation (the *cover*) of the unit-cell region, and a distinguished
subset of the cover -- the *penalized triangles* -- whose orientation is
penalized by the energy.  Each structure also carries *marker edges*: pairs
``(b, r)`` of spring-aligned edge vectors satisfying ``r = c * R(alpha) b``
with one constant ``c`` and one angle ``alpha`` shared by every marker.
These markers drive the averaged-vector identities in
:mod:`latmech.geometry`.

A node reference is an integer row ``(node, o1, o2)``: basic node ``node``
translated by ``o1 * v1 + o2 * v2``.  The spec stores each class once, as
stacked rows, per unit cell with offsets chosen so that every endpoint
lies in the closure of the covered cell region, and every layer below it
reads those rows, the rigid units and their placements included.
Nested tuples ``(node, (o1, o2))`` appear only in error messages.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "LatticeSpec",
    "Supercell",
    "PeriodicDeformation",
    "build_kagome",
    "build_rotating_squares",
    "build_variant",
    "cross2",
    "kabsch_rotations",
    "rotation",
    "unique_rows",
    "VARIANT_KINDS",
]


class DegenerateGeometryError(ValueError):
    """Requested parameters produce a degenerate or inconsistent lattice."""


class MechanismError(RuntimeError):
    """An exact construction failed to close up to tolerance.

    Defined here, beside :class:`DegenerateGeometryError`, so that the
    command line can catch it without importing :mod:`latmech.mechanisms`,
    which raises it and lists it among its public names."""


# the most points one grid may hold; read only by _check_size
_GRID_POINTS = 10 ** 7


def _check_size(count, what) -> None:
    """Refuse ``count`` points of one grid past ``_GRID_POINTS``, naming
    them by ``what``, a plural; an ``inf`` or NaN count is refused too.
    Defined here, where the command line reads it without importing a
    solver module."""
    if not count <= _GRID_POINTS:
        raise ValueError(f"{what} number {count}, more than the limit of {_GRID_POINTS}")


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
    ``X[i]`` onto ``Y[i]`` (stacks ``(n, m, 2)``): the :func:`_polar`
    rotations of their cross-covariances."""
    return _polar(np.matmul((Y - Y.mean(axis=1, keepdims=True)).transpose(0, 2, 1),
                            X - X.mean(axis=1, keepdims=True)))


def _polar(H) -> np.ndarray:
    """The rotations ``(n, 2, 2)`` nearest the matrices ``H`` ``(n, 2, 2)``:
    ``U V^T`` of each SVD ``U S V^T``, with the last left singular vector
    flipped where that product is a reflection."""
    U, _, Vt = np.linalg.svd(H)
    U[np.linalg.det(U @ Vt) < 0, :, -1] *= -1
    return U @ Vt


def unique_rows(keys, return_inverse=False):
    """``np.unique(keys, axis=0)`` of an ``(n, m)`` signed integer table:
    the same rows in the same lexicographic order and, with
    ``return_inverse``, the same inverse, always flat ``(n,)``.

    Each row is coded as one int64 by ``np.ravel_multi_index`` over the
    span of the rows, which keeps lexicographic order, so the sort runs
    on integers instead of numpy's void-dtype view of whole rows.  When
    the span holds more codes than int64 does, ``ravel_multi_index``
    raises :class:`ValueError` rather than wrap.
    """
    keys = np.asarray(keys)
    if len(keys) == 0:
        rows, inverse = keys.copy(), np.empty(0, dtype=np.intp)
    else:
        lo = keys.min(axis=0)
        # Python ints: hi - lo + 1 cannot wrap here
        span = [h - l + 1 for l, h in zip(lo.tolist(), keys.max(axis=0).tolist())]
        codes, inverse = np.unique(np.ravel_multi_index(tuple((keys - lo).T), span),
                                   return_inverse=True)
        rows = (np.column_stack(np.unravel_index(codes, span)) + lo).astype(keys.dtype)
    return (rows, inverse) if return_inverse else rows


def _frozen(values, shape=-1, dtype=None) -> np.ndarray:
    """``values`` as a read-only array of the given shape."""
    arr = np.array(values, dtype=dtype).reshape(shape)
    arr.setflags(write=False)
    return arr


def _refs(rows):
    """Integer rows ``(..., 3)`` as the nested ``(node, (o1, o2))`` tuples
    that error messages print."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        node, o1, o2 = rows.tolist()
        return (node, (o1, o2))
    return tuple(_refs(r) for r in rows)


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


# stored fields: shape and dtype
_LAYOUT = {
    "v1": (2, float),
    "v2": (2, float),
    "basic_nodes": ((-1, 2), float),
    "spring_keys": ((-1, 2, 3), np.int64),
    "spring_stiffness": (-1, float),
    "cover_keys": ((-1, 3, 3), np.int64),
    "penalized": (-1, bool),
    "marker_keys": ((-1, 2, 2, 3), np.int64),
    "marker_triangle": (-1, np.int64),
}


@dataclass(eq=False)
class LatticeSpec:
    """Immutable description of one periodic spring lattice.

    Each class is stored once, as read-only stacked arrays with node
    references as integer rows ``(node, o1, o2)``:

    - ``spring_keys`` ``(ns, 2, 3)``: the ends ``a``, ``b`` of each spring
      class, with ``spring_stiffness`` ``(ns,)``;
    - ``cover_keys`` ``(ntri, 3, 3)``: the counterclockwise cover
      triangles, with the boolean mask ``penalized`` ``(ntri,)``;
    - ``marker_keys`` ``(nm, 2, 2, 3)``: the edges ``b`` and ``r`` of each
      marker, with the penalized triangle ``marker_triangle`` ``(nm,)`` it
      decorates.

    Derived from node positions on first use, never entered or
    serialized: ``spring_rest`` ``(ns,)``, ``penalized_keys`` (the rows
    ``cover_keys[penalized]``, in cover order) and ``penalized_area``
    ``(nt,)``.

    Equality and hashing go by the canonical :meth:`to_json` text, so a
    spec rebuilt from its JSON equals (and caches like) the original; a
    pickled spec (one sent to a worker process, say) is rebuilt so.
    """

    name: str
    v1: np.ndarray
    v2: np.ndarray
    basic_nodes: np.ndarray
    spring_keys: np.ndarray
    spring_stiffness: np.ndarray
    cover_keys: np.ndarray
    penalized: np.ndarray
    marker_keys: np.ndarray
    marker_triangle: np.ndarray
    alpha: float
    c_marker: float

    def __post_init__(self):
        for field, (shape, dtype) in _LAYOUT.items():
            setattr(self, field, _frozen(getattr(self, field), shape, dtype))
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

    def node_positions(self, keys) -> np.ndarray:
        """Reference positions of integer node rows ``keys`` ``(..., 3)``."""
        keys = np.asarray(keys)
        return (self.basic_nodes[keys[..., 0]] + keys[..., 1:2] * self.v1
                + keys[..., 2:3] * self.v2)

    def segments(self, keys) -> np.ndarray:
        """Reference vectors from tail to head of segment rows ``keys``
        ``(..., 2, 3)``."""
        x = self.node_positions(keys)
        return x[..., 1, :] - x[..., 0, :]

    # -- derived classes ------------------------------------------------------

    @cached_property
    def spring_rest(self) -> np.ndarray:
        return _frozen(norms(self.segments(self.spring_keys)))

    @cached_property
    def penalized_keys(self) -> np.ndarray:
        return _frozen(self.cover_keys[self.penalized], (-1, 3, 3))

    @cached_property
    def penalized_area(self) -> np.ndarray:
        x = self.node_positions(self.penalized_keys)
        return _frozen(0.5 * cross2(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]))

    def __eq__(self, other):
        if not isinstance(other, LatticeSpec):
            return NotImplemented
        return self._json == other._json

    def __hash__(self):
        return hash(self._json)

    def __reduce__(self):
        # rebuilt from its JSON by the validating constructor, read-only arrays and all
        return LatticeSpec.from_json, (self._json,)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The documented JSON text (see ``docs/formats.md``), without a
        trailing newline."""
        return self._json

    @cached_property
    def _json(self) -> str:
        """The canonical JSON text, built once per (immutable) instance."""
        data = {
            "name": self.name,
            "v1": list(self.v1),
            "v2": list(self.v2),
            "basic_nodes": [list(p) for p in self.basic_nodes],
            "springs": [{"a": a, "b": b, "k_spring": k} for (a, b), k in
                        zip(self.spring_keys.tolist(), self.spring_stiffness.tolist())],
            "triangles": [{"nodes": nodes, "penalized": pen} for nodes, pen in
                          zip(self.cover_keys.tolist(), self.penalized.tolist())],
            "markers": [{"b": b, "r": r, "t": t} for (b, r), t in
                        zip(self.marker_keys.tolist(), self.marker_triangle.tolist())],
            "alpha": self.alpha,
            "c_marker": self.c_marker,
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LatticeSpec":
        """Load a spec from its JSON text.

        Unknown keys are rejected, and so are a top level or an entry of
        ``springs``, ``triangles`` or ``markers`` that is not an object;
        spring rest lengths and triangle areas are recomputed from node
        positions rather than read from the text.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"bad lattice JSON: the top level is {type(data).__name__}, "
                             f"not an object")
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
        springs, triangles, markers = data["springs"], data["triangles"], data["markers"]
        for kind, entries, keys in (("spring", springs, {"a", "b", "k_spring"}),
                                    ("triangle", triangles, {"nodes", "penalized"}),
                                    ("marker", markers, {"b", "r", "t"})):
            if not isinstance(entries, list):
                raise ValueError(f"bad lattice JSON: {kind}s is {type(entries).__name__}, "
                                 f"not a list")
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise ValueError(f"bad lattice JSON: {kind} entry {i} is "
                                     f"{type(entry).__name__}, not an object")
                if set(entry) != keys:
                    raise ValueError(f"bad {kind} entry keys {sorted(entry)}")
        _check_json_types(data)
        for t in triangles:
            if len(t["nodes"]) != 3:
                raise ValueError(f"triangle {_refs(t['nodes'])!r} does not have three vertices")
        return cls(
            name=data["name"],
            v1=data["v1"],
            v2=data["v2"],
            basic_nodes=data["basic_nodes"],
            spring_keys=[(s["a"], s["b"]) for s in springs],
            spring_stiffness=[s["k_spring"] for s in springs],
            cover_keys=[t["nodes"] for t in triangles],
            penalized=[t["penalized"] for t in triangles],
            marker_keys=[(m["b"], m["r"]) for m in markers],
            marker_triangle=[m["t"] for m in markers],
            alpha=float(data["alpha"]),
            c_marker=float(data["c_marker"]),
        )


def _is_int(x) -> bool:
    """Whether a parsed JSON value is an integer that an int64 holds;
    ``true`` and ``false`` are not integers."""
    return type(x) is int and -2 ** 63 <= x < 2 ** 63


def _is_number(x) -> bool:
    """Whether a parsed JSON value is a number that a float holds (``inf``
    and ``nan`` included); ``true`` and ``false`` are not numbers."""
    return type(x) is float or (type(x) is int and abs(x) <= int(sys.float_info.max))


def _is_list(x, n, item) -> bool:
    """Whether a parsed JSON value is a list of ``n`` values (any number when
    ``n`` is ``None``), each passing ``item``."""
    return isinstance(x, list) and (n is None or len(x) == n) and all(map(item, x))


def _is_ref(x) -> bool:
    """Whether a parsed JSON value is a node reference ``[node, o1, o2]``."""
    return _is_list(x, 3, _is_int)


def _check_json_types(data) -> None:
    """Reject a value of spec JSON ``data`` of the wrong JSON type, naming its
    entry, before any is converted: ``int`` and ``float`` would take a
    string or a boolean, and ``bool`` any value at all."""
    def expect(ok, what, value, kind):
        if not ok:
            raise ValueError(f"bad lattice JSON: {what} is {json.dumps(value)}, not {kind}")

    expect(isinstance(data["name"], str), "name", data["name"], "a string")
    for key in ("v1", "v2"):
        expect(_is_list(data[key], 2, _is_number), key, data[key], "two numbers")
    for key in ("alpha", "c_marker"):
        expect(_is_number(data[key]), key, data[key], "a number")
    expect(isinstance(data["basic_nodes"], list), "basic_nodes", data["basic_nodes"], "a list")
    for i, p in enumerate(data["basic_nodes"]):
        expect(_is_list(p, 2, _is_number), f"basic node {i}", p, "two numbers")
    ref = "a node reference of three 64-bit integers"
    for i, s in enumerate(data["springs"]):
        for end in ("a", "b"):
            expect(_is_ref(s[end]), f"spring {i} {end}", s[end], ref)
        expect(_is_number(s["k_spring"]), f"spring {i} k_spring", s["k_spring"], "a number")
    for i, t in enumerate(data["triangles"]):
        expect(_is_list(t["nodes"], None, _is_ref), f"triangle {i} nodes", t["nodes"],
               "a list of node references of three 64-bit integers")
        expect(type(t["penalized"]) is bool, f"triangle {i} penalized", t["penalized"],
               "true or false")
    for i, m in enumerate(data["markers"]):
        for edge in ("b", "r"):
            expect(_is_list(m[edge], 2, _is_ref), f"marker {i} {edge}", m[edge],
                   "two node references of three 64-bit integers")
        expect(_is_int(m["t"]), f"marker {i} t", m["t"], "a 64-bit integer")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _segment_index(spec: LatticeSpec, rows) -> np.ndarray:
    """The spring class along each segment row ``(..., 2, 3)``: the first
    whose lattice translate joins the same two nodes, read either way;
    -1 where none does."""
    def key(a, b):
        return np.concatenate([a[..., :1], b[..., :1], b[..., 1:] - a[..., 1:]], axis=-1)

    rows = np.asarray(rows)
    s = spec.spring_keys
    known = np.stack([key(s[:, 0], s[:, 1]), key(s[:, 1], s[:, 0])], axis=1)
    hit = (key(rows[..., 0, :], rows[..., 1, :])[..., None, None, :] == known
           ).all(axis=-1).any(axis=-1)
    first = np.where(hit, np.arange(len(s)), len(s)).min(axis=-1, initial=len(s))
    return np.where(first < len(s), first, -1)


def _in_cover(spec: LatticeSpec, p: np.ndarray) -> np.ndarray:
    """Whether each point ``p`` ``(..., 2)`` lies in a cover triangle, to
    1e-9 in barycentric coordinates."""
    q0, q1, q2 = spec.node_positions(spec.cover_keys).transpose(1, 0, 2)
    b = np.linalg.solve(np.stack([q1 - q0, q2 - q0], axis=-1),
                        (p[..., None, :] - q0)[..., None])[..., 0]
    return ((b >= -1e-9).all(axis=-1) & (b[..., 0] + b[..., 1] <= 1 + 1e-9)).any(axis=-1)


def _first(mask):
    """Index tuple of the first true entry of ``mask`` in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


@np.errstate(over="raise")
def _validate_spec(spec: LatticeSpec) -> None:
    """Reject an inconsistent spec.  Each check reports the lowest
    offending class; the checks run in a fixed order, and a finite spec
    whose lengths or areas overflow is refused naming the first that does,
    as is one whose longest period vector is shorter than ``sqrt(tiny) /
    eps`` (about 6.7e-139), where a residual at rounding level would
    square below the normal floats."""
    # a NaN passes no comparison, so every later check would let it through
    for name, value in (("v1", spec.v1), ("v2", spec.v2), ("basic_nodes", spec.basic_nodes),
                        ("k_spring", spec.spring_stiffness), ("alpha", spec.alpha),
                        ("c_marker", spec.c_marker)):
        if not np.isfinite(value).all():
            raise DegenerateGeometryError(f"{name} holds a non-finite number")
    what = "the period vectors' lengths or cell area"
    try:
        scale = max(np.hypot(*spec.v1), np.hypot(*spec.v2))
        # eps * scale squares to a normal float; past both checks, so does the area
        floor = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
        if 0 < scale < floor:
            raise DegenerateGeometryError(f"{what} underflow")
        if spec.cell_area <= 1e-12 * scale**2:
            raise DegenerateGeometryError("period vectors are linearly dependent")
        if spec.n_basic == 0:
            raise DegenerateGeometryError("lattice has no basic nodes")

        what = "the basic nodes' lattice coordinates"    # distinct modulo the lattice
        M = spec.cell_matrix
        for i in range(spec.n_basic):
            for j in range(i + 1, spec.n_basic):
                frac = np.linalg.solve(M, spec.basic_nodes[i] - spec.basic_nodes[j])
                if np.max(np.abs(frac - np.round(frac))) < 1e-9:
                    raise DegenerateGeometryError(
                        f"basic nodes {i} and {j} coincide modulo the lattice"
                    )

        # every node reference names a basic node
        for keys in (spec.spring_keys, spec.cover_keys, spec.marker_keys):
            nodes = keys[..., 0]
            bad = (nodes < 0) | (nodes >= spec.n_basic)
            if bad.any():
                raise ValueError(f"unknown node reference {_refs(keys[_first(bad)])!r}")

        what = "the cover triangle areas"    # counterclockwise, tiling one cell area
        x = spec.node_positions(spec.cover_keys)
        area2 = cross2(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        bad = area2 <= 1e-12 * scale**2
        if bad.any():
            t = int(np.argmax(bad))
            raise DegenerateGeometryError(
                f"triangle {_refs(spec.cover_keys[t])!r} is degenerate or clockwise "
                f"(2*area={area2[t]:g})"
            )
        total = ordered_sum(0.5 * area2)
        if abs(total - spec.cell_area) > 1e-9 * scale**2:
            raise DegenerateGeometryError(f"cover area {total:g} does not match cell area "
                                          f"{spec.cell_area:g}")
        if not np.isin(np.arange(spec.n_basic), spec.cover_keys[..., 0]).all():
            raise DegenerateGeometryError("some basic node never appears in the cover")

        what = "the spring lengths"    # positive, endpoints inside the closed cell region
        # (springs never cross the cell boundary)
        bad = spec.spring_rest <= 1e-12 * scale
        if bad.any():
            raise DegenerateGeometryError(f"spring {np.argmax(bad)} has zero length")
        bad = spec.spring_stiffness <= 0
        if bad.any():
            raise DegenerateGeometryError(f"spring {np.argmax(bad)} has non-positive stiffness")
        first = _segment_index(spec, spec.spring_keys)
        bad = first != np.arange(len(first))
        if bad.any():
            idx = int(np.argmax(bad))
            raise DegenerateGeometryError(f"springs {first[idx]} and {idx} are lattice "
                                          "translates")
        outside = ~_in_cover(spec, spec.node_positions(spec.spring_keys))
        if outside.any():
            idx, end = _first(outside)
            raise DegenerateGeometryError(
                f"spring {idx} endpoint {_refs(spec.spring_keys[idx, end])!r} "
                "lies outside the cell region"
            )

        # every spring's energy must reach a penalized triangle through a
        # shared basic node (see spring_attribution)
        orphan = ~np.isin(spec.spring_keys[..., 0], spec.penalized_keys[..., 0]).any(axis=1)
        if orphan.any():
            raise DegenerateGeometryError(
                f"spring {np.argmax(orphan)} shares no endpoint with any penalized triangle"
            )

        what = "the marker edges"    # spring-aligned, with r = c R(alpha) b
        t = spec.marker_triangle
        bad = (t < 0) | (t >= len(spec.penalized_keys))
        if bad.any():
            m = int(np.argmax(bad))
            raise ValueError(f"marker {m} points to invalid triangle {t[m]}")
        off = _segment_index(spec, spec.marker_keys) < 0
        if off.any():
            m, e = _first(off)
            raise DegenerateGeometryError(
                f"marker {m} edge {_refs(spec.marker_keys[m, e])!r} does not lie along a spring"
            )
        b, r = spec.segments(spec.marker_keys).transpose(1, 0, 2)
        bad = norms(r - spec.c_marker * lam_times(rotation([spec.alpha]), b)[0]) > 1e-9 * scale
        if bad.any():
            raise DegenerateGeometryError(f"marker {np.argmax(bad)} violates r = c R(alpha) b")
        if not len(spec.marker_keys):
            raise DegenerateGeometryError("lattice carries no marker edges")
    except FloatingPointError:
        raise DegenerateGeometryError(f"{what} overflow") from None


# ---------------------------------------------------------------------------
# spring-to-triangle attribution
# ---------------------------------------------------------------------------


def spring_attribution(spec: LatticeSpec):
    """Assign every spring's energy to penalized triangles.

    A spring claimed as a side by ``m`` penalized triangles contributes the
    fraction ``1 / m`` of its energy to each; springs that are a side of no
    penalized triangle go wholesale to the lowest-index penalized triangle
    sharing one of their endpoints.  Returns the attribution rows
    ``(triangle, spring, offset, weight)`` (``offset`` ``(na, 2)``, the
    rest ``(na,)``): the triangle in cell ``(i, j)`` owns the share
    ``weight`` of the spring instance in cell ``(i, j) + offset``.  The
    rows are grouped by triangle, its claimed sides in side order before
    the springs it takes wholesale in spring order.  Weights per spring
    class always sum to one, so per-triangle energies sum to the spring
    total exactly.
    """
    pk = spec.penalized_keys
    sides = np.stack([pk, np.roll(pk, -1, axis=1)], axis=2)  # (nt, 3, 2, 3)
    index = _segment_index(spec, sides)
    tri, side = np.nonzero(index >= 0)
    spring = index[tri, side]
    a, b = sides[tri, side].transpose(1, 0, 2)
    sa, sb = spec.spring_keys[spring].transpose(1, 0, 2)
    # align the side with the spring class to find the cell offset
    aligned = ((a[:, 0] == sa[:, 0]) & (b[:, 0] == sb[:, 0])
               & (a[:, 1:] - sa[:, 1:] == b[:, 1:] - sb[:, 1:]).all(axis=1))
    offset = a[:, 1:] - np.where(aligned[:, None], sa, sb)[:, 1:]
    counts = np.bincount(spring, minlength=len(spec.spring_keys))
    rows = [(tri, spring, offset, 1.0 / counts[spring])]
    # leftover springs: attach to the first penalized triangle vertex
    # sharing a node (one exists: _validate_spec checks it)
    for s in np.flatnonzero(counts == 0):
        ends = spec.spring_keys[s]
        t, vert, end = np.argwhere(pk[:, :, None, 0] == ends[:, 0])[0]
        rows.append(([t], [s], [pk[t, vert, 1:] - ends[end, 1:]], [1.0]))
    tri, spring, offset, weight = (np.concatenate(col) for col in zip(*rows))
    order = np.argsort(tri, kind="stable")
    return tri[order], spring[order], offset[order], weight[order]


# ---------------------------------------------------------------------------
# supercells
# ---------------------------------------------------------------------------


class Edges(NamedTuple):
    """Stacked edge classes: the flat ``psi`` indices ``2 * slot + c``
    ``(n, k*k, 2)`` of the ``tail`` and ``head`` ends over the cells and
    components ``c = 0, 1``, and reference vectors ``dx`` ``(n, 2)``."""

    tail: np.ndarray
    head: np.ndarray
    dx: np.ndarray


def lam_times(lam, x) -> np.ndarray:
    """``lam[b] @ x[i]`` ``(B, n, 2)`` for gradients ``lam`` ``(B, 2, 2)`` and
    vectors ``x`` ``(n, 2)``; matmul over stacked columns gives each the
    bits of its product alone, however many are stacked."""
    return np.matmul(lam[:, None], x[:, :, None])[..., 0]


def edge_vectors(Z, tail, head, ldx) -> np.ndarray:
    """Deformed vectors ``(B, n, k*k, 2)`` of stacked edge classes under
    ``u = lam x + psi``, read from flat ``psi`` rows ``Z`` ``(B, 2 m)``, with
    ``ldx`` ``(B, n, 2)`` each row's :func:`lam_times` of the classes' ``dx``.
    ``take`` along the rows keeps the result C-ordered, which fixes the order
    of every sum over the cells; a fancy-index gather would not."""
    return Z.take(head, axis=1) - Z.take(tail, axis=1) + ldx[:, :, None]


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
    return unique_rows(np.concatenate([spec.spring_keys.reshape(-1, 3),
                                       spec.cover_keys.reshape(-1, 3)]))


def _components(slots) -> np.ndarray:
    """The read-only flat ``psi`` indices ``2 * slots + c`` ``slots.shape +
    (2,)`` of the components ``c = 0, 1``."""
    # two strided passes; broadcasting against [0, 1] runs a length-2 inner loop
    out = np.empty(np.shape(slots) + (2,), dtype=np.int64)
    np.multiply(slots, 2, out=out[..., 0])
    np.add(out[..., 0], 1, out=out[..., 1])
    out.setflags(write=False)
    return out


class Supercell:
    """Assembled index arrays for a ``k x k`` periodic tiling of a spec.

    Node slots are numbered ``(node * k + i) * k + j`` for basic node
    ``node`` in cell ``(i, j)``; cells are enumerated ``c = i * k + j``.
    ``psi`` is read flat: component ``c`` of slot ``s`` at ``2 s + c``.
    Each class of springs, penalized triangles and markers is one row of
    a stacked array, built from the spec's integer rows (``spring_keys``,
    ``penalized_keys``, ``marker_keys``) in class order; axes of length
    ``k*k`` run over the cells ``c``:

    - ``edges``: the flat edge layout, one :class:`Edges` over
      ``ns + 2 nt`` edge classes: the springs from ``a`` to ``b``, then
      every penalized triangle's ``P0 -> P1``, then every one's
      ``P0 -> P2``; ``spring_rest`` and ``spring_stiffness`` ``(ns,)``;
    - ``scatter``: the flat scatter stream ``(2 (2 ns + 3 nt) k*k,)`` of
      the ``psi`` gradient, from the same indices: per spring class its
      head ends then its tail ends, then per penalized triangle class its
      ``P1``, ``P2`` then ``P0`` ends, each over the cells with both
      components interleaved;
    - ``tri_area`` ``(nt,)``: the spec's ``penalized_area``; ``tri_cross0``
      ``(nt,)``: twice that, the cross product of the two reference edges
      (positive);
    - ``marker_b``, ``marker_r``: :class:`Edges` of the marker edges;
      ``marker_b_spring``, ``marker_r_spring`` ``(nm,)``: the spring class
      each edge lies along;
    - the attribution rows of :func:`spring_attribution`, in its order:
      the triangle in cell ``c`` owns ``attr_weight`` of spring
      ``attr_spring`` in cell ``attr_cells[:, c]`` (``attr_triangle``,
      ``attr_spring``, ``attr_weight`` ``(na,)``, ``attr_cells``
      ``(na, k*k)``).

    Energies and gradients add these rows up in exactly this order, class
    by class, and scatter into ``psi`` in stream order, which fixes the
    bits of every result.  The edge layouts and the stream are read-only.
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

        def ends(key):
            return _components(self.slot(key[..., 0:1], key[..., 1:2] + ci, key[..., 2:3] + cj))

        def edges(key):
            return Edges(ends(key[:, 0]), ends(key[:, 1]), _frozen(spec.segments(key), (-1, 2)))

        pk = spec.penalized_keys
        ns, nt = len(spec.spring_keys), len(pk)
        self.edges = edges(np.concatenate([spec.spring_keys, pk[:, [0, 1]], pk[:, [0, 2]]]))
        self.spring_rest = spec.spring_rest
        self.spring_stiffness = spec.spring_stiffness

        tail, head = self.edges.tail, self.edges.head
        s0, s1, s2 = tail[ns:ns + nt], head[ns:ns + nt], head[ns + nt:]
        self.scatter = np.concatenate([np.stack([head[:ns], tail[:ns]], axis=1).ravel(),
                                       np.stack([s1, s2, s0], axis=1).ravel()])
        self.scatter.setflags(write=False)
        # halving and doubling are exact: twice the spec's area is the cross product
        self.tri_cross0 = 2 * spec.penalized_area
        self.tri_area = spec.penalized_area

        self.marker_b = edges(spec.marker_keys[:, 0])
        self.marker_r = edges(spec.marker_keys[:, 1])
        self.marker_b_spring, self.marker_r_spring = _segment_index(spec, spec.marker_keys).T

        t, spring, offset, weight = spring_attribution(spec)
        self.attr_triangle, self.attr_spring, self.attr_weight = t, spring, weight
        # node 0's slot in a cell is the cell's number
        self.attr_cells = self.slot(0, ci + offset[:, :1], cj + offset[:, 1:])

    def slot(self, node, o1, o2):
        """Slot of basic node ``node`` translated by ``(o1, o2)``, wrapped
        into the supercell; works elementwise on integer arrays."""
        return _slot(self.k, node, o1, o2)


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

    def node_positions(self, keys) -> np.ndarray:
        """Deformed positions of integer node rows ``keys`` ``(..., 3)``;
        ``lam`` multiplies each row like ``lam @ x`` on one vector."""
        keys = np.asarray(keys)
        x = self.spec.node_positions(keys)
        return (np.matmul(self.lam, x[..., None])[..., 0]
                + self.psi[self.cell.slot(keys[..., 0], keys[..., 1], keys[..., 2])])

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


def _assemble(name, v1, v2, basic, springs, penalized, markers, holes,
              alpha, c_marker) -> LatticeSpec:
    """A spec from builder tables of node rows ``(node, o1, o2)``:
    ``springs`` are ``(a, b)`` or ``(a, b, stiffness)``, ``markers``
    ``(b_edge, r_edge, triangle)``; the cover lists the ``penalized``
    triangles first, then the ``holes``."""
    return LatticeSpec(
        name=name,
        v1=v1,
        v2=v2,
        basic_nodes=basic,
        spring_keys=[s[:2] for s in springs],
        spring_stiffness=[s[2] if len(s) > 2 else 1.0 for s in springs],
        cover_keys=tuple(penalized) + tuple(holes),
        penalized=[True] * len(penalized) + [False] * len(holes),
        marker_keys=[m[:2] for m in markers],
        marker_triangle=[m[2] for m in markers],
        alpha=alpha,
        c_marker=c_marker,
    )


def build_kagome() -> LatticeSpec:
    """Triangles of unit side on the kagome arrangement: one upward and one
    downward triangle joined at a pinch node, the hexagonal holes around
    them split into four cover triangles, and markers along the horizontal
    spring lines (``b``) and their 60-degree partners (``r``).  This is
    ``general-kagome`` at its defaults with the exact unit direction
    ``(1/2, sqrt(3)/2)`` (the variant's ``cos(pi/3)`` is one ulp above 1/2)."""
    return _kagome_family("kagome", np.pi / 3, (0.5, 0.5 * np.sqrt(3.0)), 1.0, 1.0, 1.0)


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


def _kagome_family(name, alpha, ea, leg_ratio, size_ratio, size) -> LatticeSpec:
    """Triangles of one shape and two sizes on the kagome topology, ``b``
    sides along ``e1 = (1, 0)`` and ``r`` sides along the unit direction
    ``ea`` at ``alpha``: the down triangle ``C O D`` has ``b = D - C`` of
    length ``l = size``, the up triangle ``A O B`` has ``b = A - B`` of
    length ``l = size * size_ratio``, each ``r`` (``D - O``, ``O - B``) is
    ``leg_ratio * l`` long, and the periods are ``L e1`` and
    ``leg_ratio * L * ea``, with ``L`` the sum of the two ``l``."""
    if not 0 < alpha < np.pi:
        raise DegenerateGeometryError(f"marker angle must be in (0, pi), got {alpha:g}")
    if leg_ratio <= 0 or size_ratio <= 0 or size <= 0:
        raise DegenerateGeometryError("ratios and sizes must be positive")
    l_up = float(size * size_ratio)
    L = float(size) + l_up
    c = float(leg_ratio)
    e1, ea = np.array([1.0, 0.0]), np.array(ea)
    A, O, D = 0, 1, 2
    return _assemble(
        name, L * e1, c * L * ea,
        np.array([l_up * e1, c * l_up * ea, c * L * ea]),
        springs=(
            ((A, 0, 0), (O, 0, 0)),     # A-O
            ((D, 0, -1), (O, 0, 0)),    # B-O
            ((A, -1, 1), (O, 0, 0)),    # C-O
            ((D, 0, 0), (O, 0, 0)),     # D-O
            ((A, 0, 0), (D, 1, -1)),    # A-F
            ((D, 0, 0), (A, 0, 1)),     # D-E
        ),
        penalized=(
            ((A, -1, 1), (O, 0, 0), (D, 0, 0)),   # down: C O D
            ((A, 0, 0), (O, 0, 0), (D, 0, -1)),   # up:   A O B
        ),
        markers=(
            (((A, -1, 1), (D, 0, 0)), ((O, 0, 0), (D, 0, 0)), 0),
            (((D, 0, -1), (A, 0, 0)), ((D, 0, -1), (O, 0, 0)), 1),
        ),
        holes=(
            ((D, 0, -1), (O, 0, 0), (A, -1, 1)),   # B O C
            ((A, 0, 0), (D, 1, -1), (O, 0, 0)),    # A F O
            ((D, 1, -1), (A, 0, 1), (D, 0, 0)),    # F E D
            ((D, 1, -1), (D, 0, 0), (O, 0, 0)),    # F D O
        ),
        alpha=alpha, c_marker=c,
    )


def _squares(name, v1, v2, basic, alpha, springs, markers, holes) -> LatticeSpec:
    """Corner-joined quadrilaterals ``A B O D`` (basic nodes 0-3) with the
    ``A-O`` diagonal braced (stiffness 2), each split into two penalized
    triangles; ``springs`` and ``holes`` follow the shared ones."""
    A, B, D, O = 0, 1, 2, 3
    return _assemble(
        name, v1, v2, basic,
        springs=(
            ((A, 0, 0), (B, 0, 0)),             # A-B
            ((A, 0, 0), (O, 0, 0), 2.0),        # A-O brace
            ((A, 0, 0), (D, 0, 0)),             # A-D
            ((B, 0, 0), (A, 1, 0)),             # B-C
            ((B, 0, 0), (O, 0, 0)),             # B-O
            ((D, 0, 0), (O, 0, 0)),             # D-O
            ((O, 0, 0), (D, 1, 0)),             # O-E
            ((D, 0, 0), (A, 0, 1)),             # D-F
            ((O, 0, 0), (B, 0, 1)),             # O-G
            ((O, 0, 0), (A, 1, 1), 2.0),        # O-H brace
        ) + springs,
        penalized=(
            ((A, 0, 0), (B, 0, 0), (O, 0, 0)),
            ((A, 0, 0), (O, 0, 0), (D, 0, 0)),
            ((O, 0, 0), (D, 1, 0), (A, 1, 1)),
            ((O, 0, 0), (A, 1, 1), (B, 0, 1)),
        ),
        markers=markers,
        holes=(
            ((B, 0, 0), (A, 1, 0), (D, 1, 0)),
            ((B, 0, 0), (D, 1, 0), (O, 0, 0)),
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
            (((A, 0, 0), (B, 0, 0)), ((B, 0, 0), (O, 0, 0)), 0),
            (((D, 0, 0), (O, 0, 0)), ((A, 0, 0), (D, 0, 0)), 1),
            (((O, 0, 0), (D, 1, 0)), ((D, 1, 0), (A, 1, 1)), 2),
            (((B, 0, 1), (A, 1, 1)), ((O, 0, 0), (B, 0, 1)), 3),
        ),
        holes=(
            ((D, 0, 0), (O, 0, 0), (B, 0, 1)),
            ((D, 0, 0), (B, 0, 1), (A, 0, 1)),
        ),
    )


def _rhombus_squares(angle=np.pi / 2, size_ratio=1.0, size=1.0):
    return _rhombus_family("rhombus-squares", angle, (np.cos(angle), np.sin(angle)),
                           size_ratio, size)


def _quad_squares(alpha=np.pi / 2, s=0.5, q=0.5, d1=1.0) -> LatticeSpec:
    """Corner-joined congruent quadrilaterals with both diagonals braced.

    Both diagonals have length ``d1`` and meet at angle ``alpha``; ``s``
    and ``q`` locate the crossing point along the two diagonals.  Markers
    run along the diagonals themselves: the braced ``b`` diagonal ``A-O``
    and the ``r`` diagonal ``B-D``.
    """
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
            ((B, 0, 0), (D, 0, 0)),          # r diagonal
            ((D, 1, 0), (B, 0, 1)),          # r diagonal
        ),
        markers=(
            (((A, 0, 0), (O, 0, 0)), ((B, 0, 0), (D, 0, 0)), 0),
            (((O, 0, 0), (A, 1, 1)), ((D, 1, 0), (B, 0, 1)), 2),
        ),
        holes=(
            ((O, 0, 0), (B, 0, 1), (A, 0, 1)),
            ((O, 0, 0), (A, 0, 1), (D, 0, 0)),
        ),
    )


def _isosceles_kagome(apex=np.pi / 3, size_ratio=1.0, size=1.0):
    return _kagome_family("isosceles-kagome", apex, (np.cos(apex), np.sin(apex)), 1.0,
                          size_ratio, size)


def _general_kagome(alpha=np.pi / 3, leg_ratio=1.0, size_ratio=1.0, size=1.0):
    return _kagome_family("general-kagome", alpha, (np.cos(alpha), np.sin(alpha)), leg_ratio,
                          size_ratio, size)


VARIANT_KINDS = {
    "isosceles-kagome": _isosceles_kagome,
    "general-kagome": _general_kagome,
    "rhombus-squares": _rhombus_squares,
    "quad-squares": _quad_squares,
}


def build_variant(kind: str, **params) -> LatticeSpec:
    """Build one of the parametric families in :data:`VARIANT_KINDS`.

    ``isosceles-kagome(apex, size_ratio, size)``:
        triangles with two equal marker sides meeting at ``apex``; the down
        triangle has side ``size``, the up one ``size * size_ratio``.
    ``general-kagome(alpha, leg_ratio, size_ratio, size)``:
        same topology with ``|r| = leg_ratio * |b|``, so ``c != 1``.  The
        built-in :func:`build_kagome` is this family at its defaults, with
        the exact direction ``(1/2, sqrt(3)/2)`` in place of
        ``(cos(pi/3), sin(pi/3))``.  Both kagome kinds use its node
        labels; variant JSON saved before they did describes the same
        lattice, translated, with other labels.
    ``rhombus-squares(angle, size_ratio, size)``:
        corner-joined rhombi with interior angle ``angle``.  The built-in
        :func:`build_rotating_squares` is this family at ``angle = pi/2``,
        both sizes 1, with the exact direction ``(0, 1)`` in place of
        ``(cos(pi/2), sin(pi/2))``.
    ``quad-squares(alpha, s, q, d1)``:
        congruent quadrilaterals with both braced diagonals of length
        ``d1``, meeting at ``alpha``, crossing at fractions ``s`` and
        ``q``.  The pure counter-rotation mechanism requires midpoint
        crossing (``s = q = 1/2``); other parameters still build a valid
        lattice.
    """
    try:
        builder = VARIANT_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown variant kind {kind!r}; choose one of {sorted(VARIANT_KINDS)}"
        ) from None
    return builder(**params)
