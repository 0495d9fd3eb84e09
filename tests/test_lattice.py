"""Lattice construction, serialization, and supercell bookkeeping."""

import hashlib
import inspect
import pickle

import numpy as np
import pytest
from conftest import one_row_edge_vectors, orphan_spring_json, scale_coordinates, scaled_json

from latmech.energy import _cell_window
from latmech.lattice import (
    _LAYOUT,
    DegenerateGeometryError,
    LatticeSpec,
    PeriodicDeformation,
    Supercell,
    VARIANT_KINDS,
    _polar,
    build_kagome,
    build_rotating_squares,
    build_variant,
    edge_vectors,
    lam_times,
    rotation,
    unique_rows,
)
from latmech.mechanisms import _unit_members, rigid_units, twist_mechanism
from latmech.softmodes import default_target


def test_builtin_structure(kagome, rotating_squares):
    assert kagome.n_basic == 3
    assert len(kagome.spring_keys) == 6
    assert len(kagome.penalized_keys) == 2
    assert len(kagome.marker_keys) == 2
    assert kagome.cell_area == pytest.approx(2 * np.sqrt(3), abs=1e-14)
    assert kagome.alpha == pytest.approx(np.pi / 3)

    assert rotating_squares.n_basic == 4
    assert len(rotating_squares.spring_keys) == 10
    assert len(rotating_squares.penalized_keys) == 4
    assert len(rotating_squares.marker_keys) == 4
    assert rotating_squares.cell_area == pytest.approx(4.0, abs=1e-14)
    assert rotating_squares.alpha == pytest.approx(np.pi / 2)

    for spec in (kagome, rotating_squares):
        assert spec.c_marker == pytest.approx(1.0)
        for rest, stiffness in zip(spec.spring_rest, spec.spring_stiffness):
            assert rest > 0
            assert stiffness > 0


def test_node_position_offsets(all_specs):
    for spec in all_specs:
        for node in range(spec.n_basic):
            base = spec.node_positions([node, 0, 0])
            shifted = spec.node_positions([node, 2, -1])
            expect = base + 2 * spec.v1 - spec.v2
            assert np.allclose(shifted, expect, atol=1e-14)


def test_marker_geometry(all_specs):
    """Marker legs satisfy r = c R(alpha) b, the conformality relation."""
    for spec in all_specs:
        R = rotation(spec.alpha)
        for b, r in spec.segments(spec.marker_keys):
            assert np.allclose(r, spec.c_marker * R @ b, atol=1e-12), spec.name


def test_json_round_trip(all_specs):
    for spec in all_specs:
        text = spec.to_json()
        back = LatticeSpec.from_json(text)
        assert back.name == spec.name
        assert back.n_basic == spec.n_basic
        assert np.allclose(back.v1, spec.v1) and np.allclose(back.v2, spec.v2)
        assert len(back.spring_keys) == len(spec.spring_keys)
        for k1, k2, r1, r2 in zip(back.spring_keys, spec.spring_keys,
                                  back.spring_rest, spec.spring_rest):
            assert (k1 == k2).all()
            assert r1 == pytest.approx(r2, abs=1e-15)
        assert back.cell_area == pytest.approx(spec.cell_area, abs=1e-14)
        assert back.alpha == pytest.approx(spec.alpha, abs=1e-12)


def test_pickled_spec_is_rebuilt_by_its_constructor(all_specs):
    # the command line's worker processes receive specs by pickle
    for spec in all_specs:
        back = pickle.loads(pickle.dumps(spec))
        assert back is not spec and back == spec
        for field in _LAYOUT:
            arr, ref = getattr(back, field), getattr(spec, field)
            assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes(), field
            assert not arr.flags.writeable, field
        assert back.spring_rest.tobytes() == spec.spring_rest.tobytes()


def test_spec_equality_and_hash_by_content(all_specs):
    for spec in all_specs:
        back = LatticeSpec.from_json(spec.to_json())
        assert back is not spec
        assert back == spec and hash(back) == hash(spec)
    a = build_variant("rhombus-squares", angle=1.3, size_ratio=0.6)
    b = build_variant("rhombus-squares", angle=1.3, size_ratio=0.7)
    assert a != b


# sha256 of each builder's ``to_json()`` text and the ``float.hex`` of
# every spring rest length and penalized triangle area
BUILDER_PINS = {
    "kagome": "5b205f8b9ceed5918a3cd996a1d2185e1e32ce2c3d5aa115730d63f725adbf31",
    "rotating-squares": "2c242f86b439a5fafef460bd2c37cd47f2b1b1172c2bb2877ff932d191445eb1",
    "general-kagome()": "3ace7f1ff90f291644bca1ffcb8274cdb39eaf8b64641e3131d3e920579e13ac",
    "general-kagome(conftest)": "51d21f427976f6cb22b50194cedd61b3e9decd481bbba962ad22547006e019eb",
    "isosceles-kagome()": "c149220dba1bcac8f511526dfaec1a71025e1629d3b7904cc6e7f264ed920624",
    "isosceles-kagome(conftest)": "abba7aa69864d0b9643769cfc7c9fa13d9e13be57de55eb66dc39cae3ce63e8e",
    "quad-squares()": "4f8149a0ad379c0add37c7355c11533122ce11c4243beaebc2162685d1d050fa",
    "quad-squares(conftest)": "7cdf74c440c70dabb60dccaeffce701477d160236c682dec0e63ecf4994e7f7c",
    "rhombus-squares()": "248c14d5c951767d81759a0c670bf23e25996cd9bbf0a9899961e5f6a606622c",
    "rhombus-squares(conftest)": "9080d696bdcd2cb210d581f1b1622def07dd6c108e9f204ffbc183264d7c288d",
}

# the variant parameters of the ``all_specs`` fixture
CONFTEST_PARAMS = {
    "isosceles-kagome": {"apex": 1.2, "size_ratio": 0.8},
    "general-kagome": {"alpha": 1.1, "leg_ratio": 0.75},
    "rhombus-squares": {"angle": 1.3, "size_ratio": 0.6},
    "quad-squares": {"alpha": 1.2, "s": 0.4, "q": 0.6},
}


def _builder_digest(spec):
    lines = [spec.to_json()]
    lines += [float.hex(r) for r in spec.spring_rest.tolist()]
    lines += [float.hex(a) for a in spec.penalized_area.tolist()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_builder_outputs_pinned():
    got = {"kagome": _builder_digest(build_kagome()),
           "rotating-squares": _builder_digest(build_rotating_squares())}
    for kind in VARIANT_KINDS:
        got[kind + "()"] = _builder_digest(build_variant(kind))
        got[kind + "(conftest)"] = _builder_digest(build_variant(kind, **CONFTEST_PARAMS[kind]))
    assert got == BUILDER_PINS


@pytest.mark.parametrize("params", ["defaults", "conftest"])
@pytest.mark.parametrize("kind", ["isosceles-kagome", "general-kagome"])
def test_kagome_family_geometry(kind, params):
    """The documented layout of the kagome family: the cell is
    ``(L e1, c L ea)``, and the down triangle's marker (``l = size``) and
    the up triangle's (``l = size * size_ratio``) have ``b = l e1`` and
    ``r = c R(alpha) b``, with ``L`` the sum of the two ``l``."""
    given = CONFTEST_PARAMS[kind] if params == "conftest" else {}
    p = {name: arg.default for name, arg in
         inspect.signature(VARIANT_KINDS[kind]).parameters.items()} | given
    alpha, c = p.get("alpha", p.get("apex")), p.get("leg_ratio", 1.0)
    sizes = np.array([p["size"], p["size"] * p["size_ratio"]])
    L = sizes.sum()
    e1, ea = np.array([1.0, 0.0]), np.array([np.cos(alpha), np.sin(alpha)])
    spec = build_variant(kind, **given)
    tol = {"rtol": 0, "atol": 1e-15 * L}
    np.testing.assert_allclose(spec.cell_matrix, np.column_stack([L * e1, c * L * ea]), **tol)
    b, r = spec.segments(spec.marker_keys).transpose(1, 0, 2)
    np.testing.assert_array_equal(spec.marker_triangle, [0, 1])
    np.testing.assert_allclose(b, sizes[:, None] * e1, **tol)
    np.testing.assert_allclose(r, c * b @ rotation(alpha).T, **tol)
    assert (spec.alpha, spec.c_marker) == (alpha, c)


def test_general_kagome_defaults_are_the_built_in_kagome():
    """Every array of the two specs is equal but the x components of
    ``v2`` and of nodes ``O`` and ``D``, each one ulp above the built-in's,
    as ``cos(pi/3)`` is one ulp above 1/2."""
    kagome, variant = build_kagome(), build_variant("general-kagome")
    inexact = {"v2": {(0,)}, "basic_nodes": {(1, 0), (2, 0)}}
    for field in _LAYOUT:
        a, b = getattr(kagome, field), getattr(variant, field)
        assert a.shape == b.shape, field
        differ = {tuple(int(i) for i in idx) for idx in np.argwhere(a != b)}
        assert differ == inexact.get(field, set()), field
        for idx in differ:
            assert b[idx] == np.nextafter(a[idx], np.inf), (field, idx)
    assert (variant.alpha, variant.c_marker) == (kagome.alpha, kagome.c_marker)


def test_json_rejects_spring_off_penalized_triangles():
    with pytest.raises(DegenerateGeometryError, match="spring 10 shares no endpoint"):
        LatticeSpec.from_json(orphan_spring_json())


def _append(key, entry):
    return lambda d: d[key].append(entry)


# one fault each in the kagome JSON, with the exception and full message
# its loader raises
SPEC_REJECTIONS = [
    pytest.param(lambda d: d["springs"][0].update(k=1.0),
                 ValueError, "bad spring entry keys ['a', 'b', 'k', 'k_spring']",
                 id="spring-keys"),
    pytest.param(lambda d: d["triangles"][0].update(area=1.0),
                 ValueError, "bad triangle entry keys ['area', 'nodes', 'penalized']",
                 id="triangle-keys"),
    pytest.param(lambda d: d["markers"][0].update(c=1.0),
                 ValueError, "bad marker entry keys ['b', 'c', 'r', 't']",
                 id="marker-keys"),
    pytest.param(lambda d: d.update(v2=[4.0, 0.0]),
                 DegenerateGeometryError, "period vectors are linearly dependent",
                 id="dependent-periods"),
    pytest.param(lambda d: d.update(basic_nodes=[], springs=[], triangles=[], markers=[]),
                 DegenerateGeometryError, "lattice has no basic nodes",
                 id="no-basic-nodes"),
    pytest.param(lambda d: d["basic_nodes"].__setitem__(2, [3.0, 0.0]),
                 DegenerateGeometryError, "basic nodes 0 and 2 coincide modulo the lattice",
                 id="coincident-nodes"),
    pytest.param(lambda d: d["triangles"][2].update(nodes=d["triangles"][2]["nodes"][:2]),
                 ValueError,
                 "triangle ((2, (0, -1)), (1, (0, 0))) does not have three vertices",
                 id="two-vertices"),
    pytest.param(lambda d: d["triangles"][2]["nodes"].reverse(),
                 DegenerateGeometryError,
                 "triangle ((0, (-1, 1)), (1, (0, 0)), (2, (0, -1))) is degenerate or"
                 " clockwise (2*area=-0.866025)",
                 id="clockwise"),
    pytest.param(lambda d: d["triangles"].pop(),
                 DegenerateGeometryError, "cover area 2.59808 does not match cell area 3.4641",
                 id="cover-area"),
    pytest.param(_append("basic_nodes", [1.0, 0.5]),
                 DegenerateGeometryError, "some basic node never appears in the cover",
                 id="node-off-cover"),
    pytest.param(lambda d: d["triangles"][2]["nodes"][0].__setitem__(0, 7),
                 ValueError, "unknown node reference (7, (0, -1))",
                 id="unknown-node"),
    pytest.param(_append("springs", {"a": [0, 0, 0], "b": [0, 0, 0], "k_spring": 1.0}),
                 DegenerateGeometryError, "spring 6 has zero length",
                 id="zero-length"),
    pytest.param(lambda d: d["springs"][2].update(k_spring=0.0),
                 DegenerateGeometryError, "spring 2 has non-positive stiffness",
                 id="stiffness"),
    pytest.param(_append("springs", {"a": [1, 0, 0], "b": [0, 0, 0], "k_spring": 1.0}),
                 DegenerateGeometryError, "springs 0 and 6 are lattice translates",
                 id="translates"),
    pytest.param(_append("springs", {"a": [0, 0, 0], "b": [1, 3, 0], "k_spring": 1.0}),
                 DegenerateGeometryError,
                 "spring 6 endpoint (1, (3, 0)) lies outside the cell region",
                 id="outside-cell"),
    pytest.param(lambda d: d["markers"][1].update(t=2),
                 ValueError, "marker 1 points to invalid triangle 2",
                 id="marker-triangle"),
    pytest.param(lambda d: d["markers"][1].update(b=[[0, 0, 0], [2, 0, 0]]),
                 DegenerateGeometryError,
                 "marker 1 edge ((0, (0, 0)), (2, (0, 0))) does not lie along a spring",
                 id="marker-edge"),
    pytest.param(lambda d: d.update(c_marker=2.0),
                 DegenerateGeometryError, "marker 0 violates r = c R(alpha) b",
                 id="marker-relation"),
    pytest.param(lambda d: d.update(markers=[]),
                 DegenerateGeometryError, "lattice carries no marker edges",
                 id="no-markers"),
    pytest.param(lambda d: d["v1"].__setitem__(0, float("nan")),
                 DegenerateGeometryError, "v1 holds a non-finite number",
                 id="nan-v1"),
    pytest.param(lambda d: d["v2"].__setitem__(1, float("inf")),
                 DegenerateGeometryError, "v2 holds a non-finite number",
                 id="inf-v2"),
    pytest.param(lambda d: d["basic_nodes"][1].__setitem__(0, float("-inf")),
                 DegenerateGeometryError, "basic_nodes holds a non-finite number",
                 id="inf-basic-node"),
    pytest.param(lambda d: d["springs"][2].update(k_spring=float("nan")),
                 DegenerateGeometryError, "k_spring holds a non-finite number",
                 id="nan-stiffness"),
    pytest.param(lambda d: d.update(alpha=float("nan")),
                 DegenerateGeometryError, "alpha holds a non-finite number",
                 id="nan-alpha"),
    pytest.param(lambda d: d.update(c_marker=float("inf")),
                 DegenerateGeometryError, "c_marker holds a non-finite number",
                 id="inf-c-marker"),
    # finite, but past the floats once squared or multiplied, named with no numpy warning
    pytest.param(scale_coordinates(1e160),
                 DegenerateGeometryError, "the period vectors' lengths or cell area overflow",
                 id="coordinates-1e160"),
    # so small that a residual at rounding level squares below the normal
    # floats, or the cell area leaves them, which would read as dependent
    # periods or a cover that misses the cell
    *(pytest.param(scale_coordinates(factor), DegenerateGeometryError,
                   "the period vectors' lengths or cell area underflow",
                   id=f"coordinates-{factor:g}")
      for factor in (2.0 ** -500, 1e-148, 1e-155, 1e-160, 1e-170, 1e-300)),
    pytest.param(lambda d: d.update(c_marker=1e308),
                 DegenerateGeometryError, "the marker edges overflow", id="c-marker-1e308"),
    # values of the wrong JSON type, each rejected before any is converted
    pytest.param(lambda d: d.update(name=["x"]),
                 ValueError, 'bad lattice JSON: name is ["x"], not a string',
                 id="name-list"),
    pytest.param(lambda d: d.update(v1=[2.0, "0"]),
                 ValueError, 'bad lattice JSON: v1 is [2.0, "0"], not two numbers',
                 id="v1-string"),
    pytest.param(lambda d: d.update(v2=[1.0, 1.7, 0.0]),
                 ValueError, "bad lattice JSON: v2 is [1.0, 1.7, 0.0], not two numbers",
                 id="v2-three-entries"),
    pytest.param(lambda d: d.update(alpha="1.0"),
                 ValueError, 'bad lattice JSON: alpha is "1.0", not a number',
                 id="alpha-string"),
    pytest.param(lambda d: d.update(c_marker=True),
                 ValueError, "bad lattice JSON: c_marker is true, not a number",
                 id="c-marker-bool"),
    pytest.param(lambda d: d.update(basic_nodes={"0": [0.0, 0.0]}),
                 ValueError, 'bad lattice JSON: basic_nodes is {"0": [0.0, 0.0]}, not a list',
                 id="basic-nodes-object"),
    pytest.param(lambda d: d["basic_nodes"][1].__setitem__(1, None),
                 ValueError, "bad lattice JSON: basic node 1 is [0.5, null], not two numbers",
                 id="basic-node-null"),
    pytest.param(lambda d: d["basic_nodes"][0].__setitem__(0, 10 ** 400),
                 ValueError, f"bad lattice JSON: basic node 0 is [{10 ** 400}, 0.0], "
                 "not two numbers", id="basic-node-past-float"),
    pytest.param(lambda d: d["springs"][0].update(a=[0.7, 0, 0]),
                 ValueError, "bad lattice JSON: spring 0 a is [0.7, 0, 0], not a node "
                 "reference of three 64-bit integers", id="spring-end-float"),
    pytest.param(lambda d: d["springs"][3].update(b=[1, False, 0]),
                 ValueError, "bad lattice JSON: spring 3 b is [1, false, 0], not a node "
                 "reference of three 64-bit integers", id="spring-end-bool"),
    pytest.param(lambda d: d["springs"][1]["a"].__setitem__(0, 2 ** 63),
                 ValueError, f"bad lattice JSON: spring 1 a is [{2 ** 63}, 0, -1], not a node "
                 "reference of three 64-bit integers", id="spring-end-past-int64"),
    pytest.param(lambda d: d["springs"][2].update(k_spring="2"),
                 ValueError, 'bad lattice JSON: spring 2 k_spring is "2", not a number',
                 id="stiffness-string"),
    pytest.param(lambda d: d["triangles"][0].update(nodes=[[0, 0, 0], [1, 0, 0], 2]),
                 ValueError, "bad lattice JSON: triangle 0 nodes is [[0, 0, 0], [1, 0, 0], 2], "
                 "not a list of node references of three 64-bit integers",
                 id="triangle-node-int"),
    pytest.param(lambda d: d["triangles"][2].update(penalized="false"),
                 ValueError, 'bad lattice JSON: triangle 2 penalized is "false", '
                 "not true or false", id="penalized-string"),
    pytest.param(lambda d: d["markers"][1].update(r=[[0, 0, 0]]),
                 ValueError, "bad lattice JSON: marker 1 r is [[0, 0, 0]], not two node "
                 "references of three 64-bit integers", id="marker-edge-one-node"),
    pytest.param(lambda d: d["markers"][0].update(t=True),
                 ValueError, "bad lattice JSON: marker 0 t is true, not a 64-bit integer",
                 id="marker-triangle-bool"),
]


@pytest.mark.parametrize("mutate, exc, message", SPEC_REJECTIONS)
def test_json_rejections(kagome, mutate, exc, message):
    import json

    data = json.loads(kagome.to_json())
    mutate(data)
    with pytest.raises(exc) as info:
        LatticeSpec.from_json(json.dumps(data, indent=2))
    assert type(info.value) is exc
    assert str(info.value) == message


def test_coordinates_scaled_by_1e150_still_build(kagome):
    import json

    data = json.loads(kagome.to_json())
    scale_coordinates(1e150)(data)
    spec = LatticeSpec.from_json(json.dumps(data))
    assert spec.cell_area == pytest.approx(1e300 * kagome.cell_area, rel=1e-15)
    assert spec.spring_rest == pytest.approx(1e150 * kagome.spring_rest, rel=1e-15)


def test_coordinates_scaled_by_2_to_the_minus_450_still_build(kagome):
    # a power of two scales every length and area exactly, and the
    # certificate, an energy density, keeps every digit
    spec = LatticeSpec.from_json(scaled_json(kagome, 2.0 ** -450))
    assert spec.cell_area == 2.0 ** -900 * kagome.cell_area
    assert (spec.spring_rest == 2.0 ** -450 * kagome.spring_rest).all()
    energy = twist_mechanism(spec, 0.3).certificate.energy
    assert energy.hex() == twist_mechanism(kagome, 0.3).certificate.energy.hex()


def _old_polar(m):
    """The rotation that ``cellsolver._twist_seed`` took from one matrix
    ``m`` before it called ``_polar``."""
    u, _, vt = np.linalg.svd(m)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        rot = u @ np.diag([1.0, -1.0]) @ vt
    return rot


def test_polar_has_the_bits_of_the_one_matrix_formula():
    H = np.random.default_rng(3).standard_normal((100_000, 2, 2))
    reflections = int((np.linalg.det(H) < 0).sum())
    assert 40_000 < reflections < 60_000        # both branches, many times
    want = np.array([_old_polar(m) for m in H])
    assert _polar(H).tobytes() == want.tobytes()
    # a stack of one, as the twist seed calls it
    assert np.array([_polar(m[None])[0] for m in H[:2000]]).tobytes() == want[:2000].tobytes()


def test_json_rejects_unknown_keys(kagome):
    import json

    data = json.loads(kagome.to_json())
    data["surprise"] = 1
    with pytest.raises(ValueError):
        LatticeSpec.from_json(json.dumps(data))


def test_variant_kinds_cover_defaults():
    assert set(VARIANT_KINDS) == {
        "general-kagome", "isosceles-kagome", "quad-squares", "rhombus-squares",
    }
    for kind in VARIANT_KINDS:
        spec = build_variant(kind)
        assert spec.n_basic >= 3
        assert spec.cell_area > 0


@pytest.mark.parametrize("kind, params", [
    ("quad-squares", {"s": 0.0}),               # pin at a corner
    ("quad-squares", {"q": 1.0}),
    ("rhombus-squares", {"angle": 0.0}),
    ("rhombus-squares", {"angle": np.pi}),
    ("isosceles-kagome", {"apex": 0.0}),
    ("general-kagome", {"leg_ratio": 0.0}),
])
def test_degenerate_variants_rejected(kind, params):
    with pytest.raises((DegenerateGeometryError, ValueError)):
        build_variant(kind, **params)


def test_unknown_variant_kind():
    with pytest.raises(ValueError):
        build_variant("moebius-lattice")


def test_supercell_slots(kagome):
    cell = Supercell(kagome, 3)
    assert cell.n_nodes == 3 * 9
    assert cell.cell_area == pytest.approx(9 * kagome.cell_area)
    # slots wrap periodically
    for node in range(kagome.n_basic):
        assert cell.slot(node, 3, 3) == cell.slot(node, 0, 0)
        assert cell.slot(node, -1, 2) == cell.slot(node, 2, 2)


def test_supercell_flat_layouts_are_read_only(kagome):
    cell = Supercell(kagome, 2)
    ns, nt, kk = len(kagome.spring_keys), len(kagome.penalized_keys), 4
    nm = len(kagome.marker_keys)
    assert not hasattr(cell, "gather")
    for edges, n in ((cell.edges, ns + 2 * nt), (cell.marker_b, nm), (cell.marker_r, nm)):
        for ends in (edges.tail, edges.head):
            assert ends.shape == (n, kk, 2) and ends.dtype == np.int64
            # the flat psi indices of both components of each end's slot
            assert (ends[..., 1] == ends[..., 0] + 1).all() and (ends[..., 0] % 2 == 0).all()
    assert cell.scatter.shape == (2 * (2 * ns + 3 * nt) * kk,)
    assert cell.scatter.dtype == np.int64
    for arr in (*cell.edges, *cell.marker_b, *cell.marker_r, cell.scatter):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_edge_gather_has_the_one_row_bits(all_specs, k):
    """Every row of one stacked gather, each at its own ``lam`` picked out
    of order from a list of gradients, has the bits of the one-row fancy
    gather, on the full edge layout and both marker families."""
    rng = np.random.default_rng(k)
    for spec in all_specs:
        cell = Supercell(spec, k)
        lams = np.eye(2) + 0.6 * rng.standard_normal((4, 2, 2))
        at = np.array([2, 0, 3, 3, 1, 0])
        Z = 0.4 * rng.standard_normal((len(at), 2 * cell.n_nodes))
        for edges in (cell.edges, cell.marker_b, cell.marker_r):
            got = edge_vectors(Z, edges.tail, edges.head, lam_times(lams, edges.dx)[at])
            assert got.flags.c_contiguous
            for row, i in enumerate(at):
                want = one_row_edge_vectors(lams[i], Z[row], *edges)
                assert got[row].tobytes() == want.tobytes(), (spec.name, k, row)


def test_zero_deformation_is_reference(rotating_squares):
    cell = Supercell(rotating_squares, 2)
    defm = PeriodicDeformation(cell, np.eye(2), np.zeros((cell.n_nodes, 2)))
    assert np.allclose(defm.lam, np.eye(2))
    assert not defm.psi.any()
    # every node in every cell of the supercell sits at its reference position
    keys = np.indices((rotating_squares.n_basic, 2, 2)).reshape(3, -1).T
    assert np.array_equal(defm.node_positions(keys), rotating_squares.node_positions(keys))


def test_deformation_evaluate_and_ops(kagome):
    rng = np.random.default_rng(7)
    cell = Supercell(kagome, 2)
    lam = np.array([[1.1, 0.2], [-0.1, 0.9]])
    psi = 0.2 * rng.standard_normal((cell.n_nodes, 2))
    defm = PeriodicDeformation(cell, lam, psi)

    # node positions are k-periodic modulo the affine part
    ref = [1, 0, 1]
    p0 = defm.node_positions(ref)
    p_shift = defm.node_positions([1, 2, 1])
    assert np.allclose(p_shift - p0, lam @ (2 * kagome.v1), atol=1e-12)

    moved = defm.translate([0.3, -0.4])
    assert np.allclose(moved.node_positions(ref) - p0, [0.3, -0.4], atol=1e-14)

    R = rotation(0.6)
    rot = defm.rotate(R)
    assert np.allclose(rot.node_positions(ref), R @ p0, atol=1e-12)

    tiled = defm.tile(4)
    assert tiled.cell.k == 4
    assert np.allclose(tiled.node_positions(ref), p0, atol=1e-14)


# ---------------------------------------------------------------------------
# unique integer rows
# ---------------------------------------------------------------------------


def _assert_unique_rows_match(keys):
    rows, inverse = unique_rows(keys, return_inverse=True)
    want_rows, want_inverse = np.unique(keys, axis=0, return_inverse=True)
    assert rows.dtype == want_rows.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(unique_rows(keys), want_rows)


@pytest.mark.parametrize("shape, lo, hi", [
    ((500, 3), -4, 5),                  # (node, o1, o2) rows, negative offsets
    ((2000, 3), -300, 300),
    ((300, 2), -3, 3),                  # node-id pairs
    ((1, 3), -7, 7),
    ((40, 1), 0, 4),
])
def test_unique_rows_is_numpys_unique(shape, lo, hi):
    rng = np.random.default_rng(sum(shape))
    _assert_unique_rows_match(rng.integers(lo, hi, shape))


def test_unique_rows_of_repeated_and_empty_tables():
    _assert_unique_rows_match(np.tile([[2, -1, 3]], (9, 1)))
    _assert_unique_rows_match(np.zeros((0, 3), dtype=np.int64))
    _assert_unique_rows_match(np.array([[1, 2]], dtype=np.int32))


def test_unique_rows_of_the_modulate_member_table(kagome):
    # the unit members of every cell over the default target at eps = 1/129
    CI, CJ = _cell_window(kagome, default_target().polygon, 1 / 129)
    _, keys = _unit_members(rigid_units(kagome), CI, CJ)
    assert len(keys) > 50_000 and (keys[:, 1:] < 0).any()
    _assert_unique_rows_match(keys)


def test_unique_rows_raises_rather_than_wraps():
    for keys in ([[0, 0], [2**40, 2**40]], [[-2**62, 0], [2**62, 0]]):
        with pytest.raises(ValueError):
            unique_rows(np.array(keys))
    # an int32 span past 2**31 wraps in ``keys - lo``; the negative
    # coordinates raise
    with pytest.raises(ValueError):
        unique_rows(np.array([[-2**31], [2**31 - 1]], dtype=np.int32))
