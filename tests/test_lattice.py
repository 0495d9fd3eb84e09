"""Lattice construction, serialization, and supercell bookkeeping."""

import hashlib

import numpy as np
import pytest
from conftest import orphan_spring_json

from latmech.lattice import (
    DegenerateGeometryError,
    LatticeSpec,
    PeriodicDeformation,
    Supercell,
    VARIANT_KINDS,
    build_kagome,
    build_rotating_squares,
    build_variant,
    rotation,
)


def test_builtin_structure(kagome, rotating_squares):
    assert kagome.n_basic == 3
    assert len(kagome.springs) == 6
    assert len(kagome.penalized_triangles) == 2
    assert len(kagome.marker_edges) == 2
    assert kagome.cell_area == pytest.approx(2 * np.sqrt(3), abs=1e-14)
    assert kagome.alpha == pytest.approx(np.pi / 3)

    assert rotating_squares.n_basic == 4
    assert len(rotating_squares.springs) == 10
    assert len(rotating_squares.penalized_triangles) == 4
    assert len(rotating_squares.marker_edges) == 4
    assert rotating_squares.cell_area == pytest.approx(4.0, abs=1e-14)
    assert rotating_squares.alpha == pytest.approx(np.pi / 2)

    for spec in (kagome, rotating_squares):
        assert spec.c_marker == pytest.approx(1.0)
        for s in spec.springs:
            assert s.rest_length > 0
            assert s.stiffness > 0


def test_node_position_offsets(all_specs):
    for spec in all_specs:
        for node in range(spec.n_basic):
            base = spec.node_position((node, (0, 0)))
            shifted = spec.node_position((node, (2, -1)))
            expect = base + 2 * spec.v1 - spec.v2
            assert np.allclose(shifted, expect, atol=1e-14)


def test_marker_geometry(all_specs):
    """Marker legs satisfy r = c R(alpha) b, the conformality relation."""
    for spec in all_specs:
        R = rotation(spec.alpha)
        for m in range(len(spec.marker_edges)):
            b, r = spec.marker_vectors(m)
            assert np.allclose(r, spec.c_marker * R @ b, atol=1e-12), spec.name


def test_json_round_trip(all_specs, tmp_path):
    for spec in all_specs:
        text = spec.to_json()
        back = LatticeSpec.from_json(text)
        assert back.name == spec.name
        assert back.n_basic == spec.n_basic
        assert np.allclose(back.v1, spec.v1) and np.allclose(back.v2, spec.v2)
        assert len(back.springs) == len(spec.springs)
        for s1, s2 in zip(back.springs, spec.springs):
            assert s1.a == s2.a and s1.b == s2.b
            assert s1.rest_length == pytest.approx(s2.rest_length, abs=1e-15)
        assert back.cell_area == pytest.approx(spec.cell_area, abs=1e-14)
        assert back.alpha == pytest.approx(spec.alpha, abs=1e-12)

    path = tmp_path / "spec.json"
    all_specs[0].to_json(str(path))
    assert LatticeSpec.from_json(str(path)).n_basic == all_specs[0].n_basic


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
    "general-kagome()": "784750f2241acd5a5b6b9d86ba19ab680a287610ca9c7d3b83054312fce54375",
    "general-kagome(conftest)": "b27bfcd3d71d3cc5c9706778fd45203924456bc8cca18f32b2409b2bef39717a",
    "isosceles-kagome()": "ad7b5daec25c4c89075a1c596f5524d5fba182826f12165407dea89b1a454530",
    "isosceles-kagome(conftest)": "7f656216fa7ea5301d65272e24c08abd437a2e7a46876e8fcc5988056a2afb6f",
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
    lines += [float.hex(s.rest_length) for s in spec.springs]
    lines += [float.hex(t.area) for t in spec.penalized_triangles]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_builder_outputs_pinned():
    got = {"kagome": _builder_digest(build_kagome()),
           "rotating-squares": _builder_digest(build_rotating_squares())}
    for kind in VARIANT_KINDS:
        got[kind + "()"] = _builder_digest(build_variant(kind))
        got[kind + "(conftest)"] = _builder_digest(build_variant(kind, **CONFTEST_PARAMS[kind]))
    assert got == BUILDER_PINS


def test_json_rejects_spring_off_penalized_triangles():
    with pytest.raises(DegenerateGeometryError, match="spring 10 shares no endpoint"):
        LatticeSpec.from_json(orphan_spring_json())


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
    ("quad-squares", {"d1": 1.2, "d2": 0.8}),   # unequal diagonals
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
    assert cell.ref_positions.shape == (cell.n_nodes, 2)


def test_zero_deformation_is_reference(rotating_squares):
    cell = Supercell(rotating_squares, 2)
    defm = cell.zero_deformation()
    assert np.allclose(defm.lam, np.eye(2))
    assert np.allclose(defm.node_values(), cell.ref_positions)


def test_deformation_evaluate_and_ops(kagome):
    rng = np.random.default_rng(7)
    cell = Supercell(kagome, 2)
    lam = np.array([[1.1, 0.2], [-0.1, 0.9]])
    psi = 0.2 * rng.standard_normal((cell.n_nodes, 2))
    defm = PeriodicDeformation(cell, lam, psi)

    # evaluate is k-periodic modulo the affine part
    ref = (1, (0, 1))
    p0 = defm.evaluate(ref)
    p_shift = defm.evaluate(ref, cell=(2, 0))
    assert np.allclose(p_shift - p0, lam @ (2 * kagome.v1), atol=1e-12)

    moved = defm.translate([0.3, -0.4])
    assert np.allclose(moved.evaluate(ref) - p0, [0.3, -0.4], atol=1e-14)

    R = rotation(0.6)
    rot = defm.rotate(R)
    assert np.allclose(rot.evaluate(ref), R @ p0, atol=1e-12)

    tiled = defm.tile(4)
    assert tiled.cell.k == 4
    assert np.allclose(tiled.evaluate(ref), p0, atol=1e-14)
