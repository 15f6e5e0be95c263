import json
import math

import numpy as np
import pytest

from rigidfold import (
    CreasePattern,
    PatternError,
    build_vertex_fans,
    generate_crane,
    generate_miura,
    generate_waterbomb_base,
    generate_waterbomb_tessellation,
    parse_pattern,
    serialize_pattern,
    validate_pattern,
)

SQUARE_DOC = json.dumps({
    "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "creases": [],
    "boundary": [[0, 1], [1, 2], [2, 3], [3, 0]],
    "facets": [[0, 1, 2, 3]],
    "meta": {},
})


def test_parse_single_square():
    p = parse_pattern(SQUARE_DOC)
    assert p.n_creases == 0
    assert p.interior_vertex_ids == []
    assert len(p.facets) == 1
    assert validate_pattern(p).ok


def test_parse_normalizes_orientation():
    doc = json.loads(SQUARE_DOC)
    doc["facets"] = [[3, 2, 1, 0]]  # clockwise on purpose
    p = parse_pattern(json.dumps(doc))
    assert p._signed_area(p.facets[0]) > 0


def test_roundtrip_all_generators():
    for p in (
        generate_miura(3, 3),
        generate_miura(1, 2, a=0.7, b=1.3, alpha=0.9),
        generate_waterbomb_base(),
        generate_waterbomb_tessellation(2, 2),
        generate_crane(),
    ):
        again = parse_pattern(serialize_pattern(p))
        assert again == p


def test_parse_errors():
    with pytest.raises(PatternError, match="malformed"):
        parse_pattern("{nope")
    with pytest.raises(PatternError, match="missing"):
        parse_pattern(json.dumps({"vertices": [[0, 0]]}))
    doc = json.loads(SQUARE_DOC)
    doc["facets"] = [[0, 1, 99]]
    with pytest.raises(PatternError, match="dangling"):
        parse_pattern(json.dumps(doc))
    doc = json.loads(SQUARE_DOC)
    doc["creases"] = [[0, 2, "M"], [2, 0, "V"]]
    with pytest.raises(PatternError, match="duplicate"):
        parse_pattern(json.dumps(doc))
    doc = json.loads(SQUARE_DOC)
    doc["creases"] = [[0, 9, "M"]]
    with pytest.raises(PatternError, match="dangling"):
        parse_pattern(json.dumps(doc))


def test_validator_flags_hole():
    # annulus-like: square ring of facets with an uncovered middle
    verts = [
        [0, 0], [3, 0], [3, 3], [0, 3],
        [1, 1], [2, 1], [2, 2], [1, 2],
    ]
    facets = [
        [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7],
    ]
    creases = [[1, 5, "U"], [2, 6, "U"], [3, 7, "U"], [0, 4, "U"]]
    boundary = [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]]
    p = CreasePattern(verts, creases, boundary, facets)
    report = validate_pattern(p)
    assert not report.ok
    assert any(v.kind == "holes-unsupported" for v in report.violations)


def test_validator_flags_bad_fan():
    # interior vertex whose creases span less than a full turn
    verts = [[0, 0], [2, 0], [2, 2], [-2, 2], [-2, -1], [1, 1], [0, 1], [-1, 1]]
    creases = [[0, 5, "U"], [0, 6, "U"], [0, 7, "U"]]
    boundary = [[1, 2], [2, 3], [3, 4], [4, 1],
                [5, 6], [6, 7]]
    # build facets by tracing; vertex 0 fans upward only -> reflex gap below
    edges = [c[:2] for c in creases] + boundary
    from rigidfold.pattern import trace_facets
    facets = trace_facets(np.asarray(verts, dtype=float), edges)
    p = CreasePattern(verts, creases, boundary, facets)
    report = validate_pattern(p)
    assert any(v.kind == "developability" for v in report.violations)


def test_validator_flags_low_degree():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    creases = [[4, 0, "U"], [4, 2, "U"]]
    boundary = [[0, 1], [1, 2], [2, 3], [3, 0]]
    facets = [[0, 1, 2, 4], [0, 4, 2, 3]]
    p = CreasePattern(verts, creases, boundary, facets)
    report = validate_pattern(p)
    assert any(v.kind == "fan-degree" for v in report.violations)


def test_canonical_crease_order():
    p = generate_miura(2, 2)
    keys = [c.key for c in p.creases]
    assert keys == sorted(keys)
    assert all(a < b for a, b in keys)


class TestFans:
    def test_miura_vertex_sectors(self, miura33):
        fans = build_vertex_fans(miura33)
        assert len(fans) == 25
        alpha = math.pi / 3
        for fan in fans:
            assert fan.degree == 4
            got = sorted(fan.sector_angles)
            want = sorted([alpha, alpha, math.pi - alpha, math.pi - alpha])
            assert np.allclose(got, want, atol=1e-12)
            assert abs(fan.sector_angles.sum() - 2 * math.pi) < 1e-12

    def test_waterbomb_center(self, waterbomb):
        fans = build_vertex_fans(waterbomb)
        assert len(fans) == 1
        assert fans[0].degree == 8
        assert np.allclose(fans[0].sector_angles, math.pi / 4, atol=1e-12)

    def test_boundary_vertices_excluded(self, miura33):
        fans = build_vertex_fans(miura33)
        ids = {f.vertex_id for f in fans}
        assert ids == set(miura33.interior_vertex_ids)
        # corner vertex is on the boundary
        assert 0 not in ids

    def test_anticlockwise_order(self, waterbomb):
        fan = build_vertex_fans(waterbomb)[0]
        angles = []
        for i in fan.crease_ids:
            c = waterbomb.creases[i]
            other = c.b if c.a == fan.vertex_id else c.a
            d = waterbomb.vertices[other] - waterbomb.vertices[fan.vertex_id]
            angles.append(math.atan2(d[1], d[0]))
        unwrapped = np.unwrap(angles)
        assert np.all(np.diff(unwrapped) > 0)


class TestGenerators:
    def test_miura_single_cell(self, miura11):
        assert len(miura11.vertices) == 9
        assert miura11.n_interior_vertices == 1
        assert miura11.n_creases == 4
        assert validate_pattern(miura11).ok

    def test_miura_cells_combinatorics(self, miura33):
        # 3x3 cells of four parallelograms: 7x7 vertex grid
        assert len(miura33.vertices) == 49
        assert miura33.n_interior_vertices == 25
        assert miura33.n_creases == 60
        assert len(miura33.facets) == 36
        assert validate_pattern(miura33).ok

    def test_miura_rejects_bad_parameters(self):
        with pytest.raises(PatternError):
            generate_miura(0, 1)
        with pytest.raises(PatternError):
            generate_miura(1, 1, alpha=math.pi / 2)
        with pytest.raises(PatternError):
            generate_miura(1, 1, a=-1.0)

    def test_waterbomb_base(self, waterbomb):
        assert waterbomb.n_creases == 8
        assert waterbomb.n_interior_vertices == 1
        lengths = waterbomb.crease_lengths()
        assert np.allclose(lengths, 1.0, atol=1e-12)
        assert validate_pattern(waterbomb).ok
        kinds = [c.assignment for c in waterbomb.creases]
        assert kinds == ["M", "V"] * 4

    def test_waterbomb_tessellation(self, wb_tess):
        assert validate_pattern(wb_tess).ok
        degrees = {}
        for v in wb_tess.interior_vertex_ids:
            d = len(wb_tess._incident_creases[v])
            degrees[d] = degrees.get(d, 0) + 1
        assert set(degrees) == {4, 6}
        assert degrees[6] == 15  # one center per base
        # triangulated-pattern bound on constraints vs unknowns
        assert 3 * wb_tess.n_interior_vertices <= wb_tess.n_creases

    def test_waterbomb_tessellation_single(self):
        p = generate_waterbomb_tessellation(1, 1)
        assert p.n_interior_vertices == 1
        fans = build_vertex_fans(p)
        assert fans[0].degree == 6
        assert validate_pattern(p).ok
        assert 3 * p.n_interior_vertices <= p.n_creases

    def test_crane_properties(self, crane):
        assert validate_pattern(crane).ok
        assert crane.meta["reconstructed"] is True
        degrees = sorted(
            len(crane._incident_creases[v]) for v in crane.interior_vertex_ids
        )
        assert degrees == [4, 4, 4, 4, 8]

    def test_crane_diagonal_symmetry(self, crane):
        # mirror across the A-C diagonal maps the vertex set onto itself
        pts = crane.vertices
        mirrored = pts[:, ::-1]
        for q in mirrored:
            dists = np.linalg.norm(pts - q, axis=1)
            assert dists.min() < 1e-12
        # and maps the crease set onto itself
        def vid_of(q):
            return int(np.argmin(np.linalg.norm(pts - q, axis=1)))

        keys = {c.key for c in crane.creases}
        for c in crane.creases:
            ma = vid_of(mirrored[c.a])
            mb = vid_of(mirrored[c.b])
            assert tuple(sorted((ma, mb))) in keys


def test_waterbomb_base_flat_foldity_of_sectors(waterbomb):
    fan = build_vertex_fans(waterbomb)[0]
    assert abs(8 * math.pi / 4 - fan.sector_angles.sum()) < 1e-12


def test_zero_sector_fans_rejected():
    # two creases leaving the interior vertex along the same ray
    verts = [[0, 0], [1, 0], [2, 0], [0, 1], [-1, -1], [1, -1]]
    creases = [[0, 1, "U"], [0, 2, "U"], [0, 3, "U"], [0, 4, "U"]]
    boundary = [[2, 3], [3, 4], [4, 5], [5, 2]]
    p = CreasePattern.from_edges(verts, creases, boundary)
    report = validate_pattern(p)
    assert any(v.kind == "zero-sector" for v in report.violations)
    with pytest.raises(PatternError, match="coincident"):
        build_vertex_fans(p)


@pytest.mark.parametrize("m,n,a,b,alpha", [
    (1, 1, 1.0, 1.0, math.pi / 3),
    (2, 3, 0.5, 2.0, 0.25),
    (3, 1, 1.5, 0.7, 1.4),
])
def test_miura_parameter_sweep_validates(m, n, a, b, alpha):
    p = generate_miura(m, n, a=a, b=b, alpha=alpha)
    assert validate_pattern(p).ok
    for fan in build_vertex_fans(p):
        assert abs(fan.sector_angles.sum() - 2 * math.pi) < 1e-12


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (3, 4)])
def test_wb_tessellation_parameter_sweep_validates(rows, cols):
    p = generate_waterbomb_tessellation(rows, cols, a=0.8, b=1.1)
    assert validate_pattern(p).ok
    assert 3 * p.n_interior_vertices <= p.n_creases


def test_straight_crease_line_is_developable():
    # the valley line 0-4-2 runs straight through interior vertex 4: the
    # sector of pi below it is not reflex
    p = CreasePattern.from_edges(
        [[0, 0], [2, 0], [2, 1], [0, 1], [1, 0.5], [0.5, 1], [1.5, 1]],
        [(0, 4, "V"), (4, 2, "V"), (4, 5, "M"), (4, 6, "M")],
        [(0, 1), (1, 2), (2, 6), (6, 5), (5, 3), (3, 0)],
    )
    assert validate_pattern(p).ok
    (fan,) = build_vertex_fans(p)
    assert np.isclose(fan.sector_angles.max(), math.pi, rtol=0, atol=1e-15)


@pytest.mark.parametrize("field, value", [
    ("creases", [[0, 2, "M"], [1, 3.5, "V"]]),
    ("creases", [[0, 1.5, "M"]]),
    ("boundary", [[0, 1], [1, 2], [2, 3], [3, 0.25]]),
    ("facets", [[0, 1, 2.5, 3]]),
    ("facets", [[0, 1, 2, math.nan]]),
])
def test_non_integral_index_rejected(field, value):
    doc = json.loads(SQUARE_DOC)
    doc[field] = value
    with pytest.raises(PatternError, match="non-integral index"):
        parse_pattern(json.dumps(doc))
    with pytest.raises(PatternError, match="non-integral index"):
        CreasePattern(**{k: doc[k] for k in ("vertices", "creases", "boundary", "facets")})


def test_integral_float_index_accepted():
    doc = json.loads(SQUARE_DOC)
    doc["facets"] = [[0.0, 1.0, 2.0, 3.0]]
    assert parse_pattern(json.dumps(doc)) == parse_pattern(SQUARE_DOC)


@pytest.mark.parametrize("vertices, message", [
    ([], "empty vertex list"),
    ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "not a 2D point"),
    ([[0, 0], [1, 0], [1, math.inf], [0, 1]], "finite"),
    ([[0, 0], [1, 0], [1, math.nan], [0, 1]], "finite"),
])
def test_constructor_checks_vertices(vertices, message):
    # four 3D points used to be reshaped silently into six 2D points
    with pytest.raises(PatternError, match=message):
        CreasePattern(vertices, [], [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2, 3]])


def test_constructor_checks_dangling_indices():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    square = [[0, 1], [1, 2], [2, 3], [3, 0]]
    with pytest.raises(PatternError, match="dangling index 4 in crease"):
        CreasePattern(verts, [[0, 4, "M"]], square, [[0, 1, 2, 3]])
    with pytest.raises(PatternError, match="dangling index -1 in boundary edge"):
        CreasePattern(verts, [], [*square[:3], [3, -1]], [[0, 1, 2, 3]])
    with pytest.raises(PatternError, match="dangling index 7 in facet"):
        CreasePattern(verts, [], square, [[0, 1, 7]])
