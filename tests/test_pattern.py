import json
import math
from functools import partial

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
from rigidfold.pattern import Violation, _signed_areas, trace_facets

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
    assert _signed_areas(p.vertices, p.facets)[0] > 0


def test_crease_arrays_follow_crease_order(crane):
    """The crease ends and fold signs are read-only, in crease order."""
    sign = {"V": 1.0, "M": -1.0, "U": 0.0}
    assert crane._crease_ends.tolist() == [list(c.key) for c in crane.creases]
    assert crane._fold_signs.tolist() == [sign[c.assignment] for c in crane.creases]
    assert set(crane._fold_signs.tolist()) == {1.0, -1.0, 0.0}
    for a in (crane._crease_ends, crane._fold_signs):
        assert not a.flags.writeable


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_waterbomb_base_meta_lists(radius):
    p = generate_waterbomb_base(radius)
    assert p.meta["mountains"] == [0, 2, 4, 6]
    assert p.meta["valleys"] == [1, 3, 5, 7]
    assert p.meta["mountains"] == [i for i, c in enumerate(p.creases) if c.assignment == "M"]
    assert p.meta["valleys"] == [i for i, c in enumerate(p.creases) if c.assignment == "V"]
    assert {type(i) for i in p.meta["mountains"] + p.meta["valleys"]} == {int}


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


# a crease must join two different vertices and carry M, V or U; the
# lower-case "m" is no assignment
CREASE_RULES = [
    ([1, 1, "M"], "degenerate crease (1, 1)"),
    ([0, 2, "X"], "unknown assignment 'X'"),
    ([0, 2, "m"], "unknown assignment 'm'"),
]


@pytest.mark.parametrize("crease, message", CREASE_RULES)
def test_crease_rules(crease, message):
    doc = json.loads(SQUARE_DOC)
    doc["creases"] = [[0, 2, "V"], crease]
    for build in (lambda: parse_pattern(json.dumps(doc)),
                  lambda: CreasePattern(doc["vertices"], doc["creases"], doc["boundary"],
                                        doc["facets"])):
        with pytest.raises(PatternError) as err:
            build()
        assert str(err.value) == message


def test_crease_ends_either_way_round():
    doc = json.loads(SQUARE_DOC)
    doc["creases"] = [[0, 2, "V"]]
    reversed_ends = parse_pattern(json.dumps({**doc, "creases": [[2, 0, "V"]]}))
    assert reversed_ends == parse_pattern(json.dumps(doc))
    assert [c.key for c in reversed_ends.creases] == [(0, 2)]
    for p in (generate_crane(), generate_miura(3, 3), generate_waterbomb_tessellation(2, 2)):
        assert CreasePattern(p.vertices, p.creases, p.boundary, p.facets) == p


def hole_pattern():
    """Annulus-like: a square ring of facets with an uncovered middle."""
    verts = [
        [0, 0], [3, 0], [3, 3], [0, 3],
        [1, 1], [2, 1], [2, 2], [1, 2],
    ]
    facets = [
        [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7],
    ]
    creases = [[1, 5, "U"], [2, 6, "U"], [3, 7, "U"], [0, 4, "U"]]
    boundary = [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]]
    return CreasePattern(verts, creases, boundary, facets)


def bad_fan_pattern():
    """An interior vertex whose creases span less than a full turn."""
    verts = [[0, 0], [2, 0], [2, 2], [-2, 2], [-2, -1], [1, 1], [0, 1], [-1, 1]]
    creases = [[0, 5, "U"], [0, 6, "U"], [0, 7, "U"]]
    boundary = [[1, 2], [2, 3], [3, 4], [4, 1],
                [5, 6], [6, 7]]
    # build facets by tracing; vertex 0 fans upward only -> reflex gap below
    edges = [c[:2] for c in creases] + boundary
    facets = trace_facets(np.asarray(verts, dtype=float), edges)
    return CreasePattern(verts, creases, boundary, facets)


def wide_bad_fan_pattern():
    """A degree-8 interior vertex whose creases span 156 degrees: numpy
    sums its eight non-reflex sectors pairwise, not one by one."""
    rays = [7, 23, 41, 62, 88, 111, 139, 163]
    verts = [[0, 0]] + [[math.cos(math.radians(t)), math.sin(math.radians(t))] for t in rays]
    creases = [(0, k, "U") for k in range(1, 9)]
    boundary = [(k, k + 1) for k in range(1, 8)] + [(8, 9), (9, 10), (10, 1)]
    return CreasePattern.from_edges(verts + [[-1, -1], [1, -1]], creases, boundary)


def low_degree_pattern():
    """An interior vertex with two creases."""
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    creases = [[4, 0, "U"], [4, 2, "U"]]
    boundary = [[0, 1], [1, 2], [2, 3], [3, 0]]
    facets = [[0, 1, 2, 4], [0, 4, 2, 3]]
    return CreasePattern(verts, creases, boundary, facets)


def zero_sector_pattern():
    """Two creases leaving the interior vertex along the same ray."""
    verts = [[0, 0], [1, 0], [2, 0], [0, 1], [-1, -1], [1, -1]]
    creases = [[0, 1, "U"], [0, 2, "U"], [0, 3, "U"], [0, 4, "U"]]
    boundary = [[2, 3], [3, 4], [4, 5], [5, 2]]
    return CreasePattern.from_edges(verts, creases, boundary)


def bow_tie_pattern(scale=1.0):
    """One self-intersecting quadrilateral facet."""
    verts = [[0, 0], [scale, scale], [scale, 0], [0, scale]]
    return CreasePattern(verts, [], [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2, 3]])


def split_square_pattern(diagonal_declared=True):
    """The unit square cut along its diagonal into two triangles, with the
    diagonal declared as a boundary edge or nowhere: no crease joins them."""
    boundary = [[0, 1], [1, 2], [2, 3], [3, 0]] + ([[0, 2]] if diagonal_declared else [])
    return CreasePattern([[0, 0], [1, 0], [1, 1], [0, 1]], [], boundary,
                         [[0, 1, 2], [0, 2, 3]])


# every broken pattern above, with the violation it must raise; the property
# tests compare their reports with the per-face reference
BROKEN_PATTERNS = {
    "hole": (hole_pattern, "holes-unsupported"),
    "bad-fan": (bad_fan_pattern, "developability"),
    "wide-bad-fan": (wide_bad_fan_pattern, "developability"),
    "low-degree": (low_degree_pattern, "fan-degree"),
    "zero-sector": (zero_sector_pattern, "zero-sector"),
    "bow-tie": (bow_tie_pattern, "facet-not-simple"),
    "split-square": (split_square_pattern, "boundary-incidence"),
    "undeclared-diagonal": (partial(split_square_pattern, False), "undeclared-edge"),
}


def test_validator_flags_hole():
    report = validate_pattern(hole_pattern())
    assert not report.ok
    assert any(v.kind == "holes-unsupported" for v in report.violations)


def test_validator_flags_bad_fan():
    report = validate_pattern(bad_fan_pattern())
    assert any(v.kind == "developability" for v in report.violations)


def test_validator_flags_low_degree():
    report = validate_pattern(low_degree_pattern())
    assert any(v.kind == "fan-degree" for v in report.violations)


def test_validator_flags_split_square():
    assert validate_pattern(split_square_pattern()).violations == (
        Violation("boundary-incidence", "edge (0, 2)", 2.0),
        Violation("disconnected", "1 facets unreachable"),
    )
    report = validate_pattern(split_square_pattern(diagonal_declared=False))
    assert [(v.kind, v.where) for v in report.violations] == [
        ("undeclared-edge", "edge (0, 2)"),
        ("disconnected", "1 facets unreachable"),
        ("holes-unsupported", "Euler check"),
    ]


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-3, 1.0, 1e8])
def test_simple_facet_test_reads_the_same_at_every_scale(scale):
    # the orientation test once used an absolute 1e-14, under which every
    # orientation of a bow-tie at 1e-8 units read as collinear
    report = validate_pattern(bow_tie_pattern(scale))
    assert [v.kind for v in report.violations] == ["facet-not-simple"]
    assert validate_pattern(generate_miura(2, 3, a=scale, b=scale)).ok


def test_edge_facets_built_once_after_from_edges(miura33):
    p = CreasePattern.from_edges(
        miura33.vertices, miura33.creases, miura33.boundary
    )
    by_edge = p._edge_facets
    assert by_edge is p._edge_facets  # kept
    assert by_edge == miura33._edge_facets  # read after from_edges set the facets
    assert len(by_edge) == p.n_creases + len(p.boundary)
    for key, sides in by_edge.items():
        assert isinstance(sides, tuple)
        assert sides == tuple(
            (f, cycle[i] < cycle[(i + 1) % len(cycle)])
            for f, cycle in enumerate(p.facets)
            for i in range(len(cycle))
            if tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) == key
        )


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
    p = zero_sector_pattern()
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


@pytest.mark.parametrize("coordinate", ["0", True, False, None, [0]])
def test_non_number_coordinate_rejected(coordinate):
    # "0" and true used to be read as the numbers 0 and 1
    doc = json.loads(SQUARE_DOC)
    doc["vertices"][1][1] = coordinate
    with pytest.raises(TypeError, match="is not a number"):
        parse_pattern(json.dumps(doc))
    with pytest.raises(TypeError, match="is not a number"):
        CreasePattern(doc["vertices"], [], doc["boundary"], doc["facets"])


def test_numpy_coordinates_accepted():
    doc = json.loads(SQUARE_DOC)
    p = CreasePattern(np.array(doc["vertices"], dtype=np.int64), [], doc["boundary"],
                      doc["facets"])
    assert p == parse_pattern(SQUARE_DOC)


def test_constructor_checks_dangling_indices():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    square = [[0, 1], [1, 2], [2, 3], [3, 0]]
    with pytest.raises(PatternError, match="dangling index 4 in crease"):
        CreasePattern(verts, [[0, 4, "M"]], square, [[0, 1, 2, 3]])
    with pytest.raises(PatternError, match="dangling index -1 in boundary edge"):
        CreasePattern(verts, [], [*square[:3], [3, -1]], [[0, 1, 2, 3]])
    with pytest.raises(PatternError, match="dangling index 7 in facet"):
        CreasePattern(verts, [], square, [[0, 1, 7]])


@pytest.mark.parametrize("facets, error, message", [
    ([[0, 1, 2, "3"]], TypeError, "id '3' in facet"),
    ([[0, 1, 2, True]], TypeError, "id True in facet"),
    ([[0, 1, 2, np.int64(4)]], PatternError, "dangling index"),
    ([[0, 1, 2]] * 2 + [[0, 1, "x"]], TypeError, "id 'x' in facet"),
])
def test_id_checks_keep_their_errors(facets, error, message):
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(error, match=message):
        CreasePattern(verts, [], [[0, 1], [1, 2], [2, 3], [3, 0]], facets)


def test_numpy_ids_accepted():
    doc = json.loads(SQUARE_DOC)
    p = CreasePattern(
        np.array(doc["vertices"], dtype=float), [],
        np.array(doc["boundary"], dtype=np.int64), np.array(doc["facets"], dtype=np.int32),
    )
    assert p == parse_pattern(SQUARE_DOC)
    assert all(type(v) is int for cycle in p.facets for v in cycle)
