"""Crease-pattern data model, JSON I/O, validation, and vertex fans.

A pattern is a planar straight-line graph on 2D vertices.  Interior edges are
creases carrying a mountain/valley/unassigned flag; boundary edges border a
single facet.  Facets are counterclockwise vertex cycles.  Fold angles are
always indexed by the canonical crease order: sorted by (min vertex id,
max vertex id).
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

MOUNTAIN = "M"
VALLEY = "V"
UNASSIGNED = "U"

_ASSIGNMENTS = (MOUNTAIN, VALLEY, UNASSIGNED)
# the fold sign of each assignment: the side a flat crease folds to first
_SIGN = {VALLEY: 1.0, MOUNTAIN: -1.0, UNASSIGNED: 0.0}

# tolerance for the non-reflex sector sum around an interior vertex
DEVELOPABILITY_TOL = 1e-9

# a sector at or below this many radians means two coincident crease directions
_ZERO_SECTOR = 1e-12


class PatternError(ValueError):
    """Structurally invalid pattern document or construction input."""


class Crease(NamedTuple):
    """The vertex ids and assignment of a crease; a pattern's have ``a < b``."""

    a: int
    b: int
    assignment: str = UNASSIGNED

    @property
    def key(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    value: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "where": v.where, "value": v.value}
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class VertexFan:
    """Creases around one interior vertex, anticlockwise, with sector angles."""

    vertex_id: int
    crease_ids: tuple
    sector_angles: np.ndarray

    @property
    def degree(self):
        return len(self.crease_ids)


class CreasePattern:
    """Immutable crease pattern; derived combinatorics computed on build.

    The constructor owns the structural checks: finite 2D points, vertex
    ids that are integers in range, and creases that join two different
    vertices, carry an assignment M, V or U and are given once (either end
    first); ``validate_pattern`` reports the rest.
    """

    def __init__(self, vertices, creases, boundary, facets, meta=None):
        self.vertices = _points(vertices)
        n = len(self.vertices)
        self.creases = self._canonical_creases(creases, n)
        edges = (_indices(e, n, "boundary edge") for e in boundary)
        self.boundary = sorted((a, b) if a < b else (b, a) for a, b in edges)
        self.facets = self._canonical_facets(_indices(f, n, "facet") for f in facets)
        self.meta = dict(meta or {})
        self._index_edges()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _canonical_creases(creases, n):
        """The ``(a, b[, assignment])`` entries as sorted Creases, a < b; a
        self-loop, an assignment not M, V or U, or a repeat is a PatternError."""
        out = []
        for c in creases:
            a, b = _indices(c[:2], n, "crease")
            kind = c[2] if len(c) > 2 else UNASSIGNED
            if a == b:
                raise PatternError(f"degenerate crease ({a}, {b})")
            if kind not in _ASSIGNMENTS:
                raise PatternError(f"unknown assignment {kind!r}")
            out.append(Crease(a, b, kind) if a < b else Crease(b, a, kind))
        out.sort()
        for prev, cur in zip(out, out[1:]):
            if prev.key == cur.key:
                raise PatternError(f"duplicate crease {cur.key}")
        return out

    def _canonical_facets(self, cycles):
        """Checked id lists as anticlockwise tuples, each started at its
        smallest id, sorted."""
        checked = []
        for cycle in cycles:
            if len(cycle) < 3:
                raise PatternError(f"facet with fewer than 3 vertices: {cycle}")
            checked.append(cycle)
        areas = _signed_areas(self.vertices, checked).tolist()
        return sorted(
            _least_first(cycle[::-1] if area < 0 else cycle)
            for cycle, area in zip(checked, areas)
        )

    def _index_edges(self):
        """Crease and vertex lookups, and two read-only arrays in crease order:
        the ends ``_crease_ends`` (n, 2) and the ``_fold_signs`` (n,)."""
        self.crease_index = {(c.a, c.b): i for i, c in enumerate(self.creases)}
        self._crease_ends = np.array(list(self.crease_index), dtype=np.intp).reshape(-1, 2)
        self._fold_signs = np.array([_SIGN[c.assignment] for c in self.creases])
        self._crease_ends.flags.writeable = self._fold_signs.flags.writeable = False
        boundary_vertices = {v for e in self.boundary for v in e}
        incident = {}
        for i, (a, b) in enumerate(self.crease_index):
            incident.setdefault(a, []).append(i)
            incident.setdefault(b, []).append(i)
        self._incident_creases = incident
        self.interior_vertex_ids = sorted(
            v for v in incident if v not in boundary_vertices
        )

    @classmethod
    def from_edges(cls, vertices, creases, boundary, meta=None):
        """Build a pattern from edges alone; facets come from face traversal."""
        p = cls(vertices, creases, boundary, [], meta=meta)
        edges = list(p.crease_index) + p.boundary
        p.facets = sorted(map(_least_first, trace_facets(p.vertices, edges)))
        return p

    # -- basic queries ---------------------------------------------------------

    @property
    def n_creases(self):
        return len(self.creases)

    @property
    def n_interior_vertices(self):
        return len(self.interior_vertex_ids)

    def crease_lengths(self):
        """Length of every crease, in crease order.

        ``np.matmul`` of each crease vector with itself calls the same BLAS
        dot per crease as ``np.linalg.norm`` of one vector, so the lengths
        are the norm's to the last bit (an elementwise ``x*x + y*y`` is not:
        the dot may fuse its multiply and add)."""
        ends = self._crease_ends
        d = self.vertices[ends[:, 1]] - self.vertices[ends[:, 0]]
        return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])

    @cached_property
    def _edge_facets(self):
        """The sides of each edge (min id, max id): a tuple of one ``(facet,
        forward)`` per facet on it, in facet order, ``forward`` when the
        facet's cycle runs the edge from the lower to the higher id.  Edges
        come in order of first appearance along the facet cycles.  Built on
        first use, after ``from_edges`` has set the facets, and kept."""
        by_edge = {}
        for f, cycle in enumerate(self.facets):
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                by_edge.setdefault((u, v) if u < v else (v, u), []).append((f, u < v))
        return {key: tuple(sides) for key, sides in by_edge.items()}

    def __eq__(self, other):
        if not isinstance(other, CreasePattern):
            return NotImplemented
        return (
            self.vertices.shape == other.vertices.shape
            and np.array_equal(self.vertices, other.vertices)
            and self.creases == other.creases
            and self.boundary == other.boundary
            and self.facets == other.facets
        )

    def to_dict(self):
        return {
            "vertices": self.vertices.tolist(),
            "creases": [[c.a, c.b, c.assignment] for c in self.creases],
            "boundary": [[a, b] for a, b in self.boundary],
            "facets": [list(f) for f in self.facets],
            "meta": self.meta,
        }


# -- structure checks --------------------------------------------------------------


def _is_number(value, kind=numbers.Real):
    """True for an instance of the numbers ABC ``kind`` that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _real(value, what):
    """``value`` as a float, never converted from another type: a string or a
    bool is a TypeError."""
    if type(value) is float:
        return value
    if not _is_number(value):
        raise TypeError(f"{what} {value!r} is not a number")
    return float(value)


def _one_each(values, what, n, whole="pattern has {} creases"):
    """``values`` as a float vector of n entries; any other count is a
    ValueError that names both, from the templates ``what`` and ``whole``
    ("spring config has {} springs", "pattern has {} creases").  A scalar
    is named as one: "spring config is a scalar", the subject being what
    precedes " has " in ``what``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        if values.ndim == 0:
            subject = what.partition(" has ")[0]
            raise ValueError(f"{subject} is a scalar, {whole.format(n)}")
        count = values.size if values.ndim == 1 else values.shape
        raise ValueError(f"{what.format(count)}, {whole.format(n)}")
    return values


def _index(value, what, error=ValueError):
    """``value`` as an int id, never truncated: a non-number (a string, a
    bool) is a TypeError and a fraction ``error``; ``what`` says where the id
    stands."""
    if type(value) is int:
        return value
    if not _is_number(value):
        raise TypeError(f"id {value!r} in {what} is not a number")
    if not float(value).is_integer():
        raise error(f"non-integral index {value!r} in {what}")
    return int(value)


def _points(vertices):
    """The vertex list (an array is read as its ``tolist``) as an (n, 2)
    float array of finite 2D points, n > 0; a coordinate that is not a real
    number (a string, a bool) is a TypeError, never converted."""
    if len(vertices) == 0:
        raise PatternError("empty vertex list")
    for v in vertices.tolist() if isinstance(vertices, np.ndarray) else vertices:
        if len(v) != 2:
            raise PatternError(f"vertex is not a 2D point: {v}")
        for x in v:
            if type(x) is not float and not _is_number(x):
                raise TypeError(f"coordinate {x!r} of vertex {v} is not a number")
    pts = np.asarray(vertices, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise PatternError("vertex coordinates must be finite numbers")
    return pts


def _indices(entry, n, what):
    """The vertex ids of one crease, boundary edge or facet, never truncated:
    a non-number is a TypeError, a fraction or an id outside ``range(n)`` a
    PatternError."""
    out = []
    for v in entry:
        # the message's place is formatted only for an id that is no plain int
        i = v if type(v) is int else _index(v, f"{what} {entry}", PatternError)
        if not 0 <= i < n:
            raise PatternError(f"dangling index {v!r} in {what} {entry}")
        out.append(i)
    return out


def _least_first(cycle):
    """The cycle as a tuple started at its smallest id."""
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def _by_length(seqs):
    """The indices of the sequences of each length, keyed by length."""
    groups = {}
    for k, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(k)
    return groups


def _signed_areas(vertices, cycles):
    """Signed area of each closed polygon ``vertices[cycle]``, positive
    anticlockwise; one numpy row sum per cycle length, the same numbers as
    summing each cycle's own shoelace terms."""
    areas = np.empty(len(cycles))
    for ks in _by_length(cycles).values():
        pts = vertices[np.array([cycles[k] for k in ks], dtype=np.intp)]
        x, y = pts[..., 0], pts[..., 1]
        areas[ks] = 0.5 * (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)
    return areas


# -- planar face traversal -----------------------------------------------------


def _rings(xy, center, other, tie):
    """The order that groups the half-edges ``center -> other`` by center
    and sorts each group anticlockwise by direction, equal directions by
    ``tie``; and the sorted directions, libm ``atan2`` of the coordinate
    differences."""
    d = xy[other] - xy[center]
    angle = np.array(list(map(math.atan2, d[:, 1].tolist(), d[:, 0].tolist())))
    order = np.lexsort((tie, angle, center))
    return order, angle[order]


def trace_facets(vertices, edges):
    """Trace interior faces of a planar straight-line graph, counterclockwise.

    Standard rotation-system walk: the successor of directed edge (u, v) is
    the edge out of v that is the next one clockwise from (v, u).  The single
    clockwise outer walk is discarded.  Faces come in the order the walk
    first meets them, starting from each edge (a, b) and then (b, a).
    """
    xy = np.asarray(vertices, dtype=float)
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return []
    n = len(xy)
    if pairs.min() < 0 or pairs.max() >= n:
        raise PatternError("edge endpoint outside the vertex list")
    # directed edges u -> v, coded u * n + v: the sorted distinct codes
    # index them, and ``start`` lists both directions of each edge in turn
    a, b = pairs.T
    start = np.column_stack([a * n + b, b * n + a]).ravel()
    code = np.sort(start)
    code = code[np.r_[True, code[1:] != code[:-1]]]
    u, v = np.divmod(code, n)
    # every vertex's outgoing edges anticlockwise: ring position -> edge
    order, _ = _rings(xy, u, v, v)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    # the position before each one in its ring, cyclically: next clockwise
    first = np.flatnonzero(np.r_[True, np.diff(u[order]) != 0])
    clockwise = np.arange(-1, len(order) - 1)
    clockwise[first] = np.r_[first[1:], len(order)] - 1
    # u -> v continues along the edge out of v next clockwise from v -> u
    reverse = np.searchsorted(code, v * n + u)
    successor = order[clockwise[position[reverse]]].tolist()

    tail = u.tolist()
    seen = bytearray(len(code))
    cycles = []
    for e in np.searchsorted(code, start).tolist():
        cycle = []
        while not seen[e]:
            seen[e] = 1
            cycle.append(tail[e])
            e = successor[e]
        if cycle:
            cycles.append(cycle)
    areas = _signed_areas(xy, cycles).tolist()
    return [cycle for cycle, area in zip(cycles, areas) if area > 0]


# -- JSON I/O --------------------------------------------------------------------


def parse_pattern(document):
    """Parse the JSON pattern schema into a CreasePattern."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PatternError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise PatternError("document root must be an object")
    missing = {"vertices", "creases", "boundary", "facets"} - set(data)
    if missing:
        raise PatternError(f"missing fields: {sorted(missing)}")
    for entry in data["creases"]:
        if len(entry) != 3:
            raise PatternError(f"crease entry must be [a, b, kind]: {entry}")
    return CreasePattern(
        data["vertices"], data["creases"], data["boundary"], data["facets"],
        meta=data.get("meta"),
    )


def serialize_pattern(p):
    """Serialize to the JSON schema; inverse of parse_pattern."""
    return json.dumps(p.to_dict(), indent=1)


# -- validation -------------------------------------------------------------------


def _simple_facets(vertices, facets):
    """Whether each facet cycle is a simple polygon: no repeated vertex and
    no improper self-intersection, tested in one batch per cycle length.
    Three points count as collinear when their orientation is at most 1e-14
    times the product of the two tested segments' lengths, so the test reads
    the same at every scale."""
    simple = np.ones(len(facets), dtype=bool)
    for m, fs in _by_length(facets).items():
        cycles = np.array([facets[f] for f in fs], dtype=np.intp)
        bad = (np.diff(np.sort(cycles, axis=1), axis=1) == 0).any(axis=1)
        pairs = [(i, j) for i in range(m) for j in range(i + 2, m if i else m - 1)]
        if pairs:
            # segment k runs from p[:, k] to q[:, k]; segments i and j are not adjacent
            i, j = np.array(pairs).T
            p = vertices[cycles]
            q = np.roll(p, -1, axis=1)
            length = np.hypot(q[..., 0] - p[..., 0], q[..., 1] - p[..., 1])
            tol = 1e-14 * length[:, i] * length[:, j]
            p1, p2, q1, q2 = p[:, i], q[:, i], p[:, j], q[:, j]
            bad |= (
                (_turn(p1, p2, q1, tol) != _turn(p1, p2, q2, tol))
                & (_turn(q1, q2, p1, tol) != _turn(q1, q2, p2, tol))
            ).any(axis=1)
        simple[fs] = ~bad
    return simple


def _turn(a, b, c, tol):
    """Sign of the turn a -> b -> c of stacked 2D points: 0 within ``tol``,
    else 1 when anticlockwise and -1 otherwise."""
    v = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
         - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))
    return np.where(np.abs(v) <= tol, 0, np.where(v > 0, 1, -1))


def _facet_tree(p, root):
    """The breadth-first facet tree from ``root``: one ``(facet, parent,
    crease, forward)`` per tree edge, in walk order, ``forward`` being the
    parent's side of the crease.  The walk crosses every crease to which the
    pattern's ``_edge_facets`` gives two sides, and visits each facet's
    neighbours in (facet, crease) order.  Facets out of reach get no edge."""
    neighbours = [[] for _ in p.facets]
    for key, sides in p._edge_facets.items():
        if len(sides) == 2 and key in p.crease_index:
            crease = p.crease_index[key]
            (f, f_forward), (g, g_forward) = sides
            neighbours[f].append((g, crease, f_forward))
            neighbours[g].append((f, crease, g_forward))
    edges = []
    seen = bytearray(len(p.facets))
    seen[root] = 1
    queue = [root]
    for parent in queue:  # grows as the walk goes
        for child, crease, forward in sorted(neighbours[parent]):
            if not seen[child]:
                seen[child] = 1
                queue.append(child)
                edges.append((child, parent, crease, forward))
    return edges


def validate_pattern(p):
    """Check every CreasePattern invariant; violations are data, not errors."""
    violations = []

    # facet cycles must be simple polygons
    for f in np.flatnonzero(~_simple_facets(p.vertices, p.facets)).tolist():
        violations.append(Violation("facet-not-simple", f"facet {f}"))

    # edge / facet incidence
    count = {e: len(sides) for e, sides in p._edge_facets.items()}
    for key in p.crease_index:
        got = count.pop(key, 0)
        if got != 2:
            violations.append(
                Violation("crease-incidence", f"crease {key}", float(got))
            )
    for e in p.boundary:
        got = count.pop(e, 0)
        if got != 1:
            violations.append(
                Violation("boundary-incidence", f"edge {e}", float(got))
            )
    for e, got in count.items():
        violations.append(Violation("undeclared-edge", f"edge {e}", float(got)))

    # connectivity of the facet graph
    if p.facets:
        unreachable = len(p.facets) - 1 - len(_facet_tree(p, 0))
        if unreachable:
            violations.append(Violation("disconnected", f"{unreachable} facets unreachable"))
    else:
        violations.append(Violation("no-facets", "pattern has no facets"))

    # no interior holes: V - E + F = 1 with the outer region uncounted
    used = set(p._incident_creases).union(*p.boundary, *p.facets)
    if len(used) != len(p.vertices):
        violations.append(
            Violation("isolated-vertex", f"{len(p.vertices) - len(used)} unused vertices")
        )
    euler = len(p.vertices) - (p.n_creases + len(p.boundary)) + len(p.facets)
    if euler != 1:
        violations.append(Violation("holes-unsupported", "Euler check", float(euler)))

    # fan sanity and developability at interior vertices.  min(s, 2*pi - s)
    # is the non-reflex angle of a sector, so the sum reaches 2*pi only
    # when no sector is reflex and the creases wrap the vertex.
    fan_ids, starts, _, sectors = _fans(p)
    totals = dict(zip(fan_ids, _nonreflex_sums(sectors, starts)))
    tight = sectors <= _ZERO_SECTOR
    zero = {}
    for v, s in zip(np.repeat(fan_ids, np.diff(starts))[tight].tolist(), sectors[tight].tolist()):
        zero.setdefault(v, []).append(s)
    for v in p.interior_vertex_ids:
        if v not in totals:
            degree = len(p._incident_creases[v])
            violations.append(Violation("fan-degree", f"vertex {v}", float(degree)))
            continue
        for s in zero.get(v, ()):
            violations.append(Violation("zero-sector", f"vertex {v}", s))
        if abs(totals[v] - 2 * math.pi) > DEVELOPABILITY_TOL:
            violations.append(Violation("developability", f"vertex {v}", totals[v]))

    return ValidationReport(tuple(violations))


def _fans(p):
    """The fan of every interior vertex with at least 3 creases, in vertex
    order: ``(vertex ids, starts, crease ids, sectors)``.  Fan k's creases,
    anticlockwise, are ``crease ids[starts[k]:starts[k + 1]]`` and the
    sector from each to the next the same slice of ``sectors``.

    The sectors are the differences of the sorted directions closed by a
    full turn, so each fan's telescope to 2*pi; they are the numbers
    ``np.diff`` gives of one fan's directions."""
    fan_ids = [v for v in p.interior_vertex_ids if len(p._incident_creases[v]) >= 3]
    starts = np.cumsum([0] + [len(p._incident_creases[v]) for v in fan_ids])
    in_fan = np.zeros(len(p.vertices), dtype=bool)
    in_fan[fan_ids] = True
    ends = p._crease_ends
    center, other = np.concatenate([ends, ends[:, ::-1]]).T
    crease = np.tile(np.arange(len(ends)), 2)
    keep = in_fan[center]
    order, angle = _rings(p.vertices, center[keep], other[keep], crease[keep])
    following = np.empty_like(angle)
    following[:-1] = angle[1:]
    following[starts[1:] - 1] = angle[starts[:-1]] + 2 * math.pi
    return fan_ids, starts, crease[keep][order], following - angle


def _nonreflex_sums(sectors, starts):
    """``sum(min(s, 2*pi - s))`` over each fan's slice of ``sectors``, one
    numpy row sum per fan degree: the same pairwise summation, bit for bit,
    as summing each fan's own array."""
    nonreflex = np.minimum(sectors, 2 * math.pi - sectors)
    degree = np.diff(starts)
    totals = np.empty(len(degree))
    for d in set(degree.tolist()):
        ks = np.flatnonzero(degree == d)
        totals[ks] = nonreflex[starts[ks, None] + np.arange(d)].sum(axis=1)
    return totals.tolist()


def build_vertex_fans(p):
    """One fan per interior vertex: creases anticlockwise plus sector angles,
    computed from the 2D coordinates.  The fans' sector arrays are views of
    one array."""
    fan_ids, starts, crease_ids, sectors = _fans(p)
    coincident = set(np.repeat(fan_ids, np.diff(starts))[sectors <= _ZERO_SECTOR].tolist())
    for v in p.interior_vertex_ids:
        if len(p._incident_creases[v]) < 3:
            raise PatternError(f"interior vertex {v} has fewer than 3 creases")
        if v in coincident:
            raise PatternError(f"coincident crease directions at vertex {v}")
    crease_ids, bounds = crease_ids.tolist(), starts.tolist()
    return [
        VertexFan(vertex_id=v, crease_ids=tuple(crease_ids[lo:hi]), sector_angles=sectors[lo:hi])
        for v, lo, hi in zip(fan_ids, bounds, bounds[1:])
    ]
