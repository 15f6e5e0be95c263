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

import numpy as np

MOUNTAIN = "M"
VALLEY = "V"
UNASSIGNED = "U"

_ASSIGNMENTS = (MOUNTAIN, VALLEY, UNASSIGNED)

# tolerance for the non-reflex sector sum around an interior vertex
DEVELOPABILITY_TOL = 1e-9

# a sector at or below this many radians means two coincident crease directions
_ZERO_SECTOR = 1e-12


class PatternError(ValueError):
    """Structurally invalid pattern document or construction input."""


@dataclass(frozen=True)
class Crease:
    a: int
    b: int
    assignment: str = UNASSIGNED

    def __post_init__(self):
        if self.a == self.b:
            raise PatternError(f"degenerate crease ({self.a}, {self.b})")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)
        if self.assignment not in _ASSIGNMENTS:
            raise PatternError(f"unknown assignment {self.assignment!r}")

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

    The constructor owns the structural checks: finite 2D points, and vertex
    ids that are integers in range; ``validate_pattern`` reports the rest.
    """

    def __init__(self, vertices, creases, boundary, facets, meta=None):
        self.vertices = _points(vertices)
        n = len(self.vertices)
        self.creases = self._canonical_creases(creases, n)
        edges = (_indices(e, n, "boundary edge") for e in boundary)
        self.boundary = sorted((min(a, b), max(a, b)) for a, b in edges)
        self.facets = self._canonical_facets(facets)
        self.meta = dict(meta or {})
        self._index_edges()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _canonical_creases(creases, n):
        out = []
        for c in creases:
            if isinstance(c, Crease):
                c = (c.a, c.b, c.assignment)
            a, b = _indices(c[:2], n, "crease")
            out.append(Crease(a, b, c[2] if len(c) > 2 else UNASSIGNED))
        out.sort(key=lambda c: c.key)
        for prev, cur in zip(out, out[1:]):
            if prev.key == cur.key:
                raise PatternError(f"duplicate crease {cur.key}")
        return out

    def _canonical_facets(self, facets):
        out = []
        for cycle in facets:
            cycle = _indices(cycle, len(self.vertices), "facet")
            if len(cycle) < 3:
                raise PatternError(f"facet with fewer than 3 vertices: {cycle}")
            if self._signed_area(cycle) < 0:
                cycle = cycle[::-1]
            k = cycle.index(min(cycle))
            out.append(tuple(cycle[k:] + cycle[:k]))
        out.sort()
        return out

    def _signed_area(self, cycle):
        return _shoelace(self.vertices[list(cycle)])

    def _index_edges(self):
        self.crease_index = {c.key: i for i, c in enumerate(self.creases)}
        boundary_vertices = {v for e in self.boundary for v in e}
        incident = {}
        for i, c in enumerate(self.creases):
            incident.setdefault(c.a, []).append(i)
            incident.setdefault(c.b, []).append(i)
        self._incident_creases = incident
        self.interior_vertex_ids = sorted(
            v for v in incident if v not in boundary_vertices
        )

    @classmethod
    def from_edges(cls, vertices, creases, boundary, meta=None):
        """Build a pattern from edges alone; facets come from face traversal."""
        p = cls(vertices, creases, boundary, [], meta=meta)
        edges = [c.key for c in p.creases] + p.boundary
        p.facets = p._canonical_facets(trace_facets(p.vertices, edges))
        return p

    # -- basic queries ---------------------------------------------------------

    @property
    def n_creases(self):
        return len(self.creases)

    @property
    def n_interior_vertices(self):
        return len(self.interior_vertex_ids)

    def crease_vector(self, i):
        c = self.creases[i]
        return self.vertices[c.b] - self.vertices[c.a]

    def crease_lengths(self):
        return np.array([np.linalg.norm(self.crease_vector(i)) for i in range(self.n_creases)])

    def facet_edges(self, facet):
        cycle = self.facets[facet] if isinstance(facet, int) else facet
        return [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]

    def facet_adjacency(self):
        """List of (facet_i, facet_j, crease_id) pairs sharing a crease."""
        by_edge = {}
        for f, cycle in enumerate(self.facets):
            for u, v in self.facet_edges(cycle):
                by_edge.setdefault(tuple(sorted((u, v))), []).append(f)
        out = []
        for key, faces in by_edge.items():
            if key in self.crease_index and len(faces) == 2:
                out.append((faces[0], faces[1], self.crease_index[key]))
        return out

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
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "creases": [[c.a, c.b, c.assignment] for c in self.creases],
            "boundary": [[a, b] for a, b in self.boundary],
            "facets": [list(f) for f in self.facets],
            "meta": self.meta,
        }


# -- structure checks --------------------------------------------------------------


def _points(vertices):
    """The vertex list as an (n, 2) float array of finite 2D points, n > 0."""
    if len(vertices) == 0:
        raise PatternError("empty vertex list")
    for v in vertices:
        if len(v) != 2:
            raise PatternError(f"vertex is not a 2D point: {v}")
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or not np.all(np.isfinite(pts)):
        raise PatternError("vertex coordinates must be finite numbers")
    return pts


def _indices(entry, n, what):
    """The vertex ids of one crease, boundary edge or facet, never truncated:
    a non-number is a TypeError, a fraction or an id outside ``range(n)`` a
    PatternError."""
    out = []
    for v in entry:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise TypeError(f"vertex id {v!r} in {what} {entry} is not a number")
        if not float(v).is_integer():
            raise PatternError(f"non-integral index {v!r} in {what} {entry}")
        if not 0 <= v < n:
            raise PatternError(f"dangling index {v!r} in {what} {entry}")
        out.append(int(v))
    return out


def _shoelace(pts):
    """Signed area of the closed polygon ``pts``, positive anticlockwise."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# -- planar face traversal -----------------------------------------------------


def trace_facets(vertices, edges):
    """Trace interior faces of a planar straight-line graph, counterclockwise.

    Standard rotation-system walk: the successor of directed edge (u, v) is
    the edge out of v that is the next one clockwise from (v, u).  The single
    clockwise outer walk is discarded.
    """
    vertices = np.asarray(vertices, dtype=float)
    neighbors = {}
    for a, b in edges:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    order = {}
    for v, nbrs in neighbors.items():
        nbrs = sorted(nbrs)
        angles = [
            math.atan2(*(vertices[w] - vertices[v])[::-1]) for w in nbrs
        ]
        by_angle = sorted(zip(angles, nbrs))
        order[v] = [w for _, w in by_angle]

    def successor(u, v):
        ring = order[v]
        k = ring.index(u)
        return v, ring[k - 1]

    visited = set()
    faces = []
    for a, b in edges:
        for u, v in ((a, b), (b, a)):
            if (u, v) in visited:
                continue
            cycle = []
            e = (u, v)
            while e not in visited:
                visited.add(e)
                cycle.append(e[0])
                e = successor(*e)
            if _shoelace(vertices[cycle]) > 0:
                faces.append(cycle)
    return faces


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


def _polygon_simple(pts):
    """True when the closed polygon has no improper self-intersection."""
    m = len(pts)

    def seg(i):
        return pts[i], pts[(i + 1) % m]

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if abs(v) < 1e-14:
            return 0
        return 1 if v > 0 else -1

    for i in range(m):
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            p1, p2 = seg(i)
            q1, q2 = seg(j)
            if (
                orient(p1, p2, q1) != orient(p1, p2, q2)
                and orient(q1, q2, p1) != orient(q1, q2, p2)
            ):
                return False
    return True


def validate_pattern(p):
    """Check every CreasePattern invariant; violations are data, not errors."""
    violations = []

    # facet cycles must be simple polygons
    for f, cycle in enumerate(p.facets):
        if len(set(cycle)) != len(cycle) or not _polygon_simple(
            p.vertices[list(cycle)]
        ):
            violations.append(Violation("facet-not-simple", f"facet {f}"))

    # edge / facet incidence
    count = {}
    for f, cycle in enumerate(p.facets):
        for u, v in p.facet_edges(cycle):
            count[tuple(sorted((u, v)))] = count.get(tuple(sorted((u, v))), 0) + 1
    for c in p.creases:
        got = count.pop(c.key, 0)
        if got != 2:
            violations.append(
                Violation("crease-incidence", f"crease {c.key}", float(got))
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
        adj = {}
        for fi, fj, _ in p.facet_adjacency():
            adj.setdefault(fi, set()).add(fj)
            adj.setdefault(fj, set()).add(fi)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(p.facets):
            violations.append(
                Violation("disconnected", f"{len(p.facets) - len(seen)} facets unreachable")
            )
    else:
        violations.append(Violation("no-facets", "pattern has no facets"))

    # no interior holes: V - E + F = 1 with the outer region uncounted
    used = {v for c in p.creases for v in c.key}
    used |= {v for e in p.boundary for v in e}
    used |= {v for cycle in p.facets for v in cycle}
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
    for v in p.interior_vertex_ids:
        degree = len(p._incident_creases[v])
        if degree < 3:
            violations.append(Violation("fan-degree", f"vertex {v}", float(degree)))
            continue
        _, sectors = _fan(p, v)
        for s in sectors[sectors <= _ZERO_SECTOR]:
            violations.append(Violation("zero-sector", f"vertex {v}", float(s)))
        total = float(np.minimum(sectors, 2 * math.pi - sectors).sum())
        if abs(total - 2 * math.pi) > DEVELOPABILITY_TOL:
            violations.append(Violation("developability", f"vertex {v}", total))

    return ValidationReport(tuple(violations))


def _fan(p, v):
    """Crease ids around vertex ``v`` anticlockwise, and the sector from each
    to the next: ``np.diff`` of the sorted ``atan2`` directions closed by a
    full turn, so the sectors telescope to 2*pi."""
    entries = []
    for i in p._incident_creases[v]:
        c = p.creases[i]
        d = p.vertices[c.b if c.a == v else c.a] - p.vertices[v]
        entries.append((math.atan2(d[1], d[0]), i))
    entries.sort()
    angles = [a for a, _ in entries]
    sectors = np.diff(np.asarray(angles + [angles[0] + 2 * math.pi]))
    return tuple(i for _, i in entries), sectors


def build_vertex_fans(p):
    """One fan per interior vertex: creases anticlockwise plus sector angles,
    computed from the 2D coordinates."""
    fans = []
    for v in p.interior_vertex_ids:
        if len(p._incident_creases[v]) < 3:
            raise PatternError(f"interior vertex {v} has fewer than 3 creases")
        crease_ids, sectors = _fan(p, v)
        if np.any(sectors <= _ZERO_SECTOR):
            raise PatternError(f"coincident crease directions at vertex {v}")
        fans.append(VertexFan(vertex_id=v, crease_ids=crease_ids, sector_angles=sectors))
    return fans
