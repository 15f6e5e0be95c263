"""Builtin crease patterns: Miura sheets, waterbomb bases, and a crane.

Each generator emits vertices and edges; facets and boundary incidence come
from the shared planar face traversal in the pattern module.
"""

import math

import numpy as np

from .pattern import MOUNTAIN, UNASSIGNED, VALLEY, CreasePattern, PatternError
from .sequential import FoldSchedule, Stage


def generate_miura(m, n, a=1.0, b=1.0, alpha=math.pi / 3):
    """Miura sheet of m x n unit cells, each cell four congruent parallelograms.

    The vertex grid has 2m+1 rows and 2n+1 columns; odd rows shift by
    a*cos(alpha), so every facet is a parallelogram with sides a and b and
    acute angle alpha.  Mountain/valley assignment follows the single-DOF
    folding branch: slanted creases alternate by column, straight creases
    checker by row plus column.
    """
    if m < 1 or n < 1:
        raise PatternError("cell counts must be >= 1")
    if not (0 < alpha < math.pi / 2):
        raise PatternError("alpha must lie in (0, pi/2)")
    if a <= 0 or b <= 0:
        raise PatternError("side lengths must be positive")
    rows, cols = 2 * m + 1, 2 * n + 1
    shift = a * math.cos(alpha)
    height = a * math.sin(alpha)

    def vid(r, c):
        return r * cols + c

    r, c = np.divmod(np.arange(rows * cols), cols)
    vertices = np.column_stack((c * b + (r % 2) * shift, r * height))

    creases, boundary = [], []
    for r in range(rows):
        for c in range(cols - 1):
            edge = (vid(r, c), vid(r, c + 1))
            if r == 0 or r == rows - 1:
                boundary.append(edge)
            else:
                kind = VALLEY if (r + c) % 2 == 0 else MOUNTAIN
                creases.append((*edge, kind))
    for r in range(rows - 1):
        for c in range(cols):
            edge = (vid(r, c), vid(r + 1, c))
            if c == 0 or c == cols - 1:
                boundary.append(edge)
            else:
                kind = MOUNTAIN if c % 2 == 0 else VALLEY
                creases.append((*edge, kind))

    p = CreasePattern.from_edges(
        vertices, creases, boundary,
        meta={"kind": "miura", "m": m, "n": n, "a": a, "b": b, "alpha": alpha},
    )
    # suggested single-DOF drive: a slanted crease at an odd-row vertex and
    # the straight crease to its east, which obey the analytic fold relation
    r_star = m if m % 2 == 1 else m - 1
    c_star = n if n % 2 == 0 else n - 1
    if c_star < 1:
        c_star = 1
    p.meta["driven_crease"] = p.crease_index[
        tuple(sorted((vid(r_star, c_star), vid(r_star + 1, c_star))))
    ]
    p.meta["follower_crease"] = p.crease_index[
        tuple(sorted((vid(r_star, c_star), vid(r_star, c_star + 1))))
    ]
    return p


def generate_waterbomb_base(radius=1.0):
    """Eight alternating creases around a single vertex, octagonal boundary."""
    if radius <= 0:
        raise PatternError("radius must be positive")
    vertices = [(0.0, 0.0)]
    for k in range(8):
        ang = k * math.pi / 4
        vertices.append((radius * math.cos(ang), radius * math.sin(ang)))
    creases = [
        (0, k + 1, MOUNTAIN if k % 2 == 0 else VALLEY) for k in range(8)
    ]
    boundary = [(k + 1, (k + 1) % 8 + 1) for k in range(8)]
    p = CreasePattern.from_edges(
        vertices, creases, boundary,
        meta={"kind": "waterbomb-base", "radius": radius, "center": 0},
    )
    p.meta["mountains"] = np.flatnonzero(p._fold_signs < 0).tolist()
    p.meta["valleys"] = np.flatnonzero(p._fold_signs > 0).tolist()
    return p


def generate_waterbomb_tessellation(rows, cols, a=1.0, b=1.0):
    """Brick-staggered tessellation of degree-6 waterbomb bases.

    Each base is a 2a x 2b rectangle with four diagonal creases and a
    horizontal midline; odd rows shift by a.  Interior vertices are tile
    centers (degree 6) and vertices on the lines between tile rows (degree 4).
    """
    if rows < 1 or cols < 1:
        raise PatternError("tile counts must be >= 1")
    if a <= 0 or b <= 0:
        raise PatternError("side lengths must be positive")

    index = {}
    coords = []

    def vid(xi, yi):
        # integer grid in half-tile units: x = xi * a, y = yi * b
        key = (xi, yi)
        if key not in index:
            index[key] = len(coords)
            coords.append((xi * a, yi * b))
        return index[key]

    creases, boundary = [], []

    def off(i):
        return i % 2  # stagger in units of a

    for i in range(rows):
        for j in range(cols):
            cx, cy = off(i) + 2 * j + 1, 2 * i + 1
            center = vid(cx, cy)
            for dx, dy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
                creases.append((center, vid(cx + dx, cy + dy), MOUNTAIN))
        # midline of the row, subdivided at tile centers only
        xs = [off(i)] + [off(i) + 2 * j + 1 for j in range(cols)] + [off(i) + 2 * cols]
        for x0, x1 in zip(xs, xs[1:]):
            creases.append((vid(x0, 2 * i + 1), vid(x1, 2 * i + 1), VALLEY))

    # lines between tile rows, subdivided at both rows' corners
    for i in range(1, rows):
        lo, hi = off(i - 1), off(i)
        xs = sorted(
            {lo + 2 * j for j in range(cols + 1)} | {hi + 2 * j for j in range(cols + 1)}
        )
        for x0, x1 in zip(xs, xs[1:]):
            below = lo <= x0 and x1 <= lo + 2 * cols
            above = hi <= x0 and x1 <= hi + 2 * cols
            edge = (vid(x0, 2 * i), vid(x1, 2 * i))
            if below and above:
                creases.append((*edge, VALLEY))
            else:
                boundary.append(edge)

    # outer outline: top/bottom tile sides and the stepped verticals
    for j in range(cols):
        x = off(0) + 2 * j
        boundary.append((vid(x, 0), vid(x + 2, 0)))
        x = off(rows - 1) + 2 * j
        boundary.append((vid(x, 2 * rows), vid(x + 2, 2 * rows)))
    for i in range(rows):
        for x in (off(i), off(i) + 2 * cols):
            boundary.append((vid(x, 2 * i), vid(x, 2 * i + 1)))
            boundary.append((vid(x, 2 * i + 1), vid(x, 2 * i + 2)))

    return CreasePattern.from_edges(
        coords, creases, boundary,
        meta={"kind": "waterbomb-tessellation", "rows": rows, "cols": cols,
              "a": a, "b": b},
    )


# -- crane ----------------------------------------------------------------------

# Reconstructed rigid-foldable crane on the unit square, mirror symmetric
# about the A-C diagonal.  The center vertex has degree 8; the four points at
# quarter positions on the diagonals are degree 4.  Coordinates are exact.
_CRANE_POINTS = {
    "A": (0.0, 0.0), "B": (1.0, 0.0), "C": (1.0, 1.0), "D": (0.0, 1.0),
    "O": (0.5, 0.5),
    "M1": (0.5, 0.0), "M2": (1.0, 0.5), "M3": (0.5, 1.0), "M4": (0.0, 0.5),
    "GA": (0.25, 0.25), "GC": (0.75, 0.75),
    "GB": (0.75, 0.25), "GD": (0.25, 0.75),
}

_CRANE_CREASES = [
    ("A", "GA", UNASSIGNED), ("GA", "O", UNASSIGNED),
    ("O", "GC", UNASSIGNED), ("GC", "C", UNASSIGNED),
    ("B", "GB", MOUNTAIN), ("GB", "O", VALLEY),
    ("O", "GD", VALLEY), ("GD", "D", MOUNTAIN),
    ("O", "M1", MOUNTAIN), ("O", "M2", VALLEY),
    ("O", "M3", UNASSIGNED), ("O", "M4", UNASSIGNED),
    ("GA", "M1", UNASSIGNED), ("GA", "M4", UNASSIGNED),
    ("GC", "M2", UNASSIGNED), ("GC", "M3", UNASSIGNED),
    ("GB", "M1", MOUNTAIN), ("GB", "M2", VALLEY),
    ("GD", "M3", VALLEY), ("GD", "M4", MOUNTAIN),
]

_CRANE_BOUNDARY = [
    ("A", "M1"), ("M1", "B"), ("B", "M2"), ("M2", "C"),
    ("C", "M3"), ("M3", "D"), ("D", "M4"), ("M4", "A"),
]


def generate_crane():
    """Crane pattern reconstructed on the unit square (see meta flag)."""
    names = sorted(_CRANE_POINTS)
    ids = {name: i for i, name in enumerate(names)}
    vertices = [_CRANE_POINTS[name] for name in names]
    creases = [(ids[u], ids[v], kind) for u, v, kind in _CRANE_CREASES]
    boundary = [(ids[u], ids[v]) for u, v in _CRANE_BOUNDARY]
    p = CreasePattern.from_edges(
        vertices, creases, boundary,
        meta={"kind": "crane", "reconstructed": True,
              "names": {name: ids[name] for name in names}},
    )
    return p


def crane_schedule(p, steps_per_stage=36):
    """Three-stage folding sequence shipped with the crane pattern.

    Stage 1 folds the B-D diagonal flat (all controlled angles rise together
    to pi).  Stage 2 folds the doubled sheet along the coincident half
    midlines.  Stage 3 swings both corner flaps through simultaneous reverse
    folds, driving four creases while everything already folded is held.
    """
    ids = p.meta["names"]

    def cid(u, v):
        return p.crease_index[tuple(sorted((ids[u], ids[v])))]

    diag = [cid("B", "GB"), cid("GB", "O"), cid("O", "GD"), cid("GD", "D")]
    stage1 = Stage(
        targets={c: math.pi for c in diag},
        steps=steps_per_stage,
    )
    stage2 = Stage(
        targets={cid("O", "M2"): math.pi, cid("O", "M1"): -math.pi},
        steps=steps_per_stage,
        hold=tuple(diag),
    )
    stage3 = Stage(
        targets={
            cid("GB", "M2"): math.pi, cid("GB", "M1"): -math.pi,
            cid("GD", "M3"): math.pi, cid("GD", "M4"): -math.pi,
        },
        steps=steps_per_stage,
        hold=tuple(diag) + (cid("O", "M2"), cid("O", "M1")),
    )
    return FoldSchedule((stage1, stage2, stage3))
