"""3D folded forms from fold angles via spanning-tree facet rotations.

The root facet keeps its pattern coordinates in the z = 0 plane; every other
facet is placed by composing rotations about the creases on its tree path.
Rotation axes run along the shared crease, directed clockwise with respect to
the parent facet, which makes positive (valley) fold angles rotate the child
toward +z for a counterclockwise parent.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import assemble_global, compile_pattern
from .pattern import _by_length, _facet_tree, _index, _one_each
from .sequential import DEFAULT_EPS, _fold_state

EMBED_RESIDUAL_TOL = DEFAULT_EPS  # the solvers' acceptance tolerance

# Vertex and facet poses placed per ``_place`` call.  The stacked
# intermediates take about 170 bytes per pose, so a call stays near 11 MB
# however long the run: the crane's 109 frames go in one call, a Miura 20x20
# run 19 frames at a time.
_POSES_PER_CALL = 1 << 16


@dataclass(frozen=True)
class TreeEdge:
    facet: int
    parent: int
    crease: int
    axis: tuple  # (a, b): rotation axis from vertex a to vertex b, flat coords


@dataclass(frozen=True)
class SpanningTree:
    """A breadth-first facet tree and the constant geometry embedding needs.

    The read-only arrays follow from ``root``, ``edges`` and the pattern, so
    ``==`` ignores them.  Per tree edge: the crease id, the skew matrix K of
    the unit axis, K @ K and the anchor ``flat[a]``.  ``owners`` maps each
    vertex to the first facet holding it in ``[root] + BFS`` order, or one
    past the last facet for a vertex on no facet.  ``levels`` holds, per
    breadth-first depth, the positions of that depth's edges in ``edges``,
    their child facets and their parent facets.
    """

    root: int
    edges: tuple  # TreeEdge in breadth-first order
    creases: np.ndarray = field(compare=False, repr=False)
    skew: np.ndarray = field(compare=False, repr=False)
    skew_sq: np.ndarray = field(compare=False, repr=False)
    anchors: np.ndarray = field(compare=False, repr=False)
    owners: np.ndarray = field(compare=False, repr=False)
    levels: tuple = field(compare=False, repr=False)  # (positions, children, parents)


def build_spanning_tree(p, root=0):
    """Breadth-first spanning tree over facet adjacency, rooted at a facet.

    Each axis runs along the shared crease clockwise around the parent: the
    reverse of the direction in which the parent's cycle runs the crease.
    The edges are grouped by depth, so that a facet's pose is composed after
    its parent's, one level at a time.  ``root`` is a facet id: a whole
    number in range (``2.0`` is facet 2), never a string or a bool.  The
    tree is built once per root and kept on the pattern's compiled form.
    """
    root = _index(root, "root facet")
    if not 0 <= root < len(p.facets):
        raise ValueError(
            f"root facet {root} out of range (pattern has {len(p.facets)} facets)"
        )
    compiled = compile_pattern(p)
    if root in compiled.trees:
        return compiled.trees[root]
    edges, depth, by_level = [], {root: 0}, {}
    for facet, parent, crease, forward in _facet_tree(p, root):
        key = p.creases[crease].key
        depth[facet] = depth[parent] + 1
        by_level.setdefault(depth[facet], []).append(len(edges))
        edges.append(TreeEdge(facet, parent, crease, key[::-1] if forward else key))
    if len(edges) + 1 != len(p.facets):
        raise ValueError("facet adjacency graph is disconnected")

    flat = compiled.flat
    anchors = flat[[e.axis[0] for e in edges]]
    directions = flat[[e.axis[1] for e in edges]] - anchors
    skew = np.array([_skew(d / np.linalg.norm(d)) for d in directions]).reshape(-1, 3, 3)
    levels = tuple(
        (np.array(ks, dtype=np.intp), np.array([edges[k].facet for k in ks], dtype=np.intp),
         np.array([edges[k].parent for k in ks], dtype=np.intp))
        for ks in by_level.values()
    )
    owners = np.full(len(p.vertices), len(p.facets))
    for f in reversed([root] + [e.facet for e in edges]):  # first facet wins
        owners[list(p.facets[f])] = f
    arrays = (np.array([e.crease for e in edges], dtype=np.intp), skew, skew @ skew,
              anchors, owners)
    for a in arrays + sum(levels, ()):
        a.flags.writeable = False
    tree = compiled.trees[root] = SpanningTree(root, tuple(edges), *arrays, levels)
    return tree


def _skew(axis):
    """Cross-product matrix K of a 3-vector: K @ x = axis x x."""
    kx, ky, kz = axis
    return np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])


def embed(p, rho, root=0, residual=None):
    """Isometric 3D embedding of compatible fold states.

    One state (n,) gives its vertex coordinates (V, 3); a stack of states
    (F, n) gives one set per state, (F, V, 3).  ``residual`` is None, one
    number for every state, or one number per state: the normalized closure
    residual the caller measured, as the solvers do for every state they
    accept; a state without one is assembled here.

    Every state is checked before any is placed: a state that is not one
    finite angle per crease, or whose residual is not below
    ``EMBED_RESIDUAL_TOL``, is a ValueError, because the spanning tree
    silently drops the loop constraints and an incompatible state would
    tear the mesh.  The states are then placed ``_POSES_PER_CALL`` poses at
    a time, so memory stays bounded however long the stack.
    """
    tree = build_spanning_tree(p, root)
    rho = np.asarray(rho, dtype=float)
    stack = rho if rho.ndim == 2 else rho[None]
    if np.ndim(residual) == 0:  # None, or one number for every state
        residual = [residual] * len(stack)
    else:
        residual = _one_each(
            residual, "residual has {} entries", len(stack), "stack has {} states"
        )
    for state, r in zip(stack, residual):
        _fold_state(p, state)
        if r is None:
            r = assemble_global(p, state).normalized_residual
        if not r < EMBED_RESIDUAL_TOL:
            raise ValueError(f"fold state incompatible (residual {r:.3e})")
    coords = np.empty((len(stack), len(p.vertices), 3))
    per_call = max(1, _POSES_PER_CALL // (len(p.vertices) + len(p.facets)))
    for lo in range(0, len(stack), per_call):
        coords[lo:lo + per_call] = _place(p, stack[lo:lo + per_call], tree)
    return coords if rho.ndim == 2 else coords[0]


def _place(p, states, tree):
    """Vertex coordinates (F, V, 3) of a stack of checked states (F, n),
    placed down ``tree``.

    Each tree edge's rotation I + sin K + (1 - cos) K^2 is composed onto its
    parent facet's pose, one batched product per tree level over every
    frame, in the same order per edge as a loop over the edges; one stacked
    product then places every vertex by its owning facet's pose.
    """
    n_frames = len(states)
    angles = states[:, tree.creases].ravel().tolist()
    shape = (n_frames, len(tree.edges), 1, 1)
    cos = np.fromiter(map(math.cos, angles), float, len(angles)).reshape(shape)
    sin = np.fromiter(map(math.sin, angles), float, len(angles)).reshape(shape)
    local = np.eye(3) + sin * tree.skew + (1.0 - cos) * tree.skew_sq
    moved = tree.anchors[..., None] - local @ tree.anchors[:, :, None]
    # one pose per facet, and a NaN pose for vertices on no facet
    rotations = np.empty((n_frames, len(p.facets) + 1, 3, 3))
    offsets = np.empty((n_frames, len(p.facets) + 1, 3, 1))
    rotations[:, tree.root], offsets[:, tree.root] = np.eye(3), 0.0
    rotations[:, -1], offsets[:, -1] = np.nan, np.nan
    for positions, children, parents in tree.levels:
        r_parent = rotations[:, parents]
        rotations[:, children] = r_parent @ local[:, positions]
        offsets[:, children] = r_parent @ moved[:, positions] + offsets[:, parents]
    owners = tree.owners
    flat = compile_pattern(p).flat
    return (rotations[:, owners] @ flat[:, :, None] + offsets[:, owners])[..., 0]


def _dots(x, y):
    """Row-wise dot products: ``np.matmul`` calls the same BLAS dot per row
    as ``np.dot`` and ``np.linalg.norm`` of one vector, to the last bit."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def dihedral_angles(p, coords):
    """Fold angle per crease measured from embedded coordinates (V, 3),
    valley positive.

    Each crease reads its left facet (whose cycle runs it from the lower to
    the higher id) and its right facet off the pattern's recorded sides; a
    crease without one facet on each side is a ValueError.  The Newell
    normal of each facet on a crease is summed in cycle order, one batch per
    cycle length; the facet is degenerate when the normal's length, twice
    its area, is at most 1e-12 times the sum of its squared sides, the same
    test at every scale.  Near the fully folded state the sine of the angle
    is numerically ambiguous; the stored assignment then decides the sign,
    and an unassigned crease keeps its sine's sign.
    """
    by_edge = p._edge_facets
    left, right = [], []
    for key in p.crease_index:  # crease order
        sides = by_edge.get(key, ())
        if sorted(forward for _, forward in sides) != [False, True]:
            raise ValueError(f"crease {key} does not have one facet on each side")
        (f, forward), (g, _) = sides
        left.append(f if forward else g)
        right.append(g if forward else f)

    creased = sorted(set(left + right))
    normals = np.empty((len(p.facets), 3))
    for m, ks in _by_length([p.facets[f] for f in creased]).items():
        fs = [creased[k] for k in ks]
        pts = coords[np.array([p.facets[f] for f in fs], dtype=np.intp)]
        n = np.zeros((len(fs), 3))
        for i in range(m):
            n += np.cross(pts[:, i], pts[:, (i + 1) % m])
        size = ((np.roll(pts, -1, axis=1) - pts) ** 2).reshape(len(fs), -1).sum(axis=1)
        norm = np.sqrt(_dots(n, n))
        if np.any(norm <= 1e-12 * size):
            raise ValueError("degenerate facet normal")
        normals[fs] = n / norm[:, None]

    ends = p._crease_ends
    axis = coords[ends[:, 1]] - coords[ends[:, 0]]
    axis = axis / np.sqrt(_dots(axis, axis))[:, None]
    n_left, n_right = normals[left], normals[right]
    cos = np.clip(_dots(n_left, n_right), -1.0, 1.0).tolist()
    sin = _dots(np.cross(n_right, n_left), axis).tolist()
    rho = []
    for s, c, sign in zip(sin, cos, p._fold_signs.tolist()):
        if abs(s) < 1e-9 and c < 0:
            rho.append((sign or math.copysign(1.0, s)) * math.acos(c))
        else:
            rho.append(math.atan2(s, c))
    return np.array(rho)


def measure_dimensions(coords):
    """Axis-aligned bounding box extents (L, W, H) of embedded coordinates (V, 3)."""
    spans = coords.max(axis=0) - coords.min(axis=0)
    return float(spans[0]), float(spans[1]), float(spans[2])
