"""3D folded forms from fold angles via spanning-tree facet rotations.

The root facet keeps its pattern coordinates in the z = 0 plane; every other
facet is placed by composing rotations about the creases on its tree path.
Rotation axes run along the shared crease, directed clockwise with respect to
the parent facet, which makes positive (valley) fold angles rotate the child
toward +z for a counterclockwise parent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import assemble_global, compile_pattern
from .pattern import _facet_tree, _index, _one_each
from .sequential import DEFAULT_EPS, _fold_state

EMBED_RESIDUAL_TOL = DEFAULT_EPS  # the solvers' acceptance tolerance

# Vertex and facet poses placed per ``_place`` call.  The stacked
# intermediates take about 170 bytes per pose, so a call stays near 11 MB
# however long the run: the crane's 109 frames go in one call, a Miura 20x20
# run 19 frames at a time.
_POSES_PER_CALL = 1 << 16


@dataclass(frozen=True, eq=False, repr=False)
class SpanningTree:
    """A breadth-first facet tree and the constant geometry embedding needs.

    One read-only array entry per tree edge, in breadth-first order: the
    child facet, its parent facet, the crease between them, the axis ends
    (a, b) that run along it, the skew matrix K of the unit axis, K @ K and
    the anchor ``flat[a]``.  Each depth's edges are contiguous and start at
    their entry of ``depth_starts``.  ``owners`` maps each vertex to the
    first facet holding it in ``[root] + children`` order, or one past the
    last facet for a vertex on no facet.
    """

    root: int
    children: np.ndarray
    parents: np.ndarray
    creases: np.ndarray
    axes: np.ndarray  # (E, 2): rotation axis from vertex a to vertex b, flat coords
    skew: np.ndarray
    skew_sq: np.ndarray
    anchors: np.ndarray
    owners: np.ndarray
    depth_starts: tuple


def build_spanning_tree(p, root=0):
    """Breadth-first spanning tree over facet adjacency, rooted at a facet.

    Each axis runs along the shared crease clockwise around the parent: the
    reverse of the direction in which the parent's cycle runs the crease.
    The walk is breadth-first, so each depth's edges are contiguous and a
    facet's pose is composed after its parent's, one depth at a time.
    ``root`` is a facet id: a whole number in range (``2.0`` is facet 2),
    never a string or a bool.  The tree is built once per root and kept on
    the pattern's compiled form.
    """
    root = _index(root, "root facet")
    if not 0 <= root < len(p.facets):
        raise ValueError(
            f"root facet {root} out of range (pattern has {len(p.facets)} facets)"
        )
    compiled = compile_pattern(p)
    if root in compiled.trees:
        return compiled.trees[root]
    edges, depth, depth_starts = [], {root: 0}, []
    for facet, parent, crease, forward in _facet_tree(p, root):
        depth[facet] = depth[parent] + 1
        if depth[facet] > len(depth_starts):  # the first edge of a new depth
            depth_starts.append(len(edges))
        key = p.creases[crease].key
        edges.append((facet, parent, crease, *(key[::-1] if forward else key)))
    if len(edges) + 1 != len(p.facets):
        raise ValueError("facet adjacency graph is disconnected")

    children, parents, creases, a, b = np.array(edges, dtype=np.intp).reshape(-1, 5).T.copy()
    flat = compiled.flat
    anchors = flat[a]
    directions = flat[b] - anchors
    skew = np.array([_skew(d / np.linalg.norm(d)) for d in directions]).reshape(-1, 3, 3)
    owners = np.full(len(p.vertices), len(p.facets))
    for f in reversed([root] + children.tolist()):  # first facet wins
        owners[list(p.facets[f])] = f
    arrays = (children, parents, creases, np.stack([a, b], axis=1), skew, skew @ skew,
              anchors, owners)
    for x in arrays:
        x.flags.writeable = False
    tree = compiled.trees[root] = SpanningTree(root, *arrays, tuple(depth_starts))
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
    parent facet's pose, one batched product per tree depth over every
    frame, in the same order per edge as a loop over the edges; one stacked
    product then places every vertex by its owning facet's pose.
    """
    n_frames, n_edges = len(states), len(tree.creases)
    angles = states[:, tree.creases].ravel().tolist()
    shape = (n_frames, n_edges, 1, 1)
    cos = np.fromiter(map(math.cos, angles), float, len(angles)).reshape(shape)
    sin = np.fromiter(map(math.sin, angles), float, len(angles)).reshape(shape)
    local = np.eye(3) + sin * tree.skew + (1.0 - cos) * tree.skew_sq
    moved = tree.anchors[..., None] - local @ tree.anchors[:, :, None]
    # one pose per facet, and a NaN pose for vertices on no facet
    rotations = np.empty((n_frames, len(p.facets) + 1, 3, 3))
    offsets = np.empty((n_frames, len(p.facets) + 1, 3, 1))
    rotations[:, tree.root], offsets[:, tree.root] = np.eye(3), 0.0
    rotations[:, -1], offsets[:, -1] = np.nan, np.nan
    starts = tree.depth_starts
    for lo, hi in zip(starts, starts[1:] + (n_edges,)):
        children, parents = tree.children[lo:hi], tree.parents[lo:hi]
        r_parent = rotations[:, parents]
        rotations[:, children] = r_parent @ local[:, lo:hi]
        offsets[:, children] = r_parent @ moved[:, lo:hi] + offsets[:, parents]
    owners = tree.owners
    flat = compile_pattern(p).flat
    return (rotations[:, owners] @ flat[:, :, None] + offsets[:, owners])[..., 0]


def measure_dimensions(coords):
    """Axis-aligned bounding box extents (L, W, H) of embedded coordinates (V, 3)."""
    spans = coords.max(axis=0) - coords.min(axis=0)
    return float(spans[0]), float(spans[1]), float(spans[2])
