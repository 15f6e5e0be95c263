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
from .pattern import MOUNTAIN, VALLEY
from .sequential import DEFAULT_EPS

# SHA-256 from the interpreter's builtin module when it has one: hashlib
# loads OpenSSL, which adds about 3.6 MB to the resident size of the process.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

EMBED_RESIDUAL_TOL = DEFAULT_EPS  # the solvers' acceptance tolerance


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
    past the last facet for a vertex on no facet.
    """

    root: int
    edges: tuple  # TreeEdge in breadth-first order
    creases: np.ndarray = field(compare=False, repr=False)
    skew: np.ndarray = field(compare=False, repr=False)
    skew_sq: np.ndarray = field(compare=False, repr=False)
    anchors: np.ndarray = field(compare=False, repr=False)
    owners: np.ndarray = field(compare=False, repr=False)

    @property
    def n_facets(self):
        return len(self.edges) + 1


@dataclass(frozen=True)
class Embedding3D:
    coords: np.ndarray  # (n_vertices, 3)
    root: int
    provenance: dict = field(default_factory=dict)


def build_spanning_tree(p, root=0):
    """Breadth-first spanning tree over facet adjacency, rooted at a facet."""
    if not 0 <= root < len(p.facets):
        raise ValueError(f"root facet {root} out of range")
    adjacency = {}
    for fi, fj, crease in p.facet_adjacency():
        adjacency.setdefault(fi, []).append((fj, crease))
        adjacency.setdefault(fj, []).append((fi, crease))
    for neighbors in adjacency.values():
        neighbors.sort()
    edges = []
    seen = {root}
    queue = [root]
    while queue:
        parent = queue.pop(0)
        for child, crease in adjacency.get(parent, ()):
            if child in seen:
                continue
            seen.add(child)
            queue.append(child)
            edges.append(
                TreeEdge(
                    facet=child,
                    parent=parent,
                    crease=crease,
                    axis=_clockwise_axis(p, parent, crease),
                )
            )
    if len(seen) != len(p.facets):
        raise ValueError("facet adjacency graph is disconnected")

    flat = compile_pattern(p).flat
    anchors = flat[[e.axis[0] for e in edges]]
    directions = flat[[e.axis[1] for e in edges]] - anchors
    skew = np.array([_skew(d / np.linalg.norm(d)) for d in directions]).reshape(-1, 3, 3)
    owners = np.full(len(p.vertices), len(p.facets))
    for f in reversed([root] + [e.facet for e in edges]):  # first facet wins
        owners[list(p.facets[f])] = f
    arrays = (np.array([e.crease for e in edges], dtype=np.intp), skew, skew @ skew,
              anchors, owners)
    for a in arrays:
        a.flags.writeable = False
    return SpanningTree(root, tuple(edges), *arrays)


def _clockwise_axis(p, parent, crease):
    """Axis (a, b) of a crease, clockwise around the parent facet.

    The parent's counterclockwise cycle traverses the shared edge in one
    direction; the rotation axis is the reverse of that direction.
    """
    u, v = p.creases[crease].key
    cycle = p.facets[parent]
    n = len(cycle)
    for i in range(n):
        if cycle[i] == u and cycle[(i + 1) % n] == v:
            return (v, u)
        if cycle[i] == v and cycle[(i + 1) % n] == u:
            return (u, v)
    raise ValueError(f"crease {crease} not on facet {parent}")


def _skew(axis):
    """Cross-product matrix K of a 3-vector: K @ x = axis x x."""
    kx, ky, kz = axis
    return np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])


def rodrigues(angle, axis):
    """Proper rotation by ``angle`` about the unit 3-vector ``axis``."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"rotation axis is not unit length (|e| = {norm})")
    c, s = math.cos(angle), math.sin(angle)
    k = _skew(axis)
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def embed(p, rho, root=0, residual=None):
    """Isometric 3D embedding of a compatible fold state.

    Rejects incompatible and non-finite states: the spanning tree silently
    drops the loop constraints, so embedding an incompatible state would tear
    the mesh.  ``residual`` is the state's normalized closure residual when
    the caller has measured it, as the solvers do for every state they
    accept; without it the state is assembled here.

    The flat coordinates and each root's spanning tree, with its constant
    geometry, are built once and kept on the pattern's compiled form.  Per
    state, each tree edge's rotation I + sin K + (1 - cos) K^2 is composed
    onto its parent facet's pose, and one stacked product places every
    vertex by its owning facet's pose.
    """
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        raise ValueError("fold state has non-finite angles")
    if residual is None:
        residual = assemble_global(p, rho).normalized_residual
    if not residual < EMBED_RESIDUAL_TOL:
        raise ValueError(f"fold state incompatible (residual {residual:.3e})")
    compiled = compile_pattern(p)
    tree = compiled.trees.get(root)
    if tree is None:
        tree = compiled.trees[root] = build_spanning_tree(p, root)
    angles = rho[tree.creases].tolist()
    cos = np.array([math.cos(x) for x in angles])[:, None, None]
    sin = np.array([math.sin(x) for x in angles])[:, None, None]
    local = np.eye(3) + sin * tree.skew + (1.0 - cos) * tree.skew_sq
    moved = tree.anchors - (local @ tree.anchors[:, :, None])[:, :, 0]
    # one pose per facet, and a NaN pose for vertices on no facet
    rotations = np.empty((len(p.facets) + 1, 3, 3))
    offsets = np.empty((len(p.facets) + 1, 3))
    rotations[root], offsets[root] = np.eye(3), 0.0
    rotations[-1], offsets[-1] = np.nan, np.nan
    for i, edge in enumerate(tree.edges):
        r_parent = rotations[edge.parent]
        rotations[edge.facet] = r_parent @ local[i]
        offsets[edge.facet] = r_parent @ moved[i] + offsets[edge.parent]
    owners = tree.owners
    coords = (rotations[owners] @ compiled.flat[:, :, None])[:, :, 0] + offsets[owners]
    return Embedding3D(
        coords=coords,
        root=root,
        provenance={
            "root": root,
            "state_hash": sha256(rho.tobytes()).hexdigest(),
        },
    )


def _facet_normal(coords, cycle):
    """Newell normal of a (near planar) facet, unit length."""
    n = np.zeros(3)
    m = len(cycle)
    for i in range(m):
        u = coords[cycle[i]]
        v = coords[cycle[(i + 1) % m]]
        n += np.cross(u, v)
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        raise ValueError("degenerate facet normal")
    return n / norm


def dihedral_angles(p, e):
    """Fold angle per crease measured from an embedding, valley positive.

    Near the fully folded state the sine of the angle is numerically
    ambiguous; the stored assignment then decides the sign.
    """
    coords = e.coords
    left = {}
    right = {}
    for f, cycle in enumerate(p.facets):
        n = len(cycle)
        for i in range(n):
            u, v = cycle[i], cycle[(i + 1) % n]
            key = tuple(sorted((u, v)))
            if key in p.crease_index:
                if (u, v) == key:
                    left[key] = f
                else:
                    right[key] = f
    rho = np.zeros(p.n_creases)
    for key, idx in p.crease_index.items():
        a, b = key
        axis = coords[b] - coords[a]
        axis = axis / np.linalg.norm(axis)
        n_left = _facet_normal(coords, p.facets[left[key]])
        n_right = _facet_normal(coords, p.facets[right[key]])
        cos_rho = float(np.clip(np.dot(n_left, n_right), -1.0, 1.0))
        sin_rho = float(np.dot(np.cross(n_right, n_left), axis))
        if abs(sin_rho) < 1e-9 and cos_rho < 0:
            kind = p.creases[idx].assignment
            sign = 1.0 if kind == VALLEY else -1.0 if kind == MOUNTAIN else math.copysign(1.0, sin_rho)
            rho[idx] = sign * math.acos(cos_rho)
        else:
            rho[idx] = math.atan2(sin_rho, cos_rho)
    return rho


def measure_dimensions(e):
    """Axis-aligned bounding box extents (L, W, H) of the embedded form."""
    spans = e.coords.max(axis=0) - e.coords.min(axis=0)
    return float(spans[0]), float(spans[1]), float(spans[2])


def poisson_ratio(history):
    """Discrete in-plane Poisson ratio series from (L, W) samples.

    Each consecutive pair yields -((L2-L1)/L1) / ((W2-W1)/W1); a vanishing
    width change produces a gap marker (None) instead of a number.
    """
    if len(history) < 2:
        raise ValueError("need at least two (L, W) samples")
    out = []
    for (l1, w1), (l2, w2) in zip(history, history[1:]):
        dw = (w2 - w1) / w1
        if dw == 0.0:
            out.append(None)
        else:
            out.append(-((l2 - l1) / l1) / dw)
    return out


def waterbomb_theta(p, e):
    """Apex angle of a symmetric eight-crease base measured from an embedding.

    Returns the angle theta parametrizing the symmetric folding branches.
    Under this engine's orientation convention that is the polar angle of
    the valley-class crease directions about the symmetry axis; the mirror
    ambiguity of the axis is resolved by matching measured dihedrals against
    the closed-form branch values.
    """
    from .elastic import waterbomb_symmetric_oracle

    center = p.meta.get("center")
    mountains = p.meta.get("mountains")
    valleys = p.meta.get("valleys")
    if center is None or mountains is None:
        raise ValueError("pattern does not identify a waterbomb base apex")
    o = e.coords[center]

    def directions(ids):
        out = []
        for i in ids:
            c = p.creases[i]
            other = c.b if c.a == center else c.a
            d = e.coords[other] - o
            out.append(d / np.linalg.norm(d))
        return np.array(out)

    v_tips = directions(valleys)
    # symmetry axis: normal of the better-spread crease-direction ring (one
    # ring collapses to a point at the compactly folded states)
    axis, spread = None, -1.0
    for ring in (v_tips, directions(mountains)):
        sv = np.linalg.svd(ring - ring.mean(axis=0), compute_uv=False)
        if sv[1] > spread:
            spread = sv[1]
            _, _, vt = np.linalg.svd(ring - ring.mean(axis=0))
            axis = vt[-1]
    x = math.acos(float(np.clip(np.dot(axis, v_tips[0]), -1.0, 1.0)))
    measured = dihedral_angles(p, e)
    rho_m = float(np.mean(measured[mountains]))
    rho_v = float(np.mean(measured[valleys]))
    best, best_err = None, math.inf
    for theta in (x, math.pi - x):
        if theta < -1e-9 or theta > 3 * math.pi / 4 + 1e-9:
            continue
        theta = min(max(theta, 0.0), 3 * math.pi / 4)
        om, ov = waterbomb_symmetric_oracle(theta)
        err = abs(om - rho_m) + abs(ov - rho_v)
        if err < best_err:
            best, best_err = theta, err
    return best
