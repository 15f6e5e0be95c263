"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's kinematics, solver, and embedding
code paths: the folded Miura sheet is built from elementary vector geometry
with a bisection closure solve, the waterbomb well comes from a 1-D
brute-force scan of the closed-form branch, the controlled step comes
from a full SVD of the bordered multiplier system, the spring step from
the explicit full-row-rank inverse or a full SVD of its bordered KKT system,
and the embedding from a per-facet loop down the spanning tree.
"""

import math

import numpy as np


def _rot(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    kx, ky, kz = axis
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _miura_cell_closure_gap(alpha, rho1, h):
    """Wrap-around defect of the four facets at the driven vertex.

    Crease order anticlockwise (E, up, W, down) with sector angles
    (pi - alpha, alpha, alpha, pi - alpha); slants fold by rho1, E by h, W
    by -h.  Marching crease direction u and facet normal n around the vertex
    must return to the start.
    """
    sectors = (math.pi - alpha, alpha, alpha, math.pi - alpha)
    folds = (rho1, -h, rho1, h)  # crossing up, W, down, then E again
    u = np.array([1.0, 0.0, 0.0])
    n = np.array([0.0, 0.0, 1.0])
    for theta, rho in zip(sectors, folds):
        u = _rot(n, theta) @ u
        n = _rot(u, rho) @ n
    return np.linalg.norm(u - [1.0, 0.0, 0.0]) + np.linalg.norm(n - [0.0, 0.0, 1.0])


def _solve_h(alpha, rho1, h_lo, h_hi):
    """Bisection on the signed closure defect between two brackets."""

    def signed(h):
        # orient the gap: use the y component of the marched E direction
        sectors = (math.pi - alpha, alpha, alpha, math.pi - alpha)
        folds = (rho1, -h, rho1, h)
        u = np.array([1.0, 0.0, 0.0])
        n = np.array([0.0, 0.0, 1.0])
        for theta, rho in zip(sectors, folds):
            u = _rot(n, theta) @ u
            n = _rot(u, rho) @ n
        return u[1]

    f_lo, f_hi = signed(h_lo), signed(h_hi)
    if f_lo == 0.0:
        return h_lo
    if f_hi == 0.0:
        return h_hi
    if f_lo * f_hi > 0:
        raise ValueError("closure root not bracketed")
    for _ in range(80):
        mid = 0.5 * (h_lo + h_hi)
        f_mid = signed(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            h_hi, f_hi = mid, f_mid
        else:
            h_lo, f_lo = mid, f_mid
    return 0.5 * (h_lo + h_hi)


def _continued_h(alpha, rho1, solved):
    """Straight-crease angle h on the branch through flat, by continuation.

    ``solved`` maps alpha to the points rho1 -> h solved so far on that
    alpha's branch, seeded with flat, h(0) = 0; the result is added to it.
    The continuation starts from the solved point nearest to rho1 between
    flat and rho1 and walks to rho1 in steps of at most 0.3 rad, each one a
    bisection bracketed around the previous h.  From flat it takes at least
    four steps with brackets symmetric about h = 0.
    """
    known = solved.setdefault(alpha, {0.0: 0.0})
    if rho1 in known:
        return known[rho1]
    r0 = max((r for r in known if 0.0 <= r / rho1 < 1.0), key=abs)
    prev = known[r0]
    span = abs(rho1 - r0)
    steps = max(4, int(span / 0.3) + 1) if r0 == 0.0 else int(span / 0.3) + 1
    for k in range(1, steps + 1):
        r = r0 + (rho1 - r0) * k / steps
        h = None
        for width in (0.1, 0.2, 0.4, 0.8, 1.6, 3.2):
            if r0 == 0.0 and k == 1:
                lo, hi = -width, width
            else:
                lo = max(prev - width, -math.pi + 1e-12)
                hi = min(prev + width, math.pi - 1e-12)
            try:
                h = _solve_h(alpha, r, lo, hi)
                break
            except ValueError:
                continue
        if h is None:
            raise ValueError(f"closure continuation lost the branch at {r}")
        prev = h
    known[rho1] = h
    return h


def miura_cell_vectors(alpha, rho1, a, b, solved=None):
    """Folded 3D crease vectors (E, up, W, down) at the driven vertex.

    The straight-crease fold angle h is solved by continuation bisection so
    the four rigid sector facets wrap around the vertex exactly.  The fully
    folded endpoint is evaluated just inside +-pi, where the in-plane
    dimensions are still smooth.  A caller evaluating many neighbouring
    angles passes one ``solved`` dict to all calls, so each continuation
    starts from the nearest angle already solved instead of from flat.
    """
    if abs(rho1) < 1e-14:
        h = 0.0
    elif abs(rho1) >= math.pi - 1e-9:
        # fully folded: every crease at +-pi, closure holds exactly
        rho1 = math.copysign(math.pi, rho1)
        h = math.copysign(math.pi, rho1)
    else:
        h = _continued_h(alpha, rho1, {} if solved is None else solved)
    sectors = (math.pi - alpha, alpha, alpha, math.pi - alpha)
    folds = (rho1, -h, rho1, h)
    u = np.array([1.0, 0.0, 0.0])
    n = np.array([0.0, 0.0, 1.0])
    dirs = [u.copy()]
    for theta, rho in zip(sectors[:3], folds[:3]):
        u = _rot(n, theta) @ u
        n = _rot(u, rho) @ n
        dirs.append(u.copy())
    e_dir, up_dir, w_dir, down_dir = dirs
    return b * e_dir, a * up_dir, b * w_dir, a * down_dir, h


def miura_folded_sheet(m, n, a, b, alpha, rho1, solved=None):
    """All folded vertex coordinates of the m x n cell sheet, rho1 driven.

    rho1 is the fold angle of the slanted creases in the driven column (the
    mountain family for rho1 < 0).  The sheet is assembled from one cell by
    periodicity and then rigidly aligned so the first facet (pattern corner)
    sits in the z = 0 plane on its flat coordinates.
    """
    rows, cols = 2 * m + 1, 2 * n + 1
    r_star = m if m % 2 == 1 else m - 1
    c_star = n if n % 2 == 0 else n - 1
    if c_star < 1:
        c_star = 1
    e_vec, up_vec, w_vec, down_vec, h = miura_cell_vectors(alpha, rho1, a, b, solved)

    # 3x3 cell block centered on the driven vertex
    cell = {}
    cell[(1, 1)] = np.zeros(3)
    cell[(1, 2)] = e_vec
    cell[(2, 1)] = up_vec
    cell[(1, 0)] = w_vec
    cell[(0, 1)] = down_vec
    for r in (0, 2):
        for c in (0, 2):
            cell[(r, c)] = cell[(r, 1)] + cell[(1, c)]
    t_row = cell[(2, 1)] - cell[(0, 1)]
    t_col = cell[(1, 2)] - cell[(1, 0)]

    coords = np.zeros((rows * cols, 3))
    for r in range(rows):
        for c in range(cols):
            dr, dc = r - r_star, c - c_star
            pr, pc = dr % 2, dc % 2
            kr, kc = (dr - pr) // 2, (dc - pc) // 2
            coords[r * cols + c] = cell[(1 + pr, 1 + pc)] + kr * t_row + kc * t_col

    # align the corner facet onto its flat pattern pose
    flat = np.zeros((rows * cols, 3))
    shift = a * math.cos(alpha)
    height = a * math.sin(alpha)
    for r in range(rows):
        for c in range(cols):
            flat[r * cols + c] = (c * b + (r % 2) * shift, r * height, 0.0)
    anchor = [0, 1, cols]  # corner facet vertices (0,0), (0,1), (1,0)
    src = coords[anchor]
    dst = flat[anchor]
    src_c, dst_c = src - src.mean(axis=0), dst - dst.mean(axis=0)
    u, _, vt = np.linalg.svd(src_c.T @ dst_c)
    d = np.sign(np.linalg.det(u @ vt))
    rot = (u @ np.diag([1.0, 1.0, d]) @ vt).T
    coords = (coords - src.mean(axis=0)) @ rot.T + dst.mean(axis=0)
    return coords


def miura_dims(m, n, a, b, alpha, rho1):
    """Bounding-box (L, W, H) of the folded sheet, same frame as the engine."""
    coords = miura_folded_sheet(m, n, a, b, alpha, rho1)
    spans = coords.max(axis=0) - coords.min(axis=0)
    return float(spans[0]), float(spans[1]), float(spans[2])


def period_frame_dims(coords, m, n):
    """Bounding box (L, W, H) in the folded sheet's period-aligned frame.

    L spans the straight-crease direction, W the cross-row direction, H the
    out-of-plane rise; this is the frame in which the in-plane dimensions of
    a folding sheet vary smoothly and monotonically.
    """
    coords = np.asarray(coords, dtype=float)
    cols = 2 * n + 1
    t_col = coords[2] - coords[0]          # (0, 0) -> (0, 2)
    t_row = coords[2 * cols] - coords[0]   # (0, 0) -> (2, 0)
    e1 = t_col / np.linalg.norm(t_col)
    e2 = t_row - np.dot(t_row, e1) * e1
    if np.linalg.norm(e2) < 1e-3:
        # fully folded: rows coincide, take e2 in the sheet plane
        centered = coords - coords.mean(axis=0)
        _, _, vt = np.linalg.svd(centered)
        e3 = vt[-1]
        e2 = np.cross(e3, e1)
    else:
        e2 = e2 / np.linalg.norm(e2)
        e3 = np.cross(e1, e2)
    local = (coords - coords[0]) @ np.stack([e1, e2, e3]).T
    spans = local.max(axis=0) - local.min(axis=0)
    return float(spans[0]), float(spans[1]), float(spans[2])


def miura_period_dims(m, n, a, b, alpha, rho1, solved=None):
    coords = miura_folded_sheet(m, n, a, b, alpha, rho1, solved)
    return period_frame_dims(coords, m, n)


def miura_poisson(m, n, a, b, alpha, rho1, fd=1e-6, solved=None):
    """In-plane Poisson ratio -(dL/L)/(dW/W) at rho1, tiny central difference.

    Evaluated in the period-aligned frame, where L and W are smooth.
    """
    l_hi, w_hi, _ = miura_period_dims(m, n, a, b, alpha, rho1 + fd, solved)
    l_lo, w_lo, _ = miura_period_dims(m, n, a, b, alpha, rho1 - fd, solved)
    l_mid, w_mid, _ = miura_period_dims(m, n, a, b, alpha, rho1, solved)
    dl = (l_hi - l_lo) / (2 * fd)
    dw = (w_hi - w_lo) / (2 * fd)
    return -(dl / l_mid) / (dw / w_mid)


def waterbomb_branch_well(cfg_rest_m, cfg_rest_v, k_m=1.0, k_v=1.0, samples=200001):
    """Brute-force 1-D minimization of spring energy along the theta < pi/2 branch.

    Returns (theta*, rho_m*, rho_v*, energy*) for four mountain and four
    valley springs with the given rest angles.
    """
    from rigidfold.elastic import waterbomb_symmetric_oracle

    best = (math.inf, None)
    for theta in np.linspace(0.0, math.pi / 2 - 1e-9, samples):
        rm, rv = waterbomb_symmetric_oracle(theta)
        u = 2.0 * (k_m * (rm - cfg_rest_m) ** 2 + k_v * (rv - cfg_rest_v) ** 2)
        if u < best[0]:
            best = (u, theta)
    theta = best[1]
    rm, rv = waterbomb_symmetric_oracle(theta)
    return theta, rm, rv, best[0]


def bordered_solve(gc, controlled, f, cutoff=1e-12):
    """Controlled increment from the bordered multiplier system.

    Solves, minimum-norm through a full SVD,

        [ C^T C   A ] [ drho   ]   [ -C^T r ]
        [ A^T     0 ] [ lambda ] = [  f     ]

    with A the selection columns of the controlled creases; singular values
    at or below ``cutoff * sigma_max * (n + m)`` count as zero.  Returns
    ``(drho, rank)`` where rank is that of the bordered matrix less 2m,
    which is the rank of the free columns C_F when the cutoff separates.
    """
    c, r = np.asarray(gc.C, dtype=float), np.asarray(gc.r, dtype=float)
    n, m = c.shape[1], len(controlled)
    k = np.zeros((n + m, n + m))
    k[:n, :n] = c.T @ c
    rhs = np.zeros(n + m)
    rhs[:n] = -c.T @ r
    for j, cid in enumerate(controlled):
        k[cid, n + j] = k[n + j, cid] = 1.0
        rhs[n + j] = f[j]
    u, s, vt = np.linalg.svd(k)
    keep = s > cutoff * s[0] * (n + m)
    x = vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])
    return x[:n], int(np.count_nonzero(keep)) - 2 * m


def explicit_inverse_step(c, r, stiffness, d):
    """Spring step from the explicit full-row-rank inverse.

        drho = -(H^-1 - G C H^-1) d - G r,   G = H^-1 C^T (C H^-1 C^T)^-1

    with H the diagonal stiffness; C must have full row rank.
    """
    hinv = 1.0 / np.asarray(stiffness, dtype=float)
    chinv = c * hinv  # C @ H^-1
    g = chinv.T @ np.linalg.inv(chinv @ c.T)
    return -(hinv * d - g @ (chinv @ d)) - g @ r


def bordered_step(c, r, stiffness, d, cutoff=1e-12):
    """Spring step from the bordered KKT system, minimum-norm by a full SVD.

        [ H    C^T ] [ drho   ]     [ d ]
        [ C    0   ] [ lambda ] = - [ r ]

    Singular values at or below ``cutoff * sigma_max * (n + m)`` count as
    zero.
    """
    m, n = c.shape
    k = np.zeros((n + m, n + m))
    k[:n, :n] = np.diag(stiffness)
    k[:n, n:] = c.T
    k[n:, :n] = c
    rhs = -np.concatenate([d, r])
    u, s, vt = np.linalg.svd(k)
    keep = s > cutoff * s[0] * (n + m)
    x = vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])
    return x[:n]


def tree_embedding(p, rho, edges, root):
    """Vertex coordinates placed facet by facet down a spanning tree.

    One rotation per tree edge about its own normalized axis, poses kept per
    facet, and each vertex placed by the first facet of ``[root] + edges``
    that holds it: the same arithmetic, step for step, as the engine's
    stacked embedding, so the two agree bit for bit.
    """
    flat = np.hstack([p.vertices, np.zeros((len(p.vertices), 1))])
    rotations, offsets = {root: np.eye(3)}, {root: np.zeros(3)}
    for e in edges:
        a, b = e.axis
        local = _rot(flat[b] - flat[a], rho[e.crease])
        r, t = rotations[e.parent], offsets[e.parent]
        rotations[e.facet] = r @ local
        offsets[e.facet] = r @ (flat[a] - local @ flat[a]) + t
    coords = np.full((len(p.vertices), 3), np.nan)
    for f in [root] + [e.facet for e in edges]:
        for v in p.facets[f]:
            if np.isnan(coords[v, 0]):
                coords[v] = rotations[f] @ flat[v] + offsets[f]
    return coords
