"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's kinematics, solver, and embedding
code paths: the folded Miura sheet is built from elementary vector geometry
with a bisection closure solve, the waterbomb well comes from a 1-D
brute-force scan of the closed-form branch, the controlled step comes
from a full SVD of the bordered multiplier system or, at full column rank,
from one dense LU solve of its normal equations, whose banded Gram blocks
are formed from the values of the dense matrix, the spring step from
the explicit full-row-rank inverse or a full SVD of its bordered KKT system,
the degrees of freedom from a full SVD of the constraint matrix,
the embedding from a per-facet loop down the spanning tree (and the
engine's stacked arrays composed one tree edge at a time), the dihedral
angles from one facet normal and one crease at a time, and the OBJ and CSV
text from one f-string per number.  The
Newton loop that solves afresh at every iterate is the exception: it runs
the package's assembly and free-column solve, so that it differs from the
engine's loop only in never reusing a factorization.  So is the schedule
loop that starts every step from the tangent predictor: it runs the
package's controlled step, so that it differs from ``run_schedule`` only in
never starting from an extrapolation.  The flat-state seed's start is set
one crease at a time from its assignment.  The pattern layer's reference is
its per-face and per-vertex numpy code: face tracing, facet orientation,
validation, vertex fans and crease lengths computed one facet, vertex or
crease at a time.  The closure constraint's reference is the per-vertex
chain of 3 x 3 rotations and its prefix and suffix products, one vertex at
a time.

Five references that only the tests run live here rather than in the
package: the symmetric waterbomb's closed-form branch
(``waterbomb_symmetric_oracle``), the Miura sheet's discrete Poisson-ratio
series (``poisson_ratio``), and three steps that run the package's
assembly and free-column solve: ``controlled_step`` with its
``FoldDirective`` (one Newton loop of ``sequential._newton``), Tachi's
nullspace-projection step (``tachi_projection_step``) and the
uniform-stiffness projection step (``projection_step_uniform``).  Three
helpers are entry points rather than references: ``row_blocks`` builds the
solve's ``RowBlocks`` from a dense array, one block per row,
``_band_inertia`` runs the package's band sweep as an inertia count, and
``parse_obj`` reads exported OBJ text back for round-trip checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from rigidfold import ConvergenceError, assemble_global, build_spanning_tree, free_column_solve
from rigidfold.kinematics import check_fold_range
from rigidfold.numerics import RowBlocks, _band_inf_norm, _band_sweep
from rigidfold.pattern import (
    _ZERO_SECTOR,
    DEVELOPABILITY_TOL,
    MOUNTAIN,
    VALLEY,
    PatternError,
    ValidationReport,
    VertexFan,
    Violation,
    _index,
    _is_number,
    _one_each,
)
from rigidfold import sequential
from rigidfold.sequential import _fold_state, _newton


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


def waterbomb_symmetric_oracle(theta):
    """Mountain and valley fold angles of the symmetric eight-crease base.

    Closed-form folding branches parametrized by the apex angle theta,
    valid for 0 <= theta <= 3*pi/4: theta = pi/2 is flat, the ends are the
    two compactly folded states.
    """
    if theta < -1e-12 or theta > 3 * math.pi / 4 + 1e-12:
        raise ValueError(f"theta {theta} outside [0, 3*pi/4]")
    s2 = math.sqrt(2.0)
    if theta < math.pi / 2:
        rho_m = 2 * theta - math.pi
        arg = s2 * math.cos(theta) / (-2.0 - s2 * math.sin(theta))
        rho_v = 2 * math.acos(max(-1.0, min(1.0, arg))) - math.pi
    else:
        rho_m = math.pi - 2 * theta
        arg = s2 * math.cos(theta) / (2.0 - s2 * math.sin(theta))
        rho_v = 2 * math.acos(max(-1.0, min(1.0, arg))) - math.pi
    return rho_m, rho_v


def waterbomb_branch_well(cfg_rest_m, cfg_rest_v, k_m=1.0, k_v=1.0, samples=200001):
    """Brute-force 1-D minimization of spring energy along the theta < pi/2 branch.

    Returns (theta*, rho_m*, rho_v*, energy*) for four mountain and four
    valley springs with the given rest angles.
    """
    best = (math.inf, None)
    for theta in np.linspace(0.0, math.pi / 2 - 1e-9, samples):
        rm, rv = waterbomb_symmetric_oracle(theta)
        u = 2.0 * (k_m * (rm - cfg_rest_m) ** 2 + k_v * (rv - cfg_rest_v) ** 2)
        if u < best[0]:
            best = (u, theta)
    theta = best[1]
    rm, rv = waterbomb_symmetric_oracle(theta)
    return theta, rm, rv, best[0]


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _drot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])


def crease_transform(theta_prev, rho):
    """Local frame change across one crease: Rz(theta_prev) @ Rx(rho)."""
    return rot_z(theta_prev) @ rot_x(rho)


def _chain(fan, rho_fan):
    """The n factor matrices of the closure product, in order.

    Factor k couples sector k with the fold angle of crease k+1 (cyclic), so
    the product over k of Rz(theta_k) @ Rx(rho_{k+1}) must be the identity.
    """
    n = fan.degree
    rho_fan = np.asarray(rho_fan, dtype=float)
    if rho_fan.shape != (n,):
        raise ValueError(f"expected {n} fold angles, got {rho_fan.shape}")
    return [
        crease_transform(fan.sector_angles[k], rho_fan[(k + 1) % n])
        for k in range(n)
    ]


def loop_closure(fan, rho_fan):
    """Composed rotation around the vertex; identity iff the state is valid."""
    f = np.eye(3)
    for m in _chain(fan, rho_fan):
        f = f @ m
    return f


def vertex_residual(fan, rho_fan):
    """Independent entries (3,2), (1,3), (2,1) of the closure matrix."""
    f = loop_closure(fan, rho_fan)
    return np.array([f[2, 1], f[0, 2], f[1, 0]])


def vertex_closure_derivatives(fan, rho_fan):
    """Analytic derivative matrices dF/drho_i, one 3x3 matrix per crease.

    Uses cached prefix/suffix products of the chain so the n derivatives cost
    O(n) matrix multiplies in total.
    """
    n = fan.degree
    rho_fan = np.asarray(rho_fan, dtype=float)
    chain = _chain(fan, rho_fan)
    prefix = [np.eye(3)]
    for m in chain:
        prefix.append(prefix[-1] @ m)
    suffix = [np.eye(3)] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = chain[k] @ suffix[k + 1]
    out = []
    for i in range(n):
        k = (i - 1) % n  # factor holding rho_i
        dfactor = rot_z(fan.sector_angles[k]) @ _drot_x(rho_fan[i])
        out.append(prefix[k] @ dfactor @ suffix[k + 1])
    return out


def vertex_jacobian(fan, rho_fan):
    """Rows a_j, b_j, c_j of the analytic closure derivative, one column per crease."""
    derivs = vertex_closure_derivatives(fan, rho_fan)
    jac = np.zeros((3, len(derivs)))
    for i, df in enumerate(derivs):
        jac[:, i] = (df[2, 1], df[0, 2], df[1, 0])
    return jac


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


def assignment_seed(p, magnitude):
    """The start state of ``flat_state_seed``, set one crease at a time:
    valleys at +magnitude, mountains at -magnitude, unassigned creases at
    +0.0."""
    rho = np.zeros(p.n_creases)
    for i, c in enumerate(p.creases):
        if c.assignment == VALLEY:
            rho[i] = magnitude
        elif c.assignment == MOUNTAIN:
            rho[i] = -magnitude
    return rho


def refactoring_newton(p, rho, controlled, eps, max_iter=50):
    """Residual elimination with f = 0 that solves at every iterate's own
    state, never on an earlier factorization: plain Newton on the free
    creases.  Returns the state, its assembly and the iteration count."""
    iters = 0
    gc = assemble_global(p, rho)
    while not gc.normalized_residual < eps:
        if not math.isfinite(gc.normalized_residual) or iters >= max_iter:
            raise ConvergenceError(f"residual {gc.normalized_residual:.3e} after {iters}")
        rho = rho + free_column_solve(gc.blocks, gc.r, controlled, np.zeros(len(controlled)))
        gc = assemble_global(p, rho)
        iters += 1
    return rho, gc, iters


def refactoring_stage(p, rho, stage, eps, max_iter=50):
    """States of one schedule stage with its ``steps`` given: controlled
    angles moved linearly to their targets, holds fixed, each predictor and
    every Newton iterate solved at its own state."""
    ids = sorted(stage.targets)
    start = rho[ids].copy()
    targets = np.array([stage.targets[i] for i in ids])
    controlled = tuple(ids) + tuple(stage.hold)
    states = [rho]
    for k in range(1, stage.steps + 1):
        waypoint = start + (targets - start) * (k / stage.steps)
        f = np.concatenate([waypoint - rho[ids], np.zeros(len(stage.hold))])
        gc = assemble_global(p, rho)
        rho = rho + free_column_solve(gc.blocks, gc.r, controlled, f)
        rho, _, _ = refactoring_newton(p, rho, controlled, eps, max_iter)
        states.append(rho)
    return states


def tangent_schedule(p, rho, schedule, eps, max_iter=50):
    """States of a schedule whose stages all give ``steps``, each step
    started from the tangent predictor and handing the factorization its
    Newton loop kept to the next step of its stage: the step loop of
    ``run_schedule`` with no extrapolated start."""
    states = [rho]
    gc = assemble_global(p, rho)
    for stage in schedule.stages:
        ids = sorted(stage.targets)
        start = rho[ids].copy()
        targets = np.array([stage.targets[i] for i in ids])
        controlled = tuple(ids) + tuple(stage.hold)
        kept = None
        for k in range(1, stage.steps + 1):
            waypoint = start + (targets - start) * (k / stage.steps)
            f = np.concatenate([waypoint - rho[ids], np.zeros(len(stage.hold))])
            rho, gc, _, kept = _newton(p, rho, controlled, eps, max_iter, f, gc, kept)
            states.append(rho)
    return states


def normal_solve(c, r, fixed, f):
    """Controlled increment from one dense LU solve of the normal equations.

        C_F^T C_F dx_F = -C_F^T (r + C_A f),   dx_A = f

    with A the fixed columns and F the rest; no rank decision, so C_F must
    have full column rank.
    """
    c, r, f = (np.asarray(a, dtype=float) for a in (c, r, f))
    fixed = np.asarray(fixed, dtype=int).reshape(-1)
    free = np.ones(c.shape[1], dtype=bool)
    free[fixed] = False
    dx = np.zeros(c.shape[1])
    dx[fixed] = f
    c_free = c[:, free]
    b = -(r + c[:, fixed] @ f)
    dx[free] = np.linalg.solve(c_free.T @ c_free, c_free.T @ b)
    return dx


def normal_rounding_bound(c, fixed, x):
    """Forward-error bound for two backward-stable solves of the same normal
    equations: ``10 k eps cond(C_F^T C_F) max|x|`` over the k free columns."""
    free = np.setdiff1d(np.arange(c.shape[1]), fixed)
    w = np.linalg.eigvalsh(c[:, free].T @ c[:, free])
    return 10 * free.size * np.finfo(float).eps * w[-1] / w[0] * np.abs(x).max()


def kept_solve(c, r, fixed, f, cutoff=1e-12):
    """Minimum-norm increment from the SVD of C_F, with ``dx_A = f``.

    Solves ``C_F dx_F = -(r + C_A f)`` in least squares on the kept singular
    directions: those whose squared singular value is above ``cutoff *
    sigma_max^2 * n``, n the column count of C, which is the eigenvalue rule
    ``free_column_solve`` applies to ``N = C_F^T C_F``.
    """
    c, r, f = (np.asarray(a, dtype=float) for a in (c, r, f))
    fixed = np.asarray(fixed, dtype=int).reshape(-1)
    free = np.ones(c.shape[1], dtype=bool)
    free[fixed] = False
    dx = np.zeros(c.shape[1])
    dx[fixed] = f
    u, s, vt = np.linalg.svd(c[:, free], full_matrices=False)
    keep = s**2 > cutoff * s[0] ** 2 * c.shape[1]
    b = -(r + c[:, fixed] @ f)
    dx[free] = vt[keep].T @ ((u[:, keep].T @ b) / s[keep])
    return dx


def kept_rounding_bound(c, fixed, x, cutoff=1e-12):
    """``normal_rounding_bound`` on the kept directions of ``kept_solve``:
    ``10 k eps lambda_max / lambda_kept x_max`` over the k free columns, with
    lambda_kept the smallest kept eigenvalue of ``C_F^T C_F``."""
    free = np.setdiff1d(np.arange(c.shape[1]), fixed)
    s = np.linalg.svd(c[:, free], compute_uv=False)
    kept = s[s**2 > cutoff * s[0] ** 2 * c.shape[1]]
    return 10 * free.size * np.finfo(float).eps * (kept[0] / kept[-1]) ** 2 * np.abs(x).max()


def svd_dof(c, cutoff=1e-12):
    """Degrees of freedom of a dense C from its full SVD: ``n - #{sigma :
    sigma^2 > cutoff sigma_max^2 n}``, n the column count of C, which is
    the eigenvalue rule ``free_column_solve`` applies with every column
    free."""
    c = np.asarray(c, dtype=float)
    n = c.shape[1]
    s = np.linalg.svd(c, compute_uv=False)
    if not s.size:
        return n
    return n - int(np.count_nonzero(s**2 > cutoff * s[0] ** 2 * n))


def row_blocks(m):
    """``RowBlocks`` of a dense 2-D array: each row of ``m`` one block on its
    nonzero columns, grouped by their count."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"constraint matrix must be 2-D, got shape {m.shape}")
    nz = m != 0
    counts = nz.sum(axis=1)
    groups = []
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)[:, None]
        cols = np.nonzero(nz[rows[:, 0]])[1].reshape(-1, k)
        groups.append((rows, cols, m[rows, cols][:, None, :]))
    return RowBlocks(m.shape, groups)


def gram_blocks(c_free):
    """Diagonal and super-diagonal blocks of ``N = C_F^T C_F`` from the dense
    C_F, in blocks of its band read from the values.

    The band w is the widest span, from first to last nonzero column, of a
    row of C_F; all-zero rows have none.  Block k of N comes from one
    product of the columns of blocks k and k + 1 over the rows that touch
    block k.  With one block, the one diagonal block is the dense N.
    """
    cols = c_free.shape[1]
    nz = c_free != 0
    live = np.flatnonzero(nz.any(axis=1))
    first = nz[live].argmax(axis=1)
    last = cols - 1 - nz[live, ::-1].argmax(axis=1)
    width = int(np.max(last - first)) + 1 if live.size else cols
    if width >= cols:
        return [c_free.T @ c_free], []
    first //= width
    last //= width
    diag, upper = [], []
    for k, lo in enumerate(range(0, cols, width)):
        rows = live[(first <= k) & (last >= k)]
        slab = c_free[rows, lo:lo + 2 * width]
        gram = slab[:, :width].T @ slab
        diag.append(gram[:, :width])
        if lo + width < cols:
            upper.append(gram[:, width:])
    return diag, upper


def _band_inertia(band, shift):
    """``(count, beta)`` of a ``_band_sweep`` of all K w columns, or None.
    It keeps ``N + 2 ||N||_inf I``, positive definite by Gershgorin's
    theorem, so that only the count can fail."""
    swept = _band_sweep(band, band.shape[0] * band.shape[1], shift, 2.0 * _band_inf_norm(band))
    return None if swept is None else swept[:2]


@dataclass(frozen=True)
class FoldDirective:
    """Controlled crease ids with one prescribed increment per crease;
    increments are finite real numbers, each checked on its own, never
    converted from strings or bools."""

    controlled: tuple
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "controlled", tuple(
            _index(i, "controlled creases") for i in self.controlled
        ))
        if len(set(self.controlled)) != len(self.controlled):
            raise ValueError("controlled crease ids must be distinct")
        f = np.asarray(self.f, dtype=object).reshape(-1)
        if f.shape != (len(self.controlled),):
            raise ValueError("one increment per controlled crease required")
        for i, x in zip(self.controlled, f):
            if not _is_number(x):
                raise TypeError(f"increment {x!r} of crease {i} is not a number")
            if not math.isfinite(x):
                raise ValueError(f"increment {x!r} of crease {i} is not finite")
        object.__setattr__(self, "f", f.astype(float))


def controlled_step(p, rho, directive):
    """One folding step driven by controlled creases, to ``DEFAULT_EPS`` in
    at most ``MAX_ITER`` Newton iterations, both read from ``sequential`` at
    the call; returns the next state.

    A start state that is not one finite angle per crease raises
    ``ValueError`` before any solve.
    """
    rho, _, _, _ = _newton(
        p, _fold_state(p, rho), directive.controlled, sequential.DEFAULT_EPS,
        sequential.MAX_ITER, directive.f,
    )
    check_fold_range(rho)
    return rho


def tachi_projection_step(p, rho, drho0):
    """Baseline single-shot Euler step: nullspace projection plus error term.

    Projects the intended increment into the nullspace of C and compensates
    the current residual in one shot; no iteration, so increments of specific
    creases are not exactly controlled.  A ``rho`` that is not one finite
    angle per crease raises ``ValueError`` before any solve.
    """
    rho = _fold_state(p, rho)
    drho0 = _one_each(drho0, "increment has {} entries", p.n_creases)
    gc = assemble_global(p, rho)
    return rho + drho0 + free_column_solve(gc.blocks, gc.blocks @ drho0 + gc.r, (), [])


def projection_step_uniform(p, k0, d, rho, gc=None):
    """Projected steepest-descent increment for uniform stiffness k0.

    d is the energy gradient at rho; the increment is the gradient projected
    into the nullspace of the constraint matrix plus the error compensation.
    ``gc`` is the assembly at ``rho`` when the caller already has it; without
    it, a ``rho`` that is not one finite angle per crease raises
    ``ValueError``.
    """
    d = _one_each(d, "gradient has {} entries", p.n_creases)
    if gc is None:
        gc = assemble_global(p, _fold_state(p, rho))
    return -d / k0 - free_column_solve(gc.blocks, gc.blocks @ d / k0 - gc.r, (), [])


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


def edge_loop_embedding(p, rho, root):
    """Vertex coordinates from the spanning tree's stacked arrays, composed
    one tree edge at a time in breadth-first order: each edge's rotation
    ``R_parent @ local`` and offset ``R_parent @ moved + offset_parent``,
    the order the engine's per-level products keep."""
    tree = build_spanning_tree(p, root)
    flat = np.hstack([p.vertices, np.zeros((len(p.vertices), 1))])
    angles = np.asarray(rho, dtype=float)[tree.creases].tolist()
    cos = np.array([math.cos(x) for x in angles])[:, None, None]
    sin = np.array([math.sin(x) for x in angles])[:, None, None]
    local = np.eye(3) + sin * tree.skew + (1.0 - cos) * tree.skew_sq
    moved = tree.anchors - (local @ tree.anchors[:, :, None])[:, :, 0]
    rotations = np.empty((len(p.facets) + 1, 3, 3))
    offsets = np.empty((len(p.facets) + 1, 3))
    rotations[root], offsets[root] = np.eye(3), 0.0
    rotations[-1], offsets[-1] = np.nan, np.nan
    for i, edge in enumerate(tree.edges):
        r_parent = rotations[edge.parent]
        rotations[edge.facet] = r_parent @ local[i]
        offsets[edge.facet] = r_parent @ moved[i] + offsets[edge.parent]
    owners = tree.owners
    return (rotations[owners] @ flat[:, :, None])[:, :, 0] + offsets[owners]


def _facet_normal(coords, cycle):
    """Newell normal of a (near planar) facet, unit length.  The facet is
    degenerate when the normal's length, twice its area, is at most 1e-12
    times the sum of its squared sides: the same test at every scale."""
    n = np.zeros(3)
    m = len(cycle)
    for i in range(m):
        u = coords[cycle[i]]
        v = coords[cycle[(i + 1) % m]]
        n += np.cross(u, v)
    pts = coords[list(cycle)]
    size = float(np.sum((np.roll(pts, -1, axis=0) - pts) ** 2))
    norm = np.linalg.norm(n)
    if norm <= 1e-12 * size:
        raise ValueError("degenerate facet normal")
    return n / norm


def dihedral_angles(p, coords):
    """Fold angle per crease measured from embedded coordinates, valley
    positive.

    Near the fully folded state the sine of the angle is numerically
    ambiguous; the stored assignment then decides the sign.
    """
    by_edge = p._edge_facets
    creased = {f for key in p.crease_index for f, _ in by_edge[key]}
    normals = {f: _facet_normal(coords, p.facets[f]) for f in creased}
    rho = np.zeros(p.n_creases)
    for key, idx in p.crease_index.items():
        a, b = key
        axis = coords[b] - coords[a]
        axis = axis / np.linalg.norm(axis)
        # the side whose cycle runs a -> b lies left of the crease
        side = {forward: normals[f] for f, forward in by_edge[key]}
        n_left, n_right = side[True], side[False]
        cos_rho = float(np.clip(np.dot(n_left, n_right), -1.0, 1.0))
        sin_rho = float(np.dot(np.cross(n_right, n_left), axis))
        if abs(sin_rho) < 1e-9 and cos_rho < 0:
            kind = p.creases[idx].assignment
            sign = 1.0 if kind == VALLEY else -1.0 if kind == MOUNTAIN else math.copysign(1.0, sin_rho)
            rho[idx] = sign * math.acos(cos_rho)
        else:
            rho[idx] = math.atan2(sin_rho, cos_rho)
    return rho


def parse_obj(text):
    """Vertices and triangles back from OBJ text (for round-trip checks)."""
    vertices, faces = [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append([float(t) for t in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(t.split("/")[0]) - 1 for t in parts[1:]])
    return np.array(vertices), faces


def fstring_obj(coords, facets):
    """OBJ text with one f-string per vertex and per triangle."""
    lines = []
    for x, y, z in coords:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for cycle in facets:
        for k in range(1, len(cycle) - 1):
            lines.append(f"f {cycle[0] + 1} {cycle[k] + 1} {cycle[k + 1] + 1}")
    return "\n".join(lines) + "\n"


def fstring_angle_csv(states, degrees):
    """``angles.csv`` text, one f-string per number."""
    n = len(states[0])
    text = "step," + ",".join(f"rho_{i}" for i in range(n)) + "\n"
    for k, s in enumerate(states):
        row = [math.degrees(v) for v in s] if degrees else list(s)
        text += str(k) + "," + ",".join(f"{v:.17g}" for v in row) + "\n"
    return text


def fstring_residual_row(k, r, iters):
    """One ``residuals.csv`` row."""
    return f"{k},{r:.17g},{iters}\n"


def fstring_energy_row(k, u, angle):
    """One ``energy.csv`` row."""
    return f"{k},{u:.17g},{angle:.17g}\n"


# -- pattern layer, one facet, vertex or crease at a time ------------------------


def miura_grid(m, n, a=1.0, b=1.0, alpha=math.pi / 3):
    """The Miura vertex grid of ``generate_miura``, one vertex at a time."""
    rows, cols = 2 * m + 1, 2 * n + 1
    shift = a * math.cos(alpha)
    height = a * math.sin(alpha)
    vertices = np.zeros((rows * cols, 2))
    for r in range(rows):
        for c in range(cols):
            vertices[r * cols + c] = (c * b + (r % 2) * shift, r * height)
    return vertices


def shoelace(pts):
    """Signed area of the closed polygon ``pts``, positive anticlockwise."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def trace_facets(vertices, edges):
    """Interior faces of a planar straight-line graph, counterclockwise, by
    the rotation-system walk with one numpy difference per neighbour."""
    vertices = np.asarray(vertices, dtype=float)
    neighbors = {}
    for a, b in edges:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    order = {}
    for v, nbrs in neighbors.items():
        nbrs = sorted(nbrs)
        angles = [math.atan2(*(vertices[w] - vertices[v])[::-1]) for w in nbrs]
        order[v] = [w for _, w in sorted(zip(angles, nbrs))]

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
                ring = order[e[1]]
                e = (e[1], ring[ring.index(e[0]) - 1])
            if shoelace(vertices[cycle]) > 0:
                faces.append(cycle)
    return faces


def canonical_facets(vertices, facets):
    """Facet cycles turned anticlockwise, each started at its smallest id,
    sorted."""
    out = []
    for cycle in facets:
        cycle = [int(v) for v in cycle]
        if shoelace(vertices[cycle]) < 0:
            cycle = cycle[::-1]
        k = cycle.index(min(cycle))
        out.append(tuple(cycle[k:] + cycle[:k]))
    return sorted(out)


def crease_lengths(p):
    """One ``np.linalg.norm`` per crease."""
    return np.array([np.linalg.norm(p.vertices[c.b] - p.vertices[c.a]) for c in p.creases])


def polygon_simple(pts):
    """True when the closed polygon has no improper self-intersection; an
    orientation below 1e-14 times the two segments' lengths is collinear."""
    m = len(pts)

    def seg(i):
        return pts[i], pts[(i + 1) % m]

    def orient(p, q, r, scale):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if abs(v) <= 1e-14 * scale:
            return 0
        return 1 if v > 0 else -1

    for i in range(m):
        for j in range(i + 1, m):
            if (j + 1) % m == i or (i + 1) % m == j:
                continue
            p1, p2 = seg(i)
            q1, q2 = seg(j)
            scale = math.hypot(*(p2 - p1)) * math.hypot(*(q2 - q1))
            if (
                orient(p1, p2, q1, scale) != orient(p1, p2, q2, scale)
                and orient(q1, q2, p1, scale) != orient(q1, q2, p2, scale)
            ):
                return False
    return True


def fan(p, v):
    """Crease ids around vertex ``v`` anticlockwise, and ``np.diff`` of their
    sorted ``atan2`` directions closed by a full turn."""
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
    """One fan per interior vertex, one ``fan`` call each."""
    fans = []
    for v in p.interior_vertex_ids:
        if len(p._incident_creases[v]) < 3:
            raise PatternError(f"interior vertex {v} has fewer than 3 creases")
        crease_ids, sectors = fan(p, v)
        if np.any(sectors <= _ZERO_SECTOR):
            raise PatternError(f"coincident crease directions at vertex {v}")
        fans.append(VertexFan(vertex_id=v, crease_ids=crease_ids, sector_angles=sectors))
    return fans


def validate_pattern(p):
    """Every pattern check, one facet, edge or vertex at a time."""
    violations = []
    for f, cycle in enumerate(p.facets):
        if len(set(cycle)) != len(cycle) or not polygon_simple(p.vertices[list(cycle)]):
            violations.append(Violation("facet-not-simple", f"facet {f}"))

    count = {}
    by_edge = {}
    for f, cycle in enumerate(p.facets):
        for k in range(len(cycle)):
            key = tuple(sorted((cycle[k], cycle[(k + 1) % len(cycle)])))
            count[key] = count.get(key, 0) + 1
            by_edge.setdefault(key, []).append(f)
    for c in p.creases:
        got = count.pop(c.key, 0)
        if got != 2:
            violations.append(Violation("crease-incidence", f"crease {c.key}", float(got)))
    for e in p.boundary:
        got = count.pop(e, 0)
        if got != 1:
            violations.append(Violation("boundary-incidence", f"edge {e}", float(got)))
    for e, got in count.items():
        violations.append(Violation("undeclared-edge", f"edge {e}", float(got)))

    if p.facets:
        adj = {}
        for key, faces in by_edge.items():
            if key in p.crease_index and len(faces) == 2:
                adj.setdefault(faces[0], set()).add(faces[1])
                adj.setdefault(faces[1], set()).add(faces[0])
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

    for v in p.interior_vertex_ids:
        degree = len(p._incident_creases[v])
        if degree < 3:
            violations.append(Violation("fan-degree", f"vertex {v}", float(degree)))
            continue
        _, sectors = fan(p, v)
        for s in sectors[sectors <= _ZERO_SECTOR]:
            violations.append(Violation("zero-sector", f"vertex {v}", float(s)))
        total = float(np.minimum(sectors, 2 * math.pi - sectors).sum())
        if abs(total - 2 * math.pi) > DEVELOPABILITY_TOL:
            violations.append(Violation("developability", f"vertex {v}", total))

    return ValidationReport(tuple(violations))
