"""Rank-revealing pseudoinverse and minimum-norm solves shared by both solvers.

The SVD routines use one cutoff policy: singular values below
``cutoff * sigma_max * max(rows, cols)`` count as zero.  ``free_column_solve``
decides rank on the normal matrix ``N = C_F^T C_F``, whose eigenvalues are
the squared singular values of ``C_F``: eigenvalues at or below
``DEFAULT_CUTOFF * lambda_max(N) * n`` count as zero, with n the column count of C.
Constraint matrices here are small and expressed in radians, so a tight
relative cutoff is safe.
"""

import numpy as np

DEFAULT_CUTOFF = 1e-12


def _check_finite(m):
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries in matrix input")


def _svd(m, cutoff):
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
    if s.size:
        keep = s > cutoff * s[0] * max(m.shape)
    else:
        keep = np.zeros(0, dtype=bool)
    return u, s, vt, keep


def pseudoinverse(m, cutoff=DEFAULT_CUTOFF):
    """Moore-Penrose pseudoinverse of ``m`` with the shared cutoff policy."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _check_finite(m)
    u, s, vt, keep = _svd(m, cutoff)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def min_norm_solve(m, b, cutoff=DEFAULT_CUTOFF):
    """Minimum-Euclidean-norm least-squares solution of ``m @ x = b``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    b = np.asarray(b, dtype=float)
    _check_finite(m)
    _check_finite(b)
    if b.shape[0] != m.shape[0]:
        raise ValueError(f"shape mismatch: {m.shape} @ x = {b.shape}")
    u, s, vt, keep = _svd(m, cutoff)
    coeff = u.T @ b
    coeff[~keep] = 0.0
    coeff[keep] /= s[keep]
    return vt.T @ coeff


def free_column_solve(c, r, fixed, f):
    """Least-squares increment for ``c @ dx = -r`` with ``dx[fixed] = f`` exactly.

    The free columns F solve the normal equations ``N dx_F = g`` with
    ``N = C_F^T C_F`` and ``g = -C_F^T (r + C_A f)``, A being the fixed
    columns.  When every eigenvalue of N is above ``DEFAULT_CUTOFF *
    lambda_max(N) * n``, one LU solve of N gives dx_F.  Otherwise the
    eigendecomposition of N drops the eigenvalues at or below it, and dx_F is
    the minimum-norm least-squares solution on the kept eigenvectors, refined
    once against the residual of C_F itself.  With no free columns or no
    rows, dx_F is zero.
    """
    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    fixed = np.asarray(fixed, dtype=int).reshape(-1)
    for a in (c, r, f):
        _check_finite(a)
    n = c.shape[1]
    if r.shape != (c.shape[0],) or f.shape != fixed.shape:
        raise ValueError(
            f"shape mismatch: C {c.shape}, r {r.shape}, {fixed.size} fixed, f {f.shape}"
        )
    if np.any((fixed < 0) | (fixed >= n)):
        raise ValueError(f"fixed columns must be distinct and in [0, {n})")
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    if np.count_nonzero(free) != n - fixed.size:
        raise ValueError(f"fixed columns must be distinct and in [0, {n})")
    dx = np.zeros(n)
    dx[fixed] = f
    c_free = c[:, free]
    if not c_free.size:
        return dx
    b = -(r + c[:, fixed] @ f)
    normal = c_free.T @ c_free
    w = np.linalg.eigvalsh(normal)
    if w[0] > DEFAULT_CUTOFF * w[-1] * n:
        dx[free] = np.linalg.solve(normal, c_free.T @ b)
        return dx
    w, v = np.linalg.eigh(normal)
    keep = w > DEFAULT_CUTOFF * w[-1] * n
    w, v = w[keep], v[:, keep]
    x = v @ ((v.T @ (c_free.T @ b)) / w)
    # Squaring C_F blurs its small kept singular directions; one correction
    # from the unsquared residual b - C_F x restores them.
    x += v @ ((v.T @ (c_free.T @ (b - c_free @ x))) / w)
    dx[free] = x
    return dx


def rank(m, cutoff=DEFAULT_CUTOFF):
    """Number of singular values above the cutoff."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _check_finite(m)
    _, _, _, keep = _svd(m, cutoff)
    return int(np.count_nonzero(keep))
