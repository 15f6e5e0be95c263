"""Minimum-norm constrained solves, and the SVD routines kept beside them.

``free_column_solve`` is the one solve of both solvers: controlled folding
steps, residual elimination, spring relaxation and the Tachi projection step.  It decides rank on the
Gram matrix of the free columns C_F, whose eigenvalues are the squared
singular values of C_F: eigenvalues at or below ``DEFAULT_CUTOFF *
lambda_max * n`` count as zero, with n the column count of C.  Full rank
of a tall C_F is certified by one Cholesky factorization of the shifted
Gram matrix; only when that fails, or C_F is wide, does an
eigendecomposition decide which eigenvalues to keep.  The SVD
routines (pseudoinverse, minimum-norm solve, rank) use their own policy:
singular values below ``cutoff * sigma_max * max(rows, cols)`` count as
zero.  Constraint matrices here are small and expressed in radians, so a
tight relative cutoff is safe.
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

    dx_F on the free columns F is the minimum-norm least-squares solution of
    ``C_F dx_F = b`` with ``b = -(r + C_A f)``, A being the fixed columns.
    Rank is decided on the Gram matrix of C_F: eigenvalues at or below
    ``DEFAULT_CUTOFF * lambda_max * n`` count as zero.  When C_F has at
    least as many rows as columns, the Gram matrix is ``N = C_F^T C_F``; if
    a shifted Cholesky factorization certifies that none of its eigenvalues
    counts as zero, one LU solve of the normal equations ``N dx_F = C_F^T
    b`` gives dx_F, and otherwise dx_F is solved on N's kept eigenvectors.
    When C_F has fewer rows than columns, N is singular by construction;
    dx_F = C_F^T y lies in the row space, and y is solved on the kept
    eigenvectors of ``M = C_F C_F^T``, whose nonzero eigenvalues are those
    of N.  Either eigenvector solve is refined once against the residual of
    C_F itself.  With no free columns or no rows, dx_F is zero.
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
    # Squaring C_F blurs its small kept singular directions; each eigenvector
    # solve below is corrected once from the unsquared residual of C_F.
    if c_free.shape[0] < c_free.shape[1]:
        # Forming dx_F from C_F^T keeps it in the row space to rounding,
        # where eigenvectors of N would leak eps * cond(C_F)^2 of it into
        # the null space.
        w, v = _kept_eigh(c_free @ c_free.T, n)
        y = v @ ((v.T @ b) / w)
        y += v @ ((v.T @ (b - c_free @ (c_free.T @ y))) / w)
        dx[free] = c_free.T @ y
        return dx
    normal = c_free.T @ c_free
    if _full_rank_certified(normal, n):
        dx[free] = np.linalg.solve(normal, c_free.T @ b)
        return dx
    w, v = _kept_eigh(normal, n)
    x = v @ ((v.T @ (c_free.T @ b)) / w)
    x += v @ ((v.T @ (c_free.T @ (b - c_free @ x))) / w)
    dx[free] = x
    return dx


def _full_rank_certified(gram, n):
    """True when one Cholesky proves every eigenvalue of ``gram`` is kept.

    The largest absolute row sum ``lam_hi`` bounds ``lambda_max`` from
    above.  If ``gram - 2 tau lam_hi I`` (``tau = DEFAULT_CUTOFF * n``)
    factors, then ``lambda_min > 2 tau lambda_max - ||E||``, and Cholesky's
    backward error ``||E||`` (about ``n^2 eps lambda_max``) stays below
    ``tau lambda_max`` for n up to several thousand, so no eigenvalue is
    at or below the cutoff.  A failed factorization proves nothing: the
    caller falls back to the eigendecomposition, which applies the cutoff
    itself.
    """
    shift = 2.0 * DEFAULT_CUTOFF * n * np.linalg.norm(gram, np.inf)
    shifted = gram.copy()
    shifted.flat[:: gram.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _kept_eigh(gram, n):
    """Eigenpairs of ``gram`` above ``DEFAULT_CUTOFF * lambda_max * n``."""
    w, v = np.linalg.eigh(gram)
    keep = w > DEFAULT_CUTOFF * w[-1] * n
    return w[keep], v[:, keep]


def rank(m, cutoff=DEFAULT_CUTOFF):
    """Number of singular values above the cutoff."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _check_finite(m)
    _, _, _, keep = _svd(m, cutoff)
    return int(np.count_nonzero(keep))
