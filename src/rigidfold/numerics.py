"""Minimum-norm constrained solves, and the SVD routines kept beside them.

``free_column_solve`` is the one solve of both solvers: controlled folding
steps, residual elimination, spring relaxation and the Tachi projection
step.  It decides rank on the Gram matrix of the free columns C_F, whose
eigenvalues are the squared singular values of C_F: eigenvalues at or
below ``DEFAULT_CUTOFF * lambda_max * n`` count as zero, with n the column
count of C.  For a tall C_F the Gram matrix N = C_F^T C_F is block-
tridiagonal in blocks of the band of C_F (the widest column span of a
row), since no row reaches past the next block.  Full rank is certified by
a block Cholesky factorization of the shifted N, and the step solved by a
block Cholesky of N; with one block both are the dense factorizations.
Only when the certificate fails, or C_F is wide, does an
eigendecomposition of a dense Gram matrix decide which eigenvalues to
keep.  The SVD routines (pseudoinverse, minimum-norm solve, rank) use
their own policy: singular values below ``cutoff * sigma_max * max(rows,
cols)`` count as zero.  Constraint matrices here are expressed in
radians, so a tight relative cutoff is safe.
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
    ``DEFAULT_CUTOFF * lambda_max * n`` count as zero.

    When C_F has at least as many rows as columns, the Gram matrix is ``N =
    C_F^T C_F``, formed in blocks of the band w of C_F: the widest span,
    first to last nonzero column, of a row that has any (a row whose
    columns are all fixed has none).  Cut into consecutive blocks of w
    columns, no row touches two blocks that are not adjacent, so N is
    block-tridiagonal and only its diagonal and super-diagonal blocks are
    formed.  If a block Cholesky factorization of the shifted N certifies
    that none of its eigenvalues counts as zero (``_full_rank_certified``),
    a block Cholesky solve of the normal equations ``N dx_F = C_F^T b``
    gives dx_F; with one block (the band spans every column) the
    certificate is one dense Cholesky and the solve one dense LU solve.
    Otherwise the dense N is formed and dx_F is solved on its kept
    eigenvectors.  When C_F has fewer rows than columns, N is singular by
    construction; dx_F = C_F^T y lies in the row space, and y is solved on
    the kept eigenvectors of ``M = C_F C_F^T``, whose nonzero eigenvalues
    are those of N.  Either eigenvector solve is refined once against the
    residual of C_F itself.  With no free columns or no rows, dx_F is zero.
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
    diag, upper = _gram_blocks(c_free)
    g = c_free.T @ b
    if _full_rank_certified(diag, upper, n):
        dx[free] = _block_solve(diag, upper, g)
        return dx
    w, v = _kept_eigh(c_free.T @ c_free, n)
    x = v @ ((v.T @ g) / w)
    x += v @ ((v.T @ (c_free.T @ (b - c_free @ x))) / w)
    dx[free] = x
    return dx


def _gram_blocks(c_free):
    """Diagonal and super-diagonal blocks of ``N = C_F^T C_F``.

    The band w of C_F is the widest span, from first to last nonzero
    column, of its rows; all-zero rows have none.  Cut into consecutive
    blocks of w columns, no row touches more than two adjacent blocks, so N
    is block-tridiagonal.  Diagonal block k and super-diagonal block k come
    from the rows that touch block k, in one product of their columns in
    blocks k and k + 1.  With one block, the one diagonal block is the
    dense N.
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


def _full_rank_certified(diag, upper, n):
    """True when one block Cholesky proves every eigenvalue of N is kept.

    N is given by its diagonal and super-diagonal blocks.  The largest
    absolute row sum ``lam_hi``, summed over a block row, bounds
    ``lambda_max`` from above.  If ``N - 2 tau lam_hi I`` (``tau =
    DEFAULT_CUTOFF * n``) factors, then ``lambda_min > 2 tau lambda_max -
    ||E||``, E being the backward error of the factorization.  A block
    Cholesky is a Cholesky factorization with its inner products summed in
    another order, so the dense bound holds: ``||E||`` is about ``n^2 eps
    lambda_max`` at most, and less in a band, where no inner product has
    more than 2w terms.  That stays below ``tau lambda_max`` for n up to
    several thousand, so no eigenvalue is at or below the cutoff.  A failed
    factorization proves nothing: the caller falls back to the
    eigendecomposition, which applies the cutoff itself.
    """
    sums = [np.abs(d).sum(axis=1) for d in diag]
    for k, e in enumerate(upper):
        sums[k] += np.abs(e).sum(axis=1)
        sums[k + 1] += np.abs(e).sum(axis=0)
    shift = 2.0 * DEFAULT_CUTOFF * n * max(s.max(initial=0) for s in sums)
    return _block_cholesky(diag, upper, shift) is not None


def _block_cholesky(diag, upper, shift=0.0):
    """Block Cholesky factors of ``N - shift I``, or None if one fails.

    ``N - shift I = L L^T`` with L block lower-bidiagonal: the factors L_k
    on its diagonal and the couplings ``B_k = E_k^T L_k^{-T}`` below it,
    E_k being the super-diagonal blocks of N.  numpy has no triangular
    solve, so L_k and B_k come from one Cholesky factorization of the
    shifted window ``[[S_k, E_k], [E_k^T, D_{k+1}]]``, S_k being the Schur
    complement ``D_k - B_{k-1} B_{k-1}^T`` left by the blocks before k.
    One block is one dense Cholesky.
    """
    factors, couplings = [], []
    schur = diag[0]
    for e, d in zip(upper, diag[1:]):
        w = len(schur)
        window = np.empty((w + len(d),) * 2)
        window[:w, :w], window[:w, w:], window[w:, :w], window[w:, w:] = schur, e, e.T, d
        factor = _shifted_cholesky(window, shift)
        if factor is None:
            return None
        factors.append(factor[:w, :w])
        couplings.append(factor[w:, :w])
        schur = d - couplings[-1] @ couplings[-1].T
    factor = _shifted_cholesky(schur, shift)
    if factor is None:
        return None
    return factors + [factor], couplings


def _shifted_cholesky(a, shift):
    """Cholesky factor of ``a - shift I``, or None if it does not exist."""
    a = a.copy()
    a.flat[:: a.shape[0] + 1] -= shift
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _block_solve(diag, upper, g):
    """``N^{-1} g`` for certified positive definite block-tridiagonal N.

    One block is the dense LU solve.  More blocks are solved by block
    Cholesky and block forward and back substitution, each block's
    triangular system by ``np.linalg.solve``.
    """
    if not upper:
        return np.linalg.solve(diag[0], g)
    factors, couplings = _block_cholesky(diag, upper)
    ends = np.cumsum([len(factor) for factor in factors[:-1]])
    ys = []
    for k, (factor, rhs) in enumerate(zip(factors, np.split(g, ends))):
        if k:
            rhs = rhs - couplings[k - 1] @ ys[-1]
        ys.append(np.linalg.solve(factor, rhs))
    xs = [np.linalg.solve(factors[-1].T, ys[-1])]
    for factor, coupling, y in zip(factors[-2::-1], couplings[::-1], ys[-2::-1]):
        xs.append(np.linalg.solve(factor.T, y - coupling.T @ xs[-1]))
    return np.concatenate(xs[::-1])


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
