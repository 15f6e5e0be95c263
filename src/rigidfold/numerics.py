"""Minimum-norm constrained solves, and the SVD routines kept beside them.

``free_column_solve`` is the one solve of both solvers: controlled folding
steps, residual elimination, spring relaxation and the Tachi projection
step.  It takes the constraint matrix as ``RowBlocks``: dense row blocks,
each on its own short list of columns, which is how assembly produces C
(one 3 x degree block per vertex).  A plain 2-D array is converted on
entry, each row a block on its nonzero columns.  Products ``C @ x`` and
``C^T @ y`` are summed from the blocks.  Rank is decided on the Gram matrix
of the free columns C_F, whose eigenvalues are the squared singular values
of C_F: eigenvalues at or below ``DEFAULT_CUTOFF * lambda_max * n`` count
as zero, with n the column count of C.

The solve has three branches.  For a tall C_F the band w is read from the
structure: the widest span, first to last free column, of a row block.  Cut
into blocks of w columns, N = C_F^T C_F is block-tridiagonal.  With at
least three blocks its diagonal and super-diagonal blocks are formed
straight from the row blocks, and one sweep of windowed Cholesky
factorizations both certifies full rank (on the shifted N, the one
certificate) and solves the normal equations (on N, with the right-hand
side bordered into each window).  With fewer blocks, or when the
certificate fails, the dense C_F is built once and the step is solved on
the kept eigenvectors of N; a wide C_F is solved on the kept eigenvectors
of C_F C_F^T.  Only these two eigenvector solves read a dense C.  The SVD
routines (pseudoinverse, minimum-norm solve, rank) use their own policy:
singular values below ``cutoff * sigma_max * max(rows, cols)`` count as
zero.  Constraint matrices here are expressed in radians, so a tight
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


class RowBlocks:
    """A matrix stored as dense row blocks, each on its own columns.

    ``groups`` holds ``(rows, cols, vals)`` triples of V blocks with h rows
    and k columns each: ``vals[v, i, j]`` is the entry at row ``rows[v, i]``
    and column ``cols[v, j]``.  A row lies in at most one block, a block's
    columns are distinct, and every entry outside the blocks is zero.  The
    dense matrix is built on first use and kept.
    """

    def __init__(self, shape, groups, dense=None):
        self.shape = tuple(shape)
        self.groups = tuple(groups)
        self._dense = dense

    @classmethod
    def from_dense(cls, m):
        """Each row of ``m`` one block on its nonzero columns, grouped by
        their count; the given array serves as the dense matrix."""
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
        return cls(m.shape, groups, dense=m)

    @property
    def dense(self):
        """The dense matrix, scattered from the blocks once."""
        if self._dense is None:
            dense = np.zeros(self.shape)
            for rows, cols, vals in self.groups:
                dense.flat[rows[:, :, None] * self.shape[1] + cols[:, None, :]] = vals
            self._dense = dense
        return self._dense

    def __matmul__(self, x):
        """``C @ x``: one batched product per group, scattered to its rows."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.shape[0])
        for rows, cols, vals in self.groups:
            out[rows] = (vals @ x[cols][:, :, None])[:, :, 0]
        return out

    def rmatvec(self, y):
        """``C^T @ y``: one batched product per group, summed into its
        columns by one ``bincount``."""
        y = np.asarray(y, dtype=float)
        index, weight = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for rows, cols, vals in self.groups:
            index.append(cols.reshape(-1))
            weight.append((y[rows][:, None, :] @ vals).reshape(-1))
        return np.bincount(np.concatenate(index), np.concatenate(weight), minlength=self.shape[1])

    def scale_columns(self, scale):
        """This matrix with column j multiplied by ``scale[j]``."""
        return RowBlocks(self.shape, [
            (rows, cols, vals * scale[cols][:, None, :]) for rows, cols, vals in self.groups
        ])


def free_column_solve(c, r, fixed, f):
    """Least-squares increment for ``c @ dx = -r`` with ``dx[fixed] = f`` exactly.

    ``c`` is a ``RowBlocks`` or a 2-D array.  dx_F on the free columns F is
    the minimum-norm least-squares solution of ``C_F dx_F = b`` with ``b =
    -(r + C_A f)``, A being the fixed columns; b is formed once, from the
    blocks.  Rank is decided on the Gram matrix of C_F: eigenvalues at or
    below ``DEFAULT_CUTOFF * lambda_max * n`` count as zero.

    When C_F has at least as many rows as columns, the Gram matrix is ``N =
    C_F^T C_F``.  If its band (``_gram_band``) cuts the free columns into at
    least three blocks, N is formed as its diagonal and super-diagonal
    blocks and ``_band_solve`` certifies in one sweep that none of its
    eigenvalues counts as zero and solves ``N dx_F = C_F^T b``.  With fewer
    blocks, or without the certificate, dx_F is solved on the kept
    eigenvectors of the dense N.  When C_F has fewer rows than columns, N is
    singular by construction; dx_F = C_F^T y lies in the row space, and y is
    solved on the kept eigenvectors of ``M = C_F C_F^T``, whose nonzero
    eigenvalues are those of N.  Either eigenvector solve is refined once
    against the residual of C_F itself.  With no free columns or no rows,
    dx_F is zero.
    """
    if not isinstance(c, RowBlocks):
        c = RowBlocks.from_dense(c)
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    fixed = np.asarray(fixed, dtype=int).reshape(-1)
    for a in (r, f, *(vals for _, _, vals in c.groups)):
        _check_finite(a)
    rows, n = c.shape
    if r.shape != (rows,) or f.shape != fixed.shape:
        raise ValueError(
            f"shape mismatch: C {c.shape}, r {r.shape}, {fixed.size} fixed, f {f.shape}"
        )
    if np.any((fixed < 0) | (fixed >= n)):
        raise ValueError(f"fixed columns must be distinct and in [0, {n})")
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    n_free = np.count_nonzero(free)
    if n_free != n - fixed.size:
        raise ValueError(f"fixed columns must be distinct and in [0, {n})")
    dx = np.zeros(n)
    dx[fixed] = f
    if not rows or not n_free:
        return dx
    b = -(r + c @ dx)
    if rows >= n_free:
        # free index of every column of C, -1 for a fixed one
        pos = np.cumsum(free) - 1
        pos[fixed] = -1
        band = _gram_band(c, pos, n_free)
        if band is not None:
            x = _band_solve(band, c.rmatvec(b)[free], n)
            if x is not None:
                dx[free] = x
                return dx
    c_free = c.dense[:, free]
    # Squaring C_F blurs its small kept singular directions; each eigenvector
    # solve below is corrected once from the unsquared residual of C_F.
    if rows < n_free:
        # Forming dx_F from C_F^T keeps it in the row space to rounding,
        # where eigenvectors of N would leak eps * cond(C_F)^2 of it into
        # the null space.
        w, v = _kept_eigh(c_free @ c_free.T, n)
        y = v @ ((v.T @ b) / w)
        y += v @ ((v.T @ (b - c_free @ (c_free.T @ y))) / w)
        dx[free] = c_free.T @ y
        return dx
    w, v = _kept_eigh(c_free.T @ c_free, n)
    x = v @ ((v.T @ (c_free.T @ b)) / w)
    x += v @ ((v.T @ (c_free.T @ (b - c_free @ x))) / w)
    dx[free] = x
    return dx


def _gram_band(c, pos, n_free):
    """The band of ``N = C_F^T C_F`` in blocks, or None below three blocks.

    ``pos`` maps each column of C to its free index, -1 for a fixed column.
    The band w of C_F is the widest span, first to last free column, of a
    row block of C; a block whose columns are all fixed has none.  Cut into
    consecutive blocks of w columns, no row touches two blocks that are not
    adjacent, so N is block-tridiagonal.  Returns the (K, w, 2w) array whose
    ``[k, :, :w]`` is diagonal block k of N and ``[k, :, w:]`` its
    super-diagonal block k, zero past the last free column.  Each row
    block's Gram matrix is one batched product of its entries, and one
    ``bincount`` sums them into place.
    """
    free_pos = [pos[cols] for _, cols, _ in c.groups]
    width = 0
    for p in free_pos:
        # first to last free column of each block, negative when all are fixed
        span = p.max(axis=1) - np.where(p < 0, n_free, p).min(axis=1) + 1
        width = max(width, int(span.max(initial=0)))
    if not width or n_free <= 2 * width:
        return None
    index, weight = [], []
    for (_, _, vals), p in zip(c.groups, free_pos):
        i, j = p[:, :, None], p[:, None, :]
        start = i // width * width  # first column of the block holding i
        keep = (i >= 0) & (j >= start)
        # row i of the band, column j - start: diagonal, then super-diagonal
        index.append((2 * width * i + j - start)[keep])
        weight.append((vals.transpose(0, 2, 1) @ vals)[keep])
    blocks = -(-n_free // width)
    band = np.bincount(
        np.concatenate(index), np.concatenate(weight), minlength=2 * width * width * blocks
    )
    return band.reshape(blocks, width, 2 * width)


def _band_inf_norm(band):
    """``||N||_inf``, the largest absolute row sum of N, from its band: a
    row of block k sums its diagonal and super-diagonal blocks and column
    of super-diagonal block k - 1."""
    w = band.shape[1]
    magnitude = abs(band)
    sums = magnitude.sum(axis=2)
    sums[1:] += magnitude[:-1, :, w:].sum(axis=1)
    return sums.max()


def _band_solve(band, g, n):
    """``N^{-1} g`` for block-tridiagonal N when its full rank is certified,
    else None.

    N is given by its ``_gram_band``.  The certificate is a block Cholesky
    factorization of ``N - 2 tau lam_hi I``, ``tau = DEFAULT_CUTOFF * n``,
    with ``lam_hi = ||N||_inf >= lambda_max`` summed over a block row.  If
    it factors, ``lambda_min > 2 tau lambda_max - ||E||``, the backward
    error E being about ``n^2 eps lambda_max`` at most (less in a band,
    where no inner product has more than 2w terms), below ``tau lambda_max``
    for n up to several thousand: no eigenvalue is at or below the cutoff.
    A failure proves nothing; the caller falls back to the eigenvectors.

    ``N = L L^T`` with L block lower-bidiagonal: factors L_k on its
    diagonal and couplings ``B_k = E_k^T L_k^{-T}`` below it, E_k being the
    super-diagonal blocks of N.  One sweep factors window k, ``[[S_k, E_k,
    h_k], [E_k^T, D_{k+1}, g_{k+1}], [h_k^T, g_{k+1}^T, inf]]``, for the
    shifted and the unshifted N in one stacked Cholesky.  S_k and h_k are
    what the blocks before k leave of D_k and g_k: the window's own
    trailing rows minus its couplings' outer product.  The bordered row of
    the unshifted factor is the forward substitution ``y = L^{-1} g``; its
    corner stays ``inf`` whatever y is.  The shifted windows are bordered by
    zeros, so the border never fails the certificate.  One window buffer is
    reused: each factorization leaves the next window's S and h.  Back
    substitution ``L^T x = y`` follows, one ``np.linalg.solve`` per block.
    The last block is padded to w columns by a decoupled diagonal
    ``lam_hi``, which leaves the other entries of the factors as they are
    and solves to zero.
    """
    blocks, w = band.shape[:2]
    lam_hi = _band_inf_norm(band)
    shift = 2.0 * DEFAULT_CUTOFF * n * lam_hi
    rhs = np.zeros(blocks * w)
    rhs[:len(g)] = g
    rhs = rhs.reshape(blocks, w)
    # diagonal blocks of N and of the shifted N
    diag = np.stack([band[:, :, :w], band[:, :, :w] - shift * np.eye(w)])
    pad = np.arange(len(g) - (blocks - 1) * w, w)
    diag[:, -1, pad, pad] = lam_hi
    # lower triangle only: np.linalg.cholesky reads nothing else
    window = np.zeros((2, 2 * w + 1, 2 * w + 1))
    window[:, :w, :w] = diag[:, 0]
    window[0, -1, :w] = rhs[0]
    window[:, -1, -1] = np.inf
    factors = []
    for k in range(1, blocks):
        window[:, w:-1, :w] = band[k - 1, :, w:].T
        window[:, w:-1, w:-1] = diag[:, k]
        window[0, -1, w:-1] = rhs[k]
        try:
            low = np.linalg.cholesky(window)
        except np.linalg.LinAlgError:
            return None
        factors.append(low[0])
        below = low[:, w:, :w]
        trailing = window[:, w:, w:] - below @ below.transpose(0, 2, 1)
        window[:, :w, :w] = trailing[:, :w, :w]
        window[:, -1, :w] = trailing[:, -1, :w]
    x = np.empty((blocks, w))
    last = factors[-1]
    x[-1] = np.linalg.solve(last[w:-1, w:-1].T, last[-1, w:-1])
    for k in range(blocks - 2, -1, -1):
        low = factors[k]
        x[k] = np.linalg.solve(low[:w, :w].T, low[-1, :w] - low[w:-1, :w].T @ x[k + 1])
    return x.reshape(-1)[:len(g)]


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
