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

The solve has four branches.  For a tall C_F the band w is read from the
structure: the widest span, first to last free column, of a row block.  Cut
into blocks of w columns, N = C_F^T C_F is block-tridiagonal, and with at
least three blocks its diagonal and super-diagonal blocks are formed
straight from the row blocks.

- Certified band: one sweep of windowed Cholesky factorizations both
  certifies full rank (on the shifted N, the one certificate) and factors
  N.  The factors are kept on the ``RowBlocks`` (every L_k^{-1} and two
  coupling products), and the normal equations are solved on them by
  matrix products.  A later solve on the same matrix with the same fixed
  columns reuses them for its own r and f: the Newton loop in
  ``sequential`` takes its chord steps this way.
- Deflated band: when the certificate fails, as at the flat states where
  the closure condition degenerates, the null space of N is deflated in the
  band: inverse iteration and Rayleigh-Ritz on a factorization of a
  slightly shifted N find it, an inertia count proves the gap around the
  cutoff, and refinement on the same factors gives the minimum-norm step.
  Nothing of it outlives the solve.
- Tall eigh: with fewer than three blocks, or when the deflated solve
  proves nothing (an eigenvalue near the cutoff, a null space it does not
  capture), the dense C_F is built once and the step is solved on the kept
  eigenvectors of N.
- Wide eigh: a C_F with fewer rows than columns is solved on the kept
  eigenvectors of C_F C_F^T.

Only the two eigenvector solves read a dense C.  The SVD routines
(pseudoinverse, minimum-norm solve, rank) use their own policy: singular
values below ``cutoff * sigma_max * max(rows, cols)`` count as zero.
Constraint matrices here are expressed in radians, so a tight relative
cutoff is safe.
"""

import numpy as np

DEFAULT_CUTOFF = 1e-12
_EPS = np.finfo(float).eps


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
    dense matrix is built on first use and kept, and so is the band
    factorization of the last ``free_column_solve`` on this matrix that
    certified full column rank.
    """

    def __init__(self, shape, groups, dense=None):
        self.shape = tuple(shape)
        self.groups = tuple(groups)
        self._dense = dense
        self._kept = {}  # free-column mask bytes: certified band factors

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

    def certified(self, fixed):
        """Whether a ``free_column_solve`` on this matrix with these fixed
        columns certified full column rank of C_F in the band.  Its factors
        are kept, and every later solve with the same fixed columns reuses
        them."""
        free = np.ones(self.shape[1], dtype=bool)
        free[np.asarray(fixed, dtype=int)] = False
        return free.tobytes() in self._kept

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
    blocks, and two band solves are tried in turn:

    - ``_band_factor`` certifies in one sweep that none of the eigenvalues
      counts as zero and factors N; the factors solve ``N dx_F = C_F^T b``
      and are kept on ``c`` (``RowBlocks.certified``), so that the next
      solve on ``c`` with the same fixed columns skips the sweep;
    - if that certificate fails, ``_deflated_band_solve`` proves which
      eigenvalues count as zero, deflates their eigenvectors and solves on
      the rest, refined from the residual of C_F itself.

    With fewer blocks, or when neither band solve proves its rank, dx_F is
    solved on the kept eigenvectors of the dense N.  When C_F has fewer
    rows than columns, N is singular by construction; dx_F = C_F^T y lies
    in the row space, and y is solved on the kept eigenvectors of ``M = C_F
    C_F^T``, whose nonzero eigenvalues are those of N.  Either eigenvector
    solve is refined once against the residual of C_F itself.  With no free
    columns or no rows, dx_F is zero.
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
        x = _band_branches(c, r, b, dx, free, n)
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


def _band_branches(c, r, b, dx, free, n):
    """dx_F from the two band solves, or None when N has fewer than three
    blocks or neither solve proves its rank.

    The factors of a certified N are kept on ``c``, keyed by its free
    columns: a later solve on the same matrix and free columns, whatever its
    r and f, reuses them instead of factoring N again.  ``dx`` holds f on
    the fixed columns and zero elsewhere, and ``b = -(r + C_A f)``.
    """
    n_free = np.count_nonzero(free)
    key = free.tobytes()
    factors = c._kept.get(key)
    if factors is None:
        # free index of every column of C, -1 for a fixed one
        pos = np.cumsum(free) - 1
        pos[~free] = -1
        band = _gram_band(c, pos, n_free)
        if band is None:
            return None
        factors = _band_factor(band, n_free, n)
        if factors is None:

            def residual(x):
                """``C_F^T (b - C_F x)``, from the blocks."""
                trial = dx.copy()
                trial[free] = x
                return -c.rmatvec(r + c @ trial)[free]

            return _deflated_band_solve(band, c.rmatvec(b)[free], residual, n)
        c._kept = {key: factors}
    blocks, w = factors[0].shape[:2]
    rhs = np.zeros(blocks * w)
    rhs[:n_free] = c.rmatvec(b)[free]
    return _band_cholesky_solve(factors, rhs)[:n_free]


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


def _band_factor(band, n_free, n):
    """Kept block Cholesky factors of block-tridiagonal N when its full rank
    is certified, else None.

    N is given by its ``_gram_band``.  The certificate is a block Cholesky
    factorization of ``N - 2 tau lam_hi I``, ``tau = DEFAULT_CUTOFF * n``,
    with ``lam_hi = ||N||_inf >= lambda_max`` summed over a block row.  If
    it factors, ``lambda_min > 2 tau lambda_max - ||E||``, the backward
    error E being about ``n^2 eps lambda_max`` at most (less in a band,
    where no inner product has more than 2w terms), below ``tau lambda_max``
    for n up to several thousand: no eigenvalue is at or below the cutoff.
    A failure proves nothing; the caller tries ``_deflated_band_solve``.

    ``N = L L^T`` with L block lower-bidiagonal: factors L_k on its
    diagonal and couplings ``E_k^T L_k^{-T}`` below it, E_k being the
    super-diagonal blocks of N.  One sweep factors window k, ``[[S_k, E_k],
    [E_k^T, D_{k+1}]]``, for the shifted and the unshifted N in one stacked
    Cholesky.  S_k is what the blocks before k leave of D_k: the window's
    own trailing block minus its coupling's outer product.  One window
    buffer is reused: each factorization leaves the next window's S.  The
    last block is padded to w columns by a decoupled diagonal ``lam_hi``,
    which leaves the other entries of the factors as they are and solves to
    zero.  The unshifted factors are kept as ``_band_cholesky`` keeps them,
    every L_k^{-1} from one batched inverse plus the two coupling products,
    so ``_band_cholesky_solve`` serves any number of right-hand sides.
    """
    blocks, w = band.shape[:2]
    lam_hi = _band_inf_norm(band)
    shift = 2.0 * DEFAULT_CUTOFF * n * lam_hi
    # diagonal blocks of N and of the shifted N
    diag = np.stack([band[:, :, :w], band[:, :, :w] - shift * np.eye(w)])
    pad = np.arange(n_free - (blocks - 1) * w, w)
    diag[:, -1, pad, pad] = lam_hi
    # lower triangle only: np.linalg.cholesky reads nothing else
    window = np.zeros((2, 2 * w, 2 * w))
    window[:, :w, :w] = diag[:, 0]
    low_diag = np.empty((blocks, w, w))
    below = np.empty((blocks - 1, w, w))
    for k in range(1, blocks):
        window[:, w:, :w] = band[k - 1, :, w:].T
        window[:, w:, w:] = diag[:, k]
        try:
            low = np.linalg.cholesky(window)
        except np.linalg.LinAlgError:
            return None
        low_diag[k - 1] = low[0, :w, :w]
        below[k - 1] = low[0, w:, :w]
        coupling = low[:, w:, :w]
        window[:, :w, :w] = window[:, w:, w:] - coupling @ coupling.transpose(0, 2, 1)
    low_diag[-1] = low[0, w:, w:]
    inv = np.linalg.inv(low_diag)
    return inv, inv[1:] @ below, inv[:-1].transpose(0, 2, 1) @ below.transpose(0, 2, 1)


def _band_matmul(band, x):
    """``N @ x`` for the block-tridiagonal N of ``band``, on the padded
    columns: x has ``K w`` rows, one or more columns."""
    blocks, w = band.shape[:2]
    xb = x.reshape(blocks, w, -1)
    upper = band[:-1, :, w:]
    y = band[:, :, :w] @ xb
    y[:-1] += upper @ xb[1:]
    y[1:] += upper.transpose(0, 2, 1) @ xb[:-1]
    return y.reshape(x.shape)


def _band_cholesky(band, shift):
    """Kept block Cholesky factors of ``N + shift I``, or None if it fails.

    ``N + shift I = L L^T`` with L block lower-bidiagonal: L_k on the
    diagonal, ``B_k^T`` below it, ``B_k = L_k^{-1} E_k``.  Each Schur
    complement ``S_{k+1} = D_{k+1} + shift I - B_k^T B_k`` is factored in
    turn.  numpy has no triangular solve, so the factors are kept as what a
    solve applies: every ``L_k^{-1}``, and the products ``L_{k+1}^{-1}
    B_k^T`` and ``L_k^{-T} B_k`` that the forward and back substitutions
    subtract, each formed once for all right-hand sides.
    """
    blocks, w = band.shape[:2]
    eye = np.eye(w)
    inv = np.empty((blocks, w, w))
    coupling = np.empty((blocks - 1, w, w))
    schur = band[0, :, :w] + shift * eye
    for k in range(blocks):
        try:
            low = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            return None
        inv[k] = np.linalg.inv(low)
        if k + 1 < blocks:
            coupling[k] = inv[k] @ band[k, :, w:]
            schur = band[k + 1, :, :w] + shift * eye - coupling[k].T @ coupling[k]
    return (inv, inv[1:] @ coupling.transpose(0, 2, 1),
            inv[:-1].transpose(0, 2, 1) @ coupling)


def _band_cholesky_solve(factors, rhs):
    """``(N + shift I)^{-1} rhs`` from ``_band_cholesky`` factors; rhs has
    ``K w`` rows, one or more columns."""
    inv, forward, back = factors
    blocks, w = inv.shape[:2]
    y = inv @ rhs.reshape(blocks, w, -1)
    for k in range(1, blocks):
        y[k] -= forward[k - 1] @ y[k - 1]
    x = inv.transpose(0, 2, 1) @ y
    for k in range(blocks - 2, -1, -1):
        x[k] -= back[k] @ x[k + 1]
    return x.reshape(rhs.shape)


def _band_inertia(band, shift):
    """The number of eigenvalues of N below ``shift``, with the rounding
    that bounds it, or None when rounding could change the count.

    A block LDL^T of ``N - shift I`` runs over the Schur complements ``S_k``
    of the block-tridiagonal N: by Haynsworth's inertia additivity the
    negative eigenvalues of all S_k are those of ``N - shift I``.  The
    rounding of step k is taken as ``beta_k = w^2 eps M_k``, where M_k (the
    largest absolute row sum of D_k, plus shift, plus the growth carried in
    from block k - 1) bounds what formed S_k.  A pivot whose eigenvalues
    all exceed beta_k is proved so by one Cholesky of ``S_k - beta_k I``,
    and that factor carries on: the sweep is then the exact factorization
    of a matrix with D_k moved by beta_k.  Any other pivot is
    eigendecomposed, ``S_k = Q diag(lam) Q^T``: an eigenvalue within beta_k
    of zero proves nothing, and the signs of the others are counted.  The
    growth, the trace of ``E_k^T Q |lam|^{-1} Q^T E_k``, bounds the norm of
    what S_k passes on.  Returns ``(count, beta)``, beta the largest
    beta_k: the count is exact for ``N - shift I + E``, where E, the
    deliberate shifts plus the rounding, is block tridiagonal with ``||E||
    <= 4 beta``, and no eigenvalue of ``N + E`` is farther than ``||E||``
    from one of N (Weyl).
    """
    blocks, w = band.shape[:2]
    eye = np.eye(w)
    row_sums = np.abs(band[:, :, :w]).sum(axis=2).max(axis=1)
    count, growth, beta = 0, 0.0, 0.0
    schur = band[0, :, :w] - shift * eye
    for k in range(blocks):
        rounding = w * w * _EPS * (row_sums[k] + shift + growth)
        beta = max(beta, rounding)
        try:
            y = np.linalg.solve(np.linalg.cholesky(schur - rounding * eye), band[k, :, w:])
            pivots = np.ones(w)
        except np.linalg.LinAlgError:
            pivots, q = np.linalg.eigh(schur)
            if np.abs(pivots).min() <= rounding:
                return None
            count += int(np.count_nonzero(pivots < 0))
            y = q.T @ band[k, :, w:]
        if k + 1 < blocks:
            schur = band[k + 1, :, :w] - shift * eye - y.T @ (y / pivots[:, None])
            growth = float(np.sum(y * y / np.abs(pivots)[:, None]))
    return count, beta


def _deflated_band_solve(band, g, residual, n):
    """Minimum-norm ``N^+ g`` for block-tridiagonal N when its null space is
    certified, else None.

    N is given by its ``_gram_band`` and is singular to rounding, as at the
    flat states where the closure condition degenerates.  The rank rule is
    ``free_column_solve``'s: eigenvalues at or below ``tau lambda_max``,
    ``tau = DEFAULT_CUTOFF * n``, count as zero, with ``lam_lo <= lambda_max
    <= lam_hi`` for ``lam_lo`` the largest diagonal entry of N and ``lam_hi
    = ||N||_inf``.  Null-space deflation with a certified gap (Bjorck,
    Numerical Methods for Least Squares Problems, 1996, sections 2.7 and
    6.3):

    - ``N + mu I``, ``mu = 1e-11 lam_hi``, is factored once
      (``_band_cholesky``);
    - three inverse iterations on a deterministic start block of four
      columns (Weyl sequences ``frac(i sqrt(p))``, p = 2, 3, 5, 7), then
      Rayleigh-Ritz on ``Z^T N Z``, keep as Z the Ritz vectors whose values
      are at or below ``tau lam_lo``.  The k-th Ritz value bounds the k-th
      eigenvalue from above, so at least ``len(Z)`` eigenvalues count as
      zero;
    - ``_band_inertia`` of ``N - 2 tau lam_hi I`` must count exactly
      ``len(Z)`` eigenvalues with its rounding below ``tau lam_hi / 4``: the
      rest of the spectrum lies above ``tau lam_hi``, so the rule keeps it;
    - ``x = P (N + mu I)^{-1} P g`` with ``P = I - Z Z^T``, then four
      refinement steps ``x <- x + P (N + mu I)^{-1} P (g - N x)``, the
      residual ``g - N x = C_F^T (b - C_F x)`` taken unsquared from
      ``residual(x)``.  Each step shrinks the error on a kept eigenvector
      of eigenvalue lambda by ``mu / (lambda + mu) <= q = mu / (tau lam_hi
      + mu)``, so after the last step, dx, at most ``q / (1 - q) ||dx||``
      is left; it must be below ``n_free eps ||x||``.

    Any other outcome, a failed factorization included, proves nothing: the
    caller falls back to the eigenvectors of the dense N.  The last block
    is padded as in ``_band_factor``.
    """
    blocks, w = band.shape[:2]
    n_free = len(g)
    tau = DEFAULT_CUTOFF * n
    lam_hi = _band_inf_norm(band)
    lam_lo = band[:, range(w), range(w)].max()
    band = band.copy()
    pad = np.arange(n_free - (blocks - 1) * w, w)
    band[-1, pad, pad] = lam_hi
    shift = 1e-11 * lam_hi
    factors = _band_cholesky(band, shift)
    if factors is None:
        return None
    z = np.zeros((blocks * w, 4))
    z[:n_free] = np.arange(1, n_free + 1)[:, None] * np.sqrt([2.0, 3.0, 5.0, 7.0]) % 1.0 - 0.5
    for _ in range(3):
        z = np.linalg.qr(_band_cholesky_solve(factors, z))[0]
    theta, u = np.linalg.eigh(z.T @ _band_matmul(band, z))
    null = z @ u[:, theta <= tau * lam_lo]
    inertia = _band_inertia(band, 2.0 * tau * lam_hi)
    if inertia is None or inertia[0] != null.shape[1] or 4.0 * inertia[1] >= tau * lam_hi:
        return None

    def solve(v):
        rhs = np.zeros(blocks * w)
        rhs[:n_free] = v
        rhs -= null @ (null.T @ rhs)
        x = _band_cholesky_solve(factors, rhs)
        return (x - null @ (null.T @ x))[:n_free]

    x = solve(g)
    for _ in range(4):
        step = solve(residual(x))
        x += step
    q = shift / (tau * lam_hi + shift)
    if q / (1.0 - q) * np.linalg.norm(step) > n_free * _EPS * np.linalg.norm(x):
        return None
    return x


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
