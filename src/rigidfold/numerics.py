"""Minimum-norm constrained solves, and the SVD routines kept beside them.

``free_column_solve`` is the one solve of both solvers: controlled folding
steps, residual elimination and spring relaxation.  It takes the
constraint matrix as ``RowBlocks`` only: dense row blocks, each on its own
short list of columns, which is how assembly produces C (one 3 x degree
block per vertex).  Products ``C @ x`` and ``C^T @ y`` are summed from the
blocks.  Rank is decided on the Gram matrix of the free columns C_F, whose
eigenvalues are the squared singular values of C_F: eigenvalues at or
below ``DEFAULT_CUTOFF * lambda_max * n`` count as zero, with n the column
count of C.  This is the engine's one rank rule, written once in
``_kept``: ``kinematics.dof`` counts with it too, every column free.

The solve has three branches.  For a tall C_F the band w is read from the
structure: the widest span, first to last free column, of a row block.  Cut
into blocks of w columns, N = C_F^T C_F is block-tridiagonal, and with at
least three blocks its diagonal and super-diagonal blocks are formed
straight from the row blocks.  Where their entries land depends only on
the blocks' columns and the free set: that layout is computed once per
free set and shared by every matrix with the same blocks (``_Layout``; an
assembly's is its compiled pattern's), so a factorization pays for its
Gram products and one ``bincount``.  Both band branches run one kernel, a
windowed sweep that counts the eigenvalues of N below a shift (a block
LDL^T with a computed rounding bound beta) while it factors a shifted N.

- Certified band: one sweep factors N and stops at the first window that
  fails; a sweep that completes counts no eigenvalue below the
  certificate's shift and, with beta under the margin between the shift
  and the cutoff, certifies full rank.  The factors are kept on the
  ``RowBlocks`` (every L_k^{-1}, inverted by 2 x 2 blocks, and two
  coupling products), and the normal equations are solved on them by
  matrix products.  A later solve on the same matrix with the same fixed
  columns reuses them for its own r and f: the Newton loop in
  ``sequential`` takes its chord steps this way.
- Deflated band: when the certificate fails, as at the flat states where
  the closure condition degenerates, a second sweep counts at the same
  shift and factors a slightly shifted N, so a flat-seed iterate sweeps its
  band twice.  Inverse iteration and Rayleigh-Ritz on those factors find
  the null space, the count proves the gap around the cutoff, and
  refinement on the same factors gives the minimum-norm step.  Nothing of
  it outlives the solve.
- Row-space eigh: every other C_F (a wide one, a tall one of fewer than
  three blocks, or one whose deflated solve proves nothing: an eigenvalue
  near the cutoff, a null space it does not capture) is built dense once,
  and the step is ``dx_F = C_F^T y``, y solved on the kept eigenvectors of
  ``C_F C_F^T``.  Its nonzero eigenvalues are those of N, so the rank rule
  is the same, and the step lies in the row space of C_F to rounding.

Only the row-space solve reads a dense C.  Constraint matrices here
are expressed in radians, so a tight relative cutoff is safe.

No engine path calls an SVD.  The SVD routines (pseudoinverse,
minimum-norm solve, rank) are kept only for the benchmark's tracer, which
looks them up by name, and for the tests' references; they cut singular
values below ``cutoff * sigma_max * max(rows, cols)``.
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


def pseudoinverse(m):
    """Moore-Penrose pseudoinverse of ``m`` with the shared cutoff policy."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _check_finite(m)
    u, s, vt, keep = _svd(m, DEFAULT_CUTOFF)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def min_norm_solve(m, b):
    """Minimum-Euclidean-norm least-squares solution of ``m @ x = b``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    b = np.asarray(b, dtype=float)
    _check_finite(m)
    _check_finite(b)
    if b.shape[0] != m.shape[0]:
        raise ValueError(f"shape mismatch: {m.shape} @ x = {b.shape}")
    u, s, vt, keep = _svd(m, DEFAULT_CUTOFF)
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

    What the blocks' columns alone fix is a ``_Layout``: ``layout`` shares
    one between matrices whose groups have the same columns in the same
    order (``assemble_global`` passes the compiled pattern's,
    ``scale_columns`` its own), and one is built for these blocks when it
    is not given.
    """

    def __init__(self, shape, groups, layout=None):
        self.shape = tuple(shape)
        self.groups = tuple(groups)
        if layout is None:
            layout = _Layout(cols for _, cols, _ in self.groups)
        self._layout = layout
        self._dense = None
        self._kept = {}  # free-column mask bytes: certified band factors

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
        weight = [np.zeros(0)]
        for rows, _, vals in self.groups:
            weight.append((y[rows][:, None, :] @ vals).reshape(-1))
        return np.bincount(self._layout.columns, np.concatenate(weight), minlength=self.shape[1])

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
        ], self._layout)


class _Layout:
    """What the columns of a ``RowBlocks``' blocks fix, computed once.

    ``columns`` is every block's columns in order, the index ``rmatvec``
    sums into.  ``band(free)`` is the ``_band_layout`` of one free-column
    set, built on its first use and kept, keyed by the free mask's bytes.
    """

    def __init__(self, cols):
        self.cols = tuple(cols)
        self.columns = np.concatenate(
            [np.zeros(0, dtype=np.intp)] + [c.reshape(-1) for c in self.cols]
        )
        self._bands = {}

    def band(self, free):
        key = free.tobytes()
        if key not in self._bands:
            self._bands[key] = _band_layout(self.cols, free)
        return self._bands[key]


def free_column_solve(c, r, fixed, f):
    """Least-squares increment for ``c @ dx = -r`` with ``dx[fixed] = f`` exactly.

    ``c`` is a ``RowBlocks``; anything else raises ``TypeError`` before any
    check or solve.  dx_F on the free columns F is the minimum-norm
    least-squares solution of ``C_F dx_F = b`` with ``b = -(r + C_A f)``, A
    being the fixed columns; b is formed once, from the blocks.  Rank is
    decided on the Gram matrix of C_F: eigenvalues at or below
    ``DEFAULT_CUTOFF * lambda_max * n`` count as zero.

    When C_F has at least as many rows as columns and its band
    (``_gram_band``) cuts the free columns into at least three blocks, ``N =
    C_F^T C_F`` is formed as its diagonal and super-diagonal blocks, and two
    band solves are tried in turn:

    - ``_band_factor`` certifies in one sweep that none of the eigenvalues
      counts as zero and factors N; the factors solve ``N dx_F = C_F^T b``
      and are kept on ``c`` (``RowBlocks.certified``), so that the next
      solve on ``c`` with the same fixed columns skips the sweep;
    - if that certificate fails, ``_deflated_band_solve`` proves which
      eigenvalues count as zero, deflates their eigenvectors and solves on
      the rest, refined from the residual of C_F itself.

    Every other C_F, wide or tall, is solved in its row space: ``dx_F = C_F^T
    y``, with y on the kept eigenvectors of ``M = C_F C_F^T``, whose nonzero
    eigenvalues are those of N, refined once against the residual of C_F
    itself.  With no free columns or no rows, dx_F is zero.
    """
    if not isinstance(c, RowBlocks):
        raise TypeError(f"constraint matrix must be RowBlocks, got {type(c).__name__}")
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
    # Forming dx_F from C_F^T keeps it in the row space to rounding, where
    # eigenvectors of C_F^T C_F would leak eps * cond(C_F)^2 of it into the
    # null space.  Squaring C_F blurs its small kept singular directions, so
    # y is corrected once from the unsquared residual of C_F.
    c_free = c.dense[:, free]
    w, v = _kept_eigh(c_free @ c_free.T, n)
    y = v @ ((v.T @ b) / w)
    y += v @ ((v.T @ (b - c_free @ (c_free.T @ y))) / w)
    dx[free] = c_free.T @ y
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
        band = _gram_band(c, free)
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


def _gram_band(c, free):
    """The band of ``N = C_F^T C_F`` in blocks, or None below three blocks.

    ``free`` is the free-column mask.  Returns the (K, w, 2w) array whose
    ``[k, :, :w]`` is diagonal block k of N and ``[k, :, w:]`` its
    super-diagonal block k, zero past the last free column, laid out by the
    ``_band_layout`` that ``c`` keeps for ``free``: each row block's Gram
    matrix is one batched product of its entries, the layout picks the
    entries that fall in the band, and one ``bincount`` sums them into
    place.
    """
    layout = c._layout.band(free)
    if layout is None:
        return None
    shape, index, picks = layout
    weight = [
        (vals.transpose(0, 2, 1) @ vals).reshape(-1)[pick]
        for (_, _, vals), pick in zip(c.groups, picks)
    ]
    band = np.bincount(index, np.concatenate(weight), minlength=shape[0] * shape[1] * shape[2])
    return band.reshape(shape)


def _band_layout(cols, free):
    """Where ``_gram_band`` puts each row block's Gram entries, from the
    blocks' columns ``cols`` and the free-column mask alone; None below
    three blocks.

    The band w of C_F is the widest span, first to last free column, of a
    row block of C; a block whose columns are all fixed has none.  Cut into
    consecutive blocks of w columns, no row touches two blocks that are not
    adjacent, so N is block-tridiagonal, and with K blocks its band has the
    shape (K, w, 2w).  Returns that shape, the band position of every kept
    Gram entry in order, and per group the flat positions in its (V, k, k)
    Gram stack of the entries kept: each entry (i, j) with i free and j in
    the block of i or the next one.
    """
    n_free = int(np.count_nonzero(free))
    # free index of every column of C, -1 for a fixed one
    pos = np.cumsum(free) - 1
    pos[~free] = -1
    free_pos = [pos[c] for c in cols]
    width = 0
    for p in free_pos:
        # first to last free column of each block, negative when all are fixed
        span = p.max(axis=1) - np.where(p < 0, n_free, p).min(axis=1) + 1
        width = max(width, int(span.max(initial=0)))
    if not width or n_free <= 2 * width:
        return None
    index, picks = [], []
    for p in free_pos:
        i, j = p[:, :, None], p[:, None, :]
        start = i // width * width  # first column of the block holding i
        keep = (i >= 0) & (j >= start)
        # row i of the band, column j - start: diagonal, then super-diagonal
        index.append((2 * width * i + j - start)[keep])
        picks.append(np.flatnonzero(keep))
    blocks = -(-n_free // width)
    return (blocks, width, 2 * width), np.concatenate(index), picks


def _band_inf_norm(band):
    """``||N||_inf``, the largest absolute row sum of N, from its band: a
    row of block k sums its diagonal and super-diagonal blocks and column
    of super-diagonal block k - 1."""
    w = band.shape[1]
    magnitude = abs(band)
    sums = magnitude.sum(axis=2)
    sums[1:] += magnitude[:-1, :, w:].sum(axis=1)
    return sums.max()


def _band_sweep(band, n_free, shift, keep):
    """Count the eigenvalues of N below ``shift`` and factor ``N + keep I``
    in one sweep over the band of block-tridiagonal N on n_free columns.

    Returns ``(count, beta, factors)``, factors being every L_k and every
    coupling, or None when rounding could change the count or ``N + keep
    I`` does not factor.  One stacked Cholesky factors both members, the
    counted ``N - shift I`` and the kept ``N + keep I``, in window ``[[S_k,
    E_k], [E_k^T, D_{k+1}]]`` (S_K alone at the end): S_k is what the
    blocks before k leave of D_k, and the window's coupling ``E_k^T
    L_k^{-T}`` gives the next S.  The last block is padded to w columns by
    a decoupled diagonal, the largest row sum of a diagonal block: the pad
    leaves the other entries of the factors as they are and solves to zero.

    The count is a block LDL^T: by Haynsworth's inertia additivity the
    negative eigenvalues of the pivots S_k are those of ``N - shift I``.
    Step k rounds by at most ``beta_k = w^2 eps M_k``, M_k the largest
    absolute row sum of D_k, plus shift, plus the growth ``tr(E^T |S|^{-1}
    E)`` carried in from block k - 1, which bounds what formed S_k.  The
    counted pivot is factored as ``S_k - beta_k I``: a factor proves S_k
    positive and carries on, the sweep then being exact for D_k moved by
    beta_k.  A sweep that keeps N itself (``keep == 0``) returns None at
    the first window that fails, so the count it returns is zero.  Only a
    sweep keeping ``N + keep I`` with ``keep > 0`` counts on past a failing
    window: the kept member carries on alone and the counted one block by
    block, a pivot that does not factor is eigendecomposed, an eigenvalue
    within beta_k of zero proves nothing, and the signs of the others are
    counted.  The count is exact for ``N - shift I + E``, E block
    tridiagonal with ``||E|| <= 4 beta``, beta the largest beta_k, and no
    eigenvalue of ``N + E`` is farther than ``||E||`` from one of N (Weyl).
    """
    blocks, w = band.shape[:2]
    eye = np.eye(w)
    row_sums = np.abs(band[:, :, :w]).sum(axis=2).max(axis=1)
    # diagonal blocks of the counted and the kept member
    diag = band[:, :, :w] + np.multiply.outer([-shift, keep], eye)[:, None]
    pad = np.arange(n_free - (blocks - 1) * w, w)
    diag[:, -1, pad, pad] += row_sums.max()
    # lower triangles only: np.linalg.cholesky reads nothing else
    window = np.zeros((2, 2 * w, 2 * w))
    window[:, :w, :w] = diag[:, 0]
    # the diagonal of the counted member's pivot, a view
    pivot_diagonal = np.einsum("ii->i", window[0, :w, :w])
    low_diag = np.empty((blocks, w, w))
    below = np.empty((blocks - 1, w, w))
    # window[lead:] are the members still factored in windows
    lead, count, growth, beta = 0, 0, 0.0, 0.0
    for k in range(blocks):
        rounding = w * w * _EPS * (row_sums[k] + shift + growth)
        beta = max(beta, rounding)
        size = 2 * w if k + 1 < blocks else w
        if k + 1 < blocks:
            window[:, w:, :w] = band[k, :, w:].T
            window[:, w:, w:] = diag[:, k + 1]
        pivot_diagonal -= rounding
        while True:
            try:
                low = np.linalg.cholesky(window[lead:, :size, :size])
                break
            except np.linalg.LinAlgError:
                if lead or not keep:
                    return None
                lead = 1
        low_diag[k] = low[-1, :w, :w]
        if k + 1 < blocks:
            coupling = low[:, w:, :w]
            below[k] = coupling[-1]
            window[lead:, :w, :w] = window[lead:, w:, w:] - coupling @ coupling.transpose(0, 2, 1)
            if not lead:
                growth = float(np.vdot(coupling[0], coupling[0]))
        if lead:
            try:
                y = np.linalg.solve(np.linalg.cholesky(window[0, :w, :w]), band[k, :, w:])
                lam = np.ones(w)
            except np.linalg.LinAlgError:
                lam, q = np.linalg.eigh(window[0, :w, :w] + rounding * eye)
                if np.abs(lam).min() <= rounding:
                    return None
                count += int(np.count_nonzero(lam < 0))
                y = q.T @ band[k, :, w:]
            if k + 1 < blocks:
                window[0, :w, :w] = diag[0, k + 1] - y.T @ (y / lam[:, None])
                growth = float(np.sum(y * y / np.abs(lam)[:, None]))
    return count, beta, (low_diag, below)


def _solve_form(low_diag, below):
    """``_band_cholesky_solve``'s form of ``_band_sweep`` factors (numpy has
    no triangular solve): every L_k^{-1}, from one ``_lower_inverse`` of the
    stack, and ``L_{k+1}^{-1} B_k^T`` and ``L_k^{-T} B_k``, ``B_k = L_k^{-1}
    E_k``."""
    inv = _lower_inverse(low_diag)
    return inv, inv[1:] @ below, inv[:-1].transpose(0, 2, 1) @ below.transpose(0, 2, 1)


def _lower_inverse(low):
    """Inverses of a stack of lower-triangular matrices, by 2 x 2 blocks.

    ``[[L_11, 0], [L_21, L_22]]^{-1}`` is ``[[L_11^{-1}, 0], [-L_22^{-1}
    L_21 L_11^{-1}, L_22^{-1}]]``: the diagonal halves are inverted the same
    way, the coupling takes two batched products, and the block above it
    stays exactly zero.  Leaves of at most 8 rows go through one batched
    ``np.linalg.inv``.
    """
    w = low.shape[-1]
    if w <= 8:
        return np.linalg.inv(low)
    h = w // 2
    top = _lower_inverse(low[:, :h, :h])
    bottom = _lower_inverse(low[:, h:, h:])
    inv = np.zeros_like(low)
    inv[:, :h, :h] = top
    inv[:, h:, h:] = bottom
    inv[:, h:, :h] = -(bottom @ (low[:, h:, :h] @ top))
    return inv


def _band_factor(band, n_free, n):
    """Kept block Cholesky factors of block-tridiagonal N when its full rank
    is certified, else None.

    N is given by its ``_gram_band``.  The certificate is one
    ``_band_sweep`` that counts the eigenvalues below ``2 tau lam_hi``,
    ``tau = DEFAULT_CUTOFF * n``, with ``lam_hi = ||N||_inf >=
    lambda_max``, and keeps N: it stops at the first window that fails, so
    a sweep that completes counts zero.  With the sweep's rounding ``4 beta
    < tau lam_hi`` that proves ``lambda_min > 2 tau lam_hi - 4 beta > tau
    lambda_max``: no eigenvalue is at or below the cutoff.  Any other
    outcome proves nothing; the caller tries ``_deflated_band_solve``.
    """
    lam_hi = _band_inf_norm(band)
    tau = DEFAULT_CUTOFF * n
    swept = _band_sweep(band, n_free, 2.0 * tau * lam_hi, 0.0)
    if swept is None or 4.0 * swept[1] >= tau * lam_hi:
        return None
    return _solve_form(*swept[2])


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


def _band_cholesky_solve(factors, rhs):
    """``(N + keep I)^{-1} rhs`` from the kept factors of a ``_band_sweep``;
    rhs has ``K w`` rows, one or more columns."""
    inv, forward, back = factors
    blocks, w = inv.shape[:2]
    y = inv @ rhs.reshape(blocks, w, -1)
    for k in range(1, blocks):
        y[k] -= forward[k - 1] @ y[k - 1]
    x = inv.transpose(0, 2, 1) @ y
    for k in range(blocks - 2, -1, -1):
        x[k] -= back[k] @ x[k + 1]
    return x.reshape(rhs.shape)


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
    6.3), on one ``_band_sweep`` that counts the eigenvalues below the
    certificate's ``2 tau lam_hi`` and keeps ``N + mu I``, ``mu = 1e-11
    lam_hi``:

    - three inverse iterations on a deterministic start block of four
      columns (Weyl sequences ``frac(i sqrt(p))``, p = 2, 3, 5, 7), then
      Rayleigh-Ritz on ``Z^T N Z``, keep as Z the Ritz vectors whose values
      are at or below ``tau lam_lo``.  The k-th Ritz value bounds the k-th
      eigenvalue from above, so at least ``len(Z)`` eigenvalues count as
      zero;
    - the sweep must count exactly ``len(Z)`` eigenvalues with its rounding
      below ``tau lam_hi / 4``: the rest of the spectrum lies above ``tau
      lam_hi``, so the rule keeps it;
    - ``x = P (N + mu I)^{-1} P g`` with ``P = I - Z Z^T``, then four
      refinement steps ``x <- x + P (N + mu I)^{-1} P (g - N x)``, the
      residual ``g - N x = C_F^T (b - C_F x)`` taken unsquared from
      ``residual(x)``.  Each step shrinks the error on a kept eigenvector
      of eigenvalue lambda by ``mu / (lambda + mu) <= q = mu / (tau lam_hi
      + mu)``, so after the last step, dx, at most ``q / (1 - q) ||dx||``
      is left; it must be below ``n_free eps ||x||``.

    Any other outcome, ``N + mu I`` failing to factor included, proves
    nothing: the caller falls back to the row-space solve on the dense C_F.
    With the certificate's own sweep in ``_band_factor``, an iterate that
    reaches this solve sweeps its band twice.
    """
    blocks, w = band.shape[:2]
    n_free = len(g)
    tau = DEFAULT_CUTOFF * n
    lam_lo = band[:, range(w), range(w)].max()
    lam_hi = _band_inf_norm(band)
    shift = 1e-11 * lam_hi
    swept = _band_sweep(band, n_free, 2.0 * tau * lam_hi, shift)
    if swept is None or 4.0 * swept[1] >= tau * lam_hi:
        return None
    count, factors = swept[0], _solve_form(*swept[2])
    z = np.zeros((blocks * w, 4))
    z[:n_free] = np.arange(1, n_free + 1)[:, None] * np.sqrt([2.0, 3.0, 5.0, 7.0]) % 1.0 - 0.5
    for _ in range(3):
        z = np.linalg.qr(_band_cholesky_solve(factors, z))[0]
    theta, u = np.linalg.eigh(z.T @ _band_matmul(band, z))
    null = z @ u[:, theta <= tau * lam_lo]
    if count != null.shape[1]:
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


def _kept(w, n):
    """Which of the ascending eigenvalues ``w`` of a Gram matrix of C the
    solves keep: those above ``DEFAULT_CUTOFF * lambda_max * n``, n the
    column count of C.  An empty spectrum keeps nothing."""
    if not w.size:
        return np.zeros(0, dtype=bool)
    return w > DEFAULT_CUTOFF * w[-1] * n


def _kept_eigh(gram, n):
    """Eigenpairs of ``gram`` that ``_kept`` keeps."""
    w, v = np.linalg.eigh(gram)
    keep = _kept(w, n)
    return w[keep], v[:, keep]


def rank(m, cutoff=DEFAULT_CUTOFF):
    """Number of singular values above the cutoff."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _check_finite(m)
    _, _, _, keep = _svd(m, cutoff)
    return int(np.count_nonzero(keep))
