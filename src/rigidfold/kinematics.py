"""Loop-closure constraints around interior vertices and their assembly.

A fold state is a plain float vector of fold angles (radians), one entry per
crease in canonical order.  Valley folds are positive, mountain folds
negative.  Around each interior vertex the chained sector/fold rotations must
compose to the identity; the three independent entries of that matrix give a
residual per vertex, and the analytic derivative gives the constraint rows.
Assembly computes the residual and keeps the closure factors and their
prefix products; the constraint matrix C follows from them on first access,
one 3 x degree block per vertex (``numerics.RowBlocks``), so a Newton step
on a kept factorization pays for the residual alone.  The dense C is built
only when something asks for it.  ``dof`` counts the degrees of freedom with
the free-column solve's rank rule, the one rule of the engine, so no path
here calls an SVD.
"""

import warnings

import numpy as np

from .numerics import RowBlocks, _kept
from .pattern import _one_each, build_vertex_fans

FOLD_RANGE_SLACK = 1e-6


class GlobalConstraint:
    """Linearized constraint system C @ drho = -r at the evaluation point.

    ``r`` is computed by assembly, and with it ``normalized_residual``, its
    norm over the row count; nothing changes ``r`` later.  ``blocks`` holds
    C as one group per fan degree n: the crease ids (V, n), the row ids (V,
    3) and the entries (V, 3, n) of its V vertices, computed on first access
    from the closure factors and prefix products assembly kept.  The dense
    ``C`` is built from the blocks on first use and kept.
    """

    def __init__(self, shape, evaluated, r):
        self.r = r
        rows = len(r)
        self.normalized_residual = float(np.linalg.norm(r)) / rows if rows else 0.0
        self._shape = shape
        self._evaluated = evaluated  # (degree group, what its residual kept)
        self._blocks = None

    @property
    def blocks(self):
        """C as a ``numerics.RowBlocks``, computed on first access and kept."""
        if self._blocks is None:
            self._blocks = RowBlocks(self._shape, [
                (group.rows, group.factor_ids, group.jacobian(*kept))
                for group, kept in self._evaluated
            ])
            self._evaluated = None
        return self._blocks

    @property
    def C(self):
        """The dense constraint matrix, built on first use and kept."""
        return self.blocks.dense


def check_fold_range(rho):
    """Warn about fold angles past the physical range; never raises."""
    rho = np.asarray(rho, dtype=float)
    over = np.abs(rho) > np.pi + FOLD_RANGE_SLACK
    if np.any(over):
        worst = float(np.abs(rho).max())
        warnings.warn(
            f"{int(over.sum())} fold angle(s) exceed [-pi, pi] (max |rho| = {worst:.6f})",
            stacklevel=2,
        )


# index of the three independent entries (3,2), (1,3), (2,1) in a matrix stack
_INDEPENDENT = (..., [2, 0, 1], [1, 2, 0])


def _stacked(shape, entries):
    """Stack of 3x3 matrices: the given {(i, j): values} entries, zero elsewhere."""
    out = np.zeros(shape + (3, 3))
    for (i, j), value in entries.items():
        out[..., i, j] = value
    return out


class _DegreeGroup:
    """Every fan of one degree n, stacked for batched closure products.

    ``rz[v, k]`` is the constant sector rotation Rz(theta_k) of fan v, and
    ``factor_ids[v, k]`` the crease whose fold angle enters factor k, which
    is crease k+1 of the fan (cyclic).  ``rows[v, j]`` are the rows of C and
    r of the three closure entries of fan v.
    """

    def __init__(self, fans, positions):
        ids = np.array([fan.crease_ids for fan in fans], dtype=np.intp)
        self.degree = ids.shape[1]
        self.factor_ids = np.roll(ids, -1, axis=1)
        theta = np.array([fan.sector_angles for fan in fans], dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        self.rz = _stacked(
            theta.shape, {(0, 0): c, (0, 1): -s, (1, 0): s, (1, 1): c, (2, 2): 1.0}
        )
        self.rows = 3 * np.asarray(positions, dtype=np.intp)[:, None] + np.arange(3)

    def residual(self, rho):
        """Residuals (V, 3) of every fan, and what ``jacobian`` needs: the
        cosines and sines of the fold angles, the factors and their prefix
        products."""
        n = self.degree
        angle = rho[self.factor_ids]
        c, s = np.cos(angle), np.sin(angle)
        rx = _stacked(
            angle.shape, {(0, 0): 1.0, (1, 1): c, (1, 2): -s, (2, 1): s, (2, 2): c}
        )
        factors = self.rz @ rx
        prefix = np.empty((len(angle), n + 1, 3, 3))
        prefix[:, 0] = np.eye(3)
        for k in range(n):
            prefix[:, k + 1] = prefix[:, k] @ factors[:, k]
        return prefix[:, n][_INDEPENDENT], (c, s, factors, prefix)

    def jacobian(self, c, s, factors, prefix):
        """Jacobian entries (V, 3, n) of every fan, from what ``residual``
        kept.

        The factors and their prefix and suffix products are multiplied in
        the same order as in the per-vertex reference
        ``vertex_closure_derivatives`` of ``tests/oracles.py``, so both give
        the same numbers.
        """
        n = self.degree
        drx = _stacked(c.shape, {(1, 1): -s, (1, 2): -c, (2, 1): c, (2, 2): -s})
        suffix = np.empty_like(prefix)
        suffix[:, n] = np.eye(3)
        for k in range(n - 1, -1, -1):
            suffix[:, k] = factors[:, k] @ suffix[:, k + 1]
        derivs = prefix[:, :n] @ (self.rz @ drx) @ suffix[:, 1:]
        return derivs[_INDEPENDENT].transpose(0, 2, 1)


class CompiledPattern:
    """Constant data a pattern's solvers and embeddings need, computed once.

    Holds the vertex fans grouped by degree, with their sector rotations,
    crease ids and row indices, the flat pattern coordinates lifted to z =
    0, and the spanning trees built so far, keyed by root facet.  Get it through
    ``compile_pattern``, which caches it on the (immutable) pattern.
    """

    def __init__(self, p):
        fans = build_vertex_fans(p)
        self.rows = 3 * len(fans)
        by_degree = {}
        for k, fan in enumerate(fans):
            by_degree.setdefault(fan.degree, []).append(k)
        self.groups = [
            _DegreeGroup([fans[k] for k in ks], ks)
            for _, ks in sorted(by_degree.items())
        ]
        self.flat = np.hstack([p.vertices, np.zeros((len(p.vertices), 1))])
        self.flat.flags.writeable = False
        self.trees = {}


def compile_pattern(p):
    """The compiled form of ``p``, built on first use and kept on ``p``."""
    compiled = getattr(p, "_compiled", None)
    if compiled is None:
        compiled = p._compiled = CompiledPattern(p)
    return compiled


def assemble_global(p, rho, fans=None):
    """Every vertex's closure rows and residuals in one global system.

    Evaluated from the pattern's compiled form, one batch per fan degree:
    the residuals now, the constraint blocks on first access of
    ``blocks``.  ``fans`` is accepted for compatibility and not used; when
    passed it must be ``build_vertex_fans(p)``.
    """
    rho = _one_each(rho, "fold state has {} angles", p.n_creases)
    compiled = compile_pattern(p)
    r = np.zeros(compiled.rows)
    evaluated = []
    for group in compiled.groups:
        res, kept = group.residual(rho)
        r[group.rows] = res
        evaluated.append((group, kept))
    return GlobalConstraint((compiled.rows, p.n_creases), evaluated, r)


def dof(constraint):
    """Kinematic degrees of freedom: nullity of the constraint matrix.

    The rank is counted with the free-column solve's rule, every column
    free: the eigenvalues of the smaller Gram matrix of C (``C C^T`` when C
    has fewer rows than columns, else ``C^T C``) that ``numerics._kept``
    keeps.
    """
    c = constraint.C
    rows, n = c.shape
    gram = c @ c.T if rows < n else c.T @ c
    return n - int(np.count_nonzero(_kept(np.linalg.eigvalsh(gram), n)))
