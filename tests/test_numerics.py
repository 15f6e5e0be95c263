import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import bordered_solve, normal_rounding_bound, normal_solve
from rigidfold import build_vertex_fans, generate_miura, min_norm_solve, pseudoinverse, rank
from rigidfold.kinematics import assemble_global
from rigidfold.numerics import (
    DEFAULT_CUTOFF,
    _full_rank_certified,
    _gram_blocks,
    free_column_solve,
)
from rigidfold.sequential import flat_state_seed


def penrose_defect(m, mp):
    scale = max(np.linalg.norm(m), 1.0)
    return max(
        np.linalg.norm(m @ mp @ m - m) / scale,
        np.linalg.norm(mp @ m @ mp - mp) / max(np.linalg.norm(mp), 1.0),
        np.linalg.norm((m @ mp).T - m @ mp) / scale,
        np.linalg.norm((mp @ m).T - mp @ m) / scale,
    )


def test_pinv_identity():
    assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-14)


def test_pinv_rank_deficient_diagonal():
    m = np.diag([2.0, 0.0])
    assert np.allclose(pseudoinverse(m), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_penrose_on_constraint_matrix(miura33):
    rho = flat_state_seed(miura33, 0.3)
    gc = assemble_global(miura33, rho)
    mp = pseudoinverse(gc.C)
    assert np.linalg.norm(gc.C @ mp @ gc.C - gc.C) < 1e-10
    assert penrose_defect(gc.C, mp) < 1e-9


def test_pinv_penrose_random():
    rng = np.random.default_rng(7)
    for shape in ((5, 9), (9, 5), (6, 6)):
        m = rng.standard_normal(shape)
        assert penrose_defect(m, pseudoinverse(m)) < 1e-9


def test_pinv_rejects_nonfinite():
    with pytest.raises(ValueError):
        pseudoinverse(np.array([[1.0, np.nan]]))


def test_min_norm_symmetric_split():
    x = min_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_min_norm_square_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)
    assert np.allclose(m @ min_norm_solve(m, b), b, atol=1e-10)


def test_min_norm_is_minimal():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 9))
    b = m @ rng.standard_normal(9)
    x = min_norm_solve(m, b)
    assert np.linalg.norm(m @ x - b) < 1e-11
    mp = pseudoinverse(m)
    nullproj = np.eye(9) - mp @ m
    # minimal-norm solution has no nullspace component
    assert np.linalg.norm(nullproj @ x) < 1e-12
    for _ in range(5):
        z = nullproj @ rng.standard_normal(9)
        assert np.linalg.norm(x + z) >= np.linalg.norm(x) - 1e-12


def test_min_norm_zero_rhs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 7))
    assert np.array_equal(min_norm_solve(m, np.zeros(4)), np.zeros(7))


def test_min_norm_inconsistent_gives_least_squares():
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 2.0])
    assert np.allclose(min_norm_solve(m, b), [1.0, 0.0], atol=1e-14)


def test_min_norm_shape_mismatch():
    with pytest.raises(ValueError):
        min_norm_solve(np.eye(3), np.zeros(4))


def test_rank_zero_matrix():
    assert rank(np.zeros((4, 6))) == 0


def test_rank_waterbomb(waterbomb):
    rho = flat_state_seed(waterbomb, 0.3)
    gc = assemble_global(waterbomb, rho)
    assert rank(gc.C, 1e-9) == 3


def test_rank_flat_miura_degenerate(miura33):
    gc = assemble_global(miura33, np.zeros(miura33.n_creases))
    # third rows vanish at the flat state
    assert rank(gc.C, 1e-9) < 3 * miura33.n_interior_vertices
    assert rank(gc.C, 1e-9) < miura33.n_creases


def test_rank_permutation_invariant():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 8))
    m[2] = m[0] + m[1]  # force deficiency
    r = rank(m)
    assert r == 4
    pr = rng.permutation(5)
    pc = rng.permutation(8)
    assert rank(m[pr][:, pc]) == r


def free_blocks(c, fixed):
    """The Gram blocks the free-column solve forms for C_F."""
    return _gram_blocks(np.delete(c, fixed, axis=1))


class TestFullRankCertificate:
    """The shifted-Cholesky certificate against the eigenvalue cutoff.

    C_F = U diag(sigma) V^T is tall with sigma_max = 1 and
    sigma_min^2 = ratio * tau, tau = DEFAULT_CUTOFF * n, so the eigenvalue
    rule keeps every direction for ratio > 1, and the certificate needs
    ratio > 2 * lam_hi / lambda_max >= 2.
    """

    ROWS, FREE = 14, 6
    RATIOS = (0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 600.0)
    BLOCKS = 1

    def cases(self):
        """(ratio, C, r, fixed, f) with no fixed column and with three."""
        rng = np.random.default_rng(2024)
        for _ in range(10):
            for n_fixed in (0, 3):
                n = self.FREE + n_fixed
                fixed = np.sort(rng.choice(n, n_fixed, replace=False))
                free = np.setdiff1d(np.arange(n), fixed)
                for ratio in self.RATIOS:
                    u, _ = np.linalg.qr(rng.standard_normal((self.ROWS, self.FREE)))
                    v, _ = np.linalg.qr(rng.standard_normal((self.FREE, self.FREE)))
                    sigma = np.geomspace(1.0, np.sqrt(ratio * DEFAULT_CUTOFF * n), self.FREE)
                    c = np.empty((self.ROWS, n))
                    c[:, free] = (u * sigma) @ v.T
                    c[:, fixed] = rng.standard_normal((self.ROWS, n_fixed))
                    r = rng.normal(0.0, 0.02, self.ROWS)
                    yield ratio, c, r, fixed, rng.normal(0.0, 0.02, n_fixed)

    def certified(self, c, fixed):
        diag, upper = free_blocks(c, fixed)
        assert len(diag) == self.BLOCKS
        return _full_rank_certified(diag, upper, c.shape[1])

    def test_never_certifies_a_deficient_matrix(self):
        for ratio, c, _, fixed, _ in self.cases():
            n = c.shape[1]
            c_free = np.delete(c, fixed, axis=1)
            w = np.linalg.eigvalsh(c_free.T @ c_free)
            full = w[0] > DEFAULT_CUTOFF * w[-1] * n
            certified = self.certified(c, fixed)
            assert full or not certified, ratio
            if ratio <= 2.0:
                assert not certified, ratio
            if ratio in (1.5, 2.0):
                assert full, ratio
            if ratio == 600.0:
                assert certified, ratio

    def test_gray_zone_residual_and_fixed_columns(self):
        gray = 0
        for ratio, c, r, fixed, f in self.cases():
            n = c.shape[1]
            dx = free_column_solve(c, r, fixed, f)
            assert np.array_equal(dx[fixed], f), ratio
            # ratio 1 sits on the cutoff itself, where rounding picks the rank
            if fixed.size or ratio <= 1.0 or self.certified(c, fixed):
                continue
            w = np.linalg.eigvalsh(c.T @ c)
            assert w[0] > DEFAULT_CUTOFF * w[-1] * n, ratio
            # with no fixed column the bordered oracle's cutoff is the same rule
            ref, ref_rank = bordered_solve(SimpleNamespace(C=c, r=r), [], [])
            assert ref_rank == n, ratio
            res = np.linalg.norm(c @ dx + r)
            assert res <= np.linalg.norm(c @ ref + r) + 1e-12, ratio
            gray += 1
        assert gray >= 20


class TestBandedSolve:
    """The tall certified solve in blocks of the band of C_F, against one dense
    LU solve of the normal equations."""

    @pytest.fixture(scope="class", params=[5, 7])
    def miura_state(self, request):
        p = generate_miura(request.param, request.param)
        return p, assemble_global(p, flat_state_seed(p, math.radians(30.0)))

    @staticmethod
    def check(gc, fixed, f):
        n = gc.C.shape[1]
        diag, upper = free_blocks(gc.C, fixed)
        assert len(diag) > 2
        assert _full_rank_certified(diag, upper, n)
        dx = free_column_solve(gc.C, gc.r, fixed, f)
        ref = normal_solve(gc.C, gc.r, fixed, f)
        assert np.array_equal(dx[list(fixed)], f)
        assert np.abs(dx - ref).max() <= normal_rounding_bound(gc.C, fixed, ref)

    def test_fixed_columns_anywhere(self, miura_state):
        p, gc = miura_state
        n = p.n_creases
        band = len(free_blocks(gc.C, [])[0][0])
        assert band == 4 * p.meta["m"]  # canonical crease order
        rng = np.random.default_rng(17)
        for fixed in ([0], [n // 2], [n - 1], [band], [band - 1, band], [0, band, n - 1]):
            self.check(gc, fixed, rng.normal(0.0, 0.02, len(fixed)))

    def test_vertex_with_all_creases_fixed(self, miura_state):
        """Its rows of C_F are zero; they have no span, so the band stays."""
        p, gc = miura_state
        fans = build_vertex_fans(p)
        k = len(fans) // 2
        fixed = sorted(fans[k].crease_ids)
        assert not np.any(np.delete(gc.C, fixed, axis=1)[3 * k:3 * k + 3])
        self.check(gc, fixed, np.full(len(fixed), 0.01))

    def test_single_block_is_the_dense_lu_solve(self):
        rng = np.random.default_rng(5)
        for rows, cols, fixed in ((14, 6, []), (14, 9, [0, 4, 8]), (30, 30, [29])):
            c = rng.standard_normal((rows, cols))
            r = rng.normal(0.0, 0.02, rows)
            f = rng.normal(0.0, 0.02, len(fixed))
            assert len(free_blocks(c, fixed)[0]) == 1
            assert np.array_equal(free_column_solve(c, r, fixed, f), normal_solve(c, r, fixed, f))


class TestBlockCertificate(TestFullRankCertificate):
    """The certificate in blocks, on block-diagonal C_F with prescribed
    singular values: the same ratios, the same rule, several blocks."""

    BLOCKS = 4

    def cases(self):
        """(ratio, C, r, fixed, f) with C_F block-diagonal in BLOCKS blocks of
        ROWS x FREE, sigma_max = 1 and sigma_min^2 = ratio * tau."""
        rng = np.random.default_rng(2025)
        rows, cols = self.BLOCKS * self.ROWS, self.BLOCKS * self.FREE
        for _ in range(10):
            for n_fixed in (0, 3):
                n = cols + n_fixed
                fixed = np.sort(rng.choice(n, n_fixed, replace=False))
                free = np.setdiff1d(np.arange(n), fixed)
                for ratio in self.RATIOS:
                    sigma = rng.permutation(
                        np.geomspace(1.0, np.sqrt(ratio * DEFAULT_CUTOFF * n), cols)
                    ).reshape(self.BLOCKS, self.FREE)
                    c_free = np.zeros((rows, cols))
                    for k, s in enumerate(sigma):
                        u, _ = np.linalg.qr(rng.standard_normal((self.ROWS, self.FREE)))
                        v, _ = np.linalg.qr(rng.standard_normal((self.FREE, self.FREE)))
                        c_free[k * self.ROWS:(k + 1) * self.ROWS,
                               k * self.FREE:(k + 1) * self.FREE] = (u * s) @ v.T
                    c = np.empty((rows, n))
                    c[:, free] = c_free
                    c[:, fixed] = rng.standard_normal((rows, n_fixed))
                    r = rng.normal(0.0, 0.02, rows)
                    yield ratio, c, r, fixed, rng.normal(0.0, 0.02, n_fixed)

    def test_certified_solve_is_the_lu_normal_solve(self):
        certified = 0
        for ratio, c, r, fixed, f in self.cases():
            if self.certified(c, fixed):
                dx = free_column_solve(c, r, fixed, f)
                ref = normal_solve(c, r, fixed, f)
                assert np.abs(dx - ref).max() <= normal_rounding_bound(c, fixed, ref), ratio
                certified += 1
        assert certified >= 40
