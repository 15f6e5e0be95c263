import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    _band_inertia,
    bordered_solve,
    gram_blocks,
    kept_rounding_bound,
    kept_solve,
    normal_rounding_bound,
    normal_solve,
    row_blocks,
    vertex_jacobian,
)
from oracles import waterbomb_symmetric_oracle
from rigidfold import (
    FoldSchedule,
    SpringConfig,
    Stage,
    build_vertex_fans,
    crane_schedule,
    embed,
    generate_crane,
    generate_miura,
    generate_waterbomb_tessellation,
    relax,
    run_schedule,
    serialize_pattern,
)
from rigidfold.cli import main
from rigidfold.kinematics import assemble_global, compile_pattern
from rigidfold import numerics, sequential
from rigidfold.numerics import (
    DEFAULT_CUTOFF,
    RowBlocks,
    _band_factor,
    _band_inf_norm,
    _gram_band,
    free_column_solve,
    min_norm_solve,
    pseudoinverse,
    rank,
)
from rigidfold.pattern import VALLEY
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


def test_no_engine_path_calls_an_svd(monkeypatch, tmp_path, capsys, miura33, crane, waterbomb):
    """Seeding, schedules, relaxation, embedding and ``rigidfold info`` run
    with numpy's SVD raising: the engine decides every rank on Gram
    eigenvalues.  ``pinv`` and ``matrix_rank`` reach the SVD through the
    implementation module, so it is patched there too."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(getattr(np.linalg, "_linalg", np.linalg), "svd", refuse)
    driven = miura33.meta["driven_crease"]
    for p, schedule in (
        (miura33, FoldSchedule((Stage(targets={driven: math.radians(-60.0)}, steps=6),))),
        (crane, crane_schedule(crane)),
    ):
        seed = flat_state_seed(p, math.radians(1.0))
        traj = run_schedule(p, seed, schedule)
        assert embed(p, np.array(traj.states)).shape == (len(traj.states), len(p.vertices), 3)
    rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
    rest = np.zeros(8)
    rest[waterbomb.meta["mountains"]] = rm
    rest[waterbomb.meta["valleys"]] = rv
    cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
    result = relax(waterbomb, cfg, rho0=flat_state_seed(waterbomb, math.radians(1.0)))
    assert result.converged
    for name, p in (("crane", crane), ("miura", miura33)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_pattern(p))
        assert main(["info", "--pattern", str(path)]) == 0
    with pytest.raises(AssertionError, match="svd called"):
        rank(np.eye(2))


def free_band(c, fixed):
    """The Gram band the free-column solve forms for C_F, None for one dense
    block; ``c`` is a ``RowBlocks`` or a dense array."""
    if not isinstance(c, RowBlocks):
        c = row_blocks(c)
    free = np.ones(c.shape[1], dtype=bool)
    free[fixed] = False
    return _gram_band(c, free)


def band_certified(band, n, fixed):
    """The one-sweep certificate: whether the sweep factors N."""
    return _band_factor(band, n - len(fixed), n) is not None


class TestFullRankCertificate:
    """The shifted-Cholesky certificate against the eigenvalue cutoff.

    C_F = U diag(sigma) V^T is tall with sigma_max = 1 and
    sigma_min^2 = ratio * tau, tau = DEFAULT_CUTOFF * n, so the eigenvalue
    rule keeps every direction for ratio > 1, and the certificate needs
    ratio > 2 * lam_hi / lambda_max >= 2.  With one block (``BLOCKS = 1``)
    there is no certificate: every case is solved on the kept eigenvectors,
    and the gray-zone check covers them all.
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
        n = c.shape[1]
        band = free_band(c, fixed)
        if band is None:
            assert self.BLOCKS == 1
            return False
        assert len(band) == self.BLOCKS
        return band_certified(band, n, fixed)

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
            if ratio == 600.0 and self.BLOCKS > 1:
                assert certified, ratio

    def test_gray_zone_residual_and_fixed_columns(self):
        gray = 0
        for ratio, c, r, fixed, f in self.cases():
            n = c.shape[1]
            dx = free_column_solve(row_blocks(c), r, fixed, f)
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
    """The tall certified solve in blocks of the band of C_F, from the
    per-vertex blocks of assembly (structural band) and from the dense C
    (band read from the values), and the kept-eigenvector solve below three
    blocks, against one dense LU solve of the normal equations."""

    @pytest.fixture(scope="class", params=[5, 7])
    def miura_state(self, request):
        p = generate_miura(request.param, request.param)
        return p, assemble_global(p, flat_state_seed(p, math.radians(30.0)))

    @staticmethod
    def check(gc, fixed, f):
        n = gc.C.shape[1]
        ref = normal_solve(gc.C, gc.r, fixed, f)
        for c in (gc.blocks, row_blocks(gc.C)):
            band = free_band(c, fixed)
            assert len(band) > 2
            assert band_certified(band, n, fixed)
            dx = free_column_solve(c, gc.r, fixed, f)
            assert np.array_equal(dx[list(fixed)], f)
            assert np.abs(dx - ref).max() <= normal_rounding_bound(gc.C, fixed, ref)

    def test_fixed_columns_anywhere(self, miura_state):
        p, gc = miura_state
        n = p.n_creases
        band = free_band(gc.blocks, []).shape[1]
        assert band == free_band(gc.C, []).shape[1] == 4 * p.meta["m"]  # canonical crease order
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
        """One block of full rank: the kept-eigenvector solve is the LU
        solve to rounding."""
        rng = np.random.default_rng(5)
        for rows, cols, fixed in ((14, 6, []), (14, 9, [0, 4, 8]), (30, 30, [29])):
            c = rng.standard_normal((rows, cols))
            r = rng.normal(0.0, 0.02, rows)
            f = rng.normal(0.0, 0.02, len(fixed))
            assert free_band(c, fixed) is None
            dx = free_column_solve(row_blocks(c), r, fixed, f)
            ref = normal_solve(c, r, fixed, f)
            assert np.array_equal(dx[fixed], f)
            assert np.abs(dx - ref).max() <= normal_rounding_bound(c, fixed, ref)

    def test_two_blocks_are_one_dense_block(self):
        """A band of at least half the free columns leaves one window, all of
        N, so the dense kept-eigenvector solve runs."""
        rng = np.random.default_rng(8)
        c = np.zeros((40, 12))
        for i, row in enumerate(c):
            lo = i % 7
            row[lo:lo + 6] = rng.standard_normal(6)
        assert free_band(c, []) is None
        assert len(gram_blocks(c)[0]) == 2
        r = rng.normal(0.0, 0.02, 40)
        ref = normal_solve(c, r, [], [])
        assert np.abs(free_column_solve(row_blocks(c), r, [], []) - ref).max() <= normal_rounding_bound(
            c, [], ref
        )


class TestKeptFactorization:
    """A certified band factorization is kept on its blocks, and every later
    solve with the same fixed columns reuses it, whatever r and f."""

    @pytest.mark.parametrize("cells", [5, 7])
    def test_kept_factors_solve_several_right_hand_sides(self, cells, monkeypatch):
        p = generate_miura(cells, cells)
        gc = assemble_global(p, flat_state_seed(p, math.radians(30.0)))
        driven = p.meta["driven_crease"]
        calls = []
        real = numerics._band_factor

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(numerics, "_band_factor", counting)
        rng = np.random.default_rng(cells)
        blocks = gc.blocks
        for fixed in ([driven], [0, driven]):
            assert not blocks.certified(fixed)
            for k in range(5):
                r = gc.r if k == 0 else rng.normal(0.0, 0.02, len(gc.r))
                f = rng.normal(0.0, 0.02, len(fixed))
                dx = free_column_solve(blocks, r, fixed, f)
                assert blocks.certified(fixed)
                ref = normal_solve(gc.C, r, fixed, f)
                assert np.array_equal(dx[fixed], f)
                assert np.abs(dx - ref).max() <= normal_rounding_bound(gc.C, fixed, ref)
        # one factorization per fixed set; the second replaced the first
        assert len(calls) == 2
        assert not blocks.certified([driven])

    def test_deflated_solve_keeps_nothing(self, monkeypatch):
        """At the flat seed's first iterate, with no crease fixed, the
        mechanism is a null vector of N: the deflated solve runs and leaves
        nothing to reuse."""
        p = generate_miura(5, 5)
        gc = assemble_global(p, np.radians([
            1.0 if c.assignment == VALLEY else -1.0 for c in p.creases
        ]))
        solved = []
        real = numerics._deflated_band_solve
        monkeypatch.setattr(numerics, "_deflated_band_solve",
                            lambda *args: solved.append(real(*args)) or solved[-1])
        free_column_solve(gc.blocks, gc.r, [], [])
        assert len(solved) == 1 and solved[0] is not None
        assert not gc.blocks.certified([])


class TestLowerInverse:
    """The 2 x 2 block inverse of lower-triangular stacks against
    ``np.linalg.inv``: both are backward stable, so they differ by at most
    a small multiple of ``w eps cond(L)`` relative to the inverse."""

    @staticmethod
    def check(low):
        inv = numerics._lower_inverse(low)
        ref = np.linalg.inv(low)
        w = low.shape[-1]
        if w <= 8:  # a leaf is np.linalg.inv itself
            assert inv.tobytes() == ref.tobytes()
        cond = np.linalg.cond(low)
        eps = np.finfo(float).eps
        error = np.linalg.norm(inv - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert np.all(error <= 10 * w * eps * cond)
        assert np.all(np.abs(inv @ low - np.eye(w)).max(axis=(1, 2)) <= 10 * w * eps * cond)

    def test_random_stacks_of_every_size(self):
        """Sizes 1-40: the leaves, one split, and odd splits (9 -> 4 + 5,
        37 -> 18 + 19 -> 9 + 9 and 9 + 10)."""
        rng = np.random.default_rng(12)
        for w in range(1, 41):
            a = rng.standard_normal((3, w, w))
            self.check(np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(w)))

    def test_kept_factors_of_a_miura_drive_step(self, monkeypatch):
        """The L_k a certified solve of a Miura 7x7 drive step inverts, and
        the inverses it keeps."""
        p = generate_miura(7, 7)
        gc = assemble_global(p, flat_state_seed(p, math.radians(30.0)))
        seen = []
        real = numerics._solve_form
        monkeypatch.setattr(numerics, "_solve_form",
                            lambda low, below: seen.append(low) or real(low, below))
        fixed = [p.meta["driven_crease"]]
        free_column_solve(gc.blocks, gc.r, fixed, [0.01])
        assert gc.blocks.certified(fixed) and len(seen) == 1
        low = seen[0]
        assert low.shape == (13, 28, 28)
        self.check(low)
        kept = next(iter(gc.blocks._kept.values()))[0]
        assert kept.tobytes() == numerics._lower_inverse(low).tobytes()


class TestKeptLayout:
    """The band layout of each free-column set is computed once per pattern
    and shared by every assembly and ``scale_columns`` copy, and the solves
    on it are those on blocks that compute their layout afresh."""

    def test_alternating_fixed_sets(self, monkeypatch):
        p = generate_miura(5, 5)
        layouts = []
        real = numerics._band_layout
        monkeypatch.setattr(numerics, "_band_layout",
                            lambda *args: layouts.append(real(*args)) or layouts[-1])
        driven = p.meta["driven_crease"]
        rng = np.random.default_rng(8)
        shared = compile_pattern(p).layout
        first = {}  # fixed set: the layout its first solve computed
        for step in range(3):
            gc = assemble_global(p, flat_state_seed(p, math.radians(20.0 + 10.0 * step)))
            scale = rng.uniform(0.5, 2.0, p.n_creases)
            for c in (gc.blocks, gc.blocks.scale_columns(scale)):
                assert c._layout is shared
                for fixed in ([driven], [0, driven], [driven]):
                    f = rng.normal(0.0, 0.02, len(fixed))
                    dx = free_column_solve(c, gc.r, fixed, f)
                    assert c.certified(fixed)
                    free = np.ones(p.n_creases, dtype=bool)
                    free[fixed] = False
                    kept = shared._bands[free.tobytes()]
                    assert first.setdefault(tuple(fixed), kept) is kept
                    fresh = RowBlocks(c.shape, c.groups)
                    assert fresh._layout is not shared
                    assert free_column_solve(fresh, gc.r, fixed, f).tobytes() == dx.tobytes()
                    dense = c.dense
                    rebuilt = row_blocks(dense)
                    assert rebuilt._layout is not shared
                    assert np.abs(free_column_solve(rebuilt, gc.r, fixed, f) - dx).max() <= (
                        normal_rounding_bound(dense, fixed, dx))
        # one kept layout per fixed set, beside the seeds' with every crease free
        assert len(shared._bands) == 3
        assert sum(any(layout is kept for kept in shared._bands.values())
                   for layout in layouts) == 3

    def test_too_few_blocks_is_kept_too(self):
        """The crane's tall solves have fewer than three blocks: the layout
        keeps that verdict, and the solve goes to the dense eigenvectors."""
        p = generate_crane()
        gc = assemble_global(p, flat_state_seed(p, math.radians(10.0)))
        free = np.ones(p.n_creases, dtype=bool)
        free[:6] = False
        assert _gram_band(gc.blocks, free) is None
        assert gc.blocks._layout._bands == {free.tobytes(): None}


class TestRowBlocks:
    """The row-block storage of C against its dense forms."""

    @pytest.fixture(scope="class")
    def patterns(self):
        return [generate_miura(5, 5), generate_waterbomb_tessellation(3, 2), generate_crane()]

    def test_dense_is_the_per_vertex_assembly(self, patterns):
        """The lazily built dense C holds each vertex's Jacobian bit for bit."""
        rng = np.random.default_rng(31)
        for p in patterns:
            fans = build_vertex_fans(p)
            for rho in (rng.uniform(-math.pi, math.pi, p.n_creases), np.zeros(p.n_creases)):
                gc = assemble_global(p, rho)
                ref = np.zeros((3 * len(fans), p.n_creases))
                for k, fan in enumerate(fans):
                    ids = list(fan.crease_ids)
                    ref[3 * k:3 * k + 3, ids] = vertex_jacobian(fan, rho[ids])
                assert np.array_equal(gc.C, ref)
                assert gc.C is gc.C  # built once
                assert gc.normalized_residual == np.linalg.norm(gc.r) / len(ref)
                assert "normalized_residual" in vars(gc)  # computed with r, not per read

    def test_products_are_the_dense_products(self, patterns):
        """``blocks @ x`` and ``blocks.rmatvec(y)`` against ``dense @ x`` and
        ``dense.T @ y``.  Each entry of either is an inner product of at most
        k nonzero terms, k the most nonzeros in a row (column) of C, so the
        two differ elementwise by at most 2 gamma_k (|C| @ |x|) (Higham,
        Accuracy and Stability of Numerical Algorithms, section 3.1), below
        the bound checked here."""
        rng = np.random.default_rng(41)
        eps = np.finfo(float).eps

        def check(blocks):
            dense = blocks.dense
            nz = dense != 0
            for _ in range(3):
                x = rng.standard_normal(dense.shape[1])
                y = rng.standard_normal(dense.shape[0])
                k = nz.sum(axis=1).max(initial=0) + 1
                assert np.all(np.abs(blocks @ x - dense @ x)
                              <= 2 * k * eps * (np.abs(dense) @ np.abs(x)))
                k = nz.sum(axis=0).max(initial=0) + 1
                assert np.all(np.abs(blocks.rmatvec(y) - dense.T @ y)
                              <= 2 * k * eps * (np.abs(dense).T @ np.abs(y)))

        for p in patterns:
            for rho in (rng.uniform(-math.pi, math.pi, p.n_creases),
                        flat_state_seed(p, math.radians(30.0))):
                gc = assemble_global(p, rho)
                blocks = RowBlocks(gc.blocks.shape, gc.blocks.groups)
                check(blocks)
                assert np.array_equal(blocks.dense, gc.C)
        for shape in ((9, 7), (30, 45), (45, 30)):
            m = rng.standard_normal(shape) * (rng.random(shape) < 0.4)
            m[3] = 0.0
            check(row_blocks(m))
        assert np.array_equal(RowBlocks((4, 3), []) @ np.ones(3), np.zeros(4))
        assert np.array_equal(RowBlocks((4, 3), []).rmatvec(np.ones(4)), np.zeros(3))

    def test_from_dense_keeps_every_entry(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((9, 7)) * (rng.random((9, 7)) < 0.4)
        m[3] = 0.0
        blocks = row_blocks(m)
        assert np.array_equal(blocks.dense, m)
        assert np.array_equal(RowBlocks(m.shape, blocks.groups).dense, m)
        scale = rng.uniform(0.5, 2.0, 7)
        assert np.array_equal(blocks.scale_columns(scale).dense, m * scale)

    def test_conversion_gives_the_value_band_blocks(self):
        """Integer entries make every sum exact, so the band formed from the
        converted rows equals the value-band blocks of the dense C_F."""
        rng = np.random.default_rng(12)
        for cols, width, fixed in ((40, 6, []), (41, 5, [0, 17, 40]), (60, 9, [8, 9])):
            c = np.zeros((3 * cols, cols))
            for i, row in enumerate(c):
                lo = rng.integers(0, cols - width + 1)
                row[lo:lo + width] = rng.integers(-4, 5, width)
            c[5] = 0.0
            diag, upper = gram_blocks(np.delete(c, fixed, axis=1))
            band = free_band(c, fixed)
            w = band.shape[1]
            assert len(band) == len(diag) > 2
            for k, d in enumerate(diag):
                assert np.array_equal(band[k, :len(d), :len(d)], d)
            for k, e in enumerate(upper):
                assert np.array_equal(band[k, :, w:w + e.shape[1]], e)
            assert not np.any(band[-1, :, w:])

    def test_band_norm_is_the_largest_row_sum(self):
        """The certificate's lam_hi counts every block of a row of N, the
        transposed super-diagonal block on its left included."""
        p = generate_miura(5, 5)
        gc = assemble_global(p, flat_state_seed(p, math.radians(30.0)))
        for fixed in ([], [0, 20, 100]):
            c_free = np.delete(gc.C, fixed, axis=1)
            ref = np.abs(c_free.T @ c_free).sum(axis=1).max()
            assert _band_inf_norm(free_band(gc.blocks, fixed)) == pytest.approx(ref, rel=1e-14)
        # band 5; the largest row of N = I + a a^T is column 5, the first of
        # block 1, and two of its terms lie left of it in block 0
        c = np.vstack([np.eye(30), np.zeros(30)])
        c[-1, 3:8] = [1, 1, 10, 10, 10]
        band = free_band(c, [])
        assert band.shape == (6, 5, 10)
        assert _band_inf_norm(band) == np.abs(c.T @ c).sum(axis=1).max() == 321

    def test_structural_band_at_a_folded_state(self):
        """At a folded Miura state no Jacobian entry vanishes, so the band of
        the per-vertex blocks is the band of the values."""
        p = generate_miura(7, 7)
        gc = assemble_global(p, flat_state_seed(p, math.radians(30.0)))
        for fixed in ([], [p.meta["driven_crease"]], [0, 28, 100]):
            band = free_band(gc.blocks, fixed)
            dense = free_band(gc.C, fixed)
            assert band.shape == dense.shape
            assert np.abs(band - dense).max() <= 1e-15 * np.abs(dense).max()


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
                dx = free_column_solve(row_blocks(c), r, fixed, f)
                ref = normal_solve(c, r, fixed, f)
                assert np.abs(dx - ref).max() <= normal_rounding_bound(c, fixed, ref), ratio
                certified += 1
        assert certified >= 40


def planted(cols, values, rng, span=5):
    """Tall banded C with one planted direction per entry of ``values``.

    Each row of a random C0 spans ``span`` columns, and the first ``cols``
    rows cover their own column, which keeps C0 of full rank.  Each planted
    direction v_i is a unit vector on three consecutive columns of its own
    window; ``C0 - (C0 V) V^T`` makes every v_i a null vector, and a value
    ``lam_i > 0`` appends the row ``sqrt(lam_i) v_i^T``, so that ``C^T C
    v_i = lam_i v_i``.  Returns C and V.
    """
    c = np.zeros((3 * cols, cols))
    for i, row in enumerate(c):
        j = i % cols
        lo = rng.integers(max(0, j - span + 1), min(j, cols - span) + 1)
        row[lo:lo + span] = rng.standard_normal(span)
    v = np.zeros((cols, len(values)))
    for i, lo in enumerate(np.linspace(cols // 5, cols - cols // 5 - 3, len(values)).astype(int)):
        v[lo:lo + 3, i] = rng.standard_normal(3)
        v[:, i] /= np.linalg.norm(v[:, i])
    c = c - (c @ v) @ v.T
    extra = [np.sqrt(lam) * v[:, i] for i, lam in enumerate(values) if lam > 0]
    return np.vstack([c, *extra]), v


class TestDeflatedBandSolve:
    """The rank-deficient tall solve in the band: null-space deflation with a
    certified gap, against the SVD oracle, and its fallback to the dense
    eigendecomposition wherever the gap is not proved."""

    @staticmethod
    def dense_calls(monkeypatch):
        """Count the dense kept-eigenvector solves."""
        calls = []
        real = numerics._kept_eigh

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(numerics, "_kept_eigh", counting)
        return calls

    @staticmethod
    def check_oracle(c, r, fixed, f):
        """``c`` is a ``RowBlocks`` or a dense array."""
        if not isinstance(c, RowBlocks):
            c = row_blocks(c)
        dx = free_column_solve(c, r, fixed, f)
        c = c.dense
        ref = kept_solve(c, r, fixed, f)
        assert np.array_equal(dx[fixed], f)
        assert np.abs(dx - ref).max() <= kept_rounding_bound(c, fixed, ref)
        return dx

    def test_planted_null_space(self, monkeypatch):
        """One and two exact null directions, with and without fixed columns:
        no dense eigendecomposition runs, and the answer is the SVD
        oracle's, with no component on the null space."""
        calls = self.dense_calls(monkeypatch)
        rng = np.random.default_rng(21)
        for cols, dim, fixed in ((60, 1, []), (60, 2, []), (90, 2, [0, 45, 91]), (45, 1, [44])):
            c_free, v = planted(cols, [0.0] * dim, rng)
            n = cols + len(fixed)
            free = np.setdiff1d(np.arange(n), fixed)
            c = np.zeros((len(c_free), n))
            c[:, free] = c_free
            c[:, fixed] = rng.standard_normal((len(c_free), len(fixed)))
            band = free_band(c, fixed)
            assert len(band) >= 3 and not band_certified(band, n, fixed)
            w = np.linalg.eigvalsh(c_free.T @ c_free)
            assert np.count_nonzero(w <= DEFAULT_CUTOFF * w[-1] * n) == dim
            for scale in (0.02, 0.0):
                r = rng.normal(0.0, scale, len(c))
                f = rng.normal(0.0, 0.02, len(fixed))
                dx = self.check_oracle(c, r, fixed, f)
                assert np.abs(v.T @ dx[free]).max() <= 1e-14 * max(np.abs(dx).max(), 1e-300)
        assert calls == []

    @pytest.mark.parametrize("cells", [5, 7])
    def test_miura_flat_seed_iterates(self, cells, monkeypatch):
        """Every Newton iterate of a Miura flat seed drops one direction, the
        mechanism's, and is solved in the band within the rounding bound of
        the SVD oracle."""
        p = generate_miura(cells, cells)
        seen = []
        real = sequential.free_column_solve

        def recording(c, r, fixed, f):
            seen.append((c, r, np.asarray(fixed, dtype=int), np.asarray(f, dtype=float)))
            return real(c, r, fixed, f)

        monkeypatch.setattr(sequential, "free_column_solve", recording)
        flat_state_seed(p, math.radians(1.0))
        monkeypatch.undo()
        calls = self.dense_calls(monkeypatch)
        assert len(seen) >= 3
        for c, r, fixed, f in seen:
            n = p.n_creases
            assert not band_certified(free_band(c, fixed), n, fixed)
            c_free = np.delete(c.dense, fixed, axis=1)
            w = np.linalg.eigvalsh(c_free.T @ c_free)
            assert np.count_nonzero(w <= DEFAULT_CUTOFF * w[-1] * n) == 1
            # the assembly's blocks (structural band) and the dense C (value band)
            self.check_oracle(c, r, fixed, f)
            self.check_oracle(c.dense, r, fixed, f)
        assert calls == []

    def test_grey_zone_falls_back_to_the_dense_eigh(self, monkeypatch):
        """A planted eigenvalue between ``tau lam_lo`` and ``2 tau lam_hi``,
        where neither the Ritz test nor the inertia count proves the rank:
        one above the cutoff, which the rule keeps, and one at or below it,
        which the rule drops.  Each solve falls back to the dense eigh and
        returns its answer, for a zero and a random right-hand side."""
        rng = np.random.default_rng(8)
        cases = 0
        for cols in (48, 60):
            # the same C0 and v, with v a null vector and then an eigenvector
            c0, _ = planted(cols, [0.0], np.random.default_rng(cols))
            n0 = c0.T @ c0
            lam_max = np.linalg.eigvalsh(n0)[-1]
            lam_lo = n0.diagonal().max()
            tau = DEFAULT_CUTOFF * cols
            assert lam_lo < 0.9 * lam_max
            for lam in (1.5 * tau * lam_max, tau * np.sqrt(lam_lo * lam_max)):
                c, _ = planted(cols, [lam], np.random.default_rng(cols))
                band = free_band(c, [])
                assert not band_certified(band, cols, [])
                w = np.linalg.eigvalsh(c.T @ c)
                assert tau * c.T.dot(c).diagonal().max() < lam < 2 * tau * _band_inf_norm(band)
                for r in (np.zeros(len(c)), rng.normal(0.0, 0.02, len(c))):
                    monkeypatch.setattr(numerics, "_deflated_band_solve", lambda *a: None)
                    ref = free_column_solve(row_blocks(c), r, [], [])
                    monkeypatch.undo()
                    calls = self.dense_calls(monkeypatch)
                    assert np.array_equal(free_column_solve(row_blocks(c), r, [], []), ref)
                    assert calls == [1]
                    monkeypatch.undo()
                cases += 1
                # the rule keeps the planted direction exactly when it is above the cutoff
                kept = np.count_nonzero(w > DEFAULT_CUTOFF * w[-1] * cols)
                assert kept == cols - (lam <= DEFAULT_CUTOFF * w[-1] * cols)
        assert cases == 4

    def test_slow_refinement_falls_back(self, monkeypatch):
        """A kept eigenvalue just above the certificate's shift: the gap is
        proved, but four refinement steps contract the error by no more than
        ``mu / (lambda + mu)`` each, too little to converge, so the solve
        falls back to the dense eigh and returns its answer."""
        cols = 48
        c0, _ = planted(cols, [0.0, 0.0], np.random.default_rng(cols))
        lam_hi = _band_inf_norm(free_band(c0, []))
        c, _ = planted(cols, [0.0, 3.0 * DEFAULT_CUTOFF * cols * lam_hi],
                       np.random.default_rng(cols))
        r = np.random.default_rng(1).normal(0.0, 0.02, len(c))
        monkeypatch.setattr(numerics, "_deflated_band_solve", lambda *a: None)
        ref = free_column_solve(row_blocks(c), r, [], [])
        monkeypatch.undo()
        calls = self.dense_calls(monkeypatch)
        assert np.array_equal(free_column_solve(row_blocks(c), r, [], []), ref)
        assert calls == [1]
        monkeypatch.undo()
        # the certificate itself holds: one eigenvalue below the shift
        band = free_band(c, []).copy()
        blocks, w = band.shape[:2]
        lam_hi = _band_inf_norm(band)
        pad = np.arange(cols - (blocks - 1) * w, w)
        band[-1, pad, pad] = lam_hi
        assert _band_inertia(band, 2.0 * DEFAULT_CUTOFF * cols * lam_hi)[0] == 1

    def test_inertia_is_the_dense_count(self):
        """``_band_inertia`` counts the eigenvalues of N below a shift:
        against ``eigvalsh`` at the certificate's shift and half way between
        every two consecutive eigenvalues that rounding can tell apart, on
        planted spectra.  At a shift of zero, on an exact null space, the
        count may go either way, but only within its stated rounding."""
        rng = np.random.default_rng(3)
        for cols, values in ((60, [0.0]), (60, [0.0, 0.0]), (61, [0.0, 1e-9, 0.0]), (75, [])):
            c, _ = planted(cols, values, rng)
            band = free_band(c, []).copy()
            blocks, w = band.shape[:2]
            lam_hi = _band_inf_norm(band)
            pad = np.arange(cols - (blocks - 1) * w, w)
            band[-1, pad, pad] = lam_hi  # as the solves pad the last block
            eig = np.linalg.eigvalsh(c.T @ c)
            tau = DEFAULT_CUTOFF * cols
            count, beta = _band_inertia(band, 2 * tau * lam_hi)
            assert count == np.count_nonzero(eig < 2 * tau * lam_hi) == len(values)
            assert 4 * beta < tau * lam_hi
            for k in np.flatnonzero(np.diff(eig) > 1e-6 * eig[-1]):
                shift = 0.5 * (eig[k] + eig[k + 1])
                assert _band_inertia(band, shift)[0] == k + 1, k
            result = _band_inertia(band, 0.0)
            if result is not None:
                count, beta = result
                assert np.count_nonzero(eig < -4 * beta) <= count
                assert count <= np.count_nonzero(eig < 4 * beta)
            # a shift at an eigenvalue of the first pivot makes it singular
            assert _band_inertia(band, np.linalg.eigvalsh(band[0, :, :w])[2]) is None


class TestRowSpaceSolve:
    """Every C_F that neither band solve takes, tall or wide, is solved as
    ``dx_F = C_F^T y`` on the kept eigenvectors of ``C_F C_F^T``."""

    def test_tall_rank_deficient_step_stays_in_the_row_space(self, monkeypatch):
        """40 x 30 blocks of rank 20, singular values ``logspace(0, -3.5)``,
        with a consistent ``b = C z``: each goes through the dense solve and
        matches the SVD minimum-norm step to 1e-11 of its size, with no
        more than that of it on the null space."""
        calls = TestDeflatedBandSolve.dense_calls(monkeypatch)
        rng = np.random.default_rng(32)
        for case in range(40):
            u = np.linalg.qr(rng.standard_normal((40, 20)))[0]
            v = np.linalg.qr(rng.standard_normal((30, 20)))[0]
            c = (u * np.logspace(0, -3.5, 20)) @ v.T
            b = c @ rng.standard_normal(30)
            dx = free_column_solve(row_blocks(c), -b, [], [])
            ref = min_norm_solve(c, b)
            scale = np.abs(ref).max()
            assert np.abs(dx - ref).max() <= 1e-11 * scale, case
            null = np.linalg.svd(c)[2][20:]
            assert np.abs(null @ dx).max() <= 1e-11 * scale, case
        assert len(calls) == 40

    def test_crane_tall_solves_match_the_bordered_oracle(self, crane):
        """The crane's stage-2 and stage-3 solves, 15 rows on 14 and 10 free
        columns of ranks 8 and 6, are the bordered system's minimum-norm
        increments to 1e-12."""
        seen = []
        real = sequential.free_column_solve

        def recording(c, r, fixed, f):
            seen.append((c, r, fixed, f))
            return real(c, r, fixed, f)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequential, "free_column_solve", recording)
            run_schedule(crane, np.zeros(crane.n_creases), crane_schedule(crane))
        ranks = set()
        for c, r, fixed, f in seen:
            n_free = c.shape[1] - len(fixed)
            if c.shape[0] < n_free:
                continue
            ref, rank = bordered_solve(SimpleNamespace(C=c.dense, r=r), fixed, f)
            assert np.abs(free_column_solve(c, r, fixed, f) - ref).max() <= 1e-12
            ranks.add((c.shape[0], n_free, rank))
        assert ranks == {(15, 14, 8), (15, 10, 6)}


class TestBandSweep:
    """The one sweep behind both band solves: how many run, and the rounding
    margin of its count."""

    def test_flat_seed_iterate_sweeps_the_band_twice(self, monkeypatch):
        """The first iterate of a Miura 7x7 flat seed fails the certificate and
        is solved by the deflated band solve, with no dense eigendecomposition.
        A sweep over the band begins by factoring its first diagonal block,
        shifted on the diagonal only: two sweeps begin, the certificate's and
        the deflated solve's, each counting and factoring at once."""
        p = generate_miura(7, 7)
        gc = assemble_global(p, np.radians([
            1.0 if c.assignment == VALLEY else -1.0 for c in p.creases
        ]))
        band = free_band(gc.blocks, [])
        w = band.shape[1]
        off = ~np.eye(w, dtype=bool)
        first = band[0, :, :w][off]
        starts = []
        real = np.linalg.cholesky

        def counting(a):
            tops = np.asarray(a)[..., :w, :w].reshape(-1, w, w)
            if any(np.array_equal(top[off], first) for top in tops):
                starts.append(np.shape(a))
            return real(a)

        calls = TestDeflatedBandSolve.dense_calls(monkeypatch)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        free_column_solve(gc.blocks, gc.r, [], [])
        assert calls == []
        assert len(starts) == 2, starts

    def test_certificate_stops_at_its_first_failing_window(self, monkeypatch):
        """The certificate's sweep keeps N itself, so it returns at the first
        window that fails instead of counting on: while a Miura 7x7 flat
        seed runs, no pivot is eigendecomposed inside ``_band_factor``.  The
        deflated solve's Rayleigh-Ritz runs ``eigh`` outside it."""
        inside, eighs = [False], []
        real_eigh, real_factor = np.linalg.eigh, numerics._band_factor

        def eigh(*args):
            eighs.append(inside[0])
            return real_eigh(*args)

        def factor(*args):
            inside[0] = True
            try:
                return real_factor(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(numerics, "_band_factor", factor)
        flat_state_seed(generate_miura(7, 7), math.radians(1.0))
        assert eighs and not any(eighs)

    def test_count_refuses_a_pivot_within_its_rounding(self):
        """Block-diagonal N with exact diagonal blocks: a shift within the
        rounding beta of the first pivot's smallest eigenvalue proves
        nothing, although a plain Cholesky would factor that pivot; a shift
        2 beta below or above it counts 0 or 1."""
        w = 4
        band = np.zeros((3, w, 2 * w))
        band[:, range(w), range(w)] = [[1, 2, 3, 4], [2, 3, 4, 5], [2, 3, 4, 5]]
        count, beta = _band_inertia(band, 0.5)
        assert count == 0 and 0 < beta < 1e-12
        assert _band_inertia(band, 1.0 - 0.5 * beta) is None
        assert _band_inertia(band, 1.0 - 2.0 * beta)[0] == 0
        assert _band_inertia(band, 1.0 + 2.0 * beta)[0] == 1

    def test_band_solves_need_their_rounding_below_the_margin(self):
        """Blocks of w = 64 whose coupled pair ``[[I, a I], [a I, (a^2 + 100)
        I]]`` passes a growth of w a^2 to the second pivot: the count at the
        certificate's shift is zero, and the smallest eigenvalue of N is 5000
        times the cutoff, but the computed rounding 4 beta exceeds the margin
        ``tau lam_hi``, so the certificate proves nothing.  With one diagonal
        entry of the last block zeroed, the count finds the null direction,
        but the deflated solve proves nothing either."""
        w, a = 64, 100.0
        eye = np.eye(w)
        band = np.zeros((3, w, 2 * w))
        band[0, :, :w] = band[2, :, :w] = eye
        band[0, :, w:] = a * eye
        band[1, :, :w] = (a * a + 100.0) * eye
        n = 3 * w
        tau = DEFAULT_CUTOFF * n
        lam_hi = _band_inf_norm(band)
        pair = np.linalg.eigvalsh([[1.0, a], [a, a * a + 100.0]])
        assert pair[0] > 5000.0 * tau * pair[1]
        for null in (0, 1):
            band[2, 0, 0] = 1.0 - null
            count, beta = _band_inertia(band, 2.0 * tau * lam_hi)
            assert count == null and 4.0 * beta >= tau * lam_hi
            assert _band_factor(band, n, n) is None
            g = np.random.default_rng(null).standard_normal(n)

            def residual(x):
                return g - numerics._band_matmul(band, x)

            assert numerics._deflated_band_solve(band, g, residual, n) is None
