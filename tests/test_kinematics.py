import math
import warnings

import numpy as np
import pytest

from oracles import (
    crease_transform,
    loop_closure,
    rot_x,
    rot_z,
    stacked_factors,
    svd_dof,
    vertex_closure_derivatives,
    vertex_jacobian,
    vertex_residual,
    waterbomb_symmetric_oracle,
)
from rigidfold import (
    assemble_global,
    build_vertex_fans,
    dof,
    generate_crane,
    generate_miura,
    generate_waterbomb_base,
    generate_waterbomb_tessellation,
)
from rigidfold.kinematics import compile_pattern
from rigidfold.pattern import CreasePattern, VertexFan
from rigidfold.sequential import flat_state_seed


def random_fan(rng, n):
    cuts = np.sort(rng.uniform(0, 2 * math.pi, n - 1))
    angles = np.concatenate([[0.0], cuts, [2 * math.pi]])
    sectors = np.diff(angles)
    sectors = sectors[sectors > 1e-3]
    while len(sectors) < 3:
        sectors = np.array([2.0, 2.0, 2 * math.pi - 4.0])
    return VertexFan(0, tuple(range(len(sectors))), sectors)


class TestCreaseTransform:
    def test_zero_fold_is_z_rotation(self):
        theta = 0.7
        assert np.allclose(crease_transform(theta, 0.0), rot_z(theta), atol=1e-15)

    def test_zero_sector_is_x_rotation(self):
        rho = -1.2
        assert np.allclose(crease_transform(0.0, rho), rot_x(rho), atol=1e-15)

    def test_orthogonal_proper(self):
        m = crease_transform(math.pi / 2, math.pi / 2)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-15)
        assert abs(np.linalg.det(m) - 1.0) < 1e-14
        assert np.allclose(m, rot_z(math.pi / 2) @ rot_x(math.pi / 2), atol=1e-15)


class TestLoopClosure:
    def test_flat_state_closes(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 6, 8):
            fan = random_fan(rng, n)
            f = loop_closure(fan, np.zeros(fan.degree))
            assert np.linalg.norm(f - np.eye(3)) < 1e-12

    def test_always_proper_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            fan = random_fan(rng, int(rng.integers(3, 9)))
            rho = rng.uniform(-math.pi, math.pi, fan.degree)
            f = loop_closure(fan, rho)
            assert np.linalg.norm(f @ f.T - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(f) - 1.0) < 1e-12

    def test_waterbomb_oracle_state_closes(self):
        fan = VertexFan(0, tuple(range(8)), np.full(8, math.pi / 4))
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        rho = np.array([rm, rv] * 4)
        assert np.linalg.norm(loop_closure(fan, rho) - np.eye(3)) < 1e-6
        assert abs(rv - 1.7908) < 1e-4  # tabulated value for theta = 5*pi/8

    def test_miura_analytic_relation_closes(self):
        # odd-row vertex: sectors (pi-a, a, a, pi-a), slants equal, straight
        # pair opposite, tan(h/2) = cos(a) tan(slant/2)
        alpha = math.pi / 3
        fan = VertexFan(0, (0, 1, 2, 3),
                        np.array([math.pi - alpha, alpha, alpha, math.pi - alpha]))
        rho1 = math.radians(-90.0)
        h = 2 * math.atan(math.cos(alpha) * math.tan(rho1 / 2))
        rho = np.array([h, rho1, -h, rho1])
        assert np.linalg.norm(loop_closure(fan, rho) - np.eye(3)) < 1e-9

    def test_wrong_length_rejected(self):
        fan = VertexFan(0, (0, 1, 2), np.array([2.0, 2.0, 2 * math.pi - 4.0]))
        with pytest.raises(ValueError):
            loop_closure(fan, np.zeros(4))


class TestVertexResidual:
    def test_flat_zero(self):
        fan = VertexFan(0, tuple(range(4)),
                        np.array([1.0, 2.0, 1.5, 2 * math.pi - 4.5]))
        assert np.allclose(vertex_residual(fan, np.zeros(4)), 0.0, atol=1e-15)

    def test_compatible_miura_small(self):
        alpha = math.pi / 3
        fan = VertexFan(0, (0, 1, 2, 3),
                        np.array([math.pi - alpha, alpha, alpha, math.pi - alpha]))
        rho1 = -0.9
        h = 2 * math.atan(math.cos(alpha) * math.tan(rho1 / 2))
        assert np.linalg.norm(vertex_residual(fan, [h, rho1, -h, rho1])) < 1e-9

    def test_first_order_perturbation(self):
        alpha = math.pi / 3
        fan = VertexFan(0, (0, 1, 2, 3),
                        np.array([math.pi - alpha, alpha, alpha, math.pi - alpha]))
        rho1 = -0.9
        h = 2 * math.atan(math.cos(alpha) * math.tan(rho1 / 2))
        rho = np.array([h, rho1, -h, rho1])
        jac = vertex_jacobian(fan, rho)
        eps = 1e-3
        for j in range(4):
            bump = rho.copy()
            bump[j] += eps
            r = vertex_residual(fan, bump)
            predicted = np.linalg.norm(jac[:, j]) * eps
            assert np.linalg.norm(r) == pytest.approx(predicted, rel=0.1)


class TestVertexJacobian:
    def finite_difference(self, fan, rho, h=1e-6):
        jac = np.zeros((3, fan.degree))
        for j in range(fan.degree):
            hi, lo = np.array(rho, dtype=float), np.array(rho, dtype=float)
            hi[j] += h
            lo[j] -= h
            diff = (loop_closure(fan, hi) - loop_closure(fan, lo)) / (2 * h)
            jac[:, j] = (diff[2, 1], diff[0, 2], diff[1, 0])
        return jac

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            fan = random_fan(rng, int(rng.integers(3, 8)))
            rho = rng.uniform(-math.pi + 0.1, math.pi - 0.1, fan.degree)
            assert np.allclose(
                vertex_jacobian(fan, rho), self.finite_difference(fan, rho),
                atol=1e-6,
            )

    def test_antisymmetric_at_compatible_state(self):
        alpha = math.pi / 3
        fan = VertexFan(0, (0, 1, 2, 3),
                        np.array([math.pi - alpha, alpha, alpha, math.pi - alpha]))
        rho1 = -1.3
        h = 2 * math.atan(math.cos(alpha) * math.tan(rho1 / 2))
        rho = np.array([h, rho1, -h, rho1])
        assert np.linalg.norm(vertex_residual(fan, rho)) < 1e-9
        for df in vertex_closure_derivatives(fan, rho):
            assert np.linalg.norm(df + df.T) < 1e-9

    def test_flat_degenerate_third_row(self):
        alpha = math.pi / 3
        fan = VertexFan(0, (0, 1, 2, 3),
                        np.array([alpha, math.pi - alpha, math.pi - alpha, alpha]))
        jac = vertex_jacobian(fan, np.zeros(4))
        assert np.allclose(jac[2], 0.0, atol=1e-15)
        assert np.linalg.norm(jac[:2]) > 0.1


class TestAssembleGlobal:
    def test_miura_dimensions(self, miura33):
        gc = assemble_global(miura33, np.zeros(60))
        assert gc.C.shape == (75, 60)
        assert gc.r.shape == (75,)

    def test_waterbomb_dimensions(self, waterbomb):
        gc = assemble_global(waterbomb, np.zeros(8))
        assert gc.C.shape == (3, 8)

    def test_flat_residual_zero(self, miura33):
        gc = assemble_global(miura33, np.zeros(60))
        assert np.allclose(gc.r, 0.0, atol=1e-15)
        assert gc.normalized_residual < 1e-15

    def test_size_mismatch(self, miura33, crane):
        """Worded as the solvers' start-state check words it."""
        with pytest.raises(ValueError, match=r"^fold state has 59 angles, pattern has 60 creases$"):
            assemble_global(miura33, np.zeros(59))
        with pytest.raises(ValueError, match=r"^fold state has 21 angles, pattern has 20 creases$"):
            assemble_global(crane, np.zeros(21))

    def test_permutation_equivariance(self, miura11):
        p = miura11
        rho = flat_state_seed(p, 0.2)
        gc = assemble_global(p, rho)

        rng = np.random.default_rng(4)
        perm = rng.permutation(len(p.vertices))
        verts2 = np.zeros_like(p.vertices)
        verts2[perm] = p.vertices
        creases2 = [(perm[c.a], perm[c.b], c.assignment) for c in p.creases]
        boundary2 = [(perm[a], perm[b]) for a, b in p.boundary]
        facets2 = [[perm[v] for v in f] for f in p.facets]
        p2 = CreasePattern(verts2, creases2, boundary2, facets2)

        col_map = {}  # old crease index -> new crease index
        for i, c in enumerate(p.creases):
            key = tuple(sorted((perm[c.a], perm[c.b])))
            col_map[i] = p2.crease_index[key]
        rho2 = np.zeros(p2.n_creases)
        for i, j in col_map.items():
            rho2[j] = rho[i]
        gc2 = assemble_global(p2, rho2)

        old_rows = {v: k for k, v in enumerate(p.interior_vertex_ids)}
        new_rows = {v: k for k, v in enumerate(p2.interior_vertex_ids)}
        for v_old, r_old in old_rows.items():
            r_new = new_rows[perm[v_old]]
            for i, j in col_map.items():
                assert np.allclose(
                    gc2.C[3 * r_new: 3 * r_new + 3, j],
                    gc.C[3 * r_old: 3 * r_old + 3, i],
                    atol=1e-12,
                )

    @pytest.mark.parametrize("make", [
        generate_crane, lambda: generate_miura(4, 3),
        lambda: generate_waterbomb_tessellation(5, 3),
    ], ids=["crane", "miura4x3", "tess5x3"])
    def test_affine_factors_are_the_stacked_products(self, make):
        """Every degree group's rotations and its factors ``A_0 + c A_1 + s
        A_2`` are the stacked reference's ``Rz(theta) Rx(rho)`` bit for bit;
        the derivatives ``c A_2 - s A_1`` equal ``Rz(theta) dRx(rho)``, up to
        the sign of an exact zero, which no sum in the Jacobian keeps."""
        p = make()
        fans = build_vertex_fans(p)
        rng = np.random.default_rng(17)
        for group in compile_pattern(p).groups:
            theta = np.array([fans[k].sector_angles for k in group.rows[:, 0] // 3])
            for rho in (rng.uniform(-math.pi, math.pi, p.n_creases),
                        rng.uniform(-0.1, 0.1, p.n_creases), np.full(p.n_creases, math.pi)):
                angle = rho[group.factor_ids]
                rz, factors, derivs = stacked_factors(theta, angle)
                assert group.rz.tobytes() == rz.tobytes()
                _, (c, s, kept_factors, _) = group.residual(rho)
                assert kept_factors.tobytes() == factors.tobytes()
                _, a1, a2 = group.parts
                assert np.array_equal(c[..., None, None] * a2 - s[..., None, None] * a1, derivs)


# pattern, seed magnitude in degrees (0: exactly flat) and the DOF there
DOF_CASES = {
    "miura3x3-flat": (lambda: generate_miura(3, 3), 0, 10),
    "miura3x3-1deg": (lambda: generate_miura(3, 3), 1, 1),
    "waterbomb-1deg": (generate_waterbomb_base, 1, 5),
    "crane-1deg": (generate_crane, 1, 5),
    "tess2x2-1deg": (lambda: generate_waterbomb_tessellation(2, 2), 1, 8),
    "tess2x2-10deg": (lambda: generate_waterbomb_tessellation(2, 2), 10, 9),
}


class TestDof:
    @pytest.mark.parametrize("case", DOF_CASES)
    def test_matches_svd_count(self, case):
        """The solve's eigenvalue rule, counted on the Gram matrix, against
        the same rule on the singular values of a dense SVD."""
        build, degrees, expected = DOF_CASES[case]
        p = build()
        rho = flat_state_seed(p, math.radians(degrees)) if degrees else np.zeros(p.n_creases)
        gc = assemble_global(p, rho)
        assert dof(gc) == svd_dof(gc.C) == expected

    def test_no_rows(self):
        """A crease with no interior vertex: C has no rows, so every crease
        is free."""
        p = CreasePattern(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 2, "V"]],
            [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2], [0, 2, 3]],
        )
        gc = assemble_global(p, np.zeros(1))
        assert gc.C.shape == (0, 1)
        assert dof(gc) == svd_dof(gc.C) == 1

    def test_miura_single_dof(self, miura33):
        rho = flat_state_seed(miura33, math.radians(1.0))
        assert dof(assemble_global(miura33, rho)) == 1

    def test_waterbomb_five(self, waterbomb):
        rho = flat_state_seed(waterbomb, math.radians(1.0))
        assert dof(assemble_global(waterbomb, rho)) == 5

    def test_no_creases(self):
        p = CreasePattern(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [],
            [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2, 3]],
        )
        gc = assemble_global(p, np.zeros(0))
        assert dof(gc) == 0


def test_fold_range_warns_but_continues():
    from rigidfold.kinematics import check_fold_range

    with pytest.warns(UserWarning, match="exceed"):
        check_fold_range(np.array([0.1, -3.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # at the limit: silent
        check_fold_range(np.array([0.1, math.pi, -math.pi]))


def test_jacobian_reuse_consistency(miura33, miura_run, waterbomb, wb_tess,
                                   crane, crane_run):
    """Assembled rows must equal per-fan jacobians scattered by global index.

    The inputs mix fan degrees: 4 (Miura), 8 (waterbomb base), 6 and 4 in
    one pattern (tessellation) and the crane's fans, each at random
    compatible and random incompatible states.
    """
    rng = np.random.default_rng(245)
    miura_states, crane_states = miura_run["traj"].states, crane_run["traj"].states
    compatible = {
        "miura": [miura_states[k] for k in rng.integers(0, len(miura_states), 3)],
        "waterbomb": [
            wb_symmetric(waterbomb, t) for t in rng.uniform(0.1, 2.3, 3)
        ],
        "tessellation": [
            flat_state_seed(wb_tess, math.radians(d)) for d in rng.uniform(0.5, 5, 3)
        ],
        "crane": [crane_states[k] for k in rng.integers(0, len(crane_states), 3)],
    }
    patterns = {
        "miura": miura33, "waterbomb": waterbomb,
        "tessellation": wb_tess, "crane": crane,
    }
    degrees = set()
    for name, p in patterns.items():
        fans = build_vertex_fans(p)
        degrees |= {fan.degree for fan in fans}
        incompatible = [rng.uniform(-math.pi, math.pi, p.n_creases) for _ in range(3)]
        for rho in compatible[name] + incompatible:
            gc = assemble_global(p, rho, fans)
            for k, fan in enumerate(fans):
                ids = list(fan.crease_ids)
                rows = gc.C[3 * k: 3 * k + 3]
                block = rows[:, ids]
                assert np.abs(block - vertex_jacobian(fan, rho[ids])).max() <= 1e-14
                assert np.abs(
                    gc.r[3 * k: 3 * k + 3] - vertex_residual(fan, rho[ids])
                ).max() <= 1e-14
                others = np.delete(rows, ids, axis=1)
                assert not np.any(others), name
    assert {4, 6, 8} <= degrees


def wb_symmetric(p, theta):
    rm, rv = waterbomb_symmetric_oracle(theta)
    s = np.zeros(p.n_creases)
    s[p.meta["mountains"]] = rm
    s[p.meta["valleys"]] = rv
    return s
