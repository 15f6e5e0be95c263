import hashlib
import math

import numpy as np
import pytest

from oracles import miura_period_dims, period_frame_dims, tree_embedding
from rigidfold import (
    CreasePattern,
    build_spanning_tree,
    dihedral_angles,
    embed,
    flat_state_seed,
    generate_miura,
    measure_dimensions,
    poisson_ratio,
    rodrigues,
    waterbomb_symmetric_oracle,
    waterbomb_theta,
)
from rigidfold.sequential import FoldSchedule, Stage, run_schedule

TWO_FACETS = CreasePattern.from_edges(
    [(0, 0), (1, 0), (1, 1), (0, 1), (1, -1), (0, -1)],
    [(0, 1, "V")],
    [(1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)],
)


def wb_state(p, theta):
    rm, rv = waterbomb_symmetric_oracle(theta)
    s = np.zeros(8)
    s[p.meta["mountains"]] = rm
    s[p.meta["valleys"]] = rv
    return s


def angle_gap(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


class TestSpanningTree:
    def test_single_facet(self):
        p = CreasePattern(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [],
            [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2, 3]],
        )
        tree = build_spanning_tree(p, 0)
        assert tree.n_facets == 1
        assert tree.edges == ()

    def test_covers_all_facets(self, miura33):
        tree = build_spanning_tree(miura33, 0)
        assert len(tree.edges) == len(miura33.facets) - 1
        crossed = {e.crease for e in tree.edges}
        assert len(crossed) == len(tree.edges)  # each tree edge its own crease

    def test_axis_flips_with_root(self):
        t0 = build_spanning_tree(TWO_FACETS, 0)
        t1 = build_spanning_tree(TWO_FACETS, 1)
        assert t0.edges[0].axis == tuple(reversed(t1.edges[0].axis))

    def test_bad_root(self, miura33):
        with pytest.raises(ValueError):
            build_spanning_tree(miura33, 99)


class TestRodrigues:
    def test_identity(self):
        assert np.allclose(rodrigues(0.0, [0, 0, 1]), np.eye(3), atol=1e-15)

    def test_half_turn(self):
        assert np.allclose(
            rodrigues(math.pi, [0, 0, 1]), np.diag([-1.0, -1.0, 1.0]), atol=1e-12
        )

    def test_group_law(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            x, y = rng.uniform(-3, 3, 2)
            lhs = rodrigues(x, e) @ rodrigues(y, e)
            assert np.allclose(lhs, rodrigues(x + y, e), atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            rodrigues(1.0, [0, 0, 2])


class TestEmbed:
    def test_flat_is_pattern(self, miura33):
        e = embed(miura33, np.zeros(miura33.n_creases))
        assert np.allclose(e.coords[:, :2], miura33.vertices, atol=1e-12)
        assert np.allclose(e.coords[:, 2], 0.0, atol=1e-12)

    def test_valley_sign_convention(self):
        e = embed(TWO_FACETS, np.array([math.pi / 2]))
        # the moving facet rotates toward +z for a positive (valley) fold
        assert e.coords[4][2] > 0.9
        assert e.coords[5][2] > 0.9

    def test_matches_per_facet_loop(self, miura33, miura_run, crane, crane_run):
        cases = [(crane, s, 0) for s in crane_run["traj"].states]
        cases += [
            (miura33, s, root)
            for s in miura_run["traj"].states[::4]
            for root in (0, 7, len(miura33.facets) - 1)
        ]
        for p, s, root in cases:
            edges = build_spanning_tree(p, root).edges
            expected = tree_embedding(p, s, edges, root)
            assert np.array_equal(embed(p, s, root=root).coords, expected)

    def test_isometry(self, miura33, miura_run):
        s = miura_run["traj"].states[18]
        e = embed(miura33, s)
        for c in miura33.creases:
            flat = np.linalg.norm(miura33.vertices[c.b] - miura33.vertices[c.a])
            folded = np.linalg.norm(e.coords[c.b] - e.coords[c.a])
            assert abs(folded - flat) / flat < 1e-9
        for a, b in miura33.boundary:
            flat = np.linalg.norm(miura33.vertices[b] - miura33.vertices[a])
            folded = np.linalg.norm(e.coords[b] - e.coords[a])
            assert abs(folded - flat) / flat < 1e-9

    def test_sector_rigidity(self, miura33, miura_run):
        s = miura_run["traj"].states[24]
        e = embed(miura33, s)
        for cycle in miura33.facets:
            k = len(cycle)
            for i in range(k):
                o = cycle[i]
                u = cycle[(i - 1) % k]
                v = cycle[(i + 1) % k]
                def corner(coords):
                    d1 = coords[u] - coords[o]
                    d2 = coords[v] - coords[o]
                    cosang = np.dot(d1, d2) / (
                        np.linalg.norm(d1) * np.linalg.norm(d2)
                    )
                    return math.acos(np.clip(cosang, -1, 1))
                flat3 = np.hstack([miura33.vertices, np.zeros((49, 1))])
                assert abs(corner(e.coords) - corner(flat3)) < 1e-9

    def test_incompatible_rejected(self, miura33):
        bad = flat_state_seed(miura33, math.radians(1.0)).copy()
        bad[0] += 0.3
        with pytest.raises(ValueError, match="incompatible"):
            embed(miura33, bad)

    def test_nan_rejected(self, miura33):
        with pytest.raises(ValueError, match="non-finite"):
            embed(miura33, np.full(miura33.n_creases, np.nan))
        no_vertices = np.array([np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            embed(TWO_FACETS, no_vertices)

    def test_recorded_residual_above_tolerance_rejected(self, miura33):
        s = flat_state_seed(miura33, math.radians(1.0))
        with pytest.raises(ValueError, match=r"fold state incompatible \(residual 2\.000e-09\)"):
            embed(miura33, s, residual=2e-9)

    def test_nan_rejected_at_zero_residual(self, miura33):
        with pytest.raises(ValueError, match="non-finite"):
            embed(miura33, np.full(miura33.n_creases, np.nan), residual=0.0)

    def test_residual_measured_only_when_not_given(self, miura33, monkeypatch):
        import rigidfold.embedding as embedding

        calls = []
        real = embedding.assemble_global
        monkeypatch.setattr(
            embedding, "assemble_global", lambda *a: calls.append(1) or real(*a)
        )
        s = flat_state_seed(miura33, math.radians(1.0))
        given = embed(miura33, s, residual=0.0)
        assert calls == []
        measured = embed(miura33, s)
        assert calls == [1]
        assert np.array_equal(given.coords, measured.coords)

    def test_state_hash_is_sha256(self, miura33, miura_run):
        s = miura_run["traj"].states[5]
        e = embed(miura33, s)
        assert e.provenance["state_hash"] == hashlib.sha256(s.tobytes()).hexdigest()

    def test_root_invariance(self, miura33, miura_run):
        s = miura_run["traj"].states[12]
        e0 = embed(miura33, s, root=0)
        e7 = embed(miura33, s, root=7)
        rng = np.random.default_rng(37)
        idx = rng.integers(0, len(e0.coords), size=(40, 2))
        for i, j in idx:
            d0 = np.linalg.norm(e0.coords[i] - e0.coords[j])
            d7 = np.linalg.norm(e7.coords[i] - e7.coords[j])
            assert abs(d0 - d7) < 1e-9


class TestDihedral:
    def test_flat_zeros(self, miura33):
        e = embed(miura33, np.zeros(miura33.n_creases))
        assert np.allclose(dihedral_angles(miura33, e), 0.0, atol=1e-12)

    def test_round_trip(self, miura33, miura_run):
        for k in (1, 10, 20, 30):
            s = miura_run["traj"].states[k]
            back = dihedral_angles(miura33, embed(miura33, s))
            assert np.abs(back - s).max() < 1e-6

    def test_round_trip_flat_folded_crane(self, crane, crane_run):
        for end in crane_run["traj"].stage_ends:
            s = crane_run["traj"].states[end]
            back = dihedral_angles(crane, embed(crane, s))
            gaps = [angle_gap(a, b) for a, b in zip(back, s)]
            assert max(gaps) < 1e-6


class TestDimensions:
    def test_flat_extents(self, miura33):
        e = embed(miura33, np.zeros(miura33.n_creases))
        l, w, h = measure_dimensions(e)
        flat = miura33.vertices
        assert l == pytest.approx(flat[:, 0].max() - flat[:, 0].min(), abs=1e-12)
        assert w == pytest.approx(flat[:, 1].max() - flat[:, 1].min(), abs=1e-12)
        assert h == 0.0

    def test_flat_folded_height_zero(self, miura33, miura_run):
        s = miura_run["traj"].states[-1]
        _, _, h = period_frame_dims(embed(miura33, s).coords, 3, 3)
        assert h < 1e-3

    def test_matches_oracle_at_minus_90(self, miura33, miura_run):
        i1 = miura_run["rho1"]
        s = min(
            miura_run["traj"].states,
            key=lambda st: abs(st[i1] + math.pi / 2),
        )
        got = period_frame_dims(embed(miura33, s).coords, 3, 3)
        want = miura_period_dims(3, 3, 1.0, 1.0, math.pi / 3, s[i1])
        for g, w in zip(got[:2], want[:2]):
            assert abs(g - w) / w < 1e-8

    def test_width_monotone_in_period_frame(self, miura33, miura_run):
        # the exactly flat-folded endpoint is excluded: its row period
        # degenerates and the frame fallback relabels the in-plane axes
        states = miura_run["traj"].states[:-1]
        widths = [
            period_frame_dims(embed(miura33, s).coords, 3, 3)[1]
            for s in states
        ]
        assert all(b < a for a, b in zip(widths, widths[1:]))


class TestPoissonRatio:
    def test_gap_marker(self):
        series = poisson_ratio([(2.0, 1.0), (1.9, 1.0), (1.8, 0.9)])
        assert series[0] is None
        assert series[1] is not None

    def test_scale_invariance(self):
        base = [(2.0, 1.0), (1.8, 0.95), (1.7, 0.9)]
        doubled = [(2 * l, 2 * w) for l, w in base]
        assert poisson_ratio(base) == pytest.approx(poisson_ratio(doubled))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            poisson_ratio([(1.0, 1.0)])


class TestWaterbombTheta:
    def test_flat(self, waterbomb):
        e = embed(waterbomb, np.zeros(8))
        assert waterbomb_theta(waterbomb, e) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_rest_state(self, waterbomb):
        e = embed(waterbomb, wb_state(waterbomb, 5 * math.pi / 8))
        assert waterbomb_theta(waterbomb, e) == pytest.approx(
            5 * math.pi / 8, abs=1e-6
        )

    def test_downward_compact(self, waterbomb):
        e = embed(waterbomb, wb_state(waterbomb, 0.0))
        assert waterbomb_theta(waterbomb, e) == pytest.approx(0.0, abs=1e-6)

    def test_needs_waterbomb_metadata(self, miura33):
        e = embed(miura33, np.zeros(miura33.n_creases))
        with pytest.raises(ValueError):
            waterbomb_theta(miura33, e)
