import math

import numpy as np
import pytest

from conftest import drive_miura_to_flat_fold
from oracles import (
    dihedral_angles,
    edge_loop_embedding,
    miura_period_dims,
    period_frame_dims,
    poisson_ratio,
    tree_embedding,
)
from rigidfold import (
    CreasePattern,
    build_spanning_tree,
    embed,
    flat_state_seed,
    generate_miura,
    measure_dimensions,
)
from rigidfold.kinematics import compile_pattern
from rigidfold.sequential import FoldSchedule, Stage, run_schedule
from test_pattern import split_square_pattern

TWO_FACETS = CreasePattern.from_edges(
    [(0, 0), (1, 0), (1, 1), (0, 1), (1, -1), (0, -1)],
    [(0, 1, "V")],
    [(1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)],
)


def angle_gap(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


class TestSpanningTree:
    def test_single_facet(self):
        p = CreasePattern(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [],
            [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2, 3]],
        )
        tree = build_spanning_tree(p, 0)
        assert len(tree.children) == len(tree.creases) == 0
        assert tree.depth_starts == ()
        assert tree.owners.tolist() == [0, 0, 0, 0]

    def test_covers_all_facets(self, miura33):
        tree = build_spanning_tree(miura33, 0)
        assert len(tree.creases) == len(miura33.facets) - 1
        assert sorted([0] + tree.children.tolist()) == list(range(len(miura33.facets)))
        crossed = set(tree.creases.tolist())
        assert len(crossed) == len(tree.creases)  # each tree edge its own crease

    def test_axis_flips_with_root(self):
        t0 = build_spanning_tree(TWO_FACETS, 0)
        t1 = build_spanning_tree(TWO_FACETS, 1)
        assert t0.axes.tolist() == t1.axes[:, ::-1].tolist() == [[1, 0]]

    def test_bad_root(self, miura33):
        with pytest.raises(ValueError, match=r"root facet 99 out of range \(pattern has 36"):
            build_spanning_tree(miura33, 99)

    @pytest.mark.parametrize("root, error, message", [
        (2.0, None, None),
        (np.int64(2), None, None),
        (1.5, ValueError, "non-integral index 1.5 in root facet"),
        (True, TypeError, "id True in root facet is not a number"),
        ("3", TypeError, "id '3' in root facet is not a number"),
    ], ids=["float", "numpy-int", "fraction", "bool", "string"])
    def test_root_is_a_facet_id(self, root, error, message):
        """A root facet follows the id rule: a whole number is its facet, a
        fraction, a bool or a string is refused, in ``embed`` as here."""
        p = generate_miura(2, 2)
        rho = np.zeros(p.n_creases)
        if error is None:
            tree = build_spanning_tree(p, root)
            assert tree is build_spanning_tree(p, 2)
            assert tree.root == 2 and type(tree.root) is int
            assert list(compile_pattern(p).trees) == [2]
            assert np.array_equal(embed(p, rho, root), embed(p, rho, 2))
        else:
            for call in (build_spanning_tree, lambda p, root: embed(p, rho, root)):
                with pytest.raises(error, match=message):
                    call(p, root)
            assert compile_pattern(p).trees == {}

    def test_built_once_per_root(self, crane):
        tree = build_spanning_tree(crane, len(crane.facets) - 1)
        assert build_spanning_tree(crane, len(crane.facets) - 1) is tree
        assert build_spanning_tree(crane, 0) is not tree

    def test_disconnected(self):
        with pytest.raises(ValueError, match="facet adjacency graph is disconnected"):
            build_spanning_tree(split_square_pattern(), 0)

    @pytest.mark.parametrize("pattern, depth", [("crane", 6), ("miura20", 78)])
    def test_levels_partition_edges_by_depth(self, crane, pattern, depth):
        """The per-edge arrays are read-only, and the edges of each depth
        are the contiguous slice from its start to the next: every child one
        deeper than its parent, whose depth is placed before."""
        p = crane if pattern == "crane" else generate_miura(20, 20)
        for root in (0, len(p.facets) - 1):
            tree = build_spanning_tree(p, root)
            n_edges = len(tree.creases)
            for a in (tree.children, tree.parents, tree.creases, tree.axes, tree.skew,
                      tree.skew_sq, tree.anchors, tree.owners):
                assert not a.flags.writeable
                assert len(a) == (len(p.vertices) if a is tree.owners else n_edges)
            starts = list(tree.depth_starts)
            assert starts[0] == 0 and starts == sorted(set(starts))
            facet_depth = {root: 0}
            for d, (lo, hi) in enumerate(zip(starts, starts[1:] + [n_edges]), start=1):
                for child, parent in zip(tree.children[lo:hi], tree.parents[lo:hi]):
                    assert facet_depth[parent] == d - 1  # parents placed first
                    facet_depth[child] = d
            assert len(facet_depth) == len(p.facets)
            if root == 0:
                assert len(tree.depth_starts) == depth


class TestEmbed:
    def test_flat_is_pattern(self, miura33):
        coords = embed(miura33, np.zeros(miura33.n_creases))
        assert np.allclose(coords[:, :2], miura33.vertices, atol=1e-12)
        assert np.allclose(coords[:, 2], 0.0, atol=1e-12)

    def test_valley_sign_convention(self):
        coords = embed(TWO_FACETS, np.array([math.pi / 2]))
        # the moving facet rotates toward +z for a positive (valley) fold
        assert coords[4][2] > 0.9
        assert coords[5][2] > 0.9

    def test_matches_per_facet_loop(self, miura33, miura_run, crane, crane_run):
        cases = [(crane, s, 0) for s in crane_run["traj"].states]
        cases += [
            (miura33, s, root)
            for s in miura_run["traj"].states[::4]
            for root in (0, 7, len(miura33.facets) - 1)
        ]
        for p, s, root in cases:
            expected = tree_embedding(p, s, build_spanning_tree(p, root))
            assert np.array_equal(embed(p, s, root=root), expected)

    @pytest.fixture(scope="class")
    def miura77_run(self):
        p = generate_miura(7, 7)
        _, traj = drive_miura_to_flat_fold(p, 1.0, 11)
        return p, traj

    @pytest.mark.parametrize("case", ["crane", "miura33", "miura77"])
    def test_batched_matches_edge_loop(self, case, crane, crane_run, miura33, miura_run,
                                       miura77_run):
        """Every frame of a run embedded in one call, one product per tree
        level, is the frame embedded alone and the per-edge loop's, bit for
        bit, at the first and last root."""
        if case == "crane":
            p, traj = crane, crane_run["traj"]
            assert len(traj) == 109
        elif case == "miura33":
            p, traj = miura33, miura_run["traj"]
        else:
            p, traj = miura77_run
        for root in (0, len(p.facets) - 1):
            stack = embed(p, np.array(traj.states), root, traj.residuals)
            assert stack.shape == (len(traj), len(p.vertices), 3)
            for coords, s, r in zip(stack, traj.states, traj.residuals):
                assert np.array_equal(coords, embed(p, s, root, r))
                assert np.array_equal(coords, edge_loop_embedding(p, s, root))

    @pytest.mark.parametrize("bad", ["nan", "short", "incompatible", "residual",
                                     "residual-count"])
    def test_stack_with_one_bad_frame_places_none(self, miura33, miura_run, monkeypatch,
                                                  bad):
        """One bad frame, or residuals that are not one per frame, refuses the
        whole stack before any frame is placed."""
        import rigidfold.embedding as embedding

        placed = []
        monkeypatch.setattr(embedding, "_place", lambda *args: placed.append(args))
        traj = miura_run["traj"]
        states = [s.copy() for s in traj.states[:6]]
        residuals = list(traj.residuals[:6])
        if bad == "nan":
            states[4][2] = np.nan
        elif bad == "short":
            states = np.array(states)[:, :-1]
        elif bad == "incompatible":
            states[4][0] += 0.3
            residuals = None
        elif bad == "residual":
            residuals[4] = 2e-9
        else:
            residuals = residuals[:5]
        message = {"nan": r"fold state has non-finite angles at creases \[2\]",
                   "short": "fold state has 59 angles, pattern has 60",
                   "incompatible": "fold state incompatible",
                   "residual": r"fold state incompatible \(residual 2\.000e-09\)",
                   "residual-count": "residual has 5 entries, stack has 6 states"}[bad]
        with pytest.raises(ValueError, match=message):
            embed(miura33, np.array(states), residual=residuals)
        assert placed == []

    def test_isometry(self, miura33, miura_run):
        s = miura_run["traj"].states[18]
        coords = embed(miura33, s)
        for c in miura33.creases:
            flat = np.linalg.norm(miura33.vertices[c.b] - miura33.vertices[c.a])
            folded = np.linalg.norm(coords[c.b] - coords[c.a])
            assert abs(folded - flat) / flat < 1e-9
        for a, b in miura33.boundary:
            flat = np.linalg.norm(miura33.vertices[b] - miura33.vertices[a])
            folded = np.linalg.norm(coords[b] - coords[a])
            assert abs(folded - flat) / flat < 1e-9

    def test_sector_rigidity(self, miura33, miura_run):
        s = miura_run["traj"].states[24]
        coords = embed(miura33, s)
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
                assert abs(corner(coords) - corner(flat3)) < 1e-9

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

    @pytest.mark.parametrize("n", [21, 25])
    def test_state_length_checked_at_recorded_residual(self, n):
        # a given residual skips assembly, so embed checks the length itself
        p = generate_miura(2, 2)
        with pytest.raises(ValueError, match=f"fold state has {n} angles, pattern has 24"):
            embed(p, np.zeros(n), residual=0.0)

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
        assert np.array_equal(given, measured)

    def test_root_invariance(self, miura33, miura_run):
        s = miura_run["traj"].states[12]
        coords0 = embed(miura33, s, root=0)
        coords7 = embed(miura33, s, root=7)
        rng = np.random.default_rng(37)
        idx = rng.integers(0, len(coords0), size=(40, 2))
        for i, j in idx:
            d0 = np.linalg.norm(coords0[i] - coords0[j])
            d7 = np.linalg.norm(coords7[i] - coords7[j])
            assert abs(d0 - d7) < 1e-9


class TestDihedral:
    def test_flat_zeros(self, miura33):
        coords = embed(miura33, np.zeros(miura33.n_creases))
        assert np.allclose(dihedral_angles(miura33, coords), 0.0, atol=1e-12)

    def test_round_trip(self, miura33, miura_run):
        for k in (1, 10, 20, 30):
            s = miura_run["traj"].states[k]
            back = dihedral_angles(miura33, embed(miura33, s))
            assert np.abs(back - s).max() < 1e-6

    def test_round_trip_flat_folded_crane(self, crane, crane_run):
        for end in crane_run["traj"].stage_ends:
            s = crane_run["traj"].states[end]
            coords = embed(crane, s)
            back = dihedral_angles(crane, coords)
            gaps = [angle_gap(a, b) for a, b in zip(back, s)]
            assert max(gaps) < 1e-6

    @pytest.mark.parametrize("scale", [1e-7, 1e-4, 1.0, 1e4])
    def test_round_trip_at_every_scale(self, scale):
        # the degenerate-normal test once compared the normal with an
        # absolute 1e-12, which a valid Miura facet falls below at 1e-7 units
        p = generate_miura(2, 2, a=scale, b=scale)
        s = run_schedule(p, flat_state_seed(p, math.radians(1.0)), FoldSchedule((Stage(
            targets={p.meta["driven_crease"]: math.radians(-60.0)}, steps=4,
        ),))).states[-1]
        assert np.abs(dihedral_angles(p, embed(p, s)) - s).max() < 1e-6

    def test_degenerate_facet_rejected(self):
        coords = embed(TWO_FACETS, np.zeros(TWO_FACETS.n_creases))
        coords[2] = coords[1] + 1e-13 * (coords[0] - coords[1])
        coords[3] = coords[0]
        with pytest.raises(ValueError, match="degenerate facet normal"):
            dihedral_angles(TWO_FACETS, coords)


class TestDimensions:
    def test_flat_extents(self, miura33):
        coords = embed(miura33, np.zeros(miura33.n_creases))
        l, w, h = measure_dimensions(coords)
        flat = miura33.vertices
        assert l == pytest.approx(flat[:, 0].max() - flat[:, 0].min(), abs=1e-12)
        assert w == pytest.approx(flat[:, 1].max() - flat[:, 1].min(), abs=1e-12)
        assert h == 0.0

    def test_flat_folded_height_zero(self, miura33, miura_run):
        s = miura_run["traj"].states[-1]
        _, _, h = period_frame_dims(embed(miura33, s), 3, 3)
        assert h < 1e-3

    def test_matches_oracle_at_minus_90(self, miura33, miura_run):
        i1 = miura_run["rho1"]
        s = min(
            miura_run["traj"].states,
            key=lambda st: abs(st[i1] + math.pi / 2),
        )
        got = period_frame_dims(embed(miura33, s), 3, 3)
        want = miura_period_dims(3, 3, 1.0, 1.0, math.pi / 3, s[i1])
        for g, w in zip(got[:2], want[:2]):
            assert abs(g - w) / w < 1e-8

    def test_width_monotone_in_period_frame(self, miura33, miura_run):
        # the exactly flat-folded endpoint is excluded: its row period
        # degenerates and the frame fallback relabels the in-plane axes
        states = miura_run["traj"].states[:-1]
        widths = [
            period_frame_dims(embed(miura33, s), 3, 3)[1]
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

