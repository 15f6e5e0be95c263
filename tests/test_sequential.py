import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    FoldDirective,
    assignment_seed,
    bordered_solve,
    controlled_step,
    refactoring_newton,
    refactoring_stage,
    row_blocks,
    tachi_projection_step,
    tangent_schedule,
    waterbomb_symmetric_oracle,
)
from rigidfold import (
    ConvergenceError,
    CreasePattern,
    FoldSchedule,
    RelaxSettings,
    SpringConfig,
    Stage,
    assemble_global,
    crane_schedule,
    embed,
    flat_state_seed,
    free_column_solve,
    generate_crane,
    generate_miura,
    generate_waterbomb_tessellation,
    relax,
    run_schedule,
)
from rigidfold import elastic, numerics, sequential
from rigidfold.numerics import DEFAULT_CUTOFF, pseudoinverse
from rigidfold.pattern import MOUNTAIN, UNASSIGNED, VALLEY
from rigidfold.sequential import CHORD_RATIO, _newton


def miura_relation_gap(p, s):
    i1, i2 = p.meta["driven_crease"], p.meta["follower_crease"]
    return abs(
        math.tan(s[i2] / 2) - math.cos(math.pi / 3) * math.tan(s[i1] / 2)
    )


class TestControlledStep:
    def test_miura_relation_after_step(self, miura33):
        p = miura33
        i1 = p.meta["driven_crease"]
        s = flat_state_seed(p, math.radians(1.0))
        d = FoldDirective(controlled=(i1,), f=[math.radians(-5.0)])
        s2 = controlled_step(p, s, d)
        assert miura_relation_gap(p, s2) < 1e-8

    def test_exact_increment(self, miura33):
        p = miura33
        i1 = p.meta["driven_crease"]
        s = flat_state_seed(p, math.radians(1.0))
        f = math.radians(-5.0)
        s2 = controlled_step(p, s, FoldDirective(controlled=(i1,), f=[f]))
        assert abs(s2[i1] - (s[i1] + f)) < 1e-12

    def test_zero_increment_fixed_point(self, waterbomb):
        # closed-form state: machine-exact residual, so the minimum-norm
        # increment vanishes
        p = waterbomb
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        s = np.zeros(8)
        s[p.meta["mountains"]] = rm
        s[p.meta["valleys"]] = rv
        s2 = controlled_step(p, s, FoldDirective(controlled=(0,), f=[0.0]))
        assert np.allclose(s2, s, atol=1e-12)

    def test_waterbomb_all_creases_controlled_along_branch(self, waterbomb):
        """Drive all 8 creases to the closed-form state; waypoints follow the
        symmetric branch so every fully pinned step stays compatible."""
        p = waterbomb

        def branch_state(theta):
            rm, rv = waterbomb_symmetric_oracle(theta)
            s = np.zeros(8)
            s[p.meta["mountains"]] = rm
            s[p.meta["valleys"]] = rv
            return s

        s = branch_state(math.pi / 2)  # flat point of the branch
        for theta in np.linspace(math.pi / 2, 5 * math.pi / 8, 20)[1:]:
            f = branch_state(theta) - s
            s = controlled_step(p, s, FoldDirective(controlled=tuple(range(8)), f=f))
            gc = assemble_global(p, s)
            assert gc.normalized_residual < 1e-9
        assert np.allclose(s, branch_state(5 * math.pi / 8), atol=1e-9)

    def test_nonconvergence_raises(self, miura33, monkeypatch):
        p = miura33
        i1 = p.meta["driven_crease"]
        s = flat_state_seed(p, math.radians(1.0))
        monkeypatch.setattr(sequential, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            controlled_step(
                p, s, FoldDirective(controlled=(i1,), f=[math.radians(-120.0)])
            )

    def test_directive_validation(self):
        with pytest.raises(ValueError):
            FoldDirective(controlled=(1, 1), f=[0.1, 0.2])
        with pytest.raises(ValueError):
            FoldDirective(controlled=(1, 2), f=[0.1])

    def test_directive_ids_follow_the_id_rule(self):
        """Controlled ids are never truncated or read from bools."""
        with pytest.raises(ValueError, match="non-integral index 2.7"):
            FoldDirective(controlled=(2.7, 1), f=[0.1, 0.2])
        with pytest.raises(TypeError):
            FoldDirective(controlled=(2, True), f=[0.1, 0.2])
        with pytest.raises(TypeError):
            FoldDirective(controlled=("2",), f=[0.1])
        d = FoldDirective(controlled=(np.int64(3), 2.0), f=[0.1, 0.2])
        assert d.controlled == (3, 2) and all(type(i) is int for i in d.controlled)

    def test_directive_increments_are_finite_reals(self):
        """Increments are never read from strings, bools or None, and a
        non-finite one is refused naming its crease, not left to fail in
        the solver."""
        for bad in ("0.5", True, None, np.bool_(True)):
            with pytest.raises(TypeError, match="of crease 3 is not a number"):
                FoldDirective(controlled=(3,), f=[bad])
        with pytest.raises(TypeError, match="True of crease 2 is not a number"):
            FoldDirective(controlled=(3, 2), f=[0.5, True])
        with pytest.raises(TypeError, match="of crease 2 is not a number"):
            FoldDirective(controlled=(3, 2), f=np.array([0.5, True], dtype=object))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="of crease 2 is not finite"):
                FoldDirective(controlled=(3, 2), f=[0.1, bad])
        for good in ([np.float32(0.5), 1], np.array([0.5, 1.0]), np.array([0.5, 1.0], dtype=object)):
            d = FoldDirective(controlled=(3, 2), f=good)
            assert d.f.dtype == float and d.f.tolist() == [0.5, 1.0]
        with pytest.raises(ValueError, match="one increment per controlled crease"):
            FoldDirective(controlled=(3,), f=["0.5", 0.1])


class TestFlatStateSeed:
    def test_signs_match_assignment(self, miura33):
        s = flat_state_seed(miura33, math.radians(1.0))
        gc = assemble_global(miura33, s)
        assert gc.normalized_residual < 1e-9
        for i, c in enumerate(miura33.creases):
            if c.assignment == VALLEY:
                assert s[i] > 0
            elif c.assignment == MOUNTAIN:
                assert s[i] < 0

    @pytest.mark.parametrize("degrees", [1.0, 0.0, -1.0])
    def test_matches_per_crease_seed(self, degrees, miura33, waterbomb, wb_tess, crane,
                                     monkeypatch):
        """The start vector equals the per-crease loop's bit for bit (so an
        unassigned crease starts at +0.0, a mountain at -0.0 when the
        magnitude is 0), and the seed equals that loop's start run through
        the same Newton loop."""
        starts = []

        def newton(p, rho, *args):
            starts.append(rho.copy())
            return _newton(p, rho, *args)

        monkeypatch.setattr(sequential, "_newton", newton)
        magnitude = math.radians(degrees)
        for p in (miura33, waterbomb, wb_tess, crane):
            starts.clear()
            got = flat_state_seed(p, magnitude)
            want = assignment_seed(p, magnitude)
            assert [s.tobytes() for s in starts] == [want.tobytes()]
            unassigned = [c.assignment == UNASSIGNED for c in p.creases]
            assert not np.signbit(starts[0][unassigned]).any()
            ref, _, _, _ = _newton(p, want, (), sequential.DEFAULT_EPS)
            assert got.tobytes() == ref.tobytes()

    def test_zero_magnitude_flat(self, miura33):
        assert np.array_equal(
            flat_state_seed(miura33, 0.0), np.zeros(miura33.n_creases)
        )

    def test_waterbomb_sign_split(self, waterbomb):
        s = flat_state_seed(waterbomb, math.radians(1.0))
        assert int((s > 0).sum()) == 4
        assert int((s < 0).sum()) == 4

    def test_nan_start_never_converges(self, miura33):
        # refused before any solve: no ConvergenceError, no numpy warning
        for bad in (math.nan, math.inf, -math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"seed magnitude {bad!r} is not finite"):
                    flat_state_seed(miura33, bad)


class TestTachiProjection:
    def test_zero_increment_compatible_unchanged(self, waterbomb):
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        s = np.zeros(8)
        s[waterbomb.meta["mountains"]] = rm
        s[waterbomb.meta["valleys"]] = rv
        s2 = tachi_projection_step(waterbomb, s, np.zeros(8))
        assert np.allclose(s2, s, atol=1e-12)

    def test_nullspace_increment_exact(self, miura33):
        p = miura33
        s = flat_state_seed(p, math.radians(5.0))
        gc = assemble_global(p, s)
        cplus = pseudoinverse(gc.C)
        rng = np.random.default_rng(8)
        z = rng.standard_normal(p.n_creases)
        z -= cplus @ (gc.C @ z)  # exactly in the nullspace
        z *= 0.01 / np.linalg.norm(z)
        s2 = tachi_projection_step(p, s, z)
        # increment applied exactly, up to the residual compensation term
        assert np.allclose(s2 - s, z - cplus @ gc.r, atol=1e-12)

    def test_no_exact_control_vs_lagrange(self, miura33):
        """The projection step cannot hold a prescribed increment; the
        multiplier step can."""
        p = miura33
        i1 = p.meta["driven_crease"]
        s = flat_state_seed(p, math.radians(10.0))
        want = math.radians(-5.0)
        dr0 = np.zeros(p.n_creases)
        dr0[i1] = want
        s_tachi = tachi_projection_step(p, s, dr0)
        err_tachi = abs((s_tachi[i1] - s[i1]) - want)
        s_ctrl = controlled_step(p, s, FoldDirective(controlled=(i1,), f=[want]))
        err_ctrl = abs((s_ctrl[i1] - s[i1]) - want)
        assert err_ctrl < 1e-12
        assert err_tachi > 1e-4


class TestRunSchedule:
    def test_empty_schedule(self, miura33):
        s = flat_state_seed(miura33, math.radians(1.0))
        traj = run_schedule(miura33, s, FoldSchedule(()))
        assert len(traj) == 1
        assert np.array_equal(traj.states[0], s)

    def test_stage_boundaries_exact(self, crane_run):
        traj = crane_run["traj"]
        schedule = crane_run["schedule"]
        for stage, end in zip(schedule.stages, traj.stage_ends):
            state = traj.states[end]
            for cid, target in stage.targets.items():
                assert abs(state[cid] - target) < 1e-9

    def test_crane_flat_folded_after_each_stage(self, crane_run):
        for end in crane_run["traj"].stage_ends:
            state = crane_run["traj"].states[end]
            nonzero = state[np.abs(state) > 1e-7]
            assert np.allclose(np.abs(nonzero), math.pi, atol=1e-9)

    def test_crane_stage3_drives_four_creases(self, crane_run):
        schedule = crane_run["schedule"]
        assert len(schedule.stages) == 3
        assert len(schedule.stages[2].targets) == 4
        assert set(schedule.stages[2].targets.values()) == {math.pi, -math.pi}

    def test_compatibility_all_steps(self, crane_run, miura_run):
        assert max(crane_run["traj"].residuals) < 1e-9
        assert max(miura_run["traj"].residuals) < 1e-9

    def test_trajectory_length(self, miura_run):
        assert len(miura_run["traj"]) == 37  # seed plus 36 steps

    def test_default_step_splitting(self, miura33):
        p = miura33
        i1 = p.meta["driven_crease"]
        s = flat_state_seed(p, math.radians(1.0))
        schedule = FoldSchedule((Stage(targets={i1: s[i1] - math.radians(20.0)}),))
        traj = run_schedule(p, s, schedule)
        # default cap of 5 degrees per step -> 4 steps
        assert len(traj) == 5

    def test_determinism(self, miura33):
        p = miura33
        i1 = p.meta["driven_crease"]
        schedule = FoldSchedule((Stage(targets={i1: -1.0}, steps=6),))
        s = flat_state_seed(p, math.radians(1.0))
        t1 = run_schedule(p, s, schedule)
        t2 = run_schedule(p, s, schedule)
        for a, b in zip(t1.states, t2.states):
            assert np.array_equal(a, b)

    def test_hold_keeps_creases_fixed(self, crane_run):
        traj = crane_run["traj"]
        schedule = crane_run["schedule"]
        stage1_end = traj.stage_ends[0]
        held = schedule.stages[1].hold
        for k in range(stage1_end, traj.stage_ends[1] + 1):
            assert np.allclose(
                traj.states[k][list(held)], traj.states[stage1_end][list(held)],
                atol=1e-9,
            )

    @pytest.mark.parametrize("targets, hold", [({10_000: 0.1}, ()), ({0: 0.1}, (-1,))])
    def test_crease_id_out_of_range(self, miura33, targets, hold):
        schedule = FoldSchedule((Stage(targets=targets, steps=1, hold=hold),))
        with pytest.raises(ValueError, match="out of range"):
            run_schedule(miura33, np.zeros(miura33.n_creases), schedule)

    @pytest.mark.parametrize("target", [math.pi + 1e-5, -4.0, 1e300])
    def test_target_outside_fold_range(self, miura33, target):
        """A stage without a step count would split a finite but huge target
        into as many 5 degree steps: 1e300 radians never ends."""
        schedule = FoldSchedule((Stage(targets={0: target}),))
        with pytest.raises(ValueError, match=r"outside \[-pi, pi\]"):
            run_schedule(miura33, np.zeros(miura33.n_creases), schedule)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "short", "column"])
    def test_bad_start_state_refused_before_any_solve(self, miura33, bad, monkeypatch):
        """A start state that is not one finite angle per crease is refused
        as a bad fold state by ``run_schedule`` and ``controlled_step``, and
        nothing is solved."""
        p = miura33
        driven = p.meta["driven_crease"]
        start = flat_state_seed(p, math.radians(1.0))
        if bad == "short":
            start = start[:-1]
        elif bad == "column":
            start = start[:, None]
        else:
            start[3] = float(bad)
        solves = []
        monkeypatch.setattr(sequential, "free_column_solve",
                            lambda *args: solves.append(args))
        schedule = FoldSchedule((Stage(targets={driven: -0.5}, steps=2),))
        with pytest.raises(ValueError, match="fold state"):
            run_schedule(p, start, schedule)
        with pytest.raises(ValueError, match="fold state"):
            controlled_step(p, start, FoldDirective(controlled=(driven,), f=[-0.1]))
        assert solves == []

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_eps_refused_before_any_solve(self, miura33, eps, monkeypatch):
        """An eps no residual can pass (NaN, zero or less) used to run all
        MAX_ITER Newton iterations and then blame the residual; an infinite
        one passes any residual.  Both entry points refuse it unsolved."""
        solves = []
        monkeypatch.setattr(sequential, "free_column_solve",
                            lambda *args: solves.append(args))
        schedule = FoldSchedule((Stage(targets={miura33.meta["driven_crease"]: -0.5}, steps=2),))
        message = f"eps must be finite and positive, got {eps!r}"
        with pytest.raises(ValueError, match=message):
            flat_state_seed(miura33, math.radians(1.0), eps=eps)
        with pytest.raises(ValueError, match=message):
            run_schedule(miura33, np.zeros(miura33.n_creases), schedule, eps=eps)
        assert solves == []

    def test_one_fold_range_warning_per_accepted_state(self, monkeypatch):
        """A Miura 3x3 with a hinge crease between two boundary vertices (no
        closure rows), held at 3.5 rad while the driven crease moves to -60
        degrees in 8 steps: tangent steps 1-5 and extrapolated steps 6-8
        each warn once, and so does a single controlled step."""
        m = generate_miura(3, 3)
        creases = [(c.a, c.b, c.assignment) for c in m.creases] + [(1, 7, VALLEY)]
        p = CreasePattern.from_edges(m.vertices, creases, m.boundary)
        hinge = p.crease_index[(1, 7)]
        driven = p.crease_index[m.creases[m.meta["driven_crease"]].key]
        seed = flat_state_seed(p, math.radians(1.0))
        seed[hinge] = 3.5
        stage = Stage(targets={driven: math.radians(-60.0)}, steps=8, hold=(hinge,))
        predictors = count_predictors(monkeypatch)
        with pytest.warns(UserWarning, match="exceed") as record:
            traj = run_schedule(p, seed, FoldSchedule((stage,)))
        assert len(predictors) == 5
        assert len(record) == len(traj) - 1 == 8
        with pytest.warns(UserWarning, match="exceed") as record:
            controlled_step(p, seed, FoldDirective(controlled=(driven, hinge), f=[-0.1, 0.0]))
        assert len(record) == 1

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_failed_step_keeps_its_iteration_count(self, miura33, max_iter, monkeypatch):
        """A step whose Newton loop fails is raised again with its stage and
        step named, and with the iterations the loop ran."""
        p = miura33
        seed = flat_state_seed(p, math.radians(1.0))
        monkeypatch.setattr(sequential, "MAX_ITER", max_iter)
        stage = Stage(targets={p.meta["driven_crease"]: -1.0}, steps=2)
        with pytest.raises(ConvergenceError, match=r"^stage 0, step 1/2: residual") as info:
            run_schedule(p, seed, FoldSchedule((stage,)))
        assert info.value.iters == info.value.__cause__.iters == max_iter


def test_scalar_state_is_named_a_scalar():
    """A number where a state belongs is named a scalar, not a shape ``()``
    or a count of one, which a one-crease pattern would contradict."""
    p = generate_miura(2, 2)
    cfg = SpringConfig.per_unit_length(p, 1.0, np.zeros(p.n_creases))
    schedule = FoldSchedule((Stage(targets={0: 0.1}, steps=1),))
    for call in (lambda: embed(p, 0.5), lambda: assemble_global(p, 0.5),
                 lambda: relax(p, cfg, RelaxSettings(), rho0=0.5),
                 lambda: run_schedule(p, 0.5, schedule)):
        with pytest.raises(ValueError, match=r"^fold state is a scalar, pattern has 24 creases$"):
            call()
    # a square cut by one diagonal crease
    square = CreasePattern([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 2, "V"]],
                           [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2], [0, 2, 3]])
    assert square.n_creases == 1
    for call in (lambda: embed(square, 0.5), lambda: assemble_global(square, 0.5)):
        with pytest.raises(ValueError, match=r"^fold state is a scalar, pattern has 1 creases$"):
            call()
    assert assemble_global(square, [0.5]).r.shape == (0,)
    with pytest.raises(ValueError, match=r"^fold state has 2 angles, pattern has 1 creases$"):
        embed(square, [0.5, 0.5])


class TestScheduleJson:
    def test_roundtrip(self):
        doc = {
            "stages": [
                {"controlled": [{"crease": 3, "target": 1.5}],
                 "hold": [1, 2], "steps": 7},
                {"controlled": [{"crease": 0, "target": -3.14}],
                 "hold": [], "steps": None},
            ]
        }
        sched = FoldSchedule.from_json(doc)
        assert sched.stages[0].targets == {3: 1.5}
        assert sched.stages[0].hold == (1, 2)
        assert sched.stages[1].steps is None
        assert FoldSchedule.from_json(sched.to_dict()).to_dict() == sched.to_dict()

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            Stage(targets={1: 0.5}, steps=0)
        with pytest.raises(ValueError):
            Stage(targets={1: 0.5}, hold=(1,))

    def test_stage_targets_are_reals(self):
        """Targets are never read from strings or bools, as in a schedule
        document."""
        for bad in (True, "0.5", None):
            with pytest.raises(TypeError, match="target of crease 3"):
                Stage(targets={3: bad})
        stage = Stage(targets={3: np.float32(0.5), 4: 1})
        assert stage.targets == {3: 0.5, 4: 1.0}
        assert all(type(t) is float for t in stage.targets.values())

    def test_stage_ids_follow_the_id_rule(self):
        """Target and hold ids are never truncated or read from bools."""
        with pytest.raises(ValueError, match="non-integral index 2.7"):
            Stage(targets={2.7: 0.5})
        with pytest.raises(TypeError):
            Stage(targets={2: 0.5}, hold=(True,))
        with pytest.raises(TypeError):
            Stage(targets={"2": 0.5})
        with pytest.raises(ValueError, match="non-integral index 0.5"):
            Stage(targets={2: 0.5}, hold=(0.5,))
        stage = Stage(targets={np.int64(2): 0.5}, hold=(3.0,))
        assert stage.targets == {2: 0.5} and stage.hold == (3,)
        assert all(type(i) is int for i in (*stage.targets, *stage.hold))

    def test_crease_held_twice(self):
        """A duplicate hold is refused when the stage is built, not when a
        run reaches it."""
        with pytest.raises(ValueError, match="crease 3 held twice"):
            Stage(targets={2: 0.5}, hold=(3, 1, 3))
        with pytest.raises(ValueError, match="crease 3 held twice"):
            Stage(targets={2: 0.5}, hold=(3.0, np.int64(3)))
        assert Stage(targets={2: 0.5}, hold=(3, 1)).hold == (3, 1)


class TestFreeColumnSolve:
    """The free-column normal equations against the bordered-SVD oracle."""

    @staticmethod
    def cases(name, p, compatible, rng, stage_sets=()):
        """(label, state, fixed, f) over compatible and perturbed states.

        Fixed sets: none, one crease, a random third of the creases (or the
        given stage directives with their holds), and every crease.
        """
        n = p.n_creases
        sets = [(), (int(rng.integers(n)),), *stage_sets, tuple(range(n))]
        if not stage_sets:
            sets.insert(2, tuple(int(i) for i in rng.choice(n, n // 3, replace=False)))
        states = [("flat", np.zeros(n))]
        for k, s in enumerate(compatible):
            states.append((f"compatible {k}", s))
            states.append((f"incompatible {k}", s + rng.normal(0.0, 0.02, n)))
        for label, s in states:
            for fixed in sets:
                f = rng.normal(0.0, 0.02, len(fixed))
                yield f"{name} {label} |A|={len(fixed)}", s, fixed, f

    @staticmethod
    def kept_eigenvalues(c, fixed):
        """Eigenvalues of C_F^T C_F the rank policy keeps."""
        n = c.shape[1]
        free = np.setdiff1d(np.arange(n), fixed)
        if not (c.shape[0] and free.size):
            return 0
        w = np.linalg.eigvalsh(c[:, free].T @ c[:, free])
        return int(np.count_nonzero(w > DEFAULT_CUTOFF * w[-1] * n))

    def check(self, p, label, state, fixed, f):
        gc = assemble_global(p, state)
        dx = free_column_solve(row_blocks(gc.C), gc.r, fixed, f)
        ref, ref_rank = bordered_solve(gc, fixed, f)
        rank = self.kept_eigenvalues(gc.C, fixed)
        assert np.array_equal(dx[list(fixed)], f), label
        assert rank == ref_rank, label
        if rank == p.n_creases - len(fixed):
            assert np.abs(dx - ref).max() < 1e-9, label
        else:
            res = np.linalg.norm(gc.C @ dx + gc.r)
            ref_res = np.linalg.norm(gc.C @ ref + gc.r)
            assert res <= ref_res + 1e-12, label
        return rank == p.n_creases - len(fixed)

    def test_matches_bordered_oracle(self, miura33, miura_run, waterbomb, crane,
                                     crane_run):
        rng = np.random.default_rng(311)
        tess = generate_waterbomb_tessellation(3, 2)
        miura_states = miura_run["traj"].states
        crane_states = crane_run["traj"].states
        stage_sets = [
            tuple(sorted(stage.targets)) + stage.hold
            for stage in crane_schedule(crane).stages
        ]
        suites = [
            ("miura", miura33, [miura_states[k] for k in (3, 17, 30)], ()),
            ("waterbomb", waterbomb, [
                np.where(np.isin(np.arange(8), waterbomb.meta["mountains"]), m, v)
                for m, v in map(waterbomb_symmetric_oracle, (0.4, 2.0))
            ], ()),
            ("crane", crane, [crane_states[k] for k in (20, 60, 95)], stage_sets),
            ("tessellation", tess,
             [flat_state_seed(tess, math.radians(d)) for d in (1.0, 20.0)], ()),
        ]
        branches = set()
        for name, p, compatible, sets in suites:
            for label, state, fixed, f in self.cases(name, p, compatible, rng, sets):
                branches.add(self.check(p, label, state, fixed, f))
        assert branches == {True, False}  # both the LU and eigh branches ran

    def test_zero_row_matrix(self):
        gc = SimpleNamespace(C=np.zeros((0, 5)), r=np.zeros(0))
        dx = free_column_solve(row_blocks(gc.C), gc.r, (1, 3), [0.3, -0.2])
        assert np.array_equal(dx, [0.0, 0.3, 0.0, -0.2, 0.0])
        ref, ref_rank = bordered_solve(gc, (1, 3), [0.3, -0.2])
        assert ref_rank == 0
        assert np.abs(dx - ref).max() < 1e-9

    def test_all_fixed_returns_f(self, miura33):
        gc = assemble_global(miura33, flat_state_seed(miura33, math.radians(3.0)))
        f = np.linspace(-0.1, 0.1, miura33.n_creases)
        dx = free_column_solve(row_blocks(gc.C), gc.r, tuple(range(miura33.n_creases)), f)
        assert np.array_equal(dx, f)

    @pytest.mark.parametrize("which", ["C", "r", "f"])
    def test_non_finite_input_raises(self, miura33, which):
        gc = assemble_global(miura33, flat_state_seed(miura33, math.radians(3.0)))
        args = {"C": gc.C.copy(), "r": gc.r.copy(), "f": np.array([0.1])}
        args[which].flat[0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            free_column_solve(row_blocks(args["C"]), args["r"], (0,), args["f"])

    @pytest.mark.parametrize("fixed", [(2, 2), (-1,), (10_000,)])
    def test_bad_fixed_columns_raise(self, miura33, fixed):
        gc = assemble_global(miura33, np.zeros(miura33.n_creases))
        with pytest.raises(ValueError, match="distinct"):
            free_column_solve(row_blocks(gc.C), gc.r, fixed, np.zeros(len(fixed)))


def test_miura_relation_everywhere(miura_run, miura33):
    for s in miura_run["traj"].states:
        if abs(math.tan(s[miura_run["rho1"]] / 2)) < 1e6:
            assert miura_relation_gap(miura33, s) < 1e-8


def count_factorizations(monkeypatch):
    """Every band factorization attempt, certified or not, from now on."""
    calls = []
    real = numerics._band_factor

    def counting(band, n_free, n):
        factors = real(band, n_free, n)
        calls.append(factors is not None)
        return factors

    monkeypatch.setattr(numerics, "_band_factor", counting)
    return calls


class TestChordNewton:
    """Newton iterates reuse a certified band factorization (chord steps)
    while the residual contracts, against the loop that solves afresh at
    every iterate (``oracles.refactoring_newton``)."""

    EPS = 1e-13
    STEPS = 35

    @pytest.fixture(scope="class", params=[5, 7])
    def drive(self, request):
        p = generate_miura(request.param, request.param)
        seed = flat_state_seed(p, math.radians(1.0), eps=self.EPS)
        stage = Stage(targets={p.meta["driven_crease"]: math.radians(-175.0)},
                      steps=self.STEPS)
        return p, seed, stage

    def test_drive_matches_refactoring_oracle(self, drive, monkeypatch):
        """Same state count, every residual below eps, states within 1e-9,
        and about one band factorization per step."""
        p, seed, stage = drive
        calls = count_factorizations(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(calls) <= self.STEPS + 2
        assert all(calls)
        ref = refactoring_stage(p, seed, stage, self.EPS)
        assert len(traj) == len(ref) == self.STEPS + 1
        assert max(traj.residuals) < self.EPS
        assert np.abs(np.array(traj.states) - np.array(ref)).max() < 1e-9

    def test_refactors_when_the_ratio_fails(self, drive, monkeypatch):
        """Within each Newton loop, an iterate refactors exactly when its
        residual norm exceeds ``CHORD_RATIO`` times the one before, the norm
        the loop is handed (the step's start state's) counting before the
        first iterate.  A predictor solve runs exactly on the steps without
        a history of five steps that each kept a factorization, and reuses
        the step before's; the other steps start with nothing kept."""
        assert CHORD_RATIO == 0.5
        p, seed, stage = drive
        calls = count_factorizations(monkeypatch)
        log = []  # per solve: (predictor?, normalized residual, factored?)
        # per Newton loop: (index of its first Newton solve in log, kept
        # before that solve?); a predictor is the solve before it
        loops = []
        real_solve, real_newton = sequential.free_column_solve, sequential._newton

        def recording(c, r, fixed, f):
            before = len(calls)
            dx = real_solve(c, r, fixed, f)
            log.append((bool(np.any(f)), np.linalg.norm(r) / len(r), len(calls) > before))
            return dx

        def newton(p, rho, controlled, eps, f=None, gc=None, kept=None):
            first = len(log) + (f is not None)
            out = real_newton(p, rho, controlled, eps, f, gc, kept)
            predictor = None if f is None else gc.blocks if kept is None else kept
            loops.append((first, predictor is not None and predictor.certified(controlled)))
            return out

        monkeypatch.setattr(sequential, "free_column_solve", recording)
        monkeypatch.setattr(sequential, "_newton", newton)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(loops) == len(traj) - 1 == self.STEPS  # no step redone
        # every step keeps a factorization, so steps 1-5 build the history
        history = sequential.EXTRAPOLATION.size
        for step, (first, kept) in enumerate(loops):
            predicted = first > 0 and log[first - 1][0]
            assert predicted == (step < history), step
            assert kept == predicted, step
        predictors = [k for k, (is_predictor, _, _) in enumerate(log) if is_predictor]
        assert len(predictors) == history
        # the norm before a loop's first Newton solve: its start state's
        starts = {first: traj.residuals[step] for step, (first, _) in enumerate(loops)}
        refactors = 0
        for k, (is_predictor, norm, factored) in enumerate(log):
            if is_predictor:
                assert factored == (k == 0), k
                continue
            before = starts[k] if k in starts else log[k - 1][1]
            assert factored == (norm > CHORD_RATIO * before), k
            refactors += factored
        assert self.STEPS <= refactors < len(log) - len(predictors)

    def test_stale_factorization_refactors(self, monkeypatch):
        """A factorization kept with the driven crease 130 degrees away
        makes a chord step that does not contract; the loop refactors and
        converges to the oracle's root.  Kept forever, it would not
        converge in 50 iterations."""
        p = generate_miura(5, 5)
        driven = p.meta["driven_crease"]
        seed = flat_state_seed(p, math.radians(1.0), eps=self.EPS)
        traj = run_schedule(p, seed, FoldSchedule((
            Stage(targets={driven: math.radians(-150.0)}, steps=30),
        )), eps=self.EPS)
        near, far = traj.states[4], traj.states[-1]
        kept = assemble_global(p, near).blocks
        free_column_solve(kept, np.zeros(kept.shape[0]), (driven,), [0.0])
        assert kept.certified((driven,))
        start = far.copy()
        start[np.arange(p.n_creases) != driven] += math.radians(3.0)
        calls = count_factorizations(monkeypatch)
        rho, gc, iters, _ = _newton(p, start, (driven,), self.EPS, kept=kept)
        assert calls and all(calls)
        assert gc.normalized_residual < self.EPS and iters < 30
        assert rho[driven] == start[driven]
        ref, _, _, _ = refactoring_newton(p, start, (driven,), self.EPS)
        assert np.abs(rho - ref).max() < 1e-9

    def test_uncontrolled_loops_are_bit_identical(self, monkeypatch):
        """Loops with no crease controlled solve afresh at every iterate, so
        the oracle's loop gives the same bits: Miura flat seeds (deflated
        band), the crane's and a relaxation's (the row-space eigh), the
        last in the springs' metric, which the oracle takes too.  The Miura
        3x3 seed at 0.3 rad passes an iterate that certifies its band, off
        the compatible states, which are not isolated there; reusing that
        factorization would settle 0.04 rad elsewhere."""
        for p, magnitude in ((generate_miura(3, 3), 0.3), (generate_miura(5, 5), 1.0),
                             (generate_miura(7, 7), 1.0), (generate_crane(), 1.0)):
            rho = np.zeros(p.n_creases)
            rho[[c.assignment == VALLEY for c in p.creases]] = magnitude
            rho[[c.assignment == MOUNTAIN for c in p.creases]] = -magnitude
            ref, _, _, _ = refactoring_newton(p, rho, (), sequential.DEFAULT_EPS)
            assert np.array_equal(flat_state_seed(p, magnitude), ref)
        p = generate_waterbomb_tessellation(3, 2)
        rest = np.array([-0.75 * math.pi if c.assignment == MOUNTAIN else 0.75 * math.pi
                         for c in p.creases])
        cfg = SpringConfig.per_unit_length(p, 1.0, rest)
        settings = RelaxSettings(max_steps=20)
        start = flat_state_seed(p, math.radians(1.0))
        result = relax(p, cfg, settings, start)
        monkeypatch.setattr(elastic, "_newton", refactoring_newton)
        ref = relax(p, cfg, settings, start)
        assert len(result.states) == len(ref.states) > 10
        assert np.array_equal(np.array(result.states), np.array(ref.states))
        assert result.energies == ref.energies


def count_predictors(monkeypatch):
    """One entry per tangent predictor solve (a nonzero increment) from now on."""
    calls = []
    real = sequential.free_column_solve

    def counting(c, r, fixed, f):
        if np.any(f):
            calls.append(len(calls))
        return real(c, r, fixed, f)

    monkeypatch.setattr(sequential, "free_column_solve", counting)
    return calls


class TestExtrapolatedStart:
    """A step after five that each kept a certified factorization starts
    Newton from the quartic extrapolation of their states instead of the
    tangent predictor; the states are the tangent path's roots."""

    EPS = 1e-13

    @pytest.fixture(scope="class")
    def miura(self):
        p = generate_miura(5, 5)
        return p, flat_state_seed(p, math.radians(1.0), eps=self.EPS)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6])
    def test_short_stages_use_the_tangent_predictor(self, miura, steps, monkeypatch):
        """A stage of at most five steps never extrapolates; a sixth step
        does.  States within 1e-9 of the oracle that solves every iterate
        afresh."""
        p, seed = miura
        stage = Stage(targets={p.meta["driven_crease"]: math.radians(-5.0 * steps)},
                      steps=steps)
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(predictors) == min(steps, 5)
        ref = refactoring_stage(p, seed, stage, self.EPS)
        assert np.abs(np.array(traj.states) - np.array(ref)).max() < 1e-9

    def test_history_restarts_at_each_stage(self, miura, monkeypatch):
        """Three steps to -30 degrees, then 30 to -175: the second stage
        runs its own first five steps from the tangent predictor."""
        p, seed = miura
        driven = p.meta["driven_crease"]
        stages = (Stage(targets={driven: math.radians(-30.0)}, steps=3),
                  Stage(targets={driven: math.radians(-175.0)}, steps=30))
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule(stages), eps=self.EPS)
        assert len(predictors) == 3 + 5
        assert traj.stage_ends == [3, 33]
        first = refactoring_stage(p, seed, stages[0], self.EPS)
        ref = first + refactoring_stage(p, first[-1], stages[1], self.EPS)[1:]
        assert np.abs(np.array(traj.states) - np.array(ref)).max() < 1e-9
        assert max(traj.residuals) < self.EPS

    def test_history_restarts_after_a_step_that_keeps_nothing(self, miura, monkeypatch):
        """A step whose Newton loop keeps no factorization (the 7th, made to
        drop it) restarts the history: steps 8-12 use the tangent predictor
        again, and the states are the oracle's."""
        p, seed = miura
        stage = Stage(targets={p.meta["driven_crease"]: math.radians(-70.0)}, steps=14)
        loops = []
        real = sequential._newton

        def newton(*args):
            loops.append(len(loops) + 1)
            rho, gc, iters, kept = real(*args)
            return rho, gc, iters, None if len(loops) == 7 else kept

        monkeypatch.setattr(sequential, "_newton", newton)
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(loops) == 14
        assert len(predictors) == 5 + 5
        ref = refactoring_stage(p, seed, stage, self.EPS)
        assert np.abs(np.array(traj.states) - np.array(ref)).max() < 1e-9

    def test_start_on_the_root_keeps_the_history(self, miura, monkeypatch):
        """At 1 degree steps and eps 1e-9 some extrapolated starts already
        pass eps; such a step keeps the factorization before it, so the
        history never restarts and only the first five steps predict."""
        p, seed = miura
        stage = Stage(targets={p.meta["driven_crease"]: math.radians(-175.0)}, steps=175)
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=1e-9)
        assert traj.newton_iters[1:].count(0) > 10
        assert len(predictors) == 5

    def test_controlled_and_held_entries_exact(self, monkeypatch):
        """A Miura 5x5 with a hinge crease between two boundary vertices
        (no constraint row), held while the driven crease moves: every
        state keeps the hinge's angle bit for bit, and every extrapolated
        step lands on its waypoint bit for bit."""
        m = generate_miura(5, 5)
        creases = [(c.a, c.b, c.assignment) for c in m.creases] + [(1, 11, VALLEY)]
        p = CreasePattern.from_edges(m.vertices, creases, m.boundary)
        hinge = p.crease_index[(1, 11)]
        driven = p.crease_index[m.creases[m.meta["driven_crease"]].key]
        seed = flat_state_seed(p, math.radians(1.0), eps=self.EPS)
        target, steps = math.radians(-60.0), 8
        stage = Stage(targets={driven: target}, steps=steps, hold=(hinge,))
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(predictors) == 5
        assert all(s[hinge] == seed[hinge] for s in traj.states)
        for k in range(6, steps + 1):
            assert traj.states[k][driven] == seed[driven] + (target - seed[driven]) * (k / steps)
        assert max(traj.residuals) < self.EPS

    @pytest.mark.parametrize("wild", ["diverges", "lands_far"])
    def test_fallback_reaches_the_tangent_path(self, miura, wild, monkeypatch):
        """An extrapolated start from which Newton fails (non-finite
        weights), or lands farther away than the start lies from the last
        state (a root shifted by 1 rad), is redone from the tangent
        predictor: states within 1e-9 of the oracle's, the discarded
        start's iterations counted."""
        p, seed = miura
        stage = Stage(targets={p.meta["driven_crease"]: math.radians(-120.0)}, steps=12)
        loops = []  # per Newton loop that returned: (extrapolated start?, iterations)
        real = sequential._newton
        if wild == "diverges":
            monkeypatch.setattr(sequential, "EXTRAPOLATION",
                                np.array([math.nan, -5.0, 10.0, -10.0, 5.0]))

        def newton(p, rho, controlled, eps, f=None, gc=None, kept=None):
            extrapolated = f is None  # a tangent step's loop starts with the predictor
            rho, gc, iters, kept = real(p, rho, controlled, eps, f, gc, kept)
            loops.append((extrapolated, iters))
            if extrapolated and wild == "lands_far":
                rho = rho + 1.0
            return rho, gc, iters, kept

        monkeypatch.setattr(sequential, "_newton", newton)
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(predictors) == 12
        assert sum(e for e, _ in loops) == (12 - 5 if wild == "lands_far" else 0)
        assert sum(traj.newton_iters) == sum(i for _, i in loops)
        ref = refactoring_stage(p, seed, stage, self.EPS)
        assert np.abs(np.array(traj.states) - np.array(ref)).max() < 1e-9
        assert max(traj.residuals) < self.EPS
        tangent = tangent_schedule(p, seed, FoldSchedule((stage,)), self.EPS)
        assert np.array_equal(np.array(traj.states), np.array(tangent))

    def test_crane_matches_the_tangent_oracle(self, crane_run):
        """The crane keeps no certified factorization, so none of its steps
        extrapolates: its states are the tangent-only loop's, bit for bit."""
        p = generate_crane()
        ref = tangent_schedule(p, np.zeros(p.n_creases), crane_run["schedule"],
                               sequential.DEFAULT_EPS)
        assert np.array_equal(np.array(crane_run["traj"].states), np.array(ref))

    def test_miura_drive_newton_iterations(self, monkeypatch):
        """The Miura 7x7 drive, 35 steps to -175 degrees at eps 1e-13,
        takes at most two Newton iterations per step (it took 158-165 from
        the tangent predictor alone)."""
        p = generate_miura(7, 7)
        seed = flat_state_seed(p, math.radians(1.0), eps=self.EPS)
        stage = Stage(targets={p.meta["driven_crease"]: math.radians(-175.0)}, steps=35)
        predictors = count_predictors(monkeypatch)
        traj = run_schedule(p, seed, FoldSchedule((stage,)), eps=self.EPS)
        assert len(predictors) == 5
        assert sum(traj.newton_iters) <= 2 * 35
