import math

import numpy as np
import pytest

from oracles import (
    bordered_step,
    explicit_inverse_step,
    projection_step_uniform,
    refactoring_newton,
    tachi_projection_step,
    waterbomb_branch_well,
    waterbomb_symmetric_oracle,
)
from rigidfold import (
    ConvergenceError,
    RelaxSettings,
    SpringConfig,
    assemble_global,
    flat_state_seed,
    generate_miura,
    generate_waterbomb_tessellation,
    kkt_step,
    relax,
    spring_energy,
    spring_gradient,
)
from rigidfold.elastic import STOP_REASONS
from rigidfold.numerics import rank
from rigidfold.pattern import MOUNTAIN


def wb_state(p, theta):
    rm, rv = waterbomb_symmetric_oracle(theta)
    s = np.zeros(8)
    s[p.meta["mountains"]] = rm
    s[p.meta["valleys"]] = rv
    return s


class TestSpringConfig:
    def test_per_unit_length(self, waterbomb):
        cfg = SpringConfig.per_unit_length(waterbomb, 2.5, np.zeros(8))
        assert np.allclose(cfg.stiffness, 2.5, atol=1e-12)  # unit radius

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpringConfig(stiffness=[1.0, 0.0], rest=[0.0, 0.0])

    def test_from_json(self, waterbomb):
        doc = {
            "k_per_length": 2.0,
            "creases": [
                {"crease": i, "k": 7.0 if i == 3 else None, "rest": 0.1 * i}
                for i in range(8)
            ],
        }
        cfg = SpringConfig.from_json(waterbomb, doc)
        assert cfg.stiffness[3] == 7.0
        assert np.allclose(np.delete(cfg.stiffness, 3), 2.0)
        assert np.allclose(cfg.rest, 0.1 * np.arange(8))

    def test_from_json_requires_full_cover(self, waterbomb):
        doc = {"k_per_length": 1.0, "creases": [{"crease": 0, "rest": 0.0}]}
        with pytest.raises(ValueError, match="missing"):
            SpringConfig.from_json(waterbomb, doc)

    def test_rejects_scalar_arrays(self):
        with pytest.raises(ValueError, match="1-D"):
            SpringConfig(stiffness=np.array(1.0), rest=np.array(0.0))

    def test_rejects_column_arrays(self):
        with pytest.raises(ValueError, match=r"1-D.*\(24, 1\)"):
            SpringConfig(stiffness=np.ones((24, 1)), rest=np.zeros((24, 1)))

    def test_relax_rejects_wrong_spring_count(self):
        p = generate_miura(2, 2)
        assert p.n_creases == 24
        cfg = SpringConfig(stiffness=np.ones(3), rest=np.zeros(3))
        with pytest.raises(ValueError, match="3 springs, pattern has 24 creases"):
            relax(p, cfg, rho0=flat_state_seed(p, 0.1))


# each call gets a Miura 2x2 (24 creases), a compatible state and a vector
# of n entries where 24 belong; the message names both counts
LENGTH_CHECKS = {
    "kkt_step": (lambda p, rho, v: kkt_step(p, SpringConfig(v + 1.0, v), rho),
                 "spring config has {n} springs, pattern has 24 creases"),
    "projection_step_uniform": (lambda p, rho, v: projection_step_uniform(p, 1.0, v, rho),
                                "gradient has {n} entries, pattern has 24 creases"),
    "spring_energy": (lambda p, rho, v: spring_energy(SpringConfig(v + 1.0, v), rho),
                      "state has 24 angles, spring config has {n} springs"),
    "spring_gradient": (lambda p, rho, v: spring_gradient(SpringConfig(v + 1.0, v), rho),
                        "state has 24 angles, spring config has {n} springs"),
    "tachi_projection_step": (lambda p, rho, v: tachi_projection_step(p, rho, v),
                              "increment has {n} entries, pattern has 24 creases"),
}


@pytest.mark.parametrize("n", [3, 27])
@pytest.mark.parametrize("name", sorted(LENGTH_CHECKS))
def test_vector_length_checked(name, n):
    """A spring or increment vector of the wrong length is a ValueError
    naming both counts, not a numpy broadcasting or index error."""
    p = generate_miura(2, 2)
    assert p.n_creases == 24
    call, message = LENGTH_CHECKS[name]
    with pytest.raises(ValueError, match=message.format(n=n)):
        call(p, flat_state_seed(p, 0.1), np.zeros(n))


# each call gets a Miura 2x2 (24 creases) and a bad state, with a
# well-formed spring config, gradient or increment
START_STATE_CHECKS = {
    "relax": lambda p, rho: relax(p, SpringConfig(np.ones(24), np.zeros(24)), rho0=rho),
    "kkt_step": lambda p, rho: kkt_step(p, SpringConfig(np.ones(24), np.zeros(24)), rho),
    "projection_step_uniform": lambda p, rho: projection_step_uniform(p, 1.0, np.ones(24), rho),
    "tachi_projection_step": lambda p, rho: tachi_projection_step(p, rho, np.zeros(24)),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
@pytest.mark.parametrize("name", sorted(START_STATE_CHECKS))
def test_bad_start_state_refused(name, bad):
    """A state that is not one finite angle per crease is a ValueError
    naming the fold state, raised before any solve: never a solver
    failure or a numerics error about its matrix."""
    p = generate_miura(2, 2)
    rho = flat_state_seed(p, 0.1)
    if bad == "short":
        rho = rho[:-1]
    else:
        rho[5] = float(bad)
    with pytest.raises(ValueError, match="fold state"):
        START_STATE_CHECKS[name](p, rho)


class TestEnergyAndGradient:
    def test_zero_at_rest(self, waterbomb):
        rest = wb_state(waterbomb, 5 * math.pi / 8)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        assert spring_energy(cfg, rest) == 0.0
        assert np.allclose(spring_gradient(cfg, rest), 0.0)

    def test_single_crease_value(self):
        cfg = SpringConfig(stiffness=[2.0], rest=[0.5])
        assert spring_energy(cfg, [1.5]) == pytest.approx(1.0)
        assert spring_gradient(cfg, [1.5])[0] == pytest.approx(2.0)

    def test_gradient_matches_finite_difference(self, waterbomb):
        rng = np.random.default_rng(17)
        cfg = SpringConfig(
            stiffness=rng.uniform(0.5, 3.0, 8), rest=rng.uniform(-1, 1, 8)
        )
        rho = rng.uniform(-2, 2, 8)
        grad = spring_gradient(cfg, rho)
        h = 1e-7
        for j in range(8):
            hi, lo = rho.copy(), rho.copy()
            hi[j] += h
            lo[j] -= h
            fd = (spring_energy(cfg, hi) - spring_energy(cfg, lo)) / (2 * h)
            assert abs(grad[j] - fd) < 1e-8 * max(1.0, abs(fd))

    def test_energy_two_welled_along_branch(self, waterbomb):
        rest = wb_state(waterbomb, 5 * math.pi / 8)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        thetas = np.linspace(0, 3 * math.pi / 4, 301)
        u = np.array([spring_energy(cfg, wb_state(waterbomb, t)) for t in thetas])
        assert u[np.argmin(np.abs(thetas - 5 * math.pi / 8))] < 1e-10
        interior_minima = [
            k for k in range(1, 300) if u[k] < u[k - 1] and u[k] < u[k + 1]
        ]
        assert len(interior_minima) == 2


class TestKktStep:
    def test_zero_at_rest_compatible_state(self, waterbomb):
        rest = wb_state(waterbomb, 5 * math.pi / 8)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        step = kkt_step(waterbomb, cfg, rest)
        assert np.linalg.norm(step) < 1e-9

    def test_constraint_satisfied(self, waterbomb):
        cfg = SpringConfig.per_unit_length(
            waterbomb, 1.0, wb_state(waterbomb, 5 * math.pi / 8)
        )
        s = wb_state(waterbomb, 0.0)  # downward compact, d != 0
        gc = assemble_global(waterbomb, s)
        step = kkt_step(waterbomb, cfg, s, gc=gc)
        assert np.all(np.isfinite(step))
        assert np.linalg.norm(gc.C @ step + gc.r) < 1e-9

    @staticmethod
    def full_rank_states(p, rng, count):
        states = []
        while len(states) < count:
            rho = rng.uniform(-math.pi + 0.1, math.pi - 0.1, p.n_creases)
            gc = assemble_global(p, rho)
            if rank(gc.C, 1e-6) == gc.C.shape[0]:
                states.append((rho, gc))
        return states

    def test_fast_path_matches_bordered(self, waterbomb):
        rng = np.random.default_rng(23)
        cfg = SpringConfig(
            stiffness=rng.uniform(0.5, 2.0, 8), rest=rng.uniform(-1, 1, 8)
        )
        for rho, gc in self.full_rank_states(waterbomb, rng, 20):
            d = spring_gradient(cfg, rho)
            step = kkt_step(waterbomb, cfg, rho, gc=gc)
            bordered = bordered_step(gc.C, gc.r, cfg.stiffness, d)
            assert np.allclose(step, bordered, atol=1e-9)

    def test_matches_explicit_inverse_varied_stiffness(self, waterbomb):
        # the explicit inverse squares the condition number of C, so it is an
        # oracle to 1e-9 only on well-conditioned states
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(5):
            cfg = SpringConfig(
                stiffness=rng.uniform(0.2, 5.0, 8), rest=rng.uniform(-1, 1, 8)
            )
            for rho, gc in self.full_rank_states(waterbomb, rng, 10):
                if np.linalg.cond(gc.C) > 100:
                    continue
                d = spring_gradient(cfg, rho)
                step = kkt_step(waterbomb, cfg, rho, gc=gc)
                explicit = explicit_inverse_step(gc.C, gc.r, cfg.stiffness, d)
                assert np.abs(step - explicit).max() < 1e-9
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("shape", [(3, 2), (5, 3)])
    def test_rank_deficient_tessellation(self, shape):
        p = generate_waterbomb_tessellation(*shape)
        rng = np.random.default_rng(37)
        rest = np.array([-2.0 if c.assignment == MOUNTAIN else 2.0 for c in p.creases])
        seed = flat_state_seed(p, math.radians(1.0))
        relaxed = relax(p, SpringConfig.per_unit_length(p, 1.0, rest),
                        RelaxSettings(max_steps=20), seed).final
        for rho in (np.zeros(p.n_creases), seed, relaxed):
            gc = assemble_global(p, rho)
            assert rank(gc.C, 1e-6) < gc.C.shape[0]
            for stiffness in (np.ones(p.n_creases), rng.uniform(0.5, 3.0, p.n_creases)):
                cfg = SpringConfig(stiffness=stiffness, rest=rest)
                d = spring_gradient(cfg, rho)
                step = kkt_step(p, cfg, rho, gc=gc)
                ref = bordered_step(gc.C, gc.r, cfg.stiffness, d)
                assert np.all(np.isfinite(step))
                assert (np.linalg.norm(gc.C @ step + gc.r)
                        <= np.linalg.norm(gc.C @ ref + gc.r) + 1e-12)

    def test_uniform_projection_equivalence(self, waterbomb):
        rng = np.random.default_rng(29)
        k0 = 1.7
        rest = rng.uniform(-1, 1, 8)
        cfg = SpringConfig(stiffness=np.full(8, k0), rest=rest)
        for _ in range(20):
            rho = rng.uniform(-math.pi + 0.1, math.pi - 0.1, 8)
            gc = assemble_global(waterbomb, rho)
            d = spring_gradient(cfg, rho)
            via_kkt = kkt_step(waterbomb, cfg, rho, gc=gc)
            via_projection = projection_step_uniform(waterbomb, k0, d, rho, gc=gc)
            assert np.allclose(via_kkt, via_projection, atol=1e-10)


class TestRelax:
    def test_settings_cap(self):
        with pytest.raises(ValueError):
            RelaxSettings(initial_step=math.pi / 10)

    def test_nan_start_is_refused(self, waterbomb):
        # bad input, not a solver failure: no ConvergenceError
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, np.zeros(8))
        with pytest.raises(ValueError, match="fold state has non-finite angles"):
            relax(waterbomb, cfg, RelaxSettings(), np.full(8, np.nan))

    def test_rest_compatible_start_immediate(self, waterbomb):
        rest = wb_state(waterbomb, 5 * math.pi / 8)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        result = relax(waterbomb, cfg, RelaxSettings(), rest)
        assert result.converged
        assert len(result.states) <= 2
        assert np.allclose(result.final, rest, atol=1e-9)
        assert result.stop_reason == "vanishing_step"

    def test_start_cleanup_iterations_recorded(self, waterbomb):
        """The start state's cleanup counts its Newton iterations like every
        later one: 0.05 rad off the 30 degree seed, plain Newton's 3."""
        start = flat_state_seed(waterbomb, math.radians(30.0)) + 0.05
        settings = RelaxSettings(max_steps=2)
        _, _, iters = refactoring_newton(waterbomb, start, (), settings.residual_tol)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, np.zeros(8))
        result = relax(waterbomb, cfg, settings, start)
        assert iters == 3
        assert result.newton_iters[0] == iters
        assert len(result.newton_iters) == len(result.states) == 3

    def test_bistable_upward_reaches_rest(self, wb_bistability):
        res = wb_bistability["upward"]
        rest = wb_bistability["rest"]
        assert res.converged
        assert np.abs(res.final - rest).max() < 1e-4
        assert spring_energy(wb_bistability["cfg"], res.final) < 1e-8
        assert res.projected_gradient < 1e-4

    def test_bistable_downward_matches_bruteforce(self, waterbomb, wb_bistability):
        res = wb_bistability["downward"]
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        theta, bm, bv, bu = waterbomb_branch_well(rm, rv)
        target = np.zeros(8)
        target[waterbomb.meta["mountains"]] = bm
        target[waterbomb.meta["valleys"]] = bv
        assert np.abs(res.final - target).max() < 1e-3
        assert spring_energy(wb_bistability["cfg"], res.final) > 1.0
        assert res.projected_gradient < 1e-4

    def test_states_compatible(self, waterbomb, wb_bistability):
        for name in ("upward", "downward"):
            for s in wb_bistability[name].states:
                gc = assemble_global(waterbomb, s)
                assert gc.normalized_residual < 1e-9

    def test_residuals_recorded_per_state(self, waterbomb, wb_bistability):
        for name in ("upward", "downward"):
            res = wb_bistability[name]
            assert res.residuals == [
                assemble_global(waterbomb, s).normalized_residual for s in res.states
            ]

    def test_step_size_is_exactly_c(self, wb_bistability):
        res = wb_bistability["downward"]
        for c, size in zip(res.step_factors, res.step_sizes):
            assert size == pytest.approx(c, abs=1e-15)

    def test_energy_monotone_until_first_halving(self, wb_bistability):
        # the overshooting move that triggers the halving is excluded: the
        # reversal is only detectable one step after it happened
        for name in ("upward", "downward"):
            res = wb_bistability[name]
            factors = res.step_factors
            first_halving = next(
                (k for k in range(1, len(factors)) if factors[k] < factors[k - 1]),
                len(factors),
            )
            energies = res.energies[:first_halving]
            assert len(energies) > 5
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    @pytest.mark.xfail(
        raises=ConvergenceError,
        strict=True,
        reason="the free-column cutoff (eigenvalues <= 1e-12 * lambda_max * n) drops "
        "the directions holding the residual, so the cleanup stalls near 1e-9",
    )
    def test_varied_stiffness_tessellation_cleanup(self):
        p = generate_waterbomb_tessellation(5, 3)
        seed = flat_state_seed(p, math.radians(1.0))
        r0 = 3 * math.pi / 4
        rest = np.array([-r0 if c.assignment == MOUNTAIN else r0 for c in p.creases])
        rng = np.random.default_rng(5)
        cfg = SpringConfig(
            stiffness=p.crease_lengths() * rng.uniform(0.5, 3.0, p.n_creases), rest=rest
        )
        result = relax(p, cfg, RelaxSettings(max_steps=2500), seed)
        assert result.projected_gradient < 1e-4
        assert result.converged

    def test_coarse_step_resolution_stop_is_not_converged(self, waterbomb):
        # c falls below a coarse resolution long before the state is stationary
        rest = np.array([
            -0.75 * math.pi if c.assignment == MOUNTAIN else 0.75 * math.pi
            for c in waterbomb.creases
        ])
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        seed = flat_state_seed(waterbomb, math.radians(1.0))
        coarse = relax(waterbomb, cfg, RelaxSettings(step_resolution=0.05), seed)
        assert coarse.step_factors[-1] <= 0.05  # stopped on step resolution
        assert coarse.projected_gradient > 1e-2
        assert not coarse.converged
        assert coarse.stop_reason == "step_resolution"

    @pytest.mark.parametrize("max_steps", [0, 1, 3])
    def test_step_budget_stop_is_named(self, waterbomb, max_steps):
        rest = wb_state(waterbomb, 5 * math.pi / 8)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        s0 = wb_state(waterbomb, 3 * math.pi / 4)
        result = relax(waterbomb, cfg, RelaxSettings(max_steps=max_steps), s0)
        assert result.stop_reason == "max_steps"
        assert len(result.states) == max_steps + 1
        assert not result.converged

    def test_stop_reason_is_named_on_converged_runs(self, wb_bistability):
        """A stationary run still says what stopped it."""
        for name in ("upward", "downward"):
            res = wb_bistability[name]
            assert res.converged
            assert res.stop_reason in STOP_REASONS

    def test_characteristic_default_largest_moment(self, waterbomb):
        rest = wb_state(waterbomb, 5 * math.pi / 8)
        cfg = SpringConfig.per_unit_length(waterbomb, 1.0, rest)
        s0 = wb_state(waterbomb, 3 * math.pi / 4)
        result = relax(waterbomb, cfg, RelaxSettings(max_steps=1), s0)
        expected = int(np.argmax(np.abs(spring_gradient(cfg, s0))))
        assert result.characteristic == expected


class TestWaterbombOracle:
    def test_reference_values(self):
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        assert rm == pytest.approx(-math.pi / 4, abs=1e-12)
        assert rv == pytest.approx(1.7908, abs=1e-4)

    def test_flat_point(self):
        rm, rv = waterbomb_symmetric_oracle(math.pi / 2)
        assert rm == pytest.approx(0.0, abs=1e-12)
        assert rv == pytest.approx(0.0, abs=1e-12)

    def test_compact_endpoints(self):
        assert waterbomb_symmetric_oracle(0.0) == pytest.approx(
            (-math.pi, math.pi / 2), abs=1e-12
        )
        assert waterbomb_symmetric_oracle(3 * math.pi / 4) == pytest.approx(
            (-math.pi / 2, math.pi), abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            waterbomb_symmetric_oracle(-0.2)
        with pytest.raises(ValueError):
            waterbomb_symmetric_oracle(2.5)
