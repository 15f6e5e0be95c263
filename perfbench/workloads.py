"""The benchmark's workloads: inputs from a seed, one timed run, output checks.

Each workload has three parts.  ``setup`` builds the inputs from the seed
(this is what ``setup_s`` times).  ``run`` is one complete timed run through
the public API or the CLI.  ``check`` returns the problems found in that
run's outputs, outside the timed region.  ``counts`` returns the counts the
program itself reports (trajectory lengths, Newton iterations, step factors,
bytes written), which the traced run reports next to the span counts.

Seed 0 gives the centre of each input range; any other seed draws uniformly
from it.  The program only ever sees the generated inputs.
"""

import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import rigidfold
import rigidfold.cli
from rigidfold.pattern import MOUNTAIN


def _uniform(seed, lo, hi, centre):
    return centre if seed == 0 else random.Random(seed).uniform(lo, hi)


def _stage_steps(seed, total=108, lo=30, hi=42):
    """Three stage step counts in [lo, hi] that sum to ``total``."""
    if seed == 0:
        return (total // 3,) * 3
    rng = random.Random(seed)
    first = rng.randint(lo, hi)
    second = rng.randint(max(lo, total - hi - first), min(hi, total - lo - first))
    return first, second, total - first - second


def _residuals(p, states):
    """Normalized closure residual of each state, recomputed from scratch."""
    fans = rigidfold.build_vertex_fans(p)
    return [rigidfold.assemble_global(p, s, fans).normalized_residual for s in states]


def _halvings(step_factors, initial):
    previous, count = initial, 0
    for c in step_factors:
        count += c < previous
        previous = c
    return count


class MiuraDrive:
    """Acceptance drive of a Miura 7x7 sheet to the flat-folded endpoint."""

    name = "miura_drive"
    cells = 7
    seed_deg = 1.0
    drive_deg = -175.0
    body_steps = 35
    body_eps = 1e-13

    def setup(self, seed, workdir):
        alpha = math.radians(_uniform(seed, 55.0, 65.0, 60.0))
        p = rigidfold.generate_miura(self.cells, self.cells, alpha=alpha)
        return {"pattern": p, "alpha": alpha}

    def run(self, inputs, scratch):
        p = inputs["pattern"]
        driven = p.meta["driven_crease"]
        seed = rigidfold.flat_state_seed(
            p, math.radians(self.seed_deg), eps=self.body_eps
        )
        body = rigidfold.FoldSchedule((rigidfold.Stage(
            targets={driven: math.radians(self.drive_deg)}, steps=self.body_steps,
        ),))
        traj = rigidfold.run_schedule(p, seed, body, eps=self.body_eps)
        last = traj.states[-1]
        finish = rigidfold.FoldSchedule((rigidfold.Stage(
            targets={i: math.copysign(math.pi, last[i]) for i in range(p.n_creases)},
            steps=1,
        ),))
        tail = rigidfold.run_schedule(p, last, finish, eps=1e-9)
        for state, res, iters in zip(
            tail.states[1:], tail.residuals[1:], tail.newton_iters[1:]
        ):
            traj.append(state, res, iters)
        return traj

    def check(self, inputs, traj):
        p = inputs["pattern"]
        states = traj.states
        if not all(np.all(np.isfinite(s)) for s in states):
            return ["non-finite state"]
        problems = []
        worst = float(np.max(_residuals(p, states)))
        if not worst < 1e-9:
            problems.append(f"residual {worst:.3e} >= 1e-9")
        i1, i2 = p.meta["driven_crease"], p.meta["follower_crease"]
        cos_a = math.cos(inputs["alpha"])
        gaps = [
            abs(math.tan(s[i2] / 2) - cos_a * math.tan(s[i1] / 2))
            for s in states if abs(math.tan(s[i1] / 2)) < 1e6
        ]
        gap = float(np.max(gaps))
        if not gap < 1e-8:
            problems.append(f"fold-angle relation gap {gap:.3e} >= 1e-8")
        end_gap = float(np.max(np.abs(np.abs(states[-1]) - math.pi)))
        if not end_gap < 1e-9:
            problems.append(f"endpoint misses +-pi by {end_gap:.3e}")
        if len(states) != self.body_steps + 2:
            problems.append(f"{len(states)} states, expected {self.body_steps + 2}")
        return problems

    def counts(self, inputs, traj):
        return {
            "accepted_states": len(traj),
            "sequential.steps": len(traj) - 1,
            "sequential.newton_iters": sum(traj.newton_iters),
        }


class TessRelax:
    """Spring relaxation of a waterbomb 5x3 tessellation from the 1 degree seed."""

    name = "tess_relax"
    rows, cols = 5, 3
    seed_deg = 1.0
    max_steps = 2500

    def setup(self, seed, workdir):
        p = rigidfold.generate_waterbomb_tessellation(self.rows, self.cols)
        r0 = math.pi * _uniform(seed, 0.73, 0.78, 0.75)
        rest = np.array([-r0 if c.assignment == MOUNTAIN else r0 for c in p.creases])
        return {
            "pattern": p,
            "springs": rigidfold.SpringConfig.per_unit_length(p, 1.0, rest),
            "settings": rigidfold.RelaxSettings(max_steps=self.max_steps),
        }

    def run(self, inputs, scratch):
        p = inputs["pattern"]
        start = rigidfold.flat_state_seed(p, math.radians(self.seed_deg))
        return start, rigidfold.relax(p, inputs["springs"], inputs["settings"], start)

    def check(self, inputs, outcome):
        start, result = outcome
        if not result.converged:
            return ["relaxation did not converge"]
        if not all(np.all(np.isfinite(s)) for s in result.states):
            return ["non-finite state"]
        problems = []
        tol = inputs["settings"].residual_tol
        worst = float(np.max(_residuals(inputs["pattern"], result.states)))
        if not worst < tol:
            problems.append(f"residual {worst:.3e} >= {tol:.1e}")
        e0 = rigidfold.spring_energy(inputs["springs"], start)
        if not result.energies[-1] < e0:
            problems.append(f"final energy {result.energies[-1]:.6g} >= seed {e0:.6g}")
        return problems

    def counts(self, inputs, outcome):
        _, result = outcome
        return {
            "accepted_states": len(result.states),
            "elastic.steps": len(result.step_factors),
            "elastic.newton_iters": sum(result.newton_iters),
            "elastic.halvings": _halvings(
                result.step_factors, inputs["settings"].initial_step
            ),
        }


class CraneFoldCli:
    """``rigidfold fold`` on the crane's three-stage schedule, called in-process."""

    name = "crane_fold_cli"

    def setup(self, seed, workdir):
        p = rigidfold.generate_crane()
        steps = _stage_steps(seed)
        schedule = rigidfold.FoldSchedule(tuple(
            dataclasses.replace(stage, steps=k)
            for stage, k in zip(rigidfold.crane_schedule(p).stages, steps)
        ))
        pattern_file = Path(workdir) / "crane.json"
        schedule_file = Path(workdir) / "schedule.json"
        pattern_file.write_text(rigidfold.serialize_pattern(p))
        schedule_file.write_text(json.dumps(schedule.to_dict()))
        return {
            "pattern": p,
            "states": sum(steps) + 1,
            "argv": ["fold", "--pattern", str(pattern_file),
                     "--schedule", str(schedule_file),
                     "--every", "1", "--seed-magnitude", "0"],
        }

    def run(self, inputs, scratch):
        out = Path(scratch) / "fold"
        with contextlib.redirect_stdout(io.StringIO()):
            code = rigidfold.cli.main(inputs["argv"] + ["--out", str(out)])
        return code, out

    def check(self, inputs, outcome):
        code, out = outcome
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        rows = (out / "residuals.csv").read_text().splitlines()[1:]
        objs = sorted(out.glob("step_*.obj"))
        if not len(objs) == len(rows) == inputs["states"]:
            problems.append(
                f"{len(objs)} OBJ frames, {len(rows)} states, "
                f"expected {inputs['states']}"
            )
        residuals = np.array([float(r.split(",")[1]) for r in rows])
        if not np.all(np.isfinite(residuals)):
            problems.append("non-finite residual in residuals.csv")
        p = inputs["pattern"]
        ends = np.array([c.key for c in p.creases])
        lengths = p.crease_lengths()
        errors = []
        for obj in objs:
            coords = np.array([
                [float(t) for t in line.split()[1:4]]
                for line in obj.read_text().splitlines() if line.startswith("v ")
            ])
            if coords.shape != (len(p.vertices), 3):
                return problems + [f"{obj.name}: {coords.shape[0]} vertices"]
            if not np.all(np.isfinite(coords)):
                return problems + [f"{obj.name}: non-finite vertex"]
            measured = np.linalg.norm(coords[ends[:, 0]] - coords[ends[:, 1]], axis=1)
            errors.append(np.abs(measured - lengths))
        # np.max propagates NaN, so "not worst < tol" catches it
        worst = float(np.max(errors)) if errors else 0.0
        if not worst < 1e-9:
            problems.append(f"crease length error {worst:.3e} >= 1e-9")
        return problems

    def counts(self, inputs, outcome):
        _, out = outcome
        rows = (out / "residuals.csv").read_text().splitlines()[1:]
        # manifest.json carries the wall time, so its length varies run to run
        written = sum(
            f.stat().st_size for f in out.iterdir() if f.name != "manifest.json"
        )
        return {
            "accepted_states": len(rows),
            "sequential.steps": len(rows) - 1,
            "sequential.newton_iters": sum(int(r.split(",")[2]) for r in rows),
            "cli.bytes_written": written,
        }


WORKLOADS = {w.name: w for w in (CraneFoldCli(), MiuraDrive(), TessRelax())}
