"""Controlled folding steps via Lagrange multipliers and schedule execution.

One folding step prescribes exact increments f for a controlled crease
subset A.  The increment of the full state minimizes the linearized closure
residual ||C drho + r|| subject to drho_A = f.  Eliminating the multipliers
leaves the normal equations on the free creases F:

    C_F^T C_F drho_F = -C_F^T (r + C_A f)

solved by ``numerics.free_column_solve``.  Squared singular values of C_F
at or below ``1e-12 * lambda_max * n_creases`` count as zero.  When one
does (at the flat state, where the closure condition degenerates, or when
more creases are free than C has independent rows, as in the crane's
stages), the minimum-norm drho_F is used.  After the increment, the residual
is eliminated by iterating the same solve with f = 0, which leaves the
controlled angles untouched.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import assemble_global, check_fold_range
from .numerics import free_column_solve
from .pattern import MOUNTAIN, VALLEY

DEFAULT_EPS = 1e-9
DEFAULT_MAX_ITER = 50
DEFAULT_MAX_STEP = math.radians(5.0)


class ConvergenceError(RuntimeError):
    """Newton residual elimination failed to reach tolerance."""


@dataclass(frozen=True)
class FoldDirective:
    """Controlled crease ids with one prescribed increment per crease."""

    controlled: tuple
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "controlled", tuple(int(i) for i in self.controlled))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float).reshape(-1))
        if len(set(self.controlled)) != len(self.controlled):
            raise ValueError("controlled crease ids must be distinct")
        if self.f.shape != (len(self.controlled),):
            raise ValueError("one increment per controlled crease required")


@dataclass(frozen=True)
class Stage:
    """One schedule stage: absolute targets for controlled creases plus holds."""

    targets: dict
    steps: int | None = None
    hold: tuple = ()

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("step count must be >= 1")
        overlap = set(self.targets) & set(self.hold)
        if overlap:
            raise ValueError(f"creases both controlled and held: {sorted(overlap)}")


@dataclass(frozen=True)
class FoldSchedule:
    stages: tuple

    @classmethod
    def from_json(cls, document):
        data = json.loads(document) if isinstance(document, str) else document
        stages = []
        for s in data["stages"]:
            targets = {int(c["crease"]): float(c["target"]) for c in s["controlled"]}
            stages.append(
                Stage(
                    targets=targets,
                    steps=s.get("steps"),
                    hold=tuple(int(i) for i in s.get("hold", ())),
                )
            )
        return cls(tuple(stages))

    def to_dict(self):
        return {
            "stages": [
                {
                    "controlled": [
                        {"crease": c, "target": t} for c, t in sorted(s.targets.items())
                    ],
                    "hold": list(s.hold),
                    "steps": s.steps,
                }
                for s in self.stages
            ]
        }


@dataclass
class FoldTrajectory:
    """Accepted states with their residual norms and Newton iteration counts."""

    states: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    stage_ends: list = field(default_factory=list)

    def append(self, state, residual, iters):
        self.states.append(np.asarray(state, dtype=float).copy())
        self.residuals.append(float(residual))
        self.newton_iters.append(int(iters))

    def __len__(self):
        return len(self.states)


def _eliminate_residual(p, rho, controlled, eps, max_iter):
    """Newton loop with f = 0 until the normalized residual passes eps.

    Returns the state, its assembly and the iteration count.  A non-finite
    residual never passes.
    """
    iters = 0
    gc = assemble_global(p, rho)
    while not gc.normalized_residual < eps:
        norm = gc.normalized_residual
        if not math.isfinite(norm):
            raise ConvergenceError(
                f"non-finite residual after {iters} Newton iterations"
            )
        if iters >= max_iter:
            raise ConvergenceError(
                f"residual {norm:.3e} after {iters} Newton iterations (eps={eps:.1e})"
            )
        drho = free_column_solve(gc.C, gc.r, controlled, np.zeros(len(controlled)))
        rho = rho + drho
        gc = assemble_global(p, rho)
        iters += 1
    return rho, gc, iters


def controlled_step(p, rho, directive, eps=DEFAULT_EPS, max_iter=DEFAULT_MAX_ITER):
    """One folding step driven by controlled creases; returns the next state."""
    state, _, _ = _controlled_step(p, rho, directive, eps, max_iter)
    return state


def _controlled_step(p, rho, directive, eps, max_iter, gc=None):
    """One step from ``rho``, whose assembly ``gc`` is reused when given.

    Returns the next state, its assembly and the Newton iteration count.
    """
    rho = np.asarray(rho, dtype=float)
    if gc is None:
        gc = assemble_global(p, rho)
    drho = free_column_solve(gc.C, gc.r, directive.controlled, directive.f)
    rho = rho + drho
    rho, gc, iters = _eliminate_residual(p, rho, directive.controlled, eps, max_iter)
    check_fold_range(rho)
    return rho, gc, iters


def flat_state_seed(p, magnitude=math.radians(1.0), eps=DEFAULT_EPS,
                    max_iter=DEFAULT_MAX_ITER):
    """Assignment-signed near-flat state projected onto the constraint set.

    Valleys start at +magnitude, mountains at -magnitude, unassigned creases
    at zero; pure residual elimination (no controlled creases) then restores
    compatibility, which selects the folding branch matching the assignment.
    """
    rho = np.zeros(p.n_creases)
    for i, c in enumerate(p.creases):
        if c.assignment == VALLEY:
            rho[i] = magnitude
        elif c.assignment == MOUNTAIN:
            rho[i] = -magnitude
    rho, _, _ = _eliminate_residual(p, rho, (), eps, max_iter)
    return rho


def tachi_projection_step(p, rho, drho0):
    """Baseline single-shot Euler step: nullspace projection plus error term.

    Projects the intended increment into the nullspace of C and compensates
    the current residual in one shot; no iteration, so increments of specific
    creases are not exactly controlled.
    """
    from .numerics import pseudoinverse

    rho = np.asarray(rho, dtype=float)
    gc = assemble_global(p, rho)
    cplus = pseudoinverse(gc.C)
    drho = (
        np.asarray(drho0, dtype=float)
        - cplus @ (gc.C @ np.asarray(drho0, dtype=float))
        - cplus @ gc.r
    )
    return rho + drho


def run_schedule(p, rho0, schedule, eps=DEFAULT_EPS, max_iter=DEFAULT_MAX_ITER,
                 max_step=DEFAULT_MAX_STEP):
    """Execute schedule stages in order, returning the full trajectory.

    Within a stage the controlled angles move linearly from their entry value
    to the target; each step prescribes the exact remaining share, so stage
    boundaries land on their targets to solver precision.  Held creases get
    fixed columns with zero increments.  When a stage omits its step count,
    enough steps are used to keep every controlled increment at or below
    ``max_step``.  A crease id outside the pattern raises ``ValueError``.
    """
    for stage in schedule.stages:
        for i in (*stage.targets, *stage.hold):
            if not 0 <= i < p.n_creases:
                raise ValueError(
                    f"crease id {i} out of range (pattern has {p.n_creases} creases)"
                )
    rho = np.asarray(rho0, dtype=float).copy()
    gc = assemble_global(p, rho)
    traj = FoldTrajectory()
    traj.append(rho, gc.normalized_residual, 0)

    for stage_idx, stage in enumerate(schedule.stages):
        ids = sorted(stage.targets)
        start = rho[ids].copy()
        targets = np.array([stage.targets[i] for i in ids])
        steps = stage.steps
        if steps is None:
            span = float(np.max(np.abs(targets - start))) if ids else 0.0
            steps = max(1, math.ceil(span / max_step - 1e-12))
        controlled = tuple(ids) + tuple(stage.hold)
        for k in range(1, steps + 1):
            waypoint = start + (targets - start) * (k / steps)
            f = np.concatenate([waypoint - rho[ids], np.zeros(len(stage.hold))])
            directive = FoldDirective(controlled=controlled, f=f)
            try:
                rho, gc, iters = _controlled_step(p, rho, directive, eps, max_iter, gc)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"stage {stage_idx}, step {k}/{steps}: {exc}"
                ) from exc
            traj.append(rho, gc.normalized_residual, iters)
        if ids:
            gap = float(np.max(np.abs(rho[ids] - targets)))
            if gap > 1e-9:
                raise ConvergenceError(
                    f"stage {stage_idx} targets missed by {gap:.3e}"
                )
        traj.stage_ends.append(len(traj) - 1)
    return traj
