"""Controlled folding steps via Lagrange multipliers and schedule execution.

One folding step prescribes exact increments f for a controlled crease
subset A.  The increment of the full state minimizes the linearized closure
residual ||C drho + r|| subject to drho_A = f.  Eliminating the multipliers
leaves the normal equations on the free creases F:

    C_F^T C_F drho_F = -C_F^T (r + C_A f)

solved by ``numerics.free_column_solve`` on the assembly's per-vertex
blocks of C; its docstring says how the rank is decided and which solve
serves which C_F.

A step is one predictor-corrector continuation step (Allgower and Georg,
Numerical Continuation Methods, 1990, ch. 6), run by one Newton loop
(``_newton``).  The loop's first solve is the tangent predictor, the solve
above with the step's f.  Every later solve has f = 0: it eliminates the
residual and leaves the controlled angles untouched.  Only a certified
band is reused (a chord method, Kelley 2003, ch. 2): its full column rank
makes the root with the controlled angles fixed isolated, so chord steps
``-N0^-1 C0_F^T r`` on the kept blocks C0 converge to the same root as
Newton's.  The loop refactors at an iterate whose residual norm is more
than ``CHORD_RATIO`` = 0.5 times the one before, and a schedule step hands
its last kept factorization to the next step's predictor in the same
stage, whose controlled and held creases are the same.  The deflated and
eigendecomposition solves, and every solve with no crease controlled
(seeding, relaxation), are made afresh at every iterate.  A relaxation's
cleanup runs the same loop in the springs' metric (``_newton``'s
``scale``).

Within a stage the waypoints are equally spaced, so the stage's states
sample one smooth path at equal steps.  Once the stage's last five steps
each kept a certified factorization, the next step starts its loop with no
predictor, at the quartic through those five states extrapolated one step
(polynomial extrapolation along the continuation parameter):
``5 rho_-1 - 10 rho_-2 + 10 rho_-3 - 5 rho_-4 + rho_-5``, with the
controlled entries set to the waypoint and the held ones to ``rho_-1``.
Its first Newton iterate refactors.  The history restarts at each stage and
after any step that keeps no factorization, so extrapolation never spans a
flat or singular state.  If Newton fails from the extrapolated start, or
converges farther from it (max norm) than it lies from ``rho_-1``, the step
is redone from ``rho_-1`` with the tangent predictor.
"""

import json
import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .kinematics import FOLD_RANGE_SLACK, assemble_global, check_fold_range
from .numerics import free_column_solve
from .pattern import _index, _is_number, _one_each, _real

DEFAULT_EPS = 1e-9
MAX_ITER = 50  # Newton iterations a solve may take before it fails
MAX_STEP = math.radians(5.0)
# a Newton loop keeps its factorization while each residual norm is at most
# this share of the one before (Kelley's chord and Shamanskii rule)
CHORD_RATIO = 0.5
# weights of the stage's last five states, oldest first, whose sum is the
# quartic through them extrapolated one equal step
EXTRAPOLATION = np.array([1.0, -5.0, 10.0, -10.0, 5.0])


class ConvergenceError(RuntimeError):
    """Newton residual elimination failed to reach tolerance; ``iters``
    holds the Newton iterations run, where known."""

    def __init__(self, message, iters=None):
        super().__init__(message)
        self.iters = iters


@dataclass(frozen=True)
class Stage:
    """One schedule stage: absolute targets for controlled creases plus holds."""

    targets: dict
    steps: int | None = None
    hold: tuple = ()

    def __post_init__(self):
        targets = {}
        for i, t in self.targets.items():
            i = _index(i, "stage targets")
            targets[i] = _real(t, f"target of crease {i}")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "hold", tuple(_index(i, "held creases") for i in self.hold))
        for k, i in enumerate(self.hold):
            if i in self.hold[:k]:
                raise ValueError(f"crease {i} held twice")
        if self.steps is not None and not (_is_number(self.steps, Integral) and self.steps >= 1):
            raise ValueError(f"step count must be an integer >= 1, got {self.steps!r}")
        if not all(math.isfinite(t) for t in self.targets.values()):
            raise ValueError("stage targets must be finite")
        overlap = set(self.targets) & set(self.hold)
        if overlap:
            raise ValueError(f"creases both controlled and held: {sorted(overlap)}")


@dataclass(frozen=True)
class FoldSchedule:
    stages: tuple

    @classmethod
    def from_json(cls, document):
        """Schedule document: crease ids are integers, never truncated, each
        controlled or held once per stage, and targets real numbers, never
        converted from strings or bools."""
        data = json.loads(document) if isinstance(document, str) else document
        stages = []
        for k, s in enumerate(data["stages"]):
            targets = {}
            for c in s["controlled"]:
                i = _index(c["crease"], f"controlled creases of stage {k}")
                if i in targets:
                    raise ValueError(f"crease {i} controlled twice in stage {k}")
                targets[i] = _real(c["target"], f"target in stage {k}")
            hold = []
            for h in s.get("hold", ()):
                i = _index(h, f"held creases of stage {k}")
                if i in hold:
                    raise ValueError(f"crease {i} held twice in stage {k}")
                hold.append(i)
            stages.append(Stage(targets=targets, steps=s.get("steps"), hold=tuple(hold)))
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


def _newton(p, rho, controlled, eps, f=None, gc=None, kept=None, scale=None):
    """One step's Newton loop: every solve of a fold step, seed or cleanup.

    With ``f`` given, the first solve is the tangent predictor: it moves
    the controlled creases by ``f`` from ``rho`` and solves on ``kept``
    when it holds a certified band factorization for these controlled
    creases, else on the blocks of ``gc``, the assembly at ``rho``
    (assembled when not given).  It is no Newton iteration, and no
    convergence test precedes it.  Every later solve has f = 0 and runs
    until the normalized residual passes eps; a loop that needs more than
    ``MAX_ITER`` Newton iterations raises ``ConvergenceError``.  An eps that
    is not finite and positive is a ValueError before any solve.

    ``scale`` sets the metric of the free increment: each solve is on the
    columns of C multiplied by ``scale`` (``RowBlocks.scale_columns``), and
    its increment is multiplied by ``scale`` again.  The step is then the
    minimum-norm one in the metric ``diag(scale)^-2``; the relaxation passes
    ``H^-1/2``, which makes its cleanup the paper's ``-G r``, ``G = H^-1
    C^T (C H^-1 C^T)^-1``.  Without it the metric is the radian one.

    A chord method (Kelley, Solving Nonlinear Equations with Newton's
    Method, 2003, ch. 2): blocks C0 whose band factorization a solve with
    these controlled creases certified are kept, and later solves step by
    ``-N0^-1 C0_F^T r`` on them.  An iterate whose normalized residual is
    more than ``CHORD_RATIO`` times the one before (the predictor's, for
    the first) refactors at its own state.  Every other solve (deflated,
    eigendecomposition, or with no crease controlled, where the compatible
    states of a mechanism are not isolated and a chord iteration could
    settle elsewhere on them) is made afresh at each iterate: plain Newton.
    Returns the state, its assembly, the iteration count and the blocks of
    the last solve, which keep its factorization (``kept`` as given when
    the loop made no solve).  A non-finite residual never passes.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if gc is None:
        gc = assemble_global(p, rho)
    predicting = f is not None
    zero = np.zeros(len(controlled))
    previous = math.inf
    iters = 0
    while predicting or not gc.normalized_residual < eps:
        norm = gc.normalized_residual
        if not predicting:
            if not math.isfinite(norm):
                raise ConvergenceError(
                    f"non-finite residual after {iters} Newton iterations", iters
                )
            if iters >= MAX_ITER:
                raise ConvergenceError(
                    f"residual {norm:.3e} after {iters} Newton iterations (eps={eps:.1e})",
                    iters,
                )
        # the predictor has no norm before it, so it keeps what it is given
        if not _chord(kept, controlled) or norm > CHORD_RATIO * previous:
            kept = gc.blocks if scale is None else gc.blocks.scale_columns(scale)
        step = free_column_solve(kept, gc.r, controlled, f if predicting else zero)
        rho = rho + (step if scale is None else scale * step)
        previous = norm
        gc = assemble_global(p, rho)
        iters += not predicting
        predicting = False
    return rho, gc, iters, kept


def _chord(kept, controlled):
    """Whether blocks ``kept`` hold a certified band factorization that a
    chord step with these controlled creases reuses."""
    return kept is not None and bool(controlled) and kept.certified(controlled)


def _fold_state(p, rho):
    """``rho`` as a float vector, refused unless it holds one finite angle
    per crease: the solvers check their start state with it before any
    solve, and ``embed`` every state before it places any."""
    rho = _one_each(rho, "fold state has {} angles", p.n_creases)
    if not np.all(np.isfinite(rho)):
        bad = np.flatnonzero(~np.isfinite(rho)).tolist()
        raise ValueError(f"fold state has non-finite angles at creases {bad}")
    return rho


def flat_state_seed(p, magnitude=math.radians(1.0), eps=DEFAULT_EPS):
    """Assignment-signed near-flat state projected onto the constraint set.

    Valleys start at +magnitude, mountains at -magnitude, unassigned creases
    at +0.0; pure residual elimination (no controlled creases) then restores
    compatibility, which selects the folding branch matching the assignment.
    A non-finite magnitude, or an ``eps`` that is not finite and positive,
    raises ``ValueError`` before any solve.
    """
    if not math.isfinite(magnitude):
        raise ValueError(f"seed magnitude {magnitude!r} is not finite")
    rho = np.where(p._fold_signs != 0, magnitude * p._fold_signs, 0.0)
    rho, _, _, _ = _newton(p, rho, (), eps)
    return rho


def _check_schedule(p, schedule):
    """Refuse a schedule that names a crease outside ``p`` or sets a target
    outside the fold-angle range [-pi, pi] with ``ValueError``: the entry
    check of ``run_schedule``, which the CLI runs before it makes any
    output."""
    for stage in schedule.stages:
        for i in (*stage.targets, *stage.hold):
            if not 0 <= i < p.n_creases:
                raise ValueError(
                    f"crease id {i} out of range (pattern has {p.n_creases} creases)"
                )
        for i, target in stage.targets.items():
            if abs(target) > math.pi + FOLD_RANGE_SLACK:
                raise ValueError(f"target {target!r} of crease {i} outside [-pi, pi]")


def run_schedule(p, rho0, schedule, eps=DEFAULT_EPS):
    """Execute schedule stages in order, returning the full trajectory.

    Within a stage the controlled angles move linearly from their entry value
    to the target; each step prescribes the exact remaining share, so stage
    boundaries land on their targets to solver precision.  Held creases get
    fixed columns with zero increments.  When a stage omits its step count,
    enough steps are used to keep every controlled increment at or below
    ``MAX_STEP`` (5 degrees).  Each step hands the band factorization its
    Newton loop kept to the next step of the same stage, and a step after
    five that each kept one starts from their quartic extrapolation (see the
    module docstring).
    A crease id outside the pattern, a target outside the fold-angle range
    [-pi, pi], a start state that is not one finite angle per crease, or an
    ``eps`` that is not finite and positive raises ``ValueError`` before any
    solve: a finite but huge target would ask a stage without a step count
    for endless steps.
    """
    _check_schedule(p, schedule)
    rho = _fold_state(p, rho0).copy()
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
            steps = max(1, math.ceil(span / MAX_STEP - 1e-12))
        held = list(stage.hold)
        controlled = tuple(ids) + stage.hold
        kept = None
        # states of this stage's steps since the last that kept nothing
        history = deque(maxlen=len(EXTRAPOLATION))
        for k in range(1, steps + 1):
            waypoint = start + (targets - start) * (k / steps)
            last, extrapolated, discarded = rho, False, 0
            try:
                # a full history means the step before kept a factorization
                if len(history) == history.maxlen:
                    guess = EXTRAPOLATION @ np.array(history)
                    guess[ids] = waypoint
                    guess[held] = last[held]
                    try:
                        rho, gc_next, iters, kept_next = _newton(p, guess, controlled, eps)
                    except ConvergenceError as exc:
                        discarded = exc.iters
                    else:
                        extrapolated = np.abs(rho - guess).max() <= np.abs(guess - last).max()
                        if extrapolated:
                            # a start that needs no iterate keeps the factorization before it
                            gc, kept = gc_next, kept_next if iters else kept
                        else:
                            discarded = iters
                if not extrapolated:
                    f = np.concatenate([waypoint - last[ids], np.zeros(len(held))])
                    rho, gc, iters, kept = _newton(p, last, controlled, eps, f, gc, kept)
                    iters += discarded
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"stage {stage_idx}, step {k}/{steps}: {exc}", exc.iters
                ) from exc
            check_fold_range(rho)
            if not _chord(kept, controlled):
                history.clear()
            else:
                history.append(rho)
            traj.append(rho, gc.normalized_residual, iters)
        if ids:
            gap = float(np.max(np.abs(rho[ids] - targets)))
            if gap > 1e-9:
                raise ConvergenceError(
                    f"stage {stage_idx} targets missed by {gap:.3e}"
                )
        traj.stage_ends.append(len(traj) - 1)
    return traj
