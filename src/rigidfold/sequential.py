"""Controlled folding steps via Lagrange multipliers and schedule execution.

One folding step prescribes exact increments f for a controlled crease
subset A.  The increment of the full state minimizes the linearized closure
residual ||C drho + r|| subject to drho_A = f.  Eliminating the multipliers
leaves the normal equations on the free creases F:

    C_F^T C_F drho_F = -C_F^T (r + C_A f)

solved by ``numerics.free_column_solve`` on the assembly's per-vertex
blocks of C.  Squared singular values of C_F at or below ``1e-12 *
lambda_max * n_creases`` count as zero.  Each block of C couples only the
creases of one vertex, so in the canonical crease order C_F is banded and
its normal matrix block-tridiagonal (Miura k x k cells: band 4k, read from
the vertices' first and last free creases).  The solve has four branches:

- certified band: for a tall C_F with at least three blocks, one sweep of
  windowed Cholesky factorizations of the shifted and the unshifted normal
  matrix certifies that no squared singular value counts as zero and
  factors it, without a dense C; the factors are kept on the blocks;
- deflated band: where that certificate fails, as at the flat state, where
  the closure condition degenerates and the mechanism's direction becomes
  a null vector, the null space is found by inverse iteration in the band,
  the gap around the cutoff is proved by an inertia count, and the
  minimum-norm drho_F is refined on the remaining directions, still
  without a dense C;
- tall eigh: with fewer blocks, or when the deflated solve proves nothing
  (an eigenvalue too near the cutoff), an eigendecomposition of the dense
  Gram matrix decides the rank and gives the minimum-norm drho_F;
- wide eigh: a C_F with more creases free than C has rows, as in one of
  the crane's stages, is solved on the eigenvectors of ``C_F C_F^T``.

After the increment, the residual is eliminated by iterating the same solve
with f = 0, which leaves the controlled angles untouched.  Only a certified
band is reused (a chord method, Kelley 2003, ch. 2): its full column rank
makes the root with the controlled angles fixed isolated, so chord steps
``-N0^-1 C0_F^T r`` on the kept blocks C0 converge to the same root as
Newton's.  The Newton loop refactors at an iterate whose residual norm is
more than ``CHORD_RATIO`` = 0.5 times the one before, and a schedule step
hands its last kept factorization to the next step's predictor in the same
stage, whose controlled and held creases are the same.  The deflated and
eigendecomposition branches, and every solve with no crease controlled
(seeding, relaxation), solve afresh at every iterate.

Within a stage the waypoints are equally spaced, so the stage's states
sample one smooth path at equal steps.  Once the stage's last five steps
each kept a certified factorization, the next step skips the tangent
predictor solve and starts Newton at the quartic through those five states,
extrapolated one step (polynomial extrapolation along the continuation
parameter, Allgower and Georg, Numerical Continuation Methods, 1990,
ch. 6): ``5 rho_-1 - 10 rho_-2 + 10 rho_-3 - 5 rho_-4 + rho_-5``, with the
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
from .pattern import MOUNTAIN, VALLEY, _index, _is_number, _real

DEFAULT_EPS = 1e-9
DEFAULT_MAX_ITER = 50
DEFAULT_MAX_STEP = math.radians(5.0)
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
class FoldDirective:
    """Controlled crease ids with one prescribed increment per crease;
    increments are finite real numbers, never converted from strings or
    bools."""

    controlled: tuple
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "controlled", tuple(
            _index(i, "controlled creases") for i in self.controlled
        ))
        if len(set(self.controlled)) != len(self.controlled):
            raise ValueError("controlled crease ids must be distinct")
        # a numeric array holds only numbers; any other input is read entry
        # by entry, so that a string, bool or None is never converted
        numeric = isinstance(self.f, np.ndarray) and self.f.dtype.kind in "fiu"
        f = np.asarray(self.f, dtype=float if numeric else object).reshape(-1)
        if f.shape != (len(self.controlled),):
            raise ValueError("one increment per controlled crease required")
        for i, x in zip(self.controlled, f):
            if not (numeric or _is_number(x)):
                raise TypeError(f"increment {x!r} of crease {i} is not a number")
            if not math.isfinite(x):
                raise ValueError(f"increment {x!r} of crease {i} is not finite")
        object.__setattr__(self, "f", f.astype(float))


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


def _eliminate_residual(p, rho, controlled, eps, max_iter):
    """Newton loop with f = 0 until the normalized residual passes eps,
    starting with no kept factorization (``_newton``).

    Returns the state, its assembly and the iteration count.
    """
    return _newton(p, rho, controlled, eps, max_iter)[:3]


def _reusable(blocks, controlled):
    """Whether later steps may reuse the factorization ``blocks`` kept: its
    solve with these controlled creases certified full column rank of C_F
    in the band, so the root near it is isolated and the chord steps
    converge to Newton's.  With no crease controlled the compatible states
    of a mechanism are never isolated, and a chord iteration could settle
    elsewhere on them, so nothing is reused."""
    return bool(controlled) and blocks.certified(controlled)


def _newton(p, rho, controlled, eps, max_iter, kept=None, previous=math.inf):
    """Newton loop with f = 0 until the normalized residual passes eps.

    A chord method (Kelley, Solving Nonlinear Equations with Newton's
    Method, 2003, ch. 2): blocks C0 that ``_reusable`` accepts are kept with
    their band factorization, and later iterates step by ``-N0^-1 C0_F^T
    r`` on them.  An iterate whose normalized residual is more than
    ``CHORD_RATIO`` times the one before refactors at its own state.  Every
    other solve (deflated, eigendecomposition, or with no crease
    controlled) is made afresh at each iterate: plain Newton.  ``kept``
    hands in blocks kept at an earlier state, and ``previous`` the residual
    norm before ``rho``.  Returns the state, its assembly, the iteration
    count and the blocks still kept.  A non-finite residual never passes.
    """
    f = np.zeros(len(controlled))
    iters = 0
    gc = assemble_global(p, rho)
    while not gc.normalized_residual < eps:
        norm = gc.normalized_residual
        if not math.isfinite(norm):
            raise ConvergenceError(
                f"non-finite residual after {iters} Newton iterations", iters
            )
        if iters >= max_iter:
            raise ConvergenceError(
                f"residual {norm:.3e} after {iters} Newton iterations (eps={eps:.1e})",
                iters,
            )
        if kept is None or norm > CHORD_RATIO * previous:
            kept = gc.blocks
        rho = rho + free_column_solve(kept, gc.r, controlled, f)
        if not _reusable(kept, controlled):
            kept = None
        previous = norm
        gc = assemble_global(p, rho)
        iters += 1
    return rho, gc, iters, kept


def controlled_step(p, rho, directive, eps=DEFAULT_EPS, max_iter=DEFAULT_MAX_ITER):
    """One folding step driven by controlled creases; returns the next state."""
    state, _, _, _ = _controlled_step(p, rho, directive, eps, max_iter)
    return state


def _controlled_step(p, rho, directive, eps, max_iter, gc=None, kept=None):
    """One step from ``rho``, whose assembly ``gc`` is reused when given.

    ``kept`` blocks from an earlier state whose band factorization was
    certified with the same controlled creases take the predictor step
    instead of ``gc``'s own, and the Newton loop goes on with them.
    Returns the next state, its assembly, the Newton iteration count and
    the blocks the loop still keeps.
    """
    rho = np.asarray(rho, dtype=float)
    if gc is None:
        gc = assemble_global(p, rho)
    if kept is None or not _reusable(kept, directive.controlled):
        kept = gc.blocks
    drho = free_column_solve(kept, gc.r, directive.controlled, directive.f)
    if not _reusable(kept, directive.controlled):
        kept = None
    rho, gc, iters, kept = _newton(
        p, rho + drho, directive.controlled, eps, max_iter, kept, gc.normalized_residual
    )
    check_fold_range(rho)
    return rho, gc, iters, kept


def _extrapolated_step(p, history, directive, waypoint, gc, kept, eps, max_iter):
    """One step from ``history[-1]`` (assembly ``gc``, kept blocks
    ``kept``) started at the quartic extrapolation of the five states in
    ``history``, oldest first, whose controlled entries are set to
    ``waypoint`` and held entries to the last state's.  Falls back to the
    tangent predictor (``_controlled_step``) when Newton fails from there or
    lands farther from the start than the start lies from the last state.
    Returns what ``_controlled_step`` does; the iteration count includes a
    discarded start's, and a start that needs no iterate keeps ``kept``."""
    last = history[-1]
    guess = EXTRAPOLATION @ np.array(history)
    guess[list(directive.controlled[:len(waypoint)])] = waypoint
    held = list(directive.controlled[len(waypoint):])
    guess[held] = last[held]
    try:
        rho, gc_next, iters, kept_next = _newton(
            p, guess, directive.controlled, eps, max_iter, None, gc.normalized_residual
        )
    except ConvergenceError as exc:
        discarded = exc.iters
    else:
        if np.abs(rho - guess).max() <= np.abs(guess - last).max():
            check_fold_range(rho)
            return rho, gc_next, iters, kept_next if iters else kept
        discarded = iters
    rho, gc, iters, kept = _controlled_step(p, last, directive, eps, max_iter, gc, kept)
    return rho, gc, discarded + iters, kept


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
    rho = np.asarray(rho, dtype=float)
    drho0 = np.asarray(drho0, dtype=float)
    gc = assemble_global(p, rho)
    return rho + drho0 + free_column_solve(gc.blocks, gc.blocks @ drho0 + gc.r, (), [])


def run_schedule(p, rho0, schedule, eps=DEFAULT_EPS, max_iter=DEFAULT_MAX_ITER,
                 max_step=DEFAULT_MAX_STEP):
    """Execute schedule stages in order, returning the full trajectory.

    Within a stage the controlled angles move linearly from their entry value
    to the target; each step prescribes the exact remaining share, so stage
    boundaries land on their targets to solver precision.  Held creases get
    fixed columns with zero increments.  When a stage omits its step count,
    enough steps are used to keep every controlled increment at or below
    ``max_step``.  Each step hands the band factorization its Newton loop
    kept to the next step of the same stage, and a step after five that
    each kept one starts from their quartic extrapolation (see the module
    docstring).
    A crease id outside the pattern, or a target outside the
    fold-angle range [-pi, pi], raises ``ValueError``: a finite but huge
    target would ask a stage without a step count for endless steps.
    """
    for stage in schedule.stages:
        for i in (*stage.targets, *stage.hold):
            if not 0 <= i < p.n_creases:
                raise ValueError(
                    f"crease id {i} out of range (pattern has {p.n_creases} creases)"
                )
        for i, target in stage.targets.items():
            if abs(target) > math.pi + FOLD_RANGE_SLACK:
                raise ValueError(f"target {target!r} of crease {i} outside [-pi, pi]")
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
        kept = None
        # states of this stage's steps since the last that kept nothing
        history = deque(maxlen=len(EXTRAPOLATION))
        for k in range(1, steps + 1):
            waypoint = start + (targets - start) * (k / steps)
            f = np.concatenate([waypoint - rho[ids], np.zeros(len(stage.hold))])
            directive = FoldDirective(controlled=controlled, f=f)
            try:
                # a full history means the step before kept a factorization
                if len(history) == history.maxlen:
                    rho, gc, iters, kept = _extrapolated_step(
                        p, history, directive, waypoint, gc, kept, eps, max_iter
                    )
                else:
                    rho, gc, iters, kept = _controlled_step(
                        p, rho, directive, eps, max_iter, gc, kept
                    )
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"stage {stage_idx}, step {k}/{steps}: {exc}"
                ) from exc
            if kept is None:
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
