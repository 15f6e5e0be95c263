"""Relaxation of crease-spring energy on the rigid-origami constraint set.

Creases carry rotational springs with stiffness k_i and rest angle; the
energy increment for a state increment is a quadratic form with the
diagonal stiffness H, and its minimizer subject to the linearized closure
constraint C drho = -r is the Lagrange-multiplier step.  Substituting
drho = H^-1/2 u - H^-1 d turns it into the minimum-norm solution of

    B u = -(r - C H^-1 d),   B = C H^-1/2

which ``numerics.free_column_solve`` gives with no fixed columns.  When C
has full row rank this is the explicit-inverse step

    drho = -(H^-1 - G C H^-1) d - G r,   G = H^-1 C^T (C H^-1 C^T)^-1

and with uniform stiffness it is the projected steepest descent
-(1/k0)(I - C+ C) d - C+ r.  Step length is capped so the largest single
angle change is a factor c, halved whenever the characteristic angle's
increment reverses; iteration stops once c is below resolution.  A
relaxation has converged only where it stops stationary, with a projected
gradient below ``STATIONARY_TOL``.
"""

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .kinematics import assemble_global, check_fold_range
from .numerics import free_column_solve
from .pattern import _index, _is_number, _one_each, _real
from .sequential import DEFAULT_EPS, _fold_state, _newton

MAX_STEP_FACTOR = math.pi / 36.0
STATIONARY_TOL = 1e-4  # projected gradient below which a relaxation converged
# why a relaxation stopped: step factor below resolution, a step with no
# angle change, or the step budget spent
STOP_REASONS = ("step_resolution", "vanishing_step", "max_steps")
_SPRINGS = "spring config has {} springs"


@dataclass(frozen=True)
class SpringConfig:
    """Per-crease stiffness (moment per radian) and rest angles."""

    stiffness: np.ndarray
    rest: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stiffness", np.asarray(self.stiffness, dtype=float))
        object.__setattr__(self, "rest", np.asarray(self.rest, dtype=float))
        if self.stiffness.ndim != 1:
            raise ValueError(
                f"stiffness must be a 1-D array, one entry per crease; got shape "
                f"{self.stiffness.shape}"
            )
        if self.stiffness.shape != self.rest.shape:
            raise ValueError("stiffness and rest angle arrays must match")
        if not np.all((self.stiffness > 0) & np.isfinite(self.stiffness)):
            raise ValueError("spring stiffness must be positive and finite")
        if not np.all(np.isfinite(self.rest)):
            raise ValueError("spring rest angles must be finite")

    @classmethod
    def per_unit_length(cls, p, k, rest):
        """Stiffness k_i = k * L_i from a stiffness per unit crease length."""
        return cls(stiffness=k * p.crease_lengths(), rest=rest)

    @classmethod
    def from_json(cls, p, document):
        """Springs schema: global k_per_length with per-crease overrides;
        crease ids are never truncated and name one entry each, numbers are
        never read from strings."""
        data = json.loads(document) if isinstance(document, str) else document
        k_per_length = data.get("k_per_length")
        if k_per_length is not None:
            k_per_length = _real(k_per_length, "k_per_length")
        lengths = p.crease_lengths()
        stiffness = np.full(p.n_creases, np.nan)
        rest = np.zeros(p.n_creases)
        seen = set()
        for entry in data["creases"]:
            i = _index(entry["crease"], "springs")
            if i < 0 or i >= p.n_creases:
                raise ValueError(f"crease id {i} out of range")
            if i in seen:
                raise ValueError(f"crease {i} has two springs entries")
            seen.add(i)
            rest[i] = _real(entry["rest"], f"rest angle of crease {i}")
            if entry.get("k") is not None:
                stiffness[i] = _real(entry["k"], f"stiffness of crease {i}")
            elif k_per_length is not None:
                stiffness[i] = k_per_length * lengths[i]
            else:
                raise ValueError(f"crease {i}: no stiffness and no k_per_length")
        missing = set(range(p.n_creases)) - seen
        if missing:
            raise ValueError(f"springs missing for creases {sorted(missing)}")
        return cls(stiffness=stiffness, rest=rest)


@dataclass(frozen=True)
class RelaxSettings:
    initial_step: float = MAX_STEP_FACTOR
    step_resolution: float = 1e-6
    residual_tol: float = DEFAULT_EPS
    characteristic: int | None = None
    max_steps: int = 5000

    def __post_init__(self):
        for name in ("initial_step", "step_resolution", "residual_tol"):
            value = getattr(self, name)
            if not (_is_number(value, Real) and math.isfinite(value)):
                raise ValueError(f"relax setting {name} must be a finite number, got {value!r}")
        for name in ("step_resolution", "residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"relax setting {name} must be positive")
        if not (_is_number(self.max_steps, Integral) and self.max_steps >= 0):
            raise ValueError(
                f"relax setting max_steps must be a non-negative integer, got {self.max_steps!r}"
            )
        if not (self.characteristic is None or _is_number(self.characteristic, Integral)):
            raise ValueError(
                f"relax setting characteristic must be a crease id, got {self.characteristic!r}"
            )
        if self.initial_step > MAX_STEP_FACTOR + 1e-15:
            raise ValueError(
                f"initial step factor {self.initial_step} exceeds pi/36"
            )
        if self.initial_step <= 0:
            raise ValueError("initial step factor must be positive")

    @classmethod
    def from_json(cls, document):
        """Settings object with any subset of the fields; unknown keys fail."""
        data = json.loads(document) if isinstance(document, str) else document
        if not isinstance(data, dict):
            raise ValueError("relax settings must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown relax settings: {', '.join(unknown)}")
        return cls(**data)


@dataclass
class RelaxResult:
    """Accepted states of a relaxation and why it stopped.

    ``stop_reason`` is one of ``STOP_REASONS``; ``converged`` says, whatever
    the reason, whether the final state is stationary.
    """

    states: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    step_factors: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    characteristic: int = 0
    converged: bool = False
    projected_gradient: float = math.nan
    stop_reason: str = ""

    @property
    def final(self):
        return self.states[-1]


def _angles(cfg, rho):
    """``rho`` as a float vector, refused unless it has one angle per spring."""
    return _one_each(rho, "state has {} angles", len(cfg.stiffness), _SPRINGS)


def spring_energy(cfg, rho):
    """Total spring energy 0.5 * sum k_i (rho_i - rest_i)^2."""
    d = _angles(cfg, rho) - cfg.rest
    return 0.5 * float(np.dot(cfg.stiffness * d, d))


def spring_gradient(cfg, rho):
    """Internal crease moments k_i (rho_i - rest_i)."""
    return cfg.stiffness * (_angles(cfg, rho) - cfg.rest)


def kkt_step(p, cfg, rho, gc=None):
    """Energy-optimal increment subject to the linearized closure constraint.

    The minimum-norm solve on the stiffness-scaled columns C H^-1/2 serves
    full-rank and rank-deficient (nearly folded-flat) states alike.  ``gc``
    is the assembly at ``rho`` when the caller already has it; without it, a
    ``rho`` that is not one finite angle per crease raises ``ValueError``.
    """
    _one_each(cfg.stiffness, _SPRINGS, p.n_creases)
    if gc is None:
        gc = assemble_global(p, _fold_state(p, rho))
    d = spring_gradient(cfg, rho)
    scale = 1.0 / np.sqrt(cfg.stiffness)
    hinv_d = d / cfg.stiffness
    u = free_column_solve(gc.blocks.scale_columns(scale), gc.r - gc.blocks @ hinv_d, (), [])
    return scale * u - hinv_d


def relax(p, cfg, settings=None, rho0=None):
    """Drive the state to a constrained spring-energy minimum.

    Follows the step rule rho += c * drho / max|drho| with a residual cleanup
    of at most ``sequential.MAX_ITER`` Newton iterations after every move;
    halves c whenever the characteristic angle's increment reverses
    direction, and stops when c drops below the step resolution, when the
    step vanishes or after ``max_steps``, and records which of
    these stopped it as ``stop_reason``.  Whatever stopped it, the result is
    converged only if the final state is stationary: its projected gradient
    is below ``STATIONARY_TOL``.  Each cleanup, the start state's included,
    gives the state's recorded Newton iterations, and its last assembly
    serves the next step and gives the state's recorded residual.  A
    ``rho0`` that is not one finite angle per crease raises ``ValueError``
    before any solve.
    """
    settings = settings or RelaxSettings()
    _one_each(cfg.stiffness, _SPRINGS, p.n_creases)
    if settings.characteristic is not None:
        char = int(settings.characteristic)
        if not 0 <= char < p.n_creases:
            raise ValueError(
                f"characteristic crease {char} out of range "
                f"(pattern has {p.n_creases} creases)"
            )
    rho = np.zeros(p.n_creases) if rho0 is None else _fold_state(p, rho0).copy()
    rho, gc, iters, _ = _newton(p, rho, (), settings.residual_tol)
    if settings.characteristic is None:
        char = int(np.argmax(np.abs(spring_gradient(cfg, rho))))

    result = RelaxResult(characteristic=char)
    result.states.append(rho.copy())
    result.energies.append(spring_energy(cfg, rho))
    result.newton_iters.append(iters)
    result.residuals.append(gc.normalized_residual)

    c = settings.initial_step
    prev_char_move = 0.0
    i = 0
    while c > settings.step_resolution and i < settings.max_steps:
        i += 1
        drho = kkt_step(p, cfg, rho, gc=gc)
        largest = float(np.max(np.abs(drho))) if drho.size else 0.0
        if largest < 1e-15:
            result.stop_reason = "vanishing_step"
            break
        if i > 2 and drho[char] * prev_char_move < 0.0:
            c = c / 2.0
        step = c * drho / largest
        new_rho = rho + step
        new_rho, gc, iters, _ = _newton(p, new_rho, (), settings.residual_tol)
        prev_char_move = new_rho[char] - rho[char]
        rho = new_rho
        check_fold_range(rho)
        result.states.append(rho.copy())
        result.energies.append(spring_energy(cfg, rho))
        result.step_factors.append(c)
        result.step_sizes.append(float(np.max(np.abs(step))))
        result.newton_iters.append(iters)
        result.residuals.append(gc.normalized_residual)
    else:
        result.stop_reason = "max_steps" if c > settings.step_resolution else "step_resolution"

    d = spring_gradient(cfg, rho)
    result.projected_gradient = float(
        np.linalg.norm(d + free_column_solve(gc.blocks, gc.blocks @ d, (), []))
    )
    result.converged = result.projected_gradient < STATIONARY_TOL
    return result
