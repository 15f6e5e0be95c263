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
from .sequential import DEFAULT_EPS, _eliminate_residual, _is_number

MAX_STEP_FACTOR = math.pi / 36.0
STATIONARY_TOL = 1e-4  # projected gradient below which a relaxation converged


@dataclass(frozen=True)
class SpringConfig:
    """Per-crease stiffness (moment per radian) and rest angles."""

    stiffness: np.ndarray
    rest: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stiffness", np.asarray(self.stiffness, dtype=float))
        object.__setattr__(self, "rest", np.asarray(self.rest, dtype=float))
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
        """Springs schema: global k_per_length with per-crease overrides."""
        data = json.loads(document) if isinstance(document, str) else document
        k_per_length = data.get("k_per_length")
        lengths = p.crease_lengths()
        stiffness = np.full(p.n_creases, np.nan)
        rest = np.zeros(p.n_creases)
        seen = set()
        for entry in data["creases"]:
            i = int(entry["crease"])
            if i < 0 or i >= p.n_creases:
                raise ValueError(f"crease id {i} out of range")
            seen.add(i)
            rest[i] = float(entry["rest"])
            if entry.get("k") is not None:
                stiffness[i] = float(entry["k"])
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
    max_newton: int = 50

    def __post_init__(self):
        for name in ("initial_step", "step_resolution", "residual_tol"):
            value = getattr(self, name)
            if not (_is_number(value, Real) and math.isfinite(value)):
                raise ValueError(f"relax setting {name} must be a finite number, got {value!r}")
        for name in ("step_resolution", "residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"relax setting {name} must be positive")
        for name in ("max_steps", "max_newton"):
            value = getattr(self, name)
            if not (_is_number(value, Integral) and value >= 0):
                raise ValueError(
                    f"relax setting {name} must be a non-negative integer, got {value!r}"
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
    states: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    step_factors: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    characteristic: int = 0
    converged: bool = False
    projected_gradient: float = math.nan

    @property
    def final(self):
        return self.states[-1]


def spring_energy(cfg, rho):
    """Total spring energy 0.5 * sum k_i (rho_i - rest_i)^2."""
    d = np.asarray(rho, dtype=float) - cfg.rest
    return 0.5 * float(np.dot(cfg.stiffness * d, d))


def spring_gradient(cfg, rho):
    """Internal crease moments k_i (rho_i - rest_i)."""
    return cfg.stiffness * (np.asarray(rho, dtype=float) - cfg.rest)


def kkt_step(p, cfg, rho, gc=None):
    """Energy-optimal increment subject to the linearized closure constraint.

    The minimum-norm solve on the stiffness-scaled columns C H^-1/2 serves
    full-rank and rank-deficient (nearly folded-flat) states alike.  ``gc``
    is the assembly at ``rho`` when the caller already has it.
    """
    if gc is None:
        gc = assemble_global(p, rho)
    d = spring_gradient(cfg, gc.rho)
    scale = 1.0 / np.sqrt(cfg.stiffness)
    hinv_d = d / cfg.stiffness
    u = free_column_solve(gc.C * scale, gc.r - gc.C @ hinv_d, (), [])
    return scale * u - hinv_d


def projection_step_uniform(p, k0, d, rho, gc=None):
    """Projected steepest-descent increment for uniform stiffness k0.

    d is the energy gradient at rho; the increment is the gradient projected
    into the nullspace of the constraint matrix plus the error compensation.
    """
    if gc is None:
        gc = assemble_global(p, rho)
    d = np.asarray(d, dtype=float)
    return -d / k0 - free_column_solve(gc.C, gc.C @ d / k0 - gc.r, (), [])


def relax(p, cfg, settings=None, rho0=None):
    """Drive the state to a constrained spring-energy minimum.

    Follows the step rule rho += c * drho / max|drho| with residual cleanup
    after every move; halves c whenever the characteristic angle's increment
    reverses direction, and stops when c drops below the step resolution,
    when the step vanishes or after ``max_steps``.  Whatever stopped it, the
    result is converged only if the final state is stationary: its projected
    gradient is below ``STATIONARY_TOL``.  Each cleanup's last assembly
    serves the next step and gives the state's recorded residual.
    """
    settings = settings or RelaxSettings()
    if settings.characteristic is not None:
        char = int(settings.characteristic)
        if not 0 <= char < p.n_creases:
            raise ValueError(
                f"characteristic crease {char} out of range "
                f"(pattern has {p.n_creases} creases)"
            )
    rho = np.zeros(p.n_creases) if rho0 is None else np.asarray(rho0, dtype=float).copy()
    rho, gc, _ = _eliminate_residual(
        p, rho, (), settings.residual_tol, settings.max_newton
    )
    if settings.characteristic is None:
        char = int(np.argmax(np.abs(spring_gradient(cfg, rho))))

    result = RelaxResult(characteristic=char)
    result.states.append(rho.copy())
    result.energies.append(spring_energy(cfg, rho))
    result.newton_iters.append(0)
    result.residuals.append(gc.normalized_residual)

    c = settings.initial_step
    prev_char_move = 0.0
    i = 0
    while c > settings.step_resolution and i < settings.max_steps:
        i += 1
        drho = kkt_step(p, cfg, rho, gc=gc)
        largest = float(np.max(np.abs(drho))) if drho.size else 0.0
        if largest < 1e-15:
            break
        if i > 2 and drho[char] * prev_char_move < 0.0:
            c = c / 2.0
        step = c * drho / largest
        new_rho = rho + step
        new_rho, gc, iters = _eliminate_residual(
            p, new_rho, (), settings.residual_tol, settings.max_newton
        )
        prev_char_move = new_rho[char] - rho[char]
        rho = new_rho
        check_fold_range(rho)
        result.states.append(rho.copy())
        result.energies.append(spring_energy(cfg, rho))
        result.step_factors.append(c)
        result.step_sizes.append(float(np.max(np.abs(step))))
        result.newton_iters.append(iters)
        result.residuals.append(gc.normalized_residual)

    d = spring_gradient(cfg, rho)
    result.projected_gradient = float(
        np.linalg.norm(d + free_column_solve(gc.C, gc.C @ d, (), []))
    )
    result.converged = result.projected_gradient < STATIONARY_TOL
    return result


def waterbomb_symmetric_oracle(theta):
    """Mountain and valley fold angles of the symmetric eight-crease base.

    Closed-form folding branches parametrized by the apex angle theta,
    valid for 0 <= theta <= 3*pi/4: theta = pi/2 is flat, the ends are the
    two compactly folded states.
    """
    if theta < -1e-12 or theta > 3 * math.pi / 4 + 1e-12:
        raise ValueError(f"theta {theta} outside [0, 3*pi/4]")
    s2 = math.sqrt(2.0)
    if theta < math.pi / 2:
        rho_m = 2 * theta - math.pi
        arg = s2 * math.cos(theta) / (-2.0 - s2 * math.sin(theta))
        rho_v = 2 * math.acos(max(-1.0, min(1.0, arg))) - math.pi
    else:
        rho_m = math.pi - 2 * theta
        arg = s2 * math.cos(theta) / (2.0 - s2 * math.sin(theta))
        rho_v = 2 * math.acos(max(-1.0, min(1.0, arg))) - math.pi
    return rho_m, rho_v
