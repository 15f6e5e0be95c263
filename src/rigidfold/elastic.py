"""Relaxation of crease-spring energy on the rigid-origami constraint set.

Creases carry rotational springs with stiffness k_i and rest angle; the
energy increment for a state increment is a quadratic form, and the
constrained minimizer comes from the bordered system

    [ H    C^T ] [ drho   ]     [ d ]
    [ C    0   ] [ lambda ] = - [ r ]

solved minimum-norm.  When the constraint matrix has full row rank the
explicit inverse gives the same increment through

    drho = -(H^-1 - G C H^-1) d - G r,   G = H^-1 C^T (C H^-1 C^T)^-1

and with uniform stiffness that reduces to the projected steepest descent
-(1/k0)(I - C+ C) d - C+ r.  Step length is capped so the largest single
angle change is a factor c, halved whenever the characteristic angle's
increment reverses; iteration stops once c is below resolution.
"""

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .kinematics import assemble_global, check_fold_range
from .numerics import DEFAULT_CUTOFF, min_norm_solve, pseudoinverse, rank
from .sequential import ConvergenceError

MAX_STEP_FACTOR = math.pi / 36.0


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


def _is_number(value, kind):
    """True for an instance of the numbers ABC ``kind`` that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class RelaxSettings:
    initial_step: float = MAX_STEP_FACTOR
    step_resolution: float = 1e-6
    residual_tol: float = 1e-9
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


def kkt_step(p, cfg, rho, cutoff=DEFAULT_CUTOFF, fans=None, gc=None):
    """Energy-optimal increment subject to the linearized closure constraint.

    Uses the explicit full-row-rank inverse when the constraint matrix is
    comfortably well conditioned and falls back to the minimum-norm bordered
    solve otherwise (rank-deficient or nearly folded-flat states).  ``gc``
    is the assembly at ``rho`` when the caller already has it; ``fans`` is
    not used, and when passed it must be ``build_vertex_fans(p)``.
    """
    if gc is None:
        gc = assemble_global(p, rho)
    d = spring_gradient(cfg, gc.rho)
    m = gc.C.shape[0]
    if m and rank(gc.C, 1e-6) == m:
        return _full_rank_step(gc.C, gc.r, cfg.stiffness, d)
    return _bordered_step(gc.C, gc.r, cfg.stiffness, d, cutoff)


def _bordered_step(c, r, stiffness, d, cutoff=DEFAULT_CUTOFF):
    n = c.shape[1]
    m = c.shape[0]
    k = np.zeros((n + m, n + m))
    k[:n, :n] = np.diag(stiffness)
    k[:n, n:] = c.T
    k[n:, :n] = c
    rhs = -np.concatenate([d, r])
    return min_norm_solve(k, rhs, cutoff)[:n]


def _full_rank_step(c, r, stiffness, d):
    hinv = 1.0 / stiffness
    chinv = c * hinv  # C @ H^-1
    g = (chinv.T) @ np.linalg.inv(chinv @ c.T)  # H^-1 C^T (C H^-1 C^T)^-1
    return -(hinv * d - g @ (chinv @ d)) - g @ r


def projection_step_uniform(p, k0, d, rho, fans=None, gc=None):
    """Projected steepest-descent increment for uniform stiffness k0.

    d is the energy gradient at rho; the increment is the gradient projected
    into the nullspace of the constraint matrix plus the error compensation.
    ``fans`` is not used; when passed it must be ``build_vertex_fans(p)``.
    """
    if gc is None:
        gc = assemble_global(p, rho)
    d = np.asarray(d, dtype=float)
    cplus = pseudoinverse(gc.C)
    return -(d - cplus @ (gc.C @ d)) / k0 - cplus @ gc.r


def relax(p, cfg, settings=None, rho0=None, fans=None):
    """Drive the state to a constrained spring-energy minimum.

    Follows the step rule rho += c * drho / max|drho| with residual cleanup
    after every move; halves c whenever the characteristic angle's increment
    reverses direction, and stops when c drops below the step resolution.
    Each cleanup's last assembly serves the next step.  ``fans`` is not
    used; when passed it must be ``build_vertex_fans(p)``.
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
    rho, gc, _ = _cleanup_count(p, rho, settings)
    if settings.characteristic is None:
        char = int(np.argmax(np.abs(spring_gradient(cfg, rho))))

    result = RelaxResult(characteristic=char)
    result.states.append(rho.copy())
    result.energies.append(spring_energy(cfg, rho))
    result.newton_iters.append(0)

    c = settings.initial_step
    prev_char_move = 0.0
    i = 0
    while c > settings.step_resolution and i < settings.max_steps:
        i += 1
        drho = kkt_step(p, cfg, rho, gc=gc)
        largest = float(np.max(np.abs(drho))) if drho.size else 0.0
        if largest < 1e-15:
            result.converged = True
            break
        if i > 2 and drho[char] * prev_char_move < 0.0:
            c = c / 2.0
        step = c * drho / largest
        new_rho = rho + step
        new_rho, gc, iters = _cleanup_count(p, new_rho, settings)
        prev_char_move = new_rho[char] - rho[char]
        rho = new_rho
        check_fold_range(rho)
        result.states.append(rho.copy())
        result.energies.append(spring_energy(cfg, rho))
        result.step_factors.append(c)
        result.step_sizes.append(float(np.max(np.abs(step))))
        result.newton_iters.append(iters)
    if c <= settings.step_resolution:
        result.converged = True

    cplus = pseudoinverse(gc.C)
    d = spring_gradient(cfg, rho)
    result.projected_gradient = float(np.linalg.norm(d - cplus @ (gc.C @ d)))
    return result


def _cleanup_count(p, rho, settings):
    """Residual elimination drho = -C+ r until the normalized residual passes.

    Returns the state, its assembly and the iteration count.  A non-finite
    residual never passes.
    """
    iters = 0
    gc = assemble_global(p, rho)
    while not gc.normalized_residual < settings.residual_tol:
        if not math.isfinite(gc.normalized_residual):
            raise ConvergenceError(
                f"non-finite residual after {iters} cleanup iterations"
            )
        if iters >= settings.max_newton:
            raise ConvergenceError(
                f"residual cleanup stalled at {gc.normalized_residual:.3e}"
            )
        rho = rho - pseudoinverse(gc.C) @ gc.r
        gc = assemble_global(p, rho)
        iters += 1
    return rho, gc, iters


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
