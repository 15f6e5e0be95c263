"""Rigid-origami folding engine.

Simulates sequential folding of multi-DOF crease patterns with exactly
controlled fold angles, finds elastic equilibria of crease-mounted rotational
springs, and reconstructs valid 3D folded forms at every step.
"""

from .elastic import (
    RelaxResult,
    RelaxSettings,
    SpringConfig,
    kkt_step,
    relax,
    spring_energy,
    spring_gradient,
)
from .embedding import (
    SpanningTree,
    build_spanning_tree,
    dihedral_angles,
    embed,
    measure_dimensions,
)
from .generators import (
    crane_schedule,
    generate_crane,
    generate_miura,
    generate_waterbomb_base,
    generate_waterbomb_tessellation,
)
from .kinematics import GlobalConstraint, assemble_global, dof
from .numerics import free_column_solve
from .pattern import (
    Crease,
    CreasePattern,
    PatternError,
    ValidationReport,
    VertexFan,
    build_vertex_fans,
    parse_pattern,
    serialize_pattern,
    validate_pattern,
)
from .sequential import (
    ConvergenceError,
    FoldSchedule,
    FoldTrajectory,
    Stage,
    flat_state_seed,
    run_schedule,
)

__all__ = [
    "ConvergenceError", "Crease", "CreasePattern", "FoldSchedule", "FoldTrajectory",
    "GlobalConstraint", "PatternError", "RelaxResult", "RelaxSettings", "SpanningTree",
    "SpringConfig", "Stage", "ValidationReport", "VertexFan", "assemble_global",
    "build_spanning_tree", "build_vertex_fans", "crane_schedule", "dihedral_angles", "dof",
    "embed", "flat_state_seed", "free_column_solve", "generate_crane", "generate_miura",
    "generate_waterbomb_base", "generate_waterbomb_tessellation", "kkt_step",
    "measure_dimensions", "parse_pattern", "relax", "run_schedule", "serialize_pattern",
    "spring_energy", "spring_gradient", "validate_pattern",
]
__version__ = "0.1.0"
