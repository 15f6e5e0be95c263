"""Import weight and the public API: the modules a library run loads in a
fresh process, the names the package exports, and the one input form of
its solve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import rigidfold
from rigidfold.numerics import RowBlocks, free_column_solve

# scipy costs about 0.28 s and 28 MB of RSS to import, numpy.ma 15-35 ms and
# 1.7 MB, hashlib (through OpenSSL) 3.6 MB
HEAVY = ("scipy", "numpy.ma", "hashlib", "_hashlib")

PIPELINE = f"""
import json, math, sys
import rigidfold
p = rigidfold.generate_miura(7, 7)
q = rigidfold.parse_pattern(rigidfold.serialize_pattern(p))
assert rigidfold.validate_pattern(q).ok
rho = rigidfold.flat_state_seed(q, math.radians(1.0))
rigidfold.embed(q, rho)
print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))
"""


def test_miura7_pipeline_loads_no_heavy_module():
    """Generate, parse, validate, seed and embed a Miura 7x7 in a fresh
    interpreter; none of ``HEAVY`` is loaded."""
    src = str(Path(rigidfold.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", PIPELINE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []


# the public names, in the order ``sorted`` gives: the submodules are
# attributes of the package once imported, but not exports, and the SVD
# routines stay in ``rigidfold.numerics`` only
PUBLIC = [
    "ConvergenceError", "Crease", "CreasePattern", "FoldSchedule", "FoldTrajectory",
    "GlobalConstraint", "PatternError", "RelaxResult", "RelaxSettings", "SpanningTree",
    "SpringConfig", "Stage", "ValidationReport", "VertexFan", "assemble_global",
    "build_spanning_tree", "build_vertex_fans", "crane_schedule", "dof",
    "embed", "flat_state_seed", "free_column_solve", "generate_crane", "generate_miura",
    "generate_waterbomb_base", "generate_waterbomb_tessellation", "kkt_step",
    "measure_dimensions", "parse_pattern", "relax", "run_schedule", "serialize_pattern",
    "spring_energy", "spring_gradient", "validate_pattern",
]

# references that only the tests run, now in tests/oracles.py, and the
# module each one left
MOVED = {
    "waterbomb_symmetric_oracle": "elastic",
    "projection_step_uniform": "elastic",
    "tachi_projection_step": "sequential",
    "controlled_step": "sequential",
    "FoldDirective": "sequential",
    "poisson_ratio": "embedding",
    "dihedral_angles": "embedding",
}


def test_public_names():
    assert sorted(rigidfold.__all__) == PUBLIC
    for name in ("min_norm_solve", "pseudoinverse", "rank"):
        assert not hasattr(rigidfold, name), name
        assert callable(getattr(rigidfold.numerics, name)), name


def test_moved_references_left_the_package():
    for name, module in MOVED.items():
        assert not hasattr(rigidfold, name), name
        assert not hasattr(getattr(rigidfold, module), name), name
        assert hasattr(oracles, name), name
    assert not hasattr(RowBlocks, "from_dense")


def test_free_column_solve_takes_row_blocks_only():
    with pytest.raises(TypeError, match="RowBlocks"):
        free_column_solve(np.eye(3), np.zeros(3), [], [])
    with pytest.raises(TypeError):
        RowBlocks((2, 2), [], dense=np.eye(2))
