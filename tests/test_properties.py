"""Property tests over generated inputs.

Hypothesis runs derandomized with a bounded example count, so every run
tests the same examples.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rigidfold import (  # noqa: E402
    FoldSchedule,
    Stage,
    assemble_global,
    flat_state_seed,
    free_column_solve,
    generate_miura,
    run_schedule,
)
from rigidfold.numerics import DEFAULT_CUTOFF  # noqa: E402


@lru_cache(maxsize=None)
def miura_drive(cells, alpha_deg):
    """A Miura sheet and the states of a short controlled drive from the seed."""
    p = generate_miura(cells, cells, alpha=math.radians(alpha_deg))
    seed = flat_state_seed(p, math.radians(1.0))
    schedule = FoldSchedule((Stage(
        targets={p.meta["driven_crease"]: math.radians(-60.0)}, steps=3,
    ),))
    return p, run_schedule(p, seed, schedule).states


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    cells=st.integers(2, 5),
    alpha_deg=st.integers(45, 75),
    step=st.integers(0, 3),
    data=st.data(),
)
def test_full_rank_solve_is_the_lu_normal_solve(cells, alpha_deg, step, data):
    """Where the eigenvalue cutoff keeps every direction of C_F^T C_F, the
    free-column solve is exactly one LU solve of the normal equations."""
    p, states = miura_drive(cells, alpha_deg)
    n = p.n_creases
    gc = assemble_global(p, states[step])
    fixed = np.array(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="fixed",
    )), dtype=int)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    f = rng.normal(0.0, 0.02, fixed.size)

    dx = free_column_solve(gc.C, gc.r, fixed, f)
    assert np.array_equal(dx[fixed], f)
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    c_free = gc.C[:, free]
    if c_free.shape[0] < c_free.shape[1]:
        return
    normal = c_free.T @ c_free
    w = np.linalg.eigvalsh(normal)
    if w[0] > DEFAULT_CUTOFF * w[-1] * n:
        b = -(gc.r + gc.C[:, fixed] @ f)
        assert np.array_equal(dx[free], np.linalg.solve(normal, c_free.T @ b))
