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
    dihedral_angles,
    embed,
    flat_state_seed,
    free_column_solve,
    generate_miura,
    run_schedule,
)
from rigidfold.numerics import DEFAULT_CUTOFF  # noqa: E402
from rigidfold.sequential import DEFAULT_EPS  # noqa: E402


@lru_cache(maxsize=None)
def miura_drive(cells, alpha_deg, eps=DEFAULT_EPS):
    """A Miura sheet and the states of a short controlled drive from the seed,
    each solved to the normalized residual ``eps``."""
    p = generate_miura(cells, cells, alpha=math.radians(alpha_deg))
    seed = flat_state_seed(p, math.radians(1.0), eps=eps)
    schedule = FoldSchedule((Stage(
        targets={p.meta["driven_crease"]: math.radians(-60.0)}, steps=3,
    ),))
    return p, run_schedule(p, seed, schedule, eps=eps).states


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


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    cells=st.integers(2, 5),
    alpha_deg=st.integers(45, 75),
    step=st.integers(0, 3),
    data=st.data(),
)
def test_embedding_is_an_isometry_with_the_state_s_dihedrals(cells, alpha_deg, step, data):
    """From any root facet, the embedding keeps every facet edge and crease
    at its flat length, measures back the fold angles it was given, and
    leaves the root facet where it lies in the flat pattern.

    The tree drops the loop constraints, so a facet whose vertices are
    placed along different tree paths tears by about the closure residual
    ||r||: on 5x5 cells a normalized residual of 2e-14 tears facets by 1e-11.
    The states are therefore solved to 1e-15."""
    p, states = miura_drive(cells, alpha_deg, eps=1e-15)
    rho = states[step]
    root = data.draw(st.integers(0, len(p.facets) - 1), label="root")
    e = embed(p, rho, root=root)
    coords = e.coords
    flat = np.hstack([p.vertices, np.zeros((len(p.vertices), 1))])

    def lengths(x, pairs):
        pairs = np.array(pairs)
        return np.linalg.norm(x[pairs[:, 0]] - x[pairs[:, 1]], axis=1)

    sides = [(cycle[i - 1], cycle[i]) for cycle in p.facets for i in range(len(cycle))]
    assert np.max(np.abs(lengths(coords, sides) - lengths(flat, sides))) < 1e-12
    creases = [c.key for c in p.creases]
    assert np.max(np.abs(lengths(coords, creases) - p.crease_lengths())) < 1e-12
    assert np.max(np.abs(dihedral_angles(p, e) - rho)) < 1e-9
    cycle = list(p.facets[root])
    assert np.array_equal(coords[cycle], flat[cycle])
