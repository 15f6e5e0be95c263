"""Property tests over generated inputs.

Hypothesis runs derandomized with a bounded example count, so every run
tests the same examples.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from functools import lru_cache
from pathlib import Path

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
    generate_crane,
    generate_miura,
    generate_waterbomb_base,
    generate_waterbomb_tessellation,
    parse_pattern,
    run_schedule,
    serialize_pattern,
)
from rigidfold.cli import main, parse_obj  # noqa: E402
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


side = st.floats(0.2, 5.0)
generated_patterns = st.one_of(
    st.builds(generate_miura, st.integers(1, 4), st.integers(1, 4), a=side, b=side,
              alpha=st.floats(0.05, math.pi / 2 - 0.05)),
    st.builds(generate_waterbomb_tessellation, st.integers(1, 3), st.integers(1, 3),
              a=side, b=side),
    st.builds(generate_waterbomb_base, radius=side),
    st.builds(generate_crane),
)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(p=generated_patterns)
def test_serialize_parse_round_trip(p):
    """Parsing a serialized pattern gives back the same pattern, and the same
    document when serialized again."""
    text = serialize_pattern(p)
    again = parse_pattern(text)
    assert again == p
    assert serialize_pattern(again) == text


@lru_cache(maxsize=None)
def base_documents():
    """Small valid patterns, as documents, with a compatible folded state each."""
    out = []
    for p in (generate_miura(1, 1), generate_waterbomb_base()):
        seed = flat_state_seed(p, math.radians(10.0))
        out.append((json.loads(serialize_pattern(p)), list(seed)))
    return out


junk_numbers = st.sampled_from([math.nan, math.inf, 1e300, "1", None, True, [0]])
junk_entries = st.sampled_from([3, [], [0], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "abc", {}, None])
FIELDS = ("vertices", "creases", "boundary", "facets")
# each edit and the fields it may apply to
EDITS = {
    "drop-field": FIELDS,
    "set-coordinate": ("vertices",),
    "move-vertex": ("vertices",),
    "add-vertex": ("vertices",),
    "drop-entry": FIELDS,
    "duplicate-entry": FIELDS,
    "replace-entry": FIELDS,
    "set-index": FIELDS[1:],
    "set-assignment": ("creases",),
    "reverse-facet": ("facets",),
}


def mutate(doc, data):
    """One structural or numeric edit of a pattern document, in place."""
    op = data.draw(st.sampled_from(sorted(EDITS)), label="op")
    field = data.draw(st.sampled_from(EDITS[op]), label="field")
    if op == "drop-field":
        doc.pop(field, None)
        return
    entries = doc.get(field)
    if not isinstance(entries, list) or not entries:
        return
    k = data.draw(st.integers(0, len(entries) - 1), label="entry")
    if op == "add-vertex":
        entries.append([data.draw(st.floats(-3, 3), label="x"),
                        data.draw(st.floats(-3, 3), label="y")])
    elif op == "drop-entry":
        entries.pop(k)
    elif op == "duplicate-entry":
        entries.append(copy.deepcopy(entries[k]))
    elif op == "replace-entry":
        entries[k] = copy.deepcopy(data.draw(junk_entries, label="junk"))
    elif not isinstance(entries[k], list) or not entries[k]:
        return
    elif op == "reverse-facet":
        entries[k].reverse()
    elif op == "set-assignment":
        entries[k][-1] = data.draw(st.sampled_from(["M", "V", "U", "X", 1, None]),
                                   label="kind")
    else:
        i = data.draw(st.integers(0, len(entries[k]) - 1), label="position")
        if op == "move-vertex":
            if isinstance(entries[k][i], (int, float)):
                entries[k][i] += data.draw(st.sampled_from([1e-12, 1e-3, 0.3, 3.0]),
                                           label="shift")
            return
        n = len(doc["vertices"]) if isinstance(doc.get("vertices"), list) else 1
        value = junk_numbers if op == "set-coordinate" else st.one_of(
            junk_numbers, st.sampled_from([n, n + 5, -1, 0, 0.5, 2.0]))
        entries[k][i] = copy.deepcopy(data.draw(value, label="value"))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(base=st.integers(0, 1), edits=st.integers(0, 3), folded=st.booleans(),
       data=st.data())
def test_cli_exit_codes_are_total(base, edits, folded, data):
    """Mutated pattern documents through validate, info, measure and
    export-obj exit 0, 1, 2 or 3 and never raise, and no command that
    exits 0 writes a non-finite coordinate or dimension."""
    doc, seed = copy.deepcopy(base_documents()[base])
    for _ in range(edits):
        mutate(doc, data)
    creases = doc.get("creases")
    n = len(creases) if isinstance(creases, list) else 0
    rho = seed if folded and n == len(seed) else [0.0] * n
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pattern, state, obj = tmp / "p.json", tmp / "s.json", tmp / "m.obj"
        pattern.write_text(json.dumps(doc))
        state.write_text(json.dumps({"rho": rho}))
        common = ["--pattern", str(pattern)]
        for argv in (["validate", *common], ["info", *common],
                     ["measure", *common, "--state", str(state)],
                     ["export-obj", *common, "--state", str(state), "--out", str(obj)]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            if code != 0:
                continue
            if argv[0] == "measure":
                assert all(math.isfinite(x) for x in json.loads(out.getvalue()).values())
            elif argv[0] == "export-obj":
                assert np.all(np.isfinite(parse_obj(obj.read_text())[0]))
