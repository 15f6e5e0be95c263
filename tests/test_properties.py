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
import warnings
from functools import lru_cache, reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from rigidfold import (  # noqa: E402
    CreasePattern,
    FoldSchedule,
    Stage,
    assemble_global,
    build_spanning_tree,
    build_vertex_fans,
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
    validate_pattern,
)
from oracles import normal_rounding_bound, normal_solve, parse_obj, row_blocks  # noqa: E402
from rigidfold.cli import main  # noqa: E402
from rigidfold.generators import crane_schedule  # noqa: E402
from rigidfold.kinematics import _DegreeGroup, compile_pattern  # noqa: E402
from rigidfold.numerics import DEFAULT_CUTOFF, RowBlocks, _gram_band  # noqa: E402
from rigidfold.pattern import MOUNTAIN, trace_facets  # noqa: E402
from test_pattern import BROKEN_PATTERNS  # noqa: E402
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


def check_lu_normal_solve(c, r, fixed, f):
    """Where the eigenvalue cutoff keeps every direction of C_F^T C_F, the
    free-column solve is the LU solve of the normal equations to rounding,
    whether it runs in blocks or, below three blocks of the band of C_F, in
    the row space on the kept eigenvectors of the dense ``C_F C_F^T``.
    ``c`` is a dense array or ``RowBlocks``.  Returns the number of blocks,
    0 when the rule drops a direction or C_F is wide."""
    if not isinstance(c, RowBlocks):
        c = row_blocks(c)
    dx = free_column_solve(c, r, fixed, f)
    assert np.array_equal(dx[fixed], f)
    n = c.shape[1]
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    band = _gram_band(c, free)
    c = c.dense
    c_free = c[:, free]
    if c_free.shape[0] < c_free.shape[1]:
        return 0
    w = np.linalg.eigvalsh(c_free.T @ c_free)
    if not w[0] > DEFAULT_CUTOFF * w[-1] * n:
        return 0
    ref = normal_solve(c, r, fixed, f)
    assert np.abs(dx - ref).max() <= normal_rounding_bound(c, fixed, ref)
    return 1 if band is None else len(band)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    cells=st.integers(2, 5),
    alpha_deg=st.integers(45, 75),
    step=st.integers(0, 3),
    data=st.data(),
)
def test_full_rank_solve_is_the_lu_normal_solve(cells, alpha_deg, step, data):
    """On Miura drive states with random fixed creases, from the per-vertex
    blocks of assembly and from the dense C."""
    p, states = miura_drive(cells, alpha_deg)
    n = p.n_creases
    gc = assemble_global(p, states[step])
    fixed = np.array(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="fixed",
    )), dtype=int)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    f = rng.normal(0.0, 0.02, fixed.size)
    for c in (gc.blocks, gc.C):
        check_lu_normal_solve(c, gc.r, fixed, f)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    cols=st.integers(6, 60),
    data=st.data(),
)
def test_banded_full_rank_solve_is_the_lu_normal_solve(cols, data):
    """On random C_F whose band is below half its column count, so that the
    solve runs in at least three blocks; with extra rows, fixed columns and
    rows that only touch fixed columns."""
    band = data.draw(st.integers(1, (cols - 1) // 2), label="band")
    extra = data.draw(st.integers(0, cols), label="extra rows")
    zero_rows = data.draw(st.integers(0, 3), label="zero rows")
    n_fixed = data.draw(st.integers(0, 4), label="fixed")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    rows = cols + extra + zero_rows
    c_free = np.zeros((rows, cols))
    for i in range(cols + extra):
        span = rng.integers(1, band + 1)
        # the first cols rows cover their own column, which keeps C_F full rank
        j = i if i < cols else rng.integers(0, cols)
        lo = rng.integers(max(0, j - span + 1), min(j, cols - span) + 1)
        c_free[i, lo:lo + span] = rng.standard_normal(span)
    n = cols + n_fixed
    fixed = np.sort(rng.choice(n, n_fixed, replace=False))
    c = np.zeros((rows, n))
    c[:, np.setdiff1d(np.arange(n), fixed)] = rng.permutation(c_free)
    c[:, fixed] = rng.standard_normal((rows, n_fixed))
    r = rng.normal(0.0, 0.1, rows)
    blocks = check_lu_normal_solve(c, r, fixed, rng.normal(0.0, 0.02, n_fixed))
    assert blocks == 0 or blocks >= 3


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
    coords = embed(p, rho, root=root)
    flat = np.hstack([p.vertices, np.zeros((len(p.vertices), 1))])

    def lengths(x, pairs):
        pairs = np.array(pairs)
        return np.linalg.norm(x[pairs[:, 0]] - x[pairs[:, 1]], axis=1)

    sides = [(cycle[i - 1], cycle[i]) for cycle in p.facets for i in range(len(cycle))]
    assert np.max(np.abs(lengths(coords, sides) - lengths(flat, sides))) < 1e-12
    creases = [c.key for c in p.creases]
    assert np.max(np.abs(lengths(coords, creases) - p.crease_lengths())) < 1e-12
    assert np.max(np.abs(oracles.dihedral_angles(p, coords) - rho)) < 1e-9
    cycle = list(p.facets[root])
    assert np.array_equal(coords[cycle], flat[cycle])


@lru_cache(maxsize=None)
def seeded(kind, size, angle_deg, eps):
    """A generated pattern and its flat-state seed solved to eps; size is the
    Miura cell count or the tessellation's (rows, cols), angle the Miura
    alpha or the tessellation's seed magnitude."""
    if kind == "miura":
        p = generate_miura(size, size, alpha=math.radians(angle_deg))
        return p, flat_state_seed(p, math.radians(1.0), eps=eps)
    if kind == "tessellation":
        p = generate_waterbomb_tessellation(*size)
        return p, flat_state_seed(p, math.radians(angle_deg), eps=eps)
    p = generate_crane()
    return p, np.zeros(p.n_creases)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["miura", "tessellation", "crane"]),
       eps=st.sampled_from([1e-9, 1e-12]), data=st.data())
def test_every_accepted_state_closes(kind, eps, data):
    """Every state of a short controlled drive from a seed solved to eps has a
    normalized closure residual below eps, and it is the residual the
    trajectory records.

    Miura 2-4 cells drive the driven crease by at most 40 degrees a step,
    waterbomb tessellations of one or two tiles one crease by up to 30
    degrees from a 5-20 degree seed, and the crane runs its three-stage
    schedule in 1-4 steps a stage."""
    if kind == "miura":
        p, seed = seeded(kind, data.draw(st.integers(2, 4), label="cells"),
                         data.draw(st.integers(45, 75), label="alpha"), eps)
        target = math.radians(data.draw(st.integers(-150, -10), label="target"))
        crease = p.meta["driven_crease"]
        steps = math.ceil(abs(target - seed[crease]) / math.radians(40.0))
        schedule = FoldSchedule((Stage(
            targets={crease: target},
            steps=steps + data.draw(st.integers(0, 2), label="extra steps"),
        ),))
    elif kind == "tessellation":
        p, seed = seeded(kind, data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]),
                                         label="tiles"),
                         data.draw(st.integers(5, 20), label="seed"), eps)
        crease = data.draw(st.integers(0, p.n_creases - 1), label="crease")
        delta = math.radians(data.draw(st.integers(5, 30), label="delta"))
        schedule = FoldSchedule((Stage(
            targets={crease: seed[crease] + math.copysign(delta, seed[crease])},
            steps=data.draw(st.integers(2, 4), label="steps"),
        ),))
    else:
        p, seed = seeded(kind, None, None, eps)
        schedule = crane_schedule(p, data.draw(st.integers(1, 4), label="steps"))
    traj = run_schedule(p, seed, schedule, eps=eps)
    assert len(traj) == 1 + sum(stage.steps for stage in schedule.stages)
    for state, recorded in zip(traj.states, traj.residuals):
        residual = assemble_global(p, state).normalized_residual
        assert residual == recorded
        assert residual < eps


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


ID_SPELLINGS = (int, float, np.int64, np.int32)
COORDINATE_SPELLINGS = (float, np.float64)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(p=generated_patterns, seed=st.integers(0, 2**32 - 1))
def test_every_id_and_coordinate_spelling_builds_the_same_pattern(p, seed):
    """Each id of a pattern's document spelled as an int, an integral float
    or a numpy int, and each coordinate as a float or a numpy float, mixed
    within one document, builds the same pattern with plain int ids."""
    rng = np.random.default_rng(seed)
    doc = p.to_dict()

    def respell(values, spellings):
        picks = rng.integers(len(spellings), size=len(values))
        return [spellings[k](v) for v, k in zip(values, picks)]

    again = CreasePattern(
        [respell(v, COORDINATE_SPELLINGS) for v in doc["vertices"]],
        [[*respell(c[:2], ID_SPELLINGS), c[2]] for c in doc["creases"]],
        [respell(e, ID_SPELLINGS) for e in doc["boundary"]],
        [respell(f, ID_SPELLINGS) for f in doc["facets"]],
    )
    assert again == p
    ids = [v for c in again.creases for v in c.key]
    ids += [v for e in again.boundary for v in e] + [v for f in again.facets for v in f]
    assert {type(v) for v in ids} == {int}


layer_patterns = st.one_of(
    st.builds(generate_miura, st.integers(1, 7), st.integers(1, 7),
              a=st.sampled_from([1.0, 0.3, 2.5]), b=st.sampled_from([1.0, 0.6, 4.0]),
              alpha=st.sampled_from([0.1, 0.5, math.pi / 3, 1.2, 1.5])),
    st.sampled_from([(5, 3), (8, 5)]).map(
        lambda size: generate_waterbomb_tessellation(*size)),
    st.builds(generate_crane),
    st.builds(generate_waterbomb_base),
)


def relabeled(p, perm, traced):
    """``p`` with vertex i renamed ``perm[i]``: traced from its edges, or
    built from its facets with every cycle reversed."""
    vertices = np.empty_like(p.vertices)
    vertices[perm] = p.vertices
    creases = [(perm[c.a], perm[c.b], c.assignment) for c in p.creases]
    boundary = [(perm[a], perm[b]) for a, b in p.boundary]
    if traced:
        return CreasePattern.from_edges(vertices, creases, boundary)
    facets = [[perm[v] for v in reversed(cycle)] for cycle in p.facets]
    return CreasePattern(vertices.tolist(), creases, boundary, facets)


def reference_rz(p):
    """The compiled sector rotations, grouped as ``compile_pattern`` groups
    them, from the reference fans."""
    fans = oracles.build_vertex_fans(p)
    by_degree = {}
    for k, fan in enumerate(fans):
        by_degree.setdefault(fan.degree, []).append(k)
    return [
        _DegreeGroup([fans[k] for k in ks], ks).rz.tobytes()
        for _, ks in sorted(by_degree.items())
    ]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(p=layer_patterns, data=st.data())
def test_pattern_layer_is_the_per_face_reference(p, data):
    """Facets, fans, sectors, crease lengths, compiled rotations and
    validation reports are the per-face reference's, bit for bit, on
    generated patterns, relabeled ones and their parsed documents."""
    if p.meta["kind"] == "miura":
        grid = oracles.miura_grid(*(p.meta[k] for k in ("m", "n", "a", "b", "alpha")))
        assert p.vertices.tobytes() == grid.tobytes()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="relabel"))
    perm = rng.permutation(len(p.vertices)).tolist()
    patterns = [p, relabeled(p, perm, traced=True), relabeled(p, perm, traced=False)]
    for q in patterns + [parse_pattern(serialize_pattern(q)) for q in patterns]:
        edges = list(q.crease_index) + q.boundary
        traced = oracles.trace_facets(q.vertices, edges)
        assert trace_facets(q.vertices, edges) == traced
        assert q.facets == oracles.canonical_facets(q.vertices, traced)
        fans, want = build_vertex_fans(q), oracles.build_vertex_fans(q)
        assert [(f.vertex_id, f.crease_ids) for f in fans] == [
            (f.vertex_id, f.crease_ids) for f in want]
        assert all(f.sector_angles.tobytes() == g.sector_angles.tobytes()
                   for f, g in zip(fans, want))
        assert q.crease_lengths().tobytes() == oracles.crease_lengths(q).tobytes()
        assert [g.rz.tobytes() for g in compile_pattern(q).groups] == reference_rz(q)
        assert validate_pattern(q) == oracles.validate_pattern(q)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(p=layer_patterns)
def test_tree_axes_run_clockwise_around_the_parent(p):
    """Rooted at the first, the middle and the last facet, a spanning tree
    holds every facet once and each parent before its children, and each
    axis runs along its crease against the parent's anticlockwise cycle:
    the cycle holds (axis[1], axis[0]) as consecutive vertices."""
    n = len(p.facets)
    for root in (0, n // 2, n - 1):
        tree = build_spanning_tree(p, root)
        order = [root] + tree.children.tolist()
        assert sorted(order) == list(range(n))
        position = {f: k for k, f in enumerate(order)}
        for facet, parent, crease, axis in zip(
            tree.children.tolist(), tree.parents.tolist(), tree.creases.tolist(),
            tree.axes.tolist(),
        ):
            assert position[parent] < position[facet]
            assert sorted(axis) == list(p.creases[crease].key)
            cycle = p.facets[parent]
            assert (axis[1], axis[0]) in zip(cycle, cycle[1:] + cycle[:1])


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(BROKEN_PATTERNS)), data=st.data())
def test_broken_patterns_report_as_the_per_face_reference(name, data):
    """Every broken pattern, and a relabeling of it, gets the reference's
    validation report."""
    build, kind = BROKEN_PATTERNS[name]
    p = build()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="relabel"))
    q = relabeled(p, rng.permutation(len(p.vertices)).tolist(), traced=False)
    for r in (p, q):
        report = validate_pattern(r)
        assert report == oracles.validate_pattern(r)
        assert any(v.kind == kind for v in report.violations)


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


@lru_cache(maxsize=None)
def run_documents():
    """The waterbomb base, as a document, with a valid schedule for ``fold``
    and valid springs, settings and start state for ``relax``."""
    p = generate_waterbomb_base()
    sign = [-1.0 if c.assignment == MOUNTAIN else 1.0 for c in p.creases]
    return serialize_pattern(p), {
        "schedule": {"stages": [{"controlled": [{"crease": sign.index(-1.0),
                                                 "target": -1.0}],
                                 "hold": [], "steps": 3}]},
        "springs": {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None, "rest": 0.75 * math.pi * s} for i, s in enumerate(sign)
        ]},
        "settings": {"max_steps": 100},
        "state": {"rho": list(flat_state_seed(p, math.radians(10.0)))},
    }


junk_values = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1, 0, 0.5, 3, "1",
                               None, True, [], [0], {}, {"x": 1}])


def json_paths(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from json_paths(value, path + (key,))


def mutate_document(doc, data):
    """One edit at some place in a JSON document: drop the value, replace it
    with junk, duplicate a list entry, or scale or shift a number.  Returns
    the edited document."""
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    op = data.draw(st.sampled_from(["drop", "junk", "duplicate", "perturb"]), label="op")
    if not path:
        return copy.deepcopy(data.draw(junk_values, label="junk")) if op == "junk" else doc
    *head, key = path
    parent = reduce(getitem, head, doc)
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "junk":
        parent[key] = copy.deepcopy(data.draw(junk_values, label="junk"))
    elif op == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(value))
    elif op == "perturb" and isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = value * data.draw(st.sampled_from([-1, 2, 1e-3]), label="scale") \
            + data.draw(st.sampled_from([0, 1]), label="shift")
    return doc


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["schedule", "springs", "settings", "state"]),
       edits=st.integers(1, 3), syntax_error=st.sampled_from([False] * 4 + [True]),
       data=st.data())
def test_fold_and_relax_exit_codes_are_total(kind, edits, syntax_error, data):
    """Mutated schedule documents through fold, and mutated springs, settings
    and state documents through relax, exit 0, 1, 2 or 3 and never raise.

    Every document is read by ``cli._load``.  A syntax error cuts the edited
    document's text in half.  Warnings are not errors here: a state past the
    fold-angle range warns by design."""
    pattern_text, documents = run_documents()
    doc = copy.deepcopy(documents[kind])
    for _ in range(edits):
        doc = mutate_document(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "pattern.json").write_text(pattern_text)
        for name, document in documents.items():
            text = json.dumps(doc if name == kind else document)
            if name == kind and syntax_error:
                text = text[:len(text) // 2]
            (tmp / f"{name}.json").write_text(text)
        if kind == "schedule":
            argv = ["fold", "--schedule", str(tmp / "schedule.json")]
        else:
            argv = ["relax", *(f"--{name}={tmp / name}.json"
                               for name in ("springs", "settings", "state"))]
        argv += ["--pattern", str(tmp / "pattern.json"), "--out", str(tmp / "run"),
                 "--every", "1000"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
