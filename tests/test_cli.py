import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidfold
from rigidfold import (
    crane_schedule,
    generate_crane,
    generate_miura,
    generate_waterbomb_base,
    serialize_pattern,
)
from oracles import (
    edge_loop_embedding,
    fstring_angle_csv,
    fstring_energy_row,
    fstring_obj,
    fstring_residual_row,
    parse_obj,
    waterbomb_symmetric_oracle,
)
from rigidfold.cli import (
    _ENERGY_ROW,
    _RESIDUAL_ROW,
    _write_angle_csv,
    export_obj,
    main,
)
from rigidfold.elastic import RelaxSettings, SpringConfig, relax
from rigidfold.embedding import embed
from rigidfold.pattern import MOUNTAIN, CreasePattern
from test_pattern import CREASE_RULES


@pytest.fixture()
def miura_file(tmp_path, miura33):
    path = tmp_path / "miura.json"
    path.write_text(serialize_pattern(miura33))
    return path


@pytest.fixture()
def waterbomb_file(tmp_path, waterbomb):
    path = tmp_path / "wb.json"
    path.write_text(serialize_pattern(waterbomb))
    return path


def straight_line_pattern():
    """A sheet whose valley line runs straight through an interior vertex."""
    return CreasePattern.from_edges(
        [[0, 0], [2, 0], [2, 1], [0, 1], [1, 0.5], [0.5, 1], [1.5, 1]],
        [(0, 4, "V"), (4, 2, "V"), (4, 5, "M"), (4, 6, "M")],
        [(0, 1), (1, 2), (2, 6), (6, 5), (5, 3), (3, 0)],
    )


def spawn_module(argv, env=None, **kwargs):
    """``python -m rigidfold.cli`` in a fresh process, with the package's
    source first on its path; ``env`` adds to or overrides the environment."""
    src = str(Path(rigidfold.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           **(env or {})}
    return subprocess.run([sys.executable, "-m", "rigidfold.cli", *map(str, argv)],
                          env=env, **kwargs)


def run_module(*argv):
    """``python -m rigidfold.cli`` in a fresh process; its exit code."""
    return spawn_module(argv, capture_output=True).returncode


class TestValidateCommand:
    def test_ok_pattern(self, miura_file, capsys):
        assert main(["validate", "--pattern", str(miura_file)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_hole_pattern_fails(self, tmp_path, capsys):
        verts = [[0, 0], [3, 0], [3, 3], [0, 3],
                 [1, 1], [2, 1], [2, 2], [1, 2]]
        p = CreasePattern(
            verts,
            [[1, 5, "U"], [2, 6, "U"], [3, 7, "U"], [0, 4, "U"]],
            [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]],
            [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]],
        )
        path = tmp_path / "hole.json"
        path.write_text(serialize_pattern(p))
        assert main(["validate", "--pattern", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(v["kind"] == "holes-unsupported" for v in report["violations"])

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--pattern", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("crease, message", CREASE_RULES)
    def test_broken_crease_exits_1(self, tmp_path, capsys, crease, message):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "creases": [crease],
            "boundary": [[0, 1], [1, 2], [2, 3], [3, 0]], "facets": [[0, 1, 2], [0, 2, 3]],
        }))
        assert main(["validate", "--pattern", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["validate", "--pattern", str(bad)]) == 1


class TestInfoCommand:
    def test_waterbomb_dof(self, waterbomb_file, capsys):
        assert main(["info", "--pattern", str(waterbomb_file)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["dof"] == 5
        assert info["creases"] == 8
        assert info["interior_vertices"] == 1

    def test_miura_dof(self, miura_file, capsys):
        assert main(["info", "--pattern", str(miura_file)]) == 0
        assert json.loads(capsys.readouterr().out)["dof"] == 1

    @staticmethod
    def _info(tmp_path, monkeypatch, valleys):
        """``info`` on a Miura 1x1 whose first ``valleys`` creases are
        valleys and the rest unassigned; returns the magnitude of every
        flat-state seed it asked for."""
        p = generate_miura(1, 1)
        kinds = ["V"] * valleys + ["U"] * (p.n_creases - valleys)
        path = tmp_path / "p.json"
        path.write_text(serialize_pattern(CreasePattern(
            p.vertices, [(c.a, c.b, k) for c, k in zip(p.creases, kinds)],
            p.boundary, p.facets,
        )))
        seeds = []

        def seed(p, magnitude):
            seeds.append(magnitude)
            return rigidfold.flat_state_seed(p, magnitude)

        monkeypatch.setattr("rigidfold.cli.flat_state_seed", seed)
        assert main(["info", "--pattern", str(path)]) == 0
        return seeds

    def test_flat_unassigned_warns(self, tmp_path, capsys, monkeypatch):
        """An all-unassigned pattern is measured flat, unseeded."""
        assert self._info(tmp_path, monkeypatch, 0) == []
        info = json.loads(capsys.readouterr().out)
        assert info["warning"].startswith("flat state: constraint rows degenerate")

    def test_one_assigned_crease_seeds(self, tmp_path, capsys, monkeypatch):
        assert self._info(tmp_path, monkeypatch, 1) == [math.radians(1.0)]
        assert "warning" not in json.loads(capsys.readouterr().out)

    def test_straight_crease_line(self, tmp_path, capsys):
        path = tmp_path / "line.json"
        path.write_text(serialize_pattern(straight_line_pattern()))
        assert main(["info", "--pattern", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["interior_vertices"] == 1


class TestFoldCommand:
    def test_miura_run_artifacts(self, miura_file, miura33, tmp_path, capsys):
        i1 = miura33.meta["driven_crease"]
        i2 = miura33.meta["follower_crease"]
        sched = {"stages": [
            {"controlled": [{"crease": i1, "target": -math.pi / 2}],
             "hold": [], "steps": 18},
        ]}
        spath = tmp_path / "sched.json"
        spath.write_text(json.dumps(sched))
        out = tmp_path / "run"
        code = main([
            "fold", "--pattern", str(miura_file), "--schedule", str(spath),
            "--out", str(out), "--every", "6", "--eps", "1e-13",
        ])
        assert code == 0
        angles = (out / "angles.csv").read_text().splitlines()
        assert len(angles) == 20  # header + seed + 18 steps
        rows = [list(map(float, line.split(","))) for line in angles[1:]]
        for row in rows:
            gap = abs(
                math.tan(row[1 + i2] / 2)
                - math.cos(math.pi / 3) * math.tan(row[1 + i1] / 2)
            )
            assert gap < 1e-8
        residuals = (out / "residuals.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) < 1e-9 for line in residuals)
        assert (out / "step_0000.obj").exists()
        assert (out / "step_0006.obj").exists()
        assert (out / "step_0018.obj").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["steps"] == 18

    def test_crane_stages_flagged(self, tmp_path, capsys):
        crane = generate_crane()
        cpath = tmp_path / "crane.json"
        cpath.write_text(serialize_pattern(crane))
        spath = tmp_path / "sched.json"
        spath.write_text(json.dumps(crane_schedule(crane, steps_per_stage=12).to_dict()))
        out = tmp_path / "crun"
        code = main([
            "fold", "--pattern", str(cpath), "--schedule", str(spath),
            "--out", str(out), "--every", "12", "--seed-magnitude", "0",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stage_ends"] == [12, 24, 36]
        assert manifest["max_residual"] < 1e-9

    def test_empty_schedule_single_obj(self, miura_file, tmp_path, capsys):
        spath = tmp_path / "empty.json"
        spath.write_text(json.dumps({"stages": []}))
        out = tmp_path / "erun"
        assert main([
            "fold", "--pattern", str(miura_file), "--schedule", str(spath),
            "--out", str(out),
        ]) == 0
        objs = sorted(out.glob("*.obj"))
        assert len(objs) == 1

    def test_blocked_drive_exits_3(self, tmp_path, capsys):
        crane = generate_crane()
        cpath = tmp_path / "crane.json"
        cpath.write_text(serialize_pattern(crane))
        ids = crane.meta["names"]
        drive = crane.crease_index[tuple(sorted((ids["O"], ids["M3"])))]
        hold = [i for i in range(crane.n_creases) if i != drive]
        spath = tmp_path / "blocked.json"
        spath.write_text(json.dumps({"stages": [
            {"controlled": [{"crease": drive, "target": math.pi / 2}],
             "hold": hold, "steps": 2},
        ]}))
        out = tmp_path / "blocked_run"
        code = main([
            "fold", "--pattern", str(cpath), "--schedule", str(spath),
            "--out", str(out), "--seed-magnitude", "0",
        ])
        assert code == 3

    def test_incompatible_frame_exits_1(self, miura_file, tmp_path, capsys, monkeypatch):
        import rigidfold.cli as cli
        from rigidfold import assemble_global

        real_run_schedule = cli.run_schedule

        def torn(p, rho0, schedule, **kwargs):
            traj = real_run_schedule(p, rho0, schedule, **kwargs)
            state = traj.states[-1] + 0.01
            traj.append(state, assemble_global(p, state).normalized_residual, 0)
            return traj

        monkeypatch.setattr(cli, "run_schedule", torn)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"stages": []}))
        assert main([
            "fold", "--pattern", str(miura_file), "--schedule", str(spath),
            "--out", str(tmp_path / "run"),
        ]) == 1
        assert "fold state incompatible" in capsys.readouterr().err
        # every frame is checked before the first is written
        assert list((tmp_path / "run").glob("step_*.obj")) == []

    @pytest.mark.parametrize("poses", [1, 170])
    def test_frames_embedded_in_batches(self, miura_file, miura33, tmp_path, capsys,
                                        monkeypatch, poses):
        """A run placed one frame per call (1 pose), or two (170 poses, the
        sheet has 49 vertices and 36 facets), writes the bytes of a run
        placed in one call."""
        import rigidfold.embedding as embedding

        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"stages": [{"controlled": [
            {"crease": miura33.meta["driven_crease"], "target": -1.0}], "steps": 6}]}))
        outs = {}
        for name in ("one", "batched"):
            if name == "batched":
                monkeypatch.setattr(embedding, "_POSES_PER_CALL", poses)
            out = tmp_path / name
            assert main(["fold", "--pattern", str(miura_file), "--schedule", str(spath),
                         "--out", str(out), "--every", "1"]) == 0
            outs[name] = {f.name: f.read_bytes() for f in out.glob("step_*.obj")}
        assert len(outs["one"]) == 7
        assert outs["batched"] == outs["one"]

    def test_determinism_byte_identical(self, miura_file, miura33, tmp_path, capsys):
        i1 = miura33.meta["driven_crease"]
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"stages": [
            {"controlled": [{"crease": i1, "target": -1.0}], "hold": [], "steps": 5},
        ]}))
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            main(["fold", "--pattern", str(miura_file), "--schedule", str(spath),
                  "--out", str(out)])
            outs.append((out / "angles.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_crane_outputs_identical_across_blas_threads(self, tmp_path):
        """``rigidfold fold`` in a fresh process with one BLAS thread and with
        two: every output but ``manifest.json``, which holds the wall time, is
        byte-identical.  Two runs: the crane schedule, whose solves are all
        small, and a Miura 5x5 fold from its flat seed, whose rank-deficient
        seed solves run in the band (the deflated solve) and every other
        solve in the certified band sweep.  A large dense
        eigendecomposition may differ in its last bits between thread
        counts; no solve here runs one."""
        crane = generate_crane()
        miura = generate_miura(5, 5)
        driven = miura.meta["driven_crease"]
        runs = {
            "crane": (crane, crane_schedule(crane).to_dict(), ["--seed-magnitude", "0"]),
            "miura": (miura, {"stages": [{"controlled": [{"crease": driven, "target": -1.0}],
                                          "steps": 4}]}, []),
        }
        src = str(Path(rigidfold.__file__).resolve().parents[1])
        for name, (pattern, schedule, extra) in runs.items():
            cpath = tmp_path / f"{name}.json"
            cpath.write_text(serialize_pattern(pattern))
            spath = tmp_path / f"{name}_sched.json"
            spath.write_text(json.dumps(schedule))
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}_threads{threads}"
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                       "OMP_NUM_THREADS": threads,
                       "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
                subprocess.run(
                    [sys.executable, "-m", "rigidfold.cli", "fold", "--pattern", str(cpath),
                     "--schedule", str(spath), "--out", str(out), *extra],
                    env=env, check=True, capture_output=True,
                )
                outputs.append({
                    f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"
                })
            frames = 3 * 36 + 1 if name == "crane" else 4 + 1
            assert len(outputs[0]) == frames + 2, name  # OBJ frames, angles.csv, residuals.csv
            assert outputs[0] == outputs[1], name


class TestRelaxCommand:
    def test_bistable_wells(self, waterbomb_file, waterbomb, tmp_path, capsys):
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        springs = {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": rm if i in waterbomb.meta["mountains"] else rv}
            for i in range(8)
        ]}
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps(springs))
        finals = {}
        for name, theta in (("up", 3 * math.pi / 4), ("down", 0.0)):
            m, v = waterbomb_symmetric_oracle(theta)
            state = np.zeros(8)
            state[waterbomb.meta["mountains"]] = m
            state[waterbomb.meta["valleys"]] = v
            stpath = tmp_path / f"{name}.json"
            stpath.write_text(json.dumps({"rho": list(state)}))
            out = tmp_path / f"relax_{name}"
            code = main([
                "relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
                "--state", str(stpath), "--out", str(out),
            ])
            assert code == 0
            finals[name] = np.array(
                json.loads((out / "final_state.json").read_text())["rho"]
            )
            assert (out / "energy.csv").exists()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["converged"]
        assert abs(finals["up"][0] - rm) < 1e-4
        assert abs(finals["up"][0] - finals["down"][0]) > 0.1

    def test_coarse_step_resolution_exits_3(self, waterbomb_file, waterbomb, tmp_path,
                                            capsys):
        springs = {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": -0.75 * math.pi if c.assignment == MOUNTAIN else 0.75 * math.pi}
            for i, c in enumerate(waterbomb.creases)
        ]}
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps(springs))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"step_resolution": 0.05}))
        out = tmp_path / "rrun"
        assert main([
            "relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
            "--settings", str(settings), "--out", str(out),
        ]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is False
        assert manifest["projected_gradient"] > 1e-2
        assert manifest["stop_reason"] == "step_resolution"
        captured = capsys.readouterr()
        assert json.loads(captured.out)["stop_reason"] == "step_resolution"
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert "projected gradient" in err[0]
        assert "stopped on step_resolution" in err[0]

    def test_step_budget_exits_3_and_names_it(self, waterbomb_file, waterbomb, tmp_path,
                                              capsys):
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        springs = {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": rm if i in waterbomb.meta["mountains"] else rv}
            for i in range(8)
        ]}
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps(springs))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"max_steps": 2}))
        out = tmp_path / "rrun"
        assert main([
            "relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
            "--settings", str(settings), "--out", str(out),
        ]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "max_steps"
        assert manifest["steps"] == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["stop_reason"] == "max_steps"
        assert "stopped on max_steps" in captured.err

    def test_rest_compatible_start_zero_steps(self, waterbomb_file, waterbomb,
                                              tmp_path, capsys):
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        springs = {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": rm if i in waterbomb.meta["mountains"] else rv}
            for i in range(8)
        ]}
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps(springs))
        state = np.zeros(8)
        state[waterbomb.meta["mountains"]] = rm
        state[waterbomb.meta["valleys"]] = rv
        stpath = tmp_path / "rest.json"
        stpath.write_text(json.dumps({"rho": list(state)}))
        out = tmp_path / "rrun"
        assert main([
            "relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
            "--state", str(stpath), "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["steps"] <= 1
        assert manifest["final_energy"] < 1e-10
        assert manifest["stop_reason"] == "vanishing_step"
        assert json.loads(capsys.readouterr().out)["stop_reason"] == "vanishing_step"


class TestObjExport:
    def test_unit_square(self):
        p = CreasePattern(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [],
            [[0, 1], [1, 2], [2, 3], [3, 0]], [[0, 1, 2, 3]],
        )
        text = export_obj(embed(p, np.zeros(0)), p.facets)
        lines = text.strip().splitlines()
        assert sum(1 for t in lines if t.startswith("v ")) == 4
        assert sum(1 for t in lines if t.startswith("f ")) == 2  # fan split

    def test_roundtrip_distances(self, miura33, miura_run):
        s = miura_run["traj"].states[12]
        coords = embed(miura33, s)
        verts, faces = parse_obj(export_obj(coords, miura33.facets))
        assert verts.shape == coords.shape
        rng = np.random.default_rng(41)
        idx = rng.integers(0, len(verts), size=(30, 2))
        for i, j in idx:
            d1 = np.linalg.norm(verts[i] - verts[j])
            d2 = np.linalg.norm(coords[i] - coords[j])
            assert abs(d1 - d2) < 1e-12

    def test_obj_grammar(self, miura33):
        coords = embed(miura33, np.zeros(miura33.n_creases))
        for line in export_obj(coords, miura33.facets).strip().splitlines():
            parts = line.split()
            assert parts[0] in ("v", "f")
            if parts[0] == "v":
                assert len(parts) == 4
                [float(x) for x in parts[1:]]
            else:
                assert len(parts) == 4
                ids = [int(x) for x in parts[1:]]
                assert all(1 <= i <= len(coords) for i in ids)

    def test_export_command(self, waterbomb_file, tmp_path, capsys):
        out = tmp_path / "wb.obj"
        assert main([
            "export-obj", "--pattern", str(waterbomb_file), "--out", str(out),
        ]) == 0
        verts, faces = parse_obj(out.read_text())
        assert len(verts) == 9
        assert len(faces) == 8


# signed zero, the least subnormal, a huge, an inexact and integer-valued floats
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.1, 1.0, -3.0, 42.0,
           2.0**53, 1 / 3, math.pi]


class TestTemplates:
    """The %-templates write the bytes of one f-string per number."""

    def test_obj_text(self, crane):
        values = np.array(AWKWARD * 3).reshape(-1, 3)
        for coords in (values, values[::-1], np.zeros((0, 3))):
            for facets in (crane.facets[:len(coords)], []):
                assert export_obj(coords, facets) == fstring_obj(coords, facets)

    @pytest.mark.parametrize("degrees", [False, True])
    def test_angle_csv(self, tmp_path, degrees):
        states = [np.array(AWKWARD), np.array(AWKWARD[::-1]), np.zeros(len(AWKWARD))]
        path = tmp_path / "angles.csv"
        _write_angle_csv(path, states, degrees)
        assert path.read_text() == fstring_angle_csv(states, degrees)

    def test_residual_and_energy_rows(self):
        for k, (a, b) in enumerate(zip(AWKWARD, AWKWARD[::-1])):
            assert _RESIDUAL_ROW % (k, a, k + 3) == fstring_residual_row(k, a, k + 3)
            assert _ENERGY_ROW % (k, a, b) == fstring_energy_row(k, a, b)
            a64, b64 = np.float64(a), np.float64(b)
            assert _ENERGY_ROW % (k, a64, b64) == fstring_energy_row(k, a64, b64)

    def test_relax_files_unchanged(self, waterbomb_file, waterbomb, tmp_path, capsys):
        """``rigidfold relax`` on the waterbomb base writes the energy rows,
        the final state and every OBJ frame that one f-string per number and
        the per-edge embedding give for the same relaxation."""
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        springs = {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": rm if i in waterbomb.meta["mountains"] else rv}
            for i in range(8)
        ]}
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps(springs))
        out = tmp_path / "run"
        assert main(["relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
                     "--out", str(out), "--every", "3", "--root-facet", "5"]) == 0
        cfg = SpringConfig.from_json(waterbomb, json.dumps(springs))
        rho0 = rigidfold.flat_state_seed(waterbomb, math.radians(1.0))
        result = relax(waterbomb, cfg, RelaxSettings(), rho0)
        energy = "step,energy,characteristic_angle\n" + "".join(
            fstring_energy_row(k, u, s[result.characteristic])
            for k, (u, s) in enumerate(zip(result.energies, result.states))
        )
        expected = {
            "energy.csv": energy,
            "final_state.json": json.dumps({"rho": list(result.final)}, indent=1),
        }
        last = len(result.states) - 1
        for k, s in enumerate(result.states):
            if k % 3 == 0 or k == last:
                coords = edge_loop_embedding(waterbomb, s, 5)
                expected[f"step_{k:04d}.obj"] = fstring_obj(coords, waterbomb.facets)
        written = {f.name: f.read_text() for f in out.iterdir() if f.name != "manifest.json"}
        assert last > 3
        assert written == expected


class TestMeasureCommand:
    def test_flat_dimensions(self, miura_file, miura33, tmp_path, capsys):
        stpath = tmp_path / "flat.json"
        stpath.write_text(json.dumps({"rho": [0.0] * miura33.n_creases}))
        assert main([
            "measure", "--pattern", str(miura_file), "--state", str(stpath),
        ]) == 0
        dims = json.loads(capsys.readouterr().out)
        assert dims["H"] == 0.0
        assert dims["L"] > dims["W"] > 0

    def test_nan_state_exits_1(self, miura_file, miura33, tmp_path, capsys):
        stpath = tmp_path / "nan.json"
        stpath.write_text(json.dumps({"rho": [math.nan] * miura33.n_creases}))
        assert main([
            "measure", "--pattern", str(miura_file), "--state", str(stpath),
        ]) == 1
        assert capsys.readouterr().out == ""


# the driven crease and crease count of the Miura 3x3 sheet (the miura33 fixture)
DRIVEN = generate_miura(3, 3).meta["driven_crease"]
N_CREASES = generate_miura(3, 3).n_creases


class TestBadInput:
    """Every bad input exits with its documented code, never a traceback."""

    @staticmethod
    def hole_file(tmp_path):
        verts = [[0, 0], [3, 0], [3, 3], [0, 3],
                 [1, 1], [2, 1], [2, 2], [1, 2]]
        p = CreasePattern(
            verts,
            [[1, 5, "V"], [2, 6, "V"], [3, 7, "V"], [0, 4, "V"]],
            [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]],
            [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]],
        )
        path = tmp_path / "hole.json"
        path.write_text(serialize_pattern(p))
        return path

    @staticmethod
    def fold(pattern, schedule, tmp_path, *extra):
        spath = tmp_path / "sched.json"
        spath.write_text(json.dumps(schedule))
        return main([
            "fold", "--pattern", str(pattern), "--schedule", str(spath),
            "--out", str(tmp_path / "run"), *extra,
        ])

    @staticmethod
    def relax(pattern, n_creases, tmp_path, *extra):
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps({"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None, "rest": 0.5} for i in range(n_creases)
        ]}))
        return main([
            "relax", "--pattern", str(pattern), "--springs", str(spath),
            "--out", str(tmp_path / "run"), *extra,
        ])

    def test_fold_controlled_id_out_of_range(self, miura_file, miura33, tmp_path, capsys):
        schedule = {"stages": [{"controlled": [
            {"crease": miura33.n_creases, "target": 0.5}], "steps": 2}]}
        assert self.fold(miura_file, schedule, tmp_path) == 1
        assert "out of range" in capsys.readouterr().err

    def test_fold_hold_id_out_of_range(self, miura_file, miura33, tmp_path, capsys):
        i1 = miura33.meta["driven_crease"]
        schedule = {"stages": [{"controlled": [{"crease": i1, "target": -0.5}],
                                "hold": [miura33.n_creases + 3], "steps": 2}]}
        assert self.fold(miura_file, schedule, tmp_path) == 1
        assert "out of range" in capsys.readouterr().err

    @staticmethod
    def refuse_seeds(monkeypatch):
        """Make a flat-state seed fail the test: the input is refuted first."""
        def seed(*args, **kwargs):
            raise AssertionError("seeded before the input was checked")

        monkeypatch.setattr("rigidfold.cli.flat_state_seed", seed)

    @pytest.mark.parametrize("controlled, message", [
        ({"crease": 999, "target": -0.5}, "crease id 999 out of range"),
        ({"crease": DRIVEN, "target": 4.0}, "target 4.0 of crease"),
    ], ids=["crease-999", "target-4-rad"])
    def test_fold_refuted_schedule_leaves_no_out(self, miura_file, tmp_path, capsys,
                                                 monkeypatch, controlled, message):
        """A schedule the pattern refutes exits 1 before the seed and before
        ``--out`` is made."""
        self.refuse_seeds(monkeypatch)
        schedule = {"stages": [{"controlled": [controlled], "steps": 2}]}
        assert self.fold(miura_file, schedule, tmp_path) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("char", [999, -1])
    def test_relax_characteristic_out_of_range_leaves_no_out(self, waterbomb_file, tmp_path,
                                                             capsys, monkeypatch, char):
        """A characteristic crease outside the pattern exits 1 before the
        seed and before ``--out`` is made."""
        self.refuse_seeds(monkeypatch)
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"characteristic": char}))
        assert self.relax(waterbomb_file, 8, tmp_path, "--settings", str(path)) == 1
        assert f"characteristic crease {char} out of range" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_fold_every_0(self, miura_file, tmp_path, capsys):
        assert self.fold(miura_file, {"stages": []}, tmp_path, "--every", "0") == 1
        assert "--every" in capsys.readouterr().err

    def test_relax_every_0(self, waterbomb_file, tmp_path, capsys):
        assert self.relax(waterbomb_file, 8, tmp_path, "--every", "0") == 1
        assert "--every" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1e-5"])
    def test_fold_bad_eps_exits_1(self, miura_file, tmp_path, capsys, eps):
        assert self.fold(miura_file, {"stages": []}, tmp_path, "--eps", eps) == 1
        assert "--eps must be finite and in (0, 1e-09]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("magnitude", ["nan", "inf", "-1", "181", "400"])
    def test_fold_bad_seed_magnitude_exits_1(self, miura_file, tmp_path, capsys,
                                             magnitude):
        assert self.fold(miura_file, {"stages": []}, tmp_path,
                         "--seed-magnitude", magnitude) == 1
        assert "--seed-magnitude must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("magnitude", ["nan", "inf", "-1", "181", "400"])
    def test_relax_bad_seed_magnitude_exits_1(self, waterbomb_file, tmp_path, capsys,
                                              magnitude):
        assert self.relax(waterbomb_file, 8, tmp_path,
                          "--seed-magnitude", magnitude) == 1
        assert "--seed-magnitude must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("root", ["999", "-1"])
    def test_fold_root_facet_out_of_range_exits_1(self, miura_file, miura33, tmp_path,
                                                  capsys, root):
        schedule = {"stages": [{"controlled": [
            {"crease": miura33.meta["driven_crease"], "target": -0.5}], "steps": 2}]}
        assert self.fold(miura_file, schedule, tmp_path, "--root-facet", root) == 1
        assert f"root facet {root} out of range" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("root", ["999", "-1"])
    def test_relax_root_facet_out_of_range_exits_1(self, waterbomb_file, tmp_path, capsys,
                                                   root):
        assert self.relax(waterbomb_file, 8, tmp_path, "--root-facet", root) == 1
        assert f"root facet {root} out of range" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("root", ["999", "-1"])
    @pytest.mark.parametrize("command", [
        ["measure", "--state", "{state}"],
        ["export-obj", "--state", "{state}", "--out", "{out}"],
    ], ids=["measure", "export-obj"])
    def test_root_facet_out_of_range_exits_1_before_embedding(
            self, miura_file, miura33, tmp_path, capsys, command, root):
        state, out = tmp_path / "state.json", tmp_path / "mesh.obj"
        state.write_text(json.dumps({"rho": [0.0] * miura33.n_creases}))
        argv = [a.format(state=state, out=out) for a in command]
        assert main([*argv, "--pattern", str(miura_file), "--root-facet", root]) == 1
        captured = capsys.readouterr()
        assert f"root facet {root} out of range" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tol", [1e-5, 2e-9])
    def test_relax_residual_tol_above_embed_tol_exits_1(self, waterbomb_file, tmp_path,
                                                       capsys, tol):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"residual_tol": tol}))
        assert self.relax(waterbomb_file, 8, tmp_path, "--settings", str(path)) == 1
        assert "residual_tol must be finite and in (0, 1e-09]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_fold_invalid_pattern(self, tmp_path, capsys):
        assert self.fold(self.hole_file(tmp_path), {"stages": []}, tmp_path) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(v["kind"] == "holes-unsupported" for v in report["violations"])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["info"],
        ["measure", "--state", "{state}"],
        ["export-obj", "--out", "{out}"],
        ["export-obj", "--state", "{state}", "--out", "{out}"],
        ["export-obj"],
    ], ids=["info", "measure", "export-obj", "export-obj-state", "export-obj-stdout"])
    def test_invalid_pattern_exits_1_before_embedding(self, tmp_path, capsys, command):
        # vertex 4 lies on no facet: embedding it would write NaN coordinates
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [5, 5]],
            "creases": [[0, 2, "V"]],
            "boundary": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "facets": [[0, 1, 2], [0, 2, 3]],
        }))
        state, out = tmp_path / "state.json", tmp_path / "mesh.obj"
        state.write_text(json.dumps({"rho": [0.0]}))
        argv = [a.format(state=state, out=out) for a in command]
        assert main([*argv, "--pattern", str(path)]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert "isolated-vertex" in [v["kind"] for v in report["violations"]]
        assert "fails validation" in captured.err
        assert not out.exists()

    def test_relax_invalid_pattern(self, tmp_path, capsys):
        assert self.relax(self.hole_file(tmp_path), 4, tmp_path) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(v["kind"] == "holes-unsupported" for v in report["violations"])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("entry", [{"k": math.nan}, {"k": -1.0}, {"rest": math.inf}])
    def test_relax_bad_spring_exits_1(self, waterbomb_file, tmp_path, capsys, entry):
        creases = [{"crease": i, "k": None, "rest": 0.5} for i in range(8)]
        creases[3].update(entry)
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps({"k_per_length": 1.0, "creases": creases}))
        assert main([
            "relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
            "--out", str(tmp_path / "run"),
        ]) == 1
        assert "spring" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, message", [
        ({"bogus": 1, "max_steps": 10}, "unknown relax settings: bogus"),
        ({"initial_step": math.nan}, "initial_step must be a finite number"),
        ({"step_resolution": math.nan}, "step_resolution must be a finite number"),
        ({"residual_tol": math.inf}, "residual_tol must be a finite number"),
        ({"initial_step": "big"}, "initial_step must be a finite number"),
        ({"residual_tol": 0}, "residual_tol must be positive"),
        ({"max_steps": "10"}, "max_steps must be a non-negative integer"),
        ({"max_steps": None}, "max_steps must be a non-negative integer"),
        ({"max_newton": -1}, "unknown relax settings: max_newton"),
        ({"max_newton": 5.0}, "unknown relax settings: max_newton"),
        ({"characteristic": [1]}, "characteristic must be a crease id"),
        ({"characteristic": 1.5}, "characteristic must be a crease id"),
        ({"characteristic": 8}, "characteristic crease 8 out of range"),
        ([1, 2], "JSON object"),
    ])
    def test_relax_bad_settings_exits_1(self, waterbomb_file, tmp_path, capsys,
                                        settings, message):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(settings))
        assert self.relax(waterbomb_file, 8, tmp_path, "--settings", str(path)) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, document, message", [
        ("schedule", {}, "malformed document"),
        ("schedule", [], "malformed document"),
        ("schedule", {"stages": [{"controlled": [{"crease": 0}]}]}, "malformed document"),
        ("schedule", {"stages": [{"controlled": [{"crease": 0, "target": None}]}]},
         "malformed document"),
        ("schedule", {"stages": [{"controlled": [{"crease": 0, "target": 0.5}],
                                  "steps": "3"}]}, "step count must be an integer"),
        ("schedule", {"stages": [{"controlled": [{"crease": 0, "target": 0.5}],
                                  "steps": 2.5}]}, "step count must be an integer"),
        ("schedule", {"stages": [{"controlled": [{"crease": 0, "target": math.nan}]}]},
         "stage targets must be finite"),
        ("schedule", {"stages": [{"controlled": [{"crease": 0, "target": 1e300}]}]},
         "outside [-pi, pi]"),
        ("springs", {}, "malformed document"),
        ("springs", [], "malformed document"),
        ("springs", {"creases": [{"crease": math.inf, "rest": 0.5}]}, "non-integral index inf"),
        ("state", {"x": 1}, "malformed document"),
        ("state", {"rho": math.inf}, "malformed document"),
        ("pattern", {"vertices": [1, 2]}, "malformed document"),
        ("pattern", {"creases": [["a", 1, "M"]]}, "malformed document"),
        ("pattern", {"creases": [[0, 1.5, "M"]]}, "non-integral index 1.5"),
        ("pattern", {"vertices": [[0, 0], [1, "0"]]}, "malformed document"),
        ("pattern", {"vertices": [[0, 0], [1, True]]}, "malformed document"),
        # a JSON syntax error is a malformed document whichever file holds it
        ("schedule", "{oops", "malformed document"),
        ("springs", "{oops", "malformed document"),
        ("settings", "{oops", "malformed document"),
        ("state", "{oops", "malformed document"),
        # ids are never truncated and numbers never converted from strings or
        # bools: crease 0.7 past the driven crease used to fold the driven one
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN + 0.7, "target": -0.5}]}]},
         f"non-integral index {DRIVEN + 0.7}"),
        ("schedule", {"stages": [{"controlled": [{"crease": True, "target": -0.5}]}]},
         "malformed document"),
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN, "target": "-0.5"}]}]},
         "malformed document"),
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN, "target": False}]}]},
         "malformed document"),
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN, "target": -0.5}],
                                  "hold": [0.5]}]}, "non-integral index 0.5"),
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN, "target": -0.5}],
                                  "hold": ["0"]}]}, "malformed document"),
        ("springs", {"k_per_length": 1.0, "creases": [{"crease": 0.2, "rest": 0.5}]},
         "non-integral index 0.2"),
        ("springs", {"k_per_length": 1.0, "creases": [{"crease": False, "rest": 0.5}]},
         "malformed document"),
        ("springs", {"k_per_length": 1.0, "creases": [{"crease": 0, "rest": "0.5"}]},
         "malformed document"),
        ("springs", {"creases": [{"crease": 0, "k": "1", "rest": 0.5}]}, "malformed document"),
        ("springs", {"k_per_length": True, "creases": [{"crease": 0, "rest": 0.5}]},
         "malformed document"),
        ("state", {"rho": ["0"] + [0.0] * (N_CREASES - 1)}, "malformed document"),
        ("state", {"rho": [False] + [0.0] * (N_CREASES - 1)}, "malformed document"),
        ("state", {"rho": [math.nan] + [0.0] * (N_CREASES - 1)},
         "fold state has non-finite angles at creases [0]"),
        # a crease named twice used to be read with the last entry winning
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN, "target": 0.5},
                                                 {"crease": DRIVEN, "target": -0.5}]}]},
         f"crease {DRIVEN} controlled twice in stage 0"),
        ("springs", {"k_per_length": 1.0, "creases": [{"crease": 0, "rest": 0.5},
                                                      {"crease": 0, "rest": -0.9}]},
         "crease 0 has two springs entries"),
        # a crease held twice used to fail only after the stages before it ran
        ("schedule", {"stages": [{"controlled": [{"crease": DRIVEN, "target": -0.5}]},
                                 {"controlled": [{"crease": DRIVEN, "target": -0.6}],
                                  "hold": [3, 3]}]},
         "crease 3 held twice in stage 1"),
    ], ids=[
        "schedule-empty-object", "schedule-list", "schedule-no-target",
        "schedule-null-target", "schedule-string-steps", "schedule-fractional-steps",
        "schedule-nan-target", "schedule-huge-target", "springs-empty-object",
        "springs-list", "springs-infinite-crease", "state-no-rho", "state-scalar-rho",
        "pattern-scalar-vertices", "pattern-string-crease-end",
        "pattern-fractional-crease-end", "pattern-string-coordinate",
        "pattern-bool-coordinate",
        "schedule-syntax", "springs-syntax", "settings-syntax", "state-syntax",
        "schedule-fractional-crease", "schedule-bool-crease", "schedule-string-target",
        "schedule-bool-target", "schedule-fractional-hold", "schedule-string-hold",
        "springs-fractional-crease", "springs-bool-crease", "springs-string-rest",
        "springs-string-k", "springs-bool-k-per-length", "state-string-angle",
        "state-bool-angle", "state-nan-angle", "schedule-duplicate-crease",
        "springs-duplicate-crease", "schedule-duplicate-hold",
    ])
    def test_malformed_document_exits_1(self, miura33, tmp_path, capsys, kind, document,
                                        message):
        files = {
            "pattern": json.loads(serialize_pattern(miura33)),
            "schedule": {"stages": []},
            "springs": {"k_per_length": 1.0, "creases": [
                {"crease": i, "k": None, "rest": 0.5} for i in range(miura33.n_creases)
            ]},
            "state": {"rho": [0.0] * miura33.n_creases},
            "settings": {},
        }
        files[kind] = {**files[kind], **document} if kind == "pattern" else document
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(data if isinstance(data, str) else json.dumps(data))
        command = {
            "pattern": ["validate"],
            "schedule": ["fold", "--schedule", str(paths["schedule"])],
            "springs": ["relax", "--springs", str(paths["springs"])],
            "settings": ["relax", "--springs", str(paths["springs"]),
                         "--settings", str(paths["settings"])],
            "state": ["relax", "--springs", str(paths["springs"]),
                      "--state", str(paths["state"])],
        }[kind]
        out = ["--out", str(tmp_path / "run")] if kind != "pattern" else []
        assert main([*command, "--pattern", str(paths["pattern"]), *out]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["info"],
        ["measure"],
        ["relax", "--springs", "{springs}", "--out", "{out}"],
        ["export-obj", "--out", "{out}"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("document", [
        {"rho": ["x"] + [0.0] * (N_CREASES - 1)},
        "x",
        {"rho": 5},
        5,
        {"rho": ""},
    ], ids=["string-angle", "bare-string", "scalar-rho", "bare-number", "empty-string-rho"])
    def test_state_that_is_no_list_of_numbers_exits_1(self, miura_file, tmp_path, capsys,
                                                      command, document):
        """A non-numeric angle, or angles that are not a list, make a
        malformed document that the message names, before any output."""
        state = tmp_path / "state.json"
        state.write_text(json.dumps(document))
        springs = tmp_path / "springs.json"
        springs.write_text(json.dumps({"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None, "rest": 0.5} for i in range(N_CREASES)]}))
        out = tmp_path / "out"
        argv = [arg.format(springs=springs, out=out) for arg in command]
        assert main([*argv, "--pattern", str(miura_file), "--state", str(state)]) == 1
        captured = capsys.readouterr()
        assert f"malformed document {state}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestFramesUseRecordedResiduals:
    """fold and relax embed each frame at the residual its solver recorded."""

    @staticmethod
    def count_frame_assemblies(monkeypatch):
        import rigidfold.embedding as embedding

        calls = []
        real = embedding.assemble_global

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(embedding, "assemble_global", counting)
        return calls

    def test_fold_assembles_no_frame(self, miura_file, miura33, tmp_path, capsys,
                                     monkeypatch):
        calls = self.count_frame_assemblies(monkeypatch)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"stages": [{"controlled": [
            {"crease": miura33.meta["driven_crease"], "target": -0.5}], "steps": 4}]}))
        out = tmp_path / "run"
        assert main(["fold", "--pattern", str(miura_file), "--schedule", str(spath),
                     "--out", str(out), "--every", "1"]) == 0
        assert len(list(out.glob("step_*.obj"))) == 5
        assert calls == []

    def test_relax_assembles_no_frame(self, waterbomb_file, waterbomb, tmp_path, capsys,
                                      monkeypatch):
        calls = self.count_frame_assemblies(monkeypatch)
        rm, rv = waterbomb_symmetric_oracle(5 * math.pi / 8)
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps({"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": rm if i in waterbomb.meta["mountains"] else rv}
            for i in range(8)
        ]}))
        out = tmp_path / "run"
        assert main(["relax", "--pattern", str(waterbomb_file), "--springs", str(spath),
                     "--out", str(out), "--every", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(list(out.glob("step_*.obj"))) == manifest["steps"] + 1 > 1
        assert calls == []


class TestModuleEntryPoint:
    """Commands run as ``python -m rigidfold.cli`` in a fresh process,
    checked by their exit codes.  The bad-input exits are cases of
    ``TestBadInput``, and a Miura 5x5 fold from its flat seed runs in a
    fresh process in ``TestFoldCommand``."""

    @pytest.mark.parametrize("pattern", [
        lambda: generate_miura(3, 3), lambda: generate_miura(20, 20), straight_line_pattern,
    ], ids=["miura", "miura20", "straight-line"])
    def test_validate_exits_0(self, tmp_path, pattern):
        path = tmp_path / "pattern.json"
        path.write_text(serialize_pattern(pattern()))
        assert run_module("validate", "--pattern", path) == 0

    @pytest.mark.parametrize("stages", [
        [(-175.0, 35)],
        [(-30.0, 3), (-175.0, 30)],
    ], ids=["one-stage", "two-stage"])
    def test_miura7_fold_from_flat_seed_exits_0(self, tmp_path, stages):
        """The seed's rank-deficient solves run the deflated band solve, the
        Newton loops take chord steps on kept band factorizations, and the
        steps after the fifth of a stage start from extrapolated states; a
        stage of three steps is shorter than that history, and the history
        restarts at the stage boundary."""
        p = generate_miura(7, 7)
        driven = p.meta["driven_crease"]
        cpath, spath = tmp_path / "miura7.json", tmp_path / "schedule.json"
        cpath.write_text(serialize_pattern(p))
        spath.write_text(json.dumps({"stages": [
            {"controlled": [{"crease": driven, "target": math.radians(target)}],
             "steps": steps}
            for target, steps in stages
        ]}))
        assert run_module("fold", "--pattern", cpath, "--schedule", spath,
                          "--eps", "1e-13", "--out", tmp_path / "run") == 0


class TestClosedStdout:
    """A reader that closes stdout early, as ``rigidfold info | grep -q``
    does once it matched: the command finishes its work, writes every file,
    and exits with the code that work earned, with nothing on stderr about
    the pipe.  Each run's stdout is a pipe whose read end is closed before
    the spawn, so every write to it fails with EPIPE; the runs are
    unbuffered (each write fails at once) and block-buffered (the write
    fails at the first flush)."""

    @staticmethod
    def spawn_unread(buffered, *argv):
        """Exit code and stderr of ``python -m rigidfold.cli`` with no reader
        on its stdout."""
        read, write = os.pipe()
        os.close(read)
        try:
            run = spawn_module(argv, {"PYTHONUNBUFFERED": "" if buffered else "1"},
                               stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert "Broken pipe" not in run.stderr
        assert "Exception ignored" not in run.stderr
        return run.returncode, run.stderr

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_info_exits_0(self, crane, tmp_path, buffered):
        path = tmp_path / "crane.json"
        path.write_text(serialize_pattern(crane))
        assert self.spawn_unread(buffered, "info", "--pattern", path) == (0, "")

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_help_exits_0(self, buffered):
        """argparse prints the help and exits 0 itself, so ``main`` flushes
        it before the exit; the interpreter's flush at exit finds nothing."""
        assert self.spawn_unread(buffered, "--help") == (0, "")
        assert self.spawn_unread(buffered, "info", "--help") == (0, "")

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_broken_pattern_exits_1(self, tmp_path, buffered):
        """``validate`` prints the report and exits 1; ``info`` prints it
        while loading the pattern and exits 1 on its error line."""
        p = CreasePattern.from_edges(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [],
            [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]],
        )
        path = tmp_path / "split.json"
        path.write_text(serialize_pattern(p))
        assert self.spawn_unread(buffered, "validate", "--pattern", path) == (1, "")
        code, err = self.spawn_unread(buffered, "info", "--pattern", path)
        assert code == 1
        assert err.startswith("error: pattern") and "fails validation" in err

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_export_obj_to_stdout_exits_0(self, miura_file, buffered):
        assert self.spawn_unread(buffered, "export-obj", "--pattern", miura_file) == (0, "")

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_non_stationary_relax_exits_3_with_every_file(self, waterbomb_file, waterbomb,
                                                          tmp_path, capsys, buffered):
        """The coarse step resolution case of ``TestRelaxCommand``: exit 3
        with its one error line, and every file the same bytes as the
        in-process run's but for the manifest's wall time."""
        springs = {"k_per_length": 1.0, "creases": [
            {"crease": i, "k": None,
             "rest": -0.75 * math.pi if c.assignment == MOUNTAIN else 0.75 * math.pi}
            for i, c in enumerate(waterbomb.creases)
        ]}
        spath = tmp_path / "springs.json"
        spath.write_text(json.dumps(springs))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"step_resolution": 0.05}))
        argv = ["relax", "--pattern", waterbomb_file, "--springs", spath,
                "--settings", settings, "--out"]
        assert main([*map(str, argv), str(tmp_path / "here")]) == 3
        capsys.readouterr()
        code, err = self.spawn_unread(buffered, *argv, tmp_path / "there")
        assert code == 3
        assert err.startswith("error: relaxation not stationary")
        assert len(err.strip().splitlines()) == 1
        here = sorted(f.name for f in (tmp_path / "here").iterdir())
        assert sorted(f.name for f in (tmp_path / "there").iterdir()) == here
        assert {"energy.csv", "final_state.json", "manifest.json"} <= set(here)
        for name in here:
            a, b = (tmp_path / d / name for d in ("here", "there"))
            if name == "manifest.json":
                a, b = json.loads(a.read_text()), json.loads(b.read_text())
                assert a.pop("wall_time_s") >= 0 and b.pop("wall_time_s") >= 0
                assert a == b
            else:
                assert a.read_bytes() == b.read_bytes(), name
