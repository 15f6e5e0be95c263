"""Command-line front end: validation, info, folding runs, and exporters.

Exit codes: 0 success, 1 domain violation (including a malformed input
document), 2 a file that could not be read or written, 3 solver
non-convergence (including a relaxation that stops short of stationary).
A reader that closes stdout early changes none of them: the command
finishes its work, writes its files and exits with the code that work
earned; ``--help`` exits 0.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .elastic import STATIONARY_TOL, RelaxSettings, SpringConfig, relax
from .embedding import EMBED_RESIDUAL_TOL, build_spanning_tree, embed, measure_dimensions
from .kinematics import assemble_global, dof
from .pattern import PatternError, _real, parse_pattern, validate_pattern
from .sequential import DEFAULT_EPS, ConvergenceError, FoldSchedule, flat_state_seed, run_schedule

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_SOLVER = 3

# One %-template per output line: "%.17g" writes a float as format(x, ".17g")
# does, and one template call costs less than formatting number by number.
_VERTEX_LINE = "v %.17g %.17g %.17g\n"
_RESIDUAL_ROW = "%d,%.17g,%d\n"
_ENERGY_ROW = "%d,%.17g,%.17g\n"


def export_obj(coords, facets):
    """Wavefront OBJ text of embedded coordinates (V, 3): 17-significant-digit
    vertices, fan-triangulated facets."""
    return _obj_text(coords, _obj_faces(facets))


def _obj_faces(facets):
    """The OBJ face lines of ``facets``, each cycle fanned from its first
    vertex, with 1-based ids."""
    return "".join(
        f"f {cycle[0] + 1} {cycle[k] + 1} {cycle[k + 1] + 1}\n"
        for cycle in facets
        for k in range(1, len(cycle) - 1)
    )


def _obj_text(coords, faces):
    """OBJ text of vertex coordinates (V, 3) and the face lines ``faces``,
    every vertex line from one template.  Empty text is one newline."""
    text = _VERTEX_LINE * len(coords) % tuple(coords.ravel().tolist()) + faces
    return text or "\n"


def _stdout(text):
    """Write ``text`` to stdout.  A reader that closed the pipe chose to stop
    reading: fd 1 is pointed at the null device, so the rest of the output,
    and the interpreter's flush at exit, go nowhere and report nothing."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _load(path, parse, *args):
    """``parse(text, *args)`` on one input document's text.

    A file that cannot be read stays an I/O error (exit 2).  A document that
    is not JSON, or is of the wrong shape, which the parsers meet as
    KeyError, TypeError or AttributeError (or OverflowError, for an integer
    too large for a float), is a domain error (exit 1), as a malformed
    pattern is.
    """
    text = Path(path).read_text()
    try:
        return parse(text, *args)
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed document {path}: {exc!r}") from exc


def _parse_state(text, n):
    """The n fold angles of a state document: finite real numbers, never
    converted from strings or bools."""
    data = json.loads(text)
    values = data["rho"] if isinstance(data, dict) else data
    rho = np.asarray(values, dtype=float)
    if rho.shape != (n,):
        raise PatternError(f"state has {rho.size} angles, pattern has {n} creases")
    for v in values:
        _real(v, "state angle")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state angles must be finite")
    return rho


def _angles_out(values, degrees):
    return [math.degrees(v) for v in values] if degrees else list(values)


def _write_angle_csv(path, states, degrees):
    with open(path, "w") as fh:
        n = len(states[0])
        fh.write("step," + ",".join(f"rho_{i}" for i in range(n)) + "\n")
        row = "%d" + ",%.17g" * n + "\n"
        for k, s in enumerate(states):
            fh.write(row % (k, *_angles_out(s, degrees)))


def _load_pattern(path, root=None):
    """The pattern at ``path``; a broken one has its validation report printed
    and raises PatternError (exit 1).  Every command but ``validate`` loads
    its pattern here, before it solves, embeds or writes anything, and the
    commands that embed build the spanning tree from ``root`` here too, so
    a root facet out of range exits 1 first."""
    p = _load(path, parse_pattern)
    report = validate_pattern(p)
    if not report.ok:
        _stdout(json.dumps(report.to_dict(), indent=1) + "\n")
        raise PatternError(f"pattern {path} fails validation")
    if root is not None:
        build_spanning_tree(p, root)
    return p


def _check_every(every):
    if every < 1:
        raise ValueError(f"--every must be at least 1, got {every}")


def _check_seed_magnitude(magnitude):
    # degrees; a seed past a straight fold starts outside the fold range
    if not (math.isfinite(magnitude) and 0 <= magnitude <= 180):
        raise ValueError(
            f"--seed-magnitude must be finite and in [0, 180], got {magnitude!r}"
        )


def _check_tol(name, tol):
    # every frame is embedded, and embed accepts residuals below EMBED_RESIDUAL_TOL
    if not (math.isfinite(tol) and 0 < tol <= EMBED_RESIDUAL_TOL):
        raise ValueError(
            f"{name} must be finite and in (0, {EMBED_RESIDUAL_TOL:g}], got {tol!r}"
        )


def _write_run(out, p, states, residuals, args, manifest):
    """OBJ frames of every ``--every``-th state and the last, then the manifest.

    The frames are embedded in one ``embed`` call at the residuals the
    solver recorded, which checks every frame before it places any, so a
    frame it refuses stops the run before any OBJ is written.  Each frame
    is written with the run's one block of face lines.
    """
    last = len(states) - 1
    frames = [k for k in range(len(states)) if k % args.every == 0 or k == last]
    coords = embed(p, np.array([states[k] for k in frames]), args.root_facet,
                   [residuals[k] for k in frames])
    faces = _obj_faces(p.facets)
    for k, frame in zip(frames, coords):
        (out / f"step_{k:04d}.obj").write_text(_obj_text(frame, faces))
    text = json.dumps(manifest, indent=1)
    (out / "manifest.json").write_text(text)
    _stdout(text + "\n")


def cmd_validate(args):
    p = _load(args.pattern, parse_pattern)
    report = validate_pattern(p)
    _stdout(json.dumps(report.to_dict(), indent=1) + "\n")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_info(args):
    p = _load_pattern(args.pattern)
    warn = None
    if args.state:
        rho = _load(args.state, _parse_state, p.n_creases)
    elif p._fold_signs.any():
        rho = flat_state_seed(p, math.radians(1.0))
    else:
        rho = np.zeros(p.n_creases)
        warn = "flat state: constraint rows degenerate, DOF may be overcounted"
    gc = assemble_global(p, rho)
    info = {
        "vertices": len(p.vertices),
        "interior_vertices": p.n_interior_vertices,
        "creases": p.n_creases,
        "facets": len(p.facets),
        "dof": dof(gc),
        "residual": gc.normalized_residual,
    }
    if warn:
        info["warning"] = warn
    _stdout(json.dumps(info, indent=1) + "\n")
    return EXIT_OK


def cmd_fold(args):
    _check_every(args.every)
    _check_seed_magnitude(args.seed_magnitude)
    _check_tol("--eps", args.eps)
    p = _load_pattern(args.pattern, args.root_facet)
    schedule = _load(args.schedule, FoldSchedule.from_json)
    if args.degrees:
        schedule = FoldSchedule(tuple(
            dataclasses.replace(
                s, targets={c: math.radians(t) for c, t in s.targets.items()}
            )
            for s in schedule.stages
        ))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    if args.seed_magnitude > 0:
        rho0 = flat_state_seed(p, math.radians(args.seed_magnitude), eps=args.eps)
    else:
        rho0 = np.zeros(p.n_creases)
    traj = run_schedule(p, rho0, schedule, eps=args.eps)
    wall = time.time() - t0

    _write_angle_csv(out / "angles.csv", traj.states, args.degrees)
    with open(out / "residuals.csv", "w") as fh:
        fh.write("step,residual,newton_iters\n")
        for k, (r, it) in enumerate(zip(traj.residuals, traj.newton_iters)):
            fh.write(_RESIDUAL_ROW % (k, r, it))
    manifest = {
        "command": "fold",
        "pattern": str(args.pattern),
        "schedule": str(args.schedule),
        "degrees": args.degrees,
        "eps": args.eps,
        "seed_magnitude": args.seed_magnitude,
        "every": args.every,
        "root_facet": args.root_facet,
        "steps": len(traj) - 1,
        "max_residual": max(traj.residuals),
        "max_newton_iters": max(traj.newton_iters),
        "stage_ends": traj.stage_ends,
        "wall_time_s": wall,
    }
    _write_run(out, p, traj.states, traj.residuals, args, manifest)
    return EXIT_OK


def cmd_relax(args):
    _check_every(args.every)
    _check_seed_magnitude(args.seed_magnitude)
    p = _load_pattern(args.pattern, args.root_facet)
    cfg = _load(args.springs, lambda text: SpringConfig.from_json(p, text))
    settings = RelaxSettings()
    if args.settings:
        settings = _load(args.settings, RelaxSettings.from_json)
    _check_tol("residual_tol", settings.residual_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.state:
        rho0 = _load(args.state, _parse_state, p.n_creases)
    elif args.seed_magnitude > 0:
        rho0 = flat_state_seed(p, math.radians(args.seed_magnitude))
    else:
        rho0 = np.zeros(p.n_creases)
    t0 = time.time()
    result = relax(p, cfg, settings, rho0)
    wall = time.time() - t0

    with open(out / "energy.csv", "w") as fh:
        fh.write("step,energy,characteristic_angle\n")
        for k, (u, s) in enumerate(zip(result.energies, result.states)):
            fh.write(_ENERGY_ROW % (k, u, s[result.characteristic]))
    (out / "final_state.json").write_text(
        json.dumps({"rho": list(result.final)}, indent=1)
    )
    manifest = {
        "command": "relax",
        "pattern": str(args.pattern),
        "springs": str(args.springs),
        "steps": len(result.states) - 1,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "final_energy": result.energies[-1],
        "projected_gradient": result.projected_gradient,
        "characteristic": result.characteristic,
        "wall_time_s": wall,
    }
    _write_run(out, p, result.states, result.residuals, args, manifest)
    if not result.converged:
        print(
            f"error: relaxation not stationary (stopped on {result.stop_reason}, "
            f"projected gradient {result.projected_gradient:.3e}, "
            f"tolerance {STATIONARY_TOL:g})",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def cmd_measure(args):
    p = _load_pattern(args.pattern, args.root_facet)
    rho = _load(args.state, _parse_state, p.n_creases)
    l, w, h = measure_dimensions(embed(p, rho, root=args.root_facet))
    _stdout(json.dumps({"L": l, "W": w, "H": h}, indent=1) + "\n")
    return EXIT_OK


def cmd_export_obj(args):
    p = _load_pattern(args.pattern, args.root_facet)
    if args.state:
        rho = _load(args.state, _parse_state, p.n_creases)
    else:
        rho = np.zeros(p.n_creases)
    text = export_obj(embed(p, rho, root=args.root_facet), p.facets)
    if args.out:
        Path(args.out).write_text(text)
    else:
        _stdout(text)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rigidfold",
        description="Rigid-origami folding: validation, sequential folds, spring relaxation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, state=False):
        sp.add_argument("--pattern", required=True)
        sp.add_argument("--root-facet", type=int, default=0)
        if state:
            sp.add_argument("--state")

    sp = sub.add_parser("validate", help="check pattern invariants")
    sp.add_argument("--pattern", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("info", help="counts and degrees of freedom")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--state")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("fold", help="run a folding schedule")
    common(sp)
    sp.add_argument("--schedule", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--every", type=int, default=1)
    sp.add_argument("--degrees", action="store_true",
                    help="schedule targets and CSV output in degrees")
    sp.add_argument("--seed-magnitude", type=float, default=1.0,
                    help="assignment seed in degrees, at most 180; 0 starts exactly flat")
    sp.add_argument("--eps", type=float, default=DEFAULT_EPS,
                    help="normalized residual tolerance per step")
    sp.set_defaults(func=cmd_fold)

    sp = sub.add_parser("relax", help="relax crease springs to equilibrium")
    common(sp, state=True)
    sp.add_argument("--springs", required=True)
    sp.add_argument("--settings")
    sp.add_argument("--out", required=True)
    sp.add_argument("--every", type=int, default=10)
    sp.add_argument("--seed-magnitude", type=float, default=1.0)
    sp.set_defaults(func=cmd_relax)

    sp = sub.add_parser("measure", help="bounding box of an embedded state")
    common(sp)
    sp.add_argument("--state", required=True)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("export-obj", help="write one embedded state as OBJ")
    common(sp, state=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_export_obj)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        # --help leaves its text in stdout's buffer before argparse exits:
        # flush it here, where a closed stdout is handled, not at exit
        _stdout("")
        raise
    try:
        return args.func(args)
    except PatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
