"""rigidfold benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
``src/`` directory.  The workloads, metrics and bounds are declared in
``BENCHMARK.json`` at the root, and ``perfbench/README.md`` explains them.

With ``--trace 0`` the workload runs back to back (closed loop, one process,
one BLAS thread) for S seconds and the end-to-end metrics are reported.
With ``--trace 1`` untraced and traced runs alternate, and the per-layer
metrics come from the traced runs.  Every run's outputs are checked outside
the timed region.  The last line of standard output is the JSON result; the
line before it records the environment and the per-run samples.
"""

import os

# Pin BLAS to one thread before anything imports numpy: with the default
# thread count the timings measure the scheduler rather than the engine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 30
MIN_TRACED_RUNS = 2
# Per-layer metrics that are times: the median over traced runs is reported.
# Every other per-layer metric is a count that must repeat exactly.
TIME_SUFFIXES = (".s", ".self_s", ".ms_per_call")

# numpy and rigidfold are imported inside functions, after the thread pinning
# above and inside the set-up probe's timed region.

# Byte-code is cached, as in an installed package, whatever the caller's
# environment says; the cache goes under OUT, so a run leaves nothing beside
# the sources.
sys.dont_write_bytecode = False
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.pycache_prefix = str(OUT / "pycache")
os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_engine():
    """Import rigidfold from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rigidfold

    if Path(rigidfold.__file__).resolve().parent != SRC / "rigidfold":
        fail(f"imported rigidfold from {rigidfold.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_setup(workload, seed):
    """Time importing the engine and generating one workload's inputs."""
    t0 = time.perf_counter()
    workloads = import_engine()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workloads.WORKLOADS[workload].setup(seed, workdir)
        elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))


def setup_seconds(workload, seed):
    """Set-up times, each in a fresh interpreter importing from cold."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--probe-setup"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up probe exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Runner:
    """Runs one workload repeatedly, checking every run's outputs."""

    def __init__(self, workload, inputs, workdir):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def once(self, tracer=None):
        """One timed and checked run; returns (seconds, program counts).

        Counts are None when the run raised or its outputs failed a check.
        """
        self.attempted += 1
        scratch = Path(tempfile.mkdtemp(dir=self.workdir))
        gc.collect()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    outcome, error = self.workload.run(self.inputs, scratch), None
                except Exception:
                    outcome, error = None, traceback.format_exc()
                elapsed = time.perf_counter() - t0
            problems = [error] if error else self.workload.check(self.inputs, outcome)
            if problems:
                print(f"perfbench: {self.workload.name}: {'; '.join(problems)}",
                      file=sys.stderr)
                self.failed += 1
                return elapsed, None
            return elapsed, self.workload.counts(self.inputs, outcome)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def constraint_storage(p):
    """Stored entries, structural nonzeros and bytes of one assembled C."""
    import numpy as np
    import rigidfold

    fans = rigidfold.build_vertex_fans(p)
    c = rigidfold.assemble_global(p, np.zeros(p.n_creases), fans).C
    nonzeros = sum(3 * fan.degree for fan in fans)
    return c.size, nonzeros, c.nbytes


def layer_metrics(summary, work, counts, storage):
    """Per-layer metrics of one traced run."""
    import tracer

    m = {}
    for module, fn in tracer.TRACED:
        entry = summary.get(f"{module}.{fn}", {})
        m[f"{module}.{fn}.calls"] = entry.get("calls", 0)
        m[f"{module}.{fn}.s"] = entry.get("s", 0.0)
        m[f"{module}.{fn}.self_s"] = entry.get("self_s", 0.0)
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = sum(
            e["self_s"] for name, e in summary.items() if name.startswith(layer + ".")
        )
    calls = m["kinematics.assemble_global.calls"]
    m["kinematics.assemble_global.ms_per_call"] = (
        1e3 * m["kinematics.assemble_global.s"] / calls if calls else 0.0
    )
    m["kinematics.assemblies_per_state"] = calls / counts["accepted_states"]
    stored, nonzeros, nbytes = storage
    m["kinematics.C_nnz_fraction"] = nonzeros / stored if stored else 0.0
    m["kinematics.C_mbytes"] = nbytes / 1e6
    m["numerics.svd_flops_computed"] = sum(work.values())
    for name in ("sequential.steps", "sequential.newton_iters", "elastic.steps",
                 "elastic.newton_iters", "elastic.halvings", "cli.bytes_written"):
        m[name] = counts.get(name, 0)
    return m


def declared(spec, key, values):
    """The metrics BENCHMARK.json declares under ``key``, with their units."""
    missing = [d["name"] for d in spec[key] if d["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in spec[key]}


def measure_end_to_end(runner, seconds):
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.once()[0])
    return times


def measure_traced(runner, seconds):
    """Alternate untraced and traced runs; check that counts repeat exactly."""
    import tracer

    untraced, traced, per_run, last = [], [], [], None
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() - start < seconds:
        untraced.append(runner.once()[0])
        last = tracer.Tracer()
        elapsed, counts = runner.once(last)
        traced.append(elapsed)
        if counts is not None:
            per_run.append((last.summary(), last.work, counts))
    return untraced, traced, per_run, last


def combine_traced(runs):
    """Median of each time over the traced runs, and each count, which must
    be the same in every run; returns (values, whether all counts repeated).
    """
    values, repeated = {}, True
    for name in runs[0] if runs else ():
        series = [r[name] for r in runs]
        if name.endswith(TIME_SUFFIXES):
            values[name] = statistics.median(series)
            continue
        if any(v != series[0] for v in series):
            print(f"perfbench: count {name} differs between runs: {series}",
                  file=sys.stderr)
            repeated = False
        values[name] = series[0]
    return values, repeated


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail(f"{spec_file} not found")
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (SRC / "rigidfold" / "__init__.py").is_file():
        fail(f"no rigidfold sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return

    if not args.trace:
        setup_samples = setup_seconds(args.workload, args.seed)
    workloads = import_engine()
    import tracer

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_trace = tracer.Tracer()
        with setup_trace.installed() if args.trace else contextlib.nullcontext():
            inputs = workload.setup(args.seed, workdir)
        runner = Runner(workload, inputs, workdir)
        if args.trace:
            untraced, traced, per_run, last = measure_traced(runner, args.seconds)
            samples = {"untraced_s": untraced, "traced_s": traced}
        else:
            times = measure_end_to_end(runner, args.seconds)
            samples = {"time_to_solution_s": times, "setup_s": setup_samples}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0
    if args.trace:
        storage = constraint_storage(inputs["pattern"])
        values, repeated = combine_traced(
            [layer_metrics(s, w, c, storage) for s, w, c in per_run]
        )
        correct = correct and repeated
        values["generators.s"] = sum(
            e["s"] for n, e in setup_trace.summary().items() if n.startswith("generators.")
        )
        values["trace.overhead_fraction"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(last.dump())
        )
        metrics = declared(spec, "per_layer", values)
    else:
        values = {
            "time_to_solution_s": statistics.median(times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (runner.attempted - runner.failed) / runner.attempted,
        }
        metrics = declared(spec, "end_to_end", values)

    print(json.dumps({"env": environment(), "samples": samples}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
