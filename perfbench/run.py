"""specdiff benchmark: run one workload in a closed loop and check every pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` there.
BLAS threads are pinned to the number of usable cores.  Passes run back to
back until ``--seconds`` have elapsed (at least two), and every pass's
outputs are compared with a dense reference computed once per workload and
seed, in a separate process, and cached in ``perfbench/.cache``.

``--trace 0`` prints the end-to-end metrics: the median pass time, eps points
per second, set-up time (median over fresh processes that import the package,
generate the inputs and load the reference) and the peak resident memory of
this process.  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics of ``tracing``, the tracing overhead, and how BLAS time
scales from one thread to all of them.  The last line of standard output is
always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"
WORK_DIR = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("sweep-default", "scoreboard-n800", "hankel-deep")
MIN_PASSES = 2
SETUP_PROBES = 5
BLAS_N = 4000
SUBPROCESS_TIMEOUT_S = 120


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(threads: int) -> None:
    # must happen before NumPy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal roles, each run in a child process of the benchmark
    parser.add_argument("--role", choices=("main", "reference", "setup", "blas"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args, role: str, threads: int | None = None, capture: bool = False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return proc.stdout


def cache_path(inputs: dict) -> Path:
    return CACHE_DIR / f"{inputs['workload']}-seed{inputs['seed']}.json"


def load_reference(inputs: dict) -> dict | None:
    """The cached reference, if it was built from exactly these inputs."""
    try:
        cached = json.loads(cache_path(inputs).read_text())
    except (OSError, ValueError):
        return None
    return cached["reference"] if cached.get("inputs") == inputs else None


def build_reference(args) -> int:
    from perfbench import inputs, oracle

    inp = inputs.make_inputs(args.workload, args.seed)
    text = json.dumps({"inputs": inp, "reference": oracle.reference(inp)})
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, cache_path(inp))  # atomic, so a reader never sees half a file
    return 0


def set_up(args, workdir: Path):
    """Everything before the first timed call: import, inputs, reference."""
    from perfbench import inputs, workloads

    inp = inputs.make_inputs(args.workload, args.seed)
    state = workloads.WORKLOADS[args.workload](inp, workdir)
    return inp, state, load_reference(inp)


def blas_probe() -> int:
    """Time one eig() and one eigenvalues() on H at n = BLAS_N."""
    from specdiff import matrices, models

    h = models.RankOneModel(n=BLAS_N).h
    t0 = time.perf_counter()
    h.eig()
    eig_s = time.perf_counter() - t0
    fresh = matrices.SelfAdjointMatrix(h.entries)
    t0 = time.perf_counter()
    fresh.eigenvalues()
    print(json.dumps({"eig_s": eig_s, "eigenvalues_s": time.perf_counter() - t0}))
    return 0


def run_passes(state, ref, seconds: float, tracer=None):
    """Closed loop of passes; with a tracer, untraced and traced passes alternate."""
    from perfbench import tracing

    modes = (False, True) if tracer is not None else (False,)
    samples = {mode: [] for mode in modes}  # (seconds, points) per pass
    attempted, failures = 0, []
    start = time.perf_counter()
    i = 0
    while i < max(MIN_PASSES, len(modes)) or time.perf_counter() - start < seconds:
        traced = modes[i % len(modes)]
        outcome = None
        with tracing.traced(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outcome = state.run_pass()
            except Exception:  # a failed pass is counted, and the loop goes on
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
        checks = state.check(outcome, ref)
        attempted += len(checks.results)
        failures += [f"pass {i}: {name}" for name in checks.failed]
        samples[traced].append((elapsed, state.points(outcome) if outcome is not None else 0))
        i += 1
    return samples, attempted, failures


def machine_record(args, inp: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cores(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "n": inp.get("model", {}).get("n"),
        "seed": args.seed,
    }


def end_to_end(args, samples) -> dict:
    # children are not counted here, so the set-up probes below cannot raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child(args, "setup")
        setups.append(time.perf_counter() - t0)
    passes = samples[False]
    return {
        "run_s": (statistics.median(t for t, _ in passes), "s"),
        "points_per_s": (statistics.median(p / t for t, p in passes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(args, samples, tracer) -> dict:
    from perfbench import tracing

    traced_s = [t for t, _ in samples[True]]
    layers = tracing.metrics(tracer, len(traced_s))
    units = {name: unit for name, _, _, unit in tracing.LAYER_METRICS}
    out = {name: (layers[name], units[name]) for name in units}
    out["experiments.guard_flagged_frac"] = (layers["experiments.guard_flagged_frac"], "fraction")
    out["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(t for t, _ in samples[False]), "s")
    out["trace.coverage"] = (layers["trace.self_s"] * len(traced_s) / sum(traced_s), "fraction")
    one, every = (json.loads(child(args, "blas", threads=k, capture=True))
                  for k in (1, usable_cores()))
    out["matrices.blas_scaling"] = (
        (one["eig_s"] + one["eigenvalues_s"]) / (every["eig_s"] + every["eigenvalues_s"]), "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "specdiff" / "__init__.py").is_file():
        print(f"perfbench: no specdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads(args.threads or usable_cores())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.role == "reference":
        return build_reference(args)
    if args.role == "blas":
        return blas_probe()

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        inp, state, ref = set_up(args, workdir)
        if args.role == "setup":
            return 0
        if ref is None:
            child(args, "reference")
            ref = load_reference(inp)
        if ref is None:
            raise RuntimeError("the reference process wrote no usable reference")

        from perfbench import tracing

        tracer = tracing.Tracer() if args.trace else None
        samples, attempted, failures = run_passes(state, ref, args.seconds, tracer)
        metrics = per_layer(args, samples, tracer) if args.trace else end_to_end(args, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine " + json.dumps(machine_record(args, inp)))
    for mode, passes in samples.items():
        times = ", ".join(f"{t:.4f}" for t, _ in passes)
        print(f"{'traced' if mode else 'untraced'} passes {len(passes)}: {times} s")
    for name in failures:
        print(f"FAILED {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} checks)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
