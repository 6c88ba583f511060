"""Benchmark of the cdgwl library: four closed-loop workloads, one client each.

Run from the root of a cdgwl checkout; the library is imported from its
``src/`` directory:

    python3 perfbench/run.py --workload desk-certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the run sets up several times, then repeats passes of the
workload until ``--seconds`` have gone by, and reports the end-to-end
metrics.  With ``--trace 1`` it makes a fixed set of passes instead: an
untraced one, then one traced through ``tracer.py``, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
# only parallelism is the process pool that ``desk-fanout`` asks for.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk-certify", "desk-fanout", "scaled-compare", "train")
SETUP_REPEATS = 5


def git_rev(root):
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def line(name, value, unit, note=""):
    print(f"{name:<34} {value:>14.6g} {unit:<9} {note}".rstrip())


def result_json(ops, metrics):
    failed = sum(not op.ok for op in ops)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, cdgwl; print(time.perf_counter() - t)"
)


def import_seconds(sampler):
    """Import times of numpy and cdgwl in fresh interpreters, with their intervals."""
    out = []
    for _ in range(SETUP_REPEATS):
        sampler.gap()
        w0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              stdout=subprocess.PIPE, text=True, check=True)
        out.append((float(proc.stdout), w0, time.perf_counter()))
        sampler.gap()
    return out


def measure(workload, seed, seconds, references):
    """Untraced run: end-to-end metrics."""
    from speed import Sampler
    from workloads import Context

    with Sampler("gaps" if workload.jobs > 1 else "tick") as sampler:
        ctx = Context(sampler)
        imports = import_seconds(sampler)
        setups = []
        for _ in range(SETUP_REPEATS):
            w0, t0 = time.perf_counter(), sampler.clock()
            inputs = workload.setup(seed, references, ctx)
            setups.append((sampler.clock() - t0, w0, time.perf_counter()))
        print(f"# inputs: {workload.describe(inputs)}")
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(workload.run_pass(inputs, workload.jobs, ctx))
            if passes[-1].timed_out or time.perf_counter() - t0 >= seconds:
                break
    ops = [op for p in passes for op in p.ops]
    import_s = statistics.median(sampler.scaled(*interval) for interval in imports)
    setup_s = statistics.median(sampler.scaled(*interval) for interval in setups)
    # An operation's time is its median over the passes; a pass's time is
    # the sum over its operations, so one slow stretch moves one term only.
    op_s, raw, stages = {}, {}, {}
    for name, stage in dict.fromkeys((op.name, op.stage) for op in ops):
        mine = [op for op in ops if op.name == name]
        op_s[name] = statistics.median(sampler.scaled(op.raw_s, op.start, op.end) for op in mine)
        raw[name] = statistics.median(op.raw_s for op in mine)
        stages[stage] = stages.get(stage, 0.0) + op_s[name]
    rss_self = peak_rss_mb(resource.RUSAGE_SELF)
    rss_workers = peak_rss_mb(resource.RUSAGE_CHILDREN) if workload.jobs > 1 else 0.0
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "pass_s": (sum(op_s.values()), "s"),
        "peak_rss_mb": (max(rss_self, rss_workers), "MB"),
    }
    note = f"sum of per-operation medians over {len(passes)} passes"
    for stage, value in stages.items():
        line(stage, value, "s", note)
    if "train_s" in stages:
        steps = statistics.median(p.steps for p in passes)
        line("train_steps_per_s", steps / stages["train_s"], "steps/s", f"{steps:g} steps")
    line("pass_s", metrics["pass_s"][0], "s", note)
    line("pass_raw_s", sum(raw.values()), "s", "the same, as wall time measured")
    line("setup_s", metrics["setup_s"][0], "s",
         f"median import {import_s:.3g} s + median set-up, of {SETUP_REPEATS} each")
    workers = f", largest worker {rss_workers:.1f}" if workload.jobs > 1 else ""
    line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", f"process {rss_self:.1f}{workers}")
    failed = sum(not op.ok for op in ops)
    line("failed_ops_ratio", failed / len(ops), "ratio", f"{failed} of {len(ops)} operations")
    return ops, metrics


def trace(workload, seed, references):
    """Traced run: per-layer metrics from one untraced and one traced pass."""
    from cdgwl import EXPERIMENT_NAMES
    from speed import Sampler
    from tracer import Tracer, layer_metrics
    from workloads import Context

    tracer = Tracer()
    with Sampler("off") as sampler:
        ctx = Context(sampler)
        inputs = workload.setup(seed, references, ctx)
        print(f"# inputs: {workload.describe(inputs)}")
        passes = []
        if workload.jobs > 1:
            cpu0 = children_cpu_s()
            fanned = workload.run_pass(inputs, workload.jobs, ctx)
            worker_cpu = children_cpu_s() - cpu0
            passes.append(fanned)
        plain = workload.run_pass(inputs, 1, ctx)
        passes.append(plain)
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.root():
                traced = workload.run_pass(inputs, 1, Context(sampler, tracer.quiet))
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes.append(traced)

    metrics = layer_metrics(tracer)
    walls = passes[0].experiment_wall_s
    for name in EXPERIMENT_NAMES:
        metrics[f"experiments.{name}.wall_s"] = (walls.get(name, 0.0), "s")
    pool = (0.0, 0.0, 0.0)
    if workload.jobs > 1:
        pool = (worker_cpu, worker_cpu / (workload.jobs * fanned.raw_s), plain.raw_s / fanned.raw_s)
    metrics["experiments.pool.worker_cpu_s"] = (pool[0], "s")
    metrics["experiments.pool.utilization"] = (pool[1], "ratio")
    metrics["experiments.pool.speedup"] = (pool[2], "ratio")
    metrics["trace.overhead_ratio"] = (traced.raw_s / plain.raw_s, "ratio")
    for name, (value, unit) in metrics.items():
        line(name, value, unit)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}.npz"
    tracer.save(path, traced_wall=traced_wall)
    print(f"# spans written to {path}")
    return [op for p in passes for op in p.ops], metrics


def run_all(args):
    """Every workload in its own process, one after another."""
    ops_attempted = ops_failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        ops_attempted += result["attempted"]
        ops_failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": ops_failed == 0, "attempted": ops_attempted,
                      "failed": ops_failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny: small inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cdgwl" / "__init__.py").is_file():
        print(f"error: no cdgwl package under {SRC}; run from a cdgwl checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import numpy

    import cdgwl
    import workloads

    if Path(cdgwl.__file__).resolve().parent != SRC / "cdgwl":
        print(f"error: imported cdgwl from {cdgwl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.make_workload(args.workload, args.size, nproc())
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace} size {args.size}")
    print(f"# git {git_rev(ROOT)} python {platform.python_version()} numpy {numpy.__version__} "
          f"nproc {nproc()} jobs {workload.jobs} blas/omp threads 1")
    references = workloads.load_references()
    if args.trace:
        ops, metrics = trace(workload, args.seed, references)
    else:
        ops, metrics = measure(workload, args.seed, args.seconds, references)
    print(result_json(ops, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
