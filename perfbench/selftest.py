"""Self-test of the benchmark, at the tiny size (under a minute):

    python3 perfbench/selftest.py

For every workload it checks that
1. an untraced run prints every ``end_to_end`` metric of BENCHMARK.json with
   its unit, and a traced run every ``per_layer`` metric with its unit;
2. count metrics repeat exactly across two traced runs;
3. the traced spans' self times, plus the tracer's bookkeeping, add up to
   the traced wall time.
It exits 1 and names each failed check, or exits 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402

WORKLOADS = ("desk-certify", "desk-fanout", "scaled-compare", "train")
COUNT_UNITS = {"count", "bytes", "rows/call"}
TIME_RATIOS = {
    "trace.overhead_ratio",
    "experiments.pool.utilization",
    "experiments.pool.speedup",
}


def run(workload, trace, seed=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def spans_add_up(workload):
    data = np.load(ROOT / ".bench_out" / f"spans-{workload}.npz")
    own, _total, _calls, bookkeeping = self_times(
        data["name"], data["parent"], data["start"], data["end"], data["bookkeeping"],
        len(data["names"]),
    )
    wall = float(data["traced_wall"])
    return abs(float(own.sum()) + bookkeeping - wall) <= 0.01 * wall, own.sum() + bookkeeping, wall


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    checks = 0

    def expect(ok, message):
        nonlocal checks
        checks += 1
        if not ok:
            problems.append(message)
            print("FAIL  " + message, flush=True)

    for workload in WORKLOADS:
        print(f"checking {workload}", flush=True)
        plain = run(workload, 0)
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: untraced run is correct")
        for entry in spec["end_to_end"]:
            got = plain["metrics"].get(entry["name"])
            expect(got is not None and got["unit"] == entry["unit"] and got["value"] > 0,
                   f"{workload}: {entry['name']} printed in {entry['unit']}, above 0")
        first = run(workload, 1)
        ok, spans, wall = spans_add_up(workload)
        expect(ok, f"{workload}: span self times add up to the traced wall "
                   f"({spans:.6f} s vs {wall:.6f} s)")
        second = run(workload, 1)
        expect(first["correct"] and second["correct"], f"{workload}: traced runs are correct")
        for entry in spec["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            got = first["metrics"].get(name)
            expect(got is not None and got["unit"] == unit, f"{workload}: {name} printed in {unit}")
            deterministic = unit in COUNT_UNITS or (unit == "ratio" and name not in TIME_RATIOS)
            if got is not None and deterministic:
                again = second["metrics"][name]["value"]
                expect(got["value"] == again,
                       f"{workload}: {name} repeats ({got['value']} vs {again})")
    print(f"{checks} checks, {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
