"""Record the reference outputs the benchmark checks every run against.

Run once, from the root of a checkout, at the commit whose outputs are the
reference (it takes a few minutes):

    python3 perfbench/record_references.py

For every size and every seed below ``REFERENCE_SEEDS`` it stores the
SHA-256 of each symbolic certification report (wall clock left out) and,
for both scaled-compare pairs, the verdicts plus digests of the color- and
signature-trajectory ids.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    references = {}
    for size in ("tiny", "default"):
        references[size] = {
            "desk": {str(s): workloads.record_desk(s, size) for s in range(workloads.REFERENCE_SEEDS)},
            "scaled": {str(s): workloads.record_scaled(s, size) for s in range(workloads.REFERENCE_SEEDS)},
        }
        print(f"recorded {size}", flush=True)
    workloads.REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
