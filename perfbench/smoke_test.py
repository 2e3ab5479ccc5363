"""Smoke test: tiny runs must print every metric named in BENCHMARK.json.

    python3 perfbench/smoke_test.py

Runs the n=2 workloads ``smoke_par`` and ``smoke_serial`` for one second,
untraced and traced, and checks each result line: ``correct`` is true and
the metric names are exactly the ``end_to_end`` (untraced) or ``per_layer``
(traced) names of BENCHMARK.json. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in ("smoke_par", "smoke_serial"):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"FAIL {workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                print(f"FAIL {workload} trace {trace}: correct={result['correct']} "
                      f"missing={missing} extra={extra}")
                return 1
            print(f"ok   {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} instances, {result['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
