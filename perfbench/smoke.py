"""Smoke test of the benchmark itself: tiny windows on every workload.

Usage: ``python3 perfbench/smoke.py`` (about a minute).  Exits 0 when

- every end-to-end metric of BENCHMARK.json is printed by name with its
  unit, on every workload, with no failed system;
- every traced layer has calls > 0 on at least one workload;
- ``polytope.calls`` equals the misses of the two core-vertex caches on
  every workload, which shows that the tracer reached the aliases
  (``fec.core_vertices`` and friends) and not only the defining module.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "2"


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from run import LAYERS, WORKLOADS

    problems = []
    called: set[str] = set()
    for workload in WORKLOADS:
        result = run(workload, 0)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: untraced run not correct: {result}")
        for metric in spec["end_to_end"]:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{workload}: {metric['name']} [{metric['unit']}] missing, got {got}")
        traced = run(workload, 1)["metrics"]
        for metric in spec["per_layer"]:
            if metric["name"] not in traced:
                problems.append(f"{workload}: per-layer {metric['name']} missing")
        called |= {layer for layer in LAYERS if traced.get(f"{layer}.calls", {}).get("value", 0) > 0}
        misses = sum(
            traced[f"capacity.{c}.misses"]["value"] for c in ("core_vertices", "invariant_core_vertices")
        )
        if traced["polytope.calls"]["value"] != misses:
            problems.append(
                f"{workload}: polytope.calls {traced['polytope.calls']['value']} != core cache misses {misses}"
            )
        print(f"{workload}: ok so far ({len(problems)} problems)", flush=True)
    for layer in LAYERS:
        if layer not in called:
            problems.append(f"layer {layer} has no calls on any workload")
    for p in problems:
        print("FAIL", p)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
