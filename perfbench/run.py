"""Fixed-seed benchmark of the ergocap CLI.

Usage::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run is a sequence of passes.  A pass is a fresh interpreter
(perfbench/passrun.py) with its own distinct systems, so no lru cache of
the library carries over from one pass to the next.  Inside a pass a
single client runs one system at a time in a closed loop, in-process
through `cli.main`.  Passes run one after another, never in parallel.

``--trace 0`` runs passes until their timed wall seconds reach
``--seconds`` and prints the end-to-end metrics: ``systems_per_s`` is
the completed systems per timed second over all passes,
``latency_p50_ms`` the median per-system time, ``setup_s`` the median
over passes of the time from spawning the pass to its first system, and
``peak_rss_mb`` the median over passes of the pass's ``ru_maxrss``.  The
times are scaled to the reference speed of speed.py, because the speed
of a core of a shared host swings by up to 2x from second to second; the
raw wall times are printed beside them.  ``--trace 1`` does the same for
half the seconds, and after each untraced pass runs a traced pass over
exactly the systems that pass completed; it prints the per-layer metrics
(see tracer.py, in raw wall time) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the provenance of the run and the metrics for a human, together
with two that are printed but not in the JSON: ``failed_ratio`` (zero
when the run is correct) and ``latency_tail_ms`` (too unsteady from seed
to seed on analyze to gate on).  A record of the run is written to
``.perfbench_work/<workload>/``.

A system fails if it raised or printed a traceback, exited 1, or its
report fails the consistency checks of workloads.py.  In each of the
first `ORACLE_PASSES` passes one system, picked from the seed, is also
re-derived with `ergocap.oracle`.  On the default seed the SHA-256 of the
reports of the first systems of the first `DIGEST_PASSES` passes must
equal the one recorded in perfbench/digests.json, so a refactor that
changes a report byte shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import CACHED, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("analyze", "sweep", "noninvariant", "crosscheck")
# Per workload: systems per pass (whole stratum cycles, see workloads.py),
# the per-system time limit in reference seconds (see speed.py), and how
# many of a pass's first systems the report digest covers.  Analyze has a
# limit because a few of its systems run for minutes; the others' limits
# only guard the run.  Analyze passes are large so that a run of its short
# systems (about 40 ms each) spawns fewer interpreters.
PLAN = {
    "analyze": {"systems": 48, "limit_s": 0.25, "digest_k": 4},
    "sweep": {"systems": 3, "limit_s": 30.0, "digest_k": 3},
    "noninvariant": {"systems": 12, "limit_s": 30.0, "digest_k": 6},
    "crosscheck": {"systems": 14, "limit_s": 30.0, "digest_k": 7},
}
MIN_PASSES = 3
ORACLE_PASSES = 5
DIGEST_PASSES = 3
DEFAULT_SEED = 1
TAIL_BEYOND = 10
DEADLINE_S = 170.0


# ------------------------------------------------------------ provenance

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "calibration_s": speed.calibrate(10000),
    }


# ------------------------------------------------------------ passes

def run_pass(workload: str, seed: int, index: int, workdir: Path, deadline: float, **cfg) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    out = workdir / f"pass-{index}-{'t' if cfg.get('trace') else 'u'}.json"
    config = dict(cfg, workload=workload, seed=seed, workdir=str(workdir), out=str(out))
    config.setdefault("trace", False)
    config["pass"] = index
    config_path = workdir / f"config-{index}.json"
    timeout = max(5.0, deadline - time.monotonic())
    config["spawn"] = time.monotonic()
    config_path.write_text(json.dumps(config))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), str(config_path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} did not finish within {timeout:.0f} s"}
    if proc.returncode != 0 or not out.exists():
        return {"error": f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(out.read_text())


def tail(latencies: list[float]) -> tuple[float, float]:
    """The value with exactly TAIL_BEYOND samples above it, and its percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    """Metrics at the reference speed of speed.py, and lines with the raw wall times."""
    lat = [x for p in passes for x in p["latencies"]]
    raw = [x for p in passes for x in p["raw_latencies"]]
    tail_s, pct = tail(lat)
    metrics = {
        "systems_per_s": _metric(len(lat) / sum(p["timed_s"] for p in passes), "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1000, "ms"),
        "setup_s": _metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    cals = [c for p in passes for c in p["cals"]]
    # Printed, not gated: the latency with TAIL_BEYOND samples above it swings
    # by a quarter from seed to seed on analyze, whose costs are heavy-tailed.
    beyond = min(TAIL_BEYOND, len(lat) - 1)
    notes = [
        f"latency_tail_ms = {tail_s * 1000:.6g} ms (p{pct:.2f} of {len(lat)} samples,"
        f" {beyond} beyond it)",
        f"calibration loop: median {statistics.median(cals) * 1000:.4g} ms over {len(cals)}"
        f" (reference {speed.REF_CAL_S * 1000:g} ms)",
        "raw wall times: systems_per_s = %.6g 1/s, latency_p50_ms = %.6g ms, setup_s = %.6g s" % (
            len(raw) / sum(p["raw_timed_s"] for p in passes),
            statistics.median(raw) * 1000,
            statistics.median(p["raw_setup_s"] for p in passes),
        ),
    ]
    return metrics, notes


def _sum(dicts: list[dict]) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def per_layer(refs: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics summed over the traced passes (see tracer.py)."""
    trs = [t["trace"] for t in traced]
    self_s = _sum([t["self_s"] for t in trs])
    calls = _sum([t["calls"] for t in trs])
    fcalls = _sum([t["function_calls"] for t in trs])
    counters = _sum([t["counters"] for t in trs])
    root = sum(t["root_s"] for t in trs) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _metric(self_s[layer], "s")
        out[f"{layer}.calls"] = _metric(calls[layer], "count")
        out[f"{layer}.self_share"] = _metric(self_s[layer] / root, "ratio")
    for name in CACHED:
        hits = sum(t["caches"][name][0] for t in trs)
        lookups = sum(t["caches"][name][1] for t in trs)
        out[f"{name}.hit_ratio"] = _metric(hits / lookups if lookups else 0.0, "ratio")
        out[f"{name}.lookups"] = _metric(lookups, "count")
        out[f"{name}.misses"] = _metric(lookups - hits, "count")
    for name in ("polytope.rows_in", "polytope.vertices_out", "capacity.envelope.generators_in"):
        out[name] = _metric(counters.get(name, 0), "count")
    out["space.cycles.calls"] = _metric(fcalls.get("space.cycles", 0), "count")
    out["capacity.choquet.calls"] = _metric(fcalls.get("capacity.choquet_integral", 0), "count")
    out["birkhoff.pairs"] = _metric(
        sum(fcalls.get(f"birkhoff.{f}", 0) for f in (
            "asymptotic_independence_choquet", "asymptotic_independence_core", "cesaro_hit_limit"
        )),
        "count",
    )
    out["oracle.lp_solves"] = _metric(fcalls.get("oracle.oracle_lp_max", 0), "count")
    out["main_path.self_s"] = _metric(
        sum(v for layer, v in self_s.items() if layer != "oracle"), "s"
    )
    untraced = sum(sum(r["raw_latencies"]) for r in refs)
    out["trace.overhead_ratio"] = _metric(sum(t["raw_timed_s"] for t in traced) / untraced, "ratio")
    return out


def check_passes(passes: list[dict], lines: list[str]) -> tuple[int, int, bool]:
    """(attempted, failed, oracle and pass errors absent); explains problems in lines."""
    attempted = failed = 0
    ok = True
    for i, p in enumerate(passes):
        if "error" in p:
            lines.append(f"FAIL {p['error']}")
            attempted += 1
            failed += 1
            ok = False
            continue
        attempted += p["attempted"]
        failed += len(p["failures"])
        for f in p["failures"][:3]:
            lines.append(f"FAIL pass {i} system {f['index']}: {f['reason']} ({f['argv']})")
        if p["oracle"] is not None:
            o = p["oracle"]
            verdict = "ok" if o["mismatch"] is None else f"MISMATCH {o['mismatch']}"
            lines.append(f"oracle check pass {i} system {o['index']} (m={o['m']}): {verdict}")
            ok = ok and o["mismatch"] is None
    return attempted, failed, ok


def check_digest(workload: str, passes: list[dict], lines: list[str]) -> bool:
    combined = hashlib.sha256("".join(p["digest"] for p in passes[:DIGEST_PASSES]).encode()).hexdigest()
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload)
    same = combined == recorded
    lines.append(
        f"report digest (first systems of {DIGEST_PASSES} passes): {combined} "
        + ("matches the recorded digest" if same else f"DIFFERS from the recorded {recorded}")
    )
    return same


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prov = provenance(seed)
    lines = [f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}"]
    lines += [f"  {k}: {v}" for k, v in prov.items()]
    deadline = time.monotonic() + DEADLINE_S
    plan = PLAN[workload]
    passes: list[dict] = []
    timed = 0.0
    i = 0
    while i < MIN_PASSES or timed < (seconds / 2 if trace else seconds):
        if time.monotonic() > deadline - 30:
            passes.append({"error": f"out of time after {i} passes"})
            break
        common = dict(systems=plan["systems"], oracle=i < ORACLE_PASSES)
        if trace:
            ref = run_pass(workload, seed, i, workdir, deadline, limit_s=plan["limit_s"], **common)
            passes.append(ref)
            if "error" in ref:
                break
            passes.append(run_pass(
                workload, seed, i, workdir, deadline, systems=plan["systems"], trace=True,
                only=ref["completed"],
            ))
        else:
            digest_k = plan["digest_k"] if seed == DEFAULT_SEED and i < DIGEST_PASSES else 0
            passes.append(run_pass(
                workload, seed, i, workdir, deadline, limit_s=plan["limit_s"], digest_k=digest_k,
                **common,
            ))
        if "error" in passes[-1]:
            break
        timed += passes[-1]["raw_timed_s"]
        i += 1
    attempted, failed, ok = check_passes(passes, lines)
    correct = ok and failed == 0
    metrics: dict = {}
    if correct and trace:
        metrics = per_layer(passes[0::2], passes[1::2])
    elif correct and not any(p["latencies"] for p in passes):
        lines.append("FAIL no system completed within its time limit")
        correct = False
    elif correct:
        metrics, notes = end_to_end(passes)
        lines += ["  " + n for n in notes]
        if seed == DEFAULT_SEED:
            correct = check_digest(workload, passes, lines)
        abandoned = sum(len(p["abandoned"]) for p in passes)
        lines.append(
            f"  {len(passes)} passes; {abandoned} systems abandoned at the reference-speed"
            f" {PLAN[workload]['limit_s']:g} s limit"
        )
    lines.append(f"  failed_ratio = {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted})")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    record = {"provenance": prov, "workload": workload, "seconds": seconds, "trace": trace,
              "result": result, "passes": passes}
    (workdir / f"result-trace{int(trace)}.json").write_text(json.dumps(record))
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ergocap" / "cli.py").is_file():
        sys.stderr.write(f"error: no ergocap sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
