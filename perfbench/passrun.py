"""One pass of the benchmark, in a fresh interpreter.

Usage: ``python3 perfbench/passrun.py CONFIG.json`` (started by run.py).

The pass imports ergocap from the checkout's ``src``, generates its
systems and writes their files, clears every lru cache of the library,
and then runs the systems one at a time in a closed loop: each
`cli.main` call starts only after the previous one returned.  A system
that runs past the per-system time limit is abandoned: it counts as
attempted, not as completed and not as failed, and the limit counts as
time spent.  Times are reported at the reference speed of speed.py, with
the raw wall times beside them.  Checks run after the timed loop.  The
result is written as JSON to the path named in the config.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ergocap  # noqa: E402
from ergocap import cli  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class TimeLimit(BaseException):
    """Raised into the running system when it reaches the time limit."""


def _time_limit(signum, frame):
    raise TimeLimit


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "ergocap" or name.startswith("ergocap."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_system(system: workloads.System) -> tuple[float, list, list[str], list[str]]:
    """Run a system's invocations; return (seconds, exit codes, stdouts, stderrs)."""
    elapsed = 0.0
    codes, outs, errs = [], [], []
    for argv in system.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):  # a raise is a failed system, not a failed pass
                code = None
                err.write(traceback.format_exc())
            elapsed += time.perf_counter() - t0
        codes.append(code)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    return elapsed, codes, outs, errs


def failure(workload: str, system: workloads.System, codes, outs, errs) -> str | None:
    """Why the system failed, or None: a raise or traceback, exit 1, or a bad report."""
    if any(code is None for code in codes) or any("Traceback" in e for e in errs):
        return "raised: " + " ".join(e.strip().splitlines()[-1] for e in errs if e.strip())
    if 1 in codes:
        return "exit 1 on generated input: " + " ".join(e.strip() for e in errs)
    return workloads.check_report(workload, system, codes, outs)


def main() -> int:
    with open(sys.argv[1]) as fh:
        cfg = json.load(fh)
    if not Path(ergocap.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ergocap imported from {ergocap.__file__}, not from the checkout")
    workload, seed, pidx, workdir = cfg["workload"], cfg["seed"], cfg["pass"], cfg["workdir"]
    limit_s = cfg.get("limit_s")

    pool = workloads.make_systems(workload, seed, pidx, cfg["systems"], workdir)
    if cfg.get("only") is not None:
        pool = [pool[i] for i in cfg["only"]]
    clear_caches()
    trace = tracer.Tracer() if cfg["trace"] else None
    if trace is not None:
        trace.install()
    signal.signal(signal.SIGALRM, _time_limit)
    setup_s = time.monotonic() - cfg["spawn"]

    # Times are kept raw and at the reference speed of speed.py.  The time
    # limit is in reference seconds, so the same systems are abandoned
    # whatever the machine's speed of the moment.  Traced passes take no
    # samples inside a system, so that the spans do not include them.
    sampler = speed.Sampler() if trace is None else None
    speed.calibrate()  # warm-up
    cals = [speed.calibrate()]
    done = []  # (system, reference seconds, codes, outs, errs)
    abandoned = []
    raw = []
    timed = raw_timed = 0.0
    for system in pool:
        before = cals[-1]
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        try:
            if limit_s is not None:
                signal.setitimer(signal.ITIMER_REAL, limit_s * before / speed.REF_CAL_S)
            elapsed, codes, outs, errs = run_system(system)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except TimeLimit:
            elapsed = None
        inside, spent = [], 0.0
        if sampler is not None:
            sampler.stop()
            inside, spent = sampler.samples, sampler.spent
        wall = time.perf_counter() - start
        cals.append(speed.calibrate())
        if elapsed is None:
            raw_timed += wall - spent
            timed += limit_s
            abandoned.append(system)
            continue
        elapsed -= spent
        samples = [before, *inside, cals[-1]]
        scaled = elapsed * speed.REF_CAL_S * len(samples) / sum(samples)
        raw_timed += elapsed
        timed += scaled
        raw.append(elapsed)
        done.append((system, scaled, codes, outs, errs))

    result: dict = {
        "setup_s": setup_s * speed.REF_CAL_S / cals[0],
        "raw_setup_s": setup_s,
        "timed_s": timed,
        "raw_timed_s": raw_timed,
        "latencies": [d[1] for d in done],
        "raw_latencies": raw,
        "cals": cals,
        "completed": [d[0].index for d in done],
        "abandoned": [s.index for s in abandoned],
    }
    if trace is not None:
        summary = trace.summary()
        summary["caches"] = trace.cache_stats()
        trace.dump(str(Path(workdir) / f"spans-p{pidx}.bin"))
        result["trace"] = summary
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The digest covers the first systems of the pass whatever their speed:
    # those abandoned among them are run again, untimed and without a limit.
    digest_k = cfg.get("digest_k", 0)
    reports = {d[0].index: d[3] for d in done}
    for system in pool[:digest_k]:
        if system.index not in reports:
            _, codes, outs, errs = run_system(system)
            done.append((system, None, codes, outs, errs))
            reports[system.index] = outs
    digest = hashlib.sha256()
    for system in pool[:digest_k]:
        for out in reports[system.index]:
            digest.update(out.encode())
            digest.update(b"\0")
    result["digest"] = digest.hexdigest() if digest_k else None

    failures = []
    for system, _, codes, outs, errs in done:
        reason = failure(workload, system, codes, outs, errs)
        if reason is not None:
            failures.append({"index": system.index, "argv": system.argvs, "reason": reason})
    result["attempted"] = len(pool)
    result["failures"] = failures

    result["oracle"] = None
    failed = {f["index"] for f in failures}
    good = [d for d in done if d[0].index not in failed]
    if cfg.get("oracle") and good:
        system, _, _, outs, _ = Random(f"oracle:{workload}:{seed}:{pidx}").choice(good)
        reason = workloads.oracle_check(workload, system, outs)
        result["oracle"] = {"index": system.index, "m": system.m, "mismatch": reason}

    with open(cfg["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
