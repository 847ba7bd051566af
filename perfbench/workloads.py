"""The four workloads: seeded system generation, report checks, oracle checks.

A system is one generated input and the CLI invocations run on it; its
latency is the wall time of those `cli.main` calls.  Every draw comes
from a `random.Random` seeded with a string built from the workload, the
run seed and the pass index, so the same seed always gives the same
systems and different passes get different ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from ergocap import capacity, fec, generate, noninvariant, oracle
from ergocap.measure import Prob
from ergocap.space import Transformation

# Sizes, and for analyze the FEC / not-FEC verdict, cycle in a fixed order,
# so every pass sees the same mix and the seed only draws the systems
# inside each stratum.  A pass runs whole cycles.
# Sweep weights m = 6 twice and crosscheck m = 4 four times, so that their medians
# fall inside one stratum instead of in the gap between two.
STRATA = {
    "analyze": [(m, fec_) for m in (6, 7, 8, 9) for fec_ in (False, True)],
    "sweep": [(5, True), (6, True), (6, True)],
    "noninvariant": [(4, None), (5, None), (6, None)],
    "crosscheck": [(2, None), (3, None), (4, None), (4, None), (4, None), (4, None), (5, None)],
}

NMAX = 8


@dataclass
class System:
    index: int
    m: int
    argvs: list[list[str]]
    T: tuple[int, ...] | None = None
    generators: list[tuple[Fraction, ...]] = field(default_factory=list)
    probability: tuple[Fraction, ...] | None = None
    function: tuple[Fraction, ...] | None = None
    seed: int | None = None


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def make_systems(workload: str, seed: int, pass_index: int, count: int, workdir: str) -> list[System]:
    """Generate a pass's systems and write their input files."""
    rng = Random(f"{workload}:{seed}:{pass_index}")
    out = []
    for index in range(count):
        stem = os.path.join(workdir, f"p{pass_index}-{index}")
        strata = STRATA[workload]
        m, want_fec = strata[index % len(strata)]
        if workload == "crosscheck":
            # oracle-verify's first draw from Random(seed) is its instance's m
            s = rng.randrange(1 << 31)
            while Random(s).randint(2, 5) != m:
                s = rng.randrange(1 << 31)
            argv = ["oracle-verify", "--seed", str(s), "--nmax", "1", "--json-only"]
            out.append(System(index, m, [argv], seed=s))
            continue
        if workload == "noninvariant":
            T = generate.random_permutation(rng, m)
            P = generate.random_prob(rng, m)
        else:
            while True:  # rejection keeps the generator's distribution inside the stratum
                T = generate.random_transformation(rng, m)
                V = generate.random_upper_prob(rng, T)
                if fec.zero_one_condition(V, T) == want_fec:
                    break
        doc = {"omega_size": m, "map": list(T.table)}
        system = System(index, m, [], T=T.table)
        if workload == "noninvariant":
            doc["probability"] = [_frac(x) for x in P.mass]
            system.probability = P.mass
        else:
            doc["generators"] = [[_frac(x) for x in g.mass] for g in V.generators]
            system.generators = [g.mass for g in V.generators]
        _write(stem + ".json", doc)
        if workload == "analyze":
            system.argvs = [["analyze", stem + ".json", "--json-only"]]
        else:
            f = generate.random_function(rng, m)
            system.function = f.values
            _write(stem + "-f.json", [_frac(x) for x in f.values])
            if workload == "sweep":
                system.argvs = [
                    ["independence", stem + ".json", "--nmax", str(NMAX), "--json-only"],
                    ["birkhoff", stem + ".json", "--function", stem + "-f.json",
                     "--nmax", str(NMAX), "--json-only"],
                ]
            else:
                system.argvs = [
                    ["noninvariant", stem + ".json", "--function", stem + "-f.json", "--json-only"]
                ]
        out.append(system)
    return out


# ------------------------------------------------------------ report checks

def _mask(points) -> int:
    out = 0
    for w in points:
        out |= 1 << w
    return out


def _is_partition(cells, m: int) -> bool:
    masks = [_mask(c) for c in cells]
    union = 0
    for c in masks:
        if not c or c & union:
            return False
        union |= c
    return union == (1 << m) - 1


def _is_prob(vec, m: int) -> bool:
    vals = [Fraction(x) for x in vec]
    return len(vals) == m and all(v >= 0 for v in vals) and sum(vals) == 1


def _check_analyze(system: System, code: int, rep: dict) -> str | None:
    m = system.m
    if rep.get("command") != "analyze" or rep.get("omega_size") != m:
        return "wrong command or size"
    if rep.get("invariant") is not True:
        return "generated invariant capacity reported as not invariant"
    f = rep["fec"]
    if code == 0:
        if rep["status"] != "ok" or not f["is_fec"] or rep["reason"] is not None:
            return "exit 0 without an ok FEC report"
        if not rep["zero_one"] or f["n"] != len(f["cells"]) or len(f["measures"]) != f["n"]:
            return "FEC report is inconsistent"
        if not _is_partition(f["cells"], m):
            return "FEC cells do not partition the space"
        for cell, q in zip(f["cells"], f["measures"]):
            if not _is_prob(q, m) or sum(Fraction(q[w]) for w in cell) != 1:
                return "component measure is not a probability on its cell"
        if rep["koopman_multiplicity"] != f["n"]:
            return "koopman multiplicity differs from the component count"
    elif code == 2:
        if rep["status"] != "not-fec" or f["is_fec"] or rep["zero_one"]:
            return "exit 2 without a not-fec report"
        value = Fraction(f["witness"]["value"])
        if not 0 < value < 1 or not f["witness"]["points"]:
            return "not-fec witness value is not strictly between 0 and 1"
    else:
        return f"exit code {code}"
    for q in rep["ergodic_core_measures"] + rep["invariant_core_vertices"]:
        if not _is_prob(q, m):
            return "reported core measure is not a probability"
    return None


def _check_sweep(system: System, codes: list[int], reps: list[dict]) -> str | None:
    m = system.m
    ind, bk = reps
    if codes != [0, 0] or ind["status"] != "ok" or bk["status"] != "ok":
        return f"decomposable system exited {codes}"
    if ind["command"] != "independence" or bk["command"] != "birkhoff":
        return "wrong command"
    ch, core = ind["choquet"], ind["core"]
    if ch["pairs_checked"] != 4 ** m or not ch["all_equal"] or ch["violations"]:
        return "Choquet product rule failed or skipped pairs"
    if core["pairs_checked"] != core["vertices"] * 4 ** m or not core["all_equal"]:
        return "core product rule failed or skipped pairs"
    if core["vertices"] < 1:
        return "invariant capacity without an invariant core vertex"
    feat = ind["featured"]
    if len(feat["trace"]) != NMAX or feat["lhs"] != feat["rhs"]:
        return "featured pair is inconsistent"
    if bk["lln"] is not True or not bk["exact_window"]["agrees"]:
        return "law of large numbers or exact window failed"
    if len(bk["limit"]) != m or len(bk["trace"]) != m or any(len(r) != NMAX for r in bk["trace"]):
        return "birkhoff report has the wrong shape"
    if [Fraction(x) for x in bk["limit"]] != list(_orbit_limit(system.T, system.function)):
        return "birkhoff limit differs from the literal orbit average"
    return None


def _check_noninvariant(system: System, code: int, rep: dict) -> str | None:
    m = system.m
    if code != 0 or rep["status"] != "ok" or rep["command"] != "noninvariant":
        return f"exit code {code}"
    checks = rep["checks"]
    if not (all(checks["q_ergodic"]) and all(checks["v_invariant"]) and all(checks["v_fz_ergodic"])
            and checks["combined_fec"] and checks["combined_zero_one"]):
        return "construction check failed"
    if not rep["independence"]["all_equal"] or rep["independence"]["pairs_checked"] != 4 ** m:
        return "independence failed or skipped pairs"
    if rep["lln"] is not True:
        return "law of large numbers failed"
    if rep["value_set_size"] != len(rep["invariant_value_set"]):
        return "value set size is inconsistent"
    if not _is_partition(rep["cells"], m):
        return "cells do not partition the space"
    n = len(rep["cells"])
    if not (len(rep["conditionals"]) == len(rep["limits"]) == len(rep["v_tables"]) == n):
        return "per-cell data lengths disagree"
    if not all(_is_prob(q, m) for q in rep["conditionals"] + rep["limits"]):
        return "conditional or limit is not a probability"
    return None


def _check_crosscheck(system: System, code: int, rep: dict) -> str | None:
    if code != 0 or rep["status"] != "ok" or not rep["all_pass"] or rep["mismatches"]:
        return f"oracle-verify reported a mismatch (exit {code})"
    if rep["seed"] != system.seed or rep["instances"] != 1:
        return "wrong seed or instance count"
    for name in ("invariant_sets", "choquet", "fec", "cesaro", "window_sup"):
        if rep["checks"].get(name, 0) < 1:
            return f"check {name} did not run"
    return None


def check_report(workload: str, system: System, codes: list[int], outs: list[str]) -> str | None:
    """Reason the system's reports are wrong, or None if they are consistent."""
    try:
        reps = [json.loads(o) for o in outs]
        if workload == "sweep":
            return _check_sweep(system, codes, reps)
        check = {
            "analyze": _check_analyze,
            "noninvariant": _check_noninvariant,
            "crosscheck": _check_crosscheck,
        }[workload]
        return check(system, codes[0], reps[0])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"


# ------------------------------------------------------------ oracle checks

def _orbit_limit(table, values) -> tuple[Fraction, ...]:
    """Literal orbit average of f at every point: walk onto the cycle, average it."""
    m = len(table)
    out = []
    for w in range(m):
        x = w
        for _ in range(m):
            x = table[x]
        cycle = [x]
        y = table[x]
        while y != x:
            cycle.append(y)
            y = table[y]
        out.append(sum((values[p] for p in cycle), Fraction(0)) / len(cycle))
    return tuple(out)


def _vtable(generators, m: int) -> list[Fraction]:
    return [
        max(sum((g[w] for w in range(m) if mask >> w & 1), Fraction(0)) for g in generators)
        for mask in range(1 << m)
    ]


def _invariant_checks(vtable, table, fec_report: dict) -> str | None:
    """Check a reported split, or its witness, against the oracle's invariant sets."""
    invariant = oracle.oracle_invariant_sets(table)
    witness = next((a for a in invariant if 0 < vtable[a] < 1), None)
    if not fec_report["is_fec"]:
        if witness != _mask(fec_report["witness"]["points"]):
            return "not-fec witness differs from the oracle's first invariant set inside (0, 1)"
        if vtable[witness] != Fraction(fec_report["witness"]["value"]):
            return "not-fec witness value differs from the generator envelope"
        return None
    if witness is not None:
        return "oracle finds an invariant set with value inside (0, 1)"
    if any(_mask(c) not in invariant or vtable[_mask(c)] != 1 for c in fec_report["cells"]):
        return "a cell is not an invariant set of full value"
    return None


def oracle_check(workload: str, system: System, outs: list[str]) -> str | None:
    """Re-derive the checked parts of a system's reports with `ergocap.oracle`.

    Invariant sets and Choquet integrals are checked on every system;
    `oracle_fec` runs where m <= 5 and `oracle_core_vertices` where m <= 4,
    because both grow too fast to fit in a run beyond that.
    """
    if workload == "crosscheck":
        return None  # the report is itself the main-path versus oracle comparison
    reps = [json.loads(o) for o in outs]
    m, table = system.m, system.T
    if workload == "noninvariant":
        part = noninvariant.irreducible_partition(Prob(system.probability), Transformation(table))
        if reps[0]["v_tables"] != [[_frac(x) for x in Vj.table] for Vj in part.capacities]:
            return "reported capacities differ from a recomputation"
        V = noninvariant.combined_capacity(part)
        fec_report = {"is_fec": reps[0]["checks"]["combined_fec"], "cells": []}
    else:
        V = capacity.envelope([Prob(g) for g in system.generators])
        if workload == "analyze":
            fec_report = reps[0]["fec"]
        else:
            fec_report = {"is_fec": True, "cells": [reps[0]["featured"]["B"], reps[0]["featured"]["C"]]}
    vtable = list(V.table)
    if workload != "noninvariant" and vtable != _vtable(system.generators, m):
        return "capacity table differs from the literal generator envelope"
    reason = _invariant_checks(vtable, table, fec_report)
    if reason is not None:
        return reason
    if m <= 5:
        valid, witness = oracle.oracle_fec(vtable, table)
        if fec_report["is_fec"] != (witness is None and bool(valid)):
            return "FEC verdict differs from oracle_fec"
    if m <= 4 and [P.mass for P in capacity.core_vertices(V)] != oracle.oracle_core_vertices(vtable):
        return "core vertices differ from oracle_core_vertices"
    f = system.function or tuple(Fraction(w % 3 - 1, 1 + w % 2) for w in range(m))
    if capacity.choquet_integral(V, capacity.FunctionOnSpace(f)) != oracle.oracle_choquet(vtable, f):
        return "Choquet integral differs from oracle_choquet"
    if workload == "sweep":
        b, c = _mask(reps[0]["featured"]["B"]), _mask(reps[0]["featured"]["C"])
        hits = _orbit_limit(table, [Fraction(c >> w & 1) for w in range(m)])
        g = [hits[w] if b >> w & 1 else Fraction(0) for w in range(m)]
        if oracle.oracle_choquet(vtable, g) != Fraction(reps[0]["featured"]["lhs"]):
            return "featured Choquet integral differs from oracle_choquet"
    return None
