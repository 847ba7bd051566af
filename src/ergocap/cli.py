"""Command-line front end: exact-system ingestion and analysis reports.

Input is a single JSON document with rationals written as "p/q" strings,
[num, den] pairs, or plain integers; decimal literals are rejected at
parse time so exactness is a wire-level contract.  Every report is a
machine block (canonical JSON, keys sorted, rationals as lowest-terms
"p/q") optionally followed by a human-readable block.  Exit codes:
0 success, 1 input error (including an --nmax that is negative or above
MAX_NMAX), 2 reported precondition failure (including a system that
turns out not to have finite ergodic components), 3 internal error: one
of the library's own exactness checks, or of the oracle's, failed (a
bug, reported as status "internal-error" with the failed check as its
reason, never as a traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import birkhoff, capacity, fec, generate, koopman, measure, noninvariant, oracle, space
from .capacity import FunctionOnSpace, UpperProb
from .errors import InternalVerificationError
from .fec import FECResult, NotFEC
from .measure import Prob
from .space import Transformation

COMMANDS = (
    "analyze",
    "check-fec",
    "decompose",
    "koopman",
    "birkhoff",
    "independence",
    "noninvariant",
    "oracle-verify",
)

# Largest --nmax accepted: trace lengths and oracle-verify instance counts
# past it are refused as input errors rather than run for hours.
MAX_NMAX = 10_000

_RATIONAL_RE = re.compile(r"^\s*-?\d+\s*(/\s*-?\d+\s*)?$")


class InputError(Exception):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)


def _reject_float(literal: str) -> Fraction:
    raise InputError("", f"decimal literal {literal!r} not allowed; write \"p/q\" or [p, q]")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as exc:
        raise InputError(path, str(exc))
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc}")
    except ValueError as exc:  # undecodable bytes, or an integer past int()'s digit limit
        raise InputError(path, str(exc))


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise InputError(path, f"malformed rational string {value!r}")
        num, _, den = value.partition("/")
        try:
            n, d = int(num), int(den) if den.strip() else 1
        except ValueError as exc:  # more digits than int() converts
            raise InputError(path, str(exc))
        if d == 0:
            raise InputError(path, "zero denominator")
        return Fraction(n, d)
    if isinstance(value, list):
        if len(value) != 2 or not all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            raise InputError(path, "rational pair must be two integers [num, den]")
        if value[1] == 0:
            raise InputError(path, "zero denominator")
        return Fraction(value[0], value[1])
    raise InputError(path, f"expected a rational, got {type(value).__name__}")


def _mass_vector(value, path: str, m: int) -> Prob:
    if not isinstance(value, list):
        raise InputError(path, "expected an array of rationals")
    if len(value) != m:
        raise InputError(path, f"expected {m} entries, got {len(value)}")
    mass = tuple(_rational(v, f"{path}[{i}]") for i, v in enumerate(value))
    for i, x in enumerate(mass):
        if x < 0:
            raise InputError(f"{path}[{i}]", f"negative mass {x}")
    total = sum(mass)
    if total != 1:
        raise InputError(path, f"masses sum to {total}, expected 1")
    return Prob(mass)


@dataclass(frozen=True)
class SystemDescription:
    size: int
    T: Transformation
    generators: tuple[Prob, ...] | None
    probability: Prob | None


def load_system(path: str) -> SystemDescription:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(path, "top level must be an object")
    known = {"omega_size", "map", "generators", "probability"}
    for key in doc:
        if key not in known:
            raise InputError(key, "unknown field")
    if "omega_size" not in doc:
        raise InputError("omega_size", "missing")
    m = doc["omega_size"]
    if isinstance(m, bool) or not isinstance(m, int):
        raise InputError("omega_size", "must be an integer")
    if not 1 <= m <= space.MAX_POINTS:
        raise InputError("omega_size", f"must be between 1 and {space.MAX_POINTS}")
    if "map" not in doc:
        raise InputError("map", "missing")
    table = doc["map"]
    if not isinstance(table, list) or len(table) != m:
        raise InputError("map", f"expected an array of {m} integers")
    for i, x in enumerate(table):
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < m:
            raise InputError(f"map[{i}]", f"expected an integer in [0, {m})")
    T = Transformation(tuple(table))

    generators = None
    if "generators" in doc:
        gens = doc["generators"]
        if not isinstance(gens, list) or not gens:
            raise InputError("generators", "expected a nonempty array of mass arrays")
        generators = tuple(
            _mass_vector(g, f"generators[{i}]", m) for i, g in enumerate(gens)
        )
    probability = None
    if "probability" in doc:
        probability = _mass_vector(doc["probability"], "probability", m)
    return SystemDescription(m, T, generators, probability)


def _load_field(path: str, key: str):
    """A JSON file's document, or its `key` field when the document is an object."""
    doc = _load_json(path)
    if isinstance(doc, dict):
        if key not in doc:
            raise InputError(key, f"missing in {path}")
        doc = doc[key]
    return doc


def _load_vector(path: str, key: str, m: int) -> list[Fraction]:
    doc = _load_field(path, key)
    if not isinstance(doc, list):
        raise InputError(path, "expected an array of rationals")
    if len(doc) != m:
        raise InputError(path, f"expected {m} entries, got {len(doc)}")
    return [_rational(v, f"{path}[{i}]") for i, v in enumerate(doc)]


# ---------------------------------------------------------------- rendering

def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _vec(xs) -> list[str]:
    return [_frac(x) for x in xs]


def _pts(mask: int) -> list[int]:
    return list(space.points(mask))


def _emit(report: dict, human: list[str], json_only: bool) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if not json_only:
        sys.stdout.write("----\n")
        for line in human:
            sys.stdout.write(line + "\n")


def _table(pairs: list[tuple[str, str]]) -> list[str]:
    width = max(len(k) for k, _ in pairs)
    return [f"{k.ljust(width)}  {v}" for k, v in pairs]


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------- commands

def _require_generators(desc: SystemDescription) -> UpperProb:
    if desc.generators is None:
        raise InputError("generators", "this command needs the capacity's generators")
    return capacity.envelope(list(desc.generators))


def _fec_report(result: FECResult | NotFEC) -> dict:
    if isinstance(result, NotFEC):
        return {
            "is_fec": False,
            "witness": {"points": _pts(result.witness), "value": _frac(result.value)},
        }
    return {
        "is_fec": True,
        "n": result.n,
        "cells": [_pts(cell) for cell in result.partition],
        "measures": [_vec(Q.mass) for Q in result.measures],
    }


def _invariant(report: dict, V: UpperProb, T: Transformation) -> bool:
    """Whether V is invariant under T; if not, the report says so as a precondition failure."""
    if capacity.is_invariant_capacity(V, T):
        return True
    report["status"] = "precondition-failure"
    report["reason"] = "capacity is not invariant under the map"
    return False


def _decomposition(report: dict, V: UpperProb, T: Transformation) -> FECResult | NotFEC | None:
    """fec_decompose(V, T) after the invariance check, or None when V is not invariant.

    Either failure is recorded in the report's status and reason.  The
    result is NotFEC exactly when the zero-one condition fails, so the
    reports read that condition off it.
    """
    if not _invariant(report, V, T):
        return None
    result = fec.fec_decompose(V, T)
    if isinstance(result, NotFEC):
        report["status"] = "not-fec"
        report["reason"] = "an invariant set has value strictly between 0 and 1"
    return result


def _cmd_analyze(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    V = _require_generators(desc)
    T = desc.T
    report: dict = {
        "command": "analyze",
        "omega_size": desc.size,
        "map": list(T.table),
        "status": "ok",
        "reason": None,
    }
    result = _decomposition(report, V, T)
    report["invariant"] = result is not None
    if result is None:
        return 2, report, _table([("invariant", "no")])
    report["zero_one"] = not isinstance(result, NotFEC)
    report["fz_ergodic"] = fec.is_fz_ergodic(V, T)
    report["fec"] = _fec_report(result)
    report["support"] = _pts(capacity.null_support(V))
    report["koopman_multiplicity"] = koopman.eigenvalue_one_multiplicity(V, T)
    report["ergodic_core_measures"] = [
        _vec(Q.mass) for Q in fec.ergodic_core_measures(V, T)
    ]
    report["invariant_core_vertices"] = [
        _vec(P.mass) for P in capacity.invariant_core_vertices(V, T)
    ]
    rows = [
        ("space size", str(desc.size)),
        ("map", str(list(T.table))),
        ("invariant", "yes"),
        ("zero-one", _yes(report["zero_one"])),
        ("FZ-ergodic", _yes(report["fz_ergodic"])),
        ("koopman multiplicity", str(report["koopman_multiplicity"])),
    ]
    if isinstance(result, NotFEC):
        rows.append(("FEC", "no"))
        rows.append(
            ("witness", f"{set(_pts(result.witness))} value {_frac(result.value)}")
        )
        return 2, report, _table(rows)
    rows.append(("FEC cells", str(result.n)))
    for i, (cell, Q) in enumerate(zip(result.partition, result.measures)):
        rows.append((f"cell {i + 1}", f"{set(_pts(cell))}  Q = {_vec(Q.mass)}"))
    return 0, report, _table(rows)


def _cmd_check_fec(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    V = _require_generators(desc)
    T = desc.T
    report: dict = {"command": "check-fec", "status": "ok", "reason": None}
    result = _decomposition(report, V, T)
    if result is None:
        return 2, report, _table([("invariant", "no")])
    report["zero_one"] = not isinstance(result, NotFEC)
    report["fec"] = _fec_report(result)
    if isinstance(result, NotFEC):
        human = _table(
            [
                ("FEC", "no"),
                ("witness", f"{set(_pts(result.witness))} value {_frac(result.value)}"),
            ]
        )
        return 2, report, human
    human = _table([("FEC", "yes"), ("cells", str([set(_pts(c)) for c in result.partition]))])
    return 0, report, human


def _cmd_decompose(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    V = _require_generators(desc)
    T = desc.T
    if args.probability:
        doc = _load_field(args.probability, "probability")
        P = _mass_vector(doc, args.probability, desc.size)
    elif desc.probability is not None:
        P = desc.probability
    else:
        raise InputError("probability", "decompose needs a probability (field or --probability)")
    report: dict = {"command": "decompose", "status": "ok", "reason": None}
    if space.is_invertible(T):
        result = fec.full_decomposition(V, T, P)
        report["mode"] = "full"
        report["residual_in_core"] = result.residual_in_core
    else:
        result = fec.decompose_invariant(V, T, P)
        report["mode"] = "invariant-only"
        report["residual_in_core"] = None
    report["coefficients"] = _vec(result.coefficients)
    report["measures"] = [_vec(Q.mass) for Q in result.measures]
    report["residual"] = None if result.residual is None else _vec(result.residual.mass)
    rows = [
        ("mode", report["mode"]),
        ("coefficients", str(report["coefficients"])),
    ]
    for i, Q in enumerate(result.measures):
        rows.append((f"Q_{i + 1}", str(_vec(Q.mass))))
    rows.append(("residual", "none" if result.residual is None else str(report["residual"])))
    if result.residual is not None:
        rows.append(("residual in core", _yes(bool(result.residual_in_core))))
    return 0, report, _table(rows)


def _cmd_koopman(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    V = _require_generators(desc)
    T = desc.T
    report: dict = {"command": "koopman", "status": "ok", "reason": None}
    if not _invariant(report, V, T):
        return 2, report, _table([("invariant", "no")])
    matrix = koopman.koopman_matrix(T)
    basis = koopman.invariant_function_basis(V, T)
    report["matrix"] = [[_frac(x) for x in row] for row in matrix]
    report["multiplicity"] = len(basis)
    report["fixed_basis"] = [_vec(f.values) for f in basis]
    rows = [
        ("multiplicity", str(len(basis))),
        ("matrix", str([[str(x.numerator) for x in row] for row in matrix])),
    ]
    for i, f in enumerate(basis):
        rows.append((f"basis {i + 1}", str(_vec(f.values))))
    return 0, report, _table(rows)


def _running_averages(T: Transformation, f: FunctionOnSpace, w: int, nmax: int) -> list[Fraction]:
    """finite_average(T, f, w, n) for n = 1..nmax, from one running sum."""
    out = []
    total = Fraction(0)
    x = w
    for n in range(1, nmax + 1):
        total += f.values[x]
        x = T(x)
        out.append(total / n)
    return out


def _cmd_birkhoff(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    V = _require_generators(desc)
    T = desc.T
    if not args.function:
        raise InputError("function", "birkhoff needs --function")
    f = FunctionOnSpace(tuple(_load_vector(args.function, "function", desc.size)))
    report: dict = {"command": "birkhoff", "status": "ok", "reason": None}
    limit = birkhoff.birkhoff_limit(T, f)
    report["limit"] = _vec(limit.values)
    report["exact_window"] = {
        "burn": T.preperiod,
        "length": T.period,
        "agrees": all(
            birkhoff.finite_average(T, f, w, T.period, T.preperiod) == limit.values[w]
            for w in range(desc.size)
        ),
    }
    if args.nmax > 0:
        report["trace"] = [_vec(_running_averages(T, f, w, args.nmax)) for w in range(desc.size)]
    result = _decomposition(report, V, T)
    if result is None:
        report["lln"] = None
        return 2, report, _table([("limit", str(report["limit"])), ("invariant", "no")])
    rows = [("limit", str(report["limit"]))]
    if isinstance(result, NotFEC):
        report["lln"] = None
        rows.append(("FEC", "no"))
        return 2, report, _table(rows)
    report["lln"] = birkhoff.verify_multivalue_lln(V, T, result, f)
    report["component_means"] = [
        _frac(measure.expectation(Q, f.values)) for Q in result.measures
    ]
    rows.append(("LLN", _yes(report["lln"])))
    rows.append(("component means", str(report["component_means"])))
    return 0, report, _table(rows)


def _pair_family(m: int, cells: tuple[int, ...]) -> list[int]:
    if m <= 6:
        return list(range(1 << m))
    full = space.full_mask(m)
    fam = {0, full}
    for c in cells:
        fam.add(c)
        fam.add(full ^ c)
    for w in range(m):
        fam.add(1 << w)
    return sorted(fam)


def _sweep(family: list[int], row, violations: list[dict], **tag) -> tuple[int, int]:
    """Run the product rule row `row(B)` for each B of the family, against each C of it.

    Appends the first ten unequal pairs, each with `tag`, to `violations`
    and returns (pairs checked, order-sensitive pairs).
    """
    checked = 0
    order_sensitive = 0
    for b in family:
        for c, out in zip(family, row(b)):
            checked += 1
            if getattr(out, "order_sensitive", False):  # only Choquet pairs carry the flag
                order_sensitive += 1
            if not out.equal and len(violations) < 10:
                violations.append(
                    {**tag, "B": _pts(b), "C": _pts(c), "lhs": _frac(out.lhs), "rhs": _frac(out.rhs)}
                )
    return checked, order_sensitive


def _cmd_independence(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    V = _require_generators(desc)
    T = desc.T
    report: dict = {"command": "independence", "status": "ok", "reason": None}
    result = _decomposition(report, V, T)
    if result is None:
        return 2, report, _table([("invariant", "no")])
    if isinstance(result, NotFEC):
        return 2, report, _table([("FEC", "no")])
    family = _pair_family(desc.size, result.partition.cells)
    limits = birkhoff.hit_limits(T, result.partition, result.measures, family)
    violations: list[dict] = []
    checked, order_sensitive = _sweep(family, lambda b: birkhoff.choquet_row(V, b, limits), violations)
    verts = capacity.invariant_core_vertices(V, T)
    core_violations: list[dict] = []
    core_checked = 0
    for P in verts:
        side = birkhoff.core_side(V, P, result.partition, limits)
        core_checked += _sweep(
            family, lambda b: birkhoff.measure_row(side, b, limits), core_violations, P=_vec(P.mass)
        )[0]
    cells = result.partition.cells
    featured_b = cells[0]
    featured_c = cells[-1]
    featured = birkhoff.asymptotic_independence_choquet(
        V, T, result, featured_b, featured_c, trace_to=args.nmax
    )
    report["choquet"] = {
        "pairs_checked": checked,
        "all_equal": not violations,
        "violations": violations,
        "order_sensitive_pairs": order_sensitive,
    }
    report["core"] = {
        "vertices": len(verts),
        "pairs_checked": core_checked,
        "all_equal": not core_violations,
        "violations": core_violations,
    }
    report["featured"] = {
        "B": _pts(featured_b),
        "C": _pts(featured_c),
        "lhs": _frac(featured.lhs),
        "rhs": _frac(featured.rhs),
        "trace": _vec(featured.trace),
    }
    rows = [
        ("pairs checked", str(checked)),
        ("choquet identity", _yes(not violations)),
        ("core identity", _yes(not core_violations)),
        ("order-sensitive pairs", str(order_sensitive)),
        ("featured pair", f"B={set(_pts(featured_b)) or '{}'} C={set(_pts(featured_c)) or '{}'}"),
        ("featured lhs = rhs", f"{_frac(featured.lhs)} = {_frac(featured.rhs)}"),
    ]
    return 0, report, _table(rows)


def _cmd_noninvariant(desc: SystemDescription, args) -> tuple[int, dict, list[str]]:
    T = desc.T
    if desc.probability is None:
        raise InputError("probability", "noninvariant needs the probability field")
    part = noninvariant.irreducible_partition(desc.probability, T)
    values = sorted(noninvariant.invariant_value_set(part.P, T))
    check = noninvariant.verify_construction(part)
    report: dict = {
        "command": "noninvariant",
        "status": "ok",
        "reason": None,
        "invariant_value_set": _vec(values),
        "value_set_size": len(values),
        "cells": [_pts(c) for c in part.cells],
        "conditionals": [_vec(P.mass) for P in part.conditionals],
        "limits": [_vec(Q.mass) for Q in part.limits],
        "checks": {
            "q_ergodic": list(check.q_ergodic),
            "v_invariant": list(check.v_invariant),
            "v_fz_ergodic": list(check.v_fz),
            "combined_fec": check.fec_ok,
            "combined_zero_one": check.zero_one,
        },
    }
    if desc.size <= 8:
        report["v_tables"] = [_vec(V.table) for V in part.capacities]
    family = _pair_family(desc.size, part.cells.cells)
    limits = birkhoff.hit_limits(T, part.cells, part.limits, family)
    side = birkhoff.measure_side(part.P, part.cells, limits)
    violations: list[dict] = []
    checked, _ = _sweep(family, lambda b: birkhoff.measure_row(side, b, limits), violations)
    report["independence"] = {
        "pairs_checked": checked,
        "all_equal": not violations,
        "violations": violations,
    }
    if args.function:
        f = FunctionOnSpace(tuple(_load_vector(args.function, "function", desc.size)))
        report["lln"] = noninvariant.noninvariant_lln(part, f)
    else:
        report["lln"] = None
    rows = [
        ("cells", str([set(_pts(c)) for c in part.cells])),
        ("value set", str(_vec(values))),
        ("all checks", _yes(check.all_pass)),
        ("independence", _yes(not violations)),
    ]
    for i, Q in enumerate(part.limits):
        rows.append((f"Q_{i + 1}", str(_vec(Q.mass))))
    return 0, report, _table(rows)


def _cmd_oracle_verify(args) -> tuple[int, dict, list[str]]:
    seed = args.seed
    instances = args.nmax if args.nmax > 0 else 50
    rng = Random(seed)
    counts: dict[str, int] = {}
    mismatches: list[str] = []

    def bump(name: str, ok: bool, detail: str) -> None:
        counts[name] = counts.get(name, 0) + 1
        if not ok and len(mismatches) < 10:
            mismatches.append(f"{name}: {detail}")

    for k in range(instances):
        m = rng.randint(2, 5)
        T = generate.random_transformation(rng, m)
        V = generate.random_upper_prob(rng, T)

        bump(
            "invariant_sets",
            list(T.invariant_sets) == oracle.oracle_invariant_sets(T.table),
            f"instance {k}",
        )

        for _ in range(2):
            f = generate.random_function(rng, m)
            a = capacity.choquet_integral(V, f)
            b = oracle.oracle_choquet(V.table, f.values)
            bump("choquet", a == b, f"instance {k}: {a} vs {b}")

        if m <= 4:
            main_v = [P.mass for P in capacity.core_vertices(V)]
            bump(
                "core_vertices",
                main_v == oracle.oracle_core_vertices(V.table),
                f"instance {k}",
            )

        result = fec.fec_decompose(V, T)
        valid, witness = oracle.oracle_fec(V.table, T.table)
        if isinstance(result, NotFEC):
            bump(
                "fec",
                not valid and witness == result.witness,
                f"instance {k}: witness {result.witness} vs {witness}",
            )
        else:
            bump(
                "fec",
                witness is None and result.partition.cells in valid,
                f"instance {k}: partition not among {len(valid)} oracle partitions",
            )

        P = generate.random_prob(rng, m)
        A = generate.random_subset(rng, m)
        limit = measure.cesaro_limit(P, T)
        tail = oracle.oracle_tail_average(P.mass, T.table, A, T.preperiod, 4 * T.period)
        bump("cesaro", limit(A) == tail, f"instance {k}")

        S = generate.random_permutation(rng, m)
        Pj = generate.random_prob(rng, m)
        Vj = noninvariant.v_component(Pj, S)
        L = S.period
        ok = all(
            Vj.table[a]
            == oracle.oracle_window_sup(Pj.mass, S.table, a, 4 * L, 8 * L + 2)
            for a in range(1 << m)
        )
        bump("window_sup", ok, f"instance {k}")

    all_pass = not mismatches
    report = {
        "command": "oracle-verify",
        "status": "ok" if all_pass else "mismatch",
        "reason": None if all_pass else "main path disagrees with an oracle",
        "seed": seed,
        "instances": instances,
        "checks": counts,
        "all_pass": all_pass,
        "mismatches": mismatches,
    }
    rows = [("instances", str(instances)), ("seed", str(seed))]
    for name in sorted(counts):
        rows.append((name, str(counts[name])))
    rows.append(("all pass", _yes(all_pass)))
    return (0 if all_pass else 2), report, _table(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergocap",
        description="Exact analysis of upper probabilities under a map on a finite space.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", nargs="?", help="system description (JSON)")
    parser.add_argument("--probability", help="probability vector file (decompose)")
    parser.add_argument("--function", help="function vector file (birkhoff, noninvariant)")
    parser.add_argument("--seed", type=int, default=0, help="seed for oracle-verify")
    parser.add_argument("--json-only", action="store_true", help="suppress the human block")
    parser.add_argument(
        "--nmax",
        type=int,
        default=0,
        help=f"trace length; for oracle-verify, the number of random instances (at most {MAX_NMAX})",
    )
    args = parser.parse_args(argv)

    handlers = {
        "analyze": _cmd_analyze,
        "check-fec": _cmd_check_fec,
        "decompose": _cmd_decompose,
        "koopman": _cmd_koopman,
        "birkhoff": _cmd_birkhoff,
        "independence": _cmd_independence,
        "noninvariant": _cmd_noninvariant,
    }
    try:
        if args.nmax < 0:
            raise InputError("--nmax", f"must not be negative, got {args.nmax}")
        if args.nmax > MAX_NMAX:
            raise InputError("--nmax", f"must be at most {MAX_NMAX}, got {args.nmax}")
        if args.command == "oracle-verify":
            try:
                code, report, human = _cmd_oracle_verify(args)
            except InternalVerificationError:
                raise
            except RuntimeError as exc:  # oracle.py imports only the standard library
                raise InternalVerificationError(f"oracle: {exc}") from exc
        else:
            if not args.file:
                raise InputError("file", f"{args.command} needs a system file")
            desc = load_system(args.file)
            code, report, human = handlers[args.command](desc, args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalVerificationError as exc:
        report = {"command": args.command, "status": "internal-error", "reason": str(exc)}
        _emit(report, _table([("internal error", str(exc))]), args.json_only)
        return 3
    except ValueError as exc:
        report = {
            "command": args.command,
            "status": "precondition-failure",
            "reason": str(exc),
        }
        _emit(report, _table([("error", str(exc))]), args.json_only)
        return 2
    _emit(report, human, args.json_only)
    return code


if __name__ == "__main__":
    sys.exit(main())
