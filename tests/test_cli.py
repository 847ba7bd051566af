"""End-to-end runs of the command-line front end via subprocess."""

import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ergocap.birkhoff import finite_average
from ergocap.capacity import FunctionOnSpace
from ergocap.cli import MAX_NMAX
from ergocap.space import Transformation

RATIONAL = re.compile(r"^(-?\d+)/(\d+)$")

TWO_BLOCKS = {
    "omega_size": 4,
    "map": [1, 0, 3, 2],
    "generators": [
        ["1/2", "1/2", 0, 0],
        [0, 0, [1, 2], "1/2"],
    ],
}

TILTED = {
    "omega_size": 4,
    "map": [1, 0, 3, 2],
    "generators": [
        ["1/2", "1/2", 0, 0],
        ["3/8", "3/8", "1/8", "1/8"],
    ],
}

SINGLE = {
    "omega_size": 4,
    "map": [1, 2, 3, 0],
    "generators": [["1/4", "1/4", "1/4", "1/4"]],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ergocap.cli", *args], capture_output=True, text=True
    )


def report_of(proc):
    return json.loads(proc.stdout.split("\n----\n")[0])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def walk_rationals(node):
    if isinstance(node, str):
        m = RATIONAL.match(node)
        if m:
            yield int(m.group(1)), int(m.group(2))
    elif isinstance(node, list):
        for x in node:
            yield from walk_rationals(x)
    elif isinstance(node, dict):
        for x in node.values():
            yield from walk_rationals(x)


def test_analyze_two_blocks(tmp_path):
    proc = run_cli("analyze", write(tmp_path, "sys.json", TWO_BLOCKS))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["status"] == "ok"
    assert report["zero_one"] is True
    assert report["fz_ergodic"] is False
    assert report["koopman_multiplicity"] == 2
    assert report["fec"]["is_fec"] is True
    assert report["fec"]["n"] == 2
    assert report["fec"]["cells"] == [[0, 1], [2, 3]]
    assert report["fec"]["measures"][0] == ["1/2", "1/2", "0/1", "0/1"]
    assert report["support"] == [0, 1, 2, 3]


def test_analyze_single_component(tmp_path):
    proc = run_cli("analyze", write(tmp_path, "sys.json", SINGLE))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["fec"]["n"] == 1
    assert report["koopman_multiplicity"] == 1
    assert report["fz_ergodic"] is True


def test_analyze_not_fec(tmp_path):
    proc = run_cli("analyze", write(tmp_path, "sys.json", TILTED))
    assert proc.returncode == 2
    report = report_of(proc)
    assert report["status"] == "not-fec"
    assert report["fec"]["is_fec"] is False
    assert report["fec"]["witness"] == {"points": [2, 3], "value": "1/4"}


def test_reports_are_byte_deterministic(tmp_path):
    path = write(tmp_path, "sys.json", TWO_BLOCKS)
    a = run_cli("analyze", path)
    b = run_cli("analyze", path)
    assert a.stdout == b.stdout
    c = run_cli("analyze", path, "--json-only")
    d = run_cli("analyze", path, "--json-only")
    assert c.stdout == d.stdout
    json.loads(c.stdout)


def test_rationals_are_lowest_terms(tmp_path):
    for doc in (TWO_BLOCKS, TILTED, SINGLE):
        proc = run_cli("analyze", write(tmp_path, "sys.json", doc), "--json-only")
        found = list(walk_rationals(json.loads(proc.stdout)))
        assert found
        for num, den in found:
            assert den > 0
            assert math.gcd(num, den) == 1


def test_rejects_decimal_literals(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"omega_size": 2, "map": [1, 0], "generators": [[0.5, 0.5]]}')
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert "decimal literal" in proc.stderr


def test_rejects_bad_mass_sum(tmp_path):
    doc = {"omega_size": 2, "map": [1, 0], "generators": [["1/2", "1/3"]]}
    proc = run_cli("analyze", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 1
    assert "masses sum to" in proc.stderr


def test_rejects_unknown_field(tmp_path):
    doc = dict(TWO_BLOCKS, extra=1)
    proc = run_cli("analyze", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 1
    assert "unknown field" in proc.stderr


def test_rejects_missing_generators(tmp_path):
    doc = {"omega_size": 2, "map": [1, 0]}
    proc = run_cli("analyze", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 1
    assert "generators" in proc.stderr


def test_rejects_missing_file():
    proc = run_cli("analyze")
    assert proc.returncode == 1
    assert "needs a system file" in proc.stderr


def test_check_fec(tmp_path):
    proc = run_cli("check-fec", write(tmp_path, "sys.json", TWO_BLOCKS))
    assert proc.returncode == 0
    assert report_of(proc)["fec"]["is_fec"] is True
    proc = run_cli("check-fec", write(tmp_path, "bad.json", TILTED))
    assert proc.returncode == 2


def test_decompose_inline_probability(tmp_path):
    doc = dict(TWO_BLOCKS, probability=["1/4", "1/4", "1/4", "1/4"])
    proc = run_cli("decompose", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["mode"] == "full"
    assert report["coefficients"] == ["1/2", "1/2", "0/1"]
    assert report["residual"] is None


def test_decompose_probability_flag(tmp_path):
    sys_path = write(tmp_path, "sys.json", TWO_BLOCKS)
    p_path = write(tmp_path, "p.json", ["3/8", "3/8", "1/8", "1/8"])
    proc = run_cli("decompose", sys_path, "--probability", p_path)
    assert proc.returncode == 0
    assert report_of(proc)["coefficients"] == ["3/4", "1/4", "0/1"]


@pytest.mark.parametrize(
    "mass, message",
    [
        (["1/2", "1/4", "1/8", "1/16"], "masses sum to"),
        (["3/4", "-1/4", "1/4", "1/4"], "negative mass"),
    ],
)
def test_decompose_probability_flag_rejects_non_probability(tmp_path, mass, message):
    sys_path = write(tmp_path, "sys.json", TWO_BLOCKS)
    p_path = write(tmp_path, "p.json", mass)
    proc = run_cli("decompose", sys_path, "--probability", p_path)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_decompose_invariant_only_mode(tmp_path):
    doc = {
        "omega_size": 2,
        "map": [0, 0],
        "generators": [[1, 0]],
        "probability": [1, 0],
    }
    proc = run_cli("decompose", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["mode"] == "invariant-only"
    assert report["coefficients"] == ["1/1"]


def test_decompose_needs_probability(tmp_path):
    proc = run_cli("decompose", write(tmp_path, "sys.json", TWO_BLOCKS))
    assert proc.returncode == 1
    assert "probability" in proc.stderr


def test_koopman_command(tmp_path):
    proc = run_cli("koopman", write(tmp_path, "sys.json", TWO_BLOCKS))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["multiplicity"] == 2
    assert report["matrix"][0] == ["0/1", "1/1", "0/1", "0/1"]
    assert report["fixed_basis"] == [
        ["1/1", "1/1", "0/1", "0/1"],
        ["0/1", "0/1", "1/1", "1/1"],
    ]


def test_birkhoff_command(tmp_path):
    sys_path = write(tmp_path, "sys.json", TWO_BLOCKS)
    f_path = write(tmp_path, "f.json", [1, 0, 0, 0])
    proc = run_cli("birkhoff", sys_path, "--function", f_path, "--nmax", "3")
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["limit"] == ["1/2", "1/2", "0/1", "0/1"]
    assert report["lln"] is True
    assert report["component_means"] == ["1/2", "0/1"]
    assert report["exact_window"] == {"burn": 0, "length": 2, "agrees": True}
    assert report["trace"][0] == ["1/1", "1/2", "2/3"]


def test_birkhoff_needs_function(tmp_path):
    proc = run_cli("birkhoff", write(tmp_path, "sys.json", TWO_BLOCKS))
    assert proc.returncode == 1
    assert "function" in proc.stderr


def test_independence_command(tmp_path):
    proc = run_cli("independence", write(tmp_path, "sys.json", TWO_BLOCKS))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["choquet"]["pairs_checked"] == 256
    assert report["choquet"]["all_equal"] is True
    assert report["choquet"]["order_sensitive_pairs"] > 0
    assert report["core"]["vertices"] == 2
    assert report["core"]["pairs_checked"] == 512
    assert report["core"]["all_equal"] is True
    assert report["featured"]["B"] == [0, 1]
    assert report["featured"]["C"] == [2, 3]
    assert report["featured"]["lhs"] == report["featured"]["rhs"]


def test_noninvariant_command(tmp_path):
    doc = {
        "omega_size": 4,
        "map": [1, 0, 3, 2],
        "probability": ["1/8", "1/8", "3/8", "3/8"],
    }
    sys_path = write(tmp_path, "sys.json", doc)
    f_path = write(tmp_path, "f.json", [1, 0, 0, 0])
    proc = run_cli("noninvariant", sys_path, "--function", f_path)
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["cells"] == [[0, 1], [2, 3]]
    assert report["invariant_value_set"] == ["0/1", "1/4", "3/4", "1/1"]
    assert report["limits"] == [
        ["1/2", "1/2", "0/1", "0/1"],
        ["0/1", "0/1", "1/2", "1/2"],
    ]
    assert all(report["checks"]["q_ergodic"])
    assert report["checks"]["combined_fec"] is True
    assert report["independence"]["all_equal"] is True
    assert report["lln"] is True
    assert "v_tables" in report


def test_noninvariant_needs_invertible_map(tmp_path):
    doc = {
        "omega_size": 4,
        "map": [0, 0, 3, 3],
        "probability": ["1/4", "1/4", "1/4", "1/4"],
    }
    proc = run_cli("noninvariant", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 2
    report = report_of(proc)
    assert report["status"] == "precondition-failure"
    assert "invertible" in report["reason"]


def test_oracle_verify(tmp_path):
    proc = run_cli("oracle-verify", "--seed", "42", "--nmax", "20")
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["all_pass"] is True
    assert report["instances"] == 20
    assert report["seed"] == 42
    assert report["checks"]["invariant_sets"] == 20
    assert report["checks"]["choquet"] == 40
    assert report["checks"]["fec"] == 20
    assert report["mismatches"] == []


def test_oversized_rational_is_an_input_error(tmp_path):
    # int() refuses strings past its digit limit; that is bad input, not a precondition
    huge = "1/" + "1" * 5000
    doc = dict(TWO_BLOCKS, generators=[[huge, "1/2", 0, 0], [0, 0, "1/2", "1/2"]])
    proc = run_cli("analyze", write(tmp_path, "sys.json", doc))
    assert proc.returncode == 1
    assert "generators[0][0]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_oversized_integer_literal_is_an_input_error(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"omega_size": ' + "9" * 5000 + "}")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_nmax_above_the_bound_is_refused(tmp_path):
    sys_path = write(tmp_path, "sys.json", TWO_BLOCKS)
    f_path = write(tmp_path, "f.json", [1, 0, 0, 0])
    for argv in (
        ("birkhoff", sys_path, "--function", f_path),
        ("independence", sys_path),
        ("oracle-verify",),
    ):
        proc = run_cli(*argv, "--nmax", str(MAX_NMAX + 1))
        assert proc.returncode == 1, argv
        assert "--nmax" in proc.stderr
        assert proc.stdout == ""
    proc = run_cli("birkhoff", sys_path, "--function", f_path, "--nmax", str(MAX_NMAX))
    assert proc.returncode == 0
    assert len(report_of(proc)["trace"][0]) == MAX_NMAX


def test_negative_nmax_is_refused(tmp_path):
    # a negative trace length or instance count is an input error, not a
    # silent 0 or a silent default of 50 instances
    sys_path = write(tmp_path, "sys.json", TWO_BLOCKS)
    f_path = write(tmp_path, "f.json", [1, 0, 0, 0])
    for argv in (("birkhoff", sys_path, "--function", f_path), ("oracle-verify",)):
        proc = run_cli(*argv, "--nmax", "-1")
        assert proc.returncode == 1, argv
        assert "--nmax" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_birkhoff_trace_is_the_finite_averages(tmp_path):
    # 2 -> 1 -> 0 <-> 3: transient points, so the plain windows never close
    doc = {
        "omega_size": 4,
        "map": [3, 0, 1, 0],
        "generators": [["1/2", 0, 0, "1/2"]],
    }
    values = ["1/3", 2, "-1/2", 0]
    proc = run_cli(
        "birkhoff", write(tmp_path, "sys.json", doc),
        "--function", write(tmp_path, "f.json", values), "--nmax", "9",
    )
    assert proc.returncode == 0
    T = Transformation(tuple(doc["map"]))
    f = FunctionOnSpace(tuple(Fraction(v) for v in values))
    want = [
        [f"{x.numerator}/{x.denominator}" for x in (finite_average(T, f, w, n) for n in range(1, 10))]
        for w in range(4)
    ]
    assert report_of(proc)["trace"] == want


README_SYSTEM = {
    "omega_size": 4,
    "map": [1, 0, 3, 2],
    "generators": [
        ["1/2", "1/2", 0, 0],
        [0, 0, "1/2", "1/2"],
    ],
}


def _golden(name: str) -> str:
    return (Path(__file__).parent / "golden" / name).read_text()


def test_independence_report_is_pinned_on_the_readme_system(tmp_path):
    proc = run_cli("independence", write(tmp_path, "sys.json", README_SYSTEM), "--nmax", "4")
    assert proc.returncode == 0
    assert proc.stdout == _golden("readme_independence.txt")


def test_noninvariant_report_is_pinned_on_the_readme_system(tmp_path):
    doc = dict(README_SYSTEM, probability=["1/8", "3/8", "1/6", "1/3"])
    proc = run_cli(
        "noninvariant", write(tmp_path, "sys.json", doc),
        "--function", write(tmp_path, "f.json", [1, 0, "1/2", "-1/3"]),
    )
    assert proc.returncode == 0
    assert proc.stdout == _golden("readme_noninvariant.txt")


# An FEC system on a map that is not invertible: cycles {1, 2} and {5},
# the tree point 3 -> 0 -> 1 two steps off its cycle, and 4 -> 5.
TREE_SYSTEM = {
    "omega_size": 6,
    "map": [1, 2, 1, 0, 5, 5],
    "generators": [
        [0, "1/2", "1/2", 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ],
}

# An invariant capacity on the swap pairs that is not a component system.
NOT_FEC_SYSTEM = TILTED

# A capacity the swap pairs do not leave invariant.
NOT_INVARIANT_SYSTEM = {
    "omega_size": 4,
    "map": [1, 0, 3, 2],
    "generators": [["2/3", "1/3", 0, 0], [0, 0, "1/2", "1/2"]],
}

# Cells {0, 1} and {2}, with generators that straddle them: the core face
# of the first cell is wider than the envelope of the generators inside it.
STRADDLE_SYSTEM = {
    "omega_size": 3,
    "map": [1, 0, 2],
    "generators": [["1/2", "1/2", 0], [0, 0, 1], ["3/4", 0, "1/4"], [0, "3/4", "1/4"]],
}

README_FUNCTION = [1, 0, "1/2", "-1/3"]
TREE_FUNCTION = [1, -2, "1/2", 3, "-1/3", 0]

# golden file -> (exit code, system, command and options); an option that is
# not a string is written to a file and passed by path
GOLDEN_REPORTS = {
    "readme_analyze.txt": (0, README_SYSTEM, ("analyze",)),
    "readme_check_fec.txt": (0, README_SYSTEM, ("check-fec",)),
    "readme_decompose.txt": (
        0, README_SYSTEM, ("decompose", "--probability", {"probability": ["1/8", "1/8", "3/8", "3/8"]}),
    ),
    "readme_koopman.txt": (0, README_SYSTEM, ("koopman",)),
    "readme_birkhoff.txt": (0, README_SYSTEM, ("birkhoff", "--function", README_FUNCTION, "--nmax", "8")),
    "tree_analyze.txt": (0, TREE_SYSTEM, ("analyze",)),
    "tree_decompose.txt": (
        0, TREE_SYSTEM, ("decompose", "--probability", [0, "1/6", "1/6", 0, 0, "2/3"]),
    ),
    "tree_koopman.txt": (0, TREE_SYSTEM, ("koopman",)),
    "tree_birkhoff.txt": (0, TREE_SYSTEM, ("birkhoff", "--function", TREE_FUNCTION, "--nmax", "8")),
    "tree_independence.txt": (0, TREE_SYSTEM, ("independence", "--nmax", "4")),
    "tree_noninvariant.txt": (
        2, dict(TREE_SYSTEM, probability=["1/6"] * 6), ("noninvariant", "--function", TREE_FUNCTION),
    ),
    "straddle_analyze.txt": (0, STRADDLE_SYSTEM, ("analyze",)),
    "not_fec_analyze.txt": (2, NOT_FEC_SYSTEM, ("analyze",)),
    "not_fec_check_fec.txt": (2, NOT_FEC_SYSTEM, ("check-fec",)),
    "not_fec_decompose.txt": (
        0, NOT_FEC_SYSTEM, ("decompose", "--probability", ["3/8", "3/8", "1/8", "1/8"]),
    ),
    "not_fec_koopman.txt": (0, NOT_FEC_SYSTEM, ("koopman",)),
    "not_fec_birkhoff.txt": (2, NOT_FEC_SYSTEM, ("birkhoff", "--function", README_FUNCTION, "--nmax", "8")),
    "not_fec_independence.txt": (2, NOT_FEC_SYSTEM, ("independence",)),
    "not_invariant_analyze.txt": (2, NOT_INVARIANT_SYSTEM, ("analyze",)),
    "not_invariant_check_fec.txt": (2, NOT_INVARIANT_SYSTEM, ("check-fec",)),
    "not_invariant_decompose.txt": (
        2, NOT_INVARIANT_SYSTEM, ("decompose", "--probability", ["1/4", "1/4", "1/4", "1/4"]),
    ),
    "not_invariant_koopman.txt": (2, NOT_INVARIANT_SYSTEM, ("koopman",)),
    "not_invariant_birkhoff.txt": (
        2, NOT_INVARIANT_SYSTEM, ("birkhoff", "--function", README_FUNCTION, "--nmax", "8"),
    ),
    "not_invariant_independence.txt": (2, NOT_INVARIANT_SYSTEM, ("independence",)),
    "oracle_verify.txt": (0, None, ("oracle-verify", "--seed", "3", "--nmax", "3")),
}


def golden_argv(tmp_path, system, command):
    """The CLI arguments of a golden case, with its input files written under tmp_path."""
    argv = [command[0]]
    if system is not None:
        argv.append(write(tmp_path, "sys.json", system))
    for i, option in enumerate(command[1:]):
        argv.append(option if isinstance(option, str) else write(tmp_path, f"opt{i}.json", option))
    return argv


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_is_pinned(tmp_path, name):
    code, system, command = GOLDEN_REPORTS[name]
    proc = run_cli(*golden_argv(tmp_path, system, command))
    assert proc.returncode == code
    assert proc.stdout == _golden(name)


def test_structure_is_walked_once_per_map(tmp_path, monkeypatch, capsys):
    from ergocap import capacity, cli, measure, space

    for cached in (capacity.core_vertices, capacity.invariant_core_vertices, measure.subset_sums):
        cached.cache_clear()
    walked = []
    walk = space._walk

    def spy(T):
        walked.append(T)
        return walk(T)

    monkeypatch.setattr(space, "_walk", spy)
    path = write(tmp_path, "sys.json", README_SYSTEM)
    assert cli.main(["independence", path, "--nmax", "4"]) == 0
    assert capsys.readouterr().out == _golden("readme_independence.txt")
    assert walked
    assert len({id(T) for T in walked}) == len(walked)  # the list keeps every instance alive


@pytest.mark.parametrize("command", ["analyze", "independence"])
def test_internal_error_exits_3_with_a_report(tmp_path, command):
    script = (
        "import sys\n"
        "from ergocap import cli, fec\n"
        "from ergocap.errors import InternalVerificationError\n"
        "def broken(V, T):\n"
        "    raise InternalVerificationError('component capacity is not ergodic')\n"
        "fec.fec_decompose = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    path = write(tmp_path, "sys.json", README_SYSTEM)
    proc = subprocess.run(
        [sys.executable, "-c", script, command, path, "--json-only"], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {
        "command": command,
        "status": "internal-error",
        "reason": "component capacity is not ergodic",
    }


def test_polytope_self_check_exits_3_with_a_report(tmp_path):
    script = (
        "import math, sys\n"
        "from ergocap import cli, polytope\n"
        "polytope.gcd = lambda *xs: -math.gcd(*xs)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    path = write(tmp_path, "sys.json", README_SYSTEM)
    proc = subprocess.run(
        [sys.executable, "-c", script, "analyze", path, "--json-only"], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {
        "command": "analyze",
        "status": "internal-error",
        "reason": "vertex escaped the simplex; cut bookkeeping is broken",
    }


def test_empty_core_face_exits_3_with_a_report(tmp_path):
    # the broken gcd empties the face of the straddling cell {0, 1}; V(cell) = 1
    # proves that face nonempty, so this is a fault, not a precondition failure
    script = (
        "import math, sys\n"
        "from ergocap import cli, polytope\n"
        "polytope.gcd = lambda *xs: -math.gcd(*xs)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    path = write(tmp_path, "sys.json", STRADDLE_SYSTEM)
    proc = subprocess.run(
        [sys.executable, "-c", script, "analyze", path, "--json-only"], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {
        "command": "analyze",
        "status": "internal-error",
        "reason": "core face of mask 3 is empty although V(cell) = 1",
    }


def test_oracle_self_check_exits_3_with_a_report(monkeypatch, capsys):
    # the oracle imports nothing of the library, so it fails with a plain RuntimeError
    from ergocap import cli, oracle

    def broken(vtable, ttable):
        raise RuntimeError("core LP cannot be unbounded")

    monkeypatch.setattr(oracle, "oracle_fec", broken)
    assert cli.main(["oracle-verify", "--nmax", "1", "--json-only"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "oracle-verify",
        "status": "internal-error",
        "reason": "oracle: core LP cannot be unbounded",
    }


def test_oracle_mismatch_exits_2_with_a_report(monkeypatch, capsys):
    # a main path that disagrees with its oracle is a reported failure, not a crash
    from ergocap import capacity, cli

    choquet = capacity.choquet_integral
    monkeypatch.setattr(capacity, "choquet_integral", lambda V, f: choquet(V, f) + 1)
    assert cli.main(["oracle-verify", "--seed", "3", "--nmax", "2", "--json-only"]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["status"] == "mismatch"
    assert report["reason"] == "main path disagrees with an oracle"
    assert report["all_pass"] is False
    assert report["checks"]["choquet"] == 4
    assert len(report["mismatches"]) == 4
    assert all(line.startswith("choquet: instance ") for line in report["mismatches"])
    assert "Traceback" not in err
