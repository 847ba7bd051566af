"""Property test of the command-line front end over JSON documents.

Systems with at most four points, valid or corrupted, go through every
system command in-process.  Whatever the input, the run ends with an
exit code in {0, 1, 2, 3} and no traceback; an input error prints no
report, and every printed report's status gives its exit code.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from ergocap import cli, generate, measure
from ergocap.space import Transformation

# the status -> exit code rule of the README: every other status is a reported failure
STATUS_CODES = {"ok": 0, "internal-error": 3}
STATUSES = {"ok", "internal-error", "not-fec", "precondition-failure", "mismatch"}

BAD_RATIONALS = [
    0.5, "1/0", [1, 0], "1.5", "one", "1//2", True, None, [1, 2, 3], {"p": 1}, "1/" + "1" * 5000,
]
BAD_VALUES = [None, True, "4", 0.5, {}, [], [[]], -1, 17]
FIELDS = ["omega_size", "map", "generators", "probability"]


def encoded(x: Fraction):
    n, d = x.numerator, x.denominator
    forms = [f"{n}/{d}", [n, d], f"{-2 * n}/{-2 * d}"]
    if d == 1:
        forms.append(n)
    return st.sampled_from(forms)


@st.composite
def probabilities(draw, m):
    weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    return tuple(Fraction(w, sum(weights)) for w in weights)


@st.composite
def documents(draw):
    """A system document and a function vector, each possibly corrupted."""
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        table = draw(st.permutations(range(m)))
    else:
        table = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    T = Transformation(tuple(table))
    if draw(st.booleans()):
        # an invariant capacity and an invariant member of its core
        V = generate.random_upper_prob(Random(draw(st.integers(0, 2**16))), T)
        gens = [g.mass for g in V.generators]
        P = measure.cesaro_limit(V.generators[0], T).mass
    else:
        gens = draw(st.lists(probabilities(m), min_size=1, max_size=3))
        P = draw(probabilities(m))
    doc = {
        "omega_size": m,
        "map": list(table),
        "generators": [[draw(encoded(x)) for x in g] for g in gens],
        "probability": [draw(encoded(x)) for x in P],
    }
    function = [draw(encoded(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop", "unknown", "wrong-type", "bad-rational", "wrong-length"]))
        if kind == "drop":
            doc.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "unknown":
            doc[draw(st.sampled_from(["extra", "Map", "omega"]))] = 1
        elif kind == "wrong-type":
            doc[draw(st.sampled_from(FIELDS))] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        else:
            vectors = [function] + [v for v in (doc.get("map"), doc.get("probability")) if isinstance(v, list)]
            gens = doc.get("generators")
            if isinstance(gens, list) and gens and isinstance(gens[0], list):
                vectors.append(gens[0])
            vector = draw(st.sampled_from(vectors))
            if kind == "wrong-length" and vector and draw(st.booleans()):
                vector.pop()
            elif kind == "wrong-length":
                vector.append(0)
            elif vector:
                vector[draw(st.integers(0, len(vector) - 1))] = draw(st.sampled_from(BAD_RATIONALS))
    return doc, function


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(documents(), st.integers(0, 3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_every_command_exits_cleanly_on_any_document(tmp_path_factory, case, nmax):
    doc, function = case
    folder = tmp_path_factory.mktemp("fuzz")
    system = folder / "sys.json"
    system.write_text(json.dumps(doc))
    f = folder / "f.json"
    f.write_text(json.dumps(function))
    for argv in (
        ["analyze", str(system)],
        ["check-fec", str(system)],
        ["decompose", str(system)],
        ["koopman", str(system)],
        ["birkhoff", str(system), "--function", str(f), "--nmax", str(nmax)],
        ["independence", str(system), "--nmax", str(nmax)],
        ["noninvariant", str(system), "--function", str(f)],
    ):
        code, out, err = run(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err
        if code == 1:
            assert out == "" and err.startswith("error: "), argv
            continue
        report = json.loads(out.split("\n----\n")[0])
        assert report["command"] == argv[0]
        assert report["status"] in STATUSES
        assert STATUS_CODES.get(report["status"], 2) == code, (argv, report)
