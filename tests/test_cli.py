import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import CASES

from resilog.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
P2 = str(FIXTURES / "p2_example.fol")
P3 = str(FIXTURES / "p3_example.fol")
A2 = str(FIXTURES / "a2_chain.json")
NOT_TANGENT = str(FIXTURES / "not_tangent.fol")
MALFORMED = str(FIXTURES / "malformed.fol")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "machine")
    doc = json.loads(out)
    assert doc["schema"] == "resilog/1"
    return code, doc


def test_check_tangent(capsys):
    code, out, _ = run(capsys, "check", P2)
    assert code == 0
    assert "tangent: yes" in out
    assert "k = 4" in out


def test_check_not_tangent_exit_2(capsys):
    code, out, _ = run(capsys, "check", NOT_TANGENT)
    assert code == 2
    assert "NOT TANGENT" in out


@pytest.mark.parametrize("command", ["verify", "zeros", "poincare", "surface"])
def test_not_tangent_exit_2_without_traceback(capsys, command):
    code, out, err = run(capsys, command, NOT_TANGENT)
    assert code == 2
    assert out == ""
    assert err == ("error: field is not tangent to the divisor in chart 0: "
                   "v(f) is not divisible by f\n")


@pytest.mark.parametrize("entry, code, message", [
    ("{chart: 0, coords: [1, 1]}", 2, "field does not vanish at (1, 1)"),
    ("{chart: 0}", 1, "point entry needs 'chart' and 'coords': {'chart': '0'}"),
    ("{chart: 0, coords: [0, 0, 0]}", 1, "point in chart 0 has 3 coordinates, expected 2"),
])
def test_bad_points_file_exit_code_without_traceback(capsys, tmp_path, entry, code, message):
    pts = tmp_path / "pts.txt"
    pts.write_text(f"points = [{entry}]\n")
    assert run(capsys, "verify", P2, "--points", str(pts)) == (code, "", f"error: {message}\n")


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "check", MALFORMED)
    assert code == 1
    assert "parse error" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "check", str(FIXTURES / "nope.fol"))
    assert code == 1
    assert "error" in err


def test_zeros_table(capsys):
    code, out, _ = run(capsys, "zeros", P2)
    assert code == 0
    assert "3 singular point(s)" in out
    assert "[0:0:1]" in out and "[1:0:0]" in out


def test_residues_machine(capsys):
    code, doc = machine(capsys, "residues", P2, "--i", "1")
    assert code == 0
    recs = doc["records"]
    assert {r["var"] for r in recs} == {"4/5", "1/5"}
    assert all(r["method"] == "closed_form" for r in recs)


def test_verify_ok(capsys):
    code, doc = machine(capsys, "verify", P3)
    assert code == 0
    assert doc["all_ok"] and doc["level"] == "proved-on-instance"
    totals = {c["i"]: c["totals"]["var"] for c in doc["checks"]}
    assert totals == {0: "37", 1: "7", 2: "1"}


def test_verify_with_explicit_points(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text(
        "points = [{chart: 0, coords: [0, 0]}, {chart: 1, coords: [0, 0]},"
        " {chart: 2, coords: [0, 0]}]\n"
    )
    code, doc = machine(capsys, "verify", P2, "--points", str(pts))
    assert code == 0 and doc["all_ok"]


def test_poincare(capsys):
    code, doc = machine(capsys, "poincare", P3)
    assert code == 0
    assert doc["i_used"] == 0 and doc["total_log_residue"] == "27"
    assert doc["bound_holds"]


def test_surface(capsys):
    code, doc = machine(capsys, "surface", P2)
    assert code == 0
    assert doc["gsv_total"] == "2" and doc["cs_total"] == "1"
    assert doc["carnicer_bound_holds"]


def test_surface_rejects_p3(capsys):
    code, _, err = run(capsys, "surface", P3)
    assert code == 1
    assert "n = 2" in err


def test_discrepancy(capsys):
    code, doc = machine(capsys, "discrepancy", A2)
    assert code == 0
    assert doc["b"] == ["1", "1"] and doc["a"] == ["0", "0"]
    assert doc["classification"] == "canonical"


def test_discrepancy_rejects_positive_definite(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": [[2]], "I": ["1"]}))
    code, doc = machine(capsys, "discrepancy", str(bad))
    assert code == 2
    assert doc["negative_definite"] is False


def test_cyclic(capsys):
    code, doc = machine(capsys, "cyclic", "--m", "6")
    assert code == 0
    assert doc["point_log_residues"] == ["1", "1"]
    assert doc["I_E"] == "2" and doc["b"] == "1/3" and doc["a"] == "-2/3"
    assert doc["classification"] == "log_terminal"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", P2, "--format", "machine"),
        ("zeros", P3, "--format", "machine"),
        ("residues", P2, "--format", "machine"),
        ("cyclic", "--m", "5", "--format", "machine"),
    ],
)
def test_machine_output_byte_stable(capsys, argv):
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_numeric_discovery_flag(capsys):
    code, doc = machine(capsys, "zeros", P2, "--numeric")
    assert code == 0
    assert doc["mode"] == "numeric"
    assert len(doc["points"]) == 3


LAZY_NUMPY = """
import contextlib, io, sys
from resilog.aggregate import verify_identities
from resilog.cli import main
from resilog.parse import parse_problem

loaded = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in {exact!r}:
        main([*argv, "--format", "machine"])
    loaded.append("numpy" in sys.modules)
    verify_identities(parse_problem(open("fixtures/p3_example.fol").read()).problem)
    loaded.append("numpy" in sys.modules)
    main(["zeros", "--numeric", "fixtures/p2_example.fol"])
    loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_numpy_loads_only_on_the_numeric_path():
    exact = [argv for argv in CASES.values() if "--numeric" not in argv]
    assert len(exact) == 14
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", LAZY_NUMPY.format(exact=exact)], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    # Every exact golden case, then verify_identities, then zeros --numeric.
    assert proc.stdout == "[False, False, True]\n"
