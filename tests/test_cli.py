import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_aggregate import count_chart_work
from test_golden import CASES

from resilog import aggregate, cli, residue
from resilog.cli import main
from resilog.parse import numeric_value
from resilog.residue import NumericConfig

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
P2 = str(FIXTURES / "p2_example.fol")
P3 = str(FIXTURES / "p3_example.fol")
A2 = str(FIXTURES / "a2_chain.json")
NOT_TANGENT = str(FIXTURES / "not_tangent.fol")
MALFORMED = str(FIXTURES / "malformed.fol")
JORDAN = str(FIXTURES / "p2_jordan.fol")


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


def test_not_tangent_in_chart_1(capsys, tmp_path):
    # Chart 0 is tangent (f = x1 divides v(f) = -x1^2); chart 1 is not.
    problem = tmp_path / "not_tangent_chart1.fol"
    problem.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                       "field.components = [z0 + z1, z1, 2*z2]\ndivisor = z0*z1\n")
    assert run(capsys, "check", str(problem)) == (
        2, "NOT TANGENT in chart 1: v(f) = 1 is not divisible by f\n", "")
    assert run(capsys, "verify", str(problem)) == (
        2, "", "error: field is not tangent to the divisor in chart 1: v(f) is not divisible "
               "by f\n")


@pytest.mark.parametrize("entry, code, message", [
    ("{chart: 0, coords: [1, 1]}", 2, "field does not vanish at (1, 1)"),
    ("{chart: 0}", 1, "point entry needs 'chart' (scalar) and 'coords' (list): "
                      "{'chart': '0'}"),
    # A scalar coords would be read one character at a time, a list chart
    # would end in a TypeError.
    ("{chart: 0, coords: 00}", 1, "point entry needs 'chart' (scalar) and 'coords' (list): "
                                  "{'chart': '0', 'coords': '00'}"),
    ("{chart: [0], coords: [0, 0]}", 1, "point entry needs 'chart' (scalar) and 'coords' "
                                        "(list): {'chart': ['0'], 'coords': ['0', '0']}"),
    ("{chart: 0, coords: [0, 0, 0]}", 1, "point in chart 0 has 3 coordinates, expected 2"),
])
def test_bad_points_file_exit_code_without_traceback(capsys, tmp_path, entry, code, message):
    pts = tmp_path / "pts.txt"
    pts.write_text(f"points = [{entry}]\n")
    assert run(capsys, "verify", P2, "--points", str(pts)) == (code, "", f"error: {message}\n")


def test_verify_points_file_builds_each_chart_field_and_local_data_once(
        capsys, tmp_path, monkeypatch):
    pts = tmp_path / "pts.txt"
    pts.write_text("points = [{chart: 0, coords: [0, 0]}, {chart: 1, coords: [0, 0]},"
                   " {chart: 2, coords: [0, 0]}]\n")
    # cli too, so that chart fields the command builds itself are counted.
    fields, divisions, data = count_chart_work(monkeypatch, [cli])

    code, doc = machine(capsys, "verify", P2, "--points", str(pts))
    assert code == 0 and doc["all_ok"]
    assert fields == divisions == {("z0", "z1", "z2"): 1}
    assert len(data) == 3 and set(data.values()) == {1}


@pytest.mark.parametrize("name, text, code, message", [
    ("m.json", "M = [[-2]]", 1,
     "{path}: not a JSON document: Expecting value: line 1 column 1 (char 0)"),
    ("m.json", "[[-2]]", 1, "{path}: expected a JSON object with 'M' and 'I'"),
    ("m.json", '{"I": ["1"]}', 1, "{path}: expected a JSON object with 'M' and 'I'"),
    ("m.json", '{"M": [[-2]]}', 1, "{path}: expected a JSON object with 'M' and 'I'"),
    ("m.json", '{"M": [-2], "I": ["1"]}', 1, "a row of M must be a list, got -2"),
    ("m.json", '{"M": [[-2.0, 1], [1, "-2"]], "I": ["1", "1"]}', 0, None),
    ("m.json", '{"M": [["x"]], "I": ["1"]}', 1,
     "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
    ("p.fol", "numeric.bogus = 1", 1, "unknown numeric option 'bogus'"),
    ("p.fol", "numeric.seed = [1, 2]", 1, "bad numeric value for 'seed': ['1', '2']"),
    ("p.fol", "numeric.eps_levels = 0.001", 1, "bad numeric value for 'eps_levels': '0.001'"),
    ("p.fol", "numeric.eps_levels = [1e-3, 1e-5]", 0, None),
])
def test_malformed_input_exits_without_traceback(capsys, tmp_path, name, text, code, message):
    path = tmp_path / name
    if name.endswith(".fol"):
        text = Path(P2).read_text() + text
    path.write_text(text + "\n")
    argv = ["discrepancy", str(path)] if name.endswith(".json") else ["verify", str(path)]
    got, _, err = run(capsys, *argv)
    assert (got, err) == (code, f"error: {message.format(path=path)}\n" if message else "")


@pytest.mark.parametrize("argv", [
    ("verify", P2, "--bogus"),
    ("cyclic", "--m", "x"),
    ("verify", P2, "--numeric"),
    ("check", P2, "--seed", "1"),
    ("zeros", P2, "--points", P2),
    ("poincare", P2, "--i", "1"),
])
def test_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help"), ("cyclic", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: resilog")


def test_numeric_flags_override_the_file(capsys, tmp_path, monkeypatch):
    fol = tmp_path / "p.fol"
    fol.write_text(Path(P2).read_text() + "numeric.seed = 3\nnumeric.newton_tol = 1e-9\n")
    seen = []
    monkeypatch.setattr(aggregate, "enumerate_singularities",
                        lambda problem, mode, cfg: seen.append(cfg) or [])
    argv = ("zeros", str(fol), "--seed", "5", "--eps-levels", "1e-2,1e-3", "--grid-per-axis", "2")
    assert run(capsys, *argv)[0] == 0
    assert seen == [NumericConfig(seed=5, newton_tol=1e-9, eps_levels=(1e-2, 1e-3),
                                  grid_per_axis=2)]


BAD_NUMERIC = [
    ("newton_tol", "0", "> 0"),
    ("newton_tol", "-1e-9", "> 0"),
    ("newton_max_iter", "0", ">= 1"),
    ("dedupe_radius", "0", "> 0"),
    ("dedupe_radius", "-1", "> 0"),
    ("search_radius", "0", "> 0"),
    ("grid_per_axis", "0", ">= 2"),
    ("grid_per_axis", "1", ">= 2"),
    ("grid_per_axis", "-1", ">= 2"),
    ("eps_levels", "1e-3,1e-3", "two distinct values > 0"),
    ("eps_levels", "0,1e-3", "two distinct values > 0"),
    ("eps_levels", "1e-3,-1e-4", "two distinct values > 0"),
    # Not finite: checked before the range, and once failed inside the engine.
    ("newton_tol", "inf", "finite"),
    ("newton_tol", "nan", "finite"),
    ("dedupe_radius", "inf", "finite"),
    ("search_radius", "1e999", "finite"),
    ("eps_levels", "1e-3,inf", "finite"),
    ("eps_levels", "-inf,1e-3", "finite"),
]


@pytest.mark.parametrize("where", ["flag", "key"])
@pytest.mark.parametrize("name, value, rule", BAD_NUMERIC)
def test_bad_numeric_value_exits_1(capsys, tmp_path, where, name, value, rule):
    fol = tmp_path / "p.fol"
    text = Path(P2).read_text()
    if where == "flag":
        argv = ["zeros", str(fol), "--numeric", f"--{name.replace('_', '-')}={value}"]
    else:
        text += f"numeric.{name} = [{value}]\n" if "," in value else f"numeric.{name} = {value}\n"
        argv = ["zeros", str(fol), "--numeric"]
    fol.write_text(text)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: numeric option {name} must be {rule}, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, value, rule", BAD_NUMERIC)
def test_replace_checks_the_numeric_range(name, value, rule):
    # _replace builds through _make, which goes through NumericConfig.__new__.
    with pytest.raises(ValueError, match=f"^numeric option {name} must be {re.escape(rule)}, "):
        NumericConfig()._replace(**{name: numeric_value(name, value)})


def test_infinite_eps_level_exits_1_before_the_engine(capsys):
    # Fraction(inf) in perturbed_residues once ended in an OverflowError traceback.
    assert run(capsys, "verify", JORDAN, "--eps-levels", "1e-3,inf") == (
        1, "", "error: numeric option eps_levels must be finite, got (0.001, inf)\n")


@pytest.mark.parametrize("name, value", [
    ("seed", "x"),
    ("newton_max_iter", "1.5"),
    ("newton_tol", "tiny"),
    ("eps_levels", "0.001"),
    ("eps_levels", "0.001,x"),
])
def test_unreadable_numeric_flag_exits_1(capsys, name, value):
    # Flags are typed like numeric.* keys, by parse.numeric_value.
    assert run(capsys, "zeros", P2, f"--{name.replace('_', '-')}={value}") == (
        1, "", f"error: bad numeric value for {name!r}: {value!r}\n")


def test_zero_on_a_singular_divisor_exits_2(capsys, tmp_path):
    # [0:0:1] is a zero of the field and lies on both lines of z0*z1.
    fol = tmp_path / "cross.fol"
    fol.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   "field.components = [-3*z0, 2*z1, z2]\ndivisor = z0*z1\n")
    assert run(capsys, "verify", str(fol)) == (
        2, "", "error: divisor is singular at (0, 0); residues there are unsupported\n")


def test_vanishing_cofactor_leaves_the_split_undefined(capsys, tmp_path):
    # The zeros are isolated; [1:0:0] is simple on D = {z2 = 0} with k(p) = 0,
    # so det J = k(p)*det J_D vanishes and only the excess has a closed form.
    fol = tmp_path / "k0.fol"
    fol.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   "field.components = [z0^2, 2*z0*z1 + z2^2, z1*z2 + z0*z2]\n"
                   "divisor = z2\npoints = [{chart: 0, coords: [0, 0]}]\n")
    code, doc = machine(capsys, "verify", str(fol))
    [i0] = [c for c in doc["checks"] if c["i"] == 0]
    assert (i0["totals"]["ordinary"], i0["totals"]["log"]) == (None, None)
    assert doc["notes"] == ["i=0: a zero with vanishing cofactor leaves the ordinary/log "
                            "split undefined; only the variational total is certified"]


def test_equal_eps_levels_exit_1_on_a_degenerate_zero(capsys, tmp_path):
    # A Jordan block at [1:0:0] sends verify through the perturbation engine,
    # whose Richardson step divides by eps1 - eps2.
    fol = tmp_path / "jordan.fol"
    fol.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   "field.components = [z0 + z1, z1, 3*z2]\ndivisor = z2\n"
                   "points = [{chart: 0, coords: [0, 0]}, {chart: 2, coords: [0, 0]}]\n")
    assert run(capsys, "verify", str(fol))[0] == 0
    assert run(capsys, "verify", str(fol), "--eps-levels", "0.001,0.001") == (
        1, "", "error: numeric option eps_levels must be two distinct values > 0, "
               "got (0.001, 0.001)\n")


@pytest.mark.parametrize("flag, message", [
    ("--newton-max-iter 1", "no Newton start converged"),
    ("--dedupe-radius 0.49", "perturbed zero at distance 0.0293 of the search boundary"),
    ("--eps-levels 0.3,0.0001", "zero counts 0 vs 2 at eps levels (0.3, 0.0001)"),
])
def test_perturbation_engine_failures_exit_2(capsys, flag, message):
    # Divergence, a zero on the search boundary, and unstable zero counts at
    # the degenerate zero [1:0:0] each end in one error line.
    assert run(capsys, "verify", JORDAN, *flag.split()) == (2, "", f"error: {message}\n")


def test_residues_are_deterministic_across_hash_seeds():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
               "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "resilog.cli", "residues", JORDAN,
                               "--format", "machine"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert '"method": "perturbation"' in outputs[0]


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}])
def test_closed_stdout_exits_0_without_traceback(unbuffered):
    # As in `resilog verify ... | head -1` once head has exited: the read end
    # of the pipe is closed before the command writes.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(unbuffered, PYTHONPATH=os.pathsep.join(filter(None, path)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "resilog.cli", "verify", P3], cwd=ROOT,
                              env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("chart", [7, -1])
@pytest.mark.parametrize("via", ["file", "--points"])
def test_given_chart_out_of_range_exits_1(capsys, tmp_path, chart, via):
    entry = f"{{chart: {chart}, coords: [0, 0]}}"
    fol = tmp_path / "bad.fol"
    text = (FIXTURES / "p2_example.fol").read_text(encoding="utf-8")
    argv = ["verify", str(fol)]
    if via == "file":
        text += f"points = [{entry}, {{chart: 0, coords: [0, 0]}}]\n"
    else:
        (tmp_path / "pts.fol").write_text(f"points = [{entry}]\n")
        argv += ["--points", str(tmp_path / "pts.fol")]
    fol.write_text(text)
    assert run(capsys, *argv) == (1, "", f"error: point chart {chart} is out of range 0..2\n")


@pytest.mark.parametrize("command", ["verify", "residues"])
@pytest.mark.parametrize("value", ["x", "", "0,,1", "1.5"])
def test_unreadable_i_exits_1(capsys, command, value):
    assert run(capsys, command, P2, f"--i={value}") == (
        1, "", f"error: --i must be 'all' or a comma list of integers, got {value!r}\n")


@pytest.mark.parametrize("problem", [P2, JORDAN])  # simple zeros; a degenerate one too
@pytest.mark.parametrize("command", ["verify", "residues"])
@pytest.mark.parametrize("value", ["-1", "2"])
def test_i_out_of_range_exits_1(capsys, problem, command, value):
    assert run(capsys, command, problem, f"--i={value}") == (
        1, "", f"error: i must lie in 0..1, got {value}\n")


@pytest.mark.parametrize("components, message", [
    # A repeated eigenvalue: chart 0 is (0, z2), a line of zeros.
    ("[z0, z1, 2*z2]", "zero set has dimension 1"),
    # Chart 0 is (z2, 0), affine-linear off the diagonal; chart 1 is not linear.
    ("[z0, z1 + z2, z2]", "component 0 has a term in z2, and exact zero discovery needs "
                          "diagonal charts; use --numeric"),
])
def test_zeros_on_linear_charts_that_have_no_finite_zero_set_exit_2(
        capsys, tmp_path, components, message):
    fol = tmp_path / "p.fol"
    fol.write_text(f"space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   f"field.components = {components}\ndivisor = z2\n")
    assert run(capsys, "zeros", str(fol)) == (2, "", f"error: {message}\n")


FUZZ_FILES = ("p2_example.fol", "p3_example.fol", "not_tangent.fol", "malformed.fol",
              "a2_chain.json")
FUZZ_TEXT = {name: (FIXTURES / name).read_text(encoding="utf-8") for name in FUZZ_FILES}
TOKEN = re.compile(r"\w+|[^\w\s]")
FUZZ_TOKENS = sorted({t for text in FUZZ_TEXT.values() for t in TOKEN.findall(text)})
# A coarse start grid keeps numeric discovery on P^3 to a few ms.
FOL_COMMANDS = (["check"], ["zeros"], ["zeros", "--numeric", "--grid-per-axis", "2"],
                ["residues"], ["verify"], ["poincare"], ["surface"])


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to three edits: a line dropped, duplicated or swapped
    with another, or one token replaced by a token of the fixtures."""
    lines = text.splitlines()  # five lines or more, so never emptied
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "token")))
        j, k = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[j]
        elif kind == "duplicate":
            lines.insert(j, lines[j])
        elif kind == "swap":
            lines[j], lines[k] = lines[k], lines[j]
        elif spans := [m.span() for m in TOKEN.finditer(lines[j])]:
            a, b = draw(st.sampled_from(spans))
            lines[j] = lines[j][:a] + draw(st.sampled_from(FUZZ_TOKENS)) + lines[j][b:]
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", FUZZ_FILES)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_exit_without_traceback(name, data):
    text = data.draw(mutated(FUZZ_TEXT[name]))
    command = (["discrepancy"] if name.endswith(".json")
               else data.draw(st.sampled_from(FOL_COMMANDS)))
    fmt = data.draw(st.sampled_from(("table", "machine")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command[0], str(path), *command[1:], "--format", fmt]) in (0, 1, 2)


def test_warnings_print_as_one_line_each(capsys, tmp_path):
    problem = tmp_path / "square.fol"
    problem.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                       "field.components = [z0, z1, 2*z2]\ndivisor = (z0 - z1)^2*z2\n")
    code, out, err = run(capsys, "check", str(problem))
    assert code == 0 and out.startswith("tangent: yes")
    assert err == ("warning: divisor looks non-reduced (restrictions along random lines are "
                   "not squarefree); residue output is only meaningful for reduced divisors\n")


def test_partial_point_set_exits_2_with_one_warning(capsys):
    code, out, err = run(capsys, "verify", str(FIXTURES / "p2_partial.fol"))
    assert code == 2 and out.startswith("certification level: partial\n")
    assert err == ("warning: point set not certified complete; identity totals may miss "
                   "contributions\n")


@pytest.mark.parametrize("command, flag", [("poincare", "bound_holds"),
                                           ("surface", "carnicer_bound_holds")])
def test_partial_point_set_asserts_no_bound(capsys, command, flag):
    # One of three zeros: the totals are nonnegative but prove nothing.
    partial = str(FIXTURES / "p2_partial.fol")
    code, out, err = run(capsys, command, partial)
    assert code == 2 and out.endswith("\npoint set not certified complete: nothing asserted\n")
    assert "asserted:" not in out
    assert err == ("warning: point set not certified complete; identity totals may miss "
                   "contributions\n")
    code, doc = machine(capsys, command, partial)
    assert code == 2 and doc[flag] is False


def test_parse_error_exit_1(capsys):
    assert run(capsys, "check", MALFORMED) == (
        1, "", "parse error at 4:25: unknown variable 'w1'\n")


@pytest.mark.parametrize("component", ["(" * 400 + "-3*z0" + ")" * 400, "-" * 1200 + "3*z0"])
def test_deep_nesting_exits_1_without_traceback(capsys, tmp_path, component):
    path = tmp_path / "deep.fol"
    path.write_text(Path(P2).read_text().replace("-3*z0", component))
    # The 101st '(' or '-' opens at column 20 + 101 of the components line.
    assert run(capsys, "check", str(path)) == (
        1, "", "parse error at 4:121: more than 100 nested '(' and unary '-'\n")


@pytest.mark.parametrize("depth", [101, 2000])
def test_deep_points_value_exits_1_without_traceback(capsys, tmp_path, depth):
    path = tmp_path / "deep.fol"
    path.write_text(Path(P2).read_text() + "points = " + "[" * depth + "]" * depth + "\n")
    # The value opens at column 10 of line 6; its 101st '[' is 100 columns on.
    assert run(capsys, "verify", str(path)) == (
        1, "", "parse error at 6:110: more than 100 nested '[' and '{'\n")


def test_points_value_at_the_nesting_limit_reaches_the_schema_check(capsys, tmp_path):
    path = tmp_path / "deep.fol"
    path.write_text(Path(P2).read_text() + "points = " + "[" * 100 + "]" * 100 + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: point entry needs 'chart' (scalar) and 'coords' (list)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("via", ["problem", "--points", "discrepancy"])
def test_file_that_is_not_utf8_names_its_path(capsys, tmp_path, via):
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"\xff\xfe" + "points = []\n".encode("utf-16-le"))
    argv = {"problem": ["verify", str(bad)], "--points": ["verify", P2, "--points", str(bad)],
            "discrepancy": ["discrepancy", str(bad)]}[via]
    assert run(capsys, *argv) == (1, "", f"error: {bad}: not UTF-8 text: 'utf-8' codec can't "
                                         "decode byte 0xff in position 0: invalid start byte\n")


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


def test_duplicate_points_count_once(capsys, tmp_path):
    # [1:0:0] twice: its residues must enter each total once.
    pts = tmp_path / "pts.txt"
    pts.write_text(
        "points = [{chart: 0, coords: [0, 0]}, {chart: 0, coords: [0, 0]},"
        " {chart: 1, coords: [0, 0]}, {chart: 2, coords: [0, 0]}]\n"
    )
    code, doc = machine(capsys, "verify", P2, "--points", str(pts))
    assert code == 0 and doc["all_ok"] and doc["level"] == "proved-on-instance"
    assert [c["totals"] for c in doc["checks"]] == [
        {"ordinary": "9", "log": "4", "var": "5"}, {"ordinary": "3", "log": "2", "var": "1"}]
    assert [len(c["records"]) for c in doc["checks"]] == [3, 2]


def test_zeros_table_marks_a_singular_divisor(capsys, tmp_path):
    # z0*z1 is singular at [0:0:1], where simplicity is unknown.
    fol = tmp_path / "cross.fol"
    fol.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   "field.components = [-3*z0, 2*z1, z2]\ndivisor = z0*z1\n")
    code, out, _ = run(capsys, "zeros", str(fol))
    assert code == 0
    assert "  [0:0:1]  chart 2, on divisor, divisor singular\n" in out
    assert out.count("simple") == 2 and "degenerate" not in out
    code, doc = machine(capsys, "zeros", str(fol))
    assert [p["simple"] for p in doc["points"]] == [None, True, True]


def test_degenerate_perturbed_zero_exits_2(capsys, tmp_path, monkeypatch):
    # The Jordan block at [1:0:0] goes to the perturbation engine; a perturbed
    # zero that is degenerate as well is a domain error, not a traceback.
    fol = tmp_path / "jordan.fol"
    fol.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   "field.components = [z0 + z1, z1, 3*z2]\ndivisor = z2\n"
                   "points = [{chart: 0, coords: [0, 0]}, {chart: 2, coords: [0, 0]}]\n")

    def degenerate(ld, p, i):
        raise residue.DegenerateZero("detJ = 0")

    monkeypatch.setattr(residue, "closed_form_residues", degenerate)
    assert run(capsys, "verify", str(fol)) == (
        2, "", "error: a perturbed zero near chart0:0,0 is still degenerate at eps=0.001\n")


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


def test_discrepancy(capsys, tmp_path):
    code, doc = machine(capsys, "discrepancy", A2)
    assert code == 0
    assert doc["b"] == ["1", "1"] and doc["a"] == ["0", "0"]
    assert doc["classification"] == "canonical"
    # Only M and I are read: without its g key the A2 document gives the same bytes.
    without_g = tmp_path / "a2_without_g.json"
    data = json.loads(Path(A2).read_text())
    del data["g"]
    without_g.write_text(json.dumps(data))
    assert (run(capsys, "discrepancy", str(without_g), "--format", "machine")
            == run(capsys, "discrepancy", A2, "--format", "machine"))


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


@pytest.mark.parametrize("fmt", ["machine", "table"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_subparser_parses_like_all_of_them(name, fmt):
    argv = [*CASES[name], "--format", fmt]
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_one_subparser_build_has_only_that_command(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser("verify").parse_args(["check", "p.fol"])
    assert "invalid choice: 'check' (choose from 'verify')" in capsys.readouterr().err


USAGE_LINES = [[], ["--help"], ["bogus"], ["verify", "p.fol", "extra"], ["zeros", "p.fol", "--bogus"],
               ["verify"], *([name, "--help"] for name in cli.COMMANDS)]


@pytest.mark.parametrize("argv", USAGE_LINES, ids=" ".join)
def test_one_subparser_prints_what_all_of_them_print(capsys, argv):
    def outcome(call):
        with pytest.raises(SystemExit) as exc:
            call()
        return exc.value.code, *capsys.readouterr()

    assert outcome(lambda: main(argv)) == outcome(lambda: cli.build_parser().parse_args(argv))


def help_options(capsys, command: str) -> set:
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return set(re.findall(r"--[a-z-]+", capsys.readouterr().out))


@pytest.mark.parametrize("command", ["zeros", "residues", "verify", "poincare", "surface"])
def test_degree_2_field_hint_names_options_the_command_has(capsys, tmp_path, command):
    fol = tmp_path / "deg2.fol"
    fol.write_text("space.dim = 2\nfield.vars = [z0, z1, z2]\n"
                   "field.components = [z0*(z0 + z1), z1*(2*z1 - z2), z2*(z0 + 3*z2)]\n"
                   "divisor = z2\n")
    code, out, err = run(capsys, command, str(fol))
    assert (code, out) == (2, "") and err.count("\n") == 1
    # Each option is named for the command right before it, else for this one.
    named = re.findall(r"(?:resilog (\w+) )?(--[a-z-]+)", err)
    assert named
    for other, option in named:
        assert option in help_options(capsys, other or command)


NO_NUMPY = """
import contextlib, io, sys
from resilog.aggregate import verify_identities
from resilog.cli import main
from resilog.parse import parse_problem

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in {cases!r}:
        main([*argv, "--format", "machine"])
    verify_identities(parse_problem(open("fixtures/p3_example.fol").read()).problem)
print("numpy" in sys.modules)
"""


def test_no_golden_case_loads_numpy():
    # zeros --numeric and the perturbation engine's Jordan cases included.
    assert len(CASES) == 19
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY.format(cases=list(CASES.values()))],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
