"""Byte-for-byte pins on the CLI's stdout for the README commands.

Each case's expected stdout lives in ``tests/golden/<name>.<format>.txt``.
"""

from pathlib import Path

import pytest

from resilog.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    f"{cmd.replace(' --', '_')}_{fixture}": [*cmd.split(), f"fixtures/{fixture}.fol"]
    for cmd in ("check", "zeros", "zeros --numeric", "residues", "verify",
                "poincare", "surface")
    for fixture in ("p2_example", "p3_example")
}
CASES["discrepancy_a2_chain"] = ["discrepancy", "fixtures/a2_chain.json"]
CASES["cyclic_m7"] = ["cyclic", "--m", "7"]
CASES["verify_p2_partial"] = ["verify", "fixtures/p2_partial.fol"]
# The perturbation engine's cases: a Jordan block at [1:0:0].
CASES.update({f"{cmd}_p2_jordan": [cmd, "fixtures/p2_jordan.fol"]
              for cmd in ("residues", "verify")})
# A degree-2 Lotka-Volterra field given all 7 zeros, four of them off the
# coordinate vertices: exact local data at given points.
CASES.update({f"{cmd}_lv_p2": [cmd, "fixtures/lv_p2.fol"] for cmd in ("residues", "verify")})


def stdout_of(argv, capsys, monkeypatch) -> str:
    monkeypatch.chdir(ROOT)
    main(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["machine", "table"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, fmt, capsys, monkeypatch):
    out = stdout_of([*CASES[name], "--format", fmt], capsys, monkeypatch)
    assert out == (GOLDEN / f"{name}.{fmt}.txt").read_text(encoding="utf-8")
