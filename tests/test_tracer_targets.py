"""The benchmark's tracer wraps resilog functions by module and name; a
rename, or a module that ``import resilog.cli`` no longer loads, must fail
here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, attribute", [t[:3] for t in tracer_targets()])
def test_tracer_target_exists(name, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), name


IMPORT_CLI = """
import sys
before = set(sys.modules)
import resilog.cli
added = sorted(set(sys.modules) - before)
import json
print(json.dumps({"loaded": sorted(sys.modules), "added": added}))
"""


def test_importing_the_cli_loads_every_tracer_target_module():
    # The traced CLI child installs the tracer right after ``import
    # resilog.cli``, and the tracer looks every target module up in sys.modules.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    modules = json.loads(proc.stdout)
    assert {t[1] for t in tracer_targets()} <= set(modules["loaded"])
    assert "string" not in modules["added"]
