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
dataclasses = sorted(name for module, m in list(sys.modules.items())
                     if module.startswith("resilog") for name, obj in vars(m).items()
                     if isinstance(obj, type) and obj.__module__ == module
                     and hasattr(obj, "__dataclass_fields__"))
import json
print(json.dumps({"loaded": sorted(sys.modules), "added": added, "dataclasses": dataclasses}))
"""


def import_cli() -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_every_tracer_target_module():
    # The traced CLI child installs the tracer right after ``import
    # resilog.cli``, and the tracer looks every target module up in sys.modules.
    modules = import_cli()
    assert {t[1] for t in tracer_targets()} <= set(modules["loaded"])
    assert "string" not in modules["added"]


def test_only_the_records_perfbench_rebuilds_stay_dataclasses():
    # The other records are NamedTuples, which generate no code at import;
    # perfbench/smoke.py rebuilds these three with dataclasses.replace.
    assert import_cli()["dataclasses"] == ["DiscrepancyResult", "GlobalReport", "IdentityCheck"]
