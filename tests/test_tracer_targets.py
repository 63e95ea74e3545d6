"""The benchmark's tracer wraps resilog functions by module and name; a
rename must fail here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, attribute", [t[:3] for t in tracer_targets()])
def test_tracer_target_exists(name, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), name
