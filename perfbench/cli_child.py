"""Traced stand-in for ``python -m resilog.cli`` used by traced cli_cold runs.

    PERFBENCH_SUMMARY=out.json python -X importtime perfbench/cli_child.py verify p.fol

Runs ``resilog.cli.main`` with the tracer installed and writes the per-layer
summary and spans to the file named by PERFBENCH_SUMMARY.  An uncaught
exception still ends the process with a traceback and exit code 1, as the
real entry point does.
"""

import json
import os
import sys
from pathlib import Path

from tracer import Tracer

import resilog.cli


def main() -> int:
    tracer = Tracer()
    tracer.op = 0
    try:
        with tracer.installed():
            return resilog.cli.main(sys.argv[1:])
    finally:
        Path(os.environ["PERFBENCH_SUMMARY"]).write_text(
            json.dumps({**tracer.summary(), "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
