"""The differential digest script (tests/differential.py) runs and is stable."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_differential_digest_does_not_depend_on_the_hash_seed():
    # 24 problems visit every family three times.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    digests = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
               "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "tests/differential.py", "--seed", "7",
                               "--count", "24"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        digests.append(proc.stdout)
    assert re.fullmatch(r"[0-9a-f]{64}\n", digests[0])
    assert digests[0] == digests[1]
