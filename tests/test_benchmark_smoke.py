"""The benchmark's smallest in-process runs, checked by its own model.

`perfbench/model.py` prices nodes and searches paths without importing the
package, and `perfbench/run.py` checks every answer against it. Running it
here cross-checks the program's billing arithmetic against that independent
model. The test only reads `perfbench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["plan-bsearch", "simulate-compare"])
def test_smoke_run_answers_are_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
