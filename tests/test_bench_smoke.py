"""The benchmark's smoke pass, run as a subprocess: every workload's set-up
and oracle run against this tree's ``src/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_passes_its_smoke_run():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all", "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"experiment", "certify", "protocol", "magic2q"} <= set(results)
    for name, result in results.items():
        assert (result["correct"], result["failed"]) == (True, 0), (name, result)
