"""Smoke test of tools/lp_corpus.py, the 2-qubit LP byte-identity corpus."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lp_corpus.py"


def test_one_line_per_seed_matching_an_in_process_run(monkeypatch):
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                            timeout=120, check=False)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert [line.split()[1] for line in lines] == [str(seed) for seed in range(1, 31)]
    assert all(re.fullmatch(r"[0-9a-f]{16}  \d+  \d+ pivots  \d+ flips", line) for line in lines)

    spec = importlib.util.spec_from_file_location("lp_corpus", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    digest, pivots, flips = tool.seed_digest(1)
    assert lines[0] == f"{digest}  1  {pivots} pivots  {flips} flips"
