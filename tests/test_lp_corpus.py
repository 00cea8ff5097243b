"""Smoke test of tools/lp_corpus.py, the 2-qubit LP byte-identity corpus."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from mss.magic import MagicResult
from mss.simplex import LPSolution

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lp_corpus.py"
FIELDS = ([f"MagicResult.{f.name}" for f in dataclasses.fields(MagicResult)]
          + [f"LPSolution.{f.name}" for f in dataclasses.fields(LPSolution)])


def test_one_digest_per_field_and_seed_matching_an_in_process_run(monkeypatch):
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                            timeout=120, check=False)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    per_seed = len(FIELDS) + 1
    assert len(lines) == 30 * per_seed
    for seed in range(1, 31):
        block = lines[(seed - 1) * per_seed:seed * per_seed]
        assert [line.split()[:2] for line in block[:-1]] == [[str(seed), name] for name in FIELDS]
        assert all(re.fullmatch(r"\d+  \S+  [0-9a-f]{16}", line) for line in block[:-1])
        assert re.fullmatch(rf"{seed}  200 solves  \d+ pivots  \d+ flips", block[-1])

    spec = importlib.util.spec_from_file_location("lp_corpus", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert tool.seed_lines(1) == lines[:per_seed]
