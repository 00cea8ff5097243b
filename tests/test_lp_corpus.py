"""tools/lp_corpus.py, the 2-qubit LP byte-identity corpus: its format, and
its output against the golden copy in tests/lp_corpus.txt."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mss.magic import MagicResult
from mss.simplex import LPSolution

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lp_corpus.py"
GOLDEN = ROOT / "tests" / "lp_corpus.txt"
FIELDS = ([f"MagicResult.{f.name}" for f in dataclasses.fields(MagicResult)]
          + [f"LPSolution.{f.name}" for f in dataclasses.fields(LPSolution)])


@pytest.fixture(scope="module")
def lines():
    """The tool's output lines, from one run for the module."""
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                            timeout=120, check=False)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout.splitlines()


def build() -> str:
    """This process's numpy version and BLAS, as the golden file's header names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def test_one_digest_per_field_and_seed_matching_an_in_process_run(lines, monkeypatch):
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


def test_matches_the_golden_corpus(lines):
    # A change that moves an LP outcome updates tests/lp_corpus.txt, so the
    # moved lines show in its diff.  Float digests can also differ across
    # numpy and BLAS builds, so a mismatch names both builds.
    header = [line for line in GOLDEN.read_text().splitlines() if line.startswith("#")]
    golden = [line for line in GOLDEN.read_text().splitlines() if not line.startswith("#")]
    made_with = header[-1].removeprefix("# ")
    moved = [f"{want!r} -> {got!r}" for want, got in zip(golden, lines) if want != got]
    assert len(lines) == len(golden) and not moved, (
        f"{len(moved)} of {len(golden)} lines differ from {GOLDEN.name} "
        f"(made with {made_with}; this run: {build()}): " + "; ".join(moved[:5]))
