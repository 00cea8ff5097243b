"""tools/cli_corpus.py, the CLI byte-identity corpus: its format, and its
output against the golden copy in tests/cli_corpus.txt."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_corpus.txt"
SUBCOMMANDS = {"run", "scan", "gate-check", "magic-eval", "certify", "experiment",
               "dump-stabilizers"}


@pytest.fixture(scope="module")
def corpus_runs() -> list[str]:
    """The tool's output from two separate processes."""
    outputs = []
    for _ in range(2):
        result = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_corpus.py")],
                                capture_output=True, text=True, timeout=120, check=False)
        assert (result.returncode, result.stderr) == (0, "")
        outputs.append(result.stdout)
    return outputs


def test_every_case_reruns_byte_identically_in_a_new_process(corpus_runs):
    assert corpus_runs[0] == corpus_runs[1]


def test_every_subcommand_runs_in_every_format(corpus_runs):
    lines = corpus_runs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{16}  mss( .+)?", line) for line in lines)
    argvs = [shlex.split(line)[2:] for line in lines]
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    covered = {(argv[0], argv[argv.index("--format") + 1], "--out" in argv)
               for argv in argvs if "--format" in argv}
    assert covered == {(name, fmt, out) for name in SUBCOMMANDS
                       for fmt in ("json", "csv", "pretty") for out in (False, True)}


def build() -> str:
    """This process's numpy version and BLAS, as the golden file's header names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def test_matches_the_golden_corpus(corpus_runs):
    # A change that moves a CLI output updates tests/cli_corpus.txt, so the
    # moved cases show in its diff.  Float output can also differ across
    # numpy and BLAS builds, so a mismatch names both builds.
    text = GOLDEN.read_text().splitlines()
    made_with = [line for line in text if line.startswith("#")][-1].removeprefix("# ")
    golden = [line for line in text if not line.startswith("#")]
    lines = corpus_runs[0].splitlines()
    moved = [f"{want!r} -> {got!r}" for want, got in zip(golden, lines) if want != got]
    assert len(lines) == len(golden) and not moved, (
        f"{len(moved)} of {len(golden)} lines differ from {GOLDEN.name} "
        f"(made with {made_with}; this run: {build()}): " + "; ".join(moved[:5]))
