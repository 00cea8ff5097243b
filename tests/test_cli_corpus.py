"""Smoke test of tools/cli_corpus.py, the CLI byte-identity corpus."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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
