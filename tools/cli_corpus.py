"""Byte-identity corpus for the ``mss`` command line.

Runs ``mss.cli.main`` in-process on a fixed list of argument vectors and
prints one line per case: a sha256 of its exit code, stdout, stderr and
every file it wrote, then the argv.  Running it in two trees and diffing
the outputs lists the cases whose output differs:

    python tools/cli_corpus.py > after.txt
    diff before.txt after.txt

The corpus runs every subcommand in each of the json, csv and pretty
formats, each once more with ``--out``, every named ``magic-eval`` state,
plus ``-h``, usage errors and a ``--config`` file.  ``COLUMNS`` is fixed at
80 for argparse's help layout.
Each case writes into a fresh temporary directory, whose path appears as
``{out}`` in the printed argv and in the hashed output; ``{cfg}`` is the
config file.  The tool takes no options.
"""

from __future__ import annotations

import hashlib
import io
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = ("json", "csv", "pretty")
PI_8, PI_4 = "0.39269908169872414", "0.7853981633974483"
PI_2, PI = "1.5707963267948966", "3.141592653589793"
NOISE = "0.003,0.015,0.01"

# Each runs once per format, and once per format with --out {out}/result.
COMMANDS = [
    ["run", "--phi", PI_4, "--outcomes", "+-"],
    ["run", "--phi", "1.3", "--n", "5", "--seed", "7"],
    ["run", "--phi", "45", "--degrees", "--outcomes=--"],
    # fl(pi): the closed form is clamped at 1e-10 like the protocol's C
    ["run", "--phi", "3.141592653589793", "--outcomes", "++"],
    # every non-recipient holds I/2 to the bit: trace_distance_to_i2 is 0.0
    ["run", "--phi", "0.3", "--n", "3", "--outcomes", "++"],
    ["run", "--phi", "0.3", "--n", "4", "--outcomes", "+-+"],
    ["scan", "--grid", "0:1.5:4"],
    ["scan", "--grid=-3.2:3.2:9", "--n", "6"],
    ["scan", "--grid", "0:6.283185307179586:5"],
    ["gate-check", "--matrix", "1,0,0,0,0,0,0.7071067811865476,0.7071067811865476"],
    ["gate-check", "--matrix", "1,0,0,0,0,0,0.9,0"],
    ["gate-check", "--matrix", "0.7071067811865476,0,0,0.7071067811865476,"
                               "0,0.7071067811865476,0.7071067811865476,0"],
    # a unitarity defect of 6e-11, and one of 6e-10, either side of the gate tolerance
    ["gate-check", "--matrix", "1.00000000003,0,0,0,0,0,1,0"],
    ["gate-check", "--matrix", "1.0000000003,0,0,0,0,0,1,0"],
    ["magic-eval", "--phi", PI_8],
    ["magic-eval", "--bloch", "0.3,0.4,0.5"],
    # outside the octahedron with one coordinate under the level t, inside
    # it, and on a great circle with a zero coordinate
    ["magic-eval", "--bloch", "0.9,0.4,0.05"],
    ["magic-eval", "--bloch", "0.2,-0.3,0.1"],
    ["magic-eval", "--bloch", "0,0.8,0.6"],
    *(["magic-eval", "--state", name]
      for name in ("zero", "one", "plus", "minus", "plus_i", "minus_i", "T", "mixed")),
    *(["certify", "--phi", phi] for phi in (PI_8, PI_4, "1.3", "2e-10", "1e-9",
                                            "3.141592653589793", "-2.2", "1.5707963267948966")),
    *(["certify", "--phi", PI_8, "--shots", "1024", "--seed", seed, "--boot", "100",
       "--noise", NOISE] for seed in ("1", "2", "3")),
    ["certify", "--phi", "3.14159", "--shots", "4096", "--seed", "3", "--boot", "150",
     "--noise", NOISE],
    ["experiment", "--phis", f"{PI_8},1.3", "--shots", "256", "--seed", "5", "--boot", "100"],
    ["experiment", "--phis", "0.2,3.0,-1", "--shots", "512", "--seed", "9", "--boot", "100",
     "--noise", NOISE],
    # Sampled at pi/2 and fl(pi), where the recipient's conditional rates sit
    # at or within an ulp of 1/2 and a last-bit change swaps counts.
    *(["experiment", "--phis", f"{PI_2},{PI}", "--shots", "512", "--seed", "7", "--boot", "100",
       *noise] for noise in ((), ("--noise", NOISE))),
    *(["certify", "--phi", phi, "--shots", "512", "--seed", "7", "--boot", "100", *noise]
      for phi in (PI_2, PI) for noise in ((), ("--noise", NOISE))),
    ["dump-stabilizers"],
    ["dump-stabilizers", "--n", "2"],
]

OTHER = [
    ["-h"], ["--help"],
    *([name, "-h"] for name in ("run", "scan", "gate-check", "magic-eval", "certify",
                                "experiment", "dump-stabilizers")),
    [], ["bogus"], ["run"], ["run", "--phi", "x"], ["run", "--phi", PI_4],
    ["run", "--phi", PI_4, "--outcomes", "+"], ["run", "--phi", PI_4, "--seed", "-1"],
    ["run", "--phi", PI_4, "--n", "9", "--outcomes", "++++++++"],
    ["run", "--phi", PI_4, "--outcomes", "++", "--extra"],
    ["scan", "--grid", "0:1:0"], ["scan", "--grid", "0:nan:3"],
    ["gate-check", "--matrix", "1,0,0"], ["gate-check", "--matrix", "nan,0,0,0,0,0,1,0"],
    ["gate-check", "--matrix", "1,0,0,0,0,0,1,0", "--probes=,"],
    ["gate-check", "--matrix", "1e308,0,0,0,1e308,0,1,0"],
    ["magic-eval"], ["magic-eval", "--phi", "0.3", "--state", "T"],
    ["magic-eval", "--bloch", "1,1"], ["magic-eval", "--bloch", "1e200,0,0"],
    ["magic-eval", "--phi", "inf"],
    ["certify", "--phi", "nan"], ["certify", "--phi", "0.3", "--shots", "100"],
    ["certify", "--phi", "0.3", "--shots", "50", "--seed", "1", "--boot", "1"],
    ["experiment", "--phis", "0.3", "--seed", "1", "--boot", "1"],
    ["experiment", "--phis", "0.3", "--seed", "1", "--noise", "0,0"],
    ["dump-stabilizers", "--n", "3"],
    ["run", "--phi", PI_4, "--outcomes", "++", "--out", "{out}/missing/result"],
    ["experiment", "--phis", "0.3", "--shots", "256", "--seed", "1", "--boot", "100",
     "--out", "{out}/missing/exp"],
    ["run", "--config", "{cfg}", "--phi", PI_4],
    ["certify", "--config", "{cfg}", "--phi", PI_8, "--shots", "512", "--seed", "4"],
    ["run", "--config", "{out}/absent.cfg", "--phi", PI_4, "--outcomes", "++"],
]

CONFIG = "# shared defaults\nformat = csv\nseed = 11\noutcomes = -+\nboot = 100\nunknown = 1\n"


def corpus() -> list[list[str]]:
    cases = []
    for argv in COMMANDS:
        cases += [[*argv, "--format", fmt] for fmt in FORMATS]
        cases += [[*argv, "--format", fmt, "--out", "{out}/result"] for fmt in FORMATS]
    return cases + OTHER


def run_case(main, argv: list[str], cfg: Path) -> str:
    """The digest of one in-process run: exit code, stdout, stderr and written files."""
    with tempfile.TemporaryDirectory() as tmp:
        places = {"{out}": tmp, "{cfg}": str(cfg)}
        real = [arg.replace("{out}", tmp).replace("{cfg}", str(cfg)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(real)
            except SystemExit as exc:  # argparse's -h and usage errors
                code = exc.code
        parts = [str(code), out.getvalue(), err.getvalue()]
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                parts += [str(path.relative_to(tmp)), path.read_text()]
    digest = hashlib.sha256()
    for part in parts:
        for placeholder, value in places.items():
            part = part.replace(value, placeholder)
        data = part.encode()
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()[:16]


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tools/cli_corpus.py  (no options)", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(SRC))
    from mss.cli import main as mss_main

    with tempfile.TemporaryDirectory() as cfg_dir:
        cfg = Path(cfg_dir) / "mss.cfg"
        cfg.write_text(CONFIG)
        for argv in corpus():
            print(f"{run_case(mss_main, argv, cfg)}  {shlex.join(['mss', *argv])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
