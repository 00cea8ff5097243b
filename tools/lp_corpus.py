"""Byte-identity corpus for the 2-qubit Wigner-distance LP.

For each seed 1..30 it builds the ``magic2q`` benchmark item list with
``bench.workloads.build_items`` and runs ``mss.magic.wigner_distance`` on
every state, with ``mss.magic.solve_lp`` wrapped to record each
``LPSolution``.  It prints one line per seed: the first 16 hex digits of a
sha256 over every ``MagicResult`` field and every solve's ``iterations``,
``flips``, ``fun``, ``x`` and ``duals``, then the seed, then the seed's
total pivots and flips over its 200 solves.  Running it in two trees and
diffing the outputs lists the seeds whose LP outcome differs:

    python tools/lp_corpus.py > after.txt
    diff before.txt after.txt

The benchmark's files are imported, never written: no bytecode is cached.
The tool takes no options.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 31)
SOLVE_FIELDS = ("iterations", "flips", "fun", "x", "duals")


def _encode(value) -> bytes:
    """A field's exact bytes: an array's dtype, shape and data, a number's repr."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return repr(value).encode()


def seed_digest(seed: int) -> tuple[str, int, int]:
    """The digest of one seed's ``magic2q`` item list, solved in this
    process, with the total pivots and flips of its solves."""
    import mss.magic
    from bench.workloads import build_items

    items = build_items("magic2q", seed)
    solve_lp = mss.magic.solve_lp
    solves = []

    def recorded(*args, **kwargs):
        solves.append(solve_lp(*args, **kwargs))
        return solves[-1]

    digest = hashlib.sha256()
    pivots = flips = 0
    mss.magic.solve_lp = recorded
    try:
        for item in items:
            result = mss.magic.wigner_distance(item.rho)
            parts = [_encode(getattr(result, f.name)) for f in dataclasses.fields(result)]
            parts += [_encode(getattr(sol, name)) for sol in solves for name in SOLVE_FIELDS]
            pivots += sum(sol.iterations for sol in solves)
            flips += sum(sol.flips for sol in solves)
            solves.clear()
            for part in parts:
                digest.update(len(part).to_bytes(8, "big") + part)
    finally:
        mss.magic.solve_lp = solve_lp
    return digest.hexdigest()[:16], pivots, flips


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tools/lp_corpus.py  (no options)", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for seed in SEEDS:
        digest, pivots, flips = seed_digest(seed)
        print(f"{digest}  {seed}  {pivots} pivots  {flips} flips")
    return 0


if __name__ == "__main__":
    sys.exit(main())
