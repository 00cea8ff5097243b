"""Byte-identity corpus for the 2-qubit Wigner-distance LP, field by field.

For each seed 1..30 it builds the ``magic2q`` benchmark item list with
``bench.workloads.build_items`` and runs ``mss.magic.wigner_distance`` on
every state, with ``mss.magic.solve_lp`` wrapped to record each
``LPSolution``.  Per seed it prints one line per ``MagicResult`` field and
one per ``LPSolution`` field: the seed, the field, and the first 16 hex
digits of a sha256 over that field's bytes in every result (or every solve)
of the seed.  A last line per seed gives its solves and their total pivots
and flips.  Running it in two trees and diffing the outputs lists the
seeds, and the fields, whose LP outcome differs:

    python tools/lp_corpus.py > after.txt
    diff before.txt after.txt

A field that only one tree has shows as a line only that side prints.  The
benchmark's files are imported, never written: no bytecode is cached.  The
tool takes no options.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 31)


def _encode(value) -> bytes:
    """A field's exact bytes, length-prefixed: an array's dtype, shape and
    data, a number's repr."""
    if isinstance(value, np.ndarray):
        data = f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    else:
        data = repr(value).encode()
    return len(data).to_bytes(8, "big") + data


def seed_digests(seed: int) -> tuple[dict[str, str], int, int, int]:
    """({"Type.field": digest}, solves, pivots, flips) of one seed's
    ``magic2q`` item list, solved in this process."""
    import mss.magic
    from bench.workloads import build_items

    items = build_items("magic2q", seed)
    solve_lp = mss.magic.solve_lp
    solves = []

    def recorded(*args, **kwargs):
        solves.append(solve_lp(*args, **kwargs))
        return solves[-1]

    digests = {}
    mss.magic.solve_lp = recorded
    try:
        results = [mss.magic.wigner_distance(item.rho) for item in items]
    finally:
        mss.magic.solve_lp = solve_lp
    for records in (results, solves):
        for f in dataclasses.fields(records[0]):
            digest = hashlib.sha256()
            for record in records:
                digest.update(_encode(getattr(record, f.name)))
            digests[f"{type(records[0]).__name__}.{f.name}"] = digest.hexdigest()[:16]
    return (digests, len(solves), sum(sol.iterations for sol in solves),
            sum(sol.flips for sol in solves))


def seed_lines(seed: int) -> list[str]:
    """The lines the tool prints for one seed."""
    digests, solves, pivots, flips = seed_digests(seed)
    lines = [f"{seed}  {name}  {digest}" for name, digest in digests.items()]
    return lines + [f"{seed}  {solves} solves  {pivots} pivots  {flips} flips"]


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tools/lp_corpus.py  (no options)", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for seed in SEEDS:
        print("\n".join(seed_lines(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
