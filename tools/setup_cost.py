"""Set-up cost of the ``mss`` package: per module, then per first-use fill.

For each ``src/mss/*.py`` this prints its size in bytes and lines, the
minimum time of ``compile()`` on its source, and the minimum time to run the
compiled module body once more (class and dataclass creation, tables built at
import).  The bodies run in a throwaway module object with every ``mss``
module already imported, so each figure is the module's own cost, not its
imports'.

A second table, after a blank line, times the caches that the benchmark's
set-up (``bench/worker.py:set_up``) fills on a fresh import, step by step:
the 1-qubit stabilizer set, the Clifford table, the 2-qubit stabilizer set
(without the Clifford table), the first 1-qubit Wigner distance (closed form)
and the first 2-qubit one (the LP).
Each repeat imports a fresh copy of the package first, untimed.  The two
tables together cover the parts of the benchmark's ``setup_s``: compiling,
running the module bodies, and the fills.  Nothing is cached on disk, and
``sys.modules`` is left as it was found.

Run from the repository root:

    python tools/setup_cost.py [--repeat N]
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
import time
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mss"

# The steps of bench/worker.py:set_up, each given a fresh package; the
# Cliffords come before the 2-qubit set, which would otherwise fill them.
FILLS = (
    ("stabilizer_states(1)", lambda mss: mss.stabilizer.enumerate_stabilizer_states(1)),
    ("single_qubit_cliffords", lambda mss: mss.stabilizer.single_qubit_cliffords()),
    ("stabilizer_states(2)", lambda mss: mss.stabilizer.enumerate_stabilizer_states(2)),
    ("wigner_distance(1q)", lambda mss: mss.magic.wigner_distance(_t_state(mss).density())),
    ("wigner_distance(2q)", lambda mss: mss.magic.wigner_distance(
        mss.qcore.tensor(_t_state(mss), _t_state(mss)).density())),
)


def _t_state(mss):
    return mss.qcore.phase_plus(math.pi / 4)


def min_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def module_cost(path: Path, repeat: int) -> tuple[int, int, float, float]:
    """(bytes, lines, compile ms, body ms) of one module, minima over ``repeat`` runs."""
    source = path.read_text()
    code = compile(source, str(path), "exec", dont_inherit=True)
    name = "mss" if path.stem == "__init__" else f"mss.{path.stem}"

    def run_body():
        module = types.ModuleType(name)
        module.__file__, module.__package__ = str(path), "mss"
        if path.stem == "__init__":
            module.__path__ = [str(PACKAGE)]
        exec(code, module.__dict__)

    compile_ms = min_ms(lambda: compile(source, str(path), "exec", dont_inherit=True), repeat)
    return (len(source.encode()), source.count("\n"), compile_ms, min_ms(run_body, repeat))


def _drop_mss() -> dict:
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "mss" or name.startswith("mss.")}


def fill_costs(repeat: int) -> list[float]:
    """Minimum ms of each step of ``FILLS``, each repeat on a fresh import."""
    best = [float("inf")] * len(FILLS)
    saved = _drop_mss()
    try:
        for _ in range(repeat):
            _drop_mss()
            importlib.import_module("mss.cli")
            mss = sys.modules["mss"]
            for i, (_, fill) in enumerate(FILLS):
                start = time.perf_counter()
                fill(mss)
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        _drop_mss()
        sys.modules.update(saved)
    return [t * 1e3 for t in best]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=20,
                        help="timed runs per module; the minimum is shown (default %(default)s)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(PACKAGE.parent))
    import mss.cli  # noqa: F401  every module, so the bodies below import nothing

    rows = [(path.name, *module_cost(path, args.repeat)) for path in sorted(PACKAGE.glob("*.py"))]
    print(f"{'module':<14} {'bytes':>7} {'lines':>6} {'compile_ms':>11} {'exec_ms':>8}")
    for name, size, lines, compile_ms, exec_ms in rows:
        print(f"{name:<14} {size:>7} {lines:>6} {compile_ms:>11.2f} {exec_ms:>8.2f}")
    totals = [sum(row[i] for row in rows) for i in range(1, 5)]
    print(f"{'total':<14} {totals[0]:>7} {totals[1]:>6} {totals[2]:>11.2f} {totals[3]:>8.2f}")

    fills = fill_costs(args.repeat)
    print(f"\n{'first_use':<24} {'ms':>8}")
    for (name, _), ms in zip(FILLS, fills):
        print(f"{name:<24} {ms:>8.2f}")
    print(f"{'total':<24} {sum(fills):>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
