"""Per-module set-up cost of the ``mss`` package.

For each ``src/mss/*.py`` this prints its size in bytes and lines, the
minimum time of ``compile()`` on its source, and the minimum time to run the
compiled module body once more (class and dataclass creation, tables built at
import).  The bodies run in a throwaway module object with every ``mss``
module already imported, so each figure is the module's own cost, not its
imports'.  Nothing is cached on disk and nothing in ``sys.modules`` changes.

Run from the repository root:

    python tools/setup_cost.py [--repeat N]
"""

from __future__ import annotations

import argparse
import sys
import time
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mss"


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
