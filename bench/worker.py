"""One benchmark process: set up ``mss``, run one workload's passes, print JSON.

``bench/run.py`` starts this script in a fresh process per workload with
BLAS and OpenMP pinned to one thread.  The workload's fixed item list runs
in a fixed number of passes, ``pass_count``: ``--seconds`` divided by the
workload's nominal pass time (exactly one pass with ``--smoke``).  Every
output is checked by its oracle, and one JSON object goes to stdout.  The
count depends on nothing measured, so ``attempted`` and ``failed`` repeat
exactly for a seed and ``--seconds``.

Timings are paired with a reference.  Right after each item, and after each
set-up, a fixed kernel (``reference``: numpy row operations and a
pure-Python loop, the mix the package runs) is timed for about a quarter of
the item's length.  An item's figure is the median over passes of its time
divided by its reference time, times the reference's nominal time
(``KERNEL_CALL_S`` per kernel call).  The figures are thus seconds on a CPU
that runs one kernel call in ``KERNEL_CALL_S``, and a slow period of the
host, which slows item and reference alike, cancels.  On the shared 2-vCPU
host the benchmark was defined on, an identical 2-qubit LP solve took 7.7 to
13.5 ms (per-second medians) within 40 s, and unpaired times of whole runs
moved by up to 50 %.  ``wall_s`` is the sum of the item figures,
``item_ms_p50`` their median, ``setup_s`` the figure of a set-up of a fresh
copy of the package (nine before the first pass, one after each pass).
The unpaired ``raw_wall_s``, each item's fastest pass summed, is printed
alongside.

With ``--trace 1`` untraced and traced passes alternate, so the traced wall
time is compared with an untraced one from the same process.  Per-layer
metrics are medians over the traced passes, and the exact-repeat counters
must agree across them.  The spans of set-up and of the first traced pass are
written to ``bench/traces/<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy  # noqa: E402

from run import THREAD_VARS  # noqa: E402
from tracer import Tracer, aggregate, dump_jsonl, self_times  # noqa: E402
from workloads import (OracleFailure, build_items, check_item,  # noqa: E402
                       is_known_defect, run_item)

# Counters that repeat exactly for a given seed; checked across traced passes.
EXACT_COUNTERS = ("simplex.solves", "simplex.pivots", "magic.wigner_distance.calls",
                  "qcore.dm_constructions", "tomo.bootstrap.replicas")
MAX_REPORTED_FAILURES = 5

# The reference defines the unit of every reported time; changing the kernel,
# KERNEL_CALL_S or the call counts re-bases all timings.  KERNEL_CALL_S is
# about one call on the host the benchmark was defined on, when quiet.  Each
# count makes the reference about a quarter of that workload's item.
KERNEL_CALL_S = 0.0003
REFERENCE_CALLS = {"experiment": 700, "certify": 450, "protocol": 4, "magic2q": 5}
SETUP_REFERENCE_CALLS = 70
# Nominal seconds of one untraced pass, items and references; they set the
# pass count only.  A 20 s run makes 4 passes of experiment, 3 of certify,
# 11 of protocol and 6 of magic2q, and took 18 to 32 s on the 2-vCPU host the
# benchmark was defined on.
PASS_SECONDS = {"experiment": 5.0, "certify": 6.5, "protocol": 1.8, "magic2q": 3.5}
# A pass that ends later than this after the first one started is the last,
# so that a run ends within 180 s even on a host many times slower.
PASS_DEADLINE_S = 120.0
_KERNEL_MATRIX = numpy.linspace(1.0, 2.0, 12 * 30).reshape(12, 30) + 5.0 * numpy.eye(12, 30)


def reference(calls: int) -> float:
    """Seconds for ``calls`` runs of a fixed kernel: Gauss-Jordan row operations
    on a 12 x 30 matrix plus a pure-Python loop."""
    start = time.perf_counter()
    for _ in range(calls):
        a = _KERNEL_MATRIX.copy()
        for k in range(12):
            a[k] /= a[k, k]
            for i in range(12):
                if i != k:
                    a[i] -= a[i, k] * a[k]
        total = 0
        for j in range(2000):
            total += j % 7
    return time.perf_counter() - start


def paired(times: list[float], refs: list[float], calls: int) -> float:
    """Median of time / reference time, in seconds at the nominal kernel speed."""
    return statistics.median(t / r for t, r in zip(times, refs)) * calls * KERNEL_CALL_S


def set_up(mss) -> None:
    """Fill the package's lazy caches: stabilizer sets, Clifford closure, first LPs."""
    mss.stabilizer.enumerate_stabilizer_states(1)
    mss.stabilizer.enumerate_stabilizer_states(2)
    mss.stabilizer.single_qubit_cliffords()
    t_state = mss.qcore.phase_plus(math.pi / 4)
    mss.magic.wigner_distance(t_state.density())
    mss.magic.wigner_distance(mss.qcore.tensor(t_state, t_state).density())


def _mss_module_names() -> list[str]:
    return [name for name in sys.modules if name == "mss" or name.startswith("mss.")]


def import_mss():
    """Import mss from this checkout's src/, never from an installed copy."""
    mss = importlib.import_module("mss")
    importlib.import_module("mss.cli")  # the entry point every CLI item goes through
    if Path(mss.__file__).resolve().parent != ROOT / "src" / "mss":
        raise ImportError(f"mss imported from {mss.__file__}, not from this checkout")
    return mss


def time_set_up() -> tuple[float, float]:
    """Import a fresh copy of mss and fill its caches, then drop the copy.

    Returns (seconds, reference seconds).  numpy is already imported, so its
    import time is not part of the figure.
    """
    saved = {name: sys.modules.pop(name) for name in _mss_module_names()}
    try:
        start = time.perf_counter()
        set_up(import_mss())
        elapsed = time.perf_counter() - start
    finally:
        for name in _mss_module_names():
            del sys.modules[name]
        sys.modules.update(saved)
    return elapsed, reference(SETUP_REFERENCE_CALLS)


def run_pass(mss, workload, items, tracer=None, reference_calls=0):
    """Run every item once, each followed by a reference of ``reference_calls``.

    Returns (latency per item in s, reference time per item in s,
    [(item, reason)]).
    """
    latencies, refs, failures = [], [], []
    clock = time.perf_counter
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = clock()
        try:
            output = run_item(mss, item)
        except Exception as exc:  # an item that raises is a counted failure
            latencies.append(clock() - start)
            refs.append(reference(reference_calls))
            failures.append((index, f"raised {type(exc).__name__}: {exc}"))
            continue
        latencies.append(clock() - start)
        refs.append(reference(reference_calls))
        try:
            check_item(workload, item, output)
        except OracleFailure as exc:
            failures.append((index, str(exc)))
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            failures.append((index, f"malformed output: {type(exc).__name__}: {exc}"))
    return latencies, refs, failures


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """How many passes fill ``seconds``; a traced round is two passes."""
    passes = round(seconds / PASS_SECONDS[workload])
    return max(1, passes // 2 if traced else passes)


def fastest(passes: list[list[float]]) -> list[float]:
    """Each item's fastest latency over the passes."""
    return [min(column) for column in zip(*passes)]


def tail(latencies: list[float]) -> tuple[float | None, float | None]:
    """(latency, percentile) at the highest percentile with ten items beyond it.

    Reported from 100 items up, so the percentile is at least the 90th.
    """
    n = len(latencies)
    if n < 100:
        return None, None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    mss = import_mss()
    tracer = Tracer() if args.trace else None
    setups, setup_spans = [], []
    if tracer is None:
        setups += [time_set_up() for _ in range(9)]
        set_up(mss)
    else:
        tracer.install()
        tracer.item = "setup"
        set_up(mss)
        tracer.uninstall()
        setup_spans = list(tracer.spans)
        tracer.spans.clear()

    items = build_items(args.workload, args.seed, smoke=args.smoke)
    calls = 0 if tracer else REFERENCE_CALLS[args.workload]
    passes, ref_passes, traced_passes, layer_rows, failures = [], [], [], [], []
    first_traced_spans = []
    rounds = 1 if args.smoke else pass_count(args.workload, args.seconds, tracer is not None)
    begin = time.perf_counter()
    for _ in range(rounds):
        lat, refs, fail = run_pass(mss, args.workload, items, reference_calls=calls)
        passes.append(lat)
        ref_passes.append(refs)
        failures += fail
        if tracer is None:
            setups.append(time_set_up())
        else:
            tracer.install()
            try:
                lat, _, fail = run_pass(mss, args.workload, items, tracer)
            finally:
                tracer.uninstall()
            traced_passes.append(lat)
            failures += fail
            layer_rows.append(aggregate(tracer.spans, sum(lat)))
            first_traced_spans = first_traced_spans or list(tracer.spans)
            tracer.spans.clear()
        if time.perf_counter() - begin >= PASS_DEADLINE_S:
            break

    best = fastest(passes)
    attempted = len(items) * (len(passes) + len(traced_passes))
    result = {
        "correct": all(is_known_defect(reason) for _, reason in failures),
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"item {i}: {reason}" for i, reason in failures[:MAX_REPORTED_FAILURES]],
        "passes": len(passes),
        "items_per_pass": len(items),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(),
                "threads": {var: os.environ.get(var) for var in THREAD_VARS}},
    }
    if tracer is None:
        figures = [paired(t, r, calls) for t, r in zip(zip(*passes), zip(*ref_passes))]
        tail_s, tail_pct = tail(figures)
        result["tail_percentile"] = tail_pct
        result["metrics"] = {
            "setup_s": paired(*zip(*setups), SETUP_REFERENCE_CALLS),
            "wall_s": sum(figures),
            "item_ms_p50": statistics.median(figures) * 1e3,
            "item_ms_tail": None if tail_s is None else tail_s * 1e3,
            "raw_wall_s": sum(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fail_ratio": len(failures) / attempted,
        }
    else:
        result["metrics"] = _layer_metrics(setup_spans, layer_rows, traced_passes, best,
                                           result)
        out_dir = BENCH_DIR / "traces"
        out_dir.mkdir(exist_ok=True)
        dump_jsonl(out_dir / f"{args.workload}-seed{args.seed}.jsonl.gz",
                   setup_spans, first_traced_spans)
    print(json.dumps(result))
    return 0


def _layer_metrics(setup_spans, rows, traced_passes, best, result) -> dict:
    """Medians of the per-pass layer metrics, plus set-up and overhead figures."""
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    for name in EXACT_COUNTERS:
        values = sorted({row[name] for row in rows})
        if len(values) != 1:
            result["correct"] = False
            result["failures"].append(f"counter {name} differs across passes: {values}")
    metrics["stabilizer.enumerate.self_s"] = sum(
        t for s, t in zip(setup_spans, self_times(setup_spans))
        if s[0] == "stabilizer.enumerate")
    metrics["trace.wall_s"] = sum(fastest(traced_passes))
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / sum(best)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
