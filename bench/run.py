"""Benchmark of the mss package: four oracle-checked workloads.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all --smoke

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload runs in a fresh single-threaded process
(BLAS and OpenMP pinned to one thread); ``worker.py`` says how it times.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` for one
workload, or one such object per workload under its name for ``all``.
``--smoke`` runs tiny item lists for one pass, as a self-test.  Items that
hit the known defect named in ``workloads.KNOWN_DEFECT`` count as failed but
not as incorrect; any other failure sets ``correct`` to false.  The exit code
is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("experiment", "certify", "protocol", "magic2q")
TIME_LIMIT_S = 170.0  # per workload: a single-workload run must end within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> unit.  BENCHMARK.json lists the same names; the self-test checks it.
END_TO_END = {"setup_s": "s", "wall_s": "s", "item_ms_p50": "ms", "peak_rss_mb": "MiB"}
# Printed in the summary but not gated: the tail exists only for workloads
# with at least 100 items per run, fail_ratio is 0 on most workloads, and
# raw_wall_s (unpaired, see worker.py) shows what the host's load did.
SUMMARY_ONLY = {"item_ms_tail": "ms", "fail_ratio": "ratio", "raw_wall_s": "s"}
PER_LAYER = {
    "simplex.solves": "count",
    "simplex.pivots": "count",
    "simplex.self_s": "s",
    "simplex.1q.solve_us_p50": "us",
    "simplex.2q.solve_us_p50": "us",
    "simplex.2q.pivots_per_solve": "count",
    "magic.wigner_distance.calls": "count",
    "magic.self_s": "s",
    "wigner.wigner_of.calls": "count",
    "wigner.self_s": "s",
    "tomo.circuit_probabilities.self_s": "s",
    "tomo.sample_run.self_s": "s",
    "tomo.reconstruct.calls": "count",
    "tomo.reconstruct.self_s": "s",
    "tomo.bootstrap.replicas": "count",
    "tomo.bootstrap.self_s": "s",
    "tomo.post_select.kept_ratio": "ratio",
    "tomo.self_s": "s",
    "steering.sampled_certification.self_s": "s",
    "steering.lp_solves_per_replica": "count",
    "steering.self_s": "s",
    "qcore.dm_constructions": "count",
    "qcore.dm_construct.self_s": "s",
    "qcore.partial_trace.calls": "count",
    "qcore.partial_trace.self_s": "s",
    "qcore.project_measure.self_s": "s",
    "qcore.self_s": "s",
    "protocol.run_exact.self_s": "s",
    "protocol.security_report.self_s": "s",
    "protocol.self_s": "s",
    "stabilizer.enumerate.self_s": "s",
    "stabilizer.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage": "ratio",
}


class BenchError(RuntimeError):
    """A benchmark process failed or ran out of time."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run bench/worker.py in a fresh process; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before starting a benchmark process")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"benchmark process timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"benchmark process exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def contract_line(result: dict, trace: int) -> dict:
    """The result restricted to the metrics BENCHMARK.json names, with units."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def summary_lines(workload: str, result: dict, trace: int) -> list[str]:
    units = PER_LAYER if trace else {**END_TO_END, **SUMMARY_ONLY}
    head = (f"# {workload}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} passes={result['passes']} "
            f"items/pass={result['items_per_pass']}")
    lines = [head]
    for name, unit in units.items():
        value = result["metrics"].get(name)
        note = ""
        if name == "item_ms_tail":
            note = (f"  (p{result['tail_percentile']:.1f} of {result['items_per_pass']} items)"
                    if value is not None else "  (fewer than 100 items: see wall_s)")
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"#   {name:<40} {shown:>14} {unit}{note}")
    lines += [f"#   failure: {reason}" for reason in result["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny item lists, one pass: a quick end-to-end self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mss" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'mss'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for workload in names:
            results[workload] = run_worker(
                ["--workload", workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)]
                + (["--smoke"] if args.smoke else []), deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"# env: {json.dumps(next(iter(results.values()))['env'])}")
    for workload, result in results.items():
        print("\n".join(summary_lines(workload, result, args.trace)))
    lines = {w: contract_line(r, args.trace) for w, r in results.items()}
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
