"""In-memory span tracer for the benchmark's traced run.

The tracer wraps every public function of the ``mss`` package at each module
attribute that names it (``mss.tomo.wigner_distance``, ``mss.magic.solve_lp``,
``mss.protocol.partial_trace``, ...) plus ``DensityMatrix.__post_init__``, so
calls are seen where other modules look them up and the package source stays
untouched.  ``install`` swaps the wrappers in and ``uninstall`` restores the
originals, so untraced passes run the plain code.

A span is ``(name, start, end, parent, item, info)``: ``parent`` is the index
of the enclosing span (-1 for a root), ``item`` the index of the benchmark
item it belongs to, and ``info`` a small per-function record (LP size and
pivots, bootstrap replicas, post-selection counts).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

SpanRecord = tuple  # (name, start, end, parent, item, info)

# Span names that differ from "<layer>.<function>".
_RENAMES = {"stabilizer.enumerate_stabilizer_states": "stabilizer.enumerate"}

LAYERS = ("qcore", "wigner", "stabilizer", "simplex", "magic",
          "protocol", "steering", "tomo", "cli")


# Per-function span info, from the call's bound arguments and its result.
_INFO = {
    "simplex.solve_lp": lambda a, r: (len(a["A"]), r.iterations),  # 9 rows: 1 qubit, 33: 2
    "tomo.bootstrap": lambda a, r: a["n_boot"],
    "tomo.post_select_and_correct": lambda a, r: (r.n_eff, a["table"].shots),
    "steering.sampled_certification": lambda a, r: a["n_boot"],
}


def _mss_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mss" or name.startswith("mss."))]


def _is_public_mss_function(value) -> bool:
    return (callable(value) and not isinstance(value, type)
            and getattr(value, "__module__", "").startswith("mss.")
            and not getattr(value, "__name__", "_").startswith("_"))


class Tracer:
    """Collects spans while installed; ``item`` tags every span recorded."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord | None] = []
        self.item: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = _INFO.get(name)
        signature = inspect.signature(fn) if info_of else None
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, tracer.item, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = None
            if info_of:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = info_of(bound.arguments, result)
            spans[index] = (name, start, end, parent, tracer.item, info)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public mss function at every module attribute naming it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in _mss_modules():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _is_public_mss_function(value):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(value, _RENAMES.get(name, name))
                self._patches.append((module, attr, value, wrappers[id(value)]))
        dm_class = sys.modules["mss.qcore"].DensityMatrix
        original = dm_class.__dict__["__post_init__"]
        self._patches.append((dm_class, "__post_init__", original,
                              self._wrap(original, "qcore.dm_construct")))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans: list[SpanRecord]) -> list[float]:
    """Duration minus the covered time of direct children, per span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def aggregate(spans: list[SpanRecord], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``wall_s`` is its summed item time."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s[0]] += 1
        self_by_name[s[0]] += t
        self_by_layer[s[0].split(".", 1)[0]] += t

    solves = {9: [], 33: []}
    pivots = {9: 0, 33: 0}
    replicas = kept = shots = 0
    certify_evaluations = certify_solves = 0
    under_certify = [False] * len(spans)
    for i, s in enumerate(spans):
        name, start, end, parent, _, info = s
        under_certify[i] = (name == "steering.sampled_certification"
                            or (parent >= 0 and under_certify[parent]))
        if name == "simplex.solve_lp" and info is not None:
            solves.setdefault(info[0], []).append(end - start)
            pivots[info[0]] = pivots.get(info[0], 0) + info[1]
            certify_solves += under_certify[i]
        elif name == "tomo.bootstrap" and info is not None:
            replicas += info
        elif name == "tomo.post_select_and_correct" and info is not None:
            kept += info[0]
            shots += info[1]
        elif name == "steering.sampled_certification" and info is not None:
            certify_evaluations += info + 1  # the point estimate plus each replica

    def p50_us(durations):
        return statistics.median(durations) * 1e6 if durations else 0.0

    n_solves = sum(len(v) for v in solves.values())
    out = {
        "simplex.solves": n_solves,
        "simplex.pivots": sum(pivots.values()),
        "simplex.1q.solve_us_p50": p50_us(solves[9]),
        "simplex.2q.solve_us_p50": p50_us(solves[33]),
        "simplex.2q.pivots_per_solve": pivots[33] / len(solves[33]) if solves[33] else 0.0,
        "magic.wigner_distance.calls": calls["magic.wigner_distance"],
        "wigner.wigner_of.calls": calls["wigner.wigner_of"],
        "tomo.circuit_probabilities.self_s": self_by_name["tomo.circuit_probabilities"],
        "tomo.sample_run.self_s": self_by_name["tomo.sample_run"],
        "tomo.reconstruct.calls": calls["tomo.reconstruct"],
        "tomo.reconstruct.self_s": self_by_name["tomo.reconstruct"],
        "tomo.bootstrap.replicas": replicas,
        "tomo.bootstrap.self_s": self_by_name["tomo.bootstrap"],
        "tomo.post_select.kept_ratio": kept / shots if shots else 0.0,
        "steering.sampled_certification.self_s":
            self_by_name["steering.sampled_certification"],
        "steering.lp_solves_per_replica":
            certify_solves / certify_evaluations if certify_evaluations else 0.0,
        "qcore.dm_constructions": calls["qcore.dm_construct"],
        "qcore.dm_construct.self_s": self_by_name["qcore.dm_construct"],
        "qcore.partial_trace.calls": calls["qcore.partial_trace"],
        "qcore.partial_trace.self_s": self_by_name["qcore.partial_trace"],
        "qcore.project_measure.self_s": self_by_name["qcore.project_measure"],
        "protocol.run_exact.self_s": self_by_name["protocol.run_exact"],
        "protocol.security_report.self_s": self_by_name["protocol.security_report"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    out["trace.self_coverage"] = sum(self_by_layer.values()) / wall_s if wall_s > 0 else 0.0
    return out


def dump_jsonl(path, *segments: list[SpanRecord]) -> None:
    """Write span lists as gzipped JSON lines, ids and parents numbered across them."""
    import gzip
    import json

    offset = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for spans in segments:
            for i, (name, start, end, parent, item, info) in enumerate(spans):
                fh.write(json.dumps({
                    "id": offset + i, "name": name, "start": start, "end": end,
                    "parent": parent + offset if parent >= 0 else -1,
                    "item": item, "info": info}) + "\n")
            offset += len(spans)


__all__ = ["LAYERS", "Tracer", "aggregate", "dump_jsonl", "self_times"]
