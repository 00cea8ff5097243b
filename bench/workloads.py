"""The four benchmark workloads: seeded item lists, how an item runs, and the
oracle that checks its output.

Every item but ``magic2q``'s enters through the public CLI, ``mss.cli.main``
called in-process with JSON captured from stdout.  ``magic2q`` calls
``mss.magic.wigner_distance`` directly because no CLI path reaches 2-qubit
states.  The oracles share no code with the package: Bloch vectors are
recounted from the raw shot counts, the octahedron and phase-state closed
forms are written out here, and the 2-qubit LP is checked through its own
primal and dual certificates against a stabilizer set enumerated here as a
Clifford orbit.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

WORKLOADS = ("experiment", "certify", "protocol", "magic2q")

NOISE = "0.003,0.015,0.01"
ANGLE_JITTER = 0.1  # in slices; see _stratified_angles
TOL = 1e-7

# `mss run --n 3 --outcomes=--` exits 2: argparse drops a bare "--" value, so
# run_exact sees an empty outcome string.  The item stays in the workload and
# counts as failed; any other failure makes the run incorrect.
KNOWN_DEFECT = "run-outcomes-double-dash"

FULL = {
    "experiment": {"items": 4, "shots": 4096, "boot": 2000},
    "certify": {"items": 6, "shots": 4096, "boot": None},  # None: the CLI default, 500
    "protocol": {"runs_per_n": 24, "scans_per_n": 12, "scan_points": 4},
    "magic2q": {"per_class": 50},
}
SMOKE = {
    "experiment": {"items": 1, "shots": 512, "boot": 100},
    "certify": {"items": 1, "shots": 512, "boot": 100},
    "protocol": {"runs_per_n": 1, "scans_per_n": 1, "scan_points": 2},
    "magic2q": {"per_class": 1},
}


@dataclass
class Item:
    """One timed call: CLI arguments, or a 2-qubit state for magic2q."""

    argv: list[str] | None = None
    rho: object = None
    expect: dict = field(default_factory=dict)


class OracleFailure(Exception):
    """An output that disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def _reject_constant(name: str):
    raise OracleFailure(f"non-finite value {name} in JSON output")


def parse_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def c_phase(phi: float) -> float:
    return (abs(math.sin(phi)) + abs(math.cos(phi)) - 1.0) / 2.0


# --- item lists ---------------------------------------------------------------

def build_items(workload: str, seed: int, smoke: bool = False) -> list[Item]:
    """The workload's fixed item list; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    size = (SMOKE if smoke else FULL)[workload]
    return {"experiment": _experiment_items, "certify": _certify_items,
            "protocol": _protocol_items, "magic2q": _magic2q_items}[workload](rng, **size)


def _stratified_angles(rng, count: int) -> list[float]:
    """Angles whose offsets past the nearest lower multiple of pi/2 fall one in
    each of ``count`` equal slices of [0, pi/2), within a tenth of a slice of
    its middle.  Quadrants are spread evenly: each is used ``count // 4`` or
    one more times, in random order.

    The LP's pivot count depends on the offset and on the quadrant, so
    stratifying both keeps the work per item list close to the same from
    seed to seed.
    """
    jitter = rng.uniform(-ANGLE_JITTER, ANGLE_JITTER, count)
    offsets = (np.arange(count) + 0.5 + jitter) / count * (math.pi / 2)
    quadrants = (list(rng.permutation(4)) * (count // 4 + 1))[:count]
    angles = offsets + rng.permutation(quadrants) * (math.pi / 2)
    return [float(a) for a in rng.permutation(angles)]


def _experiment_items(rng, items, shots, boot):
    out = []
    for phi in _stratified_angles(rng, items):
        argv = ["experiment", f"--phis={phi!r}", "--shots", str(shots), "--noise", NOISE,
                "--seed", str(int(rng.integers(2 ** 31))), "--boot", str(boot),
                "--format", "json"]
        out.append(Item(argv=argv, expect={"phi": phi, "shots": shots, "boot": boot}))
    return out


def _certify_items(rng, items, shots, boot):
    out = []
    for phi in _stratified_angles(rng, items):
        argv = ["certify", f"--phi={phi!r}", "--shots", str(shots), "--noise", NOISE,
                "--seed", str(int(rng.integers(2 ** 31))), "--format", "json"]
        if boot is not None:
            argv += ["--boot", str(boot)]
        out.append(Item(argv=argv, expect={"phi": phi, "shots": shots}))
    return out


def _balanced_outcomes(rng, length: int, count: int) -> list[str]:
    """``count`` outcome strings of ``length`` signs, in random order, each of
    the 2^length strings used equally often (up to one, when ``count`` is not
    a multiple of 2^length).

    Every string, all-minus included, is as likely as under independent
    draws, but how often a string occurs does not depend on the seed: for
    n = 3 the all-minus string "--" is exactly a quarter of the runs.
    """
    strings = ["".join("+-"[(k >> i) & 1] for i in range(length))
               for k in range(2 ** length)]
    pool = [strings[i] for i in rng.permutation(len(strings))]
    chosen = (pool * (count // len(pool) + 1))[:count]
    return [chosen[i] for i in rng.permutation(count)]


def _protocol_items(rng, runs_per_n, scans_per_n, scan_points):
    out = []
    for n in range(3, 7):
        draws = iter(_balanced_outcomes(rng, n - 1, runs_per_n))
        for _ in range(runs_per_n):
            phi = float(rng.uniform(0.0, 2 * math.pi))
            outcomes = next(draws)
            argv = ["run", f"--phi={phi!r}", "--n", str(n), f"--outcomes={outcomes}",
                    "--format", "json"]
            out.append(Item(argv=argv, expect={"phi": phi, "n": n, "outcomes": outcomes}))
        for _ in range(scans_per_n):
            start = float(rng.uniform(0.0, 2 * math.pi))
            stop = start + float(rng.uniform(0.2, 1.5))
            argv = ["scan", f"--grid={start!r}:{stop!r}:{scan_points}", "--n", str(n),
                    "--format", "json"]
            out.append(Item(argv=argv, expect={"grid": (start, stop, scan_points)}))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _magic2q_items(rng, per_class):
    from mss.qcore import DensityMatrix

    stab = stabilizer_states_2q()
    mats = []
    for k in range(per_class):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        mats.append(("haar", np.outer(a, a.conj()) / np.vdot(a, a).real))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        mats.append(("ginibre", m / np.trace(m).real))
        x, y = (math.pi / 4, math.pi / 4) if k == 0 else rng.uniform(0.0, 2 * math.pi, 2)
        psi = np.kron(_phase_plus(x), _phase_plus(y))
        mats.append(("phase_product", np.outer(psi, psi.conj())))
        chosen = rng.choice(len(stab), size=int(rng.integers(2, 5)), replace=False)
        weights = rng.dirichlet(np.ones(len(chosen)))
        mats.append(("stabilizer_mixture", sum(w * stab[i] for w, i in zip(weights, chosen))))
    out = []
    for kind, m in mats:
        m = (m + m.conj().T) / 2
        m = m / np.trace(m).real
        out.append(Item(rho=DensityMatrix(m), expect={"kind": kind, "mat": m}))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


# --- running an item ----------------------------------------------------------

def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_item(mss, item: Item):
    """The timed call.  Attributes are looked up per call so tracing sees them."""
    if item.rho is not None:
        return mss.magic.wigner_distance(item.rho)
    return call_cli(mss.cli.main, item.argv)


def check_item(workload: str, item: Item, output) -> None:
    """Raise OracleFailure unless the output agrees with its oracle."""
    if workload == "magic2q":
        _check_magic2q(item, output)
        return
    code, out, err = output
    if code != 0:
        if (workload == "protocol" and code == 2
                and item.expect.get("outcomes") == "--"):
            raise OracleFailure(f"{KNOWN_DEFECT}: exit 2: {err.strip()}")
        raise OracleFailure(f"exit {code}: {err.strip()}")
    payload = parse_json(out)
    {"experiment": _check_experiment, "certify": _check_certify,
     "protocol": _check_protocol}[workload](item, payload)


def is_known_defect(reason: str) -> bool:
    """Whether an OracleFailure message names the known defect."""
    return reason.startswith(KNOWN_DEFECT + ":")


# --- oracles --------------------------------------------------------------------

def _finite(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and math.isfinite(value), f"{name} is not a finite number: {value!r}")
    return float(value)


def bloch_from_counts(by_basis: dict, party: str) -> tuple[np.ndarray, int]:
    """Post-selected Bloch vector of one party and its smallest kept count.

    Keys are LSb-0 strings "q2 q1 q0": recipient, middle party, dealer.  Keep
    shots whose dealer bit is 0; the recipient's X and Y bits flip when the
    middle party's bit is 1.  The vector is scaled onto the unit ball.
    """
    raw, kept = [], []
    for basis in ("X", "Y", "Z"):
        n = [0, 0]
        for bits, count in by_basis[basis].items():
            recipient, middle, dealer = bits
            if dealer != "0":
                continue
            bit = int(recipient if party == "charlie" else middle)
            if party == "charlie" and basis != "Z" and middle == "1":
                bit ^= 1
            n[bit] += count
        _require(n[0] + n[1] > 0, f"no kept shots for {party} {basis}")
        raw.append((n[0] - n[1]) / (n[0] + n[1]))
        kept.append(n[0] + n[1])
    b = np.array(raw)
    return b / max(1.0, float(np.linalg.norm(b))), min(kept)


def _check_experiment(item: Item, payload: dict) -> None:
    phi = item.expect["phi"]
    _require(payload["shots"] == item.expect["shots"], "shots not echoed")
    _require(payload["n_boot"] == item.expect["boot"], "n_boot not echoed")
    _require(len(payload["rows"]) == 1 and len(payload["raw_counts"]) == 1,
             "expected one row per angle")
    row, raw = payload["rows"][0], payload["raw_counts"][0]
    for key in ("phi", "c_theory", "c_charlie", "sigma_c", "fidelity", "sigma_f", "c_bob"):
        _finite(row[key], key)
    _require(row["phi"] == phi, "phi not echoed")
    _require(abs(row["c_theory"] - c_phase(phi)) <= 1e-12, "c_theory off the closed form")
    b, n_eff = bloch_from_counts(raw["charlie"], "charlie")
    c_oracle = max(0.0, (float(np.abs(b).sum()) - 1.0) / 2.0)
    _require(abs(row["c_charlie"] - c_oracle) <= TOL,
             f"c_charlie {row['c_charlie']!r} != octahedron oracle {c_oracle!r}")
    f_oracle = (1.0 + b[0] * math.cos(phi) + b[1] * math.sin(phi)) / 2.0
    _require(abs(row["fidelity"] - f_oracle) <= TOL,
             f"fidelity {row['fidelity']!r} != oracle {f_oracle!r}")
    b_bob, _ = bloch_from_counts(raw["bob"], "bob")
    _require(row["c_bob"] == 0.0, f"c_bob {row['c_bob']!r} != 0")
    _require(float(np.abs(b_bob).sum()) <= 1.0, "middle party's oracle Bloch vector has magic")
    _require(row["sigma_c"] >= 0.0 and row["sigma_f"] >= 0.0, "negative sigma")
    _require(row["n_eff"] == n_eff, f"n_eff {row['n_eff']} != kept count {n_eff}")
    _require(row["exceeds_distillation_threshold"] == (row["fidelity"] > 0.856),
             "distillation flag disagrees with fidelity")


def _check_certify(item: Item, payload: dict) -> None:
    phi, shots = item.expect["phi"], item.expect["shots"]
    _require(payload["mode"] == "sampled", "mode is not sampled")
    f, f_lhs, gap, cert, sigma = (_finite(payload[k], k) for k in
                                  ("f", "f_lhs", "gap", "certified_c", "sigma_gap"))
    n_eff = _finite(payload["n_eff"], "n_eff")
    _require(abs(gap - (f - f_lhs)) <= 1e-12, "gap != f - f_lhs")
    _require(cert == max(0.0, gap), "certified_c != max(0, gap)")
    # A reconstructed state inside the stabilizer polytope has the zero witness,
    # so every replica's gap is 0 and sigma_gap is exactly 0; otherwise it is > 0.
    _require(sigma > 0.0 or (sigma == 0.0 and gap == 0.0),
             f"sigma_gap {sigma!r} with gap {gap!r}")
    band = 6.0 * math.sqrt(shots) / 2.0
    _require(abs(n_eff - shots / 2) <= band,
             f"n_eff {n_eff} outside shots/2 +- {band:.1f}")
    _require(gap <= c_phase(phi) + 4.0 * sigma,
             f"gap {gap!r} above C(phi) + 4 sigma_gap = {c_phase(phi) + 4 * sigma!r}")


def _check_protocol(item: Item, payload: dict) -> None:
    if "grid" in item.expect:
        start, stop, steps = item.expect["grid"]
        rows = payload["rows"]
        _require(len(rows) == steps, "scan row count")
        for want, row in zip(np.linspace(start, stop, steps), rows):
            phi = _finite(row["phi"], "phi")
            _require(abs(phi - want) <= 1e-12, "scan grid point")
            _require(abs(_finite(row["c_theory"], "c_theory") - c_phase(phi)) <= 1e-12,
                     "c_theory off the closed form")
            _require(abs(_finite(row["c_protocol"], "c_protocol") - row["c_theory"]) <= TOL,
                     f"c_protocol {row['c_protocol']!r} != c_theory {row['c_theory']!r}")
        return
    n, outcomes, phi = item.expect["n"], item.expect["outcomes"], item.expect["phi"]
    _require(payload["n_parties"] == n and payload["outcomes"] == outcomes,
             "n or outcomes not echoed")
    _require(abs(_finite(payload["branch_probability"], "branch_probability")
                 - 0.5 ** (n - 1)) <= 1e-12, "branch probability != 2^-(n-1)")
    _require(payload["correction_parity"] == outcomes.count("-") % 2, "correction parity")
    c_theory = _finite(payload["c_theory"], "c_theory")
    _require(abs(c_theory - c_phase(phi)) <= 1e-12, "c_theory off the closed form")
    _require(abs(_finite(payload["final_c"], "final_c") - c_theory) <= TOL,
             f"final_c {payload['final_c']!r} != c_theory {c_theory!r}")
    _require(_finite(payload["final_fidelity_to_ideal"], "fidelity") >= 1.0 - 1e-9,
             "delivered state is not P(phi)|+>")
    security = payload["security"]
    _require(len(security) == n - 1, "one security entry per non-recipient party")
    for party, entry in security.items():
        _require(entry["c_value"] == 0.0, f"party {party} sees magic {entry['c_value']!r}")
        _require(_finite(entry["trace_distance_to_i2"], "trace distance") <= 1e-12,
                 f"party {party} marginal is not I/2")


# 2-qubit phase space, written out independently of mss.wigner: the 1-qubit
# operator A(q, p) = (I + (-1)^p X + (-1)^(q+p) Y + (-1)^q Z) / 2, tensored in
# big-endian order, flat index 4 * (2 q0 + p0) + (2 q1 + p1).
_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@lru_cache(maxsize=None)
def phase_point_operators_2q() -> np.ndarray:
    one = [0.5 * (_I + (-1) ** p * _X + (-1) ** (q + p) * _Y + (-1) ** q * _Z)
           for q in (0, 1) for p in (0, 1)]
    return np.stack([np.kron(a, b) for a in one for b in one])


def wigner_2q(mat: np.ndarray) -> np.ndarray:
    return np.einsum("aij,ji->a", phase_point_operators_2q(), mat).real / 4.0


def _phase_plus(phi: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)


@lru_cache(maxsize=None)
def stabilizer_states_2q() -> tuple[np.ndarray, ...]:
    """The 60 pure 2-qubit stabilizer projectors as the Clifford orbit of |00>."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = np.diag([1, 1j])
    gates = [np.kron(h, _I), np.kron(_I, h), np.kron(s, _I), np.kron(_I, s),
             np.diag([1, 1, 1, -1]).astype(complex)]
    start = np.zeros(4, dtype=complex)
    start[0] = 1.0
    seen, frontier = {}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            proj = np.outer(v, v.conj())
            key = (np.round(proj, 10) + 0.0).tobytes()
            if key in seen:
                continue
            seen[key] = proj
            nxt.extend(g @ v for g in gates)
        frontier = nxt
    if len(seen) != 60:
        raise RuntimeError(f"Clifford orbit has {len(seen)} states, expected 60")
    return tuple(seen.values())


@lru_cache(maxsize=None)
def vertex_matrix_2q() -> np.ndarray:
    """Stabilizer Wigner vectors as columns, sorted by the 12-decimal rounded vector."""
    cols = sorted((wigner_2q(p) for p in stabilizer_states_2q()),
                  key=lambda w: tuple(np.round(w, 12)))
    return np.column_stack(cols)


def _check_magic2q(item: Item, result) -> None:
    mat = item.expect["mat"]
    w = wigner_2q(mat)
    verts = vertex_matrix_2q()
    c = _finite(result.c_value, "c_value")
    y = np.einsum("ij,aji->a", result.dual_witness, phase_point_operators_2q()).real
    _require(bool(np.all(np.isfinite(y))), "dual witness is not finite")
    _require(float(np.max(np.abs(y))) <= 1.0 + 1e-9, f"|y|_inf = {np.max(np.abs(y))!r} > 1")
    lam = np.asarray(result.mixture_weights, dtype=float)
    _require(lam.shape == (verts.shape[1],), "mixture has the wrong length")
    _require(float(lam.min()) >= -1e-12 and abs(float(lam.sum()) - 1.0) <= 1e-9,
             "mixture weights are not convex")
    primal = float(np.abs(w - verts @ lam).sum())
    _require(abs(primal - c) <= TOL, f"||W - F lam||_1 = {primal!r} != C = {c!r}")
    best_vertex = float(np.max(y @ verts))
    dual = float(y @ w) - best_vertex
    _require(abs(dual - c) <= TOL, f"dual value {dual!r} != C = {c!r}")
    _require(abs(_finite(result.f_lhs, "f_lhs") - best_vertex) <= TOL, "f_lhs != max_v y.v")
    if item.expect["kind"] == "stabilizer_mixture":
        _require(c == 0.0, f"stabilizer mixture has C = {c!r}")
