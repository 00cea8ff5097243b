"""Shot-sampled experiment pipeline: noisy circuit sampling, post-selection,
linear-inversion reconstruction, and parametric bootstrap error bars.

Bit conventions.  Counts are indexed big-endian like every other array in
the package: ``counts[4*q0 + 2*q1 + q2]``, the index the sampler's multinomial
draw already has, with Alice (q0, the dealer) the most significant bit and
Charlie (q2, the recipient) the least.  Hardware-style LSb-0 bitstrings
("q2 q1 q0", the dealer last) exist only in :meth:`ExperimentReport.to_json_obj`.

Correction rule.  On hardware the recipient's Z correction is classical:
conjugating Z through the tomography rotation flips the X- and Y-basis
outcome bit when the middle party reported minus (Z X Z = -X, Z Y Z = -Y)
and leaves the Z basis alone.

Simulation.  Every operator is written in the real Pauli basis P in
(I, X, Y, Z): the 3-qubit state as rho = sum r[a,b,c] P_a x P_b x P_c / 8,
and each readout effect E as its row tr(E P).  A depolarizing channel
applying each non-identity Pauli on k qubits with probability p/(4^k - 1)
keeps the identity term and damps every other one by 1 - 4^k p/(4^k - 1):
d1 = 1 - 4 p1/3 after a 1-qubit gate, d2 = 1 - 16 p2/15 after a CX.  Every
gate but P(phi) is a Clifford that moves each Pauli term onto another, so
the engine is in closed form and simulates no gate.  The circuit is cut
after the CX layer.  The noisy GHZ state depends on (p1, p2) alone: it is
``protocol._ghz(3)``, the eight signed elements of the GHZ stabilizer
group, each damped by the channels that act on it.  None has weight 1, so
each single party holds I/2 whatever the depolarizing noise.  Every later
step -- P(phi), the basis rotations, their noise and the readout -- acts on
one qubit, so the measurement is a product of per-qubit effective POVMs.
Pulled back to the cut, a qubit's readout row keeps its identity term, and
its Z term moves onto the measured Pauli and is damped by d1 per gate.
P(phi) commutes with the noise, so phi enters as ``qcore.phase_ptm``'s
rotation of the dealer's X and Y columns.  One cached builder makes every
table of a noise model: the dealer's (2, 4) table per setting, and the q1
and q2 tables contracted with r per party and basis; a call is one
(2, 4) x (4, 4) x (4, 4) product.

Randomness.  All sampling uses counter-based Philox generators keyed as
(seed, fnv1a64(label)) where the label spells out phi, party, basis,
setting, and replica role.  Streams for different circuits or bootstrap
replicas are therefore disjoint by construction and every output is a pure
function of the seed.  Within a bootstrap stream the draws run count by
count, each count's replicas in turn (:func:`resample_expectations`).
:func:`bootstrap` is the one estimator: its array holds the point estimate
as replica zero, so an estimate and its error bar read one array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

# wigner_distance is not called here; bench/test_bench.py reads it as mss.tomo.wigner_distance.
from .magic import c_closed_form, octahedron_distance, wigner_distance  # noqa: F401
from .protocol import _ghz
from .qcore import DensityMatrix, Record, ValueRecord, dm_from_bloch, phase_ptm

DISTILLATION_THRESHOLD = 0.856  # 15-to-1 magic state distillation entry fidelity
DEFAULT_SHOTS = 4096
DEFAULT_N_BOOT = 2000
MIN_N_BOOT = 100
CURVE_POINTS = 200  # theory-curve rows in ExperimentReport.plot_data_csv

_N_QUBITS = 3


def _fnv1a64(text: str) -> int:
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Philox generator on the (seed, label) stream; disjoint across labels.

    ``seed`` is one 64-bit key word: one outside [0, 2**64) raises
    OverflowError rather than aliasing a seed inside it."""
    key = np.array([seed, _fnv1a64(label)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class NoiseModel(Record):
    """Depolarizing-plus-readout device model.

    ``p1``/``p2`` are depolarizing probabilities applied after every one- and
    two-qubit gate; ``readout`` holds one column-stochastic confusion matrix
    per qubit, readout[q][observed, true].
    """

    p1: float
    p2: float
    readout: np.ndarray

    def __init__(self, p1, p2, readout) -> None:
        if not (0.0 <= p1 <= 0.5 and 0.0 <= p2 <= 0.5):
            raise ValueError("depolarizing probabilities must lie in [0, 0.5]")
        r = np.asarray(readout, dtype=float)
        if r.shape != (_N_QUBITS, 2, 2) or not np.all(np.isfinite(r)) or np.min(r) < 0:
            raise ValueError("readout must be three finite, nonnegative 2x2 matrices")
        if np.max(np.abs(r.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("readout confusion columns must sum to 1")
        frozen = np.array(r, order="C")
        frozen.setflags(write=False)
        self.__dict__.update(p1=p1, p2=p2, readout=frozen)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls.symmetric(0.0, 0.0, 0.0)

    @classmethod
    def symmetric(cls, p1: float, p2: float, readout_error: float) -> "NoiseModel":
        m = np.array([[1 - readout_error, readout_error],
                      [readout_error, 1 - readout_error]])
        return cls(p1=float(p1), p2=float(p2), readout=np.stack([m] * _N_QUBITS))


def _require_circuit(basis: str, party: str, alice_setting: str) -> None:
    if basis not in ("X", "Y", "Z"):
        raise ValueError("basis must be one of X, Y, Z")
    if party not in ("charlie", "bob"):
        raise ValueError("party must be 'charlie' or 'bob'")
    if alice_setting not in ("X", "Y"):
        raise ValueError("alice_setting must be X or Y")


class CountsTable(Record):
    """Raw shot counts for one circuit, big-endian indexed like
    :func:`circuit_probabilities`: counts[4*q0 + 2*q1 + q2]."""

    basis_label: str
    counts: np.ndarray  # a read-only copy: 8 nonnegative integers
    shots: int
    party: str = "charlie"
    alice_setting: str = "X"

    def __init__(self, basis_label, counts, shots, party="charlie", alice_setting="X") -> None:
        _require_circuit(basis_label, party, alice_setting)
        counts = np.array(counts)
        if counts.shape != (2 ** _N_QUBITS,) or counts.dtype.kind not in "iu" or counts.min() < 0:
            raise ValueError("counts must be 8 nonnegative integers")
        total = sum(counts.tolist())  # Python ints: an int64 sum can wrap
        if total != shots:
            raise ValueError("counts do not sum to shots")
        if total >= 2 ** 63:
            raise ValueError("shots must be below 2**63")
        counts.setflags(write=False)
        self.__dict__.update(basis_label=basis_label, counts=counts, shots=shots, party=party,
                             alice_setting=alice_setting)


def _povm_table(confusion: np.ndarray, pauli: str, gates: int, p: float) -> np.ndarray:
    """One qubit's effective readout POVM as a read-only (2, 4) table whose
    row x is tr(E_x P) for P in (I, X, Y, Z).

    The observed-x effect E_x = diag(c[x]), c = ``confusion``, has
    c[x,0] + c[x,1] on I and c[x,0] - c[x,1] on Z.  Pulled back through
    ``gates`` 1-qubit gates that turn ``pauli`` onto Z, the Z term moves onto
    ``pauli``, damped by 1 - 4p/3 per gate's depolarizing noise."""
    table = np.zeros((2, 4))
    table[:, 0] = confusion[:, 0] + confusion[:, 1]
    table[:, "IXYZ".index(pauli)] = (confusion[:, 0] - confusion[:, 1]) * (1 - 4 * p / 3) ** gates
    table.setflags(write=False)
    return table


def _entangled_state(p1: float, p2: float) -> np.ndarray:
    """The noisy GHZ state after H, CX(0,1) and CX(0,2) as its Pauli
    coefficients: a read-only (4, 4, 4) tensor r with
    rho_3 = sum r[a, b, c] P_a x P_b x P_c / 8.  It is ``protocol._ghz(3)``,
    each term damped by the channels acting on it: d1 = 1 - 4p1/3 after H,
    d2 = 1 - 16p2/15 after each CX."""
    d1, d2 = 1 - 4 * p1 / 3, 1 - 16 * p2 / 15
    damping = np.full((4, 4, 4), d1 * d2 * d2)  # XXX, XYY, YXY, YYX; r is 0 elsewhere
    damping[0, 0, 0] = 1.0
    damping[3, 0, 3] = d2
    damping[3, 3, 0] = damping[0, 3, 3] = d2 * d2
    r = _ghz(_N_QUBITS) * damping
    r.setflags(write=False)
    return r


# One entry: the CLI and every benchmark workload build one NoiseModel per
# process, and a miss costs about 0.2 ms.
@functools.lru_cache(maxsize=1)
def _tables(p1: float, p2: float, readout: bytes) -> Mapping:
    """Every table of one noise model, read-only, keyed by what selects it.

    ``"X"``/``"Y"`` map to the dealer's (2, 4) POVM table for that setting,
    read after 2 gates: the setting's rotation and P(phi), whose noise the
    table keeps and whose rotation :func:`circuit_probabilities` applies.
    ``(party, basis)`` maps to the entangled state contracted with the q1
    and q2 POVM tables: a (4, 4) table, rows by the dealer's Pauli term and
    columns by the observed 2*x1 + x2."""
    confusion = np.frombuffer(readout).reshape(_N_QUBITS, 2, 2)
    state = _entangled_state(p1, p2)
    tables = {setting: _povm_table(confusion[0], setting, 2, p1) for setting in ("X", "Y")}
    for party in ("charlie", "bob"):
        for basis in ("X", "Y", "Z"):
            rotated = (basis, 0 if basis == "Z" else 1)
            q1, q2 = (("X", 1), rotated) if party == "charlie" else (rotated, ("Z", 0))
            table = np.einsum("abc,xb,yc->axy", state, _povm_table(confusion[1], *q1, p1),
                              _povm_table(confusion[2], *q2, p1)).reshape(4, 4) / 8
            table.setflags(write=False)
            tables[party, basis] = table
    return MappingProxyType(tables)


def circuit_probabilities(phi: float, basis: str, noise: NoiseModel,
                          party: str = "charlie", alice_setting: str = "X") -> np.ndarray:
    """Measurement distribution of the noisy (2,3) circuit, big-endian indexed.

    Party "charlie" rotates q2 into ``basis`` with the middle party measured
    in X; party "bob" rotates q1 into ``basis`` and leaves q2 in Z, which the
    analysis then marginalises.  ``alice_setting`` chooses the dealer's
    steering measurement (X for the standard protocol).
    """
    _require_circuit(basis, party, alice_setting)
    phase = phase_ptm(phi)
    tables = _tables(noise.p1, noise.p2, noise.readout.tobytes())
    probs = (tables[alice_setting] @ phase @ tables[party, basis]).reshape(-1)
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum()


def sample_run(phi: float, basis: str, shots: int, noise: NoiseModel, seed: int,
               party: str = "charlie", alice_setting: str = "X") -> CountsTable:
    """Sample one tomography circuit; deterministic for a fixed seed."""
    if not 1 <= shots < 2 ** 63:  # the multinomial draws int64 counts
        raise ValueError(f"shots must lie in [1, 2**63), got {shots}")
    probs = circuit_probabilities(phi, basis, noise, party, alice_setting)
    label = f"sample/{phi:.17g}/{party}/{alice_setting}/{basis}"
    draws = stream_rng(seed, label).multinomial(shots, probs)
    return CountsTable(basis_label=basis, counts=draws, shots=int(shots),
                       party=party, alice_setting=alice_setting)


class CorrectedCounts(ValueRecord):
    """Post-selected single-party outcome counts after software correction.

    :func:`post_select_and_correct` keeps them as Python ints, so ``n_eff``
    is the exact kept count at any shot number.  They are floats only where
    exact probabilities are injected as pseudo-counts for infinite-shot
    consistency checks.
    """

    basis_label: str
    n0: int | float
    n1: int | float

    def __init__(self, basis_label, n0, n1) -> None:
        self.__dict__.update(basis_label=basis_label, n0=n0, n1=n1)

    @property
    def n_eff(self) -> int | float:
        return self.n0 + self.n1

    @property
    def expectation(self) -> float:
        if self.n_eff <= 0:
            raise ValueError("empty post-selected sample")
        return (self.n0 - self.n1) / self.n_eff


def post_select_and_correct(table: CountsTable, alice_keep_bit: int = 0) -> CorrectedCounts:
    """Keep shots with the dealer's bit equal to ``alice_keep_bit`` and fold
    the middle party's broadcast into the reconstructed party's bit.

    For the recipient, an m_B = 1 shot flips the outcome in the X and Y
    tomography bases and is left alone in Z; the middle party's own
    tomography needs no correction.
    """
    if alice_keep_bit not in (0, 1):
        raise ValueError("alice_keep_bit must be 0 or 1")
    kept = table.counts.reshape(2, 2, 2)[alice_keep_bit]  # [q1, q2]
    if table.party == "bob":
        n = kept.sum(axis=1)
    elif table.basis_label == "Z":
        n = kept.sum(axis=0)
    else:
        n = kept[0] + kept[1, ::-1]
    return CorrectedCounts(basis_label=table.basis_label, n0=int(n[0]), n1=int(n[1]))


class ReconstructionResult(Record):
    """One party's tomographic estimate from its X, Y and Z counts."""

    bloch: np.ndarray         # the projected Bloch vector rho and c_value are built from
    bloch_raw: np.ndarray     # linear-inversion vector before any projection
    n_eff: int                # smallest post-selected sample across bases
    c_value: float

    def __init__(self, bloch, bloch_raw, n_eff, c_value) -> None:
        self.__dict__.update(bloch=bloch, bloch_raw=bloch_raw, n_eff=n_eff, c_value=c_value)

    @functools.cached_property
    def rho(self) -> DensityMatrix:
        """The projected state as a density matrix, built on first read."""
        return dm_from_bloch(self.bloch)


def _require_bases(counts: Sequence[CorrectedCounts]) -> None:
    """Refuse counts that are not X, Y, Z triples, or an empty sample."""
    if not counts or len(counts) % 3:
        raise ValueError(f"expected X, Y, Z triples, got {len(counts)} counts")
    for i, c in enumerate(counts):
        want = "XYZ"[i % 3]
        if c.basis_label != want:
            raise ValueError(f"expected {want} counts, got {c.basis_label}")
        if c.n_eff < 1:
            raise ValueError("empty post-selected sample")


def reconstruct(x_counts: CorrectedCounts, y_counts: CorrectedCounts,
                z_counts: CorrectedCounts) -> ReconstructionResult:
    """Linear-inversion single-qubit tomography with radial physicality projection.

    C is the octahedron distance of the projected Bloch vector, the 1-qubit
    Wigner distance.  ``bloch`` is row 0 of :func:`bootstrap` on the same
    counts, bit for bit.
    """
    _require_bases((x_counts, y_counts, z_counts))
    raw = np.array([x_counts.expectation, y_counts.expectation, z_counts.expectation])
    b = scale_onto_ball(raw)
    raw.setflags(write=False)
    b.setflags(write=False)
    return ReconstructionResult(
        bloch=b,
        bloch_raw=raw,
        n_eff=int(round(min(x_counts.n_eff, y_counts.n_eff, z_counts.n_eff))),
        c_value=octahedron_distance(b),
    )


def resample_expectations(counts: Sequence[CorrectedCounts], n_boot: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Parametric bootstrap draw: ``n_boot`` replicas of every sample's
    expectation, each count redrawn binomially at its empirical rate.

    Returns an (n_boot, len(counts)) array.  The draws are made count by
    count, in the order of ``counts``, each count's ``n_boot`` replicas as one
    ``rng.binomial`` run: numpy keeps its binomial set-up while (n, p)
    repeats, and redoes it whenever they change.
    """
    if n_boot < MIN_N_BOOT:
        raise ValueError(f"n_boot must be at least {MIN_N_BOOT}")
    trials = np.array([int(round(c.n_eff)) for c in counts])
    if trials.min() < 1:
        raise ValueError("empty post-selected sample")
    k = np.empty((n_boot, len(counts)), dtype=np.int64)
    for j, c in enumerate(counts):
        k[:, j] = rng.binomial(trials[j], c.n0 / c.n_eff, size=n_boot)
    return (2 * k - trials) / trials


def scale_onto_ball(raw: np.ndarray) -> np.ndarray:
    """Bloch vectors along the last axis, those longer than 1 scaled onto the
    unit sphere: the projection of :func:`reconstruct` and :func:`bootstrap`."""
    x, y, z = raw[..., 0], raw[..., 1], raw[..., 2]
    b = raw / np.maximum(1.0, np.sqrt(x * x + y * y + z * z))[..., None]
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    if not np.all(x * x + y * y + z * z <= 1.0 + 1e-9):
        raise RuntimeError("scaled Bloch vector left the unit ball")
    return b


def _fidelity(b: np.ndarray, phi: float) -> np.ndarray:
    """Fidelity of the Bloch vectors along the last axis of ``b`` with
    P(phi)|+>, whose Bloch vector is (cos phi, sin phi, 0)."""
    return (1.0 + b[..., 0] * math.cos(phi) + b[..., 1] * math.sin(phi)) / 2.0


def bootstrap(counts: Sequence[CorrectedCounts], n_boot: int,
              rng: np.random.Generator) -> np.ndarray:
    """The point estimate and its parametric bootstrap replicas as one
    (1 + n_boot, len(counts) // 3, 3) array: the projected Bloch vector of
    each X, Y, Z triple in ``counts``, as :func:`reconstruct` makes it, from
    the observed counts in row 0 and from the :func:`resample_expectations`
    replicas drawn on ``rng`` in rows 1 to n_boot."""
    _require_bases(counts)
    point = [c.expectation for c in counts]
    raw = np.vstack((point, resample_expectations(counts, n_boot, rng)))
    return scale_onto_ball(raw.reshape(1 + n_boot, -1, 3))


class ExperimentRow(ValueRecord):
    """One angle's row of the experiment table."""

    phi: float
    c_theory: float
    c_charlie: float
    sigma_c: float
    fidelity: float
    sigma_f: float
    c_bob: float
    n_eff: int
    exceeds_distillation_threshold: bool

    def __init__(self, phi, c_theory, c_charlie, sigma_c, fidelity, sigma_f, c_bob, n_eff,
                 exceeds_distillation_threshold) -> None:
        self.__dict__.update(phi=phi, c_theory=c_theory, c_charlie=c_charlie, sigma_c=sigma_c,
                             fidelity=fidelity, sigma_f=sigma_f, c_bob=c_bob, n_eff=n_eff,
                             exceeds_distillation_threshold=exceeds_distillation_threshold)


# An experiment row's JSON keys and CSV columns, in order.
_ROW_FIELDS = tuple(f.name for f in fields(ExperimentRow))


class ExperimentReport(ValueRecord):
    """The experiment table with its settings and the raw counts behind it."""

    rows: tuple[ExperimentRow, ...]
    shots: int
    n_boot: int
    seed: int
    noise: NoiseModel
    # One entry per phi: the recipient's X, Y, Z tables, then the middle party's.
    raw_counts: tuple[tuple[CountsTable, ...], ...]

    def __init__(self, rows, shots, n_boot, seed, noise, raw_counts) -> None:
        self.__dict__.update(rows=rows, shots=shots, n_boot=n_boot, seed=seed, noise=noise,
                             raw_counts=raw_counts)

    def to_csv(self) -> str:
        lines = [",".join(_ROW_FIELDS)]
        lines += [",".join([_fmt(getattr(r, name)) for name in _ROW_FIELDS]) for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "shots": self.shots,
            "n_boot": self.n_boot,
            "seed": self.seed,
            "noise": {
                "p1": self.noise.p1,
                "p2": self.noise.p2,
                "readout": self.noise.readout.tolist(),
            },
            "distillation_threshold": DISTILLATION_THRESHOLD,
            "rows": [{name: getattr(r, name) for name in _ROW_FIELDS} for r in self.rows],
            "raw_counts": [  # LSb-0 bitstrings "q2 q1 q0" of the outcomes seen
                {party: {t.basis_label: dict(sorted((format(i, "03b")[::-1], int(n))
                                                    for i, n in enumerate(t.counts) if n))
                         for t in tables if t.party == party}
                 for party in ("charlie", "bob")}
                for tables in self.raw_counts
            ],
        }

    def plot_data_csv(self) -> str:
        """Theory curve at CURVE_POINTS angles over [0, 2 pi] plus measured
        points with error bars, one CSV."""
        lines = ["kind,phi,c_theory,c_measured,sigma_c"]
        for phi in np.linspace(0.0, 2 * np.pi, CURVE_POINTS):
            lines.append(f"curve,{_fmt(float(phi))},{_fmt(c_closed_form(phi))},,")
        for r in self.rows:
            lines.append(f"point,{_fmt(r.phi)},{_fmt(r.c_theory)},"
                         f"{_fmt(r.c_charlie)},{_fmt(r.sigma_c)}")
        return "\n".join(lines) + "\n"


def _fmt(x: bool | int | float) -> str:
    """A CSV cell: a bool in lowercase, an int as is, a float to 17 significant digits."""
    if isinstance(x, bool):
        return str(x).lower()
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


def experiment_table(phis: Sequence[float], shots: int, noise: NoiseModel,
                     seed: int, n_boot: int = DEFAULT_N_BOOT) -> ExperimentReport:
    """Full per-angle pipeline: sample, post-select, reconstruct both parties,
    bootstrap the recipient's uncertainties, and flag the distillation margin."""
    phis = [float(p) for p in phis]
    if not phis:
        raise ValueError("phi list must be nonempty")
    rows = []
    raw = []
    for phi in phis:
        tables = tuple(sample_run(phi, b, shots, noise, seed, party=party)
                       for party in ("charlie", "bob") for b in ("X", "Y", "Z"))
        corrected = [post_select_and_correct(t) for t in tables]
        charlie = bootstrap(corrected[:3], n_boot, stream_rng(seed, f"bootstrap/{phi}"))[:, 0]
        c_charlie, f_charlie = octahedron_distance(charlie), _fidelity(charlie, phi)
        bob = reconstruct(*corrected[3:])
        rows.append(ExperimentRow(
            phi=phi,
            c_theory=c_closed_form(phi),
            c_charlie=float(c_charlie[0]),
            sigma_c=float(np.std(c_charlie[1:], ddof=1)),
            fidelity=float(f_charlie[0]),
            sigma_f=float(np.std(f_charlie[1:], ddof=1)),
            c_bob=bob.c_value,
            n_eff=min(c.n_eff for c in corrected[:3]),
            exceeds_distillation_threshold=bool(f_charlie[0] > DISTILLATION_THRESHOLD),
        ))
        raw.append(tables)
    return ExperimentReport(rows=tuple(rows), shots=int(shots), n_boot=int(n_boot),
                            seed=int(seed), noise=noise, raw_counts=tuple(raw))
