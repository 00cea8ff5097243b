"""Shot-sampled experiment pipeline: noisy circuit sampling, post-selection,
linear-inversion reconstruction, and parametric bootstrap error bars.

Bit conventions.  The sampler emits hardware-style LSb-0 bitstrings: the
string reads "q2 q1 q0", so Alice (q0, the dealer) is the *last* character
and Charlie (q2, the recipient) the first.  Everything downstream of
:func:`post_select_and_correct` is back in the package's big-endian world.

Correction rule.  On hardware the recipient's Z correction is classical:
conjugating Z through the tomography rotation flips the X- and Y-basis
outcome bit when the middle party reported minus (Z X Z = -X, Z Y Z = -Y)
and leaves the Z basis alone.

Simulation.  :func:`circuit_probabilities` evolves the 3-qubit density matrix
as a tensor of shape (2,)*6 -- axes 0-2 are the ket of q0-q2, axes 3-5 the
bra -- with the same axis primitive as the statevector code: a gate U on
qubit q acts with U on axis q and with U* on axis q+3.  The depolarizing
channels need no Pauli sum: over the 4^k Paulis P on k qubits Q,
sum_P P rho P = 2^k I_Q x Tr_Q rho (Nielsen & Chuang, Sec. 8.3.4), so a
channel applying each non-identity Pauli with probability p/(4^k - 1) is
(1 - lam) rho + lam (I/2^k x Tr_Q rho) with lam = 4^k p/(4^k - 1).

Randomness.  All sampling uses counter-based Philox generators keyed as
(seed, fnv1a64(label)) where the label spells out phi, party, basis,
setting, and replica role.  Streams for different circuits or bootstrap
replicas are therefore disjoint by construction and every output is a pure
function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# wigner_distance is not called here; bench/test_bench.py reads it as mss.tomo.wigner_distance.
from .magic import c_closed_form, octahedron_distance, wigner_distance  # noqa: F401
from .qcore import H, I2, S, DensityMatrix, apply_on_axes, dm_from_bloch, fidelity, phase_gate, phase_plus

DISTILLATION_THRESHOLD = 0.856  # 15-to-1 magic state distillation entry fidelity
DEFAULT_SHOTS = 4096
DEFAULT_N_BOOT = 2000
MIN_N_BOOT = 100

_N_QUBITS = 3

# Measurement-basis change: apply the gate, then read out in Z.
_BASIS_ROTATION = {"Z": None, "X": H, "Y": H @ S.conj().T}


def _fnv1a64(text: str) -> int:
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Philox generator on the (seed, label) stream; disjoint across labels."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, _fnv1a64(label)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-plus-readout device model.

    ``p1``/``p2`` are depolarizing probabilities applied after every one- and
    two-qubit gate; ``readout`` holds one column-stochastic confusion matrix
    per qubit, readout[q][observed, true].
    """

    p1: float
    p2: float
    readout: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 <= self.p1 <= 0.5 and 0.0 <= self.p2 <= 0.5):
            raise ValueError("depolarizing probabilities must lie in [0, 0.5]")
        r = np.asarray(self.readout, dtype=float)
        if r.shape != (_N_QUBITS, 2, 2) or np.min(r) < 0:
            raise ValueError("readout must be three nonnegative 2x2 matrices")
        if np.max(np.abs(r.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("readout confusion columns must sum to 1")
        frozen = np.array(r, order="C")
        frozen.setflags(write=False)
        object.__setattr__(self, "readout", frozen)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls.symmetric(0.0, 0.0, 0.0)

    @classmethod
    def symmetric(cls, p1: float, p2: float, readout_error: float) -> "NoiseModel":
        m = np.array([[1 - readout_error, readout_error],
                      [readout_error, 1 - readout_error]])
        return cls(p1=float(p1), p2=float(p2), readout=np.stack([m] * _N_QUBITS))


@dataclass(frozen=True)
class CountsTable:
    """Raw shot counts for one circuit, keyed by LSb-0 bitstrings."""

    basis_label: str
    counts: dict[str, int]
    shots: int
    party: str = "charlie"
    alice_setting: str = "X"

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")
        if any(len(k) != _N_QUBITS or set(k) - {"0", "1"} for k in self.counts):
            raise ValueError("count keys must be 3-bit strings")


def _gate1(t: np.ndarray, gate: np.ndarray, qubit: int, noise: NoiseModel) -> np.ndarray:
    """U rho U^dagger on ``qubit`` (U on its ket axis, U* on its bra axis),
    then the gate's depolarizing noise."""
    t = apply_on_axes(apply_on_axes(t, (qubit,), gate), (qubit + _N_QUBITS,), gate.conj())
    return _depolarize(t, noise.p1, (qubit,))


def _cx_gate(t: np.ndarray, control: int, target: int, noise: NoiseModel) -> np.ndarray:
    """CX rho CX on the ket and the bra axes, then its two-qubit depolarizing noise."""
    t = apply_on_axes(t, (control, target))
    t = apply_on_axes(t, (control + _N_QUBITS, target + _N_QUBITS))
    return _depolarize(t, noise.p2, (control, target))


def _depolarize(t: np.ndarray, p: float, qubits: tuple[int, ...]) -> np.ndarray:
    """k-qubit depolarizing channel on ``qubits`` with error probability ``p``:
    (1 - lam) rho + lam (I/2^k x Tr_Q rho), lam = 4^k p / (4^k - 1)."""
    if p == 0.0:
        return t
    mixed = t
    for q in qubits:
        reduced = np.trace(mixed, axis1=q, axis2=q + _N_QUBITS)
        mixed = np.moveaxis(reduced[..., None, None] * (I2 / 2), (-2, -1), (q, q + _N_QUBITS))
    lam = 4 ** len(qubits) * p / (4 ** len(qubits) - 1)
    return (1 - lam) * t + lam * mixed


def circuit_probabilities(phi: float, basis: str, noise: NoiseModel,
                          party: str = "charlie", alice_setting: str = "X") -> np.ndarray:
    """Measurement distribution of the noisy (2,3) circuit, big-endian indexed.

    Party "charlie" rotates q2 into ``basis`` with the middle party measured
    in X; party "bob" rotates q1 into ``basis`` and leaves q2 in Z, which the
    analysis then marginalises.  ``alice_setting`` chooses the dealer's
    steering measurement (X for the standard protocol).
    """
    if basis not in _BASIS_ROTATION:
        raise ValueError("basis must be one of X, Y, Z")
    if party not in ("charlie", "bob"):
        raise ValueError("party must be 'charlie' or 'bob'")
    if alice_setting not in ("X", "Y"):
        raise ValueError("alice_setting must be X or Y")

    t = np.zeros((2,) * (2 * _N_QUBITS), dtype=complex)  # |000><000|
    t[(0,) * (2 * _N_QUBITS)] = 1.0
    t = _gate1(t, H, 0, noise)
    t = _cx_gate(t, 0, 1, noise)
    t = _cx_gate(t, 0, 2, noise)
    t = _gate1(t, phase_gate(phi), 0, noise)
    t = _gate1(t, _BASIS_ROTATION[alice_setting], 0, noise)

    if party == "charlie":
        t = _gate1(t, H, 1, noise)
        if basis != "Z":
            t = _gate1(t, _BASIS_ROTATION[basis], 2, noise)
    elif basis != "Z":
        t = _gate1(t, _BASIS_ROTATION[basis], 1, noise)

    diagonal = t.reshape(2 ** _N_QUBITS, -1).diagonal().real
    probs = np.clip(diagonal, 0.0, None).reshape((2,) * _N_QUBITS)
    for q in range(_N_QUBITS):
        probs = apply_on_axes(probs, (q,), noise.readout[q])
    probs = probs.reshape(-1)
    return probs / probs.sum()


def sample_run(phi: float, basis: str, shots: int, noise: NoiseModel, seed: int,
               party: str = "charlie", alice_setting: str = "X") -> CountsTable:
    """Sample one tomography circuit; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = circuit_probabilities(phi, basis, noise, party, alice_setting)
    label = f"sample/{phi:.17g}/{party}/{alice_setting}/{basis}"
    draws = stream_rng(seed, label).multinomial(shots, probs)
    counts = {}
    for index, count in enumerate(draws):
        if count > 0:
            counts[format(index, "03b")[::-1]] = int(count)  # LSb-0 string
    return CountsTable(basis_label=basis, counts=counts, shots=int(shots),
                       party=party, alice_setting=alice_setting)


@dataclass(frozen=True)
class CorrectedCounts:
    """Post-selected single-party outcome counts after software correction.

    Counts may be non-integral when exact probabilities are injected for
    infinite-shot consistency checks.
    """

    basis_label: str
    n0: float
    n1: float

    @property
    def n_eff(self) -> float:
        return self.n0 + self.n1

    @property
    def expectation(self) -> float:
        if self.n_eff <= 0:
            raise ValueError("empty post-selected sample")
        return (self.n0 - self.n1) / self.n_eff


def post_select_and_correct(table: CountsTable, alice_keep_bit: int = 0) -> CorrectedCounts:
    """Keep shots with the dealer's bit equal to ``alice_keep_bit`` and fold
    the middle party's broadcast into the reconstructed party's bit.

    Strings arrive LSb-0 ("q2 q1 q0"); the dealer is the last character.
    For the recipient, an m_B = 1 shot flips the outcome in the X and Y
    tomography bases and is left alone in Z; the middle party's own
    tomography needs no correction.
    """
    if alice_keep_bit not in (0, 1):
        raise ValueError("alice_keep_bit must be 0 or 1")
    flip = table.party == "charlie" and table.basis_label in ("X", "Y")
    n = [0, 0]
    for bits, count in table.counts.items():
        if len(bits) != _N_QUBITS or set(bits) - {"0", "1"}:
            raise ValueError(f"malformed bitstring {bits!r}")
        charlie, bob, alice = bits[0], bits[1], bits[2]
        if alice != str(alice_keep_bit):
            continue
        bit = int(charlie) if table.party == "charlie" else int(bob)
        if flip and bob == "1":
            bit ^= 1
        n[bit] += count
    return CorrectedCounts(basis_label=table.basis_label, n0=float(n[0]), n1=float(n[1]))


def exact_corrected_counts(phi: float, basis: str, n_eff: float,
                           party: str = "charlie") -> CorrectedCounts:
    """Noise-free analytic expectations as pseudo-counts (infinite-shot limit)."""
    if party == "charlie":
        e = {"X": math.cos(phi), "Y": math.sin(phi), "Z": 0.0}[basis]
    else:
        e = 0.0
    return CorrectedCounts(basis_label=basis, n0=(1 + e) / 2 * n_eff, n1=(1 - e) / 2 * n_eff)


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    bloch_raw: np.ndarray     # linear-inversion vector before any projection
    n_eff: int                # smallest post-selected sample across bases
    c_value: float
    fidelity: float           # NaN when no reference angle was supplied


def _require_bases(x_counts: CorrectedCounts, y_counts: CorrectedCounts,
                   z_counts: CorrectedCounts) -> None:
    for c, want in ((x_counts, "X"), (y_counts, "Y"), (z_counts, "Z")):
        if c.basis_label != want:
            raise ValueError(f"expected {want} counts, got {c.basis_label}")
        if c.n_eff < 1:
            raise ValueError("empty post-selected sample")


def reconstruct(x_counts: CorrectedCounts, y_counts: CorrectedCounts,
                z_counts: CorrectedCounts, phi: float | None = None) -> ReconstructionResult:
    """Linear-inversion single-qubit tomography with radial physicality projection.

    C is the octahedron distance of the projected Bloch vector, which equals
    the Wigner-distance LP for one qubit.
    """
    _require_bases(x_counts, y_counts, z_counts)
    raw = np.array([x_counts.expectation, y_counts.expectation, z_counts.expectation])
    b = raw / max(1.0, float(np.linalg.norm(raw)))  # scale onto the Bloch ball
    rho = dm_from_bloch(b)
    fid = fidelity(rho, phase_plus(phi)) if phi is not None else math.nan
    return ReconstructionResult(
        rho=rho,
        bloch_raw=raw,
        n_eff=int(round(min(x_counts.n_eff, y_counts.n_eff, z_counts.n_eff))),
        c_value=octahedron_distance(b),
        fidelity=fid,
    )


def resample_expectations(counts: Sequence[CorrectedCounts], n_boot: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Parametric bootstrap draw: ``n_boot`` replicas of every sample's
    expectation, each count redrawn binomially at its empirical rate.

    Returns an (n_boot, len(counts)) array.  All draws come from one
    ``rng.binomial`` call, replica by replica and, within a replica, in the
    order of ``counts``.
    """
    if n_boot < MIN_N_BOOT:
        raise ValueError(f"n_boot must be at least {MIN_N_BOOT}")
    trials = np.array([int(round(c.n_eff)) for c in counts])
    if trials.min() < 1:
        raise ValueError("empty post-selected sample")
    rates = np.array([c.n0 / c.n_eff for c in counts])
    k = rng.binomial(trials, rates, size=(n_boot, len(counts)))
    return (2 * k - trials) / trials


def scale_onto_ball(raw: np.ndarray) -> np.ndarray:
    """Bloch vectors along the last axis, those longer than 1 scaled onto the
    unit sphere: the projection :func:`reconstruct` applies, for arrays."""
    b = raw / np.maximum(1.0, np.linalg.norm(raw, axis=-1, keepdims=True))
    if not np.all(np.einsum("...i,...i->...", b, b) <= 1.0 + 1e-9):
        raise RuntimeError("scaled Bloch vector left the unit ball")
    return b


def bootstrap(x_counts: CorrectedCounts, y_counts: CorrectedCounts,
              z_counts: CorrectedCounts, n_boot: int, seed: int,
              phi: float | None = None) -> tuple[float, float]:
    """Parametric bootstrap of the recipient's (sigma_C, sigma_F): sample
    standard deviations over ``n_boot`` replicas of :func:`resample_expectations`.

    Each replica is reconstructed as :func:`reconstruct` does, in closed form:
    C is the octahedron distance, which equals the Wigner-distance LP for one
    qubit, and the fidelity with P(phi)|+> is (1 + x cos phi + y sin phi)/2.
    sigma_F is NaN when no reference angle is given.
    """
    _require_bases(x_counts, y_counts, z_counts)
    rng = stream_rng(seed, f"bootstrap/{phi if phi is not None else 'none'}")
    b = scale_onto_ball(resample_expectations((x_counts, y_counts, z_counts), n_boot, rng))
    sigma_c = float(np.std(octahedron_distance(b), ddof=1))
    if phi is None:
        return sigma_c, math.nan
    fs = (1.0 + b[:, 0] * math.cos(phi) + b[:, 1] * math.sin(phi)) / 2.0
    return sigma_c, float(np.std(fs, ddof=1))


@dataclass(frozen=True)
class ExperimentRow:
    phi: float
    c_theory: float
    c_charlie: float
    sigma_c: float
    fidelity: float
    sigma_f: float
    c_bob: float
    n_eff: int
    exceeds_distillation_threshold: bool


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    shots: int
    n_boot: int
    seed: int
    noise: NoiseModel
    raw_counts: tuple[dict, ...]  # one entry per phi: party -> basis -> counts

    CSV_HEADER = ("phi,c_theory,c_charlie,sigma_c,fidelity,sigma_f,c_bob,"
                  "n_eff,exceeds_distillation_threshold")

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                _fmt(r.phi), _fmt(r.c_theory), _fmt(r.c_charlie), _fmt(r.sigma_c),
                _fmt(r.fidelity), _fmt(r.sigma_f), _fmt(r.c_bob),
                str(r.n_eff), str(r.exceeds_distillation_threshold).lower(),
            ]))
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
            "rows": [
                {
                    "phi": r.phi,
                    "c_theory": r.c_theory,
                    "c_charlie": r.c_charlie,
                    "sigma_c": r.sigma_c,
                    "fidelity": r.fidelity,
                    "sigma_f": r.sigma_f,
                    "c_bob": r.c_bob,
                    "n_eff": r.n_eff,
                    "exceeds_distillation_threshold": r.exceeds_distillation_threshold,
                }
                for r in self.rows
            ],
            "raw_counts": [
                {party: {basis: dict(sorted(counts.items()))
                         for basis, counts in by_basis.items()}
                 for party, by_basis in per_phi.items()}
                for per_phi in self.raw_counts
            ],
        }

    def plot_data_csv(self, n_curve: int = 200) -> str:
        """Theory curve plus measured points with error bars, one CSV."""
        lines = ["kind,phi,c_theory,c_measured,sigma_c"]
        for phi in np.linspace(0.0, 2 * np.pi, n_curve):
            lines.append(f"curve,{_fmt(float(phi))},{_fmt(c_closed_form(phi))},,")
        for r in self.rows:
            lines.append(f"point,{_fmt(r.phi)},{_fmt(r.c_theory)},"
                         f"{_fmt(r.c_charlie)},{_fmt(r.sigma_c)}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
        per_phi: dict[str, dict[str, dict[str, int]]] = {}
        corrected: dict[str, dict[str, CorrectedCounts]] = {}
        for party in ("charlie", "bob"):
            tables = {b: sample_run(phi, b, shots, noise, seed, party=party)
                      for b in ("X", "Y", "Z")}
            per_phi[party] = {b: t.counts for b, t in tables.items()}
            corrected[party] = {b: post_select_and_correct(t) for b, t in tables.items()}

        charlie = reconstruct(corrected["charlie"]["X"], corrected["charlie"]["Y"],
                              corrected["charlie"]["Z"], phi=phi)
        sigma_c, sigma_f = bootstrap(corrected["charlie"]["X"], corrected["charlie"]["Y"],
                                     corrected["charlie"]["Z"], n_boot, seed, phi=phi)
        bob = reconstruct(corrected["bob"]["X"], corrected["bob"]["Y"],
                          corrected["bob"]["Z"])
        rows.append(ExperimentRow(
            phi=phi,
            c_theory=c_closed_form(phi),
            c_charlie=charlie.c_value,
            sigma_c=sigma_c,
            fidelity=charlie.fidelity,
            sigma_f=sigma_f,
            c_bob=bob.c_value,
            n_eff=charlie.n_eff,
            exceeds_distillation_threshold=bool(charlie.fidelity > DISTILLATION_THRESHOLD),
        ))
        raw.append(per_phi)
    return ExperimentReport(rows=tuple(rows), shots=int(shots), n_boot=int(n_boot),
                            seed=int(seed), noise=noise, raw_counts=tuple(raw))
