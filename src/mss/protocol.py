"""The magic secret sharing protocol: (2,3) and (n-1,n) runners, gate
admissibility, and security reporting.

A run has five steps: GHZ preparation, phase injection by the dealer
(party 0), X measurements with broadcast by parties 0..n-2 in turn, and a
final Z correction by the recipient (party n-1).  Party k broadcasts at step
k, so the transcript keeps the broadcasts as one "+"/"-" string in step
order; every party hears all of them, so the recipient's correction is a
function of the transcript alone.

The X measurements act on distinct qubits, so by deferred measurement
(Nielsen & Chuang section 4.4) H^{(x)(n-1)} on parties 0..n-2, one cached
2^{n-1} x 2^{n-1} matrix, multiplies the phased GHZ amplitudes once, and
each branch is a slice of the result: the slice at (o_0, ..., o_{n-2}) is
the recipient's unnormalised state, its squared norm the branch probability,
and a prefix slice the register after that many broadcasts.  A party's
marginal is the Gram matrix of its axis on a prefix slice; one batched matmul
forms all of them for a branch at once, each read as a Bloch vector, mapped
back by (x, y, z) -> (z, -y, x) where H is still applied on that axis.

Correction bookkeeping: every X measurement flips the sign of the e^{i phi}
branch when it lands on "minus", the dealer's included.  The recipient
therefore applies Z raised to the parity of *all* minus outcomes it heard,
which makes every one of the 2^{n-1} branches deliver exactly P(phi)|+>.
The transcript keeps the raw broadcasts so either convention can be audited.

Security is read from Bloch vectors b alone, at each party's first step of
largest |b|: its magic is the octahedron distance of b, which equals the
Wigner-distance LP for one qubit, and its trace distance to I/2 is |b|/2.
Gate admissibility reads the same tensor with an arbitrary gate in place of
P(phi), and so does the steering assemblage, with the dealer's setting
rotation folded into that gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .magic import c_closed_form, octahedron_distance
from .qcore import DensityMatrix, H, I2, X, dm_from_bloch, ghz, phase_gate, require_unitary

MIN_PARTIES = 3
MAX_PARTIES = 6  # 2^6 amplitudes; enough to exercise the induction fully
GATE_ATOL = 1e-10  # an injected gate's unitarity and column-sum tolerance, on every path

PLUS, MINUS = "+", "-"


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """Everything one protocol run produced, for auditing and security checks."""

    phi: float
    n_parties: int
    outcomes: str  # the n-1 broadcasts, "+" or "-", party k's at index k
    branch_probability: float
    final_state: DensityMatrix  # recipient's 1-qubit state
    bloch_history: np.ndarray  # [j, k]: party k's Bloch vector after j measurements; 0 for k < j
    correction_parity: int

    @cached_property
    def marginal_history(self) -> tuple[tuple[DensityMatrix | None, ...], ...]:
        """Row j: per-party marginals after j measurements; None once measured out."""
        n = self.n_parties
        return tuple(tuple(None if k < j else dm_from_bloch(self.bloch_history[j, k])
                           for k in range(n)) for j in range(n))


# (x, y, z, trace) of a qubit from its Gram entries (g00, g01, g10, g11): x = 2 Re g01,
# y = -2 Im g01 = Re(2i g01), z = g00 - g11; _H_FRAME reads (z, -y, x) where H still acts.
_GRAM_TO_BLOCH = np.array([[0, 0, 1, 1], [2, 2j, 0, 0], [0, 0, 0, 0], [0, 0, -1, 1]])
_H_FRAME = _GRAM_TO_BLOCH[:, [2, 1, 0, 3]] * (1, -1, 1, 1)


def _blochs(pairs: np.ndarray, to_bloch: np.ndarray = _GRAM_TO_BLOCH) -> np.ndarray:
    """Bloch vectors of unnormalised qubits: ``pairs[..., i, h]`` is the amplitude
    of the qubit's |i> next to basis state h of the rest; returns shape (..., 3)."""
    g = (pairs @ pairs.conj().swapaxes(-1, -2)).reshape(pairs.shape[:-2] + (4,))
    b = (g @ to_bloch).real
    return b[..., :3] / b[..., 3:]


@lru_cache(maxsize=None)
def _hadamard_power(m: int) -> np.ndarray:
    """H^{(x)m} as a read-only 2^m x 2^m matrix, party 0 most significant."""
    h = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        h = np.kron(h, H)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def _axis_pairs(m: int) -> np.ndarray:
    """Read-only (m, 2, 2^{m-1}) flat indices of a (2,)*m tensor: row [a, i]
    lists the entries with axis a equal to i, the other axes in order."""
    flat = np.arange(2 ** m).reshape((2,) * m)
    idx = np.stack([np.moveaxis(flat, a, 0).reshape(2, -1) for a in range(m)])
    idx.setflags(write=False)
    return idx


def _require_parties(n: int) -> None:
    if not MIN_PARTIES <= n <= MAX_PARTIES:
        raise ValueError(f"n must be in [{MIN_PARTIES}, {MAX_PARTIES}]")


@lru_cache(maxsize=None)
def _history_tables(n: int) -> tuple[np.ndarray, ...]:
    """Read-only tables for :func:`_run`, a row per (step j, party k >= j): j, k, axis
    k's rows of :func:`_axis_pairs`, 2^{n-1-j}, and axis k's Gram-to-(x, y, z, trace) map."""
    steps, axes = np.triu_indices(n)
    maps = np.stack([_GRAM_TO_BLOCH if k == n - 1 else _H_FRAME for k in axes])
    tables = (steps, axes, _axis_pairs(n)[axes], (1 << (n - 1 - steps))[:, None], maps)
    for a in tables:
        a.setflags(write=False)
    return tables


def _branch_tensor(gate: np.ndarray, n: int) -> np.ndarray:
    """H on the axes of parties 0..n-2 of gate_0 |GHZ_n>, shape (2,)*n; the
    protocol injects gate = P(phi), and any gate must be unitary within GATE_ATOL."""
    _require_parties(n)
    g = require_unitary(gate, GATE_ATOL)
    psi = np.dot(g, ghz(n).amps.reshape(2, -1)).reshape(2 ** (n - 1), 2)
    return (_hadamard_power(n - 1) @ psi).reshape((2,) * n)


def _run(t: np.ndarray, phi: float, bits: Sequence[int]) -> ProtocolTranscript:
    """The branch with outcomes ``bits`` (0 for "+") read from the branch tensor.

    One pass reads the whole history: after step j the register is the slice of
    indices h of the other axes with (h XOR bits) < 2^{n-1-j}, and one batched
    matmul forms every party's Gram matrix on every such slice."""
    n = t.ndim
    steps, axes, pairs, spans, maps = _history_tables(n)
    code = int("".join(map(str, bits)), 2)
    q = t.reshape(-1)[pairs]
    q_kept = q * ((np.arange(2 ** (n - 1)) ^ code) < spans)[:, None]
    b = ((q_kept @ q.conj().swapaxes(1, 2)).reshape(-1, 1, 4) @ maps)[:, 0].real
    history = np.zeros((n, n, 3))
    history[steps, axes] = b[:, :3] / b[:, 3:]
    history.setflags(write=False)

    s = t[tuple(bits)]
    probability = float(np.vdot(s, s).real)
    parity = sum(bits) % 2  # the recipient heard every broadcast
    final = s / np.sqrt(probability) * (1, -1 if parity else 1)
    return ProtocolTranscript(
        phi=float(phi),
        n_parties=n,
        outcomes="".join(MINUS if o else PLUS for o in bits),
        branch_probability=probability,
        final_state=DensityMatrix(np.outer(final, final.conj())),
        bloch_history=history,
        correction_parity=parity,
    )


def run_exact(phi: float, n: int = 3,
              outcomes: Sequence[str] | None = None,
              seed: int | None = None) -> ProtocolTranscript:
    """Run one (n-1, n) protocol branch exactly.

    ``outcomes`` forces the n-1 measurement results ("+"/"-") for branch
    enumeration; if omitted, outcomes are sampled from the Born rule with a
    seeded generator.  Works at every phi: the excluded secret values
    {0, pi/2, pi, 3pi/2} simply deliver a stabilizer state with C = 0.
    """
    t = _branch_tensor(phase_gate(phi), n)
    if outcomes is not None:
        if len(outcomes) != n - 1 or any(o not in (PLUS, MINUS) for o in outcomes):
            raise ValueError(f"outcomes must be {n - 1} symbols drawn from '+-'")
        return _run(t, phi, [int(o == MINUS) for o in outcomes])
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    rng = np.random.default_rng(seed)
    bits: list[int] = []
    for _ in range(n - 1):  # one draw per step, from the prefix probabilities
        s = t[tuple(bits)]
        bits.append(0 if rng.random() < np.vdot(s[0], s[0]).real / np.vdot(s, s).real else 1)
    return _run(t, phi, bits)


def run_all_branches(phi: float, n: int = 3) -> list[ProtocolTranscript]:
    """All 2^{n-1} forced-outcome branches of one protocol instance."""
    t = _branch_tensor(phase_gate(phi), n)
    return [_run(t, phi, bits) for bits in product((0, 1), repeat=n - 1)]


@dataclass(frozen=True, eq=False)
class PartySecurity:
    bloch: np.ndarray  # the worst-case marginal's Bloch vector, read-only
    c_value: float
    trace_distance_to_i2: float

    @cached_property
    def marginal(self) -> DensityMatrix:
        """The worst-case marginal as a density matrix, built on first read."""
        return dm_from_bloch(self.bloch)


def security_report(transcript: ProtocolTranscript) -> dict[int, PartySecurity]:
    """Worst-case single-party view for every non-recipient party.

    For each party, takes the marginal with the largest distance from I/2
    across every step the party was still holding its qubit, so the report
    covers the whole run rather than one snapshot.
    """
    parties = np.arange(transcript.n_parties - 1)
    norms = np.sqrt((transcript.bloch_history[:, :-1] ** 2).sum(axis=-1))
    # rows after a party's own measurement are zero: the first maximum is over the steps it held
    steps = np.argmax(norms, axis=0)
    worst = transcript.bloch_history[steps, parties]
    worst.setflags(write=False)
    rows = zip(worst, octahedron_distance(worst).tolist(), (norms[steps, parties] / 2).tolist())
    return {party: PartySecurity(*row) for party, row in enumerate(rows)}


# --- Gate admissibility (which injected gates keep the protocol secure) ---

GateFamily = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class GateAdmissibility:
    """Column-sum security condition and phi-faithfulness of an injected gate."""

    probe_phis: tuple[float, ...]
    col0_sums: tuple[float, ...]      # |G00 + G10| per probe
    col1_sums: tuple[float, ...]      # |G01 + G11| per probe
    c_values: tuple[float, ...]       # recipient's C per probe
    bob_i2_distances: tuple[float, ...]
    secure: bool
    faithful: bool

    @property
    def col0_sum_abs(self) -> float:
        """The probe value furthest from 1 (the binding one for security)."""
        return max(self.col0_sums, key=lambda v: abs(v - 1.0))

    @property
    def col1_sum_abs(self) -> float:
        return max(self.col1_sums, key=lambda v: abs(v - 1.0))


def column_sums(gate: np.ndarray) -> tuple[float, float]:
    """(|G00 + G10|, |G01 + G11|) for any 2x2 matrix, unitary or not."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    return float(abs(g[0, 0] + g[1, 0])), float(abs(g[0, 1] + g[1, 1]))


def satisfies_column_sum(gate: np.ndarray, atol: float = GATE_ATOL) -> bool:
    """Both column sums have unit modulus: the unauthorised marginal is I/2."""
    s0, s1 = column_sums(gate)
    return abs(s0 - 1.0) <= atol and abs(s1 - 1.0) <= atol


def _deliver_with_gate(gate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2,3) run with an arbitrary injected gate on the dealer qubit.

    Post-selects the dealer's |+> outcome (probability exactly 1/2 for any
    unitary) and uses the plus branch of the other coalition member, whose
    minus branch differs only by the Z correction.  Returns the Bloch vectors
    of the recipient's delivered state and of the remaining coalition
    member's marginal right after the dealer's projection, which is the
    moment the column-sum condition speaks about.
    """
    t = _branch_tensor(gate, 3)
    return _blochs(t[0, 0][:, None]), _blochs(t[0], _H_FRAME)


def bob_marginal_after_projection(gate: np.ndarray) -> DensityMatrix:
    """Coalition-member marginal after the dealer's |+> projection."""
    _, bob = _deliver_with_gate(gate)
    return dm_from_bloch(bob)


def check_gate_admissibility(gate, probe_phis: Sequence[float]) -> GateAdmissibility:
    """Probe a gate family for the security and faithfulness of the protocol.

    ``gate`` is either a callable phi -> 2x2 unitary or a fixed matrix
    (treated as the constant family).  Secure means both column sums have
    unit modulus at every probe; faithful means the recipient's C actually
    varies with phi and is somewhere above 1e-6.
    """
    probes = [float(p) for p in probe_phis]
    if not probes or not np.all(np.isfinite(probes)):
        raise ValueError("probe_phis must be nonempty and finite")
    family: GateFamily = gate if callable(gate) else (lambda _phi, _g=np.asarray(gate, dtype=complex): _g)

    gates = [require_unitary(family(phi), GATE_ATOL) for phi in probes]
    col0, col1 = zip(*map(column_sums, gates))
    blochs = np.array([_deliver_with_gate(g) for g in gates])  # [probe, (delivered, bob), xyz]
    c_vals = tuple(octahedron_distance(blochs[:, 0]).tolist())

    secure = all(satisfies_column_sum(g) for g in gates)
    faithful = max(c_vals) > 1e-6 and (max(c_vals) - min(c_vals)) > 1e-7
    return GateAdmissibility(
        probe_phis=tuple(probes),
        col0_sums=col0,
        col1_sums=col1,
        c_values=c_vals,
        bob_i2_distances=tuple((np.linalg.norm(blochs[:, 1], axis=-1) / 2).tolist()),
        secure=secure,
        faithful=faithful,
    )


def phase_gate_family(phi: float) -> np.ndarray:
    """The diagonal phase family P(phi), the protocol's admissible class."""
    return phase_gate(phi)


def x_rotation_family(phi: float) -> np.ndarray:
    """e^{i (phi/2) X}: satisfies the column-sum condition yet delivers
    phi-independent states, so it is secure but never faithful."""
    return np.cos(phi / 2) * I2 + 1j * np.sin(phi / 2) * X


def magic_scan(phi_grid: Sequence[float], n: int = 3) -> list[tuple[float, float, float]]:
    """(phi, C from the closed form, C of the exact protocol output) per grid point.

    Every point reads the all-plus branch, which needs no correction.  Parties
    1..n-2 enter it only through <+|, so they are contracted out of |GHZ_n>
    once, leaving a 2x2 matrix M over (dealer, recipient); the dealer's
    <+| P(phi) is the row (1, e^{i phi})/sqrt(2), so the whole grid's
    delivered states are one (grid, 2) row stack times M.
    """
    grid = np.array(phi_grid, dtype=float).reshape(-1)
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("phi grid must be nonempty and finite")
    _require_parties(n)
    m = _hadamard_power(n - 2)[0] @ ghz(n).amps.reshape(2, 2 ** (n - 2), 2)
    dealer = np.stack([np.ones(grid.size), np.exp(1j * grid)], axis=-1) / np.sqrt(2)
    c_protocol = octahedron_distance(_blochs((dealer @ m)[..., None]))
    return [(phi, c_closed_form(phi), c) for phi, c in zip(grid.tolist(), c_protocol.tolist())]
