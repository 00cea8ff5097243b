"""The magic secret sharing protocol: (2,3) and (n-1,n) runners, gate
admissibility, and security reporting.

A run has five steps: GHZ preparation, phase injection by the dealer
(party 0), X measurements with broadcast by parties 0..n-2 in turn, and a
final Z correction by the recipient (party n-1).  The broadcasts are the
transcript's messages, in step order; every party hears all of them, so the
recipient's correction is a function of the transcript alone.

The X measurements act on distinct qubits, so by deferred measurement
(Nielsen & Chuang section 4.4) H is applied once on the axes of parties
0..n-2 of the phased GHZ tensor and each branch is a slice of it: the slice
at (o_0, ..., o_{n-2}) is the recipient's unnormalised state, its squared
norm the branch probability, and a prefix slice the register after that many
broadcasts.  A party's marginal is the Gram matrix of its axis in a prefix
slice, kept as a Bloch vector and mapped back by (x, y, z) -> (z, -y, x)
where H is still applied on that axis.

Correction bookkeeping: every X measurement flips the sign of the e^{i phi}
branch when it lands on "minus", the dealer's included.  The recipient
therefore applies Z raised to the parity of *all* minus outcomes it heard,
which makes every one of the 2^{n-1} branches deliver exactly P(phi)|+>.
The transcript keeps the raw broadcasts so either convention can be audited.

Security is read from Bloch vectors b alone: a party's magic is the
octahedron distance of b, which equals the Wigner-distance LP for one qubit,
and its trace distance to I/2 is |b|/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .magic import c_closed_form, octahedron_distance
from .qcore import (
    DensityMatrix,
    H,
    apply_1q,
    apply_on_axes,
    bloch,
    dm_from_bloch,
    ghz,
    maximally_mixed,
    phase_gate,
    project_measure,
    require_unitary,
    trace_distance,
)

MIN_PARTIES = 3
MAX_PARTIES = 6  # 2^6 amplitudes; enough to exercise the induction fully

PLUS, MINUS = "+", "-"


@dataclass(frozen=True)
class BroadcastMessage:
    sender: int
    outcome: str   # "+" or "-"
    step: int


@dataclass(frozen=True)
class ProtocolTranscript:
    """Everything one protocol run produced, for auditing and security checks."""

    phi: float
    n_parties: int
    messages: tuple[BroadcastMessage, ...]
    branch_probability: float
    final_state: DensityMatrix  # recipient's 1-qubit state
    bloch_history: np.ndarray  # [j, k]: party k's Bloch vector after j measurements, k >= j
    correction_parity: int

    @property
    def recipient(self) -> int:
        return self.n_parties - 1

    @cached_property
    def marginal_history(self) -> tuple[tuple[DensityMatrix | None, ...], ...]:
        """Row j: per-party marginals after j measurements; None once measured out."""
        n = self.n_parties
        return tuple(tuple(None if k < j else dm_from_bloch(self.bloch_history[j, k])
                           for k in range(n)) for j in range(n))


def _bloch_of(block: np.ndarray) -> np.ndarray:
    """Bloch vector of the middle axis of an unnormalised (2^a, 2, 2^b) amplitude block."""
    g = np.einsum("aib,ajb->ij", block, block.conj())
    return np.array([2 * g[0, 1].real, -2 * g[0, 1].imag,
                     (g[0, 0] - g[1, 1]).real]) / (g[0, 0] + g[1, 1]).real


def _branch_tensor(phi: float, n: int) -> np.ndarray:
    """H on the axes of parties 0..n-2 of P(phi)_0 |GHZ_n>, shape (2,)*n."""
    if not MIN_PARTIES <= n <= MAX_PARTIES:
        raise ValueError(f"n must be in [{MIN_PARTIES}, {MAX_PARTIES}]")
    t = apply_1q(ghz(n), phase_gate(phi), 0).amps.reshape((2,) * n)
    for axis in range(n - 1):
        t = apply_on_axes(t, (axis,), H)
    return t


def _run(t: np.ndarray, phi: float, bits: Sequence[int]) -> ProtocolTranscript:
    """The branch with outcomes ``bits`` (0 for "+") read from the branch tensor."""
    n = t.ndim
    history = np.zeros((n, n, 3))
    for step in range(n):
        s = t[tuple(bits[:step])]
        for k in range(step, n):
            b = _bloch_of(s.reshape(2 ** (k - step), 2, -1))
            history[step, k] = b if k == n - 1 else (b[2], -b[1], b[0])
    history.setflags(write=False)

    probability = float(np.vdot(s, s).real)
    parity = sum(bits) % 2  # the recipient heard every broadcast
    final = s / np.sqrt(probability) * (1, -1 if parity else 1)
    return ProtocolTranscript(
        phi=float(phi),
        n_parties=n,
        messages=tuple(BroadcastMessage(sender=k, outcome=MINUS if o else PLUS, step=k)
                       for k, o in enumerate(bits)),
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
    t = _branch_tensor(phi, n)
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
    t = _branch_tensor(phi, n)
    return [_run(t, phi, bits) for bits in product((0, 1), repeat=n - 1)]


@dataclass(frozen=True)
class PartySecurity:
    party: int
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
    report = {}
    for party in range(transcript.n_parties - 1):
        held = transcript.bloch_history[:party + 1, party]  # steps before its own measurement
        b = held[np.argmax(np.linalg.norm(held, axis=1))]
        report[party] = PartySecurity(
            party=party,
            bloch=b,
            c_value=octahedron_distance(b),
            trace_distance_to_i2=float(np.linalg.norm(b)) / 2,
        )
    return report


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


def satisfies_column_sum(gate: np.ndarray, atol: float = 1e-10) -> bool:
    """Both column sums have unit modulus: the unauthorised marginal is I/2."""
    s0, s1 = column_sums(gate)
    return abs(s0 - 1.0) <= atol and abs(s1 - 1.0) <= atol


def _deliver_with_gate(gate: np.ndarray) -> tuple[DensityMatrix, DensityMatrix]:
    """(2,3) run with an arbitrary injected gate on the dealer qubit.

    Post-selects the dealer's |+> outcome (probability exactly 1/2 for any
    unitary) and uses the plus branch of the other coalition member, whose
    minus branch differs only by the Z correction.  Returns the recipient's
    delivered state and the remaining coalition member's marginal right
    after the dealer's projection, which is the moment the column-sum
    condition speaks about.
    """
    state = apply_1q(ghz(3), gate, 0)
    _, after_dealer = project_measure(state, 0, "X", 0)
    bob_marginal = dm_from_bloch(_bloch_of(after_dealer.amps.reshape(1, 2, -1)))
    _, delivered = project_measure(after_dealer, 0, "X", 0)
    return delivered.density(), bob_marginal


def bob_marginal_after_projection(gate: np.ndarray) -> DensityMatrix:
    """Coalition-member marginal after the dealer's |+> projection."""
    _, marginal = _deliver_with_gate(require_unitary(gate, atol=1e-10))
    return marginal


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

    col0, col1, c_vals, bob_dists = [], [], [], []
    half = maximally_mixed(1)
    for phi in probes:
        g = require_unitary(family(phi), atol=1e-10)
        s0, s1 = column_sums(g)
        delivered, bob = _deliver_with_gate(g)
        col0.append(s0)
        col1.append(s1)
        c_vals.append(octahedron_distance(bloch(delivered)))
        bob_dists.append(trace_distance(bob, half))

    secure = all(abs(s - 1.0) <= 1e-10 for s in col0 + col1)
    faithful = max(c_vals) > 1e-6 and (max(c_vals) - min(c_vals)) > 1e-7
    return GateAdmissibility(
        probe_phis=tuple(probes),
        col0_sums=tuple(col0),
        col1_sums=tuple(col1),
        c_values=tuple(c_vals),
        bob_i2_distances=tuple(bob_dists),
        secure=secure,
        faithful=faithful,
    )


def phase_gate_family(phi: float) -> np.ndarray:
    """The diagonal phase family P(phi), the protocol's admissible class."""
    return phase_gate(phi)


def x_rotation_family(phi: float) -> np.ndarray:
    """e^{i (phi/2) X}: satisfies the column-sum condition yet delivers
    phi-independent states, so it is secure but never faithful."""
    return np.cos(phi / 2) * np.eye(2, dtype=complex) + 1j * np.sin(phi / 2) * np.array(
        [[0, 1], [1, 0]], dtype=complex)


def magic_scan(phi_grid: Sequence[float], n: int = 3) -> list[tuple[float, float, float]]:
    """(phi, C from the closed form, C of the exact protocol output) per grid point."""
    grid = [float(p) for p in phi_grid]
    if not grid:
        raise ValueError("phi grid must be nonempty")
    rows = []
    for phi in grid:
        delivered = _branch_tensor(phi, n)[(0,) * (n - 1)]  # all-plus: no correction
        rows.append((phi, c_closed_form(phi),
                     octahedron_distance(_bloch_of(delivered.reshape(1, 2, 1)))))
    return rows
