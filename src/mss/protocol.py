"""The magic secret sharing protocol: (2,3) and (n-1,n) runners, gate
admissibility, and security reporting.

A run has five steps: GHZ preparation, phase injection by the dealer
(party 0), X measurements with broadcast by parties 0..n-2 in turn, and a
final Z correction by the recipient (party n-1).  Party k broadcasts at step
k, so the transcript keeps the broadcasts as one "+"/"-" string in step
order; every party hears all of them, so the recipient's correction is a
function of the transcript alone.

The register is the (4,)*m tensor of its Pauli coefficients, as in ``tomo``:
r[a_0, ..., a_{m-1}] = tr(rho P_{a_0} x ... x P_{a_{m-1}}), P in (I, X, Y, Z).
Every step is a slice or a sign.  |GHZ_n> has 2^n nonzero terms, none of
weight 1; P(phi) acts on axis 0 by its closed-form transfer matrix
``qcore.phase_ptm(phi)``, so every nonzero entry of a branch is 1, cos phi or
sin phi times +-2^-k, and a run carries no round-off; an X broadcast with
outcome s = +-1 by the party on axis 0 leaves the rest (r[I] + s r[X]) / 2,
whose identity term is the branch probability so far; a party's Bloch vector
is its weight-1 terms over the identity term; and the recipient's Z
correction flips the signs of its X and Y terms.

Correction bookkeeping: every X measurement flips the sign of the e^{i phi}
branch when it lands on "minus", the dealer's included.  The recipient
therefore applies Z raised to the parity of *all* minus outcomes it heard,
which makes every one of the 2^{n-1} branches deliver exactly P(phi)|+>.
The transcript keeps the raw broadcasts so either convention can be audited.

Security is read from Bloch vectors b alone, at each party's first step of
largest |b|: its magic is the octahedron distance of b, the 1-qubit
Wigner distance, and its trace distance to I/2 is |b|/2.
Gate admissibility runs the same register with an arbitrary unitary U in
place of P(phi), through ``ptm(U)`` after one unitarity check; the steering
assemblage runs it with P(phi), reading the dealer's setting as a Pauli term.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import qcore
from .magic import c_closed_form, octahedron_distance
from .qcore import (DensityMatrix, I2, Record, ValueRecord, X, dm_from_bloch, phase_gate,
                    phase_ptm, ptm, require_unitary)

MIN_PARTIES = 3
MAX_PARTIES = 6  # 4^6 Pauli terms; enough to exercise the induction fully

PLUS, MINUS = "+", "-"


class ProtocolTranscript(Record):
    """Everything one protocol run produced, for auditing and security checks."""

    phi: float
    n_parties: int
    outcomes: str  # the n-1 broadcasts, "+" or "-", party k's at index k
    branch_probability: float
    final_state: DensityMatrix  # recipient's 1-qubit state
    bloch_history: np.ndarray  # [j, k]: party k's Bloch vector after j measurements; 0 for k < j
    correction_parity: int

    def __init__(self, phi, n_parties, outcomes, branch_probability, final_state, bloch_history,
                 correction_parity) -> None:
        self.__dict__.update(phi=phi, n_parties=n_parties, outcomes=outcomes,
                             branch_probability=branch_probability, final_state=final_state,
                             bloch_history=bloch_history, correction_parity=correction_parity)

    @cached_property
    def marginal_history(self) -> tuple[tuple[DensityMatrix | None, ...], ...]:
        """Row j: per-party marginals after j measurements; None once measured out."""
        n = self.n_parties
        return tuple(tuple(None if k < j else dm_from_bloch(self.bloch_history[j, k])
                           for k in range(n)) for j in range(n))


def _require_parties(n) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if not MIN_PARTIES <= n <= MAX_PARTIES:
        raise ValueError(f"n must be in [{MIN_PARTIES}, {MAX_PARTIES}]")
    return n


@lru_cache(maxsize=None)
def _ghz(n: int) -> np.ndarray:
    """|GHZ_n><GHZ_n| as its read-only (4,)*n Pauli tensor: half the sum over
    i, j in {0, 1} of the n-fold products of tr(|i><j| P)."""
    rows = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1j, 0], [0, 1, -1j, 0]])
    r = sum(reduce(np.multiply.outer, [row] * n) for row in rows).real / 2
    r.setflags(write=False)
    return r


def _dealt(transfer: np.ndarray, n: int) -> np.ndarray:
    """The Pauli tensor of U_0 |GHZ_n>, given the 4x4 transfer matrix of the
    dealer's gate U; the protocol injects ``phase_ptm(phi)``."""
    n = _require_parties(n)
    r = _ghz(n)
    return (transfer @ r.reshape(4, -1)).reshape(r.shape)


def _broadcast(r: np.ndarray, bit: int) -> np.ndarray:
    """What the party on axis 0 leaves the others when it broadcasts ``bit``
    (0 for "+"): tr_0(|+-><+-| rho) = (r[I] +- r[X]) / 2, unnormalised."""
    return (r[0] - r[1]) / 2 if bit else (r[0] + r[1]) / 2


# Flat indices of the weight-1 terms of a (4,)*m tensor: row a - m for axis a, one per X, Y, Z.
_WEIGHT_ONE = 4 ** np.arange(MAX_PARTIES - 1, -1, -1)[:, None] * np.arange(1, 4)
_WEIGHT_ONE.setflags(write=False)


def _bloch_rows(r: np.ndarray) -> np.ndarray:
    """Every axis's Bloch vector, shape (r.ndim, 3): its weight-1 terms over
    the identity term."""
    return r.reshape(-1)[_WEIGHT_ONE[-r.ndim:]] / r.flat[0]


def _forced(bits: Sequence[int]) -> Callable[[int, float], int]:
    return lambda step, _p_plus: bits[step]


def _run(r: np.ndarray, phi: float, choose: Callable[[int, float], int]) -> ProtocolTranscript:
    """One branch of the dealt register ``r``: at step k, ``choose(k, p)``
    gives party k's broadcast bit (0 for "+") from its probability p of "+"
    given the broadcasts before it."""
    n = r.ndim
    history = np.zeros((n, n, 3))
    bits = []
    for step in range(n - 1):
        history[step, step:] = _bloch_rows(r)
        # r.flat[r.size // 4] is the X term of the party on axis 0
        bits.append(choose(step, (r.flat[0] + r.flat[r.size // 4]) / (2 * r.flat[0])))
        r = _broadcast(r, bits[-1])
    history[-1, -1] = _bloch_rows(r)[0]
    history.setflags(write=False)

    parity = sum(bits) % 2  # the recipient heard every broadcast
    flip = 1 - 2 * parity
    return ProtocolTranscript(
        phi=float(phi),
        n_parties=n,
        outcomes="".join(MINUS if o else PLUS for o in bits),
        branch_probability=float(r[0]),
        final_state=dm_from_bloch(history[-1, -1] * (flip, flip, 1)),
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
    r = _dealt(phase_ptm(phi), n)
    if outcomes is not None:
        if len(outcomes) != r.ndim - 1 or any(o not in (PLUS, MINUS) for o in outcomes):
            raise ValueError(f"outcomes must be {r.ndim - 1} symbols drawn from '+-'")
        return _run(r, phi, _forced([int(o == MINUS) for o in outcomes]))
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    rng = np.random.default_rng(seed)  # one draw per step
    return _run(r, phi, lambda _step, p_plus: 0 if rng.random() < p_plus else 1)


def run_all_branches(phi: float, n: int = 3) -> list[ProtocolTranscript]:
    """All 2^{n-1} forced-outcome branches of one protocol instance."""
    r = _dealt(phase_ptm(phi), n)
    return [_run(r, phi, _forced(bits)) for bits in product((0, 1), repeat=r.ndim - 1)]


class PartySecurity(Record):
    """One non-recipient party's worst-case marginal over the run."""

    bloch: np.ndarray  # the worst-case marginal's Bloch vector, read-only
    c_value: float
    trace_distance_to_i2: float

    def __init__(self, bloch, c_value, trace_distance_to_i2) -> None:
        self.__dict__.update(bloch=bloch, c_value=c_value, trace_distance_to_i2=trace_distance_to_i2)

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

class GateAdmissibility(ValueRecord):
    """Column-sum security condition and phi-faithfulness of an injected gate."""

    probe_phis: tuple[float, ...]
    col0_sums: tuple[float, ...]      # |G00 + G10| per probe
    col1_sums: tuple[float, ...]      # |G01 + G11| per probe
    c_values: tuple[float, ...]       # recipient's C per probe
    bob_i2_distances: tuple[float, ...]
    secure: bool
    faithful: bool

    def __init__(self, probe_phis, col0_sums, col1_sums, c_values, bob_i2_distances, secure,
                 faithful) -> None:
        self.__dict__.update(probe_phis=probe_phis, col0_sums=col0_sums, col1_sums=col1_sums,
                             c_values=c_values, bob_i2_distances=bob_i2_distances, secure=secure,
                             faithful=faithful)

    @property
    def col0_sum_abs(self) -> float:
        """The probe value furthest from 1 (the binding one for security)."""
        return max(self.col0_sums, key=lambda v: abs(v - 1.0))

    @property
    def col1_sum_abs(self) -> float:
        return max(self.col1_sums, key=lambda v: abs(v - 1.0))


def column_sums(gate: np.ndarray) -> tuple[float, float]:
    """(|G00 + G10|, |G01 + G11|) for any 2x2 matrix, unitary or not; a sum
    that is not a finite float raises ValueError."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    with np.errstate(over="ignore"):  # a sum past the float range is refused below
        s0, s1 = float(abs(g[0, 0] + g[1, 0])), float(abs(g[0, 1] + g[1, 1]))
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"column sums must be finite, got {s0}, {s1}")
    return s0, s1


def satisfies_column_sum(gate: np.ndarray) -> bool:
    """Both column sums have unit modulus within GATE_ATOL: the unauthorised
    marginal is I/2."""
    s0, s1 = column_sums(gate)
    return abs(s0 - 1.0) <= qcore.GATE_ATOL and abs(s1 - 1.0) <= qcore.GATE_ATOL


def _deliver(transfer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2,3) run with ``transfer`` dealt, both broadcasts "+": the Bloch
    vectors of the recipient's delivered state and of the middle party's
    marginal right after the dealer's "+", which is the moment the column-sum
    condition speaks about (its "-" branch differs only by the Z correction)."""
    after_dealer = _broadcast(_dealt(transfer, 3), 0)
    return _bloch_rows(_broadcast(after_dealer, 0))[0], _bloch_rows(after_dealer)[0]


def bob_marginal_after_projection(gate: np.ndarray) -> DensityMatrix:
    """Coalition-member marginal after the dealer's |+> projection; the gate
    must be unitary within GATE_ATOL."""
    _, bob = _deliver(ptm(require_unitary(gate)))
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
    gates = [require_unitary(gate(phi) if callable(gate) else gate) for phi in probes]
    col0, col1 = zip(*map(column_sums, gates))
    blochs = np.array([_deliver(ptm(g)) for g in gates])  # [probe, (delivered, bob), xyz]
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


def _plus_rows(grid: np.ndarray) -> np.ndarray:
    """Per grid angle, the dealer's "+" row after P(phi), (1, cos phi, -sin phi, 0) / 2."""
    return np.stack([np.ones(grid.size), np.cos(grid), -np.sin(grid), np.zeros(grid.size)],
                    axis=-1) / 2


def magic_scan(phi_grid: Sequence[float], n: int = 3) -> list[tuple[float, float, float]]:
    """(phi, C from the closed form, C of the exact protocol output) per grid point.

    Every point reads the all-plus branch, which needs no correction.  Parties
    1..n-2 broadcast "+" out of |GHZ_n> once, leaving a (4, 4) tensor M over
    (dealer, recipient), so the whole grid's delivered states are
    :func:`_plus_rows` times M.
    """
    grid = np.array(phi_grid, dtype=float).reshape(-1)
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("phi grid must be nonempty and finite")
    n = _require_parties(n)
    m = np.moveaxis(_ghz(n), 0, -2)  # (parties 1..n-2, dealer, recipient)
    for _ in range(n - 2):
        m = _broadcast(m, 0)
    delivered = _plus_rows(grid) @ m
    c_protocol = octahedron_distance(delivered[:, 1:] / delivered[:, :1])
    return [(phi, c_closed_form(phi), c) for phi, c in zip(grid.tolist(), c_protocol.tolist())]
