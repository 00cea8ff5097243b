"""Steering assemblage construction and one-sided device-independent
certification of delivered magic.

After the middle party's X measurement and the recipient's Z correction,
dealer and recipient share rho_AC = |psi><psi| with
|psi> = (|00> + e^{i phi}|11>)/sqrt(2).  The dealer's X and Y measurements
then steer the recipient into conditional states whose magic equals the
secret's C(phi), and the dual witness of the Wigner distance turns that into
a linear functional a stabilizer local-hidden-state model can never satisfy.

Each sigma_{b|x} is read off one register r, the protocol's Pauli tensor
with ``phase_ptm(phi)`` dealt: the dealer's readout bit b of its Pauli P_x
leaves (r[I] +- r[P_x]) / 2, and sigma_{b|x} is the recipient's state after
that and the middle party's "+".  P(phi) is in closed form, so the X and Y
members, and the exact certificate, carry no round-off.

Outcome convention: outcome 0 of the X setting projects the dealer onto
|+>; outcome 0 of the Y setting projects onto (|0> - i|1>)/sqrt(2), the -1
eigenstate and readout bit 1, so that sigma_{0|Y} = S sigma_{0|X} S^dagger.
That covariance is what lets one witness serve both settings: the
functional evaluates the Y term against the S-conjugated witness (same
stabilizer bound, because Clifford conjugation permutes the polytope
vertices), and the witness at sigma_{0|X} certifies the gap exactly.
Every certification value is :func:`_functional_value` of Bloch vectors and
the witness's Pauli terms: ``MagicResult.witness_terms`` in
:func:`evaluate_functional`, and :func:`magic.octahedron_witness` for the
exact assemblage and every bootstrap replica, the sampled point being
replica zero.  No path solves an LP: the 1-qubit witness is in closed form.
No angle enters the certification path except through the assemblage
states themselves.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import tomo
from .magic import MagicResult, octahedron_witness, wigner_distance
from .protocol import _broadcast, _dealt
from .qcore import DensityMatrix, ValueRecord, bloch, dm_from_bloch, phase_ptm
from .stabilizer import enumerate_stabilizer_states

SETTINGS = ("X", "Y")
DEFAULT_N_BOOT = 500  # bootstrap replicas of a sampled certification


class Assemblage(ValueRecord):
    """Conditional recipient states sigma_{a|x} with their outcome probabilities."""

    members: Mapping[tuple[str, int], tuple[float, DensityMatrix]]  # a read-only view of a copy

    def __init__(self, members) -> None:
        self.__dict__["members"] = MappingProxyType(dict(members))
        for x in SETTINGS:
            if (x, 0) not in self.members or (x, 1) not in self.members:
                raise ValueError(f"assemblage is missing outcomes for setting {x}")
            total = self.members[(x, 0)][0] + self.members[(x, 1)][0]
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"outcome probabilities for {x} sum to {total}")
        averages = [self.average_state(x) for x in SETTINGS]
        for other in averages[1:]:
            if np.max(np.abs(other - averages[0])) > 1e-10:
                raise ValueError("no-signalling violated: setting averages differ")

    def average_state(self, setting: str) -> np.ndarray:
        p0, s0 = self.members[(setting, 0)]
        p1, s1 = self.members[(setting, 1)]
        return p0 * s0.mat + p1 * s1.mat

    def state(self, setting: str, outcome: int) -> DensityMatrix:
        return self.members[(setting, outcome)][1]


class CertificationRecord(ValueRecord):
    """The steering functional on an assemblage and its local-hidden-state bound."""

    f_value: float  # the functional F on the assemblage
    f_lhs: float    # its bound over stabilizer local-hidden-state assemblages

    def __init__(self, f_value, f_lhs) -> None:
        self.__dict__.update(f_value=f_value, f_lhs=f_lhs)

    @property
    def gap(self) -> float:
        return self.f_value - self.f_lhs

    @property
    def certified_c(self) -> float:
        """The certified lower bound on C: the gap, floored at 0."""
        return max(0.0, self.gap)


# The dealer's readout bit of outcome 0 per setting: Y's is the -1 eigenstate, bit 1.
_OUTCOME_0_BIT = {"X": 0, "Y": 1}


def _conditional_states(r: np.ndarray, setting: str) -> list[tuple[float, np.ndarray]]:
    """(p(b|x), Bloch vector of sigma_{b|x}) for the dealer's readout bits
    b = 0, 1 of setting x, read off the dealt register r.

    The recipient's state after the middle party's "-", Z-corrected (the
    signs of its X and Y terms flipped), is compared against its state after
    "+" on every call, which re-verifies the branch independence the
    correction is supposed to provide.
    """
    readout = r[[0, "IXYZ".index(setting)]]  # the dealer's I and P_x terms
    states = []
    for middle in (_broadcast(readout, 0), _broadcast(readout, 1)):  # the readout bit b
        plus, minus = _broadcast(middle, 0), _broadcast(middle, 1)
        if np.max(np.abs(plus - minus * (1, -1, -1, 1))) > 1e-10:
            raise RuntimeError("branch independence violated in assemblage construction")
        # the middle party's "+" has probability 1/2
        states.append((float(2 * plus[0]), plus[1:] / plus[0]))
    return states


def build_assemblage(phi: float) -> Assemblage:
    """The ideal protocol assemblage for secret angle phi."""
    r = _dealt(phase_ptm(phi), 3)
    members = {}
    for setting in SETTINGS:
        states = _conditional_states(r, setting)
        for outcome in (0, 1):
            p, b = states[outcome ^ _OUTCOME_0_BIT[setting]]
            members[(setting, outcome)] = (p, dm_from_bloch(b))
    return Assemblage(members=members)


def z_setting_probe(phi: float) -> DensityMatrix:
    """Recipient's conditional state under a dealer Z measurement, outcome 0.

    Always |0><0| regardless of phi: the computational-basis setting leaks
    no magic, which is why the functional uses X and Y only.
    """
    return dm_from_bloch(_conditional_states(_dealt(phase_ptm(phi), 3), "Z")[0][1])


def solve_witness(assemblage: Assemblage) -> MagicResult:
    """The Wigner distance, in closed form, at the assemblage's own
    sigma_{0|X}; phi is never consulted."""
    return wigner_distance(assemblage.state("X", 0))


def _functional_value(b_x, b_y, h0, h):
    """F = ((h . b_x) + (h' . b_y))/4 + h0/2: the functional at members with
    Bloch vectors b_x, b_y for the witness H = (h0 I + h . sigma)/2, where
    h' = (-h_y, h_x, h_z) is h under S conjugation.  Leading axes broadcast."""
    hx, hy, hz = h[..., 0], h[..., 1], h[..., 2]
    x0, x1, x2 = b_x[..., 0], b_x[..., 1], b_x[..., 2]
    y0, y1, y2 = b_y[..., 0], b_y[..., 1], b_y[..., 2]
    return ((hx * x0 + hy * x1 + hz * x2) + (-hy * y0 + hx * y1 + hz * y2)) / 4 + h0 / 2


def evaluate_functional(assemblage: Assemblage, witness: MagicResult) -> CertificationRecord:
    """Certification functional: the average witness value over the X and Y
    outcome-0 members, with the Y term taken against the S-conjugated witness.
    The witness enters through its Pauli terms ``witness.witness_terms``,
    such as those of :func:`solve_witness`'s closed form.

    For the ideal assemblage the gap above F_LHS equals C(phi); any
    stabilizer local-hidden-state assemblage stays at or below zero gap.
    """
    h = witness.witness_terms  # tr(H* P), P = I, X, Y, Z
    f_value = _functional_value(bloch(assemblage.state("X", 0)), bloch(assemblage.state("Y", 0)),
                                h[0], h[1:])
    return CertificationRecord(f_value=float(f_value), f_lhs=witness.f_lhs)


def _certification(b_x, b_y) -> tuple[np.ndarray, np.ndarray]:
    """(F, F_LHS) at Bloch vectors b_x of sigma_{0|X} and b_y of sigma_{0|Y},
    with the witness wigner_distance reports at sigma_{0|X}, read from
    :func:`magic.octahedron_witness`: F = F_LHS = 0 where C is reported as 0."""
    h, f_lhs = octahedron_witness(b_x)
    return _functional_value(b_x, b_y, h[..., 0], h[..., 1:]), f_lhs


def certify_exact(phi: float) -> CertificationRecord:
    """Certify the ideal assemblage at phi from its outcome-0 Bloch vectors."""
    r = _dealt(phase_ptm(phi), 3)
    f, f_lhs = _certification(*(_conditional_states(r, x)[_OUTCOME_0_BIT[x]][1]
                                for x in SETTINGS))
    return CertificationRecord(f_value=float(f), f_lhs=float(f_lhs))


class SampledCertification(ValueRecord):
    """A finite-shot certification with the bootstrap spread of its gap."""

    record: CertificationRecord
    sigma_gap: float
    n_eff: int

    def __init__(self, record, sigma_gap, n_eff) -> None:
        self.__dict__.update(record=record, sigma_gap=sigma_gap, n_eff=n_eff)


def sampled_certification(phi: float, shots: int, noise, seed: int,
                          n_boot: int = DEFAULT_N_BOOT) -> SampledCertification:
    """Finite-shot certification via tomographic reconstruction of the
    conditional states, with a parametric bootstrap on the gap.

    Outcome 0 of each setting keeps the dealer's readout bit in
    ``_OUTCOME_0_BIT``.  No LP is solved: one :func:`tomo.bootstrap` array
    holds the Bloch vectors of sigma_{0|X} and sigma_{0|Y}, the point
    estimate as replica zero, and one :func:`_certification` call reads them
    all.  Each replica re-derives the witness at its own sigma_{0|X}, so
    sigma_gap includes the witness's own sampling wobble.

    Against the noisy closed form (Bloch vector eta (cos phi, sin phi, 0)),
    the gap runs high by a few tenths of sigma_gap on average: the sign
    witness also picks up the sampled |b_z|, whose true value is 0.
    """
    # sigma_{0|X}'s X, Y, Z counts, then sigma_{0|Y}'s
    base = [tomo.post_select_and_correct(tomo.sample_run(phi, basis, shots, noise, seed,
                                                         alice_setting=setting), keep_bit)
            for setting, keep_bit in _OUTCOME_0_BIT.items() for basis in ("X", "Y", "Z")]
    b = tomo.bootstrap(base, n_boot, tomo.stream_rng(seed, f"certify-boot/{phi:.17g}"))
    f, f_lhs = _certification(b[:, 0], b[:, 1])
    return SampledCertification(
        record=CertificationRecord(f_value=float(f[0]), f_lhs=float(f_lhs[0])),
        sigma_gap=float(np.std(f[1:] - f_lhs[1:], ddof=1)),
        n_eff=min(c.n_eff for c in base),
    )


def random_lhs_assemblage(rng: np.random.Generator) -> Assemblage:
    """A random stabilizer local-hidden-state assemblage.

    Draws a hidden distribution over the six stabilizer states and an
    arbitrary response function p(a=0 | x, lambda); the members are the
    induced mixtures, so no-signalling holds by construction and every
    member lies inside the polytope.
    """
    states = [s.density().mat for s in enumerate_stabilizer_states(1).states]
    p_lambda = rng.dirichlet(np.ones(len(states)))
    response = rng.random(size=(len(SETTINGS), len(states)))
    members = {}
    for xi, x in enumerate(SETTINGS):
        p0 = float(p_lambda @ response[xi])
        # guard against a degenerate all-0/all-1 response draw
        p0 = min(max(p0, 1e-9), 1 - 1e-9)
        sigma0 = sum(p_lambda[k] * response[xi, k] * states[k] for k in range(len(states))) / p0
        sigma1 = sum(p_lambda[k] * (1 - response[xi, k]) * states[k] for k in range(len(states))) / (1 - p0)
        members[(x, 0)] = (p0, DensityMatrix(sigma0))
        members[(x, 1)] = (1 - p0, DensityMatrix(sigma1))
    return Assemblage(members=members)
