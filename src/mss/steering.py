"""Steering assemblage construction and one-sided device-independent
certification of delivered magic.

After the middle party's X measurement and the recipient's Z correction,
dealer and recipient share rho_AC = |psi><psi| with
|psi> = (|00> + e^{i phi}|11>)/sqrt(2).  The dealer's X and Y measurements
then steer the recipient into conditional states whose magic equals the
secret's C(phi), and the LP dual witness turns that into a linear
functional a stabilizer local-hidden-state model can never satisfy.

Outcome convention: outcome 0 of the X setting projects the dealer onto
|+>; outcome 0 of the Y setting projects onto (|0> - i|1>)/sqrt(2), the -1
eigenstate, so that sigma_{0|Y} = S sigma_{0|X} S^dagger.  That covariance
is what lets one witness serve both settings: the functional evaluates the
Y term against the S-conjugated witness (same stabilizer bound, because
Clifford conjugation permutes the polytope vertices), and a single LP solve
at sigma_{0|X} certifies the gap exactly.  No angle ever enters the
certification path except through the assemblage states themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .magic import MagicResult, wigner_distance, witness_signs
from .qcore import (
    DensityMatrix,
    PureState,
    S,
    Z,
    apply_1q,
    ghz,
    phase_gate,
    project_measure,
    trace_distance,
)
from .stabilizer import enumerate_stabilizer_states

SETTINGS = ("X", "Y")


@dataclass(frozen=True)
class Assemblage:
    """Conditional recipient states sigma_{a|x} with their outcome probabilities."""

    members: Mapping[tuple[str, int], tuple[float, DensityMatrix]]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class CertificationRecord:
    f_value: float
    f_lhs: float
    gap: float
    certified_c: float
    phi_hidden: bool = True  # structural: the evaluation path never sees phi


def _dealer_recipient_state(phi: float) -> PureState:
    """rho_AC after the middle party's measurement and the Z correction.

    Both branches are computed and compared so every call re-verifies the
    branch independence the correction is supposed to provide.
    """
    state = apply_1q(ghz(3), phase_gate(phi), 0)
    # middle party is register position 1 (dealer 0, recipient 2)
    _, plus_branch = project_measure(state, 1, "X", 0)
    _, minus_branch = project_measure(state, 1, "X", 1)
    corrected = apply_1q(minus_branch, Z, 1)
    if trace_distance(plus_branch.density(), corrected.density()) > 1e-10:
        raise RuntimeError("branch independence violated in assemblage construction")
    return plus_branch


def build_assemblage(phi: float) -> Assemblage:
    """The ideal protocol assemblage for secret angle phi."""
    psi = _dealer_recipient_state(phi)
    members = {}
    for setting in SETTINGS:
        for outcome in (0, 1):
            # Y outcome 0 is the -1 eigenstate (see module docstring).
            branch = outcome if setting == "X" else 1 - outcome
            prob, cond = project_measure(psi, 0, setting, branch)
            members[(setting, outcome)] = (prob, cond.density())
    return Assemblage(members=members)


def z_setting_probe(phi: float) -> DensityMatrix:
    """Recipient's conditional state under a dealer Z measurement, outcome 0.

    Always |0><0| regardless of phi: the computational-basis setting leaks
    no magic, which is why the functional uses X and Y only.
    """
    psi = _dealer_recipient_state(phi)
    _, cond = project_measure(psi, 0, "Z", 0)
    return cond.density()


def solve_witness(assemblage: Assemblage) -> MagicResult:
    """LP solve at the assemblage's own sigma_{0|X}; phi is never consulted."""
    return wigner_distance(assemblage.state("X", 0))


def _functional_value(sigma_x: DensityMatrix, sigma_y: DensityMatrix,
                      witness: MagicResult) -> float:
    h = witness.dual_witness
    h_y = S @ h @ S.conj().T
    term_x = float(np.trace(h @ sigma_x.mat).real)
    term_y = float(np.trace(h_y @ sigma_y.mat).real)
    return 0.5 * (term_x + term_y)


def evaluate_functional(assemblage: Assemblage, witness: MagicResult) -> CertificationRecord:
    """Certification functional: the average witness value over the X and Y
    outcome-0 members, with the Y term taken against the S-conjugated witness.

    For the ideal assemblage the gap above F_LHS equals C(phi); any
    stabilizer local-hidden-state assemblage stays at or below zero gap.
    """
    f_value = _functional_value(assemblage.state("X", 0), assemblage.state("Y", 0), witness)
    gap = f_value - witness.f_lhs
    return CertificationRecord(
        f_value=f_value,
        f_lhs=witness.f_lhs,
        gap=gap,
        certified_c=max(0.0, gap),
    )


def certify_exact(phi: float) -> CertificationRecord:
    """Build the ideal assemblage at phi, solve its witness, and evaluate."""
    assemblage = build_assemblage(phi)
    return evaluate_functional(assemblage, solve_witness(assemblage))


def lhs_bound_check(witness: MagicResult) -> float:
    """max over the six stabilizer states of tr(H* sigma); equals f_lhs."""
    states = enumerate_stabilizer_states(1).states
    return max(float(np.trace(witness.dual_witness @ s.density().mat).real) for s in states)


@dataclass(frozen=True)
class SampledCertification:
    record: CertificationRecord
    sigma_gap: float
    n_eff: int


def sampled_certification(phi: float, shots: int, noise, seed: int,
                          n_boot: int = 500) -> SampledCertification:
    """Finite-shot certification via tomographic reconstruction of the
    conditional states, with a parametric bootstrap on the gap.

    The dealer's Y-setting outcome 0 is the -1 eigenstate, which the
    hardware-style rotation maps to measured bit 1, hence the keep-bit flip.
    The point estimate solves the witness LP at the reconstructed
    sigma_{0|X}.  Every bootstrap replica re-derives the witness at its own
    reconstructed sigma_{0|X}, in the closed form of :func:`_sign_witness_gaps`,
    so sigma_gap includes the witness's own sampling wobble.
    """
    from . import tomo

    base = {}
    for setting, keep_bit in (("X", 0), ("Y", 1)):
        base[setting] = {}
        for basis in ("X", "Y", "Z"):
            table = tomo.sample_run(phi, basis, shots, noise, seed,
                                    party="charlie", alice_setting=setting)
            base[setting][basis] = tomo.post_select_and_correct(
                table, alice_keep_bit=keep_bit)

    recon = {s: tomo.reconstruct(base[s]["X"], base[s]["Y"], base[s]["Z"]) for s in SETTINGS}
    witness = wigner_distance(recon["X"].rho)
    f_value = _functional_value(recon["X"].rho, recon["Y"].rho, witness)
    record = CertificationRecord(
        f_value=f_value,
        f_lhs=witness.f_lhs,
        gap=f_value - witness.f_lhs,
        certified_c=max(0.0, f_value - witness.f_lhs),
    )

    rng = tomo.stream_rng(seed, f"certify-boot/{phi:.17g}")
    raw = tomo.resample_expectations(
        [base[s][b] for s in SETTINGS for b in ("X", "Y", "Z")], n_boot, rng)
    gaps = _sign_witness_gaps(tomo.scale_onto_ball(raw[:, :3]),
                              tomo.scale_onto_ball(raw[:, 3:]))
    return SampledCertification(
        record=record,
        sigma_gap=float(np.std(gaps, ddof=1)),
        n_eff=min(recon["X"].n_eff, recon["Y"].n_eff),
    )


def _sign_witness_gaps(b_x: np.ndarray, b_y: np.ndarray) -> np.ndarray:
    """Certification gap per row of Bloch vectors b_x of sigma_{0|X} and b_y
    of sigma_{0|Y}, with the witness solved at sigma_{0|X}: the LP's result
    in closed form.

    For one qubit the free polytope is the octahedron |b|_1 <= 1.  Outside
    it, wigner_distance reports the witness H* = (s . sigma)/2 plus a
    multiple of the identity, with s = witness_signs(b_x); over the six
    vertices +-e_i it peaks at F_LHS = 1/2 plus that multiple.  The identity
    part adds equally to F and F_LHS, so it cancels in the gap.  S
    conjugation maps s . sigma to s' . sigma with s' = (-s_y, s_x, s_z), so
    the gap is (s . b_x + s' . b_y)/4 - 1/2, which is C(b_x) when b_y is the
    S-conjugate of b_x.  Strictly inside the octahedron the LP returns the
    zero witness and the gap is 0.  On its surface C is 0 and every witness
    that attains its bound at b_x is optimal; the zero witness is taken
    there too, so the gap is 0 exactly when C is.
    """
    s = witness_signs(b_x)
    s_y = np.stack([-s[..., 1], s[..., 0], s[..., 2]], axis=-1)
    gap = ((s * b_x).sum(axis=-1) + (s_y * b_y).sum(axis=-1)) / 4.0 - 0.5
    return np.where(np.abs(b_x).sum(axis=-1) > 1.0, gap, 0.0)


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
