"""The Wigner-distance magic monotone, its LP dual witness, and closed-form oracles.

The monotone is the minimum L1 distance from a state's Wigner vector to the
stabilizer polytope,

    C(rho) = min_{f in conv(vertices)} || W_rho - f ||_1,

linearised with one slack pair per phase-space coordinate and solved by the
in-house dense simplex.  The dual solution yields a Hermitian witness
H* = sum_alpha y_alpha A_alpha / 2**n with

    tr(H* rho) - F_LHS = C(rho)        (exact at the solved state)
    tr(H* v)   <= F_LHS                (every polytope vertex v)

where F_LHS = max over pure stabilizer states of tr(H* sigma).  The witness
is a per-solve certificate: away from the solved state it gives the lower
bound exposed by :meth:`MagicResult.witness_value`, not an equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import DensityMatrix, phase_plus
from .simplex import solve_lp
from .stabilizer import enumerate_stabilizer_states
from .wigner import WignerVector, _operator_stack, wigner_of

CLAMP_TOL = 1e-10  # report exactly zero instead of leaking negative round-off


@dataclass(frozen=True)
class MagicResult:
    """Optimal value and certificates of one Wigner-distance solve."""

    c_value: float
    f_star: WignerVector          # nearest polytope point
    mixture_weights: np.ndarray   # convex weights over the sorted vertex list
    dual_witness: np.ndarray      # Hermitian H*
    f_lhs: float                  # max_sigma tr(H* sigma) over stabilizer states

    def witness_value(self, rho: DensityMatrix) -> float:
        """tr(H* rho) - F_LHS: equals C at the solved state, a lower bound elsewhere."""
        return float(np.trace(self.dual_witness @ rho.mat).real) - self.f_lhs


@lru_cache(maxsize=None)
def _lp_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-qubit vertex matrix F, constraint matrix A and cost c, read-only.

    Variables [lambda (nv), t (k), s1 (k), s2 (k)]:
      F lam + t - s1 = w      (W - F lam <= t)
      F lam - t + s2 = w      (F lam - W <= t)
      sum lam        = 1
    """
    F = enumerate_stabilizer_states(n).vertex_matrix
    k, nv = F.shape
    A = np.zeros((2 * k + 1, nv + 3 * k))
    A[:k, :nv] = F
    A[:k, nv:nv + k] = np.eye(k)
    A[:k, nv + k:nv + 2 * k] = -np.eye(k)
    A[k:2 * k, :nv] = F
    A[k:2 * k, nv:nv + k] = -np.eye(k)
    A[k:2 * k, nv + 2 * k:] = np.eye(k)
    A[2 * k, :nv] = 1.0
    c = np.zeros(nv + 3 * k)
    c[nv:nv + k] = 1.0
    A.setflags(write=False)
    c.setflags(write=False)
    return F, A, c


def wigner_distance(rho: DensityMatrix) -> MagicResult:
    """Wigner distance of a 1- or 2-qubit state with primal and dual certificates.

    When C is clamped to zero the state is free, and the zero witness (with
    F_LHS = 0) is reported: it is dual-optimal there, and unlike the LP's own
    dual it does not depend on the pivot path.
    """
    n = rho.n_qubits
    if n not in (1, 2):
        raise ValueError("wigner_distance supports n in {1, 2}")
    w = wigner_of(rho).values
    F, A, c = _lp_constants(n)
    k, nv = F.shape
    b = np.concatenate([w, w, [1.0]])

    sol = solve_lp(c, A, b)
    lam = np.clip(sol.x[:nv], 0.0, None)
    lam /= lam.sum()
    f_star = WignerVector(F @ lam)

    yvec = sol.duals[:k] + sol.duals[k:2 * k]
    f_lhs = float(np.max(yvec @ F))
    gap = float(yvec @ w) - f_lhs
    if abs(np.abs(w - f_star.values).sum() - sol.fun) > 1e-8 or abs(gap - sol.fun) > 1e-7:
        raise RuntimeError(
            "LP postcondition violated: primal/dual certificates disagree with the optimum")

    if sol.fun < CLAMP_TOL:
        return MagicResult(c_value=0.0, f_star=f_star, mixture_weights=lam,
                           dual_witness=np.zeros((2 ** n, 2 ** n), dtype=complex), f_lhs=0.0)
    witness = sum(y * op for y, op in zip(yvec, _operator_stack(n))) / 2 ** n
    witness = (witness + witness.conj().T) / 2
    return MagicResult(c_value=float(sol.fun), f_star=f_star, mixture_weights=lam,
                       dual_witness=witness, f_lhs=f_lhs)


def c_closed_form(phi: float) -> float:
    """C of P(phi)|+>: (|sin phi| + |cos phi| - 1)/2, pi/2-periodic."""
    return float(abs(np.sin(phi)) + abs(np.cos(phi)) - 1.0) / 2.0


def optimal_mixture(phi: float) -> WignerVector:
    """The nearest polytope point for P(phi)|+> with phi strictly in (0, pi/2).

    Mixes the Wigner vectors of |+> and |+i>.  Writing c = cos(phi) and
    s = sin(phi), the L1-optimal mixture is the equal-deviation point with
    weights (1 + c - s)/2 on |+> and (1 + s - c)/2 on |+i>: its Bloch vector
    sits on the octahedron facet at distance c_closed_form(phi) along both
    in-plane axes simultaneously, which is what minimises the max-deviation
    form the Wigner L1 norm takes in the equatorial plane.
    """
    if not 0.0 < phi < np.pi / 2:
        raise ValueError("optimal_mixture requires phi strictly inside (0, pi/2)")
    w_plus = wigner_of(phase_plus(0.0).density()).values
    w_plus_i = wigner_of(phase_plus(np.pi / 2).density()).values
    c, s = np.cos(phi), np.sin(phi)
    a = (1.0 + c - s) / 2.0
    return WignerVector(a * w_plus + (1.0 - a) * w_plus_i)


def octahedron_distance(bloch_vec) -> float | np.ndarray:
    """Independent 1-qubit oracle: max(0, (|x| + |y| + |z| - 1)/2).

    Takes one Bloch vector and returns a float, or an array of them along the
    last axis and returns an array.  Values below CLAMP_TOL are reported as
    exactly zero, as in wigner_distance.  Equals wigner_distance on
    single-qubit states (the polytope is the octahedron |x|+|y|+|z| <= 1 in
    Bloch coordinates); the equivalence is verified against the LP on
    randomised states in the test suite.
    """
    b = np.asarray(bloch_vec, dtype=float)
    if b.shape[-1:] != (3,):
        raise ValueError("Bloch vectors need 3 components along the last axis")
    c = (np.abs(b).sum(axis=-1) - 1.0) / 2.0
    c = np.where(c < CLAMP_TOL, 0.0, c)
    return float(c) if c.ndim == 0 else c
