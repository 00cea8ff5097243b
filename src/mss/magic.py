"""The Wigner-distance magic monotone, its LP dual witness, and closed-form oracles.

The monotone is the minimum L1 distance from a state's Wigner vector to the
stabilizer polytope,

    C(rho) = min_{f in conv(vertices)} || W_rho - f ||_1,

written as the L1-fitting linear program of Barrodale and Roberts (SIAM J.
Numer. Anal. 10, 839, 1973) and solved by the in-house dense simplex from
the nearest vertex.  The dual solution yields a Hermitian witness
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

from .qcore import DensityMatrix, X, Y, Z, bloch, phase_plus
from .simplex import solve_lp
from .stabilizer import enumerate_stabilizer_states
from .wigner import WignerVector, _operator_stack, wigner_of

CLAMP_TOL = 1e-10  # report exactly zero instead of leaking negative round-off
SIGN_TOL = 1e-12   # Bloch coordinates this small count as 0 in witness_signs


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

    Variables [lambda (nv), u (k), v (k)], all nonnegative, minimising
    sum u + sum v:
      F lam + u - v = w       (u - v is the residual w - F lam)
      sum lam       = 1
    In the dual, the u and v columns box the first k entries, the witness
    coordinates y, in [-1, 1].
    """
    F = enumerate_stabilizer_states(n).vertex_matrix
    k, nv = F.shape
    A = np.zeros((k + 1, nv + 2 * k))
    A[:k, :nv] = F
    A[:k, nv:nv + k] = np.eye(k)
    A[:k, nv + k:] = -np.eye(k)
    A[k, :nv] = 1.0
    c = np.zeros(nv + 2 * k)
    c[nv:] = 1.0
    A.setflags(write=False)
    c.setflags(write=False)
    return F, A, c


def witness_signs(b) -> np.ndarray:
    """sign(b) with 0 where |b_i| <= SIGN_TOL: the Pauli coefficients s of the
    1-qubit witness (s . sigma)/2 + t I that :func:`wigner_distance` reports."""
    b = np.asarray(b, dtype=float)
    return np.where(np.abs(b) <= SIGN_TOL, 0.0, np.sign(b))


def wigner_distance(rho: DensityMatrix) -> MagicResult:
    """Wigner distance of a 1- or 2-qubit state with primal and dual certificates.

    The simplex starts at the vertex F_j nearest to w in L1: lambda_j = 1
    and, per row i, u_i = (w - F_j)_i if that is nonnegative, else
    v_i = -(w - F_j)_i.

    When C is clamped to zero the state is free, and the zero witness (with
    F_LHS = 0) is reported: it is dual-optimal there, and unlike the LP's own
    dual it does not depend on the pivot path.  For one qubit with C > 0 the
    dual optimum is not unique where a Bloch coordinate is 0, so the witness
    with s = witness_signs(bloch(rho)) is reported, its identity part t the
    one that keeps |y|_inf <= 1.  Both replace the LP's dual only after it
    has passed the postcondition check.
    """
    n = rho.n_qubits
    if n not in (1, 2):
        raise ValueError("wigner_distance supports n in {1, 2}")
    w = wigner_of(rho).values
    F, A, c = _lp_constants(n)
    k, nv = F.shape
    residual = w[:, None] - F
    j = int(np.abs(residual).sum(axis=0).argmin())
    rows = np.arange(k)
    basis = [*np.where(residual[:, j] >= 0, nv + rows, nv + k + rows).tolist(), j]

    sol = solve_lp(c, A, np.append(w, 1.0), basis)
    lam = np.clip(sol.x[:nv], 0.0, None)
    lam /= lam.sum()
    f_star = WignerVector(F @ lam)

    yvec = sol.duals[:k]
    f_lhs = float(np.max(yvec @ F))
    gap = float(yvec @ w) - f_lhs
    if abs(np.abs(w - f_star.values).sum() - sol.fun) > 1e-8 or abs(gap - sol.fun) > 1e-7:
        raise RuntimeError(
            "LP postcondition violated: primal/dual certificates disagree with the optimum")

    if sol.fun < CLAMP_TOL:
        return MagicResult(c_value=0.0, f_star=f_star, mixture_weights=lam,
                           dual_witness=np.zeros((2 ** n, 2 ** n), dtype=complex), f_lhs=0.0)
    ops = _operator_stack(n)
    if n == 1:
        s = witness_signs(bloch(rho))
        y0 = np.einsum("aij,ji->a", ops, s[0] * X + s[1] * Y + s[2] * Z).real / 2
        yvec = y0 - (y0.max() + y0.min()) / 2
        f_lhs = float(np.max(yvec @ F))
    witness = sum(y * op for y, op in zip(yvec, ops)) / 2 ** n
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
