"""The Wigner distance C, its dual witness, and closed forms.

C is the minimum L1 distance from a state's Wigner vector to the stabilizer
polytope,

    C(rho) = min_{f in conv(vertices)} || W_rho - f ||_1.

One qubit is in closed form: the polytope is the octahedron |b|_1 <= 1 in
Bloch coordinates.  Two qubits solve the L1-fitting linear program of
Barrodale and Roberts (SIAM J. Numer. Anal. 10, 839, 1973) by the in-house
dense simplex from the nearest vertex, pricing the vertex weights before
the residuals and taking their long step across each residual's u/v pair.
The dual solution y yields the Hermitian witness
H* = sum_alpha y_alpha A_alpha / 2**n = sum_P h_P P / 2**n, whose Pauli
terms h_P = tr(H* P) are h = G_n^T y / 2**n in :mod:`mss.wigner`'s table, with

    tr(H* rho) - F_LHS = C(rho)        (exact at the solved state)
    tr(H* v)   <= F_LHS                (every polytope vertex v)

where F_LHS = max over pure stabilizer states of tr(H* sigma).  The witness
is a per-solve certificate: away from the solved state tr(H* rho) - F_LHS
is a lower bound on C, not an equality.  For one qubit with C > 0 the
witness is (s . sigma)/2 + t I with s the signs of the Bloch vector, so
h = (2t, s).

C = 0 (a stabilizer mixture) is Clifford-invariant.  Nonzero joint values
depend on the frame, so C is no monotone: a CX doubles the 2-qubit C of
P(phi)|+> (x) |0>, which local Cliffords keep.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import DensityMatrix, Record, _require_finite, bloch
from .simplex import solve_lp
from .stabilizer import enumerate_stabilizer_states
from .wigner import _PHASE_POINT_BLOCH, _tables, as_wigner_vector, wigner_of

CLAMP_TOL = 1e-10  # report exactly zero instead of leaking negative round-off
SIGN_TOL = 1e-12   # Bloch coordinates this small count as 0 in octahedron_witness


class MagicResult(Record):
    """Optimal value and certificates of one Wigner-distance solve; arrays read-only."""

    c_value: float
    f_star: np.ndarray            # nearest polytope point, F @ mixture_weights
    mixture_weights: np.ndarray   # convex weights over the sorted vertex list
    dual_witness: np.ndarray      # Hermitian H* = sum_P h_P P / 2**n
    f_lhs: float                  # max_sigma tr(H* sigma) over stabilizer states
    witness_terms: np.ndarray     # h_P = tr(H* P), real, over the 4**n Pauli strings

    def __init__(self, c_value, f_star, mixture_weights, dual_witness, f_lhs,
                 witness_terms) -> None:
        self.__dict__.update(c_value=c_value, f_star=f_star, mixture_weights=mixture_weights,
                             dual_witness=dual_witness, f_lhs=f_lhs, witness_terms=witness_terms)


@lru_cache(maxsize=None)
def _lp_constants(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-qubit vertex matrix F and constraint matrix A, read-only.

    Variables [lambda (nv), u (k), v (k)], all nonnegative, minimising
    sum u + sum v (:mod:`mss.simplex` holds these costs):
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
    A.setflags(write=False)
    return F, A


def wigner_distance(rho: DensityMatrix) -> MagicResult:
    """Wigner distance of a 1- or 2-qubit state with primal and dual certificates.

    One qubit has a closed form (:func:`_octahedron_result`).  For two, it
    names the vertex F_j nearest to w in L1 and calls
    ``solve_lp(A, w, j)`` on the read-only A of :func:`_lp_constants`, which
    the simplex checks once.  The simplex starts there: lambda_j = 1 and,
    per row i, u_i = (w - F_j)_i if that is nonnegative, else
    v_i = -(w - F_j)_i.  The lambda columns have no mirror, so the simplex
    prices them before the u/v residual pairs, which enter only when no
    lambda column can.  Where the nearest point or the optimal dual
    is not unique, ``mixture_weights``, ``f_star``, the witness and
    ``f_lhs`` depend on that pivot path; C does not beyond round-off.
    When C is clamped to zero the state is free, and
    the zero witness (with F_LHS = 0) is reported: it is dual-optimal there,
    and unlike the LP's own dual it does not depend on the pivot path.  It
    replaces the LP's dual only after that has passed the postcondition check.
    """
    n = rho.n_qubits
    if n == 1:
        return _octahedron_result(rho)
    if n != 2:
        raise ValueError("wigner_distance supports n in {1, 2}")
    w = wigner_of(rho)
    F, A = _lp_constants(n)
    k, nv = F.shape
    sol = solve_lp(A, w, int(np.abs(w[:, None] - F).sum(axis=0).argmin()))
    lam = np.maximum(sol.x[:nv], 0.0)
    lam /= lam.sum()
    lam.setflags(write=False)
    f_star = as_wigner_vector(F @ lam)

    yvec = sol.duals[:k]
    f_lhs = float((yvec @ F).max())
    gap = float(yvec @ w) - f_lhs
    if not (abs(np.abs(w - f_star).sum() - sol.fun) <= 1e-8 and abs(gap - sol.fun) <= 1e-7):
        raise RuntimeError(  # also for a NaN objective, which compares false
            "LP postcondition violated: primal/dual certificates disagree with the optimum")

    if sol.fun < CLAMP_TOL:
        return _result(0.0, f_star, lam, np.zeros(k), 0.0)
    return _result(float(sol.fun), f_star, lam, yvec @ _tables(n)[0] / 2 ** n, f_lhs)


# The octahedron's vertices -e_i and +e_i per Bloch axis i, as indices into
# enumerate_stabilizer_states(1): |1>, |->, |-i>, |+i>, |+>, |0>.
_AXIS_VERTICES = ((1, 4), (2, 3), (0, 5))


def _octahedron_result(rho: DensityMatrix) -> MagicResult:
    """The 1-qubit Wigner distance in closed form.  C is
    :func:`octahedron_distance` of the Bloch vector b.  The nearest point
    lowers each a_i = |b_i| by min(a_i, t), at the level t >= 0 where
    sum_i min(a_i, t) = |b|_1 - 1 (0 inside the octahedron).  Its mixture
    holds the lowered a_i at the vertices sign(b_i) e_i, and
    max(0, 1 - |b|_1)/6 at each of the six.  The witness is
    :func:`octahedron_witness`'s.  ||w - f*||_1 must match C within 1e-8."""
    b, w = bloch(rho), wigner_of(rho)
    c_value = octahedron_distance(b)
    a = np.abs(b)
    excess = float(a.sum()) - 1.0
    low = np.sort(a).tolist()
    t = max(0.0, excess / 3, (excess - low[0]) / 2, excess - low[0] - low[1])
    kept = np.maximum(a - t, 0.0)
    lam = np.full(6, max(0.0, -excess) / 6)
    for i, (minus, plus) in enumerate(_AXIS_VERTICES):
        lam[plus if b[i] > 0 else minus] += kept[i]
    lam.setflags(write=False)
    # The Wigner vector of a Bloch vector v is (1 + g_a . v)/4 at phase point a.
    f_star = as_wigner_vector((1.0 + _PHASE_POINT_BLOCH @ np.copysign(kept, b)) / 4)
    if not abs(np.abs(w - f_star).sum() - c_value) <= 1e-8:
        raise RuntimeError("closed-form postcondition violated: ||w - f*||_1 disagrees with C")
    terms, f_lhs = octahedron_witness(b)
    return _result(c_value, f_star, lam, terms, float(f_lhs))


def _result(c_value, f_star, lam, terms, f_lhs) -> MagicResult:
    """The MagicResult whose witness has the real Pauli terms h, and so the
    Hermitian matrix sum_P h_P P / 2**n; arrays read-only."""
    n = (len(terms).bit_length() - 1) // 2
    witness = (terms @ _tables(n)[1]).reshape(2 ** n, -1) / 2 ** n + 0.0  # +0.0 kills -0.0
    for a in (terms, witness):
        a.setflags(write=False)
    return MagicResult(c_value=c_value, f_star=f_star, mixture_weights=lam,
                       dual_witness=witness, f_lhs=f_lhs, witness_terms=terms)


def octahedron_witness(b) -> tuple[np.ndarray, np.ndarray]:
    """The 1-qubit witness H* that :func:`wigner_distance` reports, per Bloch
    vector along the last axis of ``b``: its Pauli terms h = tr(H* P) over
    (I, X, Y, Z) on a new last axis, and F_LHS.  Both are 0 where C is.
    Elsewhere H* = (s . sigma)/2 + t I, so h = (2t, s): s = sign(b), 0 where
    |b_i| <= SIGN_TOL, and t = -(max_a s . g_a + min_a s . g_a)/4 centres
    the witness coordinates y_a = tr(H* A_a) = s . g_a/2 + t in [-1, 1].
    Some |b_i| > 1/3 there, so max|s_i| = 1 and H* peaks over the
    stabilizer states at F_LHS = 1/2 + t; tr(H* rho) - F_LHS = C at b."""
    b = np.asarray(b, dtype=float)
    certifies = np.asarray(octahedron_distance(b)) > 0
    s = np.where(np.abs(b) <= SIGN_TOL, 0.0, np.sign(b))
    sg = s @ _PHASE_POINT_BLOCH.T
    t = -(sg.max(axis=-1) + sg.min(axis=-1)) / 4
    h = np.concatenate((2 * t[..., None], s), axis=-1)
    return np.where(certifies[..., None], h, 0.0), np.where(certifies, 0.5 + t, 0.0)


def c_closed_form(phi: float) -> float:
    """C of P(phi)|+>: (|sin phi| + |cos phi| - 1)/2, pi/2-periodic.  Values
    below CLAMP_TOL are reported as exactly zero, as in octahedron_distance.
    A non-finite phi raises ValueError."""
    _require_finite(phi)
    c = float(abs(np.sin(phi)) + abs(np.cos(phi)) - 1.0) / 2.0
    return 0.0 if c < CLAMP_TOL else c


def octahedron_distance(bloch_vec) -> float | np.ndarray:
    """The 1-qubit C: max(0, (|x| + |y| + |z| - 1)/2).

    Takes one Bloch vector and returns a float, or an array of them along the
    last axis and returns an array.  Values below CLAMP_TOL are reported as
    exactly zero; a NaN or infinite coordinate raises ValueError.  It is
    wigner_distance's C on single-qubit states (the polytope is the
    octahedron |x|+|y|+|z| <= 1 in Bloch coordinates), and the tests check
    it against the 1-qubit LP.
    """
    b = np.asarray(bloch_vec, dtype=float)
    if b.shape[-1:] != (3,):
        raise ValueError("Bloch vectors need 3 components along the last axis")
    if not np.isfinite(b).all():
        raise ValueError(f"Bloch vectors must be finite, got {b[~np.isfinite(b)][0]}")
    c = (np.abs(b).sum(axis=-1) - 1.0) / 2.0
    c = np.where(c < CLAMP_TOL, 0.0, c)
    return float(c) if c.ndim == 0 else c
