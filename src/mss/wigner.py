"""Discrete Wigner functions for 1 and 2 qubits (Wootters product
construction), read off Pauli terms.

Phase-space points are tuples of (q, p) bit pairs, one per qubit.  The flat
index of a point is sum_i 4**(n-1-i) * (2*q_i + p_i), big-endian like the
register convention in :mod:`mss.qcore`; the Pauli strings
P_0 (x) ... (x) P_{n-1}, P_i in (I, X, Y, Z), are indexed alike.

A phase-point operator is A_a = (I + g_a . sigma)/2 on one qubit and a
tensor product of those on more.  So a state with Pauli terms
r_P = tr(rho P) has the Wigner vector W = G_n r / 4**n, where G_1's row a is
(1, g_a), G_n is G_1's n-fold tensor power, and G_1 G_1^T = 4 I.  No
phase-point operator is built.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import _PAULIS, DensityMatrix

# Bloch vectors g of the 1-qubit phase-point operators A_qp = (I + g . sigma)/2,
# one row per (q, p) in flat-index order: ((-1)^p, (-1)^(q+p), (-1)^q).
_PHASE_POINT_BLOCH = np.array([[(-1) ** p, (-1) ** (q + p), (-1) ** q]
                               for q in (0, 1) for p in (0, 1)], dtype=float)
_PHASE_POINT_BLOCH.setflags(write=False)

_G1 = np.column_stack([np.ones(4), _PHASE_POINT_BLOCH])
_G1.setflags(write=False)


@lru_cache(maxsize=None)
def _tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(G_n, the 4**n Pauli strings as rows of their matrices flattened) for
    n in {1, 2}, both read-only, built once per n."""
    if n_qubits == 1:
        return _G1, _PAULIS.reshape(4, 4)
    strings = (_PAULIS[:, None, :, None, :, None] * _PAULIS[:, None, :, None, :]).reshape(16, 16)
    g = np.kron(_G1, _G1)
    for table in (g, strings):
        table.setflags(write=False)
    return g, strings


def as_wigner_vector(values) -> np.ndarray:
    """A quasi-probability vector as a read-only float array, after its two
    checks: every entry is finite with magnitude at most 1, and the entries
    sum to 1 within 1e-9."""
    v = np.array(values, dtype=float).reshape(-1)
    if not np.abs(v).max() <= 1.0:  # NaN fails too; checked before the sum warns on inf - inf
        raise ValueError("Wigner vector has a non-finite entry or one with |value| > 1")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ValueError("Wigner vector does not sum to 1 within 1e-9")
    v.setflags(write=False)
    return v


def wigner_of(rho: DensityMatrix) -> np.ndarray:
    """W = G_n r / 4**n over the 4**n points in flat-index order, read-only,
    from all 4**n Pauli terms r_P = tr(rho P) (the I term is tr rho); the
    entries sum to 1 for a trace-1 state.  r is the real part of tr(rho P),
    the term of rho's Hermitian part, so no imaginary part is left to check:
    DensityMatrix checks Hermiticity once."""
    n = rho.n_qubits
    if n > 2:
        raise ValueError("Wigner vectors are only supported for n <= 2 qubits")
    g, strings = _tables(n)
    # P is Hermitian, so Re tr(rho P) = sum_ij Re P_ij Re rho_ij + Im P_ij Im rho_ij:
    # one real product over the (Re, Im) pairs of both tables.
    terms = strings.view(float) @ rho.mat.view(float).reshape(-1)
    return as_wigner_vector(g @ terms / 4 ** n)
