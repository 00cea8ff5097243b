"""Discrete Wigner functions for 1 and 2 qubits (Wootters product construction).

Phase-space points are tuples of (q, p) bit pairs, one per qubit.  The flat
index of a point is sum_i 4**(n-1-i) * (2*q_i + p_i), big-endian like the
register convention in :mod:`mss.qcore`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .qcore import DensityMatrix, I2, X, Y, Z, _frozen

PhasePoint = tuple[tuple[int, int], ...]

# Bloch vectors g of the 1-qubit phase-point operators A_qp = (I + g . sigma)/2,
# one row per (q, p) in flat-index order: ((-1)^p, (-1)^(q+p), (-1)^q).
_PHASE_POINT_BLOCH = np.array([[(-1) ** p, (-1) ** (q + p), (-1) ** q]
                               for q in (0, 1) for p in (0, 1)], dtype=float)
_PHASE_POINT_BLOCH.setflags(write=False)

_A1 = {qp: _frozen(0.5 * (I2 + gx * X + gy * Y + gz * Z))
       for qp, (gx, gy, gz) in zip(product((0, 1), repeat=2), _PHASE_POINT_BLOCH)}


def phase_points(n_qubits: int) -> list[PhasePoint]:
    """All 4**n phase-space points in flat-index order."""
    return [pt for pt in product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n_qubits)]


def phase_point_operator(point: PhasePoint) -> np.ndarray:
    """Hermitian trace-1 operator A_point (not PSD: 1-qubit eigenvalues (1 +- sqrt(3))/2);
    read-only for one qubit, a fresh array for more."""
    point = tuple((int(q), int(p)) for q, p in point)
    if not point or any(q not in (0, 1) or p not in (0, 1) for q, p in point):
        raise ValueError(f"invalid phase point {point!r}")
    out = _A1[point[0]]
    for qp in point[1:]:  # the Kronecker product out (x) A_qp as one broadcast multiply
        d = 2 * len(out)
        out = (out[:, None, :, None] * _A1[qp][:, None, :]).reshape(d, d)
    return out


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


@lru_cache(maxsize=None)
def _operator_stack(n_qubits: int) -> np.ndarray:
    """All 4**n phase-point operators in flat-index order, built once per n, read-only."""
    ops = np.stack([phase_point_operator(pt) for pt in phase_points(n_qubits)])
    ops.setflags(write=False)
    return ops


def wigner_of(rho: DensityMatrix) -> np.ndarray:
    """W(alpha) = tr(rho A_alpha) / 2**n over the 4**n points in flat-index
    order, read-only; the entries sum to 1 for a trace-1 state."""
    n = rho.n_qubits
    if n > 2:
        raise ValueError("Wigner vectors are only supported for n <= 2 qubits")
    ops = _operator_stack(n)
    vals = np.einsum("aij,ji->a", ops, rho.mat) / 2 ** n
    if np.abs(vals.imag).max() > 1e-12:
        raise ValueError("Wigner values have imaginary parts above 1e-12")
    return as_wigner_vector(vals.real)
