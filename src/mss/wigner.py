"""Discrete Wigner functions for 1 and 2 qubits (Wootters product construction).

Phase-space points are tuples of (q, p) bit pairs, one per qubit.  The flat
index of a point is sum_i 4**(n-1-i) * (2*q_i + p_i), big-endian like the
register convention in :mod:`mss.qcore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .qcore import DensityMatrix, I2, X, Y, Z

PhasePoint = tuple[tuple[int, int], ...]

_A1 = {
    (q, p): 0.5 * (I2 + (-1) ** p * X + (-1) ** (q + p) * Y + (-1) ** q * Z)
    for q in (0, 1) for p in (0, 1)
}


def phase_points(n_qubits: int) -> list[PhasePoint]:
    """All 4**n phase-space points in flat-index order."""
    return [pt for pt in product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n_qubits)]


def point_index(point: PhasePoint) -> int:
    n = len(point)
    return sum(4 ** (n - 1 - i) * (2 * q + p) for i, (q, p) in enumerate(point))


def phase_point_operator(point: PhasePoint) -> np.ndarray:
    """Hermitian trace-1 operator A_point (not PSD: 1-qubit eigenvalues (1 +- sqrt(3))/2)."""
    point = tuple((int(q), int(p)) for q, p in point)
    if not point or any(q not in (0, 1) or p not in (0, 1) for q, p in point):
        raise ValueError(f"invalid phase point {point!r}")
    out = _A1[point[0]]
    for qp in point[1:]:
        out = np.kron(out, _A1[qp])
    return out


@dataclass(frozen=True)
class WignerVector:
    """Real quasi-probability vector of a trace-1 state over 4**n points."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        n = _n_from_size(v.size)
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError("Wigner vector does not sum to 1 within 1e-9")
        if np.max(np.abs(v)) > 1.0:
            raise ValueError("Wigner vector has an entry with |value| > 1")
        frozen = np.array(v, order="C")
        frozen.setflags(write=False)
        object.__setattr__(self, "values", frozen)

    @property
    def n_qubits(self) -> int:
        return _n_from_size(self.values.size)


def _n_from_size(size: int) -> int:
    n = max((int(size).bit_length() - 1) // 2, 0)
    if size != 4 ** n or n < 1:
        raise ValueError(f"length {size} is not 4**n for n >= 1")
    return n


@lru_cache(maxsize=None)
def _operator_stack(n_qubits: int) -> np.ndarray:
    """All 4**n phase-point operators in flat-index order, built once per n, read-only."""
    ops = np.stack([phase_point_operator(pt) for pt in phase_points(n_qubits)])
    ops.setflags(write=False)
    return ops


def wigner_of(rho: DensityMatrix) -> WignerVector:
    """W(alpha) = tr(rho A_alpha) / 2**n; entries sum to 1 for a trace-1 state."""
    n = rho.n_qubits
    if n > 2:
        raise ValueError("Wigner vectors are only supported for n <= 2 qubits")
    ops = _operator_stack(n)
    vals = np.einsum("aij,ji->a", ops, rho.mat) / 2 ** n
    if np.max(np.abs(vals.imag)) > 1e-12:
        raise ValueError("Wigner values have imaginary parts above 1e-12")
    return WignerVector(vals.real)


def state_from_wigner(w: WignerVector) -> DensityMatrix:
    """Inverse map rho = sum_alpha w(alpha) A_alpha (round-trip partner of wigner_of)."""
    n = w.n_qubits
    if n > 2:
        raise ValueError("Wigner vectors are only supported for n <= 2 qubits")
    ops = _operator_stack(n)
    return DensityMatrix(np.tensordot(w.values, ops, axes=([0], [0])))
