"""Dense statevector and density-matrix mechanics for few-qubit registers.

Conventions used throughout the package:

* Qubit 0 is the *most significant* bit of a computational-basis index
  (big-endian), so ``|q0 q1 q2>`` reads left to right exactly like the
  basis label.  Hardware-style LSb-0 bitstrings are made only when the
  experiment report is rendered as JSON, nowhere else.
* States are compared up to global phase only, via :func:`fidelity` or
  :func:`trace_distance`, never amplitude-wise.
* All values are immutable after construction; every operation returns a
  fresh object and is safe to evaluate in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL_CONSTRUCT = 1e-12   # construction-time validity checks
ATOL_PSD = 1e-10         # eigenvalue positivity (looser: reconstruction headroom)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)

def phase_gate(phi: float) -> np.ndarray:
    """P(phi) = diag(1, e^{i phi}); phi = pi/4 is the T gate."""
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)


def require_unitary(gate: np.ndarray, atol: float = ATOL_CONSTRUCT) -> np.ndarray:
    """Return ``gate`` as a complex 2x2 array, raising if it is not unitary."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {g.shape}")
    if not np.all(np.isfinite(g.view(float))):
        raise ValueError("gate contains non-finite entries")
    if np.max(np.abs(g.conj().T @ g - I2)) > atol:
        raise ValueError("gate is not unitary within tolerance")
    return g


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalised amplitude vector over 2**n_qubits basis states."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amps, dtype=complex).reshape(-1)
        n = int(a.size).bit_length() - 1
        if a.size < 2 or a.size != 2 ** n:
            raise ValueError(f"amplitude vector length {a.size} is not a power of two")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes contain NaN/Inf")
        if abs(np.linalg.norm(a) - 1.0) > ATOL_CONSTRUCT:
            raise ValueError("state is not normalised within 1e-12")
        object.__setattr__(self, "amps", _frozen(a))

    @property
    def n_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-1, positive-semidefinite matrix on 2**n_qubits dims."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        n = int(d).bit_length() - 1
        if d < 2 or d != 2 ** n:
            raise ValueError(f"dimension {d} is not a power of two")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("entries contain NaN/Inf")
        if np.max(np.abs(m - m.conj().T)) > ATOL_CONSTRUCT:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > ATOL_CONSTRUCT or abs(np.trace(m).imag) > ATOL_CONSTRUCT:
            raise ValueError("trace is not 1 within 1e-12")
        if np.linalg.eigvalsh(m).min() < -ATOL_PSD:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "mat", _frozen(m))

    @property
    def n_qubits(self) -> int:
        return int(self.mat.shape[0]).bit_length() - 1


def ket(label: str) -> PureState:
    """Computational-basis state from a bit label, e.g. ``ket("010")``."""
    if not label or any(c not in "01" for c in label):
        raise ValueError(f"bit label must be nonempty over {{0,1}}, got {label!r}")
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[int(label, 2)] = 1.0
    return PureState(amps)


def phase_plus(phi: float) -> PureState:
    """P(phi)|+> = (|0> + e^{i phi}|1>)/sqrt(2), the protocol's resource state."""
    return PureState(np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2))


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 1:
        raise ValueError("n must be positive")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(amps)


def maximally_mixed(n: int = 1) -> DensityMatrix:
    return DensityMatrix(np.eye(2 ** n, dtype=complex) / 2 ** n)


def dm_from_bloch(bloch_vec) -> DensityMatrix:
    """1-qubit density matrix (I + x X + y Y + z Z)/2; requires |b|_2 <= 1 + 1e-9."""
    b = np.asarray(bloch_vec, dtype=float).reshape(3)
    if float(b @ b) > 1.0 + 1e-9:
        raise ValueError("Bloch vector lies outside the unit ball")
    return DensityMatrix((I2 + b[0] * X + b[1] * Y + b[2] * Z) / 2)


def bloch(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (tr(rho X), tr(rho Y), tr(rho Z)) of a 1-qubit state."""
    if rho.n_qubits != 1:
        raise ValueError("bloch requires a 1-qubit density matrix")
    vals = np.array([np.trace(rho.mat @ P) for P in (X, Y, Z)])
    if np.max(np.abs(vals.imag)) > ATOL_CONSTRUCT:
        raise ValueError("Bloch components have imaginary parts above 1e-12")
    return vals.real


def tensor(a, b):
    """Kronecker product; operand ``a`` occupies the most significant qubits."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amps, b.amps))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.mat, b.mat))
    raise TypeError("tensor requires two PureStates or two DensityMatrices")


def apply_1q(state: PureState, gate: np.ndarray, target: int) -> PureState:
    """Apply a single-qubit unitary to ``target`` of a pure register.

    The gate contracts with the target axis as one ``np.dot`` with the
    amplitudes viewed as (2, rest), the target axis first: the call, and the
    operand layout, that ``np.tensordot(gate, psi, ([1], [target]))`` makes
    internally, so the result is bit-identical to it without its axis
    bookkeeping.
    """
    n = state.n_qubits
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} qubits")
    lead = state.amps.reshape(2 ** target, 2, -1).swapaxes(0, 1)
    out = np.dot(require_unitary(gate), lead.reshape(2, -1)).reshape(lead.shape)
    return PureState(out.swapaxes(0, 1).reshape(-1))


def fidelity(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> for a mixed state against a pure reference."""
    if rho.n_qubits != psi.n_qubits:
        raise ValueError("qubit counts differ")
    val = complex(psi.amps.conj() @ rho.mat @ psi.amps)
    if abs(val.imag) > ATOL_CONSTRUCT:
        raise ValueError("fidelity has imaginary part above 1e-12")
    return float(val.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the eigenvalues of the difference."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit counts differ")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
