"""Few-qubit states, the 1-qubit Pauli transfer matrices through which the
simulators apply gates (P(phi)'s in closed form, by :func:`phase_ptm`; an
arbitrary gate's, for gate admissibility alone, by :func:`ptm`), the one
gate tolerance, and the package's record base.

Conventions used throughout the package:

* Qubit 0 is the *most significant* bit of a computational-basis index
  (big-endian), so ``|q0 q1 q2>`` reads left to right exactly like the
  basis label.  Hardware-style LSb-0 bitstrings are made only when the
  experiment report is rendered as JSON, nowhere else.
* States are compared up to global phase only, via fidelities or
  :func:`trace_distance`, never amplitude-wise.
* All values are immutable after construction; every operation returns a
  fresh object and is safe to evaluate in parallel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass, fields

import numpy as np

ATOL_CONSTRUCT = 1e-12   # construction-time validity checks
ATOL_PSD = 1e-10         # eigenvalue positivity (looser: reconstruction headroom)
GATE_ATOL = 1e-10        # a gate's unitarity and column-sum tolerance, on every path


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


I2 = _frozen(np.eye(2))
X = _frozen([[0, 1], [1, 0]])
Y = _frozen([[0, -1j], [1j, 0]])
Z = _frozen([[1, 0], [0, -1]])

# The Pauli basis (I, X, Y, Z) on one qubit.
_PAULIS = _frozen(np.stack([I2, X, Y, Z]))


def ptm(u: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix of an arbitrary 1-qubit unitary:
    R[a, b] = tr(P_a U P_b U^dagger) / 2, so a state's Pauli coefficients
    r[b] = tr(rho P_b) go to R r under U.  It serves gate admissibility
    alone; any shape but 2x2 raises ValueError."""
    u = np.asarray(u)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {u.shape}")
    return np.einsum("aij,bji->ab", _PAULIS, u @ _PAULIS @ u.conj().T).real / 2


def _require_finite(phi: float) -> None:
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")


def phase_gate(phi: float) -> np.ndarray:
    """P(phi) = diag(1, e^{i phi}); phi = pi/4 is the T gate."""
    _require_finite(phi)
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)


def phase_ptm(phi: float) -> np.ndarray:
    """P(phi)'s Pauli transfer matrix in closed form, ``ptm(phase_gate(phi))``
    without its round-off: P(phi) turns the X and Y terms by phi and keeps
    I and Z."""
    _require_finite(phi)
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, c, -s, 0.0],
                     [0.0, s, c, 0.0], [0.0, 0.0, 0.0, 1.0]])


def require_unitary(gate: np.ndarray) -> np.ndarray:
    """Return ``gate`` as a complex 2x2 array, raising if it is not unitary
    within GATE_ATOL."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {g.shape}")
    a, b, c, d = g.ravel().tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError("gate contains non-finite entries")
    # g^dagger g - I in closed form: |column|^2 - 1 on the diagonal, conj(a) b + conj(c) d off it
    col0 = math.hypot(a.real, a.imag, c.real, c.imag)
    col1 = math.hypot(b.real, b.imag, d.real, d.imag)
    off = a.conjugate() * b + c.conjugate() * d
    if max(abs(col0 * col0 - 1), abs(col1 * col1 - 1),
           math.hypot(off.real, off.imag)) > GATE_ATOL:
        raise ValueError("gate is not unitary within tolerance")
    return g


class Record:
    """Base of the package's record types: frozen, with a repr of every field.

    A subclass that annotates fields becomes a
    ``dataclass(init=False, repr=False, eq=False)`` as it is defined.  Its
    ``__init__``, written in its own source, fills the instance ``__dict__``,
    so ``dataclasses`` generates and ``exec``s no method at import (a plain
    frozen dataclass gets four to six).  Records keep ``fields``, ``replace``
    and ``__match_args__``, and an instance ``__dict__`` for
    ``cached_property``.  ``Record`` and :class:`ValueRecord` themselves are
    no dataclasses.  A record compares by identity, a :class:`ValueRecord`
    by value.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__annotations__"):
            dataclass(init=False, repr=False, eq=False)(cls)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        values = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__qualname__}({values})"


class ValueRecord(Record):
    """A record that compares and hashes by the tuple of its field values."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class PureState(Record):
    """Normalised amplitude vector over 2**n_qubits basis states."""

    amps: np.ndarray

    def __init__(self, amps) -> None:
        a = np.asarray(amps, dtype=complex).reshape(-1)
        n = int(a.size).bit_length() - 1
        if a.size < 2 or a.size != 2 ** n:
            raise ValueError(f"amplitude vector length {a.size} is not a power of two")
        if not np.isfinite(a.view(float)).all():
            raise ValueError("amplitudes contain NaN/Inf")
        if abs(math.sqrt(np.vdot(a, a).real) - 1.0) > ATOL_CONSTRUCT:
            raise ValueError("state is not normalised within 1e-12")
        self.__dict__["amps"] = _frozen(a)

    @property
    def n_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


class DensityMatrix(Record):
    """Hermitian, trace-1, positive-semidefinite matrix on 2**n_qubits dims."""

    mat: np.ndarray

    def __init__(self, mat) -> None:
        self.__dict__["mat"] = mat
        self.__post_init__()

    def __post_init__(self) -> None:
        # A method of its own: bench/tracer.py wraps it to count constructions.
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        n = int(d).bit_length() - 1
        if d < 2 or d != 2 ** n:
            raise ValueError(f"dimension {d} is not a power of two")
        if d == 2:  # the same checks in closed form; eigvalsh reads the lower triangle
            r00, r01, r10, r11 = m.ravel().tolist()
            finite = all(map(cmath.isfinite, (r00, r01, r10, r11)))
            hermitian_error = lambda: max(2 * abs(r00.imag), 2 * abs(r11.imag),
                                          math.hypot(r01.real - r10.real, r01.imag + r10.imag))
            trace = lambda: r00 + r11
            min_eigenvalue = lambda: ((r00.real + r11.real) / 2
                                      - math.hypot((r00.real - r11.real) / 2, r10.real, r10.imag))
        else:
            finite = np.all(np.isfinite(m.view(float)))
            hermitian_error = lambda: np.max(np.abs(m - m.conj().T))
            trace = lambda: complex(np.trace(m))
            min_eigenvalue = lambda: np.linalg.eigvalsh(m).min()
        if not finite:
            raise ValueError("entries contain NaN/Inf")
        if hermitian_error() > ATOL_CONSTRUCT:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = trace()
        if abs(tr.real - 1.0) > ATOL_CONSTRUCT or abs(tr.imag) > ATOL_CONSTRUCT:
            raise ValueError("trace is not 1 within 1e-12")
        if min_eigenvalue() < -ATOL_PSD:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        self.__dict__["mat"] = _frozen(m)

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
    return PureState(phase_gate(phi).diagonal() / np.sqrt(2))


def maximally_mixed(n: int = 1) -> DensityMatrix:
    return DensityMatrix(np.eye(2 ** n, dtype=complex) / 2 ** n)


def dm_from_bloch(bloch_vec) -> DensityMatrix:
    """1-qubit density matrix (I + x X + y Y + z Z)/2; requires |b|_2 <= 1 + 1e-9."""
    b = np.asarray(bloch_vec, dtype=float).reshape(3)
    # A coordinate beyond 2 is outside the ball, and b @ b cannot overflow after it.
    if max(map(abs, b.tolist())) > 2.0 or float(b @ b) > 1.0 + 1e-9:
        raise ValueError("Bloch vector lies outside the unit ball")
    return DensityMatrix((I2 + b[0] * X + b[1] * Y + b[2] * Z) / 2)


def bloch(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (tr(rho X), tr(rho Y), tr(rho Z)) of a 1-qubit state."""
    if rho.n_qubits != 1:
        raise ValueError("bloch requires a 1-qubit density matrix")
    # tr(rho X) = r01 + r10, tr(rho Y) = i (r01 - r10), tr(rho Z) = r00 - r11,
    # real within DensityMatrix's Hermiticity check
    r00, r01, r10, r11 = rho.mat.ravel().tolist()
    return np.array([r01.real + r10.real, r10.imag - r01.imag, r00.real - r11.real])


def tensor(a, b):
    """Kronecker product; operand ``a`` occupies the most significant qubits."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amps, b.amps))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.mat, b.mat))
    raise TypeError("tensor requires two PureStates or two DensityMatrices")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the eigenvalues of the difference."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit counts differ")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
