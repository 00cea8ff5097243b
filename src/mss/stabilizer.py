"""Pure stabilizer states for 1 and 2 qubits, written down in closed form.

The Wigner vectors of these states are the vertex set of the free polytope
used by the magic linear program.  Counts follow 2**n * prod_{k=1..n}(2**k + 1)
(Aaronson & Gottesman, PRA 70, 052328, 2004): 6 states for one qubit, 60 for
two.

One qubit: the six Pauli eigenstates, one table.  Two qubits: the 36 products
of those, plus the 24 maximally entangled states (I (x) C)|Phi+>, one per
single-qubit Clifford C, read off C's entries.  A pure stabilizer state's
Pauli terms s_P = <psi|P|psi> are 0 or +-1, so they are snapped to those and
the vertex matrix, G_n s / 4**n in :mod:`mss.wigner`'s table, is exact.  The
build fails if a term has an imaginary part above 1e-12, if a term moved by
more than 1e-12 in the snap, or if the distinct vectors do not number
exactly the count above.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import PureState, Record
from .wigner import _tables

_R = 1 / np.sqrt(2)

# The +1 and -1 eigenstates of Z, X and Y.  Row k ^ 1 is row k's orthogonal
# partner, each row's first nonzero amplitude is real positive, and every zero
# part is +0.0 (the literal -1j has real part -0.0, hence complex(0, -_R)).
_STATES = np.array([[1, 0], [0, 1],
                    [_R, _R], [_R, -_R],
                    [_R, complex(0, _R)], [_R, complex(0, -_R)]])
_STATES.setflags(write=False)


class StabilizerSet(Record):
    """All pure n-qubit stabilizer states with their Wigner vectors.

    States carry a canonical phase (first nonzero amplitude real positive)
    and are sorted lexicographically by their Wigner vector, so vertex order
    is reproducible across runs.
    """

    states: tuple[PureState, ...]
    vertex_matrix: np.ndarray  # (4**n, n_states), read-only: column s is states[s]'s Wigner vector

    def __init__(self, states, vertex_matrix) -> None:
        self.__dict__.update(states=states, vertex_matrix=vertex_matrix)


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n: int) -> StabilizerSet:
    """Complete duplicate-free stabilizer set for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError("stabilizer enumeration is implemented for n in {1, 2}")
    amps = _STATES
    if n == 2:  # a (x) b as a broadcast multiply; (I (x) C)|Phi+> has C[j, i]/sqrt(2) at 2i + j
        products = (_STATES[:, None, :, None] * _STATES[:, None, :]).reshape(-1, 4)
        entangled = np.array(single_qubit_cliffords()).transpose(0, 2, 1).reshape(-1, 4) * _R
        amps = np.concatenate([products, entangled]) + 0.0  # +0.0 kills -0.0 parts

    g, strings = _tables(n)
    paulis = strings.reshape(len(strings), len(amps[0]), -1)
    terms = np.einsum("si,kij,sj->sk", amps.conj(), paulis, amps)  # <psi|P|psi>
    if np.max(np.abs(terms.imag)) > 1e-12:
        raise RuntimeError("stabilizer Pauli terms have imaginary parts above 1e-12")
    signs = np.rint(terms.real)
    moved = float(np.max(np.abs(signs - terms.real)))
    if moved > 1e-12:
        raise RuntimeError(f"stabilizer Pauli term is {moved:.3g} off the integers")
    w = signs @ g.T / 4 ** n + 0.0  # one Wigner vector per row; +0.0 kills -0.0 bytes

    expected = 2 ** n * int(np.prod([2 ** k + 1 for k in range(1, n + 1)]))
    distinct = len({row.tobytes() for row in w})
    if len(w) != expected or distinct != expected:
        raise RuntimeError(f"stabilizer construction gave {len(w)} states, "
                           f"{distinct} distinct, expected {expected}")

    order = sorted(range(expected), key=lambda s: tuple(w[s]))
    vertices = np.ascontiguousarray(w[order].T)
    vertices.setflags(write=False)
    return StabilizerSet(states=tuple(PureState(amps[s]) for s in order), vertex_matrix=vertices)


@lru_cache(maxsize=None)
def single_qubit_cliffords() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Clifford unitaries up to global phase, read-only:
    [s | w s'] takes |0> to a Pauli eigenstate s and |1> to its orthogonal
    partner s' times w in (1, i, -1, -i)."""
    table = np.array([np.column_stack([s, w * _STATES[k ^ 1]])
                      for k, s in enumerate(_STATES) for w in (1, 1j, -1, -1j)])
    table.setflags(write=False)
    return tuple(table)
