"""Pure stabilizer states for 1 and 2 qubits, built in closed form.

The Wigner vectors of these states are the vertex set of the free polytope
used by the magic linear program.  Counts follow 2**n * prod_{k=1..n}(2**k + 1)
(Aaronson & Gottesman, PRA 70, 052328, 2004): 6 states for one qubit, 60 for
two.

One qubit: the six Pauli eigenstates.  Two qubits: the 36 products of those,
plus the 24 maximally entangled states (I (x) C)|Phi+>, one per single-qubit
Clifford C.  Every Wigner entry is a multiple of 1/2 (n = 1) or 1/8 (n = 2),
so the vectors are snapped to that grid and the vertex matrix is exact.  The
build fails if an entry moved by more than 1e-12 in the snap, or if the
distinct vectors do not number exactly the count above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .qcore import _BASIS_VECTORS, H, I2, PureState, S
from .wigner import WignerVector, _operator_stack

_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class StabilizerSet:
    """All pure n-qubit stabilizer states with their Wigner vectors.

    States carry a canonical phase (first nonzero amplitude real positive)
    and are sorted lexicographically by their Wigner vector, so vertex order
    is reproducible across runs.
    """

    n_qubits: int
    states: tuple[PureState, ...]
    wigner_vertices: tuple[WignerVector, ...]

    @cached_property
    def vertex_matrix(self) -> np.ndarray:
        """Column-stacked vertex coordinates, shape (4**n, n_states), read-only."""
        F = np.column_stack([w.values for w in self.wigner_vertices])
        F.setflags(write=False)
        return F


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n: int) -> StabilizerSet:
    """Complete duplicate-free stabilizer set for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError("stabilizer enumeration is implemented for n in {1, 2}")
    vecs = [v for pair in _BASIS_VECTORS.values() for v in pair]
    if n == 2:
        vecs = ([np.kron(a, b) for a in vecs for b in vecs]
                + [np.kron(I2, c) @ _PHI_PLUS for c in single_qubit_cliffords()])
    amps = np.array(vecs)
    lead = amps[np.arange(len(amps)), np.argmax(np.abs(amps) > 1e-8, axis=1)]
    amps *= (np.abs(lead) / lead)[:, None]  # first nonzero amplitude real positive

    w = np.einsum("si,aij,sj->sa", amps.conj(), _operator_stack(n), amps) / 2 ** n
    if np.max(np.abs(w.imag)) > 1e-12:
        raise RuntimeError("stabilizer Wigner values have imaginary parts above 1e-12")
    step = 2.0 ** (1 - 2 * n)  # the grid: 1/2 at n = 1, 1/8 at n = 2
    snapped = np.round(w.real / step) * step + 0.0  # +0.0 kills -0.0 bytes
    moved = float(np.max(np.abs(snapped - w.real)))
    if moved > 1e-12:
        raise RuntimeError(f"stabilizer Wigner entry is {moved:.3g} off the 1/{1 / step:g} grid")

    expected = 2 ** n * int(np.prod([2 ** k + 1 for k in range(1, n + 1)]))
    distinct = len({row.tobytes() for row in snapped})
    if len(snapped) != expected or distinct != expected:
        raise RuntimeError(f"stabilizer construction gave {len(snapped)} states, "
                           f"{distinct} distinct, expected {expected}")

    order = sorted(range(expected), key=lambda s: tuple(snapped[s]))
    return StabilizerSet(
        n_qubits=n,
        states=tuple(PureState(amps[s]) for s in order),
        wigner_vertices=tuple(WignerVector(snapped[s]) for s in order),
    )


def is_stabilizer(psi: PureState) -> bool:
    """Membership test: overlap above 1 - 1e-10 with some enumerated state."""
    if psi.n_qubits not in (1, 2):
        raise ValueError("membership test is implemented for n in {1, 2}")
    sset = enumerate_stabilizer_states(psi.n_qubits)
    amps = np.column_stack([s.amps for s in sset.states])
    overlaps = np.abs(amps.conj().T @ psi.amps) ** 2
    return bool(np.max(overlaps) > 1 - 1e-10)


def vertices_nonnegative(n: int) -> bool:
    """Whether every Wigner vertex is entrywise >= 0.

    True for n=1 (the octahedron sits in the positive orthant of phase
    space); false for n=2, where Bell-type vertices carry -1/4 entries.
    """
    sset = enumerate_stabilizer_states(n)
    return bool(min(w.values.min() for w in sset.wigner_vertices) >= -1e-12)


@lru_cache(maxsize=None)
def single_qubit_cliffords() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Clifford unitaries (up to global phase), from <H, S>."""

    def canon(u: np.ndarray) -> bytes:
        flat = u.reshape(-1)
        k = int(np.flatnonzero(np.abs(flat) > 1e-8)[0])
        fixed = np.round(u * (abs(flat[k]) / flat[k]), 9) + 0.0  # kill -0.0 bytes
        return fixed.tobytes()

    found = {canon(I2): I2}
    frontier = [I2]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (H, S):
                v = g @ u
                key = canon(v)
                if key not in found:
                    found[key] = v
                    nxt.append(v)
        frontier = nxt
    if len(found) != 24:
        raise RuntimeError(f"Clifford closure produced {len(found)} elements, expected 24")
    return tuple(found.values())
