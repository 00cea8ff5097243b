"""Enumeration of pure stabilizer states for 1 and 2 qubits.

The Wigner vectors of these states are the vertex set of the free polytope
used by the magic linear program.  Counts follow 2**n * prod_{k=1..n}(2**k + 1):
6 states for one qubit, 60 for two.

Enumeration is brute force over maximal abelian Pauli subgroups: every pure
stabilizer state is the rank-1 projector (1/2**n) * prod_g (I + g) for an
independent set of commuting signed Pauli generators.  At these sizes the
search is exact and instant; no tableau machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .qcore import DensityMatrix, H, I2, PAULIS_1Q, PureState, S
from .wigner import WignerVector, wigner_of

_PAULI_LABELS_1Q = ("I", "X", "Y", "Z")
_PAULI_MATS_1Q = tuple(PAULIS_1Q[l] for l in _PAULI_LABELS_1Q)


@dataclass(frozen=True)
class StabilizerSet:
    """All pure n-qubit stabilizer states with their Wigner vectors.

    States carry a canonical phase (first nonzero amplitude real positive)
    and are sorted lexicographically by their Wigner vector rounded to 12
    decimals, so vertex order is reproducible across runs.
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


def _pauli_strings(n: int):
    """Non-identity n-qubit Paulis as (label, matrix) pairs."""
    out = []
    for labels in product(range(4), repeat=n):
        if all(l == 0 for l in labels):
            continue
        mat = _PAULI_MATS_1Q[labels[0]]
        for l in labels[1:]:
            mat = np.kron(mat, _PAULI_MATS_1Q[l])
        out.append(("".join(_PAULI_LABELS_1Q[l] for l in labels), mat))
    return out


def _canonical_state(projector: np.ndarray) -> PureState:
    evals, evecs = np.linalg.eigh(projector)
    vec = evecs[:, int(np.argmax(evals))]
    k = int(np.flatnonzero(np.abs(vec) > 1e-8)[0])
    vec = vec * (abs(vec[k]) / vec[k])
    return PureState(vec / np.linalg.norm(vec))


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n: int) -> StabilizerSet:
    """Complete duplicate-free stabilizer set for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError("stabilizer enumeration is implemented for n in {1, 2}")
    paulis = _pauli_strings(n)
    dim = 2 ** n
    projectors: dict[bytes, np.ndarray] = {}
    def key(m: np.ndarray) -> bytes:
        return (np.round(m, 10) + 0.0).tobytes()  # +0.0 kills -0.0 bytes

    if n == 1:
        for _, p in paulis:
            for sign in (1, -1):
                proj = (np.eye(2) + sign * p) / 2
                projectors.setdefault(key(proj), proj)
    else:
        for (_, p1), (_, p2) in product(paulis, repeat=2):
            if not np.allclose(p1 @ p2, p2 @ p1, atol=1e-12):
                continue
            for s1, s2 in product((1, -1), repeat=2):
                proj = (np.eye(4) + s1 * p1) @ (np.eye(4) + s2 * p2) / 4
                if abs(np.trace(proj).real - 1.0) > 1e-9:
                    continue  # generators not independent (p2 = +-p1 branch)
                projectors.setdefault(key(proj), proj)

    expected = 2 ** n * int(np.prod([2 ** k + 1 for k in range(1, n + 1)]))
    if len(projectors) != expected:
        raise RuntimeError(
            f"stabilizer enumeration found {len(projectors)} states, expected {expected}")

    entries = []
    for proj in projectors.values():
        state = _canonical_state(proj)
        w = wigner_of(DensityMatrix((proj + proj.conj().T) / 2))
        entries.append((tuple(np.round(w.values, 12)), state, w))
    entries.sort(key=lambda e: e[0])
    return StabilizerSet(
        n_qubits=n,
        states=tuple(e[1] for e in entries),
        wigner_vertices=tuple(e[2] for e in entries),
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
