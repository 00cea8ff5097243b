"""Tests for stabilizer-state enumeration and the polytope vertex set."""

from itertools import product

import numpy as np
import pytest

from mss import stabilizer
from mss.qcore import DensityMatrix, I2, PureState, X, Y, Z, apply_1q, bloch, phase_gate
from mss.stabilizer import (
    StabilizerSet,
    enumerate_stabilizer_states,
    is_stabilizer,
    single_qubit_cliffords,
    vertices_nonnegative,
)
from mss.wigner import wigner_of

_PAULI_LABELS_1Q = ("I", "X", "Y", "Z")
_PAULI_MATS_1Q = (I2, X, Y, Z)


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


def reference_enumerate(n: int) -> StabilizerSet:
    """Oracle: brute force over maximal abelian Pauli subgroups.

    Every pure stabilizer state is the rank-1 projector (1/2**n) prod_g (I + g)
    for an independent set of commuting signed Pauli generators; the search
    tries every pair and deduplicates the projectors.
    """
    if n not in (1, 2):
        raise ValueError("stabilizer enumeration is implemented for n in {1, 2}")
    paulis = _pauli_strings(n)
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


PLUS = PureState(np.array([1, 1]) / np.sqrt(2))

# The six single-qubit stabilizer states, written out directly.
AXIS_STATES = {
    "Z+": np.array([1, 0]),
    "Z-": np.array([0, 1]),
    "X+": np.array([1, 1]) / np.sqrt(2),
    "X-": np.array([1, -1]) / np.sqrt(2),
    "Y+": np.array([1, 1j]) / np.sqrt(2),
    "Y-": np.array([1, -1j]) / np.sqrt(2),
}


class TestEnumeration:
    def test_counts_match_group_formula(self):
        # 2^n * prod_{k<=n} (2^k + 1): 6 at n=1, 60 at n=2.
        assert len(enumerate_stabilizer_states(1).states) == 6
        assert len(enumerate_stabilizer_states(2).states) == 60

    def test_single_qubit_set_is_the_six_axis_states(self):
        sset = enumerate_stabilizer_states(1)
        for label, want in AXIS_STATES.items():
            hits = [s for s in sset.states if abs(np.vdot(want, s.amps)) ** 2 > 1 - 1e-12]
            assert len(hits) == 1, f"{label} missing or duplicated"

    def test_no_duplicates_up_to_phase(self):
        for n in (1, 2):
            states = enumerate_stabilizer_states(n).states
            for i, a in enumerate(states):
                for b in states[i + 1:]:
                    assert abs(np.vdot(a.amps, b.amps)) ** 2 < 1 - 1e-10

    def test_vertices_normalised(self):
        for n in (1, 2):
            for w in enumerate_stabilizer_states(n).wigner_vertices:
                assert w.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_canonical_phase(self):
        for n in (1, 2):
            for s in enumerate_stabilizer_states(n).states:
                first = s.amps[np.flatnonzero(np.abs(s.amps) > 1e-8)[0]]
                assert first.real > 0 and abs(first.imag) < 1e-12

    def test_order_is_deterministic(self):
        a = enumerate_stabilizer_states.__wrapped__(2)
        b = enumerate_stabilizer_states.__wrapped__(2)
        for wa, wb in zip(a.wigner_vertices, b.wigner_vertices):
            np.testing.assert_array_equal(wa.values, wb.values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_construction_matches_the_pauli_pair_search(self, n):
        built, ref = enumerate_stabilizer_states(n), reference_enumerate(n)
        assert built.vertex_matrix.tobytes() == ref.vertex_matrix.tobytes()
        assert len(built.states) == len(ref.states)
        for got, want in zip(built.states, ref.states):  # same order, both canonical
            assert np.max(np.abs(got.amps - want.amps)) <= 1e-15

    def test_repeated_clifford_fails_the_distinct_count(self, monkeypatch):
        cliffords = single_qubit_cliffords()
        monkeypatch.setattr(stabilizer, "single_qubit_cliffords",
                            lambda: cliffords[:-1] + cliffords[:1])
        with pytest.raises(RuntimeError, match="59 distinct, expected 60"):
            enumerate_stabilizer_states.__wrapped__(2)

    def test_unsupported_n(self):
        with pytest.raises(ValueError, match="n in {1, 2}"):
            enumerate_stabilizer_states(3)


class TestVertexGeometry:
    def test_single_qubit_vertices_lie_on_octahedron_boundary(self):
        for s in enumerate_stabilizer_states(1).states:
            b = bloch(s.density())
            assert np.abs(b).sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_vertices_nonnegative(self):
        assert vertices_nonnegative(1)
        for w in enumerate_stabilizer_states(1).wigner_vertices:
            assert w.values.min() >= -1e-15

    def test_two_qubit_vertices_carry_negative_entries(self):
        # Bell-type stabilizer states have Wigner entries of -1/8 (twelve
        # +1/8 entries and four -1/8 entries sum to 1), so the nonnegativity
        # property is a 1-qubit statement only.
        assert not vertices_nonnegative(2)
        worst = min(w.values.min() for w in enumerate_stabilizer_states(2).wigner_vertices)
        assert worst == pytest.approx(-0.125, abs=1e-12)

    def test_vertex_matrix_shape(self):
        assert enumerate_stabilizer_states(1).vertex_matrix.shape == (4, 6)
        assert enumerate_stabilizer_states(2).vertex_matrix.shape == (16, 60)

    def test_vertex_matrix_is_built_once_and_read_only(self):
        sset = enumerate_stabilizer_states(2)
        F = sset.vertex_matrix
        assert F is sset.vertex_matrix
        np.testing.assert_array_equal(F[:, 7], sset.wigner_vertices[7].values)
        with pytest.raises(ValueError):
            F[0, 0] = 1.0


class TestMembership:
    def test_axis_states_are_members(self):
        for amps in AXIS_STATES.values():
            assert is_stabilizer(PureState(amps))

    def test_t_state_is_not(self):
        assert not is_stabilizer(apply_1q(PLUS, phase_gate(np.pi / 4), 0))

    def test_quarter_turn_phase_state_is(self):
        assert is_stabilizer(apply_1q(PLUS, phase_gate(np.pi / 2), 0))

    def test_two_qubit_bell(self):
        assert is_stabilizer(PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)))
        assert not is_stabilizer(PureState(np.array([1, 0, 0, np.exp(0.3j)]) / np.sqrt(2)))


class TestCliffords:
    def test_count(self):
        assert len(single_qubit_cliffords()) == 24

    def test_all_unitary(self):
        for u in single_qubit_cliffords():
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_permute_stabilizer_states(self):
        states = enumerate_stabilizer_states(1).states
        for u in single_qubit_cliffords():
            for s in states:
                assert is_stabilizer(apply_1q(s, u, 0))
