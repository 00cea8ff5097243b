"""Tests for the discrete Wigner transform.

Expected vectors tagged as derived below were computed from the defining
formula W(q,p) = tr(rho A_{(q,p)})/2 with Bloch decompositions, independent
of the implementation's Pauli-coordinate table.  The phase-point operators
live in ``conftest`` as the oracle, and their own tests are here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mss.magic import wigner_distance
from mss.qcore import (_PAULIS, DensityMatrix, PureState, X, Y, Z, dm_from_bloch,
                       maximally_mixed, phase_gate)
from mss.wigner import _G1, _PHASE_POINT_BLOCH, _tables, as_wigner_vector, wigner_of

from conftest import (apply_1q, operator_stack, phase_point_operator, phase_points,
                      random_density)

ROOT = Path(__file__).resolve().parent.parent

PLUS = PureState(np.array([1, 1]) / np.sqrt(2))


def point_index(point) -> int:
    """Flat index of a phase point: sum_i 4**(n-1-i) * (2*q_i + p_i)."""
    n = len(point)
    return sum(4 ** (n - 1 - i) * (2 * q + p) for i, (q, p) in enumerate(point))


def state_from_wigner(w: np.ndarray) -> DensityMatrix:
    """Inverse map rho = sum_alpha w(alpha) A_alpha (round-trip partner of wigner_of)."""
    n = (len(w).bit_length() - 1) // 2
    return DensityMatrix(np.tensordot(w, operator_stack(n), axes=([0], [0])))


def brute_force_wigner(rho_mat: np.ndarray) -> np.ndarray:
    """Independent oracle: explicit trace against every phase-point operator."""
    n = int(rho_mat.shape[0]).bit_length() - 1
    out = []
    for pt in phase_points(n):
        a = phase_point_operator(pt)
        out.append(np.trace(rho_mat @ a).real / 2 ** n)
    return np.array(out)


class TestPhasePointOperators:
    def test_origin_operator(self):
        want = 0.5 * np.array([[2, 1 - 1j], [1 + 1j, 0]])
        np.testing.assert_allclose(phase_point_operator(((0, 0),)), want, atol=1e-15)

    def test_corner_operator(self):
        # (q,p)=(1,1): (I - X + Y - Z)/2
        want = 0.5 * np.array([[0, -1 - 1j], [-1 + 1j, 2]])
        np.testing.assert_allclose(phase_point_operator(((1, 1),)), want, atol=1e-15)

    def test_single_qubit_eigenvalues(self):
        for pt in phase_points(1):
            evals = np.linalg.eigvalsh(phase_point_operator(pt))
            np.testing.assert_allclose(
                sorted(evals), [(1 - np.sqrt(3)) / 2, (1 + np.sqrt(3)) / 2], atol=1e-12)

    def test_orthogonality_all_16_pairs(self):
        pts = phase_points(1)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                got = np.trace(phase_point_operator(a) @ phase_point_operator(b)).real
                assert got == pytest.approx(2.0 if i == j else 0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_stack_matches_operators_and_is_read_only(self, n):
        ops = operator_stack(n)
        assert ops is operator_stack(n)
        for op, pt in zip(ops, phase_points(n)):
            assert op.tobytes() == phase_point_operator(pt).tobytes()
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 0.0

    def test_single_qubit_operators_are_read_only(self):
        a = phase_point_operator(((0, 0),))
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 99
        assert phase_point_operator(((0, 0),))[0, 0] == 1.0

    def test_sign_table_rows_are_the_operators_bloch_vectors(self):
        # g_k = tr(A sigma_k), read back from the operators
        assert not _PHASE_POINT_BLOCH.flags.writeable
        for g, pt in zip(_PHASE_POINT_BLOCH, phase_points(1), strict=True):
            traces = np.einsum("kij,ji->k", np.array([X, Y, Z]), phase_point_operator(pt))
            assert traces.real.tolist() == g.tolist()
            assert not traces.imag.any()

    def test_point_index_layout(self):
        assert [point_index(pt) for pt in phase_points(2)] == list(range(16))

    @pytest.mark.parametrize("point", [((2, 0),), (), ((0, 0), (1, -1))],
                             ids=["(2, 0)", "empty", "(1, -1) second"])
    def test_invalid_point_is_refused(self, point):
        with pytest.raises(ValueError, match="invalid phase point"):
            phase_point_operator(point)


class TestPauliTable:
    def test_g1_rows_are_orthogonal_exactly(self):
        assert not _G1.flags.writeable
        assert (_G1 @ _G1.T == 4 * np.eye(4)).all()
        assert (_G1[:, 0] == 1.0).all() and (_G1[:, 1:] == _PHASE_POINT_BLOCH).all()

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_are_built_once_and_read_only(self, n):
        g, strings = _tables(n)
        assert _tables(n)[0] is g and _tables(n)[1] is strings
        assert g.shape == (4 ** n, 4 ** n) and strings.shape == (4 ** n, 4 ** n)
        assert not g.flags.writeable and not strings.flags.writeable

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_view_of_the_strings_reads_the_hermitian_part(self, n, rng):
        # wigner_of's product: the strings' (Re, Im) pairs against a matrix's
        # give Re tr(m P) = tr(m_H P), for any complex m, Hermitian or not.
        d = 2 ** n
        strings = _tables(n)[1]
        for _ in range(20):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            want = np.einsum("pij,ji->p", strings.reshape(-1, d, d), (m + m.conj().T) / 2)
            assert np.abs(want.imag).max() <= 1e-14
            got = strings.view(float) @ m.view(float).reshape(-1)
            assert np.abs(got - want.real).max() <= 1e-14

    def test_two_qubit_tables_are_the_kronecker_products(self):
        g, strings = _tables(2)
        assert g.tobytes() == np.kron(_G1, _G1).tobytes()
        want = np.array([np.kron(a, b) for a in _PAULIS for b in _PAULIS])
        assert strings.tobytes() == want.reshape(16, 16).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_operators_are_the_table_rows_over_the_paulis(self, n):
        # A_alpha = sum_P G_n[alpha, P] P / 2**n, exactly
        g, strings = _tables(n)
        ops = (g @ strings).reshape(operator_stack(n).shape) / 2 ** n
        assert (ops == operator_stack(n)).all()


class TestWignerOf:
    def test_ground_state(self):
        got = wigner_of(PureState(np.array([1, 0])).density())
        np.testing.assert_allclose(got, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        got = wigner_of(maximally_mixed(1))
        np.testing.assert_allclose(got, np.full(4, 0.25), atol=1e-15)

    def test_phase_state_entries(self):
        for phi in (0.3, np.pi / 4, 1.2):
            rho = apply_1q(PLUS, phase_gate(phi), 0).density()
            got = wigner_of(rho)
            for q in (0, 1):
                for p in (0, 1):
                    want = (1 + (-1) ** p * np.cos(phi) + (-1) ** (q + p) * np.sin(phi)) / 4
                    assert got[2 * q + p] == pytest.approx(want, abs=1e-12)

    def test_unique_negative_entry_of_phase_states(self, rng):
        for phi in rng.uniform(1e-3, np.pi / 2 - 1e-3, size=25):
            got = wigner_of(apply_1q(PLUS, phase_gate(phi), 0).density())
            neg = np.where(got < 0)[0]
            assert list(neg) == [point_index(((0, 1),))]
            assert got[neg[0]] == pytest.approx((1 - np.cos(phi) - np.sin(phi)) / 4, abs=1e-12)

    def test_matches_the_operator_stack_on_the_bench_states(self, monkeypatch):
        # The magic2q benchmark items of seed 1: W from the Pauli terms agrees
        # with tr(rho A_alpha) / 4 through the operator stack within 2.5e-16.
        monkeypatch.syspath_prepend(str(ROOT))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        from bench.workloads import build_items

        items = build_items("magic2q", 1)
        assert len(items) == 200
        for item in items:
            want = np.einsum("aij,ji->a", operator_stack(2), item.rho.mat).real / 4
            assert np.abs(wigner_of(item.rho) - want).max() <= 2.5e-16

    def test_identity_term_is_the_trace(self):
        # |+><+| has entries 0.4999999999999999, so tr rho = tr(rho X) = 1 - 2**-52:
        # W's zeros are exact only when the I term is tr rho, not the constant 1.
        plus = PureState(np.array([1, 1]) / np.sqrt(2)).density()
        w = wigner_of(plus)
        assert (w[1], w[3]) == (0.0, 0.0) and w[0] == w[2] == (1 - 2 ** -52) / 2

    def test_matches_brute_force_oracle(self, rng):
        for n in (1, 2):
            for _ in range(50):
                rho = random_density(n, rng)
                np.testing.assert_allclose(
                    wigner_of(rho), brute_force_wigner(rho.mat), atol=1e-12)

    def test_normalisation_on_random_states(self, rng):
        for n in (1, 2):
            for _ in range(50):
                assert wigner_of(random_density(n, rng)).sum() == pytest.approx(1.0, abs=1e-10)

    def test_linearity(self, rng):
        for _ in range(20):
            a, b = random_density(2, rng), random_density(2, rng)
            lam = float(rng.random())
            got = wigner_of(DensityMatrix(lam * a.mat + (1 - lam) * b.mat))
            want = lam * wigner_of(a) + (1 - lam) * wigner_of(b)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_reads_the_hermitian_part_of_an_accepted_state(self):
        # Hermitian within 1e-12 (its error is 9.8e-13), so DensityMatrix
        # accepts it, but the four imaginary entries add up to 1.96e-12 in
        # tr(rho I(x)X).  W reads the Hermitian part, which is I/4 exactly.
        m = np.eye(4, dtype=complex) / 4
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            m[i, j] = 4.9e-13j
        rho = DensityMatrix(m)
        assert wigner_of(rho).tobytes() == wigner_of(maximally_mixed(2)).tobytes()
        assert wigner_distance(rho).c_value == 0.0

    def test_three_qubits_rejected(self):
        with pytest.raises(ValueError, match="n <= 2"):
            wigner_of(maximally_mixed(3))

    @pytest.mark.parametrize("n", [1, 2])
    def test_result_is_a_read_only_float_array(self, n):
        w = wigner_of(maximally_mixed(n))
        assert w.dtype == float and w.shape == (4 ** n,) and w.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0


class TestRoundTrip:
    def test_ground_state_round_trip(self):
        rho = PureState(np.array([1, 0])).density()
        back = state_from_wigner(wigner_of(rho))
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-12)

    def test_uniform_vector_is_mixed(self):
        got = state_from_wigner(np.full(4, 0.25))
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-15)

    def test_t_state_round_trip(self):
        rho = apply_1q(PLUS, phase_gate(np.pi / 4), 0).density()
        back = state_from_wigner(wigner_of(rho))
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-12)

    def test_random_round_trips(self, rng):
        for n in (1, 2):
            for _ in range(25):
                rho = random_density(n, rng)
                w = wigner_of(rho)
                np.testing.assert_allclose(
                    wigner_of(state_from_wigner(w)), w, atol=1e-10)

    def test_non_normalised_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            as_wigner_vector(np.array([0.5, 0.5, 0.5, 0.5]))

    def test_entry_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"\|value\| > 1"):
            as_wigner_vector(np.array([1.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("values", [[np.nan, 1.0, 0.0, 0.0], [0.5, 0.5, np.nan, np.nan],
                                        [np.inf, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, -np.inf],
                                        [np.inf, -np.inf, 1.0, 0.0]])
    def test_non_finite_entry_rejected(self, values):
        with pytest.raises(ValueError, match="Wigner vector"):
            as_wigner_vector(values)
