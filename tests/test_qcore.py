"""Unit tests for the statevector / density-matrix kernel."""

import numpy as np
import pytest

from mss import qcore
from mss.qcore import (
    DensityMatrix,
    PureState,
    apply_1q,
    bloch,
    dm_from_bloch,
    fidelity,
    ghz,
    ket,
    maximally_mixed,
    phase_gate,
    tensor,
    trace_distance,
)

from conftest import (ImpossibleBranchError, overlap2, partial_trace, project_measure, random_density,
                      random_pure_state, random_unitary, reference_apply_on_axis)


PLUS = PureState(np.array([1, 1]) / np.sqrt(2))
MINUS = PureState(np.array([1, -1]) / np.sqrt(2))


class TestConstruction:
    def test_rejects_unnormalised_amplitudes(self):
        with pytest.raises(ValueError, match="normalised"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            PureState(np.array([np.nan, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_states_are_immutable(self):
        psi = ket("0")
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0


class TestTensor:
    def test_zero_zero(self):
        got = tensor(ket("0"), ket("0"))
        np.testing.assert_allclose(got.amps, [1, 0, 0, 0], atol=1e-15)

    def test_plus_plus(self):
        got = tensor(PLUS, PLUS)
        np.testing.assert_allclose(got.amps, np.full(4, 0.5), atol=1e-15)

    def test_mixed_mixed(self):
        got = tensor(maximally_mixed(1), maximally_mixed(1))
        np.testing.assert_allclose(got.mat, np.eye(4) / 4, atol=1e-15)

    def test_first_operand_is_most_significant(self):
        got = tensor(ket("1"), ket("0"))
        np.testing.assert_allclose(got.amps, ket("10").amps, atol=1e-15)


class TestApply1Q:
    def test_phase_gate_on_plus(self):
        phi = 1.234
        got = apply_1q(PLUS, phase_gate(phi), 0)
        want = np.array([1, np.exp(1j * phi)]) / np.sqrt(2)
        np.testing.assert_allclose(got.amps, want, atol=1e-15)

    def test_z_on_minus_gives_plus(self):
        got = apply_1q(MINUS, qcore.Z, 0)
        assert overlap2(got, PLUS) == pytest.approx(1.0, abs=1e-15)

    def test_phase_gate_on_ghz_dealer_qubit(self):
        phi = 0.71
        got = apply_1q(ghz(3), phase_gate(phi), 0)
        want = np.zeros(8, dtype=complex)
        want[0] = 1 / np.sqrt(2)
        want[7] = np.exp(1j * phi) / np.sqrt(2)
        np.testing.assert_allclose(got.amps, want, atol=1e-15)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_1q(PLUS, qcore.X, 1)

    def test_norm_preserved_on_random_states(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            psi = random_pure_state(n, rng)
            out = apply_1q(psi, random_unitary(1, rng), int(rng.integers(n)))
            assert abs(np.linalg.norm(out.amps) - 1) < 1e-12


class TestApplyOnAxesOracle:
    """apply_1q's one-dot kernel is bit-identical to tensordot + moveaxis."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_axis_matches_tensordot_bytes(self, m, rng):
        for _ in range(2):
            psi, gate = random_pure_state(m, rng), random_unitary(1, rng)
            for axis in range(m):
                got = apply_1q(psi, gate, axis).amps
                want = reference_apply_on_axis(psi.amps.reshape((2,) * m), axis, gate).reshape(-1)
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes(), axis

    def test_input_is_left_unchanged(self, rng):
        psi = random_pure_state(4, rng)
        before = psi.amps.tobytes()
        out = apply_1q(psi, random_unitary(1, rng), 2)
        assert psi.amps.tobytes() == before and out.amps is not psi.amps


class TestProjectMeasure:
    def test_x_measure_ghz_plus_branch(self):
        prob, post = project_measure(ghz(3), 0, "X", 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        want = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert overlap2(post, want) == pytest.approx(1.0, abs=1e-12)

    def test_x_measure_injected_ghz(self):
        phi = 0.9
        psi = apply_1q(ghz(3), phase_gate(phi), 0)
        prob, post = project_measure(psi, 0, "X", 0)
        want = np.array([1, 0, 0, np.exp(1j * phi)]) / np.sqrt(2)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert overlap2(post, PureState(want)) == pytest.approx(1.0, abs=1e-12)

    def test_z_measure_deterministic(self):
        prob, post = project_measure(ket("10"), 0, "Z", 1)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post.amps, ket("0").amps, atol=1e-12)

    def test_impossible_branch_raises(self):
        with pytest.raises(ImpossibleBranchError):
            project_measure(ket("10"), 0, "Z", 0)

    def test_branch_probabilities_sum_to_one(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            psi = random_pure_state(n, rng)
            target = int(rng.integers(n))
            basis = rng.choice(["X", "Y", "Z"])
            total = 0.0
            for outcome in (0, 1):
                try:
                    p, _ = project_measure(psi, target, str(basis), outcome)
                except ImpossibleBranchError:
                    p = 0.0
                total += p
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_bell_marginal_is_mixed(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        got = partial_trace(bell.density(), keep={0})
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-12)

    def test_injected_ghz_middle_marginal(self):
        psi = apply_1q(ghz(3), phase_gate(0.3), 0)
        got = partial_trace(psi.density(), keep={1})
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self, rng):
        a = random_pure_state(1, rng)
        b = random_pure_state(2, rng)
        joint = tensor(a, b).density()
        np.testing.assert_allclose(
            partial_trace(joint, keep={0}).mat, a.density().mat, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(joint, keep={1, 2}).mat, b.density().mat, atol=1e-12)

    def test_composition(self, rng):
        for _ in range(10):
            rho = random_density(3, rng)
            two_step = partial_trace(partial_trace(rho, keep={0, 1}), keep={0})
            one_step = partial_trace(rho, keep={0})
            np.testing.assert_allclose(two_step.mat, one_step.mat, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(maximally_mixed(2), keep=set())


class TestBloch:
    def test_phase_state(self):
        for phi in (0.2, 1.1, 2.9):
            rho = apply_1q(PLUS, phase_gate(phi), 0).density()
            np.testing.assert_allclose(
                bloch(rho), [np.cos(phi), np.sin(phi), 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch(maximally_mixed(1)), [0, 0, 0], atol=1e-15)

    def test_round_trip_with_dm_from_bloch(self, rng):
        for _ in range(30):
            b = rng.normal(size=3)
            b *= rng.random() / np.linalg.norm(b)
            np.testing.assert_allclose(bloch(dm_from_bloch(b)), b, atol=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="1-qubit"):
            bloch(maximally_mixed(2))


class TestFidelityAndDistance:
    def test_fidelity_self(self, rng):
        psi = random_pure_state(1, rng)
        assert fidelity(psi.density(), psi) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_mixed_vs_pure(self, rng):
        psi = random_pure_state(1, rng)
        assert fidelity(maximally_mixed(1), psi) == pytest.approx(0.5, abs=1e-12)

    def test_trace_distance_extremes(self):
        assert trace_distance(ket("0").density(), ket("0").density()) == pytest.approx(0.0, abs=1e-15)
        assert trace_distance(ket("0").density(), ket("1").density()) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            fidelity(maximally_mixed(2), ket("0"))
        with pytest.raises(ValueError, match="differ"):
            trace_distance(maximally_mixed(2), maximally_mixed(1))


def test_mixed_state_is_unitary_fixed_point(rng):
    half = maximally_mixed(1)
    for _ in range(50):
        u = random_unitary(1, rng)
        rotated = DensityMatrix(u @ half.mat @ u.conj().T)
        assert trace_distance(rotated, half) <= 1e-12
