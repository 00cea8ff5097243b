"""Unit tests for the statevector / density-matrix kernel."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mss import protocol, qcore, steering, tomo
from mss.qcore import (
    DensityMatrix,
    PureState,
    bloch,
    dm_from_bloch,
    ket,
    maximally_mixed,
    phase_gate,
    phase_plus,
    tensor,
    trace_distance,
)

from conftest import (PROPERTY, ImpossibleBranchError, apply_1q, bloch_vectors, fidelity, ghz,
                      overlap2, reference_bloch, reference_density_error, reference_unitary_error,
                      partial_trace, project_measure, random_density, random_pure_state,
                      random_unitary, reference_apply_on_axis)


PLUS = PureState(np.array([1, 1]) / np.sqrt(2))
MINUS = PureState(np.array([1, -1]) / np.sqrt(2))


class TestConstruction:
    def test_rejects_unnormalised_amplitudes(self):
        with pytest.raises(ValueError, match="normalised"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            PureState(np.array([np.nan, 0.0]))
        for phi in (np.inf, -np.inf, np.nan):  # rejected before numpy warns on e^{i inf}
            for make in (phase_gate, phase_plus):
                with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
                    make(phi)

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


class TestPhaseTransferMatrix:
    """phase_ptm writes P(phi)'s transfer matrix in closed form; the generic
    ptm of the gate is its oracle."""

    def test_matches_the_generic_transfer_matrix(self, rng):
        for phi in [*rng.uniform(-7, 7, size=500), *(np.arange(-8, 9) * np.pi / 4)]:
            got = qcore.phase_ptm(phi)
            assert got.shape == (4, 4)
            assert np.max(np.abs(got - qcore.ptm(phase_gate(phi)))) <= 1e-15

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
    def test_every_reader_refuses_a_non_finite_phi_alike(self, phi):
        for call in (lambda: qcore.phase_ptm(phi), lambda: phase_gate(phi),
                     lambda: protocol.run_exact(phi, 3, outcomes="++"),
                     lambda: protocol.run_all_branches(phi, 4),
                     lambda: tomo.circuit_probabilities(phi, "X", tomo.NoiseModel.none()),
                     lambda: steering.certify_exact(phi)):
            with pytest.raises(ValueError, match=f"^phi must be finite, got {phi}$"):
                call()


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


# Perturbation sizes on either side of the construction tolerances (1e-12
# for Hermiticity, the trace and unitarity, 1e-10 for eigenvalues).
_SCALES = (0.0, 1e-13, 0.9e-12, 1.1e-12, 1e-11, 0.9e-10, 1.1e-10, 2e-10, 1e-6, 0.5)


def _error(build, value):
    try:
        build(value)
    except ValueError as exc:
        return str(exc)
    return None


def _any_2x2(draw):
    return np.array(draw(st.lists(st.floats(width=64), min_size=8, max_size=8))).view(complex).reshape(2, 2)


def _nudge(draw):
    """A 2x2 perturbation at one of the scales, on a small integer direction:
    any direction, or a Hermitian traceless one that keeps a state's trace."""
    d, re, im, *rest = draw(st.lists(st.integers(-2, 2), min_size=8, max_size=8))
    direction = (np.array([[d, re + 1j * im], [re - 1j * im, -d]]) if draw(st.booleans())
                 else np.array([d, re, im, *rest], dtype=float).view(complex).reshape(2, 2))
    return draw(st.sampled_from(_SCALES)) * direction


@st.composite
def qubit_matrices(draw):
    """Any eight doubles (NaN, infinities and overflow included), or a state
    whose Bloch vector is scaled to near the ball's surface and perturbed."""
    if draw(st.booleans()):
        return _any_2x2(draw)
    b = draw(bloch_vectors())
    if draw(st.booleans()) and np.any(b):
        b = b / np.linalg.norm(b) * (1 + 2 * draw(st.sampled_from((0.0, *_SCALES[:8], -0.9e-10))))
    return (qcore.I2 + b[0] * qcore.X + b[1] * qcore.Y + b[2] * qcore.Z) / 2 + _nudge(draw)


@st.composite
def gates(draw):
    """Any eight doubles, or a unitary on a 1/64 grid of Euler angles, perturbed."""
    if draw(st.booleans()):
        return _any_2x2(draw)
    t, p, lam = (draw(st.integers(0, 127)) * np.pi / 64 for _ in range(3))
    u = np.array([[np.cos(t / 2), -np.exp(1j * lam) * np.sin(t / 2)],
                  [np.exp(1j * p) * np.sin(t / 2), np.exp(1j * (p + lam)) * np.cos(t / 2)]])
    return u + _nudge(draw)


class TestQubitClosedForms:
    """The 2x2 checks and the Bloch vector are closed forms on the four
    entries; numpy's general path is their oracle."""

    @PROPERTY
    @given(qubit_matrices())
    def test_density_checks_match_the_general_path(self, m):
        with np.errstate(all="ignore"):
            want = reference_density_error(m)
        assert _error(DensityMatrix, m) == want
        if want is None:
            rho = DensityMatrix(m)
            assert np.max(np.abs(bloch(rho) - reference_bloch(rho))) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)])
    @pytest.mark.parametrize("entry", range(4))
    def test_non_finite_entries(self, bad, entry):
        m = np.full(4, 0.5, dtype=complex)
        m[entry] = bad
        assert _error(DensityMatrix, m.reshape(2, 2)) == reference_density_error(m.reshape(2, 2))
        assert "NaN/Inf" in _error(DensityMatrix, m.reshape(2, 2))

    @pytest.mark.parametrize("size, accepted", [(0.9e-12, True), (1.1e-12, False)])
    def test_hermitian_tolerance(self, size, accepted):
        off = np.array([[0.5, 0.25], [0.25 + size, 0.5]], dtype=complex)
        diagonal = np.array([[0.5 + 0.5j * size, 0.25], [0.25, 0.5]], dtype=complex)
        for m in (off, diagonal):
            assert _error(DensityMatrix, m) == reference_density_error(m)
            assert (_error(DensityMatrix, m) is None) == accepted

    @pytest.mark.parametrize("size, accepted", [(0.9e-12, True), (1.1e-12, False), (-1.1e-12, False)])
    def test_trace_tolerance(self, size, accepted):
        for m in (np.diag([0.5 + size, 0.5]), np.diag([0.5 + 0.5j * size, 0.5 + 0.5j * size])):
            assert _error(DensityMatrix, m) == reference_density_error(m)
            assert (_error(DensityMatrix, m) is None) == accepted

    @pytest.mark.parametrize("lam, accepted", [(-0.9e-10, True), (-1.1e-10, False)])
    def test_eigenvalue_tolerance(self, lam, accepted):
        c = 0.5 - lam  # eigenvalues 1 - lam and lam
        for m in (np.diag([1 - lam, lam]), np.array([[0.5, c], [c, 0.5]]),
                  np.array([[0.5, 1j * c], [-1j * c, 0.5]])):
            assert _error(DensityMatrix, m) == reference_density_error(m)
            assert (_error(DensityMatrix, m) is None) == accepted

    @PROPERTY
    @given(gates())
    def test_unitary_check_matches_the_matrix_product(self, g):
        with np.errstate(all="ignore"):
            want = reference_unitary_error(g)
        assert _error(qcore.require_unitary, g) == want

    def test_gate_whose_product_overflows_is_rejected(self):
        # g^dagger g overflows to inf + NaN i here; a NaN-propagating maximum
        # of |g^dagger g - I| compared with ">" would let it pass
        g = np.array([[0, 0], [0, 4.6e61 + 3.9e246j]])
        assert _error(qcore.require_unitary, g) == "gate is not unitary within tolerance"
