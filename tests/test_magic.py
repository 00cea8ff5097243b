"""Tests for the Wigner-distance LP against its closed-form and geometric oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mss.magic import (
    CLAMP_TOL,
    _lp_constants,
    c_closed_form,
    octahedron_distance,
    optimal_mixture,
    wigner_distance,
)
from mss.qcore import (
    DensityMatrix,
    apply_1q,
    bloch,
    dm_from_bloch,
    maximally_mixed,
    phase_plus,
)
from mss.stabilizer import enumerate_stabilizer_states, single_qubit_cliffords
from mss.wigner import phase_point_operator, phase_points, wigner_of

from conftest import PROPERTY, bloch_vectors, random_density, random_pure_state

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


class TestClosedForm:
    def test_t_gate_value(self):
        assert c_closed_form(np.pi / 4) == pytest.approx((SQRT2 - 1) / 2, abs=1e-15)

    def test_zeros(self):
        for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi):
            assert c_closed_form(phi) == pytest.approx(0.0, abs=1e-12)

    def test_pi_third(self):
        assert c_closed_form(np.pi / 3) == pytest.approx((SQRT3 - 1) / 4, abs=1e-15)

    def test_periodicity(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=50):
            assert c_closed_form(phi + np.pi / 2) == pytest.approx(c_closed_form(phi), abs=1e-12)


class TestWignerDistance:
    def test_maximally_mixed_is_free(self):
        assert wigner_distance(maximally_mixed(1)).c_value == 0.0

    def test_t_state(self):
        res = wigner_distance(phase_plus(np.pi / 4).density())
        assert res.c_value == pytest.approx((SQRT2 - 1) / 2, abs=1e-9)

    def test_pi_eighth(self):
        res = wigner_distance(phase_plus(np.pi / 8).density())
        assert res.c_value == pytest.approx(0.15328148243818825, abs=1e-9)

    def test_stabilizer_states_are_free(self):
        for n in (1, 2):
            for s in enumerate_stabilizer_states(n).states:
                res = wigner_distance(s.density())
                assert res.c_value == 0.0 and res.f_lhs == 0.0
                assert not res.dual_witness.any()

    def test_agrees_with_closed_form_on_dense_grid(self):
        for phi in np.linspace(1e-4, np.pi / 2 - 1e-4, 100):
            got = wigner_distance(phase_plus(phi).density()).c_value
            assert got == pytest.approx(c_closed_form(phi), abs=1e-7)

    def test_primal_certificate(self, rng):
        for _ in range(20):
            rho = random_density(1, rng)
            res = wigner_distance(rho)
            w = wigner_of(rho).values
            assert np.abs(w - res.f_star.values).sum() == pytest.approx(res.c_value, abs=1e-8)
            assert res.mixture_weights.min() >= 0
            assert res.mixture_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dual_certificate(self, rng):
        F1 = enumerate_stabilizer_states(1).vertex_matrix
        for _ in range(20):
            rho = random_density(1, rng)
            res = wigner_distance(rho)
            assert res.witness_value(rho) == pytest.approx(res.c_value, abs=1e-7)
            for sigma in enumerate_stabilizer_states(1).states:
                val = np.trace(res.dual_witness @ sigma.density().mat).real
                assert val <= res.f_lhs + 1e-9

    def test_dual_certificate_two_qubits(self, rng):
        for _ in range(5):
            rho = random_density(2, rng)
            res = wigner_distance(rho)
            assert res.witness_value(rho) == pytest.approx(res.c_value, abs=1e-7)
            for sigma in enumerate_stabilizer_states(2).states:
                val = np.trace(res.dual_witness @ sigma.density().mat).real
                assert val <= res.f_lhs + 1e-9

    def test_witness_is_hermitian(self, rng):
        res = wigner_distance(random_density(1, rng))
        np.testing.assert_allclose(res.dual_witness, res.dual_witness.conj().T, atol=1e-12)

    def test_clifford_invariance(self, rng):
        for u in single_qubit_cliffords():
            for _ in range(3):
                rho = random_density(1, rng)
                rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
                assert wigner_distance(rotated).c_value == pytest.approx(
                    wigner_distance(rho).c_value, abs=1e-7)

    def test_interior_states_are_exactly_zero(self, rng):
        for _ in range(50):
            b = rng.normal(size=3)
            b *= rng.random() * (1 - 1e-6) / np.abs(b).sum()
            assert wigner_distance(dm_from_bloch(b)).c_value == 0.0

    def test_near_mixed_perturbations_are_zero(self, rng):
        # 3-sigma shot-noise perturbations (~0.066 per component) stay deep
        # inside the octahedron.
        for _ in range(50):
            b = rng.uniform(-0.066, 0.066, size=3)
            assert wigner_distance(dm_from_bloch(b)).c_value == 0.0

    def test_convexity(self, rng):
        for _ in range(25):
            a, b = random_density(1, rng), random_density(1, rng)
            lam = float(rng.random())
            mix = DensityMatrix(lam * a.mat + (1 - lam) * b.mat)
            bound = lam * wigner_distance(a).c_value + (1 - lam) * wigner_distance(b).c_value
            assert wigner_distance(mix).c_value <= bound + 1e-7

    def test_three_qubits_rejected(self):
        with pytest.raises(ValueError, match="n in {1, 2}"):
            wigner_distance(maximally_mixed(3))

    def test_repeat_calls_are_byte_identical(self, rng):
        for rho in (random_density(1, rng), random_density(2, rng), maximally_mixed(2)):
            first, second = wigner_distance(rho), wigner_distance(rho)
            for a, b in ((first.f_star.values, second.f_star.values),
                         (first.mixture_weights, second.mixture_weights),
                         (first.dual_witness, second.dual_witness),
                         (np.float64(first.c_value), np.float64(second.c_value)),
                         (np.float64(first.f_lhs), np.float64(second.f_lhs))):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_lp_constants_are_read_only(self, n):
        for arr in _lp_constants(n):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        F, A, c = _lp_constants(n)
        assert A.shape == (2 * 4 ** n + 1, F.shape[1] + 3 * 4 ** n) and c.sum() == 4 ** n


@st.composite
def random_states(draw):
    """A Haar-pure or Ginibre-mixed 1- or 2-qubit state from a drawn seed."""
    n = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_pure_state(n, rng).density()
    return random_density(n, rng, rank=draw(st.integers(1, 2 ** n)))


class TestPrimalDualAgreement:
    @PROPERTY
    @given(random_states())
    def test_primal_and_dual_values_equal_c(self, rho):
        n = rho.n_qubits
        res = wigner_distance(rho)
        w = wigner_of(rho).values
        F = enumerate_stabilizer_states(n).vertex_matrix
        lam = res.mixture_weights
        # The dual vector, recovered from the witness: tr(A_a A_b) = 2**n delta_ab.
        y = np.array([np.trace(res.dual_witness @ phase_point_operator(pt)).real
                      for pt in phase_points(n)])
        assert np.abs(w - F @ lam).sum() == pytest.approx(res.c_value, abs=1e-9)
        assert y @ w - np.max(y @ F) == pytest.approx(res.c_value, abs=1e-9)
        assert np.abs(y).max() <= 1.0 + 1e-9
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-12)


class TestOptimalMixture:
    def test_symmetric_at_t_angle(self):
        w_plus = wigner_of(phase_plus(0.0).density()).values
        w_plus_i = wigner_of(phase_plus(np.pi / 2).density()).values
        got = optimal_mixture(np.pi / 4).values
        np.testing.assert_allclose(got, (w_plus + w_plus_i) / 2, atol=1e-12)

    def test_limit_toward_zero(self):
        w_plus = wigner_of(phase_plus(0.0).density()).values
        np.testing.assert_allclose(optimal_mixture(1e-9).values, w_plus, atol=1e-8)

    def test_achieves_closed_form_distance(self, rng):
        for phi in rng.uniform(1e-3, np.pi / 2 - 1e-3, size=40):
            w = wigner_of(phase_plus(phi).density()).values
            dist = np.abs(w - optimal_mixture(phi).values).sum()
            assert dist == pytest.approx(c_closed_form(phi), abs=1e-12)

    def test_domain_enforced(self):
        for phi in (0.0, np.pi / 2, -0.3, 2.0):
            with pytest.raises(ValueError, match="strictly inside"):
                optimal_mixture(phi)


class TestOctahedronDistance:
    def test_center(self):
        assert octahedron_distance((0.0, 0.0, 0.0)) == 0.0

    def test_equator_matches_closed_form(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=40):
            got = octahedron_distance((np.cos(phi), np.sin(phi), 0.0))
            assert got == pytest.approx(c_closed_form(phi), abs=1e-12)

    def test_corner_direction(self):
        got = octahedron_distance(np.array([1.0, 1.0, 1.0]) / SQRT3)
        assert got == pytest.approx((SQRT3 - 1) / 2, abs=1e-12)
        lp = wigner_distance(dm_from_bloch(np.array([1.0, 1.0, 1.0]) / SQRT3))
        assert lp.c_value == pytest.approx(got, abs=1e-7)

    def test_matches_lp_on_500_random_states(self, rng):
        # Mandatory cross-validation before the oracle may be trusted.
        for _ in range(500):
            b = rng.normal(size=3)
            b *= rng.random() ** (1 / 3) / np.linalg.norm(b)  # uniform in the ball
            lp = wigner_distance(dm_from_bloch(b)).c_value
            assert lp == pytest.approx(octahedron_distance(b), abs=1e-7)

    def test_polytope_membership_probe(self, rng):
        # LP accepts exactly the ell_1 ball: probe points on both sides.
        hits = 0
        for _ in range(200):
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            radius = rng.uniform(0.2, 1.0)
            b *= radius
            inside = np.abs(b).sum() <= 1 - 1e-6
            c = wigner_distance(dm_from_bloch(b)).c_value
            if inside:
                assert c == 0.0
            elif np.abs(b).sum() > 1 + 1e-6:
                assert c > 0.0
            hits += 1
        assert hits == 200

    @PROPERTY
    @given(st.lists(bloch_vectors(), min_size=1, max_size=8))
    def test_batch_matches_scalar_calls_and_lp(self, vectors):
        batch = octahedron_distance(np.array(vectors))
        assert batch.shape == (len(vectors),)
        for b, got in zip(vectors, batch):
            assert got == octahedron_distance(b)
            assert got == pytest.approx(wigner_distance(dm_from_bloch(b)).c_value, abs=1e-9)

    def test_batch_keeps_leading_shape(self, rng):
        b = rng.uniform(-0.5, 0.5, size=(4, 5, 3))
        assert octahedron_distance(b).shape == (4, 5)

    def test_clamps_round_off_to_zero(self):
        assert octahedron_distance((0.5, 0.5, CLAMP_TOL / 4)) == 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="3 components"):
            octahedron_distance((0.1, 0.2))
