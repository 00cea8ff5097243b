"""Tests for the Wigner-distance LP against its closed-form and geometric oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mss.magic
import mss.simplex
from mss.cli import main
from mss.magic import (
    CLAMP_TOL,
    SIGN_TOL,
    _lp_constants,
    c_closed_form,
    octahedron_distance,
    octahedron_witness,
    wigner_distance,
)
from mss.qcore import (
    _PAULIS,
    I2,
    DensityMatrix,
    PureState,
    X,
    Y,
    Z,
    bloch,
    dm_from_bloch,
    maximally_mixed,
    phase_plus,
    tensor,
)
from mss.simplex import solve_lp
from mss.stabilizer import enumerate_stabilizer_states, single_qubit_cliffords
from mss.steering import build_assemblage, solve_witness
from mss.wigner import _PHASE_POINT_BLOCH, _tables, as_wigner_vector, wigner_of

from conftest import (PROPERTY, H, S, apply_1q, bloch_vectors, operator_stack, oracle_states,
                      phase_point_operator, phase_points, random_density, random_pure_state,
                      reference_witness_matrix, wigner_lp)
from test_simplex import general_form, highs_l1_fit, reference_solve_lp

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def witness_value(res, rho: DensityMatrix) -> float:
    """tr(H* rho) - F_LHS of a solve's witness: C at the solved state, a lower bound elsewhere."""
    return float(np.trace(res.dual_witness @ rho.mat).real) - res.f_lhs


def optimal_mixture(phi: float) -> np.ndarray:
    """The nearest polytope point for P(phi)|+> with phi strictly in (0, pi/2).

    Mixes the Wigner vectors of |+> and |+i>.  Writing c = cos(phi) and
    s = sin(phi), the L1-optimal mixture is the equal-deviation point with
    weights (1 + c - s)/2 on |+> and (1 + s - c)/2 on |+i>: its Bloch vector
    sits on the octahedron facet at distance c_closed_form(phi) along both
    in-plane axes simultaneously, which is what minimises the max-deviation
    form the Wigner L1 norm takes in the equatorial plane.
    """
    if not 0.0 < phi < np.pi / 2:
        raise ValueError("optimal_mixture requires phi strictly inside (0, pi/2)")
    w_plus = wigner_of(phase_plus(0.0).density())
    w_plus_i = wigner_of(phase_plus(np.pi / 2).density())
    c, s = np.cos(phi), np.sin(phi)
    a = (1.0 + c - s) / 2.0
    return as_wigner_vector(a * w_plus + (1.0 - a) * w_plus_i)


class TestClosedForm:
    def test_t_gate_value(self):
        assert c_closed_form(np.pi / 4) == pytest.approx((SQRT2 - 1) / 2, abs=1e-15)

    def test_zeros(self):
        # Clamped at CLAMP_TOL: fl(pi), fl(3 pi/2) and fl(2 pi) leave 1.1e-16 unclamped.
        for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi, -np.pi, np.pi + 1e-11):
            assert c_closed_form(phi) == 0.0

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
        for n, count in ((1, 6), (2, 60)):
            states = enumerate_stabilizer_states(n).states
            assert len(states) == count
            for s in states:
                res = wigner_distance(s.density())
                assert res.c_value == 0.0 and res.f_lhs == 0.0
                assert not res.dual_witness.any()
                # The LP's start is the state's own vertex: the zero-objective
                # stop ends the solve before any pivot.
                sol = solve_lp(*wigner_lp(s.density()))
                assert sol.iterations == 0 and not sol.duals.any()

    def test_near_free_mixtures_are_free(self):
        # (1-p)|00><00| + p|01><01| mixes two stabilizer states, so C = 0.
        # Its start vertex |00> is 2p away, under the simplex tol for these
        # p: the solve must still reach the mixture, not stop at the start.
        assert mss.simplex.ZERO_OBJECTIVE < CLAMP_TOL
        for p in np.linspace(1e-10, 5e-10, 9):
            res = wigner_distance(DensityMatrix(np.diag([1.0 - p, p, 0.0, 0.0]).astype(complex)))
            assert res.c_value == 0.0 and res.f_lhs == 0.0
            assert not res.dual_witness.any()

    def test_tiny_magic_matches_the_closed_form(self):
        # C of |+_phi> is about phi / 2 here, from under CLAMP_TOL (reported
        # as 0) to a few times it, all under the simplex tol.  The closed form
        # is (sin phi - 2 sin^2(phi/2))/2, free of the cancellation in
        # c_closed_form, which at phi = 2e-10 reads 1.0000000827e-10 where C
        # is 0.9999999999e-10, under the clamp.
        for phi in np.linspace(1e-10, 1e-9, 10):
            closed = (np.sin(phi) - 2 * np.sin(phi / 2) ** 2) / 2
            rho = phase_plus(phi).density()
            res = wigner_distance(rho)
            # The LP still solves out to the nearest point.
            assert np.abs(wigner_of(rho) - res.f_star).sum() == pytest.approx(closed, abs=1e-15)
            if closed < CLAMP_TOL:
                assert res.c_value == 0.0
            else:
                assert res.c_value == pytest.approx(closed, abs=1e-15)
                assert witness_value(res, rho) == pytest.approx(res.c_value, abs=1e-15)

    def test_agrees_with_closed_form_on_dense_grid(self):
        for phi in np.linspace(1e-4, np.pi / 2 - 1e-4, 100):
            got = wigner_distance(phase_plus(phi).density()).c_value
            assert got == pytest.approx(c_closed_form(phi), abs=1e-7)

    def test_primal_certificate(self, rng):
        for _ in range(20):
            rho = random_density(1, rng)
            res = wigner_distance(rho)
            w = wigner_of(rho)
            assert np.abs(w - res.f_star).sum() == pytest.approx(res.c_value, abs=1e-8)
            assert res.mixture_weights.min() >= 0
            assert res.mixture_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dual_certificate(self, rng):
        F1 = enumerate_stabilizer_states(1).vertex_matrix
        for _ in range(20):
            rho = random_density(1, rng)
            res = wigner_distance(rho)
            assert witness_value(res, rho) == pytest.approx(res.c_value, abs=1e-7)
            for sigma in enumerate_stabilizer_states(1).states:
                val = np.trace(res.dual_witness @ sigma.density().mat).real
                assert val <= res.f_lhs + 1e-9

    def test_dual_certificate_two_qubits(self, rng):
        for _ in range(5):
            rho = random_density(2, rng)
            res = wigner_distance(rho)
            assert witness_value(res, rho) == pytest.approx(res.c_value, abs=1e-7)
            for sigma in enumerate_stabilizer_states(2).states:
                val = np.trace(res.dual_witness @ sigma.density().mat).real
                assert val <= res.f_lhs + 1e-9

    def test_witness_is_hermitian(self, rng):
        res = wigner_distance(random_density(1, rng))
        np.testing.assert_allclose(res.dual_witness, res.dual_witness.conj().T, atol=1e-12)

    def test_two_qubit_witness_is_exactly_hermitian(self, rng):
        # Byte-equal to its conjugate transpose once that has its -0.0 parts made +0.0.
        checked = 0
        for rho in oracle_states(2, rng, 25):
            w = wigner_distance(rho).dual_witness
            checked += bool(w.any())
            assert (w.conj().T + 0.0).tobytes() == w.tobytes()
        assert checked > 40

    @pytest.mark.parametrize("n", [1, 2])
    def test_witness_terms_are_the_traces_against_each_pauli(self, n, rng):
        paulis = _PAULIS if n == 1 else np.array([np.kron(a, b) for a in _PAULIS for b in _PAULIS])
        for rho in oracle_states(n, rng, 10):
            res = wigner_distance(rho)
            h = np.einsum("aij,ji->a", paulis, res.dual_witness)
            assert np.abs(h - res.witness_terms).max() <= 1e-15
            assert res.witness_terms.dtype == float and not res.witness_terms.flags.writeable

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
            for a, b in ((first.f_star, second.f_star),
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
        F, A = _lp_constants(n)
        assert A.shape == (4 ** n + 1, F.shape[1] + 2 * 4 ** n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_witness_contraction_matches_the_generator_sum(self, n, rng):
        ops = operator_stack(n)
        for i in range(20):
            y = rng.uniform(-1.0, 1.0, 4 ** n)
            old = sum(coef * op for coef, op in zip(y, ops))
            np.testing.assert_allclose(np.tensordot(y, ops, 1), old, rtol=0, atol=1e-15)
            rho = random_density(n, rng) if i % 2 else random_pure_state(n, rng).density()
            res = wigner_distance(rho)
            y = np.array([np.trace(res.dual_witness @ op).real for op in ops])
            old = sum(coef * op for coef, op in zip(y, ops)) / 2 ** n
            np.testing.assert_allclose(res.dual_witness, (old + old.conj().T) / 2,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_witness_from_terms_matches_the_phase_point_sum(self, n, rng):
        # Random duals y, and duals on the box's faces with signed zeros, as
        # Pauli terms G_n^T y / 2**n.
        ys = [rng.uniform(-1.0, 1.0, 4 ** n) for _ in range(200)]
        ys += [rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], 4 ** n) for _ in range(50)]
        g = _tables(n)[0]
        for y in ys:
            got = mss.magic._result(0.0, None, None, y @ g / 2 ** n, 0.0).dual_witness
            assert np.abs(got - reference_witness_matrix(y, n)).max() <= 1e-15
            assert not got.flags.writeable

    def test_one_qubit_witness_is_the_lp_vertex_construction(self, rng):
        # The oracle builds the sign witness from its phase-point coordinates:
        # y_a = tr(A_a (s . sigma))/2, centred in [-1, 1], summed as
        # sum_a y_a A_a / 2, with F_LHS the largest vertex value of y.
        ops = operator_stack(1)
        checked = 0
        for i in range(3000):
            b = rng.normal(size=3)
            b *= rng.uniform(0.75, 1.0) / np.linalg.norm(b)
            if i % 3 == 0:
                b[rng.integers(3)] = (0.0, -0.0, SIGN_TOL / 2)[i % 9 // 3]
            res = wigner_distance(dm_from_bloch(b))
            if res.c_value == 0.0:
                continue
            checked += 1
            s = np.where(np.abs(b) <= SIGN_TOL, 0.0, np.sign(b))
            y0 = np.einsum("aij,ji->a", ops, s[0] * X + s[1] * Y + s[2] * Z).real / 2
            y = y0 - (y0.max() + y0.min()) / 2
            want = (y @ ops.reshape(4, -1)).reshape(2, -1) / 2
            want = (want + want.conj().T) / 2
            assert res.dual_witness.tobytes() == want.tobytes()
            assert res.witness_terms.tobytes() == np.array([-(y0.max() + y0.min()), *s]).tobytes()
            assert res.f_lhs.hex() == float((y @ _lp_constants(1)[0]).max()).hex()
            assert not res.dual_witness.flags.writeable
        assert checked > 1500

    @pytest.mark.parametrize("phi", [0.3, np.pi / 8, 2.0])
    def test_cx_doubles_the_joint_value_and_local_cliffords_keep_it(self, phi):
        # "C = 0" is Clifford-invariant, nonzero values are not: a CX takes
        # P(phi)|+> (x) |0>, with C(phi), to (|00> + e^{i phi}|11>)/sqrt(2),
        # with 2 C(phi).
        def c2(amps):
            return wigner_distance(PureState(amps).density()).c_value

        cx = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        product = np.kron(phase_plus(phi).amps, [1.0, 0.0])
        for psi, want in ((product, c_closed_form(phi)), (cx @ product, 2 * c_closed_form(phi))):
            assert abs(c2(psi) - want) <= 1e-12
            for local in (np.kron(H, I2), np.kron(I2, H), np.kron(S, S)):
                assert abs(c2(local @ psi) - c2(psi)) <= 1e-12


def reference_wigner_lp(rho):
    """C(rho) from the 2k+1-row LP, solved two-phase by the scalar reference.

    Variables [lambda (nv), t (k), s1 (k), s2 (k)], minimising sum t:
      F lam + t - s1 = w      (w - F lam <= t)
      F lam - t + s2 = w      (F lam - w <= t)
      sum lam        = 1
    """
    w = wigner_of(rho)
    F = enumerate_stabilizer_states(rho.n_qubits).vertex_matrix
    k, nv = F.shape
    eye = np.eye(k)
    A = np.block([[F, eye, -eye, np.zeros((k, k))],
                  [F, -eye, np.zeros((k, k)), eye],
                  [np.ones((1, nv)), np.zeros((1, 3 * k))]])
    c = np.concatenate([np.zeros(nv), np.ones(k), np.zeros(2 * k)])
    sol, _ = reference_solve_lp(c, A, np.concatenate([w, w, [1.0]]), bland=True)
    return sol.fun


def scipy_wigner_lp(rho):
    """C(rho) from scipy's HiGHS on min ||w - F lam||_1 over the simplex."""
    return highs_l1_fit(enumerate_stabilizer_states(rho.n_qubits).vertex_matrix, wigner_of(rho))


class TestAgainstTheTwoPhaseLP:
    """The warm-started k+1-row LP against the 2k+1-row two-phase LP and HiGHS."""

    @pytest.mark.parametrize("n,per_class", [(1, 25), (2, 10)])
    def test_c_matches_both_oracles(self, n, per_class, rng):
        for rho in oracle_states(n, rng, per_class):
            c = wigner_distance(rho).c_value
            assert c == pytest.approx(reference_wigner_lp(rho), abs=1e-12)
            assert c == pytest.approx(scipy_wigner_lp(rho), abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nearest_vertex_basis_is_feasible(self, n, rng, monkeypatch):
        lps = []

        def record(A, w, vertex):
            lps.append((A, w, vertex))
            return solve_lp(A, w, vertex)

        monkeypatch.setattr(mss.magic, "solve_lp", record)
        states = list(oracle_states(n, rng, 6))
        results = [wigner_distance(rho) for rho in states]
        monkeypatch.undo()
        # Two qubits solve wigner_lp's LP; one qubit solves none.
        assert len(lps) == (len(states) if n == 2 else 0)
        for got, rho in zip(lps, states):
            want = wigner_lp(rho)
            assert got[0] is want[0] and type(got[2]) is int and got[2] == want[2]
            assert got[1].tobytes() == want[1].tobytes()
        F = enumerate_stabilizer_states(n).vertex_matrix
        for rho, res in zip(states, results):
            A, w, j = wigner_lp(rho)
            _, _, b, basis = general_form(A, w, j)
            dist = np.abs(w[:, None] - F).sum(axis=0)
            assert dist[j] == dist.min() >= res.c_value - 1e-12
            x_start = np.linalg.solve(A[:, basis], b)
            assert x_start.min() >= -1e-12
            assert x_start[-1] == pytest.approx(1.0, abs=1e-12)
            assert res.mixture_weights.min() >= 0.0
            assert res.mixture_weights.sum() == pytest.approx(1.0, abs=1e-12)


def normalised_weights(x):
    """An LP's vertex weights clipped at 0 and scaled to sum 1, as
    wigner_distance reads them."""
    lam = np.clip(x, 0.0, None)
    return lam / lam.sum()


class TestAgainstTheBlandPath:
    """The long step against Bland's rule from the same start (the scalar
    reference with ``bland=True``, the rule solve_lp used before)."""

    @staticmethod
    def solve_both(n, states, monkeypatch):
        lps, sols = [], []

        def record(A, w, vertex):
            lps.append(general_form(A, w, vertex))
            sols.append(solve_lp(A, w, vertex))
            return sols[-1]

        monkeypatch.setattr(mss.magic, "solve_lp", record)
        results = [wigner_distance(rho) for rho in states]
        monkeypatch.undo()
        nv = _lp_constants(n)[0].shape[1]
        for res, lp, sol in zip(results, lps, sols):
            ref, _ = reference_solve_lp(*lp, bland=True)
            yield res, sol, ref, normalised_weights(ref.x[:nv]), lp[2][:-1]

    def test_two_qubit_optima_both_certified_where_the_mixture_moves(self, rng, monkeypatch):
        # The L1-nearest polytope point is not unique for most 2-qubit states
        # with C > 0, so the mixture may differ from Bland's; both are optimal.
        F = _lp_constants(2)[0]
        states = [random_density(2, rng) if i % 2 else random_pure_state(2, rng).density()
                  for i in range(40)]
        moved = 0
        for res, _, ref, lam, w in self.solve_both(2, states, monkeypatch):
            assert res.c_value > 0.0
            assert res.c_value == pytest.approx(ref.fun, abs=1e-12)
            for weights in (res.mixture_weights, lam):
                assert weights.min() >= 0.0 and weights.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(w - F @ weights).sum() == pytest.approx(res.c_value, abs=1e-12)
            moved += not np.allclose(res.mixture_weights, lam, rtol=0, atol=1e-12)
        assert moved > 0

    def test_one_qubit_results_are_pinned(self, rng):
        # For one qubit with C > 0 the long step ends where Bland's rule
        # does: the same objective and mixture, byte for byte.  The reported
        # C is the closed form, within round-off of both.
        states = [random_density(1, rng) if i % 2 else random_pure_state(1, rng).density()
                  for i in range(200)]
        solved = 0
        for rho in states:
            res = wigner_distance(rho)
            if res.c_value == 0.0:
                continue
            solved += 1
            lp = wigner_lp(rho)
            sol = solve_lp(*lp)
            ref, _ = reference_solve_lp(*general_form(*lp), bland=True)
            assert np.float64(sol.fun).tobytes() == np.float64(ref.fun).tobytes()
            assert res.c_value == pytest.approx(ref.fun, abs=1e-15)
            got, want = normalised_weights(sol.x[:6]), normalised_weights(ref.x[:6])
            assert got.tobytes() == want.tobytes()
        assert solved > 100


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
        w = wigner_of(rho)
        F = enumerate_stabilizer_states(n).vertex_matrix
        lam = res.mixture_weights
        # The dual vector, recovered from the witness: tr(A_a A_b) = 2**n delta_ab.
        y = np.array([np.trace(res.dual_witness @ phase_point_operator(pt)).real
                      for pt in phase_points(n)])
        assert np.abs(w - F @ lam).sum() == pytest.approx(res.c_value, abs=1e-9)
        assert y @ w - np.max(y @ F) == pytest.approx(res.c_value, abs=1e-9)
        assert np.abs(y).max() <= 1.0 + 1e-9
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nan_objective_fails_the_postcondition(self, monkeypatch):
        def nan_objective(*args, **kwargs):
            return dataclasses.replace(solve_lp(*args, **kwargs), fun=np.nan)

        monkeypatch.setattr(mss.magic, "solve_lp", nan_objective)
        t = phase_plus(np.pi / 4)
        with pytest.raises(RuntimeError, match="LP postcondition violated"):
            wigner_distance(tensor(t, t).density())

    def test_one_qubit_c_must_match_the_nearest_point(self, monkeypatch):
        assert wigner_distance(phase_plus(np.pi / 4).density()).c_value == pytest.approx(
            (SQRT2 - 1) / 2, abs=1e-15)
        monkeypatch.setattr(mss.magic, "octahedron_distance", lambda b: 0.25)
        with pytest.raises(RuntimeError, match="closed-form postcondition violated"):
            wigner_distance(phase_plus(np.pi / 4).density())


class TestOptimalMixture:
    def test_symmetric_at_t_angle(self):
        w_plus = wigner_of(phase_plus(0.0).density())
        w_plus_i = wigner_of(phase_plus(np.pi / 2).density())
        got = optimal_mixture(np.pi / 4)
        np.testing.assert_allclose(got, (w_plus + w_plus_i) / 2, atol=1e-12)

    def test_limit_toward_zero(self):
        w_plus = wigner_of(phase_plus(0.0).density())
        np.testing.assert_allclose(optimal_mixture(1e-9), w_plus, atol=1e-8)

    def test_achieves_closed_form_distance(self, rng):
        for phi in rng.uniform(1e-3, np.pi / 2 - 1e-3, size=40):
            w = wigner_of(phase_plus(phi).density())
            dist = np.abs(w - optimal_mixture(phi)).sum()
            assert dist == pytest.approx(c_closed_form(phi), abs=1e-12)

    def test_domain_enforced(self):
        for phi in (0.0, np.pi / 2, -0.3, 2.0):
            with pytest.raises(ValueError, match="strictly inside"):
                optimal_mixture(phi)


def octahedron_edge_cases():
    """Bloch vectors where the closed form's cases meet: the centre, the
    axes, a zero coordinate, a coordinate under the level t, the facet
    |b|_1 = 1 and the clamp window |b|_1 - 1 within a few 1e-10 of 0."""
    cases = [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]
    for i in range(3):
        for r in (1.0, -1.0, 0.5, -1e-9):
            cases.append(tuple(r if j == i else 0.0 for j in range(3)))
    cases += [(0.0, 0.8, 0.6), (0.6, -0.0, -0.8), (SQRT2 / 2, -SQRT2 / 2, 0.0),
              (0.9, 0.4, 0.05), (0.05, -0.9, 0.4), (-0.4, 0.05, 0.9), (0.98, 0.15, 1e-6),
              (0.5, 0.25, 0.25), (-0.5, 0.5, 0.0), (0.375, -0.375, 0.25), (0.0, 0.0, -1.0)]
    for direction in ((1.0, 1.0, 1.0), (0.6, -0.3, 0.1), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)):
        d = np.array(direction) / np.abs(direction).sum()
        for delta in (-3e-10, -2e-10, -1e-10, -1e-11, 0.0, 1e-11, 1e-10, 2e-10, 3e-10):
            cases.append(tuple(d * (1.0 + delta)))
    return [np.array(b) for b in cases if np.dot(b, b) <= 1.0]


class TestOneQubitClosedForm:
    """The closed form of the 1-qubit Wigner distance against the 1-qubit LP."""

    def test_matches_the_lp_on_20k_states(self):
        rng = np.random.default_rng(2929)
        d = rng.normal(size=(20_000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        ball = d[:15_000] * rng.random((15_000, 1)) ** (1 / 3)
        # Near the facet: |b|_1 = 1 + delta for |delta| up to 1e-3, then 1e-9.
        near = d[15_000:] / np.abs(d[15_000:]).sum(axis=1, keepdims=True)
        near *= 1.0 + np.concatenate([rng.uniform(-1e-3, 1e-3, 2_500),
                                      rng.uniform(-1e-9, 1e-9, 2_500)])[:, None]
        vectors = [*octahedron_edge_cases(), *ball, *near]
        assert len(vectors) > 20_000
        rows = []
        for rho in map(dm_from_bloch, vectors):
            res = wigner_distance(rho)
            lp = wigner_lp(rho)
            rows.append((bloch(rho), lp[1], res.f_star, res.mixture_weights, res.c_value,
                         solve_lp(*lp).fun))
        b, w, f_star, lam, c, fun = map(np.array, zip(*rows))
        assert (c == octahedron_distance(b)).all()
        # C is the LP's objective; the clamp sets both under CLAMP_TOL to 0.
        assert np.abs(c - fun)[c > 0.0].max() <= 1e-12
        assert fun[c == 0.0].max() < CLAMP_TOL + 1e-12
        clamped = np.count_nonzero((0.0 < fun) & (fun < CLAMP_TOL))
        # The nearest point is at the unclamped distance, as F @ lam.
        distance = np.maximum(0.0, (np.abs(b).sum(axis=1) - 1.0) / 2)
        F = _lp_constants(1)[0]
        assert np.abs(np.abs(w - lam @ F.T).sum(axis=1) - distance).max() <= 1e-15
        assert lam.min() >= 0.0 and np.abs(lam.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(lam @ F.T - f_star).max() <= 1e-15
        assert clamped > 20

    def test_axis_vertices_are_the_stabilizer_states_on_each_axis(self):
        # The Wigner vector (1 + g_a . b)/4 of a vertex maps back to its Bloch vector.
        vertex_bloch = _PHASE_POINT_BLOCH.T @ enumerate_stabilizer_states(1).vertex_matrix
        axes = mss.magic._AXIS_VERTICES
        assert sorted(sum(axes, ())) == list(range(6))
        for i, (minus, plus) in enumerate(axes):
            assert (vertex_bloch[:, minus] == -np.eye(3)[i]).all()
            assert (vertex_bloch[:, plus] == np.eye(3)[i]).all()

    def test_phase_states_reach_the_optimal_mixture(self, rng):
        for phi in (np.pi / 4, np.pi / 8, *rng.uniform(1e-3, np.pi / 2 - 1e-3, 100)):
            res = wigner_distance(phase_plus(phi).density())
            np.testing.assert_allclose(res.f_star, optimal_mixture(phi), rtol=0, atol=1e-15)
            c, s = np.cos(phi), np.sin(phi)
            want = np.zeros(6)
            want[4], want[3] = (1.0 + c - s) / 2, (1.0 + s - c) / 2  # |+> and |+i>
            np.testing.assert_allclose(res.mixture_weights, want, rtol=0, atol=1e-15)

    def test_one_qubit_paths_solve_no_lp(self, rng, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a 1-qubit path reached the LP")

        monkeypatch.setattr(mss.magic, "solve_lp", refuse)
        monkeypatch.setattr(mss.magic, "_lp_constants", refuse)
        for rho in oracle_states(1, rng, 5):
            wigner_distance(rho)
        for phi in (0.3, np.pi / 4, 3 * np.pi / 2 + 2e-10):
            solve_witness(build_assemblage(phi))
        for argv in (["--phi", "0.3"], ["--state", "mixed"], ["--bloch", "0.9,0.4,0.05"]):
            assert main(["magic-eval", *argv]) == 0
        capsys.readouterr()


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


class TestOctahedronWitness:
    """The one rule for the reported 1-qubit witness, which wigner_distance
    and the steering certificate both read."""

    @staticmethod
    def clamp_window() -> list[np.ndarray]:
        """The edge cases, and Bloch vectors at |b|_1 = 1 + 2e-10, where C
        meets CLAMP_TOL, with each coordinate also moved by -1 and +1 ulp."""
        vectors = octahedron_edge_cases()
        for direction in ((1.0, 1.0, 1.0), (0.6, -0.3, 0.1), (0.5, 0.5, 0.0), (-0.2, 0.7, -0.1)):
            d = np.array(direction) / np.abs(direction).sum() * (1.0 + 2 * CLAMP_TOL)
            vectors.append(d)
            for i in range(3):
                for toward in (-np.inf, np.inf):
                    b = d.copy()
                    b[i] = np.nextafter(b[i], toward)
                    vectors.append(b)
        return vectors

    def test_zero_exactly_where_c_is_zero(self):
        vectors = self.clamp_window()
        c = octahedron_distance(np.array(vectors))
        window = c[len(octahedron_edge_cases()):]
        assert 0 < np.count_nonzero(window) < len(window)  # both sides of the clamp
        for b, c_b in zip(vectors, c):
            h, f_lhs = octahedron_witness(b)
            assert h.shape == (4,) and f_lhs.shape == ()
            if c_b == 0.0:
                assert h.tobytes() == np.zeros(4).tobytes()
                assert f_lhs.tobytes() == np.float64(0.0).tobytes()
                continue
            s = np.where(np.abs(b) <= SIGN_TOL, 0.0, np.sign(b))
            sg = s @ _PHASE_POINT_BLOCH.T
            t = -(sg.max() + sg.min()) / 4
            assert h.tobytes() == np.array([2 * t, *s]).tobytes()
            # max|s_i| = 1 wherever C > 0, so F_LHS = 1/2 + t is max|s|/2 + t.
            assert f_lhs == 0.5 + t == np.abs(s).max() / 2 + t

    def test_stacks_match_single_vectors(self):
        vectors = self.clamp_window()[:60]
        h, f_lhs = octahedron_witness(np.array(vectors).reshape(3, 20, 3))
        assert h.shape == (3, 20, 4) and f_lhs.shape == (3, 20)
        for b, h_b, f_b in zip(vectors, h.reshape(-1, 4), f_lhs.reshape(-1)):
            one_h, one_f = octahedron_witness(b)
            assert h_b.tobytes() == one_h.tobytes() and f_b.tobytes() == one_f.tobytes()

    def test_wigner_distance_reports_it(self):
        for b in self.clamp_window():
            res = wigner_distance(dm_from_bloch(b))
            h, f_lhs = octahedron_witness(bloch(dm_from_bloch(b)))
            assert res.witness_terms.tobytes() == h.tobytes()
            assert res.f_lhs.hex() == float(f_lhs).hex()
