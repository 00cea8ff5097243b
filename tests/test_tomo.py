"""Pipeline tests: sampling conventions, post-selection, reconstruction,
bootstrap calibration, and the experiment table."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mss.magic import c_closed_form, wigner_distance
from mss.qcore import H, I2, S, X, Y, Z, fidelity, ket, phase_gate, phase_plus
from mss.tomo import (
    DISTILLATION_THRESHOLD,
    CorrectedCounts,
    CountsTable,
    NoiseModel,
    bootstrap,
    circuit_probabilities,
    exact_corrected_counts,
    experiment_table,
    post_select_and_correct,
    reconstruct,
    resample_expectations,
    sample_run,
    scale_onto_ball,
    stream_rng,
)

from conftest import PROPERTY

ZERO_NOISE = NoiseModel.none()
ACCEPTANCE_NOISE = NoiseModel.symmetric(0.003, 0.015, 0.01)


def reference_bootstrap(x_counts, y_counts, z_counts, n_boot, seed, phi=None):
    """Slow oracle for :func:`bootstrap`: every replica is rebuilt as counts,
    reconstructed as a DensityMatrix and measured with the Wigner-distance LP."""
    rng = stream_rng(seed, f"bootstrap/{phi if phi is not None else 'none'}")
    bases = (x_counts, y_counts, z_counts)
    trials = [int(round(c.n_eff)) for c in bases]
    rates = [c.n0 / c.n_eff for c in bases]
    draws = rng.binomial(n=np.array(trials), p=np.array(rates), size=(n_boot, 3))
    cs, fs = np.empty(n_boot), np.empty(n_boot)
    for i in range(n_boot):
        res = reconstruct(*[CorrectedCounts(c.basis_label, n0=float(k), n1=float(t - k))
                            for c, k, t in zip(bases, draws[i], trials)], phi=phi)
        cs[i] = wigner_distance(res.rho).c_value
        fs[i] = res.fidelity
    sigma_f = float(np.std(fs, ddof=1)) if phi is not None else math.nan
    return float(np.std(cs, ddof=1)), sigma_f


# The embedded-matrix simulator that circuit_probabilities replaced, kept as
# its oracle.
_N_QUBITS = 3
_DIM = 8
_BASIS_ROTATION = {"Z": None, "X": H, "Y": H @ S.conj().T}


def _embed(op: np.ndarray, qubit: int) -> np.ndarray:
    mats = [I2] * _N_QUBITS
    mats[qubit] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


_PAULI_FULL = {q: [_embed(P, q) for P in (X, Y, Z)] for q in range(_N_QUBITS)}


def _cx(control: int, target: int) -> np.ndarray:
    m = np.zeros((_DIM, _DIM))
    for i in range(_DIM):
        j = i ^ (1 << (_N_QUBITS - 1 - target)) if (i >> (_N_QUBITS - 1 - control)) & 1 else i
        m[j, i] = 1.0
    return m


def _pauli_pairs(qa: int, qb: int) -> list[np.ndarray]:
    """The 15 non-identity products Pa @ Pb of {I, X, Y, Z} on qubits qa and qb."""
    singles_a = [np.eye(_DIM)] + _PAULI_FULL[qa]
    singles_b = [np.eye(_DIM)] + _PAULI_FULL[qb]
    return [Pa @ Pb
            for i, Pa in enumerate(singles_a)
            for j, Pb in enumerate(singles_b)
            if (i, j) != (0, 0)]


# The circuit's fixed gates, built once: the two CX gates with the
# depolarizing terms that follow them, and H and the basis rotations on each
# qubit (H is the X-basis rotation).
_CX = {pair: _cx(*pair) for pair in ((0, 1), (0, 2))}
_PAULI_PAIRS = {pair: _pauli_pairs(*pair) for pair in _CX}
_ROTATION_FULL = {(basis, q): _embed(gate, q)
                  for basis, gate in _BASIS_ROTATION.items() if gate is not None
                  for q in range(_N_QUBITS)}


def _conj(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def _depolarize1(rho: np.ndarray, p: float, qubit: int) -> np.ndarray:
    if p == 0.0:
        return rho
    mix = sum(_conj(rho, P) for P in _PAULI_FULL[qubit])
    return (1 - p) * rho + (p / 3.0) * mix


def _depolarize2(rho: np.ndarray, p: float, qa: int, qb: int) -> np.ndarray:
    if p == 0.0:
        return rho
    mix = sum(_conj(rho, P) for P in _PAULI_PAIRS[qa, qb])
    return (1 - p) * rho + (p / 15.0) * mix


def _gate1(rho: np.ndarray, gate_full: np.ndarray, qubit: int, noise: NoiseModel) -> np.ndarray:
    """Apply a gate already embedded on ``qubit``, then its depolarizing noise."""
    return _depolarize1(_conj(rho, gate_full), noise.p1, qubit)


def reference_circuit_probabilities(phi: float, basis: str, noise: NoiseModel,
                          party: str = "charlie", alice_setting: str = "X") -> np.ndarray:
    """The noisy (2,3) circuit as Kronecker-embedded 8x8 gates and Pauli-sum
    depolarizing channels: the oracle for :func:`circuit_probabilities`.

    Party "charlie" rotates q2 into ``basis`` with the middle party measured
    in X; party "bob" rotates q1 into ``basis`` and leaves q2 in Z, which the
    analysis then marginalises.  ``alice_setting`` chooses the dealer's
    steering measurement (X for the standard protocol).
    """
    if basis not in _BASIS_ROTATION:
        raise ValueError("basis must be one of X, Y, Z")
    if party not in ("charlie", "bob"):
        raise ValueError("party must be 'charlie' or 'bob'")
    if alice_setting not in ("X", "Y"):
        raise ValueError("alice_setting must be X or Y")

    rho = ket("000").density().mat
    rho = _gate1(rho, _ROTATION_FULL["X", 0], 0, noise)
    rho = _depolarize2(_conj(rho, _CX[0, 1]), noise.p2, 0, 1)
    rho = _depolarize2(_conj(rho, _CX[0, 2]), noise.p2, 0, 2)
    rho = _gate1(rho, _embed(phase_gate(phi), 0), 0, noise)
    rho = _gate1(rho, _ROTATION_FULL[alice_setting, 0], 0, noise)

    if party == "charlie":
        rho = _gate1(rho, _ROTATION_FULL["X", 1], 1, noise)
        if basis != "Z":
            rho = _gate1(rho, _ROTATION_FULL[basis, 2], 2, noise)
    elif basis != "Z":
        rho = _gate1(rho, _ROTATION_FULL[basis, 1], 1, noise)

    probs = np.clip(np.diag(rho).real, 0.0, None)
    confusion = np.kron(np.kron(noise.readout[0], noise.readout[1]), noise.readout[2])
    probs = confusion @ probs
    return probs / probs.sum()


def pipeline_c(phi, shots, noise, seed, party="charlie"):
    corrected = {
        b: post_select_and_correct(sample_run(phi, b, shots, noise, seed, party=party))
        for b in ("X", "Y", "Z")
    }
    return reconstruct(corrected["X"], corrected["Y"], corrected["Z"],
                       phi=phi if party == "charlie" else None)


class TestNoiseModel:
    def test_symmetric_constructor(self):
        m = NoiseModel.symmetric(0.01, 0.02, 0.03)
        assert m.p1 == 0.01 and m.p2 == 0.02
        np.testing.assert_allclose(m.readout[1], [[0.97, 0.03], [0.03, 0.97]])

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
            NoiseModel.symmetric(0.6, 0.0, 0.0)

    def test_column_sums_enforced(self):
        bad = np.stack([np.array([[0.9, 0.0], [0.0, 1.0]])] * 3)
        with pytest.raises(ValueError, match="sum to 1"):
            NoiseModel(p1=0.0, p2=0.0, readout=bad)


class TestSampling:
    def test_fixed_seed_reproduces_counts(self):
        a = sample_run(np.pi / 4, "X", 2048, ZERO_NOISE, seed=7)
        b = sample_run(np.pi / 4, "X", 2048, ZERO_NOISE, seed=7)
        assert a.counts == b.counts

    def test_distinct_bases_use_distinct_streams(self):
        a = sample_run(np.pi / 4, "X", 2048, ZERO_NOISE, seed=7)
        b = sample_run(np.pi / 4, "Y", 2048, ZERO_NOISE, seed=7)
        assert a.counts != b.counts

    def test_zero_noise_z_basis_is_balanced(self):
        table = sample_run(np.pi / 4, "Z", 2 ** 15, ZERO_NOISE, seed=3)
        cc = post_select_and_correct(table)
        assert abs(cc.expectation) < 4 / math.sqrt(cc.n_eff)

    def test_zero_noise_x_basis_matches_cosine(self):
        table = sample_run(np.pi / 4, "X", 2 ** 15, ZERO_NOISE, seed=5)
        cc = post_select_and_correct(table)
        assert cc.expectation == pytest.approx(math.cos(np.pi / 4), abs=4 / math.sqrt(cc.n_eff))

    def test_counts_table_invariant(self):
        with pytest.raises(ValueError, match="sum to shots"):
            CountsTable(basis_label="X", counts={"000": 5}, shots=6)


class TestCircuitProbabilities:
    def test_ideal_distribution_normalised(self):
        p = circuit_probabilities(0.9, "Y", ZERO_NOISE)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.min() >= 0

    def test_alice_marginal_is_half(self):
        # Dealer's X outcome is 50/50 for every angle and basis; q0 is the
        # most significant bit of the big-endian index, so the first half.
        for basis in ("X", "Y", "Z"):
            p = circuit_probabilities(1.3, basis, ZERO_NOISE)
            assert p[:4].sum() == pytest.approx(0.5, abs=1e-12)

    def test_depolarizing_shrinks_contrast(self):
        clean = circuit_probabilities(np.pi / 4, "X", ZERO_NOISE)
        noisy = circuit_probabilities(np.pi / 4, "X", NoiseModel.symmetric(0.05, 0.05, 0.0))
        assert np.max(np.abs(noisy - 1 / 8)) < np.max(np.abs(clean - 1 / 8))


class TestCircuitProbabilitiesOracle:
    """The density-tensor simulator against the embedded-matrix one it replaced."""

    ANGLES = [0.0, np.pi / 4, np.pi / 2, np.pi] + list(
        np.random.default_rng(4).uniform(0.0, 2 * np.pi, size=15))
    ASYMMETRIC = NoiseModel(p1=0.01, p2=0.03, readout=np.array([
        [[0.97, 0.05], [0.03, 0.95]],
        [[0.90, 0.20], [0.10, 0.80]],
        [[1.00, 0.01], [0.00, 0.99]],
    ]))

    @pytest.mark.parametrize("noise", [
        ZERO_NOISE, ACCEPTANCE_NOISE, NoiseModel.symmetric(0.05, 0.2, 0.1), ASYMMETRIC,
    ], ids=["none", "acceptance", "strong", "asymmetric-readout"])
    def test_matches_reference_on_the_grid(self, noise):
        for phi, party, basis, setting in product(self.ANGLES, ("charlie", "bob"), "XYZ", "XY"):
            got = circuit_probabilities(phi, basis, noise, party, setting)
            want = reference_circuit_probabilities(phi, basis, noise, party, setting)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14,
                                       err_msg=f"{phi} {party} {basis} {setting}")


class TestPostSelection:
    def test_all_zeros_kept(self):
        table = CountsTable(basis_label="Z", counts={"000": 64}, shots=64)
        cc = post_select_and_correct(table)
        assert (cc.n0, cc.n1, cc.n_eff) == (64.0, 0.0, 64.0)

    def test_alice_bit_is_last_character(self):
        # "001" in LSb-0 reads q2=0, q1=0, q0=1: Alice measured 1, dropped.
        table = CountsTable(basis_label="Z", counts={"001": 10, "100": 5}, shots=15)
        cc = post_select_and_correct(table)
        assert cc.n_eff == 5.0
        assert cc.n1 == 5.0  # Charlie's bit is the first character

    def test_bob_flip_applies_in_x_and_y_only(self):
        counts = {"010": 8}  # q2=0, q1=1 (m_B = minus), q0=0
        for basis, expect_bit1 in (("X", True), ("Y", True), ("Z", False)):
            cc = post_select_and_correct(
                CountsTable(basis_label=basis, counts=dict(counts), shots=8))
            assert (cc.n1 == 8.0) is expect_bit1

    def test_bob_party_not_corrected(self):
        counts = {"010": 8}
        cc = post_select_and_correct(
            CountsTable(basis_label="X", counts=dict(counts), shots=8, party="bob"))
        assert cc.n1 == 8.0  # Bob's own bit, no flip

    def test_malformed_bitstring(self):
        table = CountsTable(basis_label="Z", counts={"000": 1}, shots=1)
        object.__setattr__(table, "counts", {"0a0": 1})
        with pytest.raises(ValueError, match="malformed"):
            post_select_and_correct(table)

    def test_correction_recovers_statistics(self):
        # With the flip rule, the two m_B branches pool into one estimate of
        # cos(phi); without it they would cancel.
        phi = np.pi / 3
        table = sample_run(phi, "X", 2 ** 15, ZERO_NOISE, seed=11)
        cc = post_select_and_correct(table)
        assert cc.expectation == pytest.approx(math.cos(phi), abs=4 / math.sqrt(cc.n_eff))


class TestReconstruct:
    def test_exact_expectations_reproduce_state(self):
        phi = np.pi / 8
        res = reconstruct(
            exact_corrected_counts(phi, "X", 2048),
            exact_corrected_counts(phi, "Y", 2048),
            exact_corrected_counts(phi, "Z", 2048),
            phi=phi,
        )
        assert res.c_value == pytest.approx(0.15328148243818825, abs=1e-9)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.n_eff == 2048

    def test_maximally_mixed_counts(self):
        flat = CorrectedCounts(basis_label="X", n0=512, n1=512)
        res = reconstruct(
            flat,
            CorrectedCounts(basis_label="Y", n0=512, n1=512),
            CorrectedCounts(basis_label="Z", n0=512, n1=512),
        )
        assert res.c_value == 0.0
        np.testing.assert_allclose(res.bloch_raw, [0, 0, 0], atol=1e-15)
        assert math.isnan(res.fidelity)

    def test_three_sigma_perturbations_stay_free(self, rng):
        n = 2048
        for _ in range(25):
            b = rng.uniform(-0.066, 0.066, size=3)
            res = reconstruct(
                CorrectedCounts("X", n0=(1 + b[0]) / 2 * n, n1=(1 - b[0]) / 2 * n),
                CorrectedCounts("Y", n0=(1 + b[1]) / 2 * n, n1=(1 - b[1]) / 2 * n),
                CorrectedCounts("Z", n0=(1 + b[2]) / 2 * n, n1=(1 - b[2]) / 2 * n),
            )
            assert res.c_value == 0.0

    def test_physicality_projection(self):
        res = reconstruct(
            CorrectedCounts("X", n0=100, n1=0),
            CorrectedCounts("Y", n0=100, n1=0),
            CorrectedCounts("Z", n0=100, n1=0),
        )
        assert np.linalg.norm(res.bloch_raw) > 1  # raw kept as measured
        assert min(np.linalg.eigvalsh(res.rho.mat)) >= -1e-10

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reconstruct(
                CorrectedCounts("X", n0=0, n1=0),
                CorrectedCounts("Y", n0=1, n1=0),
                CorrectedCounts("Z", n0=1, n1=0),
            )

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
                    .filter(lambda n: n[0] + n[1] >= 1.0), min_size=3, max_size=3))
    def test_physical_state_and_lp_c_for_any_counts(self, pairs):
        res = reconstruct(*[CorrectedCounts(b, n0=n0, n1=n1)
                            for b, (n0, n1) in zip("XYZ", pairs)])
        assert abs(np.trace(res.rho.mat) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(res.rho.mat).min() >= -1e-10
        assert res.c_value == pytest.approx(wigner_distance(res.rho).c_value, abs=1e-9)

    def test_zero_noise_consistency_large_shots(self):
        shots = 2 ** 17
        for phi in (np.pi / 8, np.pi / 4, 2.0):
            res = pipeline_c(phi, shots, ZERO_NOISE, seed=23)
            assert res.c_value == pytest.approx(
                c_closed_form(phi), abs=3 / math.sqrt(res.n_eff))


class TestBootstrap:
    def test_shot_noise_scale(self):
        phi = np.pi / 4
        counts = [exact_corrected_counts(phi, b, 2048) for b in ("X", "Y", "Z")]
        sigma_c, sigma_f = bootstrap(*counts, n_boot=800, seed=1, phi=phi)
        # per-Pauli shot noise is 1/sqrt(2048) ~ 0.022; C inherits a
        # comparable scale through the octahedron facet gradient
        assert 0.005 < sigma_c < 0.03
        assert 0.0 < sigma_f < 0.03

    def test_sigma_decreases_with_sample_size(self):
        phi = np.pi / 4
        sigmas = []
        for n_eff in (512, 2048, 8192):
            counts = [exact_corrected_counts(phi, b, n_eff) for b in ("X", "Y", "Z")]
            sigma_c, _ = bootstrap(*counts, n_boot=600, seed=2, phi=phi)
            sigmas.append(sigma_c)
        assert sigmas[0] > sigmas[1] > sigmas[2]

    def test_deterministic(self):
        phi = 0.6
        counts = [exact_corrected_counts(phi, b, 1024) for b in ("X", "Y", "Z")]
        assert bootstrap(*counts, n_boot=200, seed=9, phi=phi) == \
            bootstrap(*counts, n_boot=200, seed=9, phi=phi)

    def test_minimum_replicas(self):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("X", "Y", "Z")]
        with pytest.raises(ValueError, match="at least 100"):
            bootstrap(*counts, n_boot=50, seed=9, phi=0.6)

    def test_basis_order_enforced(self):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("Y", "X", "Z")]
        with pytest.raises(ValueError, match="expected X counts"):
            bootstrap(*counts, n_boot=100, seed=9, phi=0.6)

    def test_matches_run_to_run_scatter(self):
        # sigma_C from one bootstrap should sit within a factor of two of the
        # spread of C across independent seeded pipelines.
        phi = np.pi / 4
        shots = 4096
        c_values = [pipeline_c(phi, shots, ZERO_NOISE, seed=100 + k).c_value
                    for k in range(100)]
        scatter = float(np.std(c_values, ddof=1))
        corrected = {
            b: post_select_and_correct(sample_run(phi, b, shots, ZERO_NOISE, seed=100))
            for b in ("X", "Y", "Z")
        }
        sigma_c, _ = bootstrap(corrected["X"], corrected["Y"], corrected["Z"],
                               n_boot=800, seed=100, phi=phi)
        assert scatter / 2 < sigma_c < scatter * 2


class TestBootstrapOracle:
    """The closed-form bootstrap against the per-replica LP path it replaced."""

    @pytest.mark.parametrize("phi", [0.3927, 1.0472, 2.3562, 4.0, 0.009, np.pi / 2 - 0.004])
    @pytest.mark.parametrize("noise", [ZERO_NOISE, ACCEPTANCE_NOISE], ids=["none", "acceptance"])
    def test_sampled_counts(self, phi, noise):
        counts = [post_select_and_correct(sample_run(phi, b, 4096, noise, seed=5))
                  for b in ("X", "Y", "Z")]
        got = bootstrap(*counts, n_boot=300, seed=5, phi=phi)
        want = reference_bootstrap(*counts, n_boot=300, seed=5, phi=phi)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phi", [np.pi / 8, np.pi / 4, np.pi, 3 * np.pi / 2 + 0.01])
    def test_exact_counts(self, phi):
        counts = [exact_corrected_counts(phi, b, 2048) for b in ("X", "Y", "Z")]
        for angle in (phi, None):
            got = bootstrap(*counts, n_boot=300, seed=11, phi=angle)
            want = reference_bootstrap(*counts, n_boot=300, seed=11, phi=angle)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestResampling:
    def test_replica_minimum(self):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("X", "Y", "Z")]
        with pytest.raises(ValueError, match="at least 100"):
            resample_expectations(counts, 99, stream_rng(1, "r"))

    def test_empty_sample_rejected(self):
        counts = [CorrectedCounts("X", n0=0.2, n1=0.2)]
        with pytest.raises(ValueError, match="empty"):
            resample_expectations(counts, 100, stream_rng(1, "r"))

    def test_one_array_draw_equals_scalar_draws_in_order(self):
        # Replica by replica, and within a replica in the order of the counts.
        counts = [CorrectedCounts("X", n0=1700, n1=348), CorrectedCounts("Y", n0=900, n1=1171),
                  CorrectedCounts("Z", n0=1020, n1=1011), CorrectedCounts("X", n0=3, n1=2040)]
        got = resample_expectations(counts, 150, stream_rng(3, "order"))
        rng = stream_rng(3, "order")
        want = np.empty_like(got)
        for i in range(150):
            for j, c in enumerate(counts):
                n = int(round(c.n_eff))
                k = int(rng.binomial(n, c.n0 / c.n_eff))
                want[i, j] = CorrectedCounts(c.basis_label, float(k), float(n - k)).expectation
        np.testing.assert_array_equal(got, want)

    def test_scale_onto_ball_matches_reconstruct(self, rng):
        raw = rng.uniform(-1, 1, size=(200, 3))
        got = scale_onto_ball(raw)
        for row, b in zip(raw, got):
            np.testing.assert_allclose(b, row / max(1.0, np.linalg.norm(row)), rtol=0, atol=1e-15)
        assert np.all(np.linalg.norm(got, axis=1) <= 1 + 1e-12)


class TestExperimentTable:
    def test_zero_noise_table(self):
        report = experiment_table([np.pi / 8, np.pi / 4], shots=4096,
                                  noise=ZERO_NOISE, seed=42, n_boot=300)
        for row in report.rows:
            assert abs(row.c_charlie - row.c_theory) < 3 * row.sigma_c + 1e-9
            assert row.c_bob == 0.0
            assert row.fidelity > 0.99
            assert row.exceeds_distillation_threshold
            assert row.n_eff > 1500

    def test_byte_identical_outputs(self):
        kwargs = dict(phis=[np.pi / 8], shots=1024, noise=NoiseModel.symmetric(0.003, 0.015, 0.01),
                      seed=7, n_boot=200)
        a = experiment_table(**kwargs)
        b = experiment_table(**kwargs)
        assert a.to_csv() == b.to_csv()
        assert a.to_json_obj() == b.to_json_obj()
        assert a.plot_data_csv() == b.plot_data_csv()

    def test_noisy_fidelity_band(self):
        report = experiment_table([np.pi / 4], shots=4096,
                                  noise=NoiseModel.symmetric(0.003, 0.015, 0.01),
                                  seed=11, n_boot=200)
        row = report.rows[0]
        assert 0.90 <= row.fidelity <= 0.995
        assert row.fidelity > DISTILLATION_THRESHOLD
        assert row.c_bob == 0.0

    def test_plot_data_has_curve_and_points(self):
        report = experiment_table([np.pi / 4], shots=512, noise=ZERO_NOISE,
                                  seed=3, n_boot=150)
        lines = report.plot_data_csv(n_curve=50).strip().split("\n")
        assert lines[0] == "kind,phi,c_theory,c_measured,sigma_c"
        kinds = [l.split(",")[0] for l in lines[1:]]
        assert kinds.count("curve") == 50
        assert kinds.count("point") == 1


class TestNoiseRobustSecurity:
    def test_bob_stays_free_under_strong_noise(self):
        # 200 seeded noisy runs at the worst-case noise level: the
        # reconstructed middle-party state must stay inside the polytope in
        # at least 99% of them.
        noise = NoiseModel.symmetric(0.05, 0.05, 0.03)
        zero = 0
        runs = 200
        for k in range(runs):
            res = pipeline_c(np.pi / 4, 1024, noise, seed=1000 + k, party="bob")
            if res.c_value == 0.0:
                zero += 1
        assert zero >= 0.99 * runs


def test_stream_rng_labels_are_disjoint():
    a = stream_rng(5, "alpha").integers(0, 2 ** 32, size=4)
    b = stream_rng(5, "beta").integers(0, 2 ** 32, size=4)
    c = stream_rng(5, "alpha").integers(0, 2 ** 32, size=4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)
