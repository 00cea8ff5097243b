"""Pipeline tests: sampling conventions, post-selection, reconstruction,
bootstrap calibration, and the experiment table."""

import math
from dataclasses import fields
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mss import protocol, qcore, tomo
from mss.magic import c_closed_form, octahedron_distance, wigner_distance
from mss.qcore import I2, X, Y, Z, ket, phase_gate, phase_plus
from mss.steering import sampled_certification
from mss.tomo import (
    DISTILLATION_THRESHOLD,
    CorrectedCounts,
    CountsTable,
    NoiseModel,
    bootstrap,
    circuit_probabilities,
    experiment_table,
    post_select_and_correct,
    reconstruct,
    resample_expectations,
    sample_run,
    scale_onto_ball,
    stream_rng,
)

from conftest import PROPERTY, H, S, closed_form_eta, exact_corrected_counts, fidelity

ZERO_NOISE = NoiseModel.none()
ACCEPTANCE_NOISE = NoiseModel.symmetric(0.003, 0.015, 0.01)


def bootstrap_sigmas(x_counts, y_counts, z_counts, n_boot, seed, phi):
    """The recipient's (sigma_C, sigma_F) as the experiment table reads them:
    sample standard deviations over rows 1.. of :func:`bootstrap` on the
    ``bootstrap/{phi}`` stream."""
    b = bootstrap((x_counts, y_counts, z_counts), n_boot,
                  stream_rng(seed, f"bootstrap/{phi}"))[1:, 0]
    return (float(np.std(octahedron_distance(b), ddof=1)),
            float(np.std(tomo._fidelity(b, phi), ddof=1)))


def reference_bootstrap(x_counts, y_counts, z_counts, n_boot, seed, phi):
    """Slow oracle for :func:`bootstrap_sigmas`: scalar draws, basis by basis
    and each basis's replicas in turn; every replica is rebuilt as counts,
    reconstructed as a DensityMatrix, measured with the Wigner-distance LP
    and compared with P(phi)|+> by the matrix fidelity."""
    rng = stream_rng(seed, f"bootstrap/{phi}")
    bases = (x_counts, y_counts, z_counts)
    trials = [int(round(c.n_eff)) for c in bases]
    draws = np.array([[int(rng.binomial(t, c.n0 / c.n_eff)) for _ in range(n_boot)]
                      for c, t in zip(bases, trials)]).T
    cs, fs = np.empty(n_boot), np.empty(n_boot)
    for i in range(n_boot):
        res = reconstruct(*[CorrectedCounts(c.basis_label, n0=float(k), n1=float(t - k))
                            for c, k, t in zip(bases, draws[i], trials)])
        cs[i] = wigner_distance(res.rho).c_value
        fs[i] = fidelity(res.rho, phase_plus(phi))
    return float(np.std(cs, ddof=1)), float(np.std(fs, ddof=1))


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
    return reconstruct(corrected["X"], corrected["Y"], corrected["Z"])


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_readout_rejected(self, value):
        one = np.stack([np.eye(2)] * 3)
        one[1, 0, 1] = value
        for bad in (one, np.full((3, 2, 2), value)):
            with pytest.raises(ValueError, match="readout must be .*finite"):
                NoiseModel(p1=0.0, p2=0.0, readout=bad)


class TestSampling:
    def test_fixed_seed_reproduces_counts(self):
        a = sample_run(np.pi / 4, "X", 2048, ZERO_NOISE, seed=7)
        b = sample_run(np.pi / 4, "X", 2048, ZERO_NOISE, seed=7)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_distinct_bases_use_distinct_streams(self):
        a = sample_run(np.pi / 4, "X", 2048, ZERO_NOISE, seed=7)
        b = sample_run(np.pi / 4, "Y", 2048, ZERO_NOISE, seed=7)
        assert not np.array_equal(a.counts, b.counts)

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
            CountsTable(basis_label="X", counts=[5, 0, 0, 0, 0, 0, 0, 0], shots=6)

    def test_counts_table_sums_exactly(self):
        with pytest.raises(ValueError, match="sum to shots"):  # the int64 sum wraps to 0
            CountsTable(basis_label="X", counts=[2 ** 62] * 4 + [0] * 4, shots=0)
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            CountsTable(basis_label="X", counts=[2 ** 62] * 2 + [0] * 6, shots=2 ** 63)

    @pytest.mark.parametrize("field, value, match", [
        ("party", "Charlie", "party must be"),
        ("basis_label", "x", "basis must be"),
        ("alice_setting", "Z", "alice_setting must be"),
        ("counts", [-1, 9, 0, 0, 0, 0, 0, 0], "nonnegative integers"),
        ("counts", [0.5, 7.5, 0, 0, 0, 0, 0, 0], "nonnegative integers"),
        ("counts", [8, 0, 0, 0], "8 nonnegative"),
    ], ids=["party-case", "basis-case", "dealer-Z", "negative", "fractional", "length"])
    def test_counts_table_rejects(self, field, value, match):
        fields = dict(basis_label="X", counts=[8, 0, 0, 0, 0, 0, 0, 0], shots=8,
                      party="charlie", alice_setting="X")
        with pytest.raises(ValueError, match=match):
            CountsTable(**{**fields, field: value})


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

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ValueError, match="phi must be finite"):
            circuit_probabilities(phi, "X", ACCEPTANCE_NOISE)
        with pytest.raises(ValueError, match="phi must be finite"):
            sample_run(phi, "X", 64, ACCEPTANCE_NOISE, seed=1)

    def test_depolarizing_shrinks_contrast(self):
        clean = circuit_probabilities(np.pi / 4, "X", ZERO_NOISE)
        noisy = circuit_probabilities(np.pi / 4, "X", NoiseModel.symmetric(0.05, 0.05, 0.0))
        assert np.max(np.abs(noisy - 1 / 8)) < np.max(np.abs(clean - 1 / 8))


class TestCircuitProbabilitiesOracle:
    """The CX-layer cut with per-qubit POVMs against the embedded-matrix simulator."""

    ANGLES = [0.0, -0.0, np.pi / 4, np.pi / 2, np.pi, 1e3, -1e3] + list(
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


def exact_expectation(probs: np.ndarray, party: str, basis: str, keep_bit: int) -> float:
    """One party's expectation from exact probabilities, kept where the
    dealer read ``keep_bit`` and, for the recipient's X and Y bases, flipped
    where the middle party read minus."""
    kept = probs.reshape(2, 2, 2)[keep_bit]  # [q1, q2]
    if party == "bob":
        n = kept.sum(axis=1)
    elif basis == "Z":
        n = kept.sum(axis=0)
    else:
        n = kept[0] + kept[1, ::-1]
    return (n[0] - n[1]) / (n[0] + n[1])


class TestClosedFormEta:
    """Symmetric noise shrinks the delivered Bloch vector by eta and leaves
    the middle party with nothing: a closed form that shares no code with
    any simulator."""

    @PROPERTY
    @given(st.floats(-7.0, 7.0), st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_post_selected_expectations(self, phi, p1, p2, readout_error):
        noise = NoiseModel.symmetric(p1, p2, readout_error)
        eta = closed_form_eta(p1, p2, readout_error)
        delivered = {("X", 0): eta * np.array([math.cos(phi), math.sin(phi), 0.0]),
                     ("Y", 1): eta * np.array([-math.sin(phi), math.cos(phi), 0.0])}
        for (setting, keep_bit), want in delivered.items():
            got = [exact_expectation(circuit_probabilities(phi, b, noise, "charlie", setting),
                                     "charlie", b, keep_bit) for b in "XYZ"]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        for setting, keep_bit, b in product("XY", (0, 1), "XYZ"):
            got = exact_expectation(circuit_probabilities(phi, b, noise, "bob", setting),
                                    "bob", b, keep_bit)
            assert abs(got) <= 1e-14, (setting, keep_bit, b)


class TestEntangledState:
    """The noisy GHZ state's Pauli coefficients are the GHZ stabilizer group,
    each element damped by the channels that act on it."""

    @pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (0.003, 0.015), (0.2, 0.4), (0.5, 0.0),
                                        (0.0, 0.5), (0.5, 0.5)])
    def test_terms_are_the_damped_stabilizer_group(self, p1, p2):
        d1, d2 = 1 - 4 * p1 / 3, 1 - 16 * p2 / 15
        want = {"III": 1.0, "ZIZ": d2, "ZZI": d2 ** 2, "IZZ": d2 ** 2, "XXX": d1 * d2 ** 2,
                "XYY": -d1 * d2 ** 2, "YXY": -d1 * d2 ** 2, "YYX": -d1 * d2 ** 2}
        r = tomo._entangled_state(p1, p2)
        got = {"".join("IXYZ"[i] for i in index): r[tuple(index)] for index in np.argwhere(r)}
        assert got.keys() == want.keys()
        for term, value in want.items():
            assert got[term] == pytest.approx(value, rel=0, abs=1e-15), term
        # No weight-1 term: each single party holds I/2 at any depolarizing strength.
        for q in range(3):
            assert not np.any(np.moveaxis(r, q, 0)[1:, 0, 0])

    def test_noiseless_state_is_the_protocol_ghz_tensor(self):
        # One state format, bit for bit: the noisy state is the GHZ tensor damped.
        assert tomo._entangled_state(0.0, 0.0).tobytes() == protocol._ghz(3).tobytes()


def _hits_and_misses():
    return tomo._tables.cache_info()[:2]


def _tables_of(noise):
    return tomo._tables(noise.p1, noise.p2, noise.readout.tobytes())


class TestCachedTables:
    """Past the CX layer every gate acts on one qubit: one cached builder
    makes every table of a noise model, the dealer's per setting and the
    entangled state contracted with q1's and q2's per party and basis."""

    def test_cached_tables_are_read_only(self):
        tables = _tables_of(ACCEPTANCE_NOISE)
        keys = ["X", "Y"] + list(product(("charlie", "bob"), "XYZ"))
        assert sorted(tables, key=str) == sorted(keys, key=str)
        for key in keys:
            t = tables[key]
            assert t.shape == ((2, 4) if key in ("X", "Y") else (4, 4)) and not t.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t[0, 0] = 0.0
        with pytest.raises(TypeError):
            tables["X"] = np.zeros((2, 4))

    def test_equal_twin_hits_and_other_readout_misses(self):
        twin = NoiseModel.symmetric(0.003, 0.015, 0.01)  # equal to ACCEPTANCE_NOISE, not the same
        tomo._tables.cache_clear()
        circuit_probabilities(0.3, "X", ACCEPTANCE_NOISE)
        circuit_probabilities(0.7, "X", twin)
        assert _hits_and_misses() == (1, 1)
        circuit_probabilities(0.7, "X", NoiseModel.symmetric(0.003, 0.015, 0.02))
        assert _hits_and_misses() == (1, 2)

    def test_any_call_order_gives_the_uncached_bytes(self):
        twin = NoiseModel.symmetric(0.003, 0.015, 0.01)
        cases = list(product((0.0, -0.0, 0.7, np.pi / 4), (ACCEPTANCE_NOISE, twin, ZERO_NOISE),
                             "XY", ("charlie", "bob"), "XYZ"))
        fresh = []
        for phi, noise, setting, party, basis in cases:
            tomo._tables.cache_clear()
            fresh.append(circuit_probabilities(phi, basis, noise, party, setting).tobytes())
        tomo._tables.cache_clear()
        order = np.random.default_rng(13).permutation(len(cases))
        for i in order:
            phi, noise, setting, party, basis = cases[i]
            assert circuit_probabilities(phi, basis, noise, party, setting).tobytes() == fresh[i]
        assert _hits_and_misses()[0] > 0

    def test_hits_per_experiment_angle_and_certification(self):
        tomo._tables.cache_clear()
        experiment_table([0.3], shots=64, noise=ACCEPTANCE_NOISE, seed=1, n_boot=100)
        assert _hits_and_misses() == (5, 1)  # six circuits, one noise model
        experiment_table([1.1], shots=64, noise=ACCEPTANCE_NOISE, seed=1, n_boot=100)
        assert _hits_and_misses() == (11, 1)  # a new angle only hits

        tomo._tables.cache_clear()
        sampled_certification(0.3, shots=64, noise=ACCEPTANCE_NOISE, seed=1, n_boot=100)
        assert _hits_and_misses() == (5, 1)  # two settings, three bases

    @pytest.mark.parametrize("noise", [
        ZERO_NOISE, ACCEPTANCE_NOISE, TestCircuitProbabilitiesOracle.ASYMMETRIC,
    ], ids=["none", "acceptance", "asymmetric-readout"])
    def test_each_qubit_table_sums_to_the_identity(self, noise):
        identity = np.array([2.0, 0.0, 0.0, 0.0])  # tr(P) for P in (I, X, Y, Z)
        # (pauli, gates) of every table the engine builds: the dealer's, the
        # middle party's X, a rotated qubit's basis and an unrotated Z.
        inputs = [("X", 2), ("Y", 2), ("X", 1), ("Y", 1), ("Z", 0)]
        for q, (pauli, gates) in product(range(3), inputs):
            table = tomo._povm_table(noise.readout[q], pauli, gates, noise.p1)
            np.testing.assert_allclose(table.sum(axis=0), identity, rtol=0, atol=1e-15)
        tables = _tables_of(noise)
        for setting in "XY":
            np.testing.assert_allclose(tables[setting].sum(axis=0), identity, rtol=0, atol=1e-15)
        for party, basis in product(("charlie", "bob"), "XYZ"):
            # summed over q1 and q2's outcomes: the dealer's marginal I/2 as its c in sum_P c_P P
            np.testing.assert_allclose(tables[party, basis].sum(axis=1), identity / 4,
                                       rtol=0, atol=1e-15)

    def test_tables_build_no_gate(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the tables were built from a gate's transfer matrix")
        monkeypatch.setattr(qcore, "ptm", refuse)
        monkeypatch.setattr(tomo, "ptm", refuse, raising=False)  # a name tomo may have imported
        tomo._tables.cache_clear()
        for noise in (ZERO_NOISE, ACCEPTANCE_NOISE):
            assert len(_tables_of(noise)) == 8
        assert _hits_and_misses() == (0, 2)


def big_endian_table(outcomes, basis, party="charlie"):
    """A CountsTable of ``outcomes``, {(q0, q1, q2): count}, each count at
    index 4*q0 + 2*q1 + q2."""
    counts = [0] * 8
    for (q0, q1, q2), n in outcomes.items():
        counts[4 * q0 + 2 * q1 + q2] = n
    return CountsTable(basis_label=basis, counts=counts, shots=sum(counts), party=party)


class TestPostSelection:
    def test_all_zeros_kept(self):
        cc = post_select_and_correct(big_endian_table({(0, 0, 0): 64}, "Z"))
        assert (cc.n0, cc.n1, cc.n_eff) == (64.0, 0.0, 64.0)

    def test_alice_bit_is_last_character(self):
        # Alice is q0: the most significant index bit, the last LSb-0 character.
        table = big_endian_table({(1, 0, 0): 10, (0, 0, 1): 5}, "Z")
        cc = post_select_and_correct(table)
        assert cc.n_eff == 5.0  # Alice measured 1 in the first ten shots: dropped
        assert cc.n1 == 5.0  # Charlie's bit is q2
        cc = post_select_and_correct(table, alice_keep_bit=1)
        assert (cc.n0, cc.n1) == (10.0, 0.0)

    def test_bob_flip_applies_in_x_and_y_only(self):
        outcomes = {(0, 1, 0): 8}  # q0=0, q1=1 (m_B = minus), q2=0
        for basis, expect_bit1 in (("X", True), ("Y", True), ("Z", False)):
            cc = post_select_and_correct(big_endian_table(outcomes, basis))
            assert (cc.n1 == 8.0) is expect_bit1

    def test_counts_stay_exact_above_2_53(self):
        big = 2 ** 62 + 1  # the nearest floats are 2**62 and 2**62 + 1024
        cc = post_select_and_correct(big_endian_table(
            {(0, 0, 0): big, (0, 1, 1): 3, (0, 0, 1): 2 ** 61 + 7, (1, 0, 0): 5}, "X"))
        assert (cc.n0, cc.n1, cc.n_eff) == (big + 3, 2 ** 61 + 7, big + 2 ** 61 + 10)
        assert all(type(v) is int for v in (cc.n0, cc.n1, cc.n_eff))
        z = post_select_and_correct(big_endian_table({(0, 0, 0): big, (0, 1, 1): 1}, "Z"))
        y = CorrectedCounts(basis_label="Y", n0=cc.n0, n1=cc.n1)
        assert reconstruct(cc, y, z).n_eff == big + 1

    def test_bob_party_not_corrected(self):
        cc = post_select_and_correct(big_endian_table({(0, 1, 0): 8}, "X", party="bob"))
        assert cc.n1 == 8.0  # Bob's own bit, no flip

    @PROPERTY
    @given(st.lists(st.integers(0, 10 ** 6), min_size=8, max_size=8),
           st.sampled_from(["X", "Y", "Z"]), st.sampled_from(["charlie", "bob"]),
           st.sampled_from([0, 1]))
    def test_matches_shot_by_shot_loop(self, counts, basis, party, keep_bit):
        n = [0, 0]
        for index, count in enumerate(counts):
            q0, q1, q2 = index >> 2, (index >> 1) & 1, index & 1
            if q0 == keep_bit:
                n[q1 if party == "bob" else q2 ^ (q1 if basis != "Z" else 0)] += count
        table = CountsTable(basis_label=basis, counts=counts, shots=sum(counts), party=party)
        cc = post_select_and_correct(table, alice_keep_bit=keep_bit)
        assert (cc.n0, cc.n1) == (n[0], n[1])

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
        )
        assert res.c_value == pytest.approx(0.15328148243818825, abs=1e-9)
        assert fidelity(res.rho, phase_plus(phi)) == pytest.approx(1.0, abs=1e-12)
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

    def test_rho_is_built_on_first_read(self, monkeypatch):
        counts = [CorrectedCounts(b, n0=n0, n1=100 - n0) for b, n0 in zip("XYZ", (90, 30, 55))]

        def refuse(*args, **kwargs):
            raise AssertionError("reconstruct built a density matrix")

        monkeypatch.setattr(tomo, "dm_from_bloch", refuse)
        monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", refuse)
        res = reconstruct(*counts)
        monkeypatch.undo()
        assert "rho" not in {f.name for f in fields(res)}
        assert res.rho.mat.tobytes() == qcore.dm_from_bloch(res.bloch).mat.tobytes()
        assert res.rho is res.rho

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reconstruct(
                CorrectedCounts("X", n0=0, n1=0),
                CorrectedCounts("Y", n0=1, n1=0),
                CorrectedCounts("Z", n0=1, n1=0),
            )

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
                    .filter(lambda n: n[0] + n[1] >= 1.0), min_size=3, max_size=3),
           st.floats(-7.0, 7.0))
    def test_physical_state_and_lp_c_for_any_counts(self, pairs, phi):
        res = reconstruct(*[CorrectedCounts(b, n0=n0, n1=n1)
                            for b, (n0, n1) in zip("XYZ", pairs)])
        assert abs(np.trace(res.rho.mat) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(res.rho.mat).min() >= -1e-10
        assert res.c_value == pytest.approx(wigner_distance(res.rho).c_value, abs=1e-9)
        assert tomo._fidelity(res.bloch, phi) == pytest.approx(fidelity(res.rho, phase_plus(phi)),
                                                               rel=0, abs=1e-15)

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
        sigma_c, sigma_f = bootstrap_sigmas(*counts, n_boot=800, seed=1, phi=phi)
        # per-Pauli shot noise is 1/sqrt(2048) ~ 0.022; C inherits a
        # comparable scale through the octahedron facet gradient
        assert 0.005 < sigma_c < 0.03
        assert 0.0 < sigma_f < 0.03

    def test_sigma_decreases_with_sample_size(self):
        phi = np.pi / 4
        sigmas = []
        for n_eff in (512, 2048, 8192):
            counts = [exact_corrected_counts(phi, b, n_eff) for b in ("X", "Y", "Z")]
            sigma_c, _ = bootstrap_sigmas(*counts, n_boot=600, seed=2, phi=phi)
            sigmas.append(sigma_c)
        assert sigmas[0] > sigmas[1] > sigmas[2]

    def test_deterministic(self):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("X", "Y", "Z")]
        assert (bootstrap(counts, 200, stream_rng(9, "b")).tobytes()
                == bootstrap(counts, 200, stream_rng(9, "b")).tobytes())

    def test_minimum_replicas(self):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("X", "Y", "Z")]
        with pytest.raises(ValueError, match="at least 100"):
            bootstrap(counts, 50, stream_rng(9, "b"))

    def test_basis_order_enforced(self):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("Y", "X", "Z")]
        with pytest.raises(ValueError, match="expected X counts"):
            bootstrap(counts, 100, stream_rng(9, "b"))
        counts = [exact_corrected_counts(0.6, b, 1024) for b in ("X", "Y", "Z", "X", "Z", "Y")]
        with pytest.raises(ValueError, match="expected Y counts, got Z"):
            bootstrap(counts, 100, stream_rng(9, "b"))

    @pytest.mark.parametrize("size", [0, 2, 4])
    def test_whole_triples_required(self, size):
        counts = [exact_corrected_counts(0.6, b, 1024) for b in "XYZXYZ"[:size]]
        with pytest.raises(ValueError, match=f"expected X, Y, Z triples, got {size} counts"):
            bootstrap(counts, 100, stream_rng(9, "b"))

    def test_empty_sample_rejected(self):
        counts = [CorrectedCounts(b, n0=n, n1=0) for b, n in zip("XYZXYZ", (9, 9, 9, 9, 0, 9))]
        with pytest.raises(ValueError, match="empty"):
            bootstrap(counts, 100, stream_rng(9, "b"))

    @pytest.mark.parametrize("triples", [1, 2])
    def test_row_zero_is_the_reconstruction(self, triples):
        # The point estimate is replica zero, bit for bit; rows 1.. are the
        # replicas of resample_expectations on the same stream.
        counts = [post_select_and_correct(sample_run(0.7, b, 1024, ACCEPTANCE_NOISE, seed=3,
                                                     alice_setting=setting), keep)
                  for setting, keep in (("X", 0), ("Y", 1))[:triples] for b in ("X", "Y", "Z")]
        got = bootstrap(counts, 150, stream_rng(3, "rows"))
        assert got.shape == (151, triples, 3)
        for k in range(triples):
            assert got[0, k].tobytes() == reconstruct(*counts[3 * k:3 * k + 3]).bloch.tobytes()
        replicas = resample_expectations(counts, 150, stream_rng(3, "rows"))
        want = scale_onto_ball(replicas.reshape(150, triples, 3))
        assert got[1:].tobytes() == want.tobytes()

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
        sigma_c, _ = bootstrap_sigmas(corrected["X"], corrected["Y"], corrected["Z"],
                                      n_boot=800, seed=100, phi=phi)
        assert scatter / 2 < sigma_c < scatter * 2


class TestBootstrapOracle:
    """The closed-form bootstrap against the per-replica LP path it replaced."""

    @pytest.mark.parametrize("phi", [0.3927, 1.0472, 2.3562, 4.0, 0.009, np.pi / 2 - 0.004])
    @pytest.mark.parametrize("noise", [ZERO_NOISE, ACCEPTANCE_NOISE], ids=["none", "acceptance"])
    def test_sampled_counts(self, phi, noise):
        counts = [post_select_and_correct(sample_run(phi, b, 4096, noise, seed=5))
                  for b in ("X", "Y", "Z")]
        got = bootstrap_sigmas(*counts, n_boot=300, seed=5, phi=phi)
        want = reference_bootstrap(*counts, n_boot=300, seed=5, phi=phi)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phi", [np.pi / 8, np.pi / 4, np.pi, 3 * np.pi / 2 + 0.01])
    def test_exact_counts(self, phi):
        counts = [exact_corrected_counts(phi, b, 2048) for b in ("X", "Y", "Z")]
        got = bootstrap_sigmas(*counts, n_boot=300, seed=11, phi=phi)
        want = reference_bootstrap(*counts, n_boot=300, seed=11, phi=phi)
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
        # Count by count in the order of the counts, and each count's replicas in turn.
        counts = [CorrectedCounts("X", n0=1700, n1=348), CorrectedCounts("Y", n0=900, n1=1171),
                  CorrectedCounts("Z", n0=1020, n1=1011), CorrectedCounts("X", n0=3, n1=2040)]
        got = resample_expectations(counts, 150, stream_rng(3, "order"))
        rng = stream_rng(3, "order")
        want = np.empty_like(got)
        for j, c in enumerate(counts):
            for i in range(150):
                n = int(round(c.n_eff))
                k = int(rng.binomial(n, c.n0 / c.n_eff))
                want[i, j] = CorrectedCounts(c.basis_label, float(k), float(n - k)).expectation
        np.testing.assert_array_equal(got, want)

    def test_scale_onto_ball_matches_the_norm_formula(self, rng):
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

    def test_raw_counts_are_read_only(self):
        report = experiment_table([np.pi / 8], shots=64, noise=ACCEPTANCE_NOISE, seed=7,
                                  n_boot=100)
        before = report.to_json_obj()
        tables = report.raw_counts[0]
        assert [(t.party, t.basis_label) for t in tables] == [
            (party, basis) for party in ("charlie", "bob") for basis in ("X", "Y", "Z")]
        with pytest.raises(TypeError):
            tables[0] = tables[1]
        with pytest.raises(ValueError, match="read-only"):
            tables[0].counts[0] = 10 ** 6
        assert report.to_json_obj() == before

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
        lines = report.plot_data_csv().strip().split("\n")
        assert lines[0] == "kind,phi,c_theory,c_measured,sigma_c"
        kinds = [l.split(",")[0] for l in lines[1:]]
        assert kinds.count("curve") == 200
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


def test_stream_rng_takes_seeds_as_64_bit_keys_without_wrapping():
    stream_rng(2 ** 64 - 1, "alpha")
    for seed in (-1, 2 ** 64):  # would alias 2**64 - 1 and 0 if reduced mod 2**64
        with pytest.raises(OverflowError):
            stream_rng(seed, "alpha")
