"""Steering assemblage and 1SDI certification tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given

import mss.magic
import mss.qcore
from mss import steering, tomo
from mss.magic import c_closed_form, octahedron_distance, wigner_distance
from mss.protocol import _broadcast
from mss.qcore import I2, X, Y, Z, bloch, dm_from_bloch, ket, phase_ptm, ptm
from mss.stabilizer import enumerate_stabilizer_states
from mss.steering import (
    Assemblage,
    _certification,
    _functional_value,
    build_assemblage,
    certify_exact,
    evaluate_functional,
    random_lhs_assemblage,
    sampled_certification,
    solve_witness,
    z_setting_probe,
)

from conftest import (PROPERTY, H, S, bloch_vectors, closed_form_eta, exact_corrected_counts,
                      reference_build_assemblage)

SQRT2 = np.sqrt(2.0)
ACCEPTANCE_NOISE = tomo.NoiseModel.symmetric(0.003, 0.015, 0.01)
# |b|_1 = 1 + 1e-10: outside the octahedron, but C = 5e-11 is below CLAMP_TOL.
CLAMPED_OUTSIDE = np.array([0.5, 0.5 + 1e-10, 0.0])


def lhs_bound_check(witness) -> float:
    """max over the six stabilizer states of tr(H* sigma); equals f_lhs."""
    states = enumerate_stabilizer_states(1).states
    return max(float(np.trace(witness.dual_witness @ s.density().mat).real) for s in states)


def matrix_functional(sigma_x, sigma_y, h):
    """F = (tr(H sigma_x) + tr(S H S^dagger sigma_y))/2 in 2x2 matrices."""
    h_y = S @ h @ S.conj().T
    return 0.5 * (float(np.trace(h @ sigma_x.mat).real) + float(np.trace(h_y @ sigma_y.mat).real))


def lp_gap(b_x, b_y):
    """Gap of wigner_distance's witness matrix at b_x, with the Y term
    S-conjugated, in 2x2 matrices."""
    sigma_x, sigma_y = dm_from_bloch(b_x), dm_from_bloch(b_y)
    w = wigner_distance(sigma_x)
    return matrix_functional(sigma_x, sigma_y, w.dual_witness) - w.f_lhs


def certification_gap(b_x, b_y):
    """F - F_LHS of :func:`_certification`."""
    f, f_lhs = _certification(b_x, b_y)
    return f - f_lhs


def pauli_terms(h):
    """(tr H, (tr H X, tr H Y, tr H Z)) of a 2x2 witness matrix."""
    terms = [np.trace(h @ p).real for p in (I2, X, Y, Z)]
    return terms[0], np.array(terms[1:])


def lp_witness_paulis(b):
    """(tr H* X, tr H* Y, tr H* Z) of wigner_distance's witness at Bloch vector b."""
    return pauli_terms(wigner_distance(dm_from_bloch(b)).dual_witness)[1]


def s_conjugate(b):
    """Bloch vector of S rho S^dagger."""
    return np.array([-b[1], b[0], b[2]])


def reference_sampled_certification(phi, shots, noise, seed, n_boot):
    """Slow oracle for :func:`sampled_certification`: scalar draws, count by
    count and each count's replicas in turn, then one reconstruction and one
    wigner_distance per replica and for the point estimate."""
    base = {}
    for setting, keep_bit in (("X", 0), ("Y", 1)):
        base[setting] = {
            basis: tomo.post_select_and_correct(
                tomo.sample_run(phi, basis, shots, noise, seed,
                                party="charlie", alice_setting=setting),
                alice_keep_bit=keep_bit)
            for basis in ("X", "Y", "Z")}

    def evaluate(counts):
        sig = {s: tomo.reconstruct(counts[s]["X"], counts[s]["Y"], counts[s]["Z"])
               for s in ("X", "Y")}
        w = wigner_distance(sig["X"].rho)
        f = _functional_value(sig["X"].bloch, sig["Y"].bloch, *pauli_terms(w.dual_witness))
        return float(f), w, sig

    f_value, witness, recon = evaluate(base)
    rng = tomo.stream_rng(seed, f"certify-boot/{phi:.17g}")
    draws = {}
    for s, per in base.items():
        for b, cc in per.items():
            n = int(round(cc.n_eff))
            draws[s, b] = [int(rng.binomial(n, cc.n0 / cc.n_eff)) for _ in range(n_boot)]

    def resample(s, b, i):
        n, k = int(round(base[s][b].n_eff)), draws[s, b][i]
        return tomo.CorrectedCounts(b, n0=float(k), n1=float(n - k))

    gaps = np.empty(n_boot)
    for i in range(n_boot):
        f, w, _ = evaluate({s: {b: resample(s, b, i) for b in per} for s, per in base.items()})
        gaps[i] = f - w.f_lhs
    return (f_value, witness.f_lhs, float(np.std(gaps, ddof=1)),
            min(recon["X"].n_eff, recon["Y"].n_eff))


class TestBuildAssemblage:
    def test_x_member_is_phase_state(self):
        a = build_assemblage(np.pi / 4)
        p, sigma = a.members[("X", 0)]
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(bloch(sigma), [SQRT2 / 2, SQRT2 / 2, 0], atol=1e-12)

    def test_y_member_bloch_vector(self):
        for phi in (np.pi / 4, 0.3, 2.2):
            a = build_assemblage(phi)
            p, sigma = a.members[("Y", 0)]
            assert p == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(
                bloch(sigma), [-np.sin(phi), np.cos(phi), 0], atol=1e-12)

    def test_members_share_the_secret_magic(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=8):
            a = build_assemblage(phi)
            cx = wigner_distance(a.state("X", 0)).c_value
            cy = wigner_distance(a.state("Y", 0)).c_value
            assert cx == pytest.approx(c_closed_form(phi), abs=1e-7)
            assert cy == pytest.approx(c_closed_form(phi), abs=1e-7)

    def test_no_signalling(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=10):
            a = build_assemblage(phi)
            np.testing.assert_allclose(
                a.average_state("X"), a.average_state("Y"), atol=1e-10)
            np.testing.assert_allclose(a.average_state("X"), np.eye(2) / 2, atol=1e-10)

    def test_missing_setting_rejected(self):
        a = build_assemblage(0.4)
        partial = {k: v for k, v in a.members.items() if k[0] == "X"}
        with pytest.raises(ValueError, match="missing"):
            Assemblage(members=partial)


class TestZProbe:
    @pytest.mark.parametrize("phi", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_phi_rejected(self, phi):
        for call in (build_assemblage, z_setting_probe, certify_exact):
            with pytest.raises(ValueError, match="phi must be finite"):
                call(phi)

    def test_outcome_probabilities_are_one_half(self, rng):
        for phi in [*rng.uniform(-7.0, 7.0, size=50), np.pi / 4, np.pi / 2]:
            states = steering._conditional_states(steering._dealt(phase_ptm(phi), 3), "Z")
            assert [p for p, _ in states] == [0.5, 0.5], f"phi={phi!r}"

    def test_always_ground_state(self, rng):
        for phi in list(rng.uniform(0, 2 * np.pi, size=20)) + [np.pi / 4]:
            sigma = z_setting_probe(phi)
            np.testing.assert_allclose(sigma.mat, ket("0").density().mat, atol=1e-12)
            assert wigner_distance(sigma).c_value == 0.0


class TestStepwiseOracle:
    """The assemblage and the Z probe are read off the protocol's Pauli
    tensor; the oracle projects the middle party, then the dealer, out of the
    statevector."""

    def phis(self, rng):
        return [*rng.uniform(0, 2 * np.pi, size=40), 0.0, np.pi / 2, np.pi, 3 * np.pi / 2]

    def test_assemblage_and_z_probe(self, rng):
        for phi in self.phis(rng):
            want = reference_build_assemblage(phi)
            got = build_assemblage(phi)
            for key, (p, sigma) in got.members.items():
                assert abs(p - want[key][0]) <= 1e-12
                assert np.max(np.abs(sigma.mat - want[key][1].mat)) <= 1e-12
            assert np.max(np.abs(z_setting_probe(phi).mat - want[("Z", 0)][1].mat)) <= 1e-12

    def test_matches_the_setting_rotation_route(self, rng):
        # The route before the dealer's Pauli readout: rotate the dealer by
        # R_x (the identity, S^dagger or H), then read it out in X.
        def rotated(phi, gate):
            r = steering._dealt(ptm(gate) @ phase_ptm(phi), 3)
            states = []
            for middle in (_broadcast(r, 0), _broadcast(r, 1)):
                plus = _broadcast(middle, 0)
                states.append((float(2 * plus[0]), dm_from_bloch(plus[1:] / plus[0])))
            return states

        for phi in [*rng.uniform(-7.0, 7.0, size=200), *(k * np.pi / 4 for k in range(-8, 9))]:
            got = build_assemblage(phi)
            for setting, gate in (("X", I2), ("Y", S.conj().T)):
                want = rotated(phi, gate)
                for outcome in (0, 1):
                    p, sigma = got.members[(setting, outcome)]
                    want_p, want_sigma = want[outcome ^ steering._OUTCOME_0_BIT[setting]]
                    assert p.hex() == want_p.hex(), f"phi={phi!r}"
                    assert sigma.mat.tobytes() == want_sigma.mat.tobytes(), f"phi={phi!r}"
            want_z = rotated(phi, H)[0][1].mat
            assert np.max(np.abs(z_setting_probe(phi).mat - want_z)) <= 1e-15

    def test_branch_independence_is_checked(self, monkeypatch):
        def corrupted(transfer, n):
            r = dealt(transfer, n).copy()
            # The recipient's X term next to the middle party's identity: after
            # the Z correction it moves the "-" branch against the "+" branch.
            r[0, 0, 1] += 1e-6
            return r

        dealt = steering._dealt
        monkeypatch.setattr(steering, "_dealt", corrupted)
        for call in (build_assemblage, z_setting_probe, certify_exact):
            with pytest.raises(RuntimeError, match="branch independence"):
                call(0.3)


class TestCertification:
    def test_t_angle_gap(self):
        rec = certify_exact(np.pi / 4)
        assert rec.gap == pytest.approx(0.20710678118654752, abs=1e-7)
        assert rec.certified_c == pytest.approx(rec.gap, abs=1e-12)

    def test_pi_eighth_gap(self):
        rec = certify_exact(np.pi / 8)
        assert rec.gap == pytest.approx(0.15328148243818825, abs=1e-7)

    def test_stabilizer_secret_certifies_nothing(self):
        rec = certify_exact(np.pi / 2)
        assert abs(rec.gap) <= 1e-9
        assert rec.certified_c == 0.0

    def test_gap_identity_across_the_circle(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=50):
            rec = certify_exact(phi)
            assert rec.gap == pytest.approx(c_closed_form(phi), abs=1e-7), f"phi={phi}"

    def test_gap_is_the_closed_form_to_the_bit(self):
        # P(phi) enters in closed form and the dealer reads a Pauli term: no round-off.
        for phi in np.random.default_rng(29).uniform(-7.0, 7.0, size=2000).tolist():
            assert certify_exact(phi).gap.hex() == c_closed_form(phi).hex(), f"phi={phi!r}"

    def test_matches_the_lp_route_byte_for_byte(self):
        # Multiples of pi/4, angles within 2e-10 of a stabilizer secret (C near
        # the 1e-10 clamp), and negative and random angles.
        phis = ([k * np.pi / 4 for k in range(-8, 9)]
                + [2e-10, -2e-10, np.pi / 2 + 2e-10, np.pi / 2 - 2e-10, 1e-9, -1e-9]
                + list(np.random.default_rng(23).uniform(-7.0, 7.0, size=177)))
        for phi in phis:
            a = build_assemblage(phi)
            want = evaluate_functional(a, solve_witness(a))
            got = certify_exact(phi)
            assert ((got.f_value.hex(), got.f_lhs.hex())
                    == (want.f_value.hex(), want.f_lhs.hex())), f"phi={phi!r}"

    def test_functional_reads_the_witness_terms(self):
        # Only witness_terms enter: a witness whose matrix alone is corrupted
        # gives the same record.
        for phi in (0.3, np.pi / 4, 2.0, -1.1):
            a = build_assemblage(phi)
            w = solve_witness(a)
            corrupted = dataclasses.replace(w, dual_witness=1.001 * w.dual_witness + 0.5)
            assert evaluate_functional(a, corrupted) == evaluate_functional(a, w)

    def test_lp_route_matches_on_the_clamp_sweep(self):
        # 400 random angles, the multiples of pi/4 in [-2pi, 2pi], and the
        # multiples of pi/2 there offset by +-1e-11, +-2e-10 and +-3e-10.
        phis = (list(np.random.default_rng(25).uniform(-7.0, 7.0, size=400))
                + [k * np.pi / 4 for k in range(-8, 9)]
                + [k * np.pi / 2 + d for k in range(-4, 5)
                   for d in (1e-11, -1e-11, 2e-10, -2e-10, 3e-10, -3e-10)])
        assert len(phis) == 471
        for phi in phis:
            a = build_assemblage(phi)
            want = evaluate_functional(a, solve_witness(a))
            got = certify_exact(phi)
            assert (got.f_value, got.f_lhs) == (want.f_value, want.f_lhs), f"phi={phi!r}"

    def test_lp_reads_the_clamp_as_the_closed_form_does(self):
        # At 3pi/2 + 2e-10 the 1-qubit LP's objective is 1.0000000827e-10,
        # over the clamp; C is 0.99999992e-10, and the closed form reads 0.
        sigma = build_assemblage(3 * np.pi / 2 + 2e-10).state("X", 0)
        assert octahedron_distance(bloch(sigma)) == 0.0
        res = wigner_distance(sigma)
        assert (res.c_value, res.f_lhs) == (0.0, 0.0) and not res.dual_witness.any()

    def test_builds_no_density_matrix(self, monkeypatch):
        phis = [0.3, np.pi / 4, 2.0, -1.1]
        want = [certify_exact(phi) for phi in phis]

        def refuse(*args, **kwargs):
            raise AssertionError("exact certification built a density matrix")

        monkeypatch.setattr(steering, "dm_from_bloch", refuse)
        monkeypatch.setattr(steering, "Assemblage", refuse)
        monkeypatch.setattr(mss.qcore.DensityMatrix, "__post_init__", refuse)
        assert [certify_exact(phi) for phi in phis] == want

    def test_solves_no_lp(self, monkeypatch):
        want = certify_exact(0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("exact certification solved an LP")

        monkeypatch.setattr(mss.magic, "solve_lp", refuse)
        assert certify_exact(0.3) == want

    def test_lhs_assemblages_never_certify(self, rng):
        for _ in range(100):
            a = random_lhs_assemblage(rng)
            rec = evaluate_functional(a, solve_witness(a))
            assert rec.gap <= 1e-9

    def test_lhs_bound_matches_f_lhs(self, rng):
        for phi in (np.pi / 4, 0.9, 5.1):
            a = build_assemblage(phi)
            w = solve_witness(a)
            assert lhs_bound_check(w) == pytest.approx(w.f_lhs, abs=1e-9)

    def test_bound_attained_at_equatorial_vertex(self):
        # For phi in (0, pi/2) the witness presses against the polytope at
        # |+> or |+i>, the two vertices flanking the secret's Bloch vector.
        from mss.qcore import phase_plus

        a = build_assemblage(np.pi / 8)
        w = solve_witness(a)
        best_val, best_bloch = -np.inf, None
        for s in enumerate_stabilizer_states(1).states:
            val = float(np.trace(w.dual_witness @ s.density().mat).real)
            if val > best_val:
                best_val, best_bloch = val, bloch(s.density())
        assert best_val == pytest.approx(w.f_lhs, abs=1e-9)
        assert np.argmax(np.abs(best_bloch)) in (0, 1)  # an equatorial vertex

    def test_vertex_mixtures_respect_bound(self, rng):
        from mss.qcore import DensityMatrix

        a = build_assemblage(0.77)
        w = solve_witness(a)
        states = [s.density().mat for s in enumerate_stabilizer_states(1).states]
        for _ in range(50):
            mix = rng.dirichlet(np.ones(6))
            rho = DensityMatrix(sum(m * s for m, s in zip(mix, states)))
            assert np.trace(w.dual_witness @ rho.mat).real <= w.f_lhs + 1e-9


class TestSampledCertification:
    def test_finite_shot_gap_near_theory(self):
        phi = np.pi / 8
        sc = sampled_certification(phi, shots=2 ** 14, noise=tomo.NoiseModel.none(),
                                   seed=17, n_boot=200)
        assert sc.record.gap == pytest.approx(c_closed_form(phi), abs=4 * sc.sigma_gap)
        assert sc.sigma_gap > 0
        assert sc.n_eff > 2 ** 12

    def test_deterministic_for_fixed_seed(self):
        kwargs = dict(shots=1024, noise=ACCEPTANCE_NOISE, seed=4, n_boot=150)
        a = sampled_certification(0.7, **kwargs)
        b = sampled_certification(0.7, **kwargs)
        assert a == b

    def test_replica_minimum(self):
        with pytest.raises(ValueError, match="at least 100"):
            sampled_certification(0.5, shots=50, noise=tomo.NoiseModel.none(), seed=1, n_boot=1)

    # With acceptance noise, phi = 0.009 and phi = 3.14159 put the point
    # estimate of sigma_{0|X} inside the octahedron: zero witness, gap 0.  At
    # phi = 3.14159 every replica stays inside as well, so sigma_gap is 0.
    @pytest.mark.parametrize("phi,noise,seed", [
        (0.3927, tomo.NoiseModel.none(), 3),
        (1.0472, ACCEPTANCE_NOISE, 7),
        (2.3562, ACCEPTANCE_NOISE, 3),
        (4.0, tomo.NoiseModel.none(), 7),
        (0.009, ACCEPTANCE_NOISE, 3),
        (np.pi / 2 - 0.0001, tomo.NoiseModel.none(), 3),
        (3.14159, ACCEPTANCE_NOISE, 3),
    ])
    def test_matches_per_replica_lp(self, phi, noise, seed):
        sc = sampled_certification(phi, shots=4096, noise=noise, seed=seed, n_boot=150)
        f, f_lhs, sigma_gap, n_eff = reference_sampled_certification(
            phi, 4096, noise, seed, n_boot=150)
        assert (sc.record.f_value, sc.record.f_lhs, sc.n_eff) == (f, f_lhs, n_eff)
        assert sc.sigma_gap == pytest.approx(sigma_gap, rel=0, abs=1e-12)

    # The first point estimate has C > 0; the second lies inside the octahedron.
    @pytest.mark.parametrize("phi,noise,certifies", [(np.pi / 8, tomo.NoiseModel.none(), True),
                                                     (3.14159, ACCEPTANCE_NOISE, False)])
    def test_solves_no_lp(self, phi, noise, certifies, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled certification solved an LP")

        monkeypatch.setattr(mss.magic, "solve_lp", refuse)
        sc = sampled_certification(phi, shots=4096, noise=noise, seed=3, n_boot=150)
        assert (sc.record.gap > 0) == certifies

    def test_zero_gap_when_inside_the_octahedron(self):
        sc = sampled_certification(3.14159, shots=4096, noise=ACCEPTANCE_NOISE,
                                   seed=3, n_boot=150)
        assert sc.record.gap == 0.0 and sc.sigma_gap == 0.0

    @pytest.mark.parametrize("phi", [np.pi / 8, 2.2, np.pi / 2 + 0.02])
    def test_replica_gaps_match_lp_on_exact_counts(self, phi):
        # sigma_{0|X} has Bloch vector (cos, sin, 0), sigma_{0|Y} (-sin, cos, 0).
        counts = [exact_corrected_counts(phi, b, 2048) for b in ("X", "Y", "Z")]
        counts += [exact_corrected_counts(phi + np.pi / 2, b, 2048) for b in ("X", "Y", "Z")]
        raw = tomo.resample_expectations(counts, 100, tomo.stream_rng(2, "exact"))
        b_x, b_y = tomo.scale_onto_ball(raw[:, :3]), tomo.scale_onto_ball(raw[:, 3:])
        want = [lp_gap(x, y) for x, y in zip(b_x, b_y)]
        np.testing.assert_allclose(certification_gap(b_x, b_y), want, rtol=0, atol=1e-12)


class TestOneFunctional:
    """Every certification value goes through :func:`_functional_value`."""

    def test_functional_matches_the_matrix_functional(self, rng):
        for _ in range(500):
            b_x, b_y = (v / max(1.0, np.linalg.norm(v)) for v in rng.uniform(-1, 1, (2, 3)))
            h0, h = rng.uniform(-2, 2), rng.uniform(-1, 1, 3)
            witness = (h0 * I2 + h[0] * X + h[1] * Y + h[2] * Z) / 2
            want = matrix_functional(dm_from_bloch(b_x), dm_from_bloch(b_y), witness)
            assert abs(_functional_value(b_x, b_y, h0, h) - want) <= 1e-15

    # The last point estimate lies inside the octahedron: zero witness.
    @pytest.mark.parametrize("phi,seed", [(np.pi / 8, 1), (1.0472, 7), (3.14159, 3)])
    def test_record_and_replicas_are_the_certification_of_their_reconstructions(self, phi, seed):
        # The point estimate is _certification at the reconstructions' Bloch
        # vectors, and each replica row's gap is what a reconstruction of the
        # replica's counts gives: the batched rows and the point estimate are
        # one piece of arithmetic.
        shots, n_boot, noise = 2048, 120, ACCEPTANCE_NOISE
        sc = sampled_certification(phi, shots, noise, seed, n_boot=n_boot)
        base = [tomo.post_select_and_correct(tomo.sample_run(phi, basis, shots, noise, seed,
                                                             alice_setting=setting), keep_bit)
                for setting, keep_bit in (("X", 0), ("Y", 1)) for basis in ("X", "Y", "Z")]
        f, f_lhs = _certification(tomo.reconstruct(*base[:3]).bloch,
                                  tomo.reconstruct(*base[3:]).bloch)
        assert (sc.record.f_value.hex(), sc.record.f_lhs.hex()) == (float(f).hex(),
                                                                    float(f_lhs).hex())

        rng = tomo.stream_rng(seed, f"certify-boot/{phi:.17g}")
        k = [rng.binomial(c.n_eff, c.n0 / c.n_eff, size=n_boot) for c in base]
        gaps = []
        for row in range(n_boot):
            counts = [tomo.CorrectedCounts(c.basis_label, int(kk[row]), c.n_eff - int(kk[row]))
                      for c, kk in zip(base, k)]
            f, f_lhs = _certification(tomo.reconstruct(*counts[:3]).bloch,
                                      tomo.reconstruct(*counts[3:]).bloch)
            gaps.append(f - f_lhs)
        assert sc.sigma_gap.hex() == float(np.std(gaps, ddof=1)).hex()


class TestClosedFormCoverage:
    """Sampled outputs against the noisy closed form at acceptance noise.

    The recipient's Bloch vector is eta (cos phi, sin phi, 0), so
    c_charlie and the certification gap both estimate
    max(0, (eta (|cos phi| + |sin phi|) - 1)/2) and the fidelity estimates
    (1 + eta)/2.  Over 100 seeds per angle, each estimate must lie within 3
    of its bootstrap sigmas of the closed form in at least 95 runs, and
    within 5 sigmas in all of them.  c_charlie and the gap run high, by
    +0.5 to +0.8 and +0.4 to +0.5 sigma on average over these seeds:
    |x| + |y| + |z| and the sign witness both pick up the sampled |b_z|,
    whose true value is 0.
    """

    @pytest.mark.parametrize("phi", [np.pi / 8, np.pi / 4, 1.0])
    def test_within_three_sigma_at_a_fixed_rate(self, phi):
        eta = closed_form_eta(0.003, 0.015, 0.01)
        c = max(0.0, (eta * (abs(np.cos(phi)) + abs(np.sin(phi))) - 1.0) / 2.0)
        z = {"c_charlie": [], "fidelity": [], "gap": []}
        for seed in range(1700, 1800):
            row = tomo.experiment_table([phi], 4096, ACCEPTANCE_NOISE, seed, n_boot=500).rows[0]
            sc = sampled_certification(phi, 4096, ACCEPTANCE_NOISE, seed, n_boot=500)
            z["c_charlie"].append((row.c_charlie - c) / row.sigma_c)
            z["fidelity"].append((row.fidelity - (1.0 + eta) / 2.0) / row.sigma_f)
            z["gap"].append((sc.record.gap - c) / sc.sigma_gap)
        for name, values in z.items():
            values = np.abs(values)
            assert np.sum(values <= 3.0) >= 95, (name, np.sort(values)[-6:])
            assert np.max(values) <= 5.0, (name, np.max(values))


class TestSignWitnessProperties:
    """The Bloch-vector witness of sampled certification against
    wigner_distance's witness matrix."""

    @PROPERTY
    @given(bloch_vectors())
    @example(CLAMPED_OUTSIDE)
    def test_sign_vector_is_the_lp_witness(self, b):
        paulis = lp_witness_paulis(b)
        if octahedron_distance(b) > 0:
            np.testing.assert_allclose(paulis, np.sign(b), rtol=0, atol=1e-9)
        else:
            # Inside the octahedron, on its surface and within CLAMP_TOL
            # outside it (C = 0) the witness is the canonical zero witness.
            assert np.all(paulis == 0.0)

    def test_zero_gap_where_c_is_clamped(self):
        b_y = s_conjugate(CLAMPED_OUTSIDE)
        want = lp_gap(CLAMPED_OUTSIDE, b_y)
        assert want == 0.0
        np.testing.assert_allclose(certification_gap(CLAMPED_OUTSIDE, b_y), want,
                                   rtol=0, atol=1e-12)

    @PROPERTY
    @given(bloch_vectors())
    def test_gap_at_the_solved_state_is_c(self, b):
        # The ideal assemblage has sigma_{0|Y} = S sigma_{0|X} S^dagger.
        gap = float(certification_gap(b, s_conjugate(b)))
        assert gap == pytest.approx(wigner_distance(dm_from_bloch(b)).c_value, abs=1e-9)
        assert gap == pytest.approx(lp_gap(b, s_conjugate(b)), abs=1e-9)

    @PROPERTY
    @given(bloch_vectors(), bloch_vectors())
    def test_gap_matches_lp_for_any_second_member(self, b_x, b_y):
        gap = float(certification_gap(b_x, b_y))
        assert gap == pytest.approx(lp_gap(b_x, b_y), abs=1e-9)
