"""Protocol tests: faithfulness, security, the threshold induction, and the
column-sum gate characterisation."""

import numpy as np
import pytest

from mss import protocol
from mss.magic import c_closed_form, wigner_distance
from mss.protocol import (
    MAX_PARTIES,
    check_gate_admissibility,
    column_sums,
    bob_marginal_after_projection,
    magic_scan,
    phase_gate_family,
    run_all_branches,
    run_exact,
    satisfies_column_sum,
    security_report,
    x_rotation_family,
)
from mss.qcore import (
    H,
    Z,
    apply_1q,
    apply_on_axes,
    fidelity,
    ghz,
    maximally_mixed,
    phase_gate,
    phase_plus,
    project_measure,
    trace_distance,
)

from conftest import partial_trace, random_pure_state, random_unitary


def reference_run_exact(phi, n, outcomes=None, seed=None, state=None):
    """The step-by-step runner the branch tensor replaces: project each
    broadcaster out of the statevector in turn, and trace the whole register's
    density matrix down to every remaining party after each step.  ``state``
    replaces the phased GHZ register.

    Returns (outcome string, branch probability, corrected final density
    matrix, parity, marginal history).
    """
    rng = None if outcomes is not None else np.random.default_rng(seed)
    if state is None:
        state = apply_1q(ghz(n), phase_gate(phi), 0)

    def marginals(state):
        k = state.n_qubits
        return (None,) * (n - k) + tuple(partial_trace(state.density(), keep={pos})
                                         for pos in range(k))

    history, sent, probability = [marginals(state)], "", 1.0
    for step in range(n - 1):
        if rng is not None:
            p_plus, _ = project_measure(state, 0, "X", 0)
            outcome = "+" if rng.random() < p_plus else "-"
        else:
            outcome = outcomes[step]
        prob, state = project_measure(state, 0, "X", 0 if outcome == "+" else 1)
        probability *= prob
        sent += outcome
        history.append(marginals(state))
    parity = sent.count("-") % 2
    final = apply_1q(state, Z, 0) if parity else state
    return sent, probability, final.density(), parity, tuple(history)


def assert_matches_reference(t, ref, tol=1e-15):
    sent, probability, final, parity, history = ref
    assert "".join(m.outcome for m in t.messages) == sent
    assert [(m.sender, m.step) for m in t.messages] == [(k, k) for k in range(len(sent))]
    assert t.correction_parity == parity
    assert abs(t.branch_probability - probability) <= tol
    assert np.max(np.abs(t.final_state.mat - final.mat)) <= tol
    assert len(t.marginal_history) == len(history)
    for row, want_row in zip(t.marginal_history, history):
        assert [m is None for m in row] == [m is None for m in want_row]
        for m, want in zip(row, want_row):
            if m is not None:
                assert np.max(np.abs(m.mat - want.mat)) <= tol


class TestRunExact:
    def test_plus_plus_branch_delivers_t_state(self):
        t = run_exact(np.pi / 4, 3, outcomes="++")
        assert fidelity(t.final_state, phase_plus(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)
        assert wigner_distance(t.final_state).c_value == pytest.approx(0.20710678118654752, abs=1e-7)

    def test_minus_branch_corrected_to_same_state(self):
        t = run_exact(np.pi / 4, 3, outcomes="+-")
        assert t.correction_parity == 1
        assert fidelity(t.final_state, phase_plus(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)

    def test_dealer_minus_branch_also_corrected(self):
        t = run_exact(np.pi / 4, 3, outcomes="-+")
        assert t.correction_parity == 1
        assert fidelity(t.final_state, phase_plus(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)

    def test_branch_probability(self):
        for n in (3, 4, 6):
            t = run_exact(0.9, n, outcomes="+" * (n - 1))
            assert t.branch_probability == pytest.approx(2.0 ** -(n - 1), abs=1e-12)

    def test_messages_recorded_in_order(self):
        t = run_exact(0.5, 4, outcomes="+-+")
        assert [m.sender for m in t.messages] == [0, 1, 2]
        assert [m.outcome for m in t.messages] == ["+", "-", "+"]

    def test_sampled_mode_is_seeded(self):
        a = run_exact(0.7, 3, seed=11)
        b = run_exact(0.7, 3, seed=11)
        assert [m.outcome for m in a.messages] == [m.outcome for m in b.messages]
        assert fidelity(a.final_state, phase_plus(0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_sampled_mode_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            run_exact(0.7, 3)

    def test_bad_outcome_string(self):
        with pytest.raises(ValueError, match="symbols"):
            run_exact(0.7, 3, outcomes="+x")

    def test_party_count_bounds(self):
        for n in (2, MAX_PARTIES + 1):
            with pytest.raises(ValueError, match="n must be"):
                run_exact(0.7, n, outcomes="+" * (n - 1))

    def test_excluded_phi_still_runs_with_zero_magic(self):
        for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
            t = run_exact(phi, 3, outcomes="++")
            assert wigner_distance(t.final_state).c_value <= 1e-9


class TestAllBranches:
    def test_branch_count_and_probabilities(self):
        for n in (3, 4):
            branches = run_all_branches(0.61, n)
            assert len(branches) == 2 ** (n - 1)
            total = sum(t.branch_probability for t in branches)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_branches_identical_for_random_phi(self, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=6):
            branches = run_all_branches(phi, 3)
            ref = phase_plus(phi)
            for t in branches:
                assert fidelity(t.final_state, ref) >= 1 - 1e-12

    def test_n4_magic_uniform_across_branches(self):
        for t in run_all_branches(np.pi / 8, 4):
            assert wigner_distance(t.final_state).c_value == pytest.approx(
                0.15328148243818825, abs=1e-7)

    def test_stabilizer_secret_gives_zero_everywhere(self):
        for t in run_all_branches(np.pi / 2, 3):
            assert wigner_distance(t.final_state).c_value <= 1e-9


class TestThresholdInduction:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_branch_same_final_state(self, n):
        phi = 1.0471975511965976  # pi/3
        branches = run_all_branches(phi, n)
        ref = phase_plus(phi)
        for t in branches:
            assert fidelity(t.final_state, ref) >= 1 - 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_intermediate_marginals_are_mixed(self, n):
        # Single-party marginals are I/2 at every step where at least two
        # parties still share the register; in the final row only the
        # recipient remains, holding the delivered resource state.
        half = maximally_mixed(1)
        for outcomes in ("+" * (n - 1), "-" * (n - 1)):
            t = run_exact(0.83, n, outcomes=outcomes)
            for row in t.marginal_history:
                present = [m for m in row if m is not None]
                if len(present) < 2:
                    continue
                for marginal in present:
                    assert trace_distance(marginal, half) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_branch_delivers_for_random_phi(self, n, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=8):
            ref = phase_plus(phi)
            for t in run_all_branches(phi, n):
                assert fidelity(t.final_state, ref) >= 1 - 1e-12
                assert t.branch_probability == pytest.approx(2.0 ** -(n - 1), abs=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_marginal_history_matches_partial_trace(self, n, rng):
        # Every branch, every transcript field, against the stepwise runner.
        for phi in [0.83, *rng.uniform(0, 2 * np.pi, size=3)]:
            for t in run_all_branches(phi, n):
                outcomes = "".join(m.outcome for m in t.messages)
                ref = reference_run_exact(phi, n, outcomes=outcomes)
                assert_matches_reference(t, ref)
                assert_matches_reference(run_exact(phi, n, outcomes=outcomes), ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sampled_runs_match_reference(self, n, rng):
        # One draw per step in the same order: a seed gives the same outcome string.
        for seed, phi in enumerate(rng.uniform(0, 2 * np.pi, size=12)):
            assert_matches_reference(run_exact(phi, n, seed=seed),
                                     reference_run_exact(phi, n, seed=seed))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_any_register_matches_reference(self, n, rng):
        # GHZ marginals are I/2 wherever H is still applied, so only a generic
        # register shows whether the Bloch vectors are mapped back from that frame.
        for bits in ([0] * (n - 1), [k % 2 for k in range(1, n)]):
            psi = random_pure_state(n, rng)
            t = psi.amps.reshape((2,) * n)
            for axis in range(n - 1):
                t = apply_on_axes(t, (axis,), H)
            outcomes = "".join("-" if b else "+" for b in bits)
            assert_matches_reference(protocol._run(t, 0.0, bits),
                                     reference_run_exact(0.0, n, outcomes, state=psi))

    def test_remaining_register_is_ghz_ladder(self):
        # After j measurements, the remaining parties share the (n-j)-party
        # ladder (|0..0> + e^{i phi}|1..1>)/sqrt(2) up to the pending parity.
        from mss.qcore import PureState, Z, apply_1q, ghz, phase_gate, project_measure

        phi, n = 0.73, 5
        state = apply_1q(ghz(n), phase_gate(phi), 0)
        outcomes = [0, 1, 1, 0]
        parity = 0
        for j, outcome in enumerate(outcomes, start=1):
            _, state = project_measure(state, 0, "X", outcome)
            parity ^= outcome
            k = n - j
            corrected = apply_1q(state, Z, 0) if parity else state
            want = np.zeros(2 ** k, dtype=complex)
            want[0] = 1 / np.sqrt(2)
            want[-1] = np.exp(1j * phi) / np.sqrt(2)
            got = abs(np.vdot(want, corrected.amps)) ** 2
            assert got >= 1 - 1e-12


class TestSecurityReport:
    def test_all_non_recipients_hold_nothing(self):
        t = run_exact(np.pi / 8, 3, outcomes="++")
        report = security_report(t)
        assert set(report) == {0, 1}
        for entry in report.values():
            assert entry.trace_distance_to_i2 <= 1e-12
            assert entry.c_value <= 1e-9

    def test_key_indistinguishability(self, rng):
        for _ in range(20):
            phi1, phi2 = rng.uniform(0, 2 * np.pi, size=2)
            t1 = run_exact(phi1, 3, outcomes="++")
            t2 = run_exact(phi2, 3, outcomes="++")
            b1 = t1.marginal_history[0][1]
            b2 = t2.marginal_history[0][1]
            assert trace_distance(b1, b2) <= 1e-12

    def test_five_party_report(self):
        t = run_exact(0.44, 5, outcomes="++-+")
        report = security_report(t)
        assert set(report) == {0, 1, 2, 3}
        for entry in report.values():
            assert entry.trace_distance_to_i2 <= 1e-12

    def test_marginal_is_built_on_first_read(self, monkeypatch):
        built, real = [], protocol.dm_from_bloch
        monkeypatch.setattr(protocol, "dm_from_bloch", lambda b: built.append(b) or real(b))
        t = run_exact(0.44, 5, outcomes="++-+")
        report = security_report(t)
        assert built == []
        for party, entry in report.items():
            assert not entry.bloch.flags.writeable
            assert any(np.array_equal(entry.bloch, row) for row in t.bloch_history[:party + 1, party])
            first = entry.marginal
            assert entry.marginal is first and len(built) == party + 1
            np.testing.assert_allclose(first.mat, maximally_mixed(1).mat, atol=1e-12)


class TestGateAdmissibility:
    PROBES = (0.3, np.pi / 8, np.pi / 4, 1.1, np.pi / 3)

    def test_phase_family_secure_and_faithful(self):
        rec = check_gate_admissibility(phase_gate_family, self.PROBES)
        assert rec.secure and rec.faithful
        assert rec.col0_sum_abs == pytest.approx(1.0, abs=1e-12)
        assert rec.col1_sum_abs == pytest.approx(1.0, abs=1e-12)
        for phi, c in zip(rec.probe_phis, rec.c_values):
            assert c == pytest.approx(c_closed_form(phi), abs=1e-7)

    def test_x_rotation_secure_but_unfaithful(self):
        rec = check_gate_admissibility(x_rotation_family, self.PROBES)
        assert rec.secure and not rec.faithful
        assert max(rec.c_values) <= 1e-9  # delivers phi-independent stabilizer states

    def test_non_unitary_diagonal_rejected_and_predicate_false(self):
        bad = np.diag([1.0, 0.9])
        with pytest.raises(ValueError, match="unitary"):
            check_gate_admissibility(bad, self.PROBES)
        assert not satisfies_column_sum(bad)
        assert column_sums(bad) == (1.0, 0.9)

    @pytest.mark.parametrize("probes", [(), (0.3, float("nan")), (float("inf"),)])
    def test_empty_or_non_finite_probes_rejected(self, probes):
        with pytest.raises(ValueError, match="nonempty and finite"):
            check_gate_admissibility(phase_gate_family, probes)

    def test_fixed_matrix_treated_as_constant_family(self):
        rec = check_gate_admissibility(np.diag([1.0, np.exp(0.25j)]), self.PROBES)
        assert rec.secure and not rec.faithful

    def test_column_sum_predicate_matches_marginal(self, rng):
        # Haar unitaries almost surely break the condition, so the secure side
        # is drawn from the admissible class e^{i alpha} P(phi) and e^{i (theta/2) X}.
        half = maximally_mixed(1)
        seen = set()
        for _ in range(100):
            alpha, phi, theta = rng.uniform(0, 2 * np.pi, size=3)
            for u in (random_unitary(1, rng), np.exp(1j * alpha) * phase_gate(phi),
                      np.exp(1j * alpha) * x_rotation_family(theta)):
                predicted = satisfies_column_sum(u)
                actual = trace_distance(bob_marginal_after_projection(u), half) <= 1e-10
                assert predicted == actual
                seen.add(predicted)
        assert seen == {True, False}


class TestMagicScan:
    def test_table_values(self):
        rows = magic_scan([np.pi / 8, 3 * np.pi / 4, np.pi], n=3)
        for phi, c_th, c_proto in rows:
            assert c_proto == pytest.approx(c_th, abs=1e-7)
        assert rows[0][1] == pytest.approx(0.15328148243818825, abs=1e-12)
        assert rows[1][1] == pytest.approx(0.20710678118654752, abs=1e-12)
        assert rows[2][1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            magic_scan([])
