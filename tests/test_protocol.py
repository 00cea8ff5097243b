"""Protocol tests: faithfulness, security, the threshold induction, and the
column-sum gate characterisation."""

import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mss import protocol, qcore
from mss.magic import c_closed_form, octahedron_distance, wigner_distance
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
    PureState,
    Z,
    bloch,
    dm_from_bloch,
    maximally_mixed,
    phase_gate,
    phase_plus,
    phase_ptm,
    trace_distance,
)

from conftest import (H, apply_1q, dyadic_register, fidelity, ghz, partial_trace,
                      project_measure, random_unitary, reference_branch_tensor,
                      reference_deliver_with_gate, reference_exact_branches, reference_history,
                      reference_magic_scan, reference_pauli_tensor, reference_security_report)


def reference_run_exact(phi, n, outcomes=None, seed=None):
    """The step-by-step oracle of the Pauli route: project each broadcaster
    out of the statevector in turn, and trace the whole register's density
    matrix down to every remaining party after each step.

    Returns (outcome string, branch probability, corrected final density
    matrix, parity, marginal history).
    """
    rng = None if outcomes is not None else np.random.default_rng(seed)
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
    assert t.outcomes == sent
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
        assert t.outcomes == "+-+"

    def test_sampled_mode_is_seeded(self):
        a = run_exact(0.7, 3, seed=11)
        b = run_exact(0.7, 3, seed=11)
        assert a.outcomes == b.outcomes
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

    def test_party_count_must_be_an_integer(self):
        for n in (3.0, 4.5):
            for call in (lambda: run_exact(0.3, n, outcomes="+-"), lambda: run_exact(0.3, n, seed=1),
                         lambda: run_all_branches(0.3, n), lambda: magic_scan([0.3], n)):
                with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
                    call()
        assert run_exact(0.3, np.int64(4), outcomes="+-+").n_parties == 4
        assert len(run_all_branches(0.3, np.int64(4))) == 8
        assert len(magic_scan([0.3], np.int64(4))) == 1

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
                ref = reference_run_exact(phi, n, outcomes=t.outcomes)
                assert_matches_reference(t, ref)
                assert_matches_reference(run_exact(phi, n, outcomes=t.outcomes), ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sampled_runs_match_reference(self, n, rng):
        # One draw per step in the same order: a seed gives the same outcome string.
        for seed, phi in enumerate(rng.uniform(0, 2 * np.pi, size=12)):
            assert_matches_reference(run_exact(phi, n, seed=seed),
                                     reference_run_exact(phi, n, seed=seed))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_each_draw_sees_its_conditional_probability(self, n, rng):
        # On GHZ registers every step is 1/2; a dyadic register is not.
        r = dyadic_register(n, rng)
        probability = {bits: p for bits, (_, p, _) in reference_exact_branches(r).items()}
        bits = tuple(k % 2 for k in range(1, n))
        seen = []
        protocol._run(r, 0.0, lambda step, p_plus: seen.append(p_plus) or bits[step])
        for step, p_plus in enumerate(seen):
            prefix = sum(p for b, p in probability.items() if b[:step] == bits[:step])
            plus = sum(p for b, p in probability.items() if b[:step + 1] == bits[:step] + (0,))
            assert p_plus == plus / prefix

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_any_register_matches_reference(self, n, rng):
        # GHZ marginals are I/2 until the last step, so only a register with
        # no GHZ structure shows the axis order and the outcome signs.
        for bits in ((0,) * (n - 1), tuple(k % 2 for k in range(1, n))):
            r = dyadic_register(n, rng)
            run = protocol._run(r, 0.0, protocol._forced(bits))
            history, probability, final = reference_exact_branches(r)[bits]
            assert run.outcomes == "".join("-" if b else "+" for b in bits)
            assert run.correction_parity == sum(bits) % 2
            assert np.array_equal(run.bloch_history, history)
            assert run.branch_probability == probability
            assert np.array_equal(run.final_state.mat, dm_from_bloch(final).mat)

    def test_remaining_register_is_ghz_ladder(self):
        # After j measurements, the remaining parties share the (n-j)-party
        # ladder (|0..0> + e^{i phi}|1..1>)/sqrt(2) up to the pending parity.
        from mss.qcore import PureState, Z, phase_gate

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


class TestCoalitions:
    """The 2-qubit C of every pair of parties that have not measured yet, at
    every step of every branch.  A pair inside a larger unmeasured register
    holds a diagonal, hence free, marginal; the last pair holds the whole
    register, (|00> +- e^{i phi}|11>)/sqrt(2), with 2 C(phi)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_only_the_last_pair_holds_magic(self, n, rng):
        for phi in rng.uniform(0, 2 * np.pi, size=2):
            t = reference_branch_tensor(phi, n)
            registers = {(): apply_1q(ghz(n), phase_gate(phi), 0)}
            for size in range(n, 1, -1):
                if size < n:
                    registers = {bits + (b,): project_measure(state, 0, "X", b)[1]
                                 for bits, state in registers.items() for b in (0, 1)}
                for bits, state in registers.items():
                    # The stepwise register is the branch tensor's slice, taken
                    # back from the H frame of the parties still to broadcast.
                    branch = PureState(t[bits].reshape(-1) / np.linalg.norm(t[bits]))
                    for axis in range(size - 1):
                        branch = apply_1q(branch, H, axis)
                    np.testing.assert_allclose(branch.amps, state.amps, rtol=0, atol=1e-12)
                    rho = state.density()
                    for pair in combinations(range(size), 2):
                        c2 = wigner_distance(partial_trace(rho, pair)).c_value
                        if size > 2:
                            assert c2 == 0.0
                        else:
                            assert abs(c2 - 2 * c_closed_form(phi)) <= 1e-12


class TestCoalitionSupport:
    """Coalition security at any coalition size, without an LP: in every
    branch prefix, every proper nonempty subset of the unmeasured register
    holds a diagonal marginal (a mixture of computational-basis states, hence
    free), while the whole register keeps its magic."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_proper_subsets_hold_diagonal_marginals(self, n, rng):
        for phi in rng.uniform(-7, 7, size=4):
            registers = [protocol._dealt(phase_ptm(phi), n)]
            while registers:
                for r in registers:
                    m = r.ndim
                    paulis = np.indices(r.shape)  # [axis, *term]: the term's Pauli on that axis
                    xy = (paulis == 1) | (paulis == 2)
                    for size in range(1, m):
                        for subset in combinations(range(m), size):
                            outside = [a for a in range(m) if a not in subset]
                            # identity outside the subset, an X or Y on it: the subset's off-diagonal terms
                            off_diagonal = (paulis[outside] == 0).all(axis=0) & xy[list(subset)].any(axis=0)
                            assert np.all(r[off_diagonal] == 0.0)
                    assert np.abs(r[xy.any(axis=0)]).max() >= r.flat[0] / np.sqrt(2)
                registers = [protocol._broadcast(r, bit) for r in registers if r.ndim > 1
                             for bit in (0, 1)]


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
        built.clear()  # the final state is built from its Bloch vector
        report = security_report(t)
        assert built == []
        for party, entry in report.items():
            assert not entry.bloch.flags.writeable
            assert any(np.array_equal(entry.bloch, row) for row in t.bloch_history[:party + 1, party])
            first = entry.marginal
            assert entry.marginal is first and len(built) == party + 1
            np.testing.assert_allclose(first.mat, maximally_mixed(1).mat, atol=1e-12)


class TestBitExact:
    """P(phi) enters through its closed-form transfer matrix, so the ideal run
    carries no round-off: every branch delivers (cos phi, sin phi, 0) to the
    bit, from the math.cos and math.sin that phase_ptm calls, and every
    non-recipient holds exactly I/2 at every step."""

    ANGLES = [*np.random.default_rng(11).uniform(-7, 7, size=400).tolist(),
              *(k * math.pi / 2 for k in range(-4, 5))]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_branch_is_exact(self, n):
        for phi in self.ANGLES:
            want = [math.cos(phi), math.sin(phi), 0.0]
            for t in run_all_branches(phi, n):
                assert bloch(t.final_state).tolist() == want, (phi, t.outcomes)
                assert not t.bloch_history[:, :-1].any(), (phi, t.outcomes)
                for entry in security_report(t).values():
                    assert (entry.c_value, entry.trace_distance_to_i2) == (0.0, 0.0)

    def test_runs_apply_no_generic_gate(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the run path built a transfer matrix from a gate")
        monkeypatch.setattr(protocol, "ptm", refuse)
        monkeypatch.setattr(protocol, "require_unitary", refuse)
        run_exact(0.3, 4, outcomes="+-+")
        run_exact(0.3, 5, seed=2)
        assert len(run_all_branches(0.3, 6)) == 32


class TestOnePassHistory:
    """The history and the security report against the closed form, an exact
    oracle and the per-party loop."""

    @staticmethod
    def transcripts(n, rng):
        """(the history it must have, a transcript): every branch at two
        angles and seeded sampled runs against the closed form, and every
        branch of two dyadic registers (whose marginals are not I/2) against
        the exact oracle."""
        def closed_form(run):
            want = np.zeros((n, n, 3))
            sign = -1 if run.correction_parity else 1  # the recipient's row is uncorrected
            want[-1, -1] = sign * np.cos(run.phi), sign * np.sin(run.phi), 0.0
            return want

        for phi in (0.83, float(rng.uniform(-7, 7))):
            for run in run_all_branches(phi, n):
                yield closed_form(run), run
        for _ in range(2):
            r = dyadic_register(n, rng)
            for bits, (history, _, _) in reference_exact_branches(r).items():
                yield history, protocol._run(r, 0.0, protocol._forced(bits))
        for seed, phi in enumerate(rng.uniform(-7, 7, size=6)):
            run = run_exact(phi, n, seed=seed)
            assert run.outcomes == reference_run_exact(phi, n, seed=seed)[0]
            yield closed_form(run), run

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_history_matches_the_stepwise_loop(self, n, rng):
        for want, run in self.transcripts(n, rng):
            assert np.max(np.abs(run.bloch_history - want)) <= 1e-15
            assert not run.bloch_history[np.tril_indices(n, -1)].any()  # measured-out parties

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_statevector_gram_reader_agrees(self, n, rng):
        # The statevector oracle rounds on its own, up to about 1.1e-15 here.
        for phi in rng.uniform(-7, 7, size=3):
            t = reference_branch_tensor(phi, n)
            for run in run_all_branches(phi, n):
                want = reference_history(t, [int(o == "-") for o in run.outcomes])
                assert np.max(np.abs(run.bloch_history - want)) <= 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_report_matches_the_per_party_loop(self, n, rng):
        for _, run in self.transcripts(n, rng):
            report = security_report(run)
            for party, (_, b, c, distance) in reference_security_report(run).items():
                assert np.array_equal(report[party].bloch, b)
                assert abs(report[party].c_value - c) <= 1e-16
                assert abs(report[party].trace_distance_to_i2 - distance) <= 1e-16

    def test_report_takes_the_first_step_of_largest_norm(self, rng):
        # Rows of equal norm but different direction show which step was taken.
        run = run_exact(0.83, 6, outcomes="+-+-+")
        ties = np.array([[0.5, 0, 0], [0, 0.5, 0], [0, 0, -0.5], [0, -0.5, 0], [0.25, 0, 0]])
        for _ in range(20):
            history = ties[rng.integers(len(ties), size=(6, 6))] * np.triu(np.ones((6, 6)))[..., None]
            tied = dataclasses.replace(run, bloch_history=history)
            report = security_report(tied)
            for party, (step, b, c, distance) in reference_security_report(tied).items():
                assert np.array_equal(report[party].bloch, history[step, party])
                assert (report[party].c_value, report[party].trace_distance_to_i2) == (c, distance)


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

    def test_column_sum_overflow_is_refused_without_a_warning(self):
        # Finite entries whose sum passes the float range.
        huge = np.array([[1e308, 0], [1e308, 1]])
        for call in (column_sums, satisfies_column_sum):
            with pytest.raises(ValueError, match="column sums must be finite"):
                call(huge)

    def test_one_tolerance_moves_both_halves_of_the_rule(self, monkeypatch):
        # |G00|^2 - 1 = 6e-7 and |G00 + G10| - 1 = 3e-7: outside 1e-10, inside 1e-6.
        gate = np.diag([1 + 3e-7, 1])
        assert not satisfies_column_sum(gate)
        with pytest.raises(ValueError, match="not unitary"):
            check_gate_admissibility(gate, [0.3])
        monkeypatch.setattr(qcore, "GATE_ATOL", 1e-6)
        assert satisfies_column_sum(gate)
        assert check_gate_admissibility(gate, [0.3]).secure

    def test_each_probe_is_checked_for_unitarity_once(self, monkeypatch):
        calls, real = [], protocol.require_unitary
        monkeypatch.setattr(protocol, "require_unitary", lambda g: calls.append(g) or real(g))
        check_gate_admissibility(phase_gate_family, self.PROBES)
        assert len(calls) == len(self.PROBES)
        bob_marginal_after_projection(phase_gate(0.3))
        assert len(calls) == len(self.PROBES) + 1

    def test_one_unitarity_tolerance_on_every_path(self):
        # |G00|^2 - 1 = 6e-11: inside the 1e-10 gate tolerance, outside 1e-12.
        near = np.diag([1 + 3e-11, 1])
        rec = check_gate_admissibility(near, [0.3])
        assert rec.secure and rec.col0_sums == (1 + 3e-11,)
        assert trace_distance(bob_marginal_after_projection(near), maximally_mixed(1)) <= 1e-10
        # |G00|^2 - 1 = 6e-10: outside it, on every path.
        far = np.diag([1 + 3e-10, 1])
        for call in (lambda: check_gate_admissibility(far, [0.3]),
                     lambda: bob_marginal_after_projection(far)):
            with pytest.raises(ValueError, match="not unitary"):
                call()

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


class TestGateCheckMatchesStepwiseOracle:
    """Gate admissibility broadcasts the dealer's and the middle party's "+"
    out of the Pauli tensor; the oracle projects them out of the statevector
    in turn."""

    def gates(self, rng):
        phis = [*rng.uniform(0, 2 * np.pi, size=20), 0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        return [random_unitary(1, rng) for _ in range(100)] + [phase_gate(phi) for phi in phis]

    def test_check_gate_admissibility(self, rng):
        half = maximally_mixed(1)
        for u in self.gates(rng):
            rec = check_gate_admissibility(u, [0.0])
            delivered, bob = reference_deliver_with_gate(u)
            assert abs(rec.c_values[0] - octahedron_distance(bloch(delivered))) <= 1e-12
            assert abs(rec.bob_i2_distances[0] - trace_distance(bob, half)) <= 1e-12

    def test_bob_marginal_after_projection(self, rng):
        for u in self.gates(rng):
            _, bob = reference_deliver_with_gate(u)
            assert np.max(np.abs(bob_marginal_after_projection(u).mat - bob.mat)) <= 1e-12


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

    @pytest.mark.parametrize("grid", [[0.1, float("nan")], [float("inf")], [0.2, -float("inf"), 0.3]])
    def test_non_finite_grid_point_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            magic_scan(grid)
        # The runners reject the same angles before numpy can warn on e^{i inf}.
        for phi in [p for p in grid if not np.isfinite(p)]:
            for call in (lambda: run_exact(phi, 3, outcomes="++"), lambda: run_exact(phi, 4, seed=1),
                         lambda: run_all_branches(phi, 5)):
                with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
                    call()

    def test_party_count_bounds(self):
        for n in (2, MAX_PARTIES + 1):
            with pytest.raises(ValueError, match="n must be"):
                magic_scan([0.3], n)


def _oracle_phis(rng):
    """Random angles plus the four stabilizer secrets."""
    return [*rng.uniform(0, 2 * np.pi, size=8), 0.0, np.pi / 2, np.pi, 3 * np.pi / 2]


class TestOneContraction:
    """The dealt Pauli tensor and the batched scan against the statevector
    and the per-point slices they replace."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_branch_tensor_matches_reference(self, n, rng):
        # Every branch is read from the dealt Pauli tensor.
        for phi in _oracle_phis(rng):
            r = protocol._dealt(phase_ptm(phi), n)
            assert r.shape == (4,) * n
            want = reference_pauli_tensor(apply_1q(ghz(n), phase_gate(phi), 0))
            assert np.max(np.abs(r - want)) <= 1e-15

    def test_scan_rows_are_the_transfer_matrix_rows(self, rng):
        # The one place P(phi)'s transfer matrix is written outside phase_ptm.
        grid = np.array([*_oracle_phis(rng), *rng.uniform(-7, 7, size=200)])
        for phi, row in zip(grid.tolist(), protocol._plus_rows(grid)):
            t = phase_ptm(phi)
            assert row.tolist() == ((t[0] + t[1]) / 2).tolist(), phi

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_magic_scan_matches_reference(self, n, rng):
        phis = _oracle_phis(rng)
        for got, want in zip(magic_scan(phis, n), reference_magic_scan(phis, n), strict=True):
            assert got[:2] == want[:2]
            assert abs(got[2] - want[2]) <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_scan_is_exact(self, n):
        # The delivered Bloch vector is (cos phi, sin phi, 0) to the bit, and
        # both values are clamped at 1e-10: the grid holds the multiples of
        # pi/2 and angles 1e-11 and 3e-10 off them, either side of the clamp.
        stabilizer = np.arange(-4, 5) * np.pi / 2
        grid = [*np.linspace(-7.0, 7.0, 4001),
                *(stabilizer + offset for offset in (0.0, 1e-11, -1e-11, -3e-10))]
        for phi, c_theory, c_protocol in magic_scan(np.concatenate(grid, axis=None), n):
            assert c_protocol.hex() == c_theory.hex(), phi

    def test_large_scan_matches_closed_form(self):
        grid = np.linspace(-2 * np.pi, 4 * np.pi, 10_000)
        n = 6
        magic_scan(grid[:2], n)  # fill the caches first
        tracemalloc.start()
        try:
            rows = magic_scan(grid, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row[0] for row in rows] == grid.tolist()
        assert max(abs(c_th - c_pr) for _, c_th, c_pr in rows) <= 1e-7
        assert peak < grid.size * 2 ** n * 16 // 2  # no (grid, 2^n) complex array

    def test_scan_reads_no_branch_tensor(self, monkeypatch):
        def refuse(transfer, n):
            raise AssertionError("magic_scan dealt a register")
        monkeypatch.setattr(protocol, "_dealt", refuse)
        assert len(magic_scan([0.1, 0.2, 0.3], 5)) == 3

    def test_cached_tables_are_read_only(self):
        # The one cached table is the GHZ_n Pauli tensor.
        for n in range(1, MAX_PARTIES + 1):
            r = protocol._ghz(n)
            assert r is protocol._ghz(n) and not r.flags.writeable
            assert np.max(np.abs(r - reference_pauli_tensor(ghz(n)))) <= 1e-15
            assert not np.signbit(r[r == 0]).any()  # no -0.0 to reach an output
