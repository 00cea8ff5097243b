"""Acceptance suite: the artifact's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on a green run; pytest shows the output of failing tests regardless).
Tolerances are pinned here and nowhere else.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mss.cli import main as cli_main
from mss.magic import c_closed_form, wigner_distance
from mss.protocol import (
    bob_marginal_after_projection,
    check_gate_admissibility,
    phase_gate_family,
    run_all_branches,
    run_exact,
    satisfies_column_sum,
    security_report,
    x_rotation_family,
)
from mss.qcore import ket, maximally_mixed, phase_plus, trace_distance
from mss.simplex import solve_lp
from mss.steering import (
    build_assemblage,
    certify_exact,
    evaluate_functional,
    random_lhs_assemblage,
    solve_witness,
    z_setting_probe,
)
from mss.tomo import NoiseModel, experiment_table, post_select_and_correct, reconstruct, sample_run

from conftest import fidelity, wigner_lp

TABLE_PHIS = (np.pi / 8, np.pi / 4, np.pi / 3, 3 * np.pi / 4)
TABLE_C_TH = (0.15328, 0.20711, 0.18301, 0.20711)


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_closed_form_agreement():
    # C from wigner_distance, and the 1-qubit L1 fit solved by the simplex
    # from the nearest vertex, each against the closed form.
    start = time.perf_counter()
    worst = 0.0
    angles = list(np.linspace(1e-6, np.pi / 2 - 1e-6, 100)) + \
        list(np.linspace(1e-6, 2 * np.pi - 1e-6, 50))
    for phi in angles:
        rho = phase_plus(phi).density()
        want = c_closed_form(phi)
        got = wigner_distance(rho).c_value
        lp = solve_lp(*wigner_lp(rho)).fun
        worst = max(worst, abs(got - want), abs(lp - want))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-7 and elapsed < 5.0,
           f"LP and wigner_distance vs closed form over 150 angles: max |diff| = {worst:.2e}, "
           f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_reference_values():
    worst = 0.0
    for phi, want in zip(TABLE_PHIS, TABLE_C_TH):
        got = wigner_distance(phase_plus(phi).density()).c_value
        worst = max(worst, abs(got - want))
    report(2, worst <= 1e-5,
           f"C at pi/8, pi/4, pi/3, 3pi/4 vs 0.15328/0.20711/0.18301/0.20711: "
           f"max |diff| = {worst:.2e}")


def test_criterion_3_faithfulness():
    rng = np.random.default_rng(3)
    worst_fid, worst_c = 1.0, 0.0
    for phi in rng.uniform(0, 2 * np.pi, size=25):
        ideal = phase_plus(phi)
        for t in run_all_branches(phi, 3):
            worst_fid = min(worst_fid, fidelity(t.final_state, ideal))
            worst_c = max(worst_c, abs(
                wigner_distance(t.final_state).c_value - c_closed_form(phi)))
    report(3, worst_fid >= 1 - 1e-12 and worst_c <= 1e-7,
           f"(2,3) all branches, 25 random angles: min fidelity = {worst_fid:.15f}, "
           f"max |C - C(phi)| = {worst_c:.2e}")


def test_criterion_4_security():
    rng = np.random.default_rng(4)
    half = maximally_mixed(1)
    worst_td, worst_c = 0.0, 0.0
    marginals = {}
    for phi in rng.uniform(0, 2 * np.pi, size=20):
        t = run_exact(phi, 3, outcomes="++")
        entry = security_report(t)[1]
        worst_td = max(worst_td, entry.trace_distance_to_i2)
        worst_c = max(worst_c, entry.c_value)
        marginals[phi] = entry.marginal
    pair_td = 0.0
    phis = list(marginals)
    for a, b in zip(phis[::2], phis[1::2]):
        pair_td = max(pair_td, trace_distance(marginals[a], marginals[b]))
    keep = worst_td <= 1e-12 and worst_c <= 1e-9 and pair_td <= 1e-12
    report(4, keep,
           f"rho_B: max d_tr to I/2 = {worst_td:.2e}, max C = {worst_c:.2e}, "
           f"max pairwise key distance = {pair_td:.2e}")


def test_criterion_5_threshold_induction():
    start = time.perf_counter()
    half = maximally_mixed(1)
    worst_pair, worst_marg = 1.0, 0.0
    for n in (3, 4, 5, 6):
        branches = run_all_branches(0.91, n)
        mats = [t.final_state.mat for t in branches]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                overlap = float(np.trace(mats[i] @ mats[j]).real)
                worst_pair = min(worst_pair, overlap)
        for t in branches:
            for row in t.marginal_history:
                present = [m for m in row if m is not None]
                if len(present) < 2:
                    continue
                for marginal in present:
                    worst_marg = max(worst_marg, trace_distance(marginal, half))
    elapsed = time.perf_counter() - start
    report(5, worst_pair >= 1 - 1e-12 and worst_marg <= 1e-12 and elapsed < 10.0,
           f"n=3..6 all branches: min pairwise fidelity = {worst_pair:.15f}, "
           f"max marginal distance = {worst_marg:.2e}, runtime {elapsed:.2f}s (< 10s)")


def test_criterion_6_gate_characterisation():
    probes = (0.3, np.pi / 8, np.pi / 4, 1.2)
    phase_rec = check_gate_admissibility(phase_gate_family, probes)
    xrot_rec = check_gate_admissibility(x_rotation_family, probes)
    rng = np.random.default_rng(6)
    half = maximally_mixed(1)
    disagreements = 0
    from conftest import random_unitary

    for _ in range(100):
        u = random_unitary(1, rng)
        predicted = satisfies_column_sum(u)
        actual = trace_distance(bob_marginal_after_projection(u), half) <= 1e-10
        disagreements += predicted != actual
    ok = (phase_rec.secure and phase_rec.faithful
          and xrot_rec.secure and not xrot_rec.faithful
          and max(xrot_rec.c_values) <= 1e-9
          and disagreements == 0)
    report(6, ok,
           f"phase family secure+faithful; x-rotation secure+unfaithful "
           f"(max C = {max(xrot_rec.c_values):.1e}); column-sum predicate vs "
           f"marginal: {disagreements}/100 disagreements")


def test_criterion_7_steering_gap():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for phi in rng.uniform(0, 2 * np.pi, size=50):
        worst_gap = max(worst_gap, abs(certify_exact(phi).gap - c_closed_form(phi)))
    worst_lhs = -np.inf
    for _ in range(100):
        a = random_lhs_assemblage(rng)
        worst_lhs = max(worst_lhs, evaluate_functional(a, solve_witness(a)).gap)
    z_ok = True
    for phi in rng.uniform(0, 2 * np.pi, size=5):
        sigma = z_setting_probe(phi)
        z_ok &= np.allclose(sigma.mat, ket("0").density().mat, atol=1e-12)
        z_ok &= wigner_distance(sigma).c_value == 0.0
    ok = worst_gap <= 1e-7 and worst_lhs <= 1e-9 and z_ok
    report(7, ok,
           f"ideal gap vs C(phi) over 50 angles: max |diff| = {worst_gap:.2e}; "
           f"max LHS gap over 100 assemblages = {worst_lhs:.2e}; Z probe is |0><0|")


def test_criterion_8_pipeline_reproduction():
    start = time.perf_counter()
    clean = experiment_table(TABLE_PHIS, shots=4096, noise=NoiseModel.none(),
                             seed=20260808, n_boot=2000)
    ok = True
    notes = []
    for row in clean.rows:
        ok &= abs(row.c_charlie - row.c_theory) <= 3 * row.sigma_c
        ok &= row.c_bob == 0.0
        ok &= 0.005 <= row.sigma_c <= 0.03
        notes.append(f"{row.phi:.3f}: C={row.c_charlie:.4f}({row.sigma_c:.4f}) "
                     f"th={row.c_theory:.4f}")
    noisy = experiment_table(TABLE_PHIS, shots=4096,
                             noise=NoiseModel.symmetric(0.003, 0.015, 0.01),
                             seed=20260808, n_boot=2000)
    for row in noisy.rows:
        ok &= 0.90 <= row.fidelity <= 0.995
        ok &= row.exceeds_distillation_threshold
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(8, ok,
           f"zero-noise C within 3 sigma ({'; '.join(notes)}); noisy fidelities "
           f"{[round(r.fidelity, 3) for r in noisy.rows]} in [0.90, 0.995] above "
           f"0.856; runtime {elapsed:.1f}s (< 60s)")


def test_criterion_9_noise_robust_security():
    noise = NoiseModel.symmetric(0.05, 0.05, 0.03)
    zero = 0
    runs = 200
    for k in range(runs):
        corrected = {
            b: post_select_and_correct(
                sample_run(np.pi / 4, b, 1024, noise, seed=90_000 + k, party="bob"))
            for b in ("X", "Y", "Z")
        }
        res = reconstruct(corrected["X"], corrected["Y"], corrected["Z"])
        zero += res.c_value == 0.0
    report(9, zero >= 0.99 * runs,
           f"reconstructed C(rho_B) = 0 in {zero}/{runs} noisy runs (>= 198 required)")


def test_criterion_10_byte_identical_outputs(tmp_path, capsys):
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / f"det_{tag}"
        code = cli_main(["experiment", "--phis", "0.39269908169872414",
                         "--shots", "512", "--seed", "77", "--boot", "200",
                         "--out", str(out)])
        assert code == 0
        blobs.append((out.with_suffix(".csv").read_bytes(),
                      out.with_suffix(".json").read_bytes(),
                      Path(str(out) + "_curve.csv").read_bytes()))
    capsys.readouterr()
    certs = []
    for _ in range(2):
        code = cli_main(["certify", "--phi", "0.7853981633974483", "--shots", "1024",
                         "--seed", "13", "--boot", "150", "--format", "json"])
        assert code == 0
        certs.append(capsys.readouterr().out)
    ok = blobs[0] == blobs[1] and certs[0] == certs[1]
    with capsys.disabled():
        report(10, ok, "identical seeds give byte-identical CSV/JSON outputs "
                       "(experiment files and certify JSON)")
