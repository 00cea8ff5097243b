"""End-to-end CLI tests: exit codes, formats, schema validation, determinism."""

import argparse
import dataclasses
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mss.cli as cli_mod
from mss import tomo
from mss.cli import main

from conftest import PROPERTY

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "mss" / "schemas"

PI_4 = "0.7853981633974483"
PI_8 = "0.39269908169872414"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def validate(command: str, payload) -> None:
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / f"{command}.schema.json").read_text())
    jsonschema.validate(payload, schema)


class TestRun:
    def test_forced_outcomes(self, capsys):
        payload = run_json(capsys, "run", "--phi", PI_4, "--outcomes", "+-")
        validate("run", payload)
        assert payload["final_c"] == pytest.approx(0.20710678118654752, abs=1e-7)
        assert payload["final_fidelity_to_ideal"] == pytest.approx(1.0, abs=1e-12)
        assert payload["security"]["1"]["trace_distance_to_i2"] <= 1e-12

    def test_sampled_run_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "run", "--phi", PI_4)
        assert code == 2
        assert "seed" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--phi", PI_4, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "mss: --seed must be non-negative, got -1\n"

    def test_degrees_flag(self, capsys):
        payload = run_json(capsys, "run", "--phi", "45", "--outcomes", "++", "--degrees")
        assert payload["phi"] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_double_dash_outcomes(self, capsys):
        payload = run_json(capsys, "run", "--phi", PI_4, "--n", "3", "--outcomes=--")
        validate("run", payload)
        assert payload["outcomes"] == "--" and payload["correction_parity"] == 0
        assert payload["final_fidelity_to_ideal"] == pytest.approx(1.0, abs=1e-12)

    def test_empty_outcomes_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--phi", PI_4, "--outcomes=")
        assert code == 2 and out == ""
        assert "symbols" in err

    @pytest.mark.filterwarnings("ignore:invalid value encountered in exp:RuntimeWarning")
    def test_non_finite_phi_is_usage_error(self, capsys):
        # Rejected at the flag, before any numpy call could warn or a gate check fire.
        for argv, value in [(("run", "--outcomes", "++"), "inf"), (("run", "--seed", "3"), "-inf"),
                            (("run", "--outcomes", "++", "--degrees"), "inf"),
                            (("certify",), "nan"), (("certify", "--degrees"), "nan"),
                            (("magic-eval",), "inf"), (("magic-eval",), "nan")]:
            code, out, err = run_cli(capsys, *argv, f"--phi={value}")
            assert code == 2 and out == ""
            assert err == f"mss: --phi must be finite, got {value}\n"

    def test_bad_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--phi", PI_4, "--n", "9",
                               "--outcomes", "++++++++")
        assert code == 2
        assert "n must be" in err


class TestScan:
    def test_nine_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--grid", "0:1.5708:9", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi,c_theory,c_protocol"
        assert len(lines) == 10
        for line in lines[1:]:
            _, c_th, c_pr = (float(tok) for tok in line.split(","))
            assert c_pr == pytest.approx(c_th, abs=1e-7)

    def test_json_matches_csv_values(self, capsys):
        args = ("scan", "--grid", "0.1:1.3:5")
        payload = run_json(capsys, *args)
        validate("scan", payload)
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        csv_rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row, json_row in zip(csv_rows, payload["rows"]):
            for text, value in zip(row, (json_row["phi"], json_row["c_theory"],
                                         json_row["c_protocol"])):
                assert float(text) == pytest.approx(value, rel=1e-12, abs=1e-300)

    def test_non_finite_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--grid", "0:nan:3")
        assert code == 2 and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("grid", ["-1e308:1e308:3", "1.7e308:-1.7e308:1"])
    def test_overflowing_grid_span_is_usage_error(self, capsys, grid):
        # Both ends are finite, but np.linspace would overflow on stop - start.
        code, out, err = run_cli(capsys, "scan", f"--grid={grid}")
        start, stop, _ = (float(v) for v in grid.split(":"))
        assert code == 2 and out == ""
        assert err == f"mss: --grid span from {start!r} to {stop!r} overflows a float\n"

    def test_wide_grid_in_degrees_runs(self, capsys):
        rows = run_json(capsys, "scan", "--grid=-1e308:1e308:3", "--degrees")["rows"]
        assert [row["phi"] for row in rows] == [math.radians(-1e308), 0.0, math.radians(1e308)]
        for row in rows:
            assert row["c_protocol"] == pytest.approx(row["c_theory"], abs=1e-7)

    @pytest.mark.parametrize("grid", ["0:1:x", "0:1:2.5", "a:1:3", "0:b:3", "0:1:0", "0:1", "0:1:2:3"])
    def test_malformed_grid_names_the_flag(self, capsys, grid):
        code, out, err = run_cli(capsys, "scan", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"mss: --grid expects start:stop:steps (integer steps ≥ 1), got {grid!r}\n"


class TestGateCheck:
    def test_phase_gate_matrix(self, capsys):
        payload = run_json(capsys, "gate-check", "--matrix",
                           "1,0,0,0,0,0,0.7071067811865476,0.7071067811865476")
        validate("gate-check", payload)
        assert payload["unitary"] and payload["secure"]
        assert not payload["faithful"]  # a fixed matrix cannot vary with phi

    def test_a_fixed_matrix_is_a_constant_family(self, capsys):
        # Even P(pi/4) gives the same gate at every probe angle, so the four
        # probe rows agree and faithful is false; the help says so.
        payload = run_json(capsys, "gate-check", "--matrix",
                           "1,0,0,0,0,0,0.7071067811865476,0.7071067811865476")
        rows = [{k: v for k, v in probe.items() if k != "phi"} for probe in payload["probes"]]
        assert len(rows) == 4 and all(row == rows[0] for row in rows)
        assert payload["faithful"] is False
        with pytest.raises(SystemExit):
            main(["gate-check", "-h"])
        assert "a fixed matrix is a constant family" in " ".join(capsys.readouterr().out.split())

    def test_non_unitary_diagonal(self, capsys):
        payload = run_json(capsys, "gate-check", "--matrix", "1,0,0,0,0,0,0.9,0")
        validate("gate-check", payload)
        assert payload == {**payload, "unitary": False, "secure": False}
        assert payload["col1_sum_abs"] == pytest.approx(0.9)

    def test_gate_just_outside_the_tolerance_is_non_unitary(self, capsys):
        # |G00|^2 - 1 = 6e-10, outside the 1e-10 gate tolerance.
        payload = run_json(capsys, "gate-check", "--matrix", "1.0000000003,0,0,0,0,0,1,0")
        validate("gate-check", payload)
        assert payload == {**payload, "unitary": False, "secure": False, "probes": []}

    def test_gate_inside_the_tolerance_is_checked_as_unitary(self, capsys):
        # |G00|^2 - 1 = 6e-11, inside the 1e-10 gate tolerance on every path.
        payload = run_json(capsys, "gate-check", "--matrix", "1.00000000003,0,0,0,0,0,1,0")
        validate("gate-check", payload)
        assert payload["unitary"] and payload["secure"]
        assert [probe["col0"] for probe in payload["probes"]] == [1.00000000003] * 4

    @pytest.mark.parametrize("probes", ["--probes=,", "--probes=nan"])
    def test_empty_or_non_finite_probes_are_usage_errors(self, capsys, probes):
        code, out, err = run_cli(capsys, "gate-check", "--matrix", "1,0,0,0,0,0,1,0", probes,
                                 "--format", "json")
        assert code == 2 and out == ""
        assert "nonempty and finite" in err

    @pytest.mark.parametrize("matrix", ["nan,0,0,0,0,0,1,0", "1,0,0,0,0,0,1,-inf"])
    def test_non_finite_matrix_is_usage_error(self, capsys, matrix):
        code, out, err = run_cli(capsys, "gate-check", "--matrix", matrix, "--format", "json")
        assert code == 2 and out == ""
        assert err == f"mss: --matrix must be nonempty and finite, got {matrix!r}\n"

    @pytest.mark.parametrize("matrix", ["1e308,0,0,0,1e308,0,1,0", "1.5e308,0,0,0,0,1.5e308,1,0"])
    def test_column_sum_past_the_float_range_is_usage_error(self, capsys, matrix):
        # Finite entries whose first column sum, or its modulus, overflows a
        # float; no numpy warning reaches stderr.
        code, out, err = run_cli(capsys, "gate-check", "--matrix", matrix, "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"mss: --matrix column sums overflow a float, got {matrix!r}\n"

    def test_malformed_matrix(self, capsys):
        code, _, err = run_cli(capsys, "gate-check", "--matrix", "1,0,0")
        assert code == 2 and "8 reals" in err


class TestMagicEval:
    def test_phase_angle(self, capsys):
        payload = run_json(capsys, "magic-eval", "--phi", PI_4)
        validate("magic-eval", payload)
        assert payload["c"] == pytest.approx(0.20710678118654752, abs=1e-7)
        assert payload["witness_trace"] - payload["f_lhs"] == pytest.approx(
            payload["c"], abs=1e-7)

    def test_named_state(self, capsys):
        payload = run_json(capsys, "magic-eval", "--state", "mixed")
        assert payload["c"] == 0.0

    @pytest.mark.parametrize("bloch", ["1,0,0", "-1,0,0", "0,1,0", "0,-1,0", "0,0,1", "0,0,-1"])
    def test_stabilizer_states_report_the_zero_witness(self, capsys, bloch):
        payload = run_json(capsys, "magic-eval", f"--bloch={bloch}")
        assert payload["c"] == payload["f_lhs"] == payload["witness_trace"] == 0.0

    def test_bloch_vector(self, capsys):
        payload = run_json(capsys, "magic-eval", "--bloch", "0.5,0.5,0.5")
        assert payload["c"] == pytest.approx(0.25, abs=1e-7)

    def test_exactly_one_selector(self, capsys):
        code, _, err = run_cli(capsys, "magic-eval", "--phi", PI_4, "--state", "T")
        assert code == 2 and "exactly one" in err


class TestCertify:
    def test_exact_mode(self, capsys):
        payload = run_json(capsys, "certify", "--phi", PI_8)
        validate("certify", payload)
        assert payload["mode"] == "exact"
        assert payload["gap"] == pytest.approx(0.15328148243818825, abs=1e-7)

    def test_sampled_mode(self, capsys):
        payload = run_json(capsys, "certify", "--phi", PI_8, "--shots", "2048",
                           "--seed", "3", "--boot", "150")
        validate("certify", payload)
        assert payload["mode"] == "sampled"
        assert payload["sigma_gap"] > 0
        assert abs(payload["gap"] - 0.15328) < 5 * payload["sigma_gap"]

    def test_sampled_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--phi", PI_8, "--shots", "512")
        assert code == 2 and "--seed" in err

    def test_too_few_replicas_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--phi", "0.5", "--shots", "50",
                                 "--seed", "1", "--boot", "1", "--format", "json")
        assert code == 2 and out == ""
        assert "at least 100" in err


class TestExperiment:
    def test_files_written(self, capsys, tmp_path):
        out = tmp_path / "exp"
        code, _, _ = run_cli(capsys, "experiment", "--phis", PI_8, "--shots", "512",
                             "--seed", "5", "--boot", "150", "--out", str(out))
        assert code == 0
        assert (tmp_path / "exp.csv").exists()
        assert (tmp_path / "exp.json").exists()
        assert (tmp_path / "exp_curve.csv").exists()
        payload = json.loads((tmp_path / "exp.json").read_text())
        validate("experiment", payload)

    def test_out_path_with_a_suffix_names_all_three_files_from_its_stem(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "--phis", PI_8, "--shots", "256",
                             "--seed", "5", "--boot", "150", "--out", str(tmp_path / "exp.json"))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.csv", "exp.json", "exp_curve.csv"]

    def test_deterministic_across_invocations(self, capsys, tmp_path):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"exp_{tag}"
            run_cli(capsys, "experiment", "--phis", PI_8, "--shots", "256",
                    "--seed", "5", "--boot", "150", "--out", str(out))
            texts.append((out.with_suffix(".csv").read_bytes(),
                          out.with_suffix(".json").read_bytes(),
                          Path(str(out) + "_curve.csv").read_bytes()))
        assert texts[0] == texts[1]

    def test_csv_and_json_numeric_agreement(self, capsys):
        args = ("experiment", "--phis", PI_8, "--shots", "256", "--seed", "5",
                "--boot", "150")
        payload = run_json(capsys, *args)
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        row = out.strip().split("\n")[1].split(",")
        json_row = payload["rows"][0]
        for text, key in zip(row, ("phi", "c_theory", "c_charlie", "sigma_c",
                                   "fidelity", "sigma_f", "c_bob", "n_eff")):
            assert float(text) == pytest.approx(json_row[key], rel=1e-12, abs=1e-300)


    def test_schema_rejects_misnamed_or_missing_counts(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        payload = run_json(capsys, "experiment", "--phis", PI_8, "--shots", "256",
                           "--seed", "5", "--boot", "100")
        validate("experiment", payload)
        misnamed = json.loads(json.dumps(payload))
        misnamed["raw_counts"][0]["Charlie"] = misnamed["raw_counts"][0].pop("charlie")
        missing_z = json.loads(json.dumps(payload))
        del missing_z["raw_counts"][0]["bob"]["Z"]
        for bad in (misnamed, missing_z):
            with pytest.raises(jsonschema.ValidationError):
                validate("experiment", bad)

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_n_eff_is_exact_at_the_largest_shot_count(self, capsys, seed):
        """n_eff is the dealer-0 count recounted from the raw counts, also above
        2**53 kept shots (at seed 2 a float would round it; at seed 1 the
        count happens to be a float)."""
        args = ("experiment", "--phis", "0.4", "--shots", str(2 ** 63 - 1),
                "--seed", seed, "--boot", "100")
        payload = run_json(capsys, *args)
        by_basis = payload["raw_counts"][0]["charlie"]
        kept = min(sum(n for key, n in by_basis[basis].items() if key[-1] == "0")
                   for basis in "XYZ")
        assert payload["rows"][0]["n_eff"] == kept
        code, out, err = run_cli(capsys, *args, "--format", "csv")
        assert code == 0, err
        assert out.split("\n")[1].split(",")[7] == str(kept)

    def test_raw_counts_recount_to_the_rows(self, capsys):
        """Both parties' Bloch vectors recounted from the LSb-0 keys ("q2 q1 q0",
        the dealer last) give the rows' C, fidelity and n_eff."""
        phis = (0.3927, 1.3)
        payload = run_json(capsys, "experiment", "--phis", ",".join(map(str, phis)),
                           "--shots", "1024", "--seed", "42", "--boot", "100",
                           "--noise", "0.003,0.015,0.01")

        def recount(by_basis, party):
            b, kept = [], []
            for basis in ("X", "Y", "Z"):
                n = [0, 0]
                for key, count in by_basis[basis].items():
                    q2, q1, q0 = (int(ch) for ch in key)
                    if q0 == 0:  # the dealer's outcome 0 is kept
                        bit = q2 ^ (q1 if basis != "Z" else 0) if party == "charlie" else q1
                        n[bit] += count
                b.append((n[0] - n[1]) / (n[0] + n[1]))
                kept.append(n[0] + n[1])
            norm = math.sqrt(sum(v * v for v in b))
            return [v / max(1.0, norm) for v in b], min(kept)

        for phi, row, raw in zip(phis, payload["rows"], payload["raw_counts"]):
            b, n_eff = recount(raw["charlie"], "charlie")
            c = max(0.0, (sum(abs(v) for v in b) - 1.0) / 2.0)
            assert c > 0  # so the comparison is not 0 == 0
            assert row["c_charlie"] == pytest.approx(c, abs=1e-12)
            fid = (1.0 + b[0] * math.cos(phi) + b[1] * math.sin(phi)) / 2.0
            assert row["fidelity"] == pytest.approx(fid, abs=1e-12)
            assert row["n_eff"] == n_eff
            b_bob, _ = recount(raw["bob"], "bob")
            assert sum(abs(v) for v in b_bob) <= 1.0
            assert row["c_bob"] == 0.0


class TestDumpStabilizers:
    def test_n1_table(self, capsys):
        code, out, _ = run_cli(capsys, "dump-stabilizers", "--n", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7  # header + 6 states
        payload = run_json(capsys, "dump-stabilizers", "--n", "1")
        validate("dump-stabilizers", payload)
        assert payload["count"] == 6

    def test_n2_count(self, capsys):
        payload = run_json(capsys, "dump-stabilizers", "--n", "2")
        validate("dump-stabilizers", payload)
        assert payload["count"] == 60


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("# settings\nshots = 256\nboot = 150\nformat = json\n")
        code, out, _ = run_cli(capsys, "certify", "--phi", PI_8, "--shots", "128",
                               "--seed", "2", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)  # format came from config
        assert payload["n_eff"] < 128  # flag value overrode config shots

    def test_flag_overrides_config_n(self, capsys, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("n = 4\nformat = json\n")
        code, out, _ = run_cli(capsys, "run", "--phi", PI_4, "--outcomes", "+++",
                               "--config", str(cfg))
        assert code == 0 and json.loads(out)["n_parties"] == 4
        code, out, _ = run_cli(capsys, "run", "--phi", PI_4, "--outcomes", "++", "--n", "3",
                               "--config", str(cfg))
        assert code == 0 and json.loads(out)["n_parties"] == 3

    def test_config_double_dash_outcomes(self, capsys, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("outcomes = --\n")
        payload = run_json(capsys, "run", "--phi", PI_4, "--config", str(cfg))
        assert payload["outcomes"] == "--"

    def test_invalid_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("format = xml\n")
        with pytest.raises(SystemExit) as exc:
            main(["magic-eval", "--phi", PI_4, "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'xml'" in captured.err

    def test_keys_naming_no_flag_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("phis = 0.1\nshots = 7\ncommand = scan\n")
        assert (run_json(capsys, "run", "--phi", PI_4, "--outcomes", "+-", "--config", str(cfg))
                == run_json(capsys, "run", "--phi", PI_4, "--outcomes", "+-"))

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.conf"
        code, out, err = run_cli(capsys, "magic-eval", "--state", "T", "--config", str(missing))
        assert code == 2 and out == ""
        assert err.startswith(f"mss: cannot read config file {str(missing)!r}: ")
        assert "Traceback" not in err

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("shots\n")
        code, _, err = run_cli(capsys, "certify", "--phi", PI_8, "--config", str(cfg))
        assert code == 2 and "key = value" in err


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "magic.json"
        code, out, _ = run_cli(capsys, "magic-eval", "--phi", PI_4,
                               "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["c"] == pytest.approx(0.20710678118654752, abs=1e-7)

    @pytest.mark.parametrize("argv", [
        ("run", "--phi", PI_4, "--outcomes", "++", "--format", "json"),
        ("experiment", "--phis", PI_8, "--shots", "256", "--seed", "5", "--boot", "100"),
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("mss: cannot write --out file ")
        assert "No such file or directory" in err
        assert list(tmp_path.iterdir()) == []


class TestTextFormats:
    """The CSV and pretty renderings, byte for byte."""

    def text(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        return out

    def test_run_csv_and_pretty(self, capsys):
        argv = ("run", "--phi", PI_4, "--outcomes", "+-", "--format")
        assert self.text(capsys, *argv, "csv") == """\
key,value
phi,0.7853981633974483
n_parties,3
outcomes,+-
branch_probability,0.25
correction_parity,1
messages.0.sender,0
messages.0.outcome,+
messages.0.step,0
messages.1.sender,1
messages.1.outcome,-
messages.1.step,1
final_c,0.20710678118654746
c_theory,0.20710678118654746
final_fidelity_to_ideal,1.0
final_state.re.0.0,0.5
final_state.re.0.1,0.3535533905932738
final_state.re.1.0,0.3535533905932738
final_state.re.1.1,0.5
final_state.im.0.0,0.0
final_state.im.0.1,-0.35355339059327373
final_state.im.1.0,0.35355339059327373
final_state.im.1.1,0.0
security.0.c_value,0.0
security.0.trace_distance_to_i2,0.0
security.1.c_value,0.0
security.1.trace_distance_to_i2,0.0
"""
        assert self.text(capsys, *argv, "pretty") == """\
phi                              0.785398
n_parties                        3
outcomes                         +-
branch_probability               0.25
correction_parity                1
messages.0.sender                0
messages.0.outcome               +
messages.0.step                  0
messages.1.sender                1
messages.1.outcome               -
messages.1.step                  1
final_c                          0.207107
c_theory                         0.207107
final_fidelity_to_ideal          1
final_state.re.0.0               0.5
final_state.re.0.1               0.353553
final_state.re.1.0               0.353553
final_state.re.1.1               0.5
final_state.im.0.0               0
final_state.im.0.1               -0.353553
final_state.im.1.0               0.353553
final_state.im.1.1               0
security.0.c_value               0
security.0.trace_distance_to_i2  0
security.1.c_value               0
security.1.trace_distance_to_i2  0
"""

    def test_magic_eval_csv_and_pretty(self, capsys):
        argv = ("magic-eval", "--state", "T", "--format")
        assert self.text(capsys, *argv, "csv") == """\
key,value
state,named:T
c,0.20710678118654746
f_lhs,0.5
witness_trace,0.7071067811865475
bloch.0,0.7071067811865475
bloch.1,0.7071067811865474
bloch.2,0.0
wigner.0,0.6035533905932736
wigner.1,-0.10355339059327376
wigner.2,0.24999999999999997
wigner.3,0.2499999999999999
mixture.0,0.0
mixture.1,0.0
mixture.2,0.0
mixture.3,0.4999999999999999
mixture.4,0.5
mixture.5,0.0
"""
        assert self.text(capsys, *argv, "pretty") == """\
state          named:T
c              0.207107
f_lhs          0.5
witness_trace  0.707107
bloch.0        0.707107
bloch.1        0.707107
bloch.2        0
wigner.0       0.603553
wigner.1       -0.103553
wigner.2       0.25
wigner.3       0.25
mixture.0      0
mixture.1      0
mixture.2      0
mixture.3      0.5
mixture.4      0.5
mixture.5      0
"""

    def test_non_unitary_gate_check_drops_the_empty_probe_list(self, capsys):
        argv = ("gate-check", "--matrix", "1,0,0,0,0,0,0.9,0", "--format")
        matrix = [f"matrix.{i}.{j}" for i in range(4) for j in range(2)]
        values = ["1.0"] + ["0.0"] * 5 + ["0.9", "0.0"]
        assert self.text(capsys, *argv, "csv") == "".join(
            ["key,value\n"] + [f"{k},{v}\n" for k, v in zip(matrix, values)]
            + ["unitary,false\ncol0_sum_abs,1.0\ncol1_sum_abs,0.9\nsecure,false\nfaithful,false\n"])
        assert self.text(capsys, *argv, "pretty") == "".join(
            [f"{k}    {v.removesuffix('.0')}\n" for k, v in zip(matrix, values)]
            + ["unitary       false\ncol0_sum_abs  1\ncol1_sum_abs  0.9\n"
               "secure        false\nfaithful      false\n"])

    def test_scan_table(self, capsys):
        argv = ("scan", "--grid", "0:1.5:4", "--format")
        assert self.text(capsys, *argv, "csv") == """\
phi,c_theory,c_protocol
0.0,0.0,0.0
0.5,0.17850405024728788,0.17850405024728788
1.0,0.19088664533801813,0.19088664533801813
1.5,0.03411609413587868,0.03411609413587868
"""
        assert self.text(capsys, *argv, "pretty") == """\
       phi   c_theory  c_protocol
         0          0           0
       0.5   0.178504    0.178504
         1   0.190887    0.190887
       1.5  0.0341161   0.0341161
"""

    def test_dump_stabilizers_csv_table_and_flat_pretty(self, capsys):
        assert self.text(capsys, "dump-stabilizers", "--format", "csv") == """\
label,amp0_re,amp0_im,amp1_re,amp1_im,w0,w1,w2,w3
S1_00,0.0,0.0,1.0,0.0,0.0,0.0,0.5,0.5
S1_01,0.7071067811865475,0.0,-0.7071067811865475,0.0,0.0,0.5,0.0,0.5
S1_02,0.7071067811865475,0.0,0.0,-0.7071067811865475,0.0,0.5,0.5,0.0
S1_03,0.7071067811865475,0.0,0.0,0.7071067811865475,0.5,0.0,0.0,0.5
S1_04,0.7071067811865475,0.0,0.7071067811865475,0.0,0.5,0.0,0.5,0.0
S1_05,1.0,0.0,0.0,0.0,0.5,0.5,0.0,0.0
"""
        pretty = self.text(capsys, "dump-stabilizers", "--format", "pretty").split("\n")
        assert len(pretty) == 2 + 6 * 9 + 1 and pretty[-1] == ""
        assert pretty[:3] == ["n_qubits                 1", "count                    6",
                              "states.0.label           S1_00"]
        assert pretty[-10:-1] == [
            "states.5.label           S1_05",
            "states.5.amplitudes.0.0  1", "states.5.amplitudes.0.1  0",
            "states.5.amplitudes.1.0  0", "states.5.amplitudes.1.1  0",
            "states.5.wigner.0        0.5", "states.5.wigner.1        0.5",
            "states.5.wigner.2        0", "states.5.wigner.3        0"]

    def test_experiment_out_prints_the_pretty_table_and_writes_each_format(self, capsys,
                                                                           tmp_path):
        argv = ("experiment", "--phis", f"{PI_8},1.3", "--shots", "256", "--seed", "5",
                "--boot", "100")
        texts = {fmt: self.text(capsys, *argv, "--format", fmt)
                 for fmt in ("json", "csv", "pretty")}
        header, *rows = texts["pretty"].split("\n")
        assert header == ("   phi     C_th   C(rho_C)  sigma_C  Fidelity  sigma_F  C(rho_B)"
                          "  distill>0.856")
        assert len(rows) == 3 and rows[0].startswith(" 0.3927   0.1533 ") and rows[-1] == ""
        assert rows[1].startswith("    1.3   0.1155 ") and rows[1].endswith(" 0  true")
        for fmt in ("json", "csv", "pretty"):  # --out ignores --format
            out = tmp_path / fmt / "exp"
            out.parent.mkdir()
            assert self.text(capsys, *argv, "--format", fmt, "--out", str(out)) == texts["pretty"]
            assert (tmp_path / fmt / "exp.csv").read_text() == texts["csv"]
            assert (tmp_path / fmt / "exp.json").read_text() == texts["json"]
            assert (tmp_path / fmt / "exp_curve.csv").read_text().startswith("kind,phi,")


    EXPERIMENT = ("experiment", "--phis", f"{PI_8},1.3", "--shots", "256", "--seed", "5",
                  "--boot", "100", "--format")

    def test_experiment_csv_and_json_rows_follow_the_row_fields(self, capsys):
        fields = [f.name for f in dataclasses.fields(tomo.ExperimentRow)]
        header, *lines = self.text(capsys, *self.EXPERIMENT, "csv").split("\n")
        assert header.split(",") == fields
        rows = json.loads(self.text(capsys, *self.EXPERIMENT, "json"))["rows"]
        assert [list(row) for row in rows] == [fields, fields]
        assert lines[-1] == "" and len(lines) == len(rows) + 1
        for line, row in zip(lines, rows):
            assert type(row["n_eff"]) is int
            assert line.split(",") == [format(v, ".17g") if isinstance(v, float)
                                       else str(v).lower() for v in row.values()]

    def test_experiment_csv_text(self, capsys):
        # Floats as .17g (so 0.0 is "0"), the bool in lowercase, n_eff as an int.
        assert self.text(capsys, *self.EXPERIMENT, "csv") == """\
phi,c_theory,c_charlie,sigma_c,fidelity,sigma_f,c_bob,n_eff,exceeds_distillation_threshold
0.39269908169872414,0.15328148243818829,0.1572462534092639,0.036700846026073909,\
0.99998639296442604,0.011949043237749628,0,127,true
1.3,0.11552850702089013,0.058932434472002804,0.047077662689925158,\
0.96282116931853468,0.01814407902611662,0,130,true
"""

    def test_experiment_curve_csv_text(self, capsys, tmp_path):
        self.text(capsys, *self.EXPERIMENT, "csv", "--out", str(tmp_path / "exp"))
        header, first, *_, last_curve, p0, p1, end = (
            (tmp_path / "exp_curve.csv").read_text().split("\n"))
        assert header == "kind,phi,c_theory,c_measured,sigma_c"
        assert first == "curve,0,0,,"
        # fl(2 pi) leaves 1.1e-16 unclamped; the closed form reports 0 below 1e-10.
        assert last_curve == "curve,6.2831853071795862,0,,"
        assert p0 == ("point,0.39269908169872414,0.15328148243818829,0.1572462534092639,"
                      "0.036700846026073909")
        assert p1 == "point,1.3,0.11552850702089013,0.058932434472002804,0.047077662689925158"
        assert end == ""


class TestExitCodes:
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("argv", [
        ("run", "--phi", PI_4),
        ("certify", "--phi", PI_8, "--shots", "256", "--boot", "100"),
        ("experiment", "--phis", PI_8, "--shots", "256", "--boot", "100"),
    ], ids=["run", "certify", "experiment"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, argv, seed):
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == 2 and out == ""
        assert err.startswith("mss: --seed must be ") and err.endswith(f", got {seed}\n")

    @pytest.mark.parametrize("argv", [
        ("certify", "--phi", PI_8, "--seed", "1", "--boot", "100"),
        ("experiment", "--phis", PI_8, "--seed", "1", "--boot", "100"),
    ], ids=["certify", "experiment"])
    def test_shots_beyond_int64_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--shots", str(2 ** 63))
        assert code == 2 and out == ""
        assert err == f"mss: shots must lie in [1, 2**63), got {2 ** 63}\n"

    @pytest.mark.parametrize("argv,message", [
        (("experiment", "--phis", "0.3,abc", "--seed", "1"),
         "--phis: could not parse float list '0.3,abc': could not convert string to float: 'abc'"),
        (("experiment", "--phis", "0.3", "--seed", "1", "--noise", "0,0"),
         "--noise expects p1,p2,readout"),
        (("magic-eval", "--bloch", "1,1"), "--bloch expects x,y,z"),
        (("magic-eval", "--bloch", "1,1,1"), "Bloch vector lies outside the unit ball"),
        # |b|^2 overflows a float; no numpy warning reaches stderr
        (("magic-eval", "--bloch", "1e200,0,0"), "Bloch vector lies outside the unit ball"),
    ], ids=["phis", "noise", "bloch-length", "bloch-outside-ball", "bloch-overflowing"])
    def test_malformed_or_unphysical_values_are_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, out, err) == (2, "", f"mss: {message}\n")

    def test_largest_shots_is_accepted(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--phi", PI_8, "--seed", "1",
                               "--boot", "100", "--shots", str(2 ** 63 - 1))
        assert code == 0, err

    def test_largest_seed_is_accepted(self, capsys):
        code, _, err = run_cli(capsys, "run", "--phi", PI_4, "--seed", str(2 ** 64 - 1))
        assert code == 0, err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_internal_invariant_violation_exits_1(self, capsys, monkeypatch):
        import mss.cli as cli_mod

        def broken(*args, **kwargs):
            raise RuntimeError("LP postcondition violated: fabricated for test")

        monkeypatch.setattr(cli_mod.magic, "wigner_distance", broken)
        code, _, err = run_cli(capsys, "magic-eval", "--phi", PI_4)
        assert code == 1
        assert "invariant" in err and "LP postcondition" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("command", ["run", "experiment"])
    def test_non_finite_value_exits_1_in_every_format(self, capsys, monkeypatch, command, fmt):
        """The same message in every format: JSON finds the value while
        rendering, CSV and pretty before, and both name its path."""
        import mss.cli as cli_mod

        monkeypatch.setattr(cli_mod.magic, "c_closed_form", lambda phi: math.nan)
        monkeypatch.setattr(cli_mod.tomo, "c_closed_form", lambda phi: math.inf)
        argv = (["run", "--phi", PI_4, "--outcomes", "+-"] if command == "run" else
                ["experiment", "--phis", PI_8, "--shots", "256", "--seed", "5", "--boot", "100"])
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        path = "c_theory = nan" if command == "run" else "rows.0.c_theory = inf"
        assert code == 1 and out == ""
        assert err == f"mss: internal invariant violation: non-finite number in output ({path})\n"

    def test_non_finite_experiment_writes_no_file(self, capsys, monkeypatch, tmp_path):
        import mss.cli as cli_mod

        monkeypatch.setattr(cli_mod.tomo, "c_closed_form", lambda phi: math.inf)
        out = tmp_path / "exp"
        code, _, err = run_cli(capsys, "experiment", "--phis", PI_8, "--shots", "256",
                               "--seed", "5", "--boot", "100", "--out", str(out))
        assert code == 1
        assert "internal invariant violation" in err and "non-finite" in err
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_two_calls_build_the_parser_once(self, capsys):
        cli_mod.build_parser.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "magic-eval", "--state", "T")[0] == 0
        info = cli_mod.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_flag_table(self):
        """Per subcommand: its handler, then each option string with its
        default, ``required``, ``choices`` and ``type``, in declaration order."""
        shared = [("--format", "pretty", False, ["json", "csv", "pretty"], None),
                  ("--out", None, False, None, None), ("--config", None, False, None, None),
                  ("--degrees", False, False, None, None)]
        boot, shots = cli_mod.steering.DEFAULT_N_BOOT, cli_mod.tomo.DEFAULT_SHOTS
        expected = {
            "run": ("cmd_run", [("--phi", None, True, None, float), ("--n", 3, False, None, int),
                                ("--outcomes", None, False, None, None),
                                ("--seed", None, False, None, int)]),
            "scan": ("cmd_scan", [("--grid", None, True, None, None),
                                  ("--n", 3, False, None, int)]),
            "gate-check": ("cmd_gate_check", [
                ("--matrix", None, True, None, None),
                ("--probes", "0.39269908169872414,0.7853981633974483,1.0471975511965976,1.3",
                 False, None, None)]),
            "magic-eval": ("cmd_magic_eval", [
                ("--phi", None, False, None, float), ("--bloch", None, False, None, None),
                ("--state", None, False, sorted(cli_mod.NAMED_STATES), None)]),
            "certify": ("cmd_certify", [
                ("--phi", None, True, None, float), ("--shots", None, False, None, int),
                ("--seed", None, False, None, int), ("--noise", "0,0,0", False, None, None),
                ("--boot", boot, False, None, int)]),
            "experiment": ("cmd_experiment", [
                ("--phis", None, True, None, None), ("--shots", shots, False, None, int),
                ("--noise", "0,0,0", False, None, None), ("--seed", None, True, None, int),
                ("--boot", cli_mod.tomo.DEFAULT_N_BOOT, False, None, int)]),
            "dump-stabilizers": ("cmd_dump_stabilizers", [("--n", 1, False, [1, 2], int)]),
        }
        subcommands = cli_mod.build_parser().subcommands
        assert list(subcommands) == list(expected)
        for name, parser in subcommands.items():
            handler, flags = expected[name]
            assert parser.get_default("handler") is getattr(cli_mod, handler)
            assert [(*a.option_strings, a.default, a.required, a.choices, a.type)
                    for a in parser._actions if "-h" not in a.option_strings] == flags + shared
            switch, = (a for a in parser._actions if a.option_strings == ["--degrees"])
            assert isinstance(switch, argparse._StoreTrueAction)
        outcomes, = (a for a in subcommands["run"]._actions if a.option_strings == ["--outcomes"])
        assert isinstance(outcomes, cli_mod._Outcomes)

    @pytest.mark.parametrize("argv", [
        ["run", "--phi", PI_4, "extra"], ["run", "--phi", PI_4, "--bogus=1", "x"],
        ["run", "--n", "3"], ["experiment", "--phis", PI_8], ["dump-stabilizers", "--n", "3"],
        ["magic-eval", "--state", "Q"], ["run", "--phi", "x"],
        ["certify", "--phi=1", "--shots=1.5"],
        ["-h"], ["--help"], ["run", "-h"], ["scan", "--grid=0:1:2", "--help"], [], ["frobnicate"],
        ["--", "run", "--phi", PI_4], ["run", "--phi", PI_4, "--", "x"],
        ["run", "--phi", PI_4, "--outcomes=--"], ["run", "--phi", PI_4, "--outcomes", "--"],
        ["run", "--ph", PI_4], ["run", "--phi", "-0.5"],
        ["dump-stabilizers"], ["run", "--phi", PI_4, "--config", "mss.conf"],
    ])
    def test_subcommand_parse_matches_the_full_parse(self, argv):
        assert _parsed(cli_mod._parse_args, argv) == _parsed(_full_parse, argv)

    def test_config_reparse_matches_the_full_parse(self, tmp_path):
        cfg = tmp_path / "mss.conf"
        cfg.write_text("n = 4\noutcomes = --\nformat = json\ndegrees = yes\nshots = 9\n")
        argv = ["run", "--phi", PI_4, "--n", "5", "--config", str(cfg)]
        expanded = cli_mod._with_config(_full_parse(argv), argv)
        assert expanded[1:5] == ["--n=4", "--outcomes=--", "--format=json", "--degrees"]
        assert _parsed(cli_mod._parse_args, expanded) == _parsed(_full_parse, expanded)
        assert _full_parse(expanded).n == 5

    @settings(PROPERTY, max_examples=200)
    @given(st.data())
    def test_drawn_argv_parses_as_the_full_parser_does(self, data):
        """Flags in any order, a required one dropped, junk added: the same
        Namespace, or the same exit with the same text."""
        command = data.draw(st.sampled_from(sorted(_COMMANDS)))
        required, optional = _COMMANDS[command]
        optional = {**optional, **_COMMON}
        keys = data.draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
        tokens = [required[i:i + 2] for i in range(0, len(required), 2)]
        tokens += [_as_flags({k: data.draw(optional[k])}) for k in keys]
        tokens = data.draw(st.permutations(tokens))
        if tokens and data.draw(st.booleans()):
            tokens = tokens[:-1]
        junk = data.draw(st.lists(st.sampled_from(
            ["--bogus", "x", "--", "-1", "--n", "-h", "--format=xml", "--seed=abc", "run"]),
            max_size=2))
        argv = [command, *(t for token in tokens for t in token), *junk]
        assert _parsed(cli_mod._parse_args, argv) == _parsed(_full_parse, argv)


def _full_parse(argv):
    return cli_mod.build_parser().parse_args(argv)


def _parsed(parse, argv):
    """``parse(argv)``'s Namespace or exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1, 1e-7, 1.7976931348623157e308])
_INTS = st.integers() | st.sampled_from([2 ** 63, -2 ** 63 - 1, 3 ** 90])
_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "é ü", "\u2028", "😀", "\ud800"])
_KEYS = _STRINGS | _INTS | _FLOATS | st.booleans() | st.none()
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _FLOATS.map(np.float64) | _STRINGS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_KEYS, inner),
    max_leaves=40)


# One real payload per schema in src/mss/schemas/.
_SCHEMA_CASES = {
    "run": ["run", "--phi", PI_4, "--n", "5", "--outcomes", "+--+"],
    "scan": ["scan", "--grid", "0.1:1.2:3"],
    "gate-check": ["gate-check", "--matrix", "1,0,0,0,0,0,0.9,0"],
    "magic-eval": ["magic-eval", "--bloch", "0.5,0.5,0.5"],
    "certify": ["certify", "--phi", PI_8, "--shots", "256", "--seed", "2", "--boot", "100"],
    "experiment": ["experiment", "--phis", f"{PI_8},1.3", "--shots", "256", "--seed", "5",
                   "--boot", "100"],
    "dump-stabilizers": ["dump-stabilizers", "--n", "2"],
}


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestJsonText:
    """``_json_text`` against its oracle, ``json.dumps(indent=2, allow_nan=False)``."""

    @settings(PROPERTY)
    @given(_PAYLOADS)
    def test_drawn_payloads_render_as_json_dumps(self, payload):
        assert cli_mod._json_text(payload) == _dumps(payload)

    @pytest.mark.parametrize("command", sorted(
        path.name.removesuffix(".schema.json") for path in SCHEMA_DIR.glob("*.schema.json")))
    def test_every_command_payload_renders_as_json_dumps(self, command):
        args = _full_parse(_SCHEMA_CASES[command])
        payload = args.handler(args).payload
        assert cli_mod._json_text(payload) == _dumps(payload)

    @pytest.mark.parametrize("payload", [
        object(), [1, {"a": {1, 2}}], {"a": [b"x"]}, (1j,), {"v": np.int64(3)}, [np.float32(0.5)],
        [np.bool_(True)], {(1, 2): 0}, [{b"k": 1}], {"a": {frozenset(): 1}}, {np.float32(1.0): 2},
    ], ids=["object", "set", "bytes", "complex", "int64", "float32", "bool_",
            "tuple-key", "bytes-key", "frozenset-key", "float32-key"])
    def test_unsupported_values_and_keys_raise_type_error_as_json_does(self, payload):
        with pytest.raises(TypeError) as want:
            _dumps(payload)
        with pytest.raises(TypeError) as got:
            cli_mod._json_text(payload)
        assert str(got.value) == str(want.value)

    @settings(PROPERTY)
    @given(_PAYLOADS, st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=5),
           st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))
    def test_non_finite_value_at_any_depth_is_named_as_require_finite_does(self, payload,
                                                                           nesting, bad):
        value = bad
        for kind in nesting:
            value = {"before": payload, "bad": value} if kind == "dict" else (
                [payload, value] if kind == "list" else (payload, value))
        with pytest.raises(RuntimeError) as want:
            cli_mod._require_finite(value)
        with pytest.raises(RuntimeError) as got:
            cli_mod._json_text(value)
        assert str(got.value) == str(want.value)

    def test_non_finite_key_is_rejected_as_json_does(self):
        payload = {"a": 1.0, math.inf: 2.0}
        with pytest.raises(ValueError) as want:
            _dumps(payload)
        with pytest.raises(ValueError) as got:
            cli_mod._json_text(payload)
        assert str(got.value) == str(want.value)


# Per subcommand: the required argv and a strategy per optional flag (a switch
# draws True).  --out and --config are left out: stdout is what is compared.
_ANGLES = st.sampled_from([PI_8, "0.3", "-0.7", "22.5"])
_NOISE = st.sampled_from(["0,0,0", "0.003,0.015,0.01"])
_COMMON = {"format": st.sampled_from(["json", "csv", "pretty"]), "degrees": st.just(True)}
_COMMANDS = {
    "run": (["--phi", PI_4], {"n": st.sampled_from(["3", "4", "6"]),
                              "outcomes": st.sampled_from(["++", "+-", "--", "-+-", "+"]),
                              "seed": st.sampled_from(["1", "7"])}),
    "scan": (["--grid", "0.1:1.2:3"], {"n": st.sampled_from(["3", "5"])}),
    "gate-check": (["--matrix", "1,0,0,0,0,0,0.7071067811865476,0.7071067811865476"],
                   {"probes": st.sampled_from(["0.3,1.1", PI_8, "-0.5,2"])}),
    "magic-eval": ([], {"phi": _ANGLES, "bloch": st.sampled_from(["0.5,0.5,0.5", "0,0,1"]),
                        "state": st.sampled_from(["T", "mixed", "plus_i"])}),
    "certify": (["--phi", PI_8], {"shots": st.sampled_from(["128", "256"]),
                                  "seed": st.sampled_from(["1", "2"]), "noise": _NOISE,
                                  "boot": st.sampled_from(["100", "130"])}),
    "experiment": (["--phis", PI_8, "--seed", "5"], {"shots": st.sampled_from(["128", "256"]),
                                                     "noise": _NOISE,
                                                     "boot": st.sampled_from(["100", "120"])}),
}


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _as_flags(flags: dict) -> list[str]:
    return [f"--{k}" if v is True else f"--{k}={v}" for k, v in flags.items()]


def _argv_with_config_file(argv: list[str], flags: dict, path: Path) -> list[str]:
    path.write_text("".join(f"{k} = {'true' if v is True else v}\n" for k, v in flags.items()))
    return argv + ["--config", str(path)]


class TestConfigEquivalence:
    @settings(PROPERTY, max_examples=50)
    @given(st.data())
    def test_config_entries_act_as_flags(self, data):
        command = data.draw(st.sampled_from(sorted(_COMMANDS)))
        required, optional = _COMMANDS[command]
        optional = {**optional, **_COMMON}
        keys = data.draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
        flags = {k: data.draw(optional[k]) for k in keys}
        decoys = {k: data.draw(optional[k]) for k in keys}
        argv = [command, *required]
        with tempfile.TemporaryDirectory() as directory:
            by_flags = _call(argv + _as_flags(flags))
            by_config = _call(_argv_with_config_file(argv, flags, Path(directory) / "a.conf"))
            overridden = _call(_argv_with_config_file(argv + _as_flags(flags), decoys,
                                                      Path(directory) / "b.conf"))
        assert by_config == by_flags
        assert overridden == by_flags  # command-line flags win over config entries
        if by_flags[0] == 0:  # the same run rendered as JSON matches its schema
            code, out = _call(argv + _as_flags(flags) + ["--format=json"])
            assert code == 0
            validate(command, json.loads(out))
