"""End-to-end CLI tests: exit codes, formats, schema validation, determinism."""

import json
import math
from pathlib import Path

import pytest

from mss.cli import main

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

    def test_degrees_flag(self, capsys):
        payload = run_json(capsys, "run", "--phi", "45", "--outcomes", "++", "--degrees")
        assert payload["phi"] == pytest.approx(math.pi / 4, abs=1e-12)

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


class TestGateCheck:
    def test_phase_gate_matrix(self, capsys):
        payload = run_json(capsys, "gate-check", "--matrix",
                           "1,0,0,0,0,0,0.7071067811865476,0.7071067811865476")
        validate("gate-check", payload)
        assert payload["unitary"] and payload["secure"]
        assert not payload["faithful"]  # a fixed matrix cannot vary with phi

    def test_non_unitary_diagonal(self, capsys):
        payload = run_json(capsys, "gate-check", "--matrix", "1,0,0,0,0,0,0.9,0")
        validate("gate-check", payload)
        assert payload == {**payload, "unitary": False, "secure": False}
        assert payload["col1_sum_abs"] == pytest.approx(0.9)

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


class TestExitCodes:
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

    def test_non_finite_json_value_exits_1(self, capsys, monkeypatch):
        import mss.cli as cli_mod

        monkeypatch.setattr(cli_mod.magic, "c_closed_form", lambda phi: math.nan)
        code, out, err = run_cli(capsys, "run", "--phi", PI_4, "--outcomes", "+-",
                                 "--format", "json")
        assert code == 1 and out == ""
        assert "internal invariant violation" in err and "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "pretty"])
    @pytest.mark.parametrize("command", ["run", "experiment"])
    def test_non_finite_value_exits_1_in_every_format(self, capsys, monkeypatch, command, fmt):
        import mss.cli as cli_mod

        monkeypatch.setattr(cli_mod.magic, "c_closed_form", lambda phi: math.nan)
        monkeypatch.setattr(cli_mod.tomo, "c_closed_form", lambda phi: math.inf)
        argv = (["run", "--phi", PI_4, "--outcomes", "+-"] if command == "run" else
                ["experiment", "--phis", PI_8, "--shots", "256", "--seed", "5", "--boot", "100"])
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1 and out == ""
        assert "internal invariant violation" in err and "non-finite" in err

    def test_non_finite_experiment_writes_no_file(self, capsys, monkeypatch, tmp_path):
        import mss.cli as cli_mod

        monkeypatch.setattr(cli_mod.tomo, "c_closed_form", lambda phi: math.inf)
        out = tmp_path / "exp"
        code, _, err = run_cli(capsys, "experiment", "--phis", PI_8, "--shots", "256",
                               "--seed", "5", "--boot", "100", "--out", str(out))
        assert code == 1
        assert "internal invariant violation" in err and "non-finite" in err
        assert list(tmp_path.iterdir()) == []
