"""End-to-end CLI tests: exit codes, formats, schema validation, determinism."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mss.cli as cli_mod
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
        code, out, err = run_cli(capsys, "run", "--phi", "inf", "--outcomes", "++")
        assert code == 2 and out == ""
        assert "non-finite" in err

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

    def test_non_unitary_diagonal(self, capsys):
        payload = run_json(capsys, "gate-check", "--matrix", "1,0,0,0,0,0,0.9,0")
        validate("gate-check", payload)
        assert payload == {**payload, "unitary": False, "secure": False}
        assert payload["col1_sum_abs"] == pytest.approx(0.9)

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


class TestParser:
    def test_two_calls_build_the_parser_once(self, capsys):
        cli_mod.build_parser.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "magic-eval", "--state", "T")[0] == 0
        info = cli_mod.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


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
