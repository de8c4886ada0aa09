"""End-to-end command-line tests: one happy path per subcommand plus the
exit-code contract and config-file splicing."""

import json
import math

import pytest

from beammodes import ModeParams, period_of
from beammodes.cli import EXIT_DOMAIN, EXIT_OK, EXIT_QUALITY, main
from beammodes.twomode import CSV_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    return json.loads(out)


class TestModeCommands:
    def test_period(self, capsys):
        payload = run_json(capsys, "mode", "period",
                           "--k", "1", "--P", "0", "--E", "0.5")
        want = period_of(ModeParams(k=1, P=0.0), 0.5)
        assert payload["period"] == pytest.approx(want, rel=1e-12)

    def test_orbit_summary(self, capsys):
        payload = run_json(capsys, "mode", "orbit",
                           "--k", "1", "--P", "0", "--E", "0.5")
        assert payload["regime"] == "positive"
        assert payload["amplitude"] > 0.0
        assert payload["turning_sq"]["hi"] > 0.0
        assert len(payload["initial_state"]) == 2

    def test_orbit_trajectory_csv(self, capsys):
        code, out = run(capsys, "mode", "orbit", "--k", "1", "--P", "0",
                        "--E", "0.5", "--samples", "17")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,theta,theta_dot"
        assert len(lines) == 18

    def test_homoclinic_value(self, capsys):
        payload = run_json(capsys, "mode", "homoclinic",
                           "--k", "1", "--P", "2", "--t", "0")
        assert payload["theta"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_homoclinic_csv(self, capsys):
        code, out = run(capsys, "mode", "homoclinic", "--k", "1", "--P", "2",
                        "--samples", "5", "--t-min", "-1", "--t-max", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,theta"
        assert len(lines) == 6


class TestHillCommands:
    def test_classify(self, capsys):
        payload = run_json(capsys, "hill", "classify", "--m", "2", "--n", "1",
                           "--P", "0", "--E", "1")
        assert payload["verdict"] == "stable"
        assert abs(payload["monodromy"]["trace"]) < 2.0

    def test_criteria(self, capsys):
        payload = run_json(capsys, "hill", "criteria", "--m", "2", "--n", "1",
                           "--P", "3", "--E", "1")
        assert payload["coeff_period"] > 0.0
        assert payload["negative_coefficient"]["applies"] is True


class TestTwomodeCommand:
    def test_simulate_json_with_transfer(self, capsys):
        payload = run_json(capsys, "twomode", "simulate", "--m", "1", "--n", "2",
                           "--P", "0", "--w0", "1.2", "--z1", "1e-4",
                           "--t-end", "20")
        assert payload["total_energy"] > 0.0
        assert abs(payload["energy_drift"]) < 1e-6
        assert "transfer" in payload
        assert payload["transfer"]["max_ratio"] > 0.0

    def test_simulate_csv(self, capsys):
        code, out = run(capsys, "twomode", "simulate", "--m", "1", "--n", "2",
                        "--P", "0", "--w0", "1.0", "--t-end", "5",
                        "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)


class TestRegimeCommands:
    def test_table(self, capsys):
        payload = run_json(capsys, "regime", "table", "--m", "1", "--n", "2",
                           "--P", "0")
        assert payload["high_energy_resolved"] == "S"

    def test_gamma_pair_and_value(self, capsys):
        a = run_json(capsys, "regime", "gamma", "--m", "1", "--n", "2")
        b = run_json(capsys, "regime", "gamma", "--gamma", "4.0")
        assert a["membership"] == b["membership"] == "I_S"

    def test_gamma_needs_arguments(self, capsys):
        code, _ = run(capsys, "regime", "gamma")
        assert code == EXIT_DOMAIN

    def test_resonance(self, capsys):
        payload = run_json(capsys, "regime", "resonance", "--m", "1",
                           "--n", "2", "--P", "0")
        assert payload["ell"] == 4

    def test_cazenave(self, capsys):
        payload = run_json(capsys, "regime", "cazenave", "--gamma", "2.25")
        assert payload["verdict"] == "unstable"


class TestScanAndStationary:
    def test_scan_json(self, capsys):
        payload = run_json(capsys, "scan", "quartic", "--n-max", "50")
        assert payload["hits"] == []

    def test_scan_csv(self, capsys):
        code, out = run(capsys, "scan", "quartic", "--n-max", "50",
                        "--format", "csv")
        assert code == EXIT_OK
        assert out.strip() == "m,n,L"

    def test_stationary_json(self, capsys):
        payload = run_json(capsys, "stationary", "--P", "5")
        assert payload["count"] == 5
        assert payload["solutions"][0]["morse_index"] == 2

    def test_stationary_csv(self, capsys):
        code, out = run(capsys, "stationary", "--P", "5", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "j,sign,amplitude,energy,morse_index"
        assert len(lines) == 6


class TestAtlasCommands:
    def test_sweep_csv_stdout(self, capsys):
        code, out = run(capsys, "atlas", "sweep", "--m", "2", "--n", "1",
                        "--P", "0", "--grid-min", "0.2", "--grid-max", "0.8",
                        "--points", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,m,n,P,theta0,E,trace,verdict,quality"
        assert len(lines) == 4
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_sweep_out_file(self, capsys, tmp_path):
        target = tmp_path / "cells.csv"
        code, out = run(capsys, "atlas", "sweep", "--m", "2", "--n", "1",
                        "--P", "0", "--grid-min", "0.2", "--grid-max", "0.8",
                        "--points", "3", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().splitlines()[0].startswith("gamma,")

    def test_sweep_adaptive(self, capsys):
        code, out = run(capsys, "atlas", "sweep", "--m", "1", "--n", "2",
                        "--P", "0", "--grid-min", "0", "--grid-max", "4",
                        "--points", "12", "--adaptive")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 13

    def test_adaptive_rejects_multiple_pairs(self, capsys):
        code, _ = run(capsys, "atlas", "sweep", "--pairs", "1:2,2:1",
                      "--P", "0", "--grid-min", "0", "--grid-max", "4",
                      "--points", "12", "--adaptive")
        assert code == EXIT_DOMAIN

    def test_all_cells_failing_is_quality_exit(self, capsys):
        code, _ = run(capsys, "atlas", "sweep", "--pairs", "2:2",
                      "--P", "0", "--grid-min", "0.2", "--grid-max", "0.8",
                      "--points", "2")
        assert code == EXIT_QUALITY

    def test_thresholds(self, capsys):
        payload = run_json(capsys, "atlas", "thresholds", "--m", "2", "--n", "1",
                           "--P", "3", "--e-min", "4", "--e-max", "8",
                           "--points", "2")
        assert len(payload["thresholds"]) == 1
        assert 6.0 < payload["thresholds"][0] < 7.0


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _ = run(capsys, "mode", "period", "--k", "1", "--P", "2",
                      "--E", "-5")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--margin", "nan"), ("--margin", "-1"),
    ])
    def test_bad_tolerance_or_margin_is_one(self, capsys, flag, value):
        code = main(["hill", "classify", "--m", "1", "--n", "2", "--P", "0",
                     "--E", "1", flag, value])
        assert code == EXIT_DOMAIN
        assert flag.lstrip("-") in capsys.readouterr().err

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mode", "period", "--k", "1"])
        assert excinfo.value.code == 2

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=1\nP=0\nE=0.5\n")
        payload = run_json(capsys, "--config", str(cfg), "mode", "period")
        assert payload["E"] == 0.5

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=1\nP=0\nE=0.5\n")
        payload = run_json(capsys, "--config", str(cfg), "mode", "period",
                           "--E", "2.0")
        assert payload["E"] == 2.0

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# period query\n\nk=1\nP=0\nE=0.5\n")
        payload = run_json(capsys, "--config", str(cfg), "mode", "period")
        assert payload["period"] > 0.0

    def test_missing_config_file_is_domain_error(self, capsys, tmp_path):
        code, _ = run(capsys, "--config", str(tmp_path / "absent.cfg"),
                      "mode", "period", "--k", "1", "--P", "0", "--E", "0.5")
        assert code == EXIT_DOMAIN

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k 1\n")
        code, _ = run(capsys, "--config", str(cfg), "mode", "period")
        assert code == EXIT_DOMAIN
