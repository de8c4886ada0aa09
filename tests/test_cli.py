"""End-to-end command-line tests: one happy path per subcommand, the exact
output format, the flags of every subcommand, the exit-code contract and
config-file splicing."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beammodes.hill
from beammodes import (ModeParams, classify_stability, period_of,
                       stationary_catalog, table_regime)
from beammodes import integrate as integrate_module
from beammodes.atlas import SweepSpec, find_thresholds, sweep
from beammodes.cli import EXIT_DOMAIN, EXIT_OK, EXIT_QUALITY, build_parser, main
from beammodes.duffing import homoclinic, orbit_from_energy
from beammodes.hill import build_hill, criteria_report, monodromy
from beammodes.regime import (cazenave_limit_classify, classify_gamma_value,
                              resonance_diagnostics, resonance_quartic_scan)
from beammodes.twomode import CSV_COLUMNS, TwoModeConfig, simulate, transfer_report


# Input that once ended in a traceback or printed numpy warnings before its
# error line: pair entries with m < 1, log grids with an end that is not
# positive, and an integration whose initial-step probe overflows.
REFUSED = [
    (["atlas", "sweep", "--axis", "energy", "--m", "0", "--n", "2", "--P", "0",
      "--grid-min", "1", "--grid-max", "2", "--points", "2"], "m must be"),
    (["atlas", "thresholds", "--m", "0", "--n", "2", "--P", "0",
      "--e-min", "1", "--e-max", "2", "--points", "2"], "m must be"),
    *[(["atlas", "sweep", "--m", "1", "--n", "2", "--P", "0", "--spacing", "log",
        "--grid-min", "1", "--grid-max", end, "--points", "3"], "grid end")
      for end in ("0", "-1")],
    (["atlas", "thresholds", "--m", "2", "--n", "1", "--P", "3", "--e-min", "4",
      "--e-max", "-1", "--points", "3", "--spacing", "log"], "grid end"),
    (["twomode", "simulate", "--m", "2", "--n", "1", "--P", "3", "--w0", "1e70",
      "--z1", "1e-4", "--t-end", "1"], "overflow"),
    *[(["atlas", "sweep", "--m", "1", "--n", "2", "--P", "0", "--grid-min", start,
        "--grid-max", "2", "--points", "8", "--adaptive"], "theta0_min")
      for start in ("nan", "-1")],
    (["mode", "period", "--k", "1", "--P", "1e160", "--E", "1"], "finite"),
    (["mode", "period", "--k", "1", "--P=-1e200", "--E", "1"], "finite"),
    (["mode", "period", "--k", "1", "--P", "0", "--E", "1e308"], "finite"),
    (["mode", "orbit", "--k", "1", "--P", "0", "--E", "1e308"], "finite"),
    (["hill", "classify", "--m", "1", "--n", "2", "--P", "0", "--E", "1e308"], "finite"),
    (["hill", "classify", "--m", "1", "--n", "2", "--P=-1e200", "--E", "1"], "finite"),
    (["mode", "orbit", "--k", "1", "--P", "0", "--E", "0.5",
      "--samples", "1000000000000"], "--samples"),
    (["mode", "homoclinic", "--k", "1", "--P", "2", "--samples", "1000000000000"],
     "--samples"),
    *[(["atlas", "sweep", "--m", "1", "--n", "2", "--P", "0", "--grid-min", "0",
        "--grid-max", "2", "--points", "1000000000000", *extra], message)
      for extra, message in (([], "points"), (["--adaptive"], "budget"))],
    (["atlas", "thresholds", "--m", "2", "--n", "1", "--P", "3", "--e-min", "4",
      "--e-max", "8", "--points", "1000000000000"], "points"),
    (["mode", "period", "--k", str(10**160), "--P", "0", "--E", "1"], "finite"),
]


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

    def test_orbit_trajectory_csv(self, capsys, monkeypatch):
        """The samples come from the closed-form orbit: nothing integrates."""
        def refuse(*args, **kwargs):
            raise AssertionError("mode orbit --samples integrated")

        monkeypatch.setattr(integrate_module, "integrate", refuse)
        monkeypatch.setattr(integrate_module, "_accepted_steps", refuse)
        code, out = run(capsys, "mode", "orbit", "--k", "1", "--P", "0",
                        "--E", "0.5", "--samples", "17", "--periods", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,theta,theta_dot"
        assert len(lines) == 18
        orbit = orbit_from_energy(ModeParams(k=1, P=0.0), 0.5)
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows[-1][0] == 2.0 * orbit.period
        assert [r[1:] for r in rows] == orbit.states([r[0] for r in rows]).tolist()

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
        assert [float(v) for v in lines[3].split(",")] == [0.0, math.sqrt(2.0)]


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

    @pytest.mark.parametrize("argv,message", [
        (["mode", "period", "--k", "1", "--P", "0", "--E", "nan"], "finite"),
        (["mode", "period", "--k", "1", "--P", "0", "--E", "inf"], "finite"),
        (["mode", "orbit", "--k", "1", "--P", "0", "--E", "0.5",
          "--samples", "-3"], "--samples"),
        (["mode", "homoclinic", "--k", "1", "--P", "2", "--samples", "-3"],
         "--samples"),
        *[(["mode", "orbit", "--k", "1", "--P", "0", "--E", "0.5",
            "--samples", "5", "--periods", periods], "--periods")
          for periods in ("nan", "inf", "0", "-1")],
        (["atlas", "sweep", "--m", "1", "--n", "2", "--P", "0",
          "--grid-min", "nan", "--grid-max", "1", "--points", "3"], "finite"),
        (["atlas", "thresholds", "--m", "2", "--n", "1", "--P", "3",
          "--e-min", "4", "--e-max", "inf", "--points", "2"], "finite"),
        (["atlas", "thresholds", "--m", "2", "--n", "1", "--P", "3",
          "--e-min", "4", "--e-max", "8", "--points", "2", "--refine-tol", "nan"],
         "refinement_tol"),
        (["twomode", "simulate", "--m", "2", "--n", "1", "--P", "3",
          "--w0", "1", "--z1", "1e-4", "--t-end", "inf"], "t_end"),
        (["twomode", "simulate", "--m", "2", "--n", "1", "--P", "3",
          "--w0", "1", "--z1", "1e-4", "--t-end", "1", "--threshold", "nan"],
         "threshold"),
        (["stationary", "--P", "inf"], "finite"),
        (["stationary", "--P", "1e18"], "at most"),
        (["regime", "table", "--m", "2", "--n", "1", "--P", "nan"], "finite"),
        (["regime", "table", "--m", "2", "--n", "1", "--P", "inf"], "finite"),
        (["regime", "resonance", "--m", "1", "--n", "2", "--P", "nan"], "finite"),
        (["mode", "homoclinic", "--k", "1", "--P", "2", "--t", "nan"], "finite"),
        (["mode", "homoclinic", "--k", "1", "--P", "2", "--t-max", "inf",
          "--samples", "3"], "finite"),
        *[(["atlas", "sweep", "--m", "1", "--n", "2", "--P", "nan",
            "--grid-min", "1", "--grid-max", "2", "--points", "2", *extra], "finite")
          for extra in ([], ["--axis", "energy"],
                        ["--axis", "energy", "--source", "cazenave"])],
        *[(["twomode", "simulate", "--m", "2", "--n", "1", "--P", "3",
            *data, "--t-end", "1"], message)
          for data, message in ((["--w0", "nan"], "finite"),
                                (["--z1", "inf"], "finite"),
                                (["--w0", "1e200"], "energy"))],
        *REFUSED,
    ])
    def test_unservable_input_is_one(self, capsys, argv, message):
        assert main(argv) == EXIT_DOMAIN
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", REFUSED)
    def test_refusal_is_one_stderr_line(self, argv, message):
        """A real CLI run, whose stderr also shows any warning numpy or
        scipy prints (in process, pytest turns those into errors)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "beammodes.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_DOMAIN
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") \
            and message in lines[0], done.stderr

    @pytest.mark.parametrize("extra", [[], ["--adaptive"]])
    def test_sweep_checks_margin_before_any_cell(self, capsys, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell was integrated")

        monkeypatch.setattr(beammodes.hill, "integrate", refuse)
        code = main(["atlas", "sweep", "--m", "1", "--n", "2", "--P", "0",
                     "--grid-min", "0.5", "--grid-max", "1", "--points", "3",
                     "--margin", "nan", *extra])
        assert code == EXIT_DOMAIN
        assert "tol_margin" in capsys.readouterr().err

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


# The JSON each command printed before the result classes shared one
# to_dict rule, spelled out field by field from the library results.

def _monodromy(result):
    return {"matrix": result.matrix.tolist(), "det": result.det,
            "trace": result.trace,
            "multipliers": [[z.real, z.imag] for z in result.multipliers],
            "verdict": result.verdict.value}


def _criteria(report):
    return {"zhukovskii": {"applies": report.zhukovskii.applies,
                           "ell": report.zhukovskii.ell},
            "li_zhang": {"applies": report.li_zhang.applies,
                         "lhs": report.li_zhang.lhs, "rhs": report.li_zhang.rhs},
            "negative_coefficient": {"applies": report.negative_coefficient.applies}}


def _gamma_class(g):
    return {"gamma": g.gamma, "membership": g.membership.value, "k_index": g.k_index}


def _mode_period():
    return {"k": 1, "P": 2.0, "E": -0.1,
            "period": period_of(ModeParams(k=1, P=2.0), -0.1)}


def _mode_orbit():
    orbit = orbit_from_energy(ModeParams(k=1, P=2.0), -0.1, sign=-1)
    return {"k": 1, "P": 2.0, "E": -0.1, "regime": "negative-well",
            "amplitude": orbit.amplitude,
            "turning_sq": {"lo": orbit.sq_lo, "hi": orbit.sq_hi},
            "modulus": orbit.modulus, "period": orbit.period,
            "coefficient_period": orbit.coefficient_period,
            "initial_state": list(orbit.initial_state)}


def _mode_homoclinic():
    return {"k": 1, "P": 2.0, "t": 0.3,
            "theta": homoclinic(ModeParams(k=1, P=2.0), 0.3)}


def _hill_classify():
    report = classify_stability(2, 1, 3.0, 1.0)
    return {"m": 2, "n": 1, "P": 3.0, "E": 1.0, "verdict": report.verdict.value,
            "criteria": _criteria(report.criteria),
            "monodromy": _monodromy(report.monodromy)}


def _hill_criteria():
    problem = build_hill(1, 2, 0.0, 1.0)
    report = criteria_report(problem, monodromy(problem))
    return {"m": 1, "n": 2, "P": 0.0, "E": 1.0,
            "coeff_period": problem.coeff_period, **_criteria(report)}


def _twomode_simulate():
    result = simulate(TwoModeConfig(m=2, n=1, P=3.0, w0=1.06, w1=0.0, z0=0.0,
                                    z1=1.4e-4), 5.0)
    transfer = transfer_report(result.channels)
    return {"m": 2, "n": 1, "P": 3.0, "t_end": 5.0,
            "total_energy": result.channels.total,
            "energy_drift": result.channels.drift,
            "samples": len(result.trajectory.times),
            "transfer": {"max_ratio": transfer.max_ratio,
                         "time_of_max": transfer.time_of_max,
                         "threshold": transfer.threshold,
                         "verdict": transfer.verdict.value}}


def _regime_table():
    r = table_regime(2, 1, 3.0)
    return {"m": 2, "n": 1, "P": 3.0, "ordering": r.ordering.value,
            "low_energy": r.low_energy.value, "high_energy": r.high_energy.value,
            "high_energy_resolved": r.high_energy_resolved,
            "gamma_class": _gamma_class(r.gamma_class),
            "mechanisms": list(r.mechanisms)}


def _regime_resonance():
    d = resonance_diagnostics(1, 3, 4.0)
    return {"m": 1, "n": 3, "P": 4.0, "ell": d.ell, "mu": d.mu, "L": d.L,
            "L_is_integer": d.L_is_integer, "quartic_value": d.quartic_value}


def _scan_quartic():
    return {"n_max": 30, "hits": [{"m": m, "n": n, "L": L}
                                  for m, n, L in resonance_quartic_scan(30)]}


def _stationary():
    catalog = stationary_catalog(5.0)
    return {"P": 5.0, "count": len(catalog), "solutions": [
        {"j": s.j, "sign": s.sign, "amplitude": s.amplitude,
         "energy": s.energy, "morse_index": s.morse_index} for s in catalog]}


def _atlas_thresholds():
    return {"m": 2, "n": 1, "P": 3.0, "grid": [4.0, 8.0, 2],
            "thresholds": find_thresholds(2, 1, 3.0, [4.0, 8.0])}


JSON_COMMANDS = {
    "mode period": (["--k", "1", "--P", "2", "--E", "-0.1"], _mode_period),
    "mode orbit": (["--k", "1", "--P", "2", "--E", "-0.1", "--sign", "-1"],
                   _mode_orbit),
    "mode homoclinic": (["--k", "1", "--P", "2", "--t", "0.3"], _mode_homoclinic),
    "hill classify": (["--m", "2", "--n", "1", "--P", "3", "--E", "1"],
                      _hill_classify),
    "hill criteria": (["--m", "1", "--n", "2", "--P", "0", "--E", "1"],
                      _hill_criteria),
    "twomode simulate": (["--m", "2", "--n", "1", "--P", "3", "--w0", "1.06",
                          "--z1", "1.4e-4", "--t-end", "5"], _twomode_simulate),
    "regime table": (["--m", "2", "--n", "1", "--P", "3"], _regime_table),
    "regime gamma": (["--gamma", "2.25"],
                     lambda: _gamma_class(classify_gamma_value(2.25))),
    "regime resonance": (["--m", "1", "--n", "3", "--P", "4"], _regime_resonance),
    "regime cazenave": (["--gamma", "2.25"], lambda: {
        "gamma": 2.25, **_monodromy(cazenave_limit_classify(2.25))}),
    "scan quartic": (["--n-max", "30"], _scan_quartic),
    "stationary": (["--P", "5"], _stationary),
    "atlas thresholds": (["--m", "2", "--n", "1", "--P", "3", "--e-min", "4",
                          "--e-max", "8", "--points", "2"], _atlas_thresholds),
}


class TestOutputFormat:
    @pytest.mark.parametrize("command", JSON_COMMANDS)
    def test_json_is_indented_dump_of_the_result(self, capsys, command):
        flags, expected = JSON_COMMANDS[command]
        code, out = run(capsys, *command.split(), *flags)
        assert code == EXIT_OK
        assert out == json.dumps(expected(), indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["regime", "table", "--m", "2", "--n", "1", "--P", "3"],
        ["stationary", "--P", "5", "--format", "csv"],
    ])
    def test_out_file_gets_the_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "result"
        _, out = run(capsys, *argv)
        code, rest = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_OK and rest == ""
        assert target.read_bytes() == out.encode()


# CSV text as each command printed it when it built its own lines.
CSV_COMMANDS = {
    "mode orbit": (["--k", "1", "--P", "0", "--E", "0.5", "--samples", "5"], (
        "t,theta,theta_dot\n"
        "0.0,0.8555996771673524,-0.0\n"
        "1.2654142526979342,2.2820443198153747e-16,-0.9999999999999999\n"
        "2.5308285053958683,-0.8555996771673524,-6.76371515702658e-16\n"
        "3.7962427580938023,-8.634897059627932e-16,0.9999999999999999\n"
        "5.061657010791737,0.8555996771673524,1.352743031405316e-15\n")),
    "mode homoclinic": (["--k", "1", "--P", "2", "--samples", "5"], (
        "t,theta\n"
        "-5.0,0.01905692687417395\n"
        "-2.5,0.2306175478282632\n"
        "0.0,1.4142135623730951\n"
        "2.5,0.2306175478282632\n"
        "5.0,0.01905692687417395\n")),
    "scan quartic": (["--n-max", "30", "--format", "csv"], "m,n,L\n"),
    "stationary": (["--P", "5", "--format", "csv"], (
        "j,sign,amplitude,energy,morse_index\n"
        "0,0,0.0,0.0,2\n"
        "1,1,2.0,-6.283185307179586,0\n"
        "1,-1,2.0,-6.283185307179586,0\n"
        "2,1,0.5,-0.39269908169872414,1\n"
        "2,-1,0.5,-0.39269908169872414,1\n")),
}


class TestCsvFormat:
    @pytest.mark.parametrize("command", CSV_COMMANDS)
    def test_csv_text_is_unchanged(self, capsys, command):
        flags, expected = CSV_COMMANDS[command]
        assert run(capsys, *command.split(), *flags) == (EXIT_OK, expected)

    def test_simulation_floats_are_the_library_values(self, capsys):
        code, out = run(capsys, "twomode", "simulate", "--m", "2", "--n", "1",
                        "--P", "3", "--w0", "1.06", "--z1", "1.4e-4",
                        "--t-end", "5", "--format", "csv")
        assert code == EXIT_OK
        header, *rows = csv.reader(out.splitlines())
        assert header == list(CSV_COLUMNS)
        result = simulate(TwoModeConfig(m=2, n=1, P=3.0, w0=1.06, w1=0.0,
                                        z0=0.0, z1=1.4e-4), 5.0)
        ch, states = result.channels, result.trajectory.states
        assert len(rows) == len(ch.times)
        for i, row in enumerate(rows):
            assert [float(v) for v in row] == [
                ch.times[i], *states[i], ch.e_w[i], ch.e_z[i], ch.e_wz[i]]

    def test_sweep_fields_are_the_library_values(self, capsys):
        code, out = run(capsys, "atlas", "sweep", "--m", "2", "--n", "1",
                        "--P", "0", "--grid-min", "0.2", "--grid-max", "0.8",
                        "--points", "3")
        assert code == EXIT_OK
        _, *rows = csv.reader(out.splitlines())
        cells = sweep(SweepSpec(P=0.0, modes=[(2, 1)],
                                theta0_grid=np.linspace(0.2, 0.8, 3).tolist()))
        assert len(rows) == len(cells) == 3
        for row, c in zip(rows, cells):
            assert [float(row[0]), int(row[1]), int(row[2]), *map(float, row[3:7]),
                    *row[7:]] == [c.gamma, c.m, c.n, c.P, c.theta0, c.E, c.trace,
                                  c.verdict, c.quality]


def _leaves(parser, words=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, words + (name,))
            return
    yield " ".join(words), parser


# Every leaf subcommand's flags in declaration order: option string, dest,
# type, required, default, choices.
PARSER_INVENTORY = {
    "mode period": [
        ("--k", "k", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--E", "E", float, True, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "mode orbit": [
        ("--k", "k", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--E", "E", float, True, None, None),
        ("--sign", "sign", int, False, 1, (1, -1)),
        ("--periods", "periods", float, False, 1.0, None),
        ("--samples", "samples", int, False, 0, None),
        ("--out", "out", str, False, None, None),
    ],
    "mode homoclinic": [
        ("--k", "k", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--t", "t", float, False, 0.0, None),
        ("--t-min", "t_min", float, False, -5.0, None),
        ("--t-max", "t_max", float, False, 5.0, None),
        ("--samples", "samples", int, False, 0, None),
        ("--out", "out", str, False, None, None),
    ],
    "hill classify": [
        ("--m", "m", int, True, None, None),
        ("--n", "n", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--E", "E", float, True, None, None),
        ("--margin", "margin", float, False, 1e-06, None),
        ("--tol", "tol", float, False, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "hill criteria": [
        ("--m", "m", int, True, None, None),
        ("--n", "n", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--E", "E", float, True, None, None),
        ("--tol", "tol", float, False, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "twomode simulate": [
        ("--m", "m", int, True, None, None),
        ("--n", "n", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--w0", "w0", float, False, 0.0, None),
        ("--w1", "w1", float, False, 0.0, None),
        ("--z0", "z0", float, False, 0.0, None),
        ("--z1", "z1", float, False, 0.0, None),
        ("--t-end", "t_end", float, True, None, None),
        ("--threshold", "threshold", float, False, 100.0, None),
        ("--format", "format", None, False, "json", ("json", "csv")),
        ("--tol", "tol", float, False, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "regime table": [
        ("--m", "m", int, True, None, None),
        ("--n", "n", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "regime gamma": [
        ("--m", "m", int, False, None, None),
        ("--n", "n", int, False, None, None),
        ("--gamma", "gamma", float, False, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "regime resonance": [
        ("--m", "m", int, True, None, None),
        ("--n", "n", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "regime cazenave": [
        ("--gamma", "gamma", float, True, None, None),
        ("--margin", "margin", float, False, 1e-06, None),
        ("--out", "out", str, False, None, None),
    ],
    "scan quartic": [
        ("--n-max", "n_max", int, True, None, None),
        ("--format", "format", None, False, "json", ("json", "csv")),
        ("--out", "out", str, False, None, None),
    ],
    "stationary": [
        ("--P", "P", float, True, None, None),
        ("--format", "format", None, False, "json", ("json", "csv")),
        ("--out", "out", str, False, None, None),
    ],
    "atlas sweep": [
        ("--m", "m", int, False, None, None),
        ("--n", "n", int, False, None, None),
        ("--pairs", "pairs", str, False, None, None),
        ("--P", "P", float, True, None, None),
        ("--axis", "axis", None, False, "theta0", ("theta0", "energy")),
        ("--grid-min", "grid_min", float, True, None, None),
        ("--grid-max", "grid_max", float, True, None, None),
        ("--points", "points", int, True, None, None),
        ("--spacing", "spacing", None, False, "linear", ("linear", "log")),
        ("--source", "source", None, False, "monodromy", ("monodromy", "cazenave")),
        ("--adaptive", "adaptive", None, False, False, None),
        ("--jobs", "jobs", int, False, 1, None),
        ("--margin", "margin", float, False, 1e-06, None),
        ("--tol", "tol", float, False, None, None),
        ("--out", "out", str, False, None, None),
    ],
    "atlas thresholds": [
        ("--m", "m", int, True, None, None),
        ("--n", "n", int, True, None, None),
        ("--P", "P", float, True, None, None),
        ("--e-min", "e_min", float, True, None, None),
        ("--e-max", "e_max", float, True, None, None),
        ("--points", "points", int, False, 32, None),
        ("--spacing", "spacing", None, False, "linear", ("linear", "log")),
        ("--refine-tol", "refine_tol", float, False, 0.0001, None),
        ("--margin", "margin", float, False, 1e-06, None),
        ("--tol", "tol", float, False, None, None),
        ("--out", "out", str, False, None, None),
    ],
}


def test_parser_inventory():
    """No flag of any leaf subcommand is dropped, added, reordered or
    changed in type, requiredness, default or choices."""
    found = {}
    for name, parser in _leaves(build_parser()):
        found[name] = [(*action.option_strings, action.dest, action.type,
                        action.required, action.default, action.choices)
                       for action in parser._actions
                       if not isinstance(action, argparse._HelpAction)]
    assert found == PARSER_INVENTORY
    assert set(JSON_COMMANDS) == set(PARSER_INVENTORY) - {"atlas sweep"}
