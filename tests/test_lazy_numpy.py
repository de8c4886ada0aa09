"""numpy loads on the first array operation: the scalar paths (periods,
gamma membership, the regime table, the quartic scan, stationary profiles)
run in an interpreter that never executes numpy or imports multiprocessing."""

import json
import os
import subprocess
import sys
from pathlib import Path

from beammodes import _lazy, classify_stability

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """\
import contextlib, io, json, sys
import beammodes
from beammodes import ModeParams, period_of, regime, table_regime
from beammodes.cli import main

period_of(ModeParams(k=2, P=1.0), 0.5)
period_of(ModeParams(k=2, P=5.0), -0.2)
regime.classify_gamma(3, 2)
table_regime(2, 1, 1.0)
for argv in (["regime", "gamma", "--gamma", "2.25"],
             ["mode", "period", "--k", "1", "--P", "0", "--E", "0.5"],
             ["mode", "homoclinic", "--k", "1", "--P", "2", "--t", "0.5"],
             ["scan", "quartic", "--n-max", "50"],
             ["stationary", "--P", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules
                if name.startswith(("numpy.", "multiprocessing")))
report = beammodes.classify_stability(2, 1, 3.0, 7.0)
print(json.dumps({"loaded": loaded, "trace": report.monodromy.trace}))
"""


def test_scalar_paths_leave_numpy_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    # the first array operation loads numpy, and the Floquet trace is the
    # one an interpreter that imported numpy up front computes
    assert result["trace"] == classify_stability(2, 1, 3.0, 7.0).monodromy.trace


def test_an_imported_numpy_is_the_one_used():
    import numpy
    assert _lazy.np is numpy is sys.modules["numpy"]
    assert _lazy._lazy("numpy") is numpy
