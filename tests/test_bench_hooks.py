"""The benchmark's trace hooks still find every name they wrap.

perfbench/tracing.py rebinds module attributes of beammodes by name; a
rename or deletion here would only show when a traced benchmark run
fails.  The file is loaded from its path and nothing in it is changed.
"""

import dataclasses
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

import beammodes
from beammodes import ModeParams
from beammodes.integrate import Trajectory
from beammodes.twomode import TwoModeConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracing):
    assert tracing.WRAPPED
    for module_name, attr, _ in tracing.WRAPPED:
        assert module_name in sys.modules, module_name
        assert callable(getattr(sys.modules[module_name], attr, None)), \
            f"{module_name}.{attr}"


def test_hooks_read_trajectory_fields():
    names = {field.name for field in dataclasses.fields(Trajectory)}
    assert {"times", "sol"} <= names


def test_sweep_takes_jobs():
    assert "jobs" in inspect.signature(beammodes.atlas.sweep).parameters


def test_traced_pass_gives_finite_layer_metrics(tracing):
    """One small call per layer under the installed tracer, with the
    operation ids the benchmark sets: every layer metric must be finite,
    since a wrapped path that never ran reads NaN and the traced run's JSON
    is written with allow_nan=False."""
    atlas = beammodes.atlas
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "periods:0:0"
        beammodes.duffing.period_of(ModeParams(k=1, P=0.0), 1.0)
        beammodes.duffing.period_of(ModeParams(k=1, P=2.0), -0.1)
        tracer.op = "atlas:0:0"
        atlas.sweep(atlas.SweepSpec(P=0.0, modes=[(2, 1)], energy_grid=[1.0, 10.0]))
        atlas.find_thresholds(2, 1, 3.0, [4.0, 8.0])
        atlas.sweep(atlas.SweepSpec(P=0.0, modes=[2.0], energy_grid=[1e6],
                                    verdict_source=atlas.VerdictSource.CAZENAVE_LIMIT))
        tracer.op = "transfer:0:0"
        beammodes.twomode.simulate(
            TwoModeConfig(m=2, n=1, P=3.0, w0=1.0, w1=0.0, z0=0.0, z1=1e-4), 1.0)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert not [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    json.dumps(metrics, allow_nan=False)
