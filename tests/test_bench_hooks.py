"""The benchmark's trace hooks still find every name they wrap.

perfbench/tracing.py rebinds module attributes of beammodes by name; a
rename or deletion here would only show when a traced benchmark run
fails.  The file is loaded from its path and nothing in it is changed.
"""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import beammodes
from beammodes import Trajectory

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
