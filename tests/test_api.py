"""The package root is the API the README documents: its five entry points,
the nine modules and __version__; every other name comes from its module."""

import os
import re
import subprocess
import sys
from pathlib import Path

import beammodes

ROOT = Path(__file__).resolve().parents[1]

README_NAMES = {"ModeParams", "period_of", "classify_stability", "table_regime",
                "stationary_catalog"}
MODULES = {"atlas", "duffing", "errors", "hill", "integrate", "regime", "special",
           "stationary", "twomode"}


def test_root_names_are_the_documented_api():
    # a fresh interpreter: importing beammodes.cli elsewhere in the suite
    # binds beammodes.cli as well
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import beammodes; print(*sorted(n for n in "
         "vars(beammodes) if not n.startswith('_')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert set(done.stdout.split()) == README_NAMES | MODULES
    assert isinstance(beammodes.__version__, str)
    assert not hasattr(beammodes, "__all__")


def test_integrate_is_the_module():
    assert type(beammodes.integrate) is type(beammodes)
    assert beammodes.integrate is sys.modules["beammodes.integrate"]


def test_readme_api_sketch_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Python API sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verdict.value == "stable"
