"""Static checks on the package source, in place of a linter: every name a
module imports at module level is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "beammodes"
# the package root imports its names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    """Names bound by module-level imports (__future__ aside) that appear
    nowhere in the module as an ast.Name."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == set()


def test_the_check_sees_an_unused_import():
    source = ("from .duffing import EnergyRegime, ModeParams, classify_energy\n"
              "import numpy as np\n"
              "np.zeros(1)\n"
              "def build(E: float) -> ModeParams:\n"
              "    return ModeParams(k=1, P=E)\n")
    assert unused_imports(source) == {"EnergyRegime", "classify_energy"}
