"""Static checks on the package source, in place of a linter: every name a
module imports at module level is used in that module, and every private
module-level function, class or constant is used somewhere in the package."""

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


def unused_private_names(sources: list[str]) -> set[str]:
    """Private (single-underscore) names bound by module-level functions,
    classes and assignments in the sources that no source references as a
    name, an attribute or an imported name; a definition's references to
    itself do not count."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)}
            else:
                bound = set()
            defined.update(name for name in bound
                           if name.startswith("_") and not name.startswith("__"))
            references = set()
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Store):
                    references.add(inner.id)
                elif isinstance(inner, ast.Attribute):
                    references.add(inner.attr)
                elif isinstance(inner, ast.ImportFrom):
                    references.update(alias.name for alias in inner.names)
            used |= references - bound
    return defined - used


def test_every_private_name_is_used():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unused_private_names(sources) == set()


def test_the_check_sees_an_unused_private_name():
    module = ("import math\n"
              "_USED, _SPARE = 1e-15, 2\n"
              "_ALONE: int = 3\n"
              "def _recursive(n):\n"
              "    return 1 if n <= 1 else n * _recursive(n - 1)\n"
              "def _helper(x):\n"
              "    return math.sqrt(x) + _USED\n"
              "def public(x):\n"
              "    return _helper(x)\n")
    other = "from .special import _imported\nfrom . import special\nspecial._attribute()\n"
    defining = "def _imported():\n    pass\ndef _attribute():\n    pass\n"
    assert unused_private_names([module, other, defining]) == {
        "_SPARE", "_ALONE", "_recursive"}
