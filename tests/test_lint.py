"""Static checks on the package source, in place of a linter: every name a
module imports at module level is used in that module, every private
module-level function, class or constant is used somewhere in the package,
every public function, class, method and property is used in the package
or named by the benchmark but the ones listed, no module reads another's
private name but the one listed, none imports a private scipy module, and
no dataclass field carries metadata: to_dict keeps every field."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "beammodes"
BENCH = SRC.parents[1] / "perfbench"
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


def _reference(node: ast.AST) -> str | None:
    """The name a node reads: a name or an attribute."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def unreferenced_public_names(sources: list[str], named: str) -> set[str]:
    """Public module-level functions and classes in the sources, and public
    methods and properties of those classes ("Class.method"), whose name no
    source reads as a name or an attribute outside their own definition and
    the text `named` does not hold as a word."""
    trees = [ast.parse(source) for source in sources]
    reads = Counter(_reference(node) for tree in trees for node in ast.walk(tree))
    functions = ast.FunctionDef, ast.AsyncFunctionDef
    unread = set()
    for tree in trees:
        for node in tree.body:
            found = [(node.name, node)] if isinstance(node, (*functions, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{inner.name}", inner) for inner in node.body
                          if isinstance(inner, functions)]
            for qualified, definition in found:
                name = definition.name
                own = sum(_reference(inner) == name for inner in ast.walk(definition))
                if not name.startswith("_") and reads[name] == own \
                        and not re.search(rf"\b{name}\b", named):
                    unread.add(qualified)
    return unread


# public API that nothing in the package reads, each with why it stays
READ_BY_TESTS_ALONE = {
    "comparison_bounds": "gate 13 checks the envelope inequality f < h with it",
    "residual_check": "gate 12 checks each stationary profile's residual with it",
    "verdict_runs": "gate 10 counts the adaptive sweep's instability windows with it",
    "StationarySolution.profile": "a catalog entry's u(x), which residual_check checks",
    "ModeParams.floor_energy": "a mode's lowest admissible energy, where energy grids start",
}


def test_every_public_name_is_used():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    named = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    assert unreferenced_public_names(sources, named) == set(READ_BY_TESTS_ALONE)


def test_the_check_sees_an_unused_public_name():
    module = ("class Orbit:\n"
              "    def states(self):\n"
              "        return self.frame()\n"
              "    def frame(self):\n"
              "        return self.frame\n"
              "    @property\n"
              "    def spare(self):\n"
              "        return 0\n"
              "    def _private(self):\n"
              "        pass\n"
              "def recursive(n):\n"
              "    return 1 if n <= 1 else n * recursive(n - 1)\n"
              "def benched():\n"
              "    pass\n"
              "def _hidden():\n"
              "    pass\n")
    other = ("from .owner import Orbit, recursive\n"
             "def run(orbit: Orbit):\n"
             "    return orbit.states\n")
    assert unreferenced_public_names([module, other], "WRAPPED = [('owner', 'benched')]") == {
        "recursive", "Orbit.spare", "run"}


def _private(name: str) -> bool:
    """A single-underscore name, the bare _ aside."""
    return len(name) > 1 and name[0] == "_" and name[1] != "_"


def private_reads(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(reader, "owner._name") for every read, in module reader, of a private
    name that module owner defines and reader does not: an attribute x._name
    or a `from .owner import _name`.  A module defines every private name it
    binds anywhere, as a def, a class, a variable or an attribute x._name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {}
    for module, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        defined[module] = {name for name in names if _private(name)}
    reads = set()
    for reader, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr not in defined[reader]:
                reads.update((reader, f"{owner}.{node.attr}") for owner in defined
                             if node.attr in defined[owner])
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                reads.update((reader, f"{node.module}.{alias.name}")
                             for alias in node.names if _private(alias.name))
    return reads


def test_no_module_reads_another_modules_private_name():
    # the limit cell's DOP853 pass is hill's; it moves onto a public path
    # when the limit cell moves onto the kernel
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert private_reads(sources) == {("regime", "hill._half_period_pass")}


def test_the_check_sees_a_private_read():
    owner = ("class Orbit:\n"
             "    _CACHE = {}\n"
             "    def __init__(self):\n"
             "        self._seen = 0\n"
             "    def _frame(self):\n"
             "        return self._seen, Orbit._CACHE\n"
             "def _helper():\n"
             "    pass\n")
    reader = ("from .owner import Orbit, _helper\n"
              "from . import owner\n"
              "def frame(orbit):\n"
              "    owner._helper()\n"
              "    return orbit._frame(), orbit._seen, orbit.__class__, orbit._other\n")
    assert private_reads({"owner": owner, "reader": reader}) == {
        ("reader", "owner._helper"), ("reader", "owner._frame"), ("reader", "owner._seen")}


def scipy_imports(source: str) -> set[str]:
    """Every scipy import, public or private, at any depth of the module,
    as a dotted path."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(path for path in paths if path.split(".")[0] == "scipy")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_scipy_import(module):
    # no scipy import at all: scipy is the tests' oracle, not a dependency
    assert scipy_imports((SRC / module).read_text()) == set()


def test_the_check_sees_a_private_scipy_import():
    source = ("import scipy.integrate._ivp.rk\n"
              "from scipy.integrate import DOP853, _ivp\n"
              "from .special import _ladder\n"
              "import scipy\n"
              "def step():\n"
              "    from scipy.integrate._ivp.rk import SAFETY\n"
              "    from scipy.optimize import brentq\n")
    assert scipy_imports(source) == {
        "scipy.integrate._ivp.rk", "scipy.integrate.DOP853", "scipy.integrate._ivp", "scipy",
        "scipy.integrate._ivp.rk.SAFETY", "scipy.optimize.brentq"}


def fields_with_metadata(source: str) -> set[str]:
    """Class.field of every class attribute declared with a field(...) or
    dataclasses.field(...) call that passes metadata=."""
    found = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            call = node.value if isinstance(node, (ast.AnnAssign, ast.Assign)) else None
            if isinstance(call, ast.Call) and _reference(call.func) == "field" \
                    and any(kw.arg == "metadata" for kw in call.keywords):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(f"{cls.name}.{t.id}" for t in targets if isinstance(t, ast.Name))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_field_carries_metadata(module):
    assert fields_with_metadata((SRC / module).read_text()) == set()


def test_the_check_sees_a_field_with_metadata():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class Result:\n"
              "    kept: float = field(default=0.0)\n"
              "    hidden: tuple | None = field(default=None, metadata={'to_dict': False})\n"
              "    other: int = dataclasses.field(default=1, metadata={})\n"
              "    plain: int = 2\n"
              "    shown = field(metadata={'unit': 's'})\n")
    assert fields_with_metadata(source) == {"Result.hidden", "Result.other", "Result.shown"}
