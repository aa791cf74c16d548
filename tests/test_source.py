"""Source hygiene: every module-level import of the package, its tests and
its scripts is used, and every function, class and method the package
defines is named somewhere besides its definition."""

import ast
from collections import Counter
from pathlib import Path
import re

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dihedralcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
MODULES += sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree):
    """Module-level import bindings: bound name -> line number."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


# names the dead-code scan accepts without a caller in src/, scripts/ or
# perfbench/: only tests reach facet_witness until ROADMAP item 1 calls it
# from redundancy_audit
UNCALLED_OK = {"facet_witness"}


def test_no_dead_definitions():
    users = sorted((ROOT / "src").rglob("*.py"))
    users += sorted((ROOT / "scripts").glob("*.py"))
    users += sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text() for p in users)
    defined = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")):
                defined[node.name] += 1
    # each definition is one whole-word occurrence; a use adds one more
    dead = sorted(name for name, k in defined.items()
                  if name not in UNCALLED_OK
                  and len(re.findall(rf"\b{name}\b", text)) <= k)
    assert not dead, f"defined but never named again: {dead}"
