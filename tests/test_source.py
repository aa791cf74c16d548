"""Source hygiene: every module-level import of the package, its tests and
its scripts is used, every function, class and method the package defines
is named in the code of the package, its scripts or perfbench, and every
dataclass field the package defines is read there."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dihedralcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
MODULES += sorted((ROOT / "scripts").glob("*.py"))
# the code whose names keep a package definition alive
USERS = sorted((ROOT / "src").rglob("*.py"))
USERS += sorted((ROOT / "scripts").glob("*.py"))
USERS += sorted((ROOT / "perfbench").glob("*.py"))


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


def named_in(path):
    """Names code can reach a definition by: identifiers, attribute names,
    imported names and exact string constants (perfbench patches functions
    by name).  Docstrings and comments keep nothing alive."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def definitions(node, owner=""):
    """(qualified name, name) of every function, class and method below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield owner + child.name, child.name
            yield from definitions(child, f"{owner}{child.name}.")
        else:
            yield from definitions(child, owner)


def test_no_dead_definitions():
    named = set().union(*(named_in(p) for p in USERS))
    # a method is matched by name, not owner: it stays alive while any
    # definition of the same name is used
    dead = sorted(
        qualified
        for path in PACKAGE.glob("*.py")
        for qualified, name in definitions(
            ast.parse(path.read_text(), filename=str(path)))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named)
    assert not dead, f"defined but never named in code: {dead}"


def dataclass_fields(tree):
    """(class.field, field) of every field of a @dataclass below tree, except
    classes that serialize themselves whole through asdict(self)."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(d).split("(")[0] in ("dataclass", "dataclasses.dataclass")
                for d in cls.decorator_list):
            continue
        if any(isinstance(node, ast.Call) and ast.unparse(node) == "asdict(self)"
               for node in ast.walk(cls)):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield f"{cls.name}.{stmt.target.id}", stmt.target.id


def attributes_read(path):
    """Attribute names that code in path loads."""
    return {node.attr
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_no_unread_dataclass_fields():
    read = set().union(*(attributes_read(p) for p in USERS))
    # a field is matched by name, not owner, like methods above
    unread = sorted(
        qualified
        for path in PACKAGE.glob("*.py")
        for qualified, name in dataclass_fields(
            ast.parse(path.read_text(), filename=str(path)))
        if name not in read)
    assert not unread, f"dataclass fields never read in code: {unread}"
