"""Source hygiene: every module-level import of the package, its tests and
its scripts is used, every function, class and method the package defines
is named in the code of the package, its scripts or perfbench (a method
through its own class wherever the code makes the owner plain), and every
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


def annotated_class(annotation, classes):
    """The package class an annotation names: ``C``, ``C | None`` or "C"."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [annotation.left, annotation.right]
        if any(isinstance(x, ast.Constant) and x.value is None for x in sides):
            annotation = next(x for x in sides if not isinstance(x, ast.Constant))
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


BUILTIN = "<builtin>"
BUILTIN_TYPES = {"set", "dict", "list", "tuple", "str", "sorted", "frozenset"}


class Types:
    """The classes the package's code makes plain.

    ``bases``: base-class names of every package class (class names are
    unique across the package).  ``returns``: the class a function or
    (class, method) is annotated to return.  ``attrs``: the class of
    (class, attribute), from annotations in the class body and from
    ``self.attr = ...`` assignments that ``resolve`` can type.
    """

    def __init__(self, package):
        trees = [ast.parse(p.read_text(), filename=str(p)) for p in package]
        self.bases = {node.name: [b.id for b in node.bases
                                  if isinstance(b, ast.Name)]
                      for tree in trees for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)}
        self.returns, self.attrs = {}, {}
        for tree in trees:
            for top in tree.body:
                if isinstance(top, ast.FunctionDef):
                    self.note(self.returns, top.name, top.returns)
                elif isinstance(top, ast.ClassDef):
                    for stmt in top.body:
                        if isinstance(stmt, ast.FunctionDef):
                            self.note(self.returns, (top.name, stmt.name),
                                      stmt.returns)
                        elif isinstance(stmt, ast.AnnAssign) and \
                                isinstance(stmt.target, ast.Name):
                            self.note(self.attrs, (top.name, stmt.target.id),
                                      stmt.annotation)

    def note(self, table, key, annotation):
        owner = annotated_class(annotation, self.bases)
        if owner is not None:
            table[key] = owner

    def mro(self, cls):
        """cls and its package ancestors."""
        out = [cls]
        for base in self.bases.get(cls, ()):
            out += [c for c in self.mro(base) if c not in out]
        return out

    def member(self, table, cls, name):
        return next((table[(c, name)] for c in self.mro(cls)
                     if (c, name) in table), None)

    def resolve(self, expr, env):
        """The package class of an instance expression, when plain: a name
        typed in env, a constructor call, a call with an annotated return,
        or an attribute of a known class.  BUILTIN for literals and calls
        of builtin types, whose attributes are no package definition."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple,
                             ast.Set, ast.Dict, ast.ListComp, ast.SetComp,
                             ast.DictComp)):
            return BUILTIN
        if isinstance(expr, ast.Call):
            func = expr.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                owner = self.owner(func.value, env)
                if owner is not None:
                    return self.member(self.returns, owner, func.attr)
                if isinstance(func.value, ast.Name) and func.value.id not in env:
                    name = func.attr  # module.function or module.Class
            if name in self.bases:
                return name
            if name in BUILTIN_TYPES:
                return BUILTIN
            return self.returns.get(name)
        if isinstance(expr, ast.Attribute):
            owner = self.resolve(expr.value, env)
            if owner is not None:
                return self.member(self.attrs, owner, expr.attr)
        return None

    def owner(self, value, env):
        """The class whose attribute ``value.x`` reads, when plain."""
        if isinstance(value, ast.Name) and value.id not in env \
                and value.id in self.bases:
            return value.id  # the class itself
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "super" and "<class>" in env:
            bases = self.bases.get(env["<class>"], ())
            return bases[0] if bases else None
        return self.resolve(value, env)


class Uses:
    """What code in one file can reach a definition by.

    ``bare``: identifiers, which reach module-level and nested functions and
    classes.  ``owned``: (class, attribute) for ``x.attr`` where Types can
    tell x's class: self or cls in a method, the class itself, super(), a
    name annotated or assigned a constructor call or an annotated return in
    the enclosing function, or an attribute of such a name.  A string
    constant (perfbench patches by name) reaches the attribute of that name
    on every class the file names, and module-level functions.  ``by_name``
    holds every other attribute and imported name, and keeps any definition
    of that name alive.  Docstrings and comments keep nothing alive.
    """

    def __init__(self, path, types):
        self.types = types
        self.bare, self.owned, self.by_name = set(), set(), set()
        self.strings, self.classes = set(), set()
        tree = ast.parse(path.read_text(), filename=str(path))
        env = {}
        for stmt in tree.body:  # module globals are typed for every body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self.assign(stmt, env)
        self.visit(tree, None, env)
        for cls in self.classes:
            self.owned.update((cls, s) for s in self.strings)
        self.bare |= self.strings

    def visit(self, node, cls, env):
        # cls: the class whose body node is in; env: name -> class
        for child in ast.iter_child_nodes(node):
            self.dispatch(child, cls, env)

    def dispatch(self, node, cls, env):
        if isinstance(node, ast.ClassDef):
            self.classes.add(node.name)
            for part in node.bases + node.keywords + node.decorator_list:
                self.dispatch(part, cls, env)
            for stmt in node.body:
                self.dispatch(stmt, node.name, env)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            self.visit_function(node, cls, env)
        else:
            self.visit_node(node, cls, env)

    def visit_function(self, fn, cls, env):
        # decorators, defaults and annotations belong to the outer scope
        for part in getattr(fn, "decorator_list", []) + [fn.args]:
            self.dispatch(part, cls, env)
        if getattr(fn, "returns", None) is not None:
            self.dispatch(fn.returns, cls, env)
        inner = dict(env)
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for arg in params:
            inner.pop(arg.arg, None)
            owner = annotated_class(arg.annotation, self.types.bases)
            if owner is not None:
                inner[arg.arg] = owner
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in getattr(fn, "decorator_list", []))
        if cls is not None:
            inner["<class>"] = cls
            if params and not static:
                inner[params[0].arg] = cls  # self, or cls of a classmethod
        for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
            self.dispatch(stmt, None, inner)

    def visit_node(self, node, cls, env):
        types = self.types
        if cls is None and isinstance(node, (ast.Assign, ast.AnnAssign)):
            self.assign(node, env)
        if isinstance(node, ast.Name):
            if cls is not None:
                self.owned.add((cls, node.id))  # a method named in its class
            if node.id in types.bases:
                self.classes.add(node.id)
            self.bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = types.owner(node.value, env)
            if owner is None:
                self.by_name.add(node.attr)
            elif owner != BUILTIN:
                self.owned.add((owner, node.attr))
            if node.attr in types.bases:
                self.classes.add(node.attr)  # module.Class
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self.by_name.update(alias.name.rpartition(".")[2]
                                for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.strings.add(node.value)
        self.visit(node, cls, env)

    def assign(self, node, env):
        """Type a local name or a self attribute from its annotation or
        value; a later untyped assignment forgets the name's type."""
        types = self.types
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        owner = None
        if isinstance(node, ast.AnnAssign):
            owner = annotated_class(node.annotation, types.bases)
        if owner is None and node.value is not None:
            owner = types.resolve(node.value, env)
        for target in targets:
            if isinstance(target, ast.Name):
                if owner is None:
                    env.pop(target.id, None)
                else:
                    env[target.id] = owner
            elif isinstance(target, ast.Attribute) and owner is not None:
                holder = types.resolve(target.value, env)
                if holder not in (None, BUILTIN):
                    types.attrs.setdefault((holder, target.attr), owner)


def definitions(node, owner="", cls=None):
    """(qualified name, name, defining class or None) of every function,
    class and method below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield owner + child.name, child.name, cls
            inner = child.name if isinstance(child, ast.ClassDef) else None
            yield from definitions(child, f"{owner}{child.name}.", inner)
        else:
            yield from definitions(child, owner, cls)


def dead_definitions(package, users):
    """Definitions in the package files that no code in users reaches.  A
    method is kept alive by a use on its own class, an ancestor (inherited
    call) or a descendant (override), or by name when the owner of a use is
    unknown."""
    types = Types(package)
    for path in package:  # learn attribute types from self.x assignments
        Uses(path, types)
    bare, owned, by_name = set(), set(), set()
    for path in users:
        found = Uses(path, types)
        bare |= found.bare
        owned |= found.owned
        by_name |= found.by_name
    dead = []
    for path in package:
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, name, cls in definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in by_name:
                continue
            if cls is None:
                alive = name in bare
            else:
                alive = any((other, name) in owned for other in types.bases
                            if cls in types.mro(other)
                            or other in types.mro(cls))
            if not alive:
                dead.append(qualified)
    return sorted(dead)


def test_no_dead_definitions():
    dead = dead_definitions(sorted(PACKAGE.glob("*.py")), USERS)
    assert not dead, f"defined but never named in code: {dead}"


def test_cone_cache_accessors_are_reached_through_their_class():
    types = Types(sorted(PACKAGE.glob("*.py")))
    owned, by_name = set(), set()
    for path in USERS:
        found = Uses(path, types)
        owned |= found.owned
        by_name |= found.by_name
    for name in ("dual_matrix", "without"):
        assert ("InequalitySystem", name) in owned and name not in by_name


DEAD_SCAN_PACKAGE = """
class Base:
    def step(self):
        return 0

    def run(self):
        return self.step()


class Fast(Base):
    def step(self):  # an override, reached through Base.run
        return 1

    def mul(self):
        return 2

    def twice(self):
        return self.mul() + self.mul()


class Other:
    def mul(self):  # dead, though Fast.mul is used
        return 3

    def scale(self):
        return 4


class Child(Other):
    pass
"""


@pytest.mark.parametrize("user,dead", [
    # self.x and annotated x.y resolve per class; Other.mul stays dead
    ("def f(fast: Fast, other: 'Other | None'):\n"
     "    return fast.twice() + other.scale() + Base().run()\n",
     ["Child", "Other.mul"]),
    # a use on a subclass reaches the inherited method
    ("def f(fast: Fast, child: Child):\n"
     "    return fast.twice() + child.mul() + child.scale() + Base().run()\n",
     []),
    # without an annotation the owner is unknown: every mul stays alive
    ("def f(fast: Fast, x):\n"
     "    return fast.twice() + x.mul() + Other.scale(x) + Base().run()\n",
     ["Child"]),
    # a method nothing names is dead, even if it calls others
    ("def f(fast: Fast, other: Other):\n"
     "    return fast.twice() + other.scale()\n",
     ["Base.run", "Child", "Other.mul"]),
])
def test_dead_scan_resolves_owners(tmp_path, user, dead):
    package = tmp_path / "package.py"
    package.write_text(DEAD_SCAN_PACKAGE)
    users = tmp_path / "users.py"
    users.write_text(user)
    assert dead_definitions([package], [package, users]) == dead


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
    # a field is matched by name, not owner
    unread = sorted(
        qualified
        for path in PACKAGE.glob("*.py")
        for qualified, name in dataclass_fields(
            ast.parse(path.read_text(), filename=str(path)))
        if name not in read)
    assert not unread, f"dataclass fields never read in code: {unread}"
