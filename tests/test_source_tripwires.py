"""Source-level tripwires on the package, read with ``ast``.

Every function, method and class that ``src/groundstate`` defines has a
caller there: a helper with no caller on the run path either gets one or
leaves the package (test oracles live in ``tests/reference_oracles.py``).
Every dataclass field is read as an attribute outside its own class, in
the package or the tests: a field that is only written goes.
``spectral`` is the one module that imports scipy.  And the export list
``groundstate.__all__`` names exactly what ``__init__.py`` imports, each
entry resolving on the imported package, so a removed name cannot linger
in it.
"""

import ast
from pathlib import Path

import groundstate

PACKAGE = Path(groundstate.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the test modules, but this one, whose reads are of ast nodes
TEST_MODULES = sorted(
    p for p in Path(__file__).resolve().parent.glob("*.py") if p.name != Path(__file__).name
)


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def _names(node: ast.AST):
    """(name, node) for each Name, Attribute and import alias under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name.rsplit(".", 1)[-1], sub


def test_every_definition_is_named_outside_itself():
    trees = _trees()
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _names(tree):
            uses.setdefault(name, []).append(node)
    uncalled = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(id(use) not in inside for use in uses.get(node.name, [])):
                uncalled.append(f"{module}:{node.lineno} {node.name}")
    assert uncalled == []


def _is_dataclass(node: ast.AST) -> bool:
    if not isinstance(node, ast.ClassDef):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _unread_fields(trees: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """Dataclass fields in trees that no attribute load outside their class reads."""
    reads: dict[str, list[ast.AST]] = {}
    for tree in [*trees.values(), *readers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for module, tree in trees.items():
        for cls in filter(_is_dataclass, ast.walk(tree)):
            inside = {id(sub) for sub in ast.walk(cls)}
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                if not any(id(read) not in inside for read in reads.get(stmt.target.id, [])):
                    unread.append(f"{module}:{stmt.lineno} {cls.name}.{stmt.target.id}")
    return unread


def test_every_dataclass_field_is_read_outside_its_class():
    readers = [ast.parse(p.read_text(), filename=str(p)) for p in TEST_MODULES]
    assert _unread_fields(_trees(), readers) == []
    # the scan sees a field that only its own class and constructors touch
    probe = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Probe:\n"
        "    kept: int\n"
        "    written: int\n"
        "    def total(self):\n"
        "        return self.kept + self.written\n"
        "Probe(kept=1, written=2).kept\n"
    )
    assert _unread_fields({"probe.py": probe}, []) == ["probe.py:4 Probe.written"]


def test_only_spectral_imports_scipy():
    importers = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module or ""]
            else:
                continue
            if any(root.split(".")[0] == "scipy" for root in roots):
                importers.add(module)
    assert importers == {"spectral.py"}


def test_export_list_is_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = groundstate.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == set(imported)
    assert [name for name in exported if not hasattr(groundstate, name)] == []
