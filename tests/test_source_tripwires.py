"""Source-level tripwires on the package, read with ``ast`` and never imported.

Every function, method and class that ``src/groundstate`` defines has a
caller there: a helper with no caller on the run path either gets one or
leaves the package (test oracles live in ``tests/reference_oracles.py``).
And ``spectral`` is the one module that imports scipy.
"""

import ast
from pathlib import Path

import groundstate

PACKAGE = Path(groundstate.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
