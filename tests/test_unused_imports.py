"""Every module-level import in the package is used by its module (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growthfit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by imports at module level (also inside module-level if/try), with their line."""
    bound = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def test_the_package_has_modules_to_check():
    assert {p.stem for p in MODULES} >= {"cli", "estimation", "graph", "likelihood", "stream"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in module_imports(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported but never used (name: line) {unused}"
