"""Every module-level private (``_``-prefixed) name in the package is read somewhere in it.

A helper whose last caller is refactored away is deleted, not left behind.
Stdlib ``ast`` only: a name counts as read where a module loads it as a
name or as an attribute (``likelihood._score``), or names it in a string
annotation.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growthfit"
TREES = {
    p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
    for p in sorted(PACKAGE.glob("*.py"))
}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private functions, classes and constants defined at a module's top level, with their line."""
    defined = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attribute names, and names in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns if hasattr(node, "returns") else node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= read_names(ast.parse(annotation.value, mode="eval"))
    return names


def test_the_package_defines_privates_to_check():
    defined = {name for tree in TREES.values() for name in private_definitions(tree)}
    assert {"_split_search", "_score", "_replay"} <= defined


def test_every_module_level_private_is_read():
    read = set().union(*(read_names(tree) for tree in TREES.values()))
    unread = {
        f"{module}:{line} {name}"
        for module, tree in TREES.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    }
    assert unread == set(), f"defined but never read: {sorted(unread)}"
