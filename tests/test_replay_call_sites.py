"""Only ``build_dp_trace`` and ``increment_probability`` call the replay (stdlib ``ast`` only).

A scorer that replays a stream itself would skip the trace the stream
keeps, and replay it again on every call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growthfit"
# A stream's kept replay, and the probability of one increment against a graph.
ALLOWED = {("likelihood", "build_dp_trace"), ("likelihood", "increment_probability")}


def replay_references(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level function or "<module>", line) of each read of ``_replay``."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(top):
            named = isinstance(node, ast.Name) and node.id == "_replay"
            attribute = isinstance(node, ast.Attribute) and node.attr == "_replay"
            if named or attribute:
                found.append((owner, node.lineno))
    return found


def test_only_build_dp_trace_and_increment_probability_replay():
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner, line in replay_references(tree):
            sites[(path.stem, owner)] = line
    assert ("likelihood", "build_dp_trace") in sites
    outside = {site: line for site, line in sites.items() if site not in ALLOWED}
    assert outside == {}, f"_replay read outside {sorted(ALLOWED)}: (module, function): line"
