"""Every function in the package is used by the package, outside its own definition.

Uses are identifiers read anywhere under ``src/``: plain names, attribute
names and names imported with ``from ... import``.  Checks reached through
the runner table count as used by their row.  A use from the tests alone
does not count: what only the tests need belongs in ``tests/reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

from zfock.suites import SUITE_CHECKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zfock"


def _identifiers(node: ast.AST) -> Counter:
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _definitions(tree: ast.Module):
    """Top-level functions and public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_function_is_used():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    used: Counter = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
    used.update(f"check_{name}" for rows in SUITE_CHECKS.values() for name, _, _ in rows)

    unused = []
    for path, tree in trees.items():
        for label, node in _definitions(tree):
            if used[node.name] - _identifiers(node)[node.name] <= 0:
                unused.append(f"{path.relative_to(ROOT)}: {label}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)
