"""Every function in the package is used by the package, outside its own definition.

Uses are identifiers read anywhere under ``src/``.  A top-level function
counts as used through a plain name, an attribute name or a name imported
with ``from ... import``; a method only through an attribute name
(``.name``), so a local variable or a function of the same name does not
keep it alive.  Checks reached through the runner table count as used by
their row.  A use from the tests alone does not count: what only the
tests need belongs in ``tests/reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

from zfock.suites import SUITE_CHECKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zfock"


def _identifiers(node: ast.AST, attributes_only: bool = False) -> Counter:
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _definitions(tree: ast.Module):
    """Top-level functions and public methods of top-level classes.

    Yields (label, node, is_method).
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item, True


def test_every_function_is_used():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    used: Counter = Counter()
    attributes: Counter = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
        attributes += _identifiers(tree, attributes_only=True)
    used.update(f"check_{name}" for rows in SUITE_CHECKS.values() for name, _, _ in rows)

    unused = []
    for path, tree in trees.items():
        for label, node, is_method in _definitions(tree):
            uses = attributes if is_method else used
            if uses[node.name] - _identifiers(node, is_method)[node.name] <= 0:
                unused.append(f"{path.relative_to(ROOT)}: {label}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)
