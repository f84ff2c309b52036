"""Every check draws its instances from the stream named after it.

``suites._instances(seed, name, count)`` keys instance i by (seed, suite,
name, i), the suite read from the ``SUITE_CHECKS`` row of ``name``.  A
label copied from another check would silently share that check's
instances, so the label of each call must be the name of the check that
makes it, and no other code in the module may key a generator itself.
"""

import ast
from pathlib import Path

from zfock.suites import SUITE_CHECKS

SUITES_PY = Path(__file__).resolve().parents[1] / "src" / "zfock" / "suites.py"


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == name]


def test_instance_labels_name_their_check():
    tree = ast.parse(SUITES_PY.read_text())
    rows = {name for checks in SUITE_CHECKS.values() for name, _, _ in checks}
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    problems = []
    placed = 0
    for fn in functions:
        for call in _calls(fn, "_instances"):
            placed += 1
            label = call.args[1] if len(call.args) > 1 else None
            if not (isinstance(label, ast.Constant) and isinstance(label.value, str)):
                problems.append(f"line {call.lineno}: label is not a string literal")
                continue
            if fn.name != f"check_{label.value}":
                problems.append(f"line {call.lineno}: {fn.name} draws {label.value!r}")
            if label.value not in rows:
                problems.append(f"line {call.lineno}: no SUITE_CHECKS row {label.value!r}")
    if placed != len(_calls(tree, "_instances")):
        problems.append("_instances is called outside a top-level function")
    keyed = [fn.name for fn in functions for _ in _calls(fn, "keyed_rng")]
    if keyed != ["_instances"] or len(_calls(tree, "keyed_rng")) != 1:
        problems.append(f"keyed_rng is called outside _instances: {keyed}")
    assert not problems, "\n".join(problems)
