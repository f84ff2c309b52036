"""Every function in the package is used by the package, outside its own definition.

Uses are identifiers read anywhere under ``src/``.  A top-level function
counts as used through a plain name, an attribute name or a name imported
with ``from ... import``; a method only through an attribute name
(``.name``), so a local variable or a function of the same name does not
keep it alive.  Where the AST names the owner of an attribute read, only
that class's method of the name is used by it: ``self.name`` and
``cls.name`` in a method read the enclosing class, ``Class.name`` and
``Class(...).name`` read the class, and so does a variable annotated with
the class, or assigned a ``Class(...)`` call, in the function that reads
it.  Any other attribute read may reach a method of the name in any
class.  Checks reached through the runner table count as used by their
row.  A use from the tests alone does not count: what only the tests need
belongs in ``tests/reference.py``.
"""

import ast
from pathlib import Path

from zfock.suites import SUITE_CHECKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zfock"


def _annotation_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _Reads(ast.NodeVisitor):
    """Every identifier read, with the owner class of an attribute read when the
    AST names it, and the functions enclosing the read.

    ``reads`` holds (kind, owner or None, name, ids of the enclosing
    function definitions); kind is "attr" for ``.name`` and "name" for a
    plain name or a ``from ... import`` name.
    """

    def __init__(self, classes: set[str]):
        self.classes = classes
        self.reads: list[tuple[str, str | None, str, tuple[int, ...]]] = []
        self._scopes: list[dict[str, str]] = [{}]
        self._class: list[str | None] = [None]
        self._defs: tuple[int, ...] = ()

    def _owner(self, node) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in self.classes:
                return node.id
            return self._scopes[-1].get(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in self.classes:
            return node.func.id
        return None

    def visit_ClassDef(self, node):
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()

    def visit_FunctionDef(self, node):
        scope = {}
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if self._class[-1] and args and args[0].arg in ("self", "cls"):
            scope[args[0].arg] = self._class[-1]
        for arg in args:
            if _annotation_name(arg.annotation) in self.classes:
                scope[arg.arg] = _annotation_name(arg.annotation)
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name) \
                    and _annotation_name(sub.annotation) in self.classes:
                scope[sub.target.id] = _annotation_name(sub.annotation)
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) and isinstance(sub.value, ast.Call):
                owner = self._owner(sub.value)
                if owner is not None:
                    scope[sub.targets[0].id] = owner
        self._scopes.append(scope)
        self._class.append(None)
        outer, self._defs = self._defs, self._defs + (id(node),)
        self.generic_visit(node)
        self._defs = outer
        self._class.pop()
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        self.reads.append(("attr", self._owner(node.value), node.attr, self._defs))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.reads.append(("name", None, node.id, self._defs))

    def visit_ImportFrom(self, node):
        self.reads += [("name", None, alias.name, self._defs) for alias in node.names]


def _definitions(tree: ast.Module):
    """Top-level functions and public methods of top-level classes.

    Yields (label, node, owning class or None).
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item, node.name


def _unused(sources: dict[str, str], rows=()) -> list[str]:
    """Labels of the functions and methods of ``sources`` that nothing else reads.

    ``rows`` are names read by the runner table.
    """
    trees = {label: ast.parse(text, label) for label, text in sources.items()}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    reads = _Reads(classes)
    for tree in trees.values():
        reads.visit(tree)
    unused = []
    for label, tree in trees.items():
        for name, node, owner in _definitions(tree):
            if owner is None:
                # a function: any read of its name, attribute reads included
                uses = sum(1 for _, _, read, defs in reads.reads
                           if read == node.name and id(node) not in defs)
                uses += list(rows).count(node.name)
            else:
                uses = sum(1 for kind, by, read, defs in reads.reads
                           if kind == "attr" and read == node.name and by in (None, owner)
                           and id(node) not in defs)
            if uses <= 0:
                unused.append(f"{label}: {name}")
    return unused


def test_every_function_is_used():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    rows = [f"check_{name}" for rows in SUITE_CHECKS.values() for name, _, _ in rows]
    unused = _unused(sources, rows)
    assert not unused, "defined but never used:\n" + "\n".join(unused)


OWNERS = '''
class Permutation:
    def apply(self, x):
        return x

class Form:
    def apply(self, state):
        return state

    def element(self, state):
        return self.apply(state)

    def twice(self):
        return Form().apply(1)
'''


def test_a_named_owner_keeps_only_its_own_method():
    # self.apply, Form().apply and an argument annotated Form reach
    # Form.apply alone; Permutation.apply stays dead until a read whose
    # owner the AST cannot name
    reads = {
        "self": "",
        "constructed": "def g():\n    return Form().apply(0)\n",
        "annotated": "def g(A: Form):\n    return A.apply(0)\n",
        "quoted": "def g(A: 'Form'):\n    return A.apply(0)\n",
        "assigned": "def g():\n    A = Form()\n    return A.apply(0)\n",
        "class": "def g():\n    return Form.apply(Form(), 0)\n",
    }
    for label, user in reads.items():
        code = OWNERS + user + "\ndef h():\n    return Form().element(0), Form().twice()\n"
        assert _unused({"m.py": code}, ["g", "h"]) == ["m.py: Permutation.apply"], label
    unknown = OWNERS + "\ndef g(p):\n    return p.apply(0), Form().element(0), Form().twice()\n"
    assert _unused({"m.py": unknown}, ["g"]) == []
