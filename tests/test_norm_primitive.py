"""Every spectral norm goes through one primitive, and every orbit weight through one reader.

``zops.weighted_norms`` takes the norms of diag(wl) M diag(wr) for a list
of terms; it alone calls ``zops._spectral_norms``, the batched SVD, so
``cross_norms``, ``qform_norms``, ``monomial_norms`` and the norm-bound
checks of ``suites`` are its users.  The weights of a compressed block are the energy weights
read at the orbit representatives, and ``zops.orbit_weights`` alone reads
them there: no other function under ``src/`` indexes a call of
``energy_weights``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zfock"


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _owned(predicate) -> list[tuple[str, str, int]]:
    """(module, innermost enclosing function, line) of each node under src/ that
    ``predicate`` accepts."""
    found = []

    def visit(node, owner, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if predicate(node):
            found.append((path.name, owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>", path)
    return found


def test_only_weighted_norms_calls_the_spectral_norms():
    calls = _owned(lambda node: isinstance(node, ast.Call) and _named(node.func, "_spectral_norms"))
    stray = [f"{path}:{line} ({owner}) calls _spectral_norms"
             for path, owner, line in calls if owner != "weighted_norms"]
    assert not stray, "\n".join(stray)
    assert [(path, owner) for path, owner, _ in calls] == [("zops.py", "weighted_norms")]


def test_only_orbit_weights_indexes_the_energy_weights():
    reads = _owned(lambda node: isinstance(node, ast.Subscript)
                   and isinstance(node.value, ast.Call)
                   and _named(node.value.func, "energy_weights"))
    stray = [f"{path}:{line} ({owner}) indexes energy_weights(...)"
             for path, owner, line in reads if owner != "orbit_weights"]
    assert not stray, "\n".join(stray)
    # the one reader exists and reads the weights at the representatives
    [(path, owner, line)] = reads
    tree = ast.parse((SRC / path).read_text())
    index = next(node.slice for node in ast.walk(tree)
                 if isinstance(node, ast.Subscript) and node.lineno == line)
    assert isinstance(index, ast.Attribute) and index.attr == "reps"
