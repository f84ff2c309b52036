"""Only the storage, the file codec and the capped-degree checks read dense views.

A form is stored on orbit pairs.  ``QuadraticForm.block``, ``.blocks``
and ``QuadraticForm.from_dense`` convert between that storage and dense
blocks over all tuples; ``zops`` defines them and ``io`` writes and reads
the dense payload of a form file.  Every other module under ``src/`` acts
on the compressed blocks, so none of them may read these attributes.

A coefficient is stored on orbit pairs too (``zops.OrbitKernel``), and its
dense view over all N**(m+n) tuples is ``zops.dense_kernel``.  ``zops``
defines it and ``io`` writes it as the payload of a family file.  In
``suites`` it is read only by the checks against the paper's dense
contraction sums at capped degree and by ``_family_residual``, which
compares the dense nested families of ``warped`` at total degree <= 2;
no other module reads it.  ``expansion`` builds no dense tensor at all: no
shape ``(N,) * k`` and no ``KernelTensor`` appears in it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zfock"
ALLOWED = {"zops.py", "io.py"}
DENSE_VIEWS = {"block", "blocks", "from_dense"}
FAMILY_VIEW = "dense_kernel"
# module -> the top-level functions in it that may read the family's dense view
FAMILY_VIEW_READERS = {"suites.py": {"_dense_coefficients", "check_contraction_formula",
                                     "_family_residual"}}


def test_only_storage_and_codec_read_dense_views():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS:
                reads.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not reads, "\n".join(reads)


def _family_view_reads(node) -> list[int]:
    """Line numbers of the reads of the family's dense view under ``node``."""
    lines = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Name) and sub.id == FAMILY_VIEW
                or isinstance(sub, ast.Attribute) and sub.attr == FAMILY_VIEW
                or isinstance(sub, ast.ImportFrom)
                and any(alias.name == FAMILY_VIEW for alias in sub.names)):
            lines.append(sub.lineno)
    return lines


def test_only_codec_and_capped_checks_read_the_family_dense_view():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ALLOWED:
            continue
        tree = ast.parse(path.read_text())
        readers = FAMILY_VIEW_READERS.get(path.name, set())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and readers:
                continue
            if isinstance(node, ast.FunctionDef) and node.name in readers:
                continue
            reads += [f"{path.name}:{line} reads {FAMILY_VIEW}"
                      for line in _family_view_reads(node)]
    assert not reads, "\n".join(reads)
    # every listed reader exists and reads the view
    for name, readers in FAMILY_VIEW_READERS.items():
        tree = ast.parse((SRC / name).read_text())
        found = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and _family_view_reads(node)}
        assert found == readers, (name, found)


def test_expansion_builds_no_dense_tensor():
    tree = ast.parse((SRC / "expansion.py").read_text())
    dense = [f"expansion.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and isinstance(node.left, ast.Tuple)
             or isinstance(node, ast.Name) and node.id == "KernelTensor"]
    assert not dense, "\n".join(dense)
