"""Only the storage, the file codec and the capped-degree checks read dense views.

A form is stored on orbit pairs.  ``QuadraticForm.block``, ``.blocks``
and ``QuadraticForm.from_dense`` convert between that storage and dense
blocks over all tuples; ``zops`` defines them and ``io`` writes and reads
the dense payload of a form file.  Every other module under ``src/`` acts
on the compressed blocks, so none of them may read these attributes.

A coefficient is stored on orbit pairs too (``zops.OrbitKernel``), and its
dense view over all N**(m+n) tuples is ``zops.dense_kernel``, with
``zops.compress_kernel`` its inverse.  A family file holds the orbit
matrices themselves, so ``io`` reads neither.  In ``suites`` the dense
view is read only by the checks against the paper's dense contraction
sums at capped degree and by ``_family_residual``, which compares the
dense nested families of ``warped`` at total degree <= 2; no other module
reads it.  ``expansion`` builds no dense tensor at all: no shape
``(N,) * k`` and no ``KernelTensor`` appears in it.

The orbit basis V itself is stored as a map from tuples to orbits
(``zops.OrbitBasis``), and its map, the fields ``col``, ``val``,
``by_orbit`` and ``starts``, is read only by the functions of
``V_READERS``: the gather V C, the orbit sum V^H Y and the cached merge
map ``_orbit_merge``, which reads each split V_l^H (V_m kron V_{l-m}) at
the orbit representatives.  The dense views above, their inverses, the
projector ``symmetrize`` and ``apply`` go through the first two, and the
ladders, the monomials and the expansion through the merge maps.  A call of
``symmetric_isometry`` that is not taken at once by ``.reps``, ``.peaks``
or ``.W`` counts as a read of the map.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zfock"
ALLOWED = {"zops.py", "io.py"}
DENSE_VIEWS = {"block", "blocks", "from_dense"}
FAMILY_VIEW = "dense_kernel"
KERNEL_VIEWS = {FAMILY_VIEW, "compress_kernel"}
# module -> the top-level functions in it that may read the family's dense view
FAMILY_VIEW_READERS = {"suites.py": {"_dense_coefficients", "check_contraction_formula",
                                     "_family_residual"}}
# the functions, over all modules, that may read the tuple-to-orbit map of V
V_READERS = {"_gather", "_orbit_sum", "_orbit_merge"}
# the fields of the orbit basis that are not the map
NOT_THE_MAP = {"reps", "peaks", "W"}


def test_only_storage_and_codec_read_dense_views():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS:
                reads.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not reads, "\n".join(reads)


def _name_reads(node, names) -> list[int]:
    """Line numbers of the reads of any of ``names`` under ``node``."""
    lines = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Name) and sub.id in names
                or isinstance(sub, ast.Attribute) and sub.attr in names
                or isinstance(sub, ast.ImportFrom)
                and any(alias.name in names for alias in sub.names)):
            lines.append(sub.lineno)
    return lines


def test_codec_reads_the_form_views_only():
    # io writes and reads the dense blocks of a form file, and a family
    # file's orbit matrices as they stand
    tree = ast.parse((SRC / "io.py").read_text())
    reads = [f"io.py:{line} reads a kernel view" for line in _name_reads(tree, KERNEL_VIEWS)]
    assert not reads, "\n".join(reads)
    assert DENSE_VIEWS <= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


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
                      for line in _name_reads(node, {FAMILY_VIEW})]
    assert not reads, "\n".join(reads)
    # every listed reader exists and reads the view
    for name, readers in FAMILY_VIEW_READERS.items():
        tree = ast.parse((SRC / name).read_text())
        found = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and _name_reads(node, {FAMILY_VIEW})}
        assert found == readers, (name, found)


def test_expansion_builds_no_dense_tensor():
    tree = ast.parse((SRC / "expansion.py").read_text())
    dense = [f"expansion.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and isinstance(node.left, ast.Tuple)
             or isinstance(node, ast.Name) and node.id == "KernelTensor"]
    assert not dense, "\n".join(dense)


def _v_reads(tree) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each read of the map of V under ``tree``.

    A call of ``symmetric_isometry`` reads the map unless its result is taken
    at once by one of the attributes ``NOT_THE_MAP``.
    """
    reads = []

    def visit(node, owner, taken):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and not taken:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "symmetric_isometry":
                reads.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, isinstance(node, ast.Attribute) and node.attr in NOT_THE_MAP)

    visit(tree, "<module>", False)
    return reads


def test_only_the_allowed_functions_read_the_dense_basis():
    readers, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        for owner, line in _v_reads(ast.parse(path.read_text())):
            if owner in V_READERS:
                readers.add(owner)
            else:
                stray.append(f"{path.name}:{line} ({owner}) reads the map of V")
    assert not stray, "\n".join(stray)
    # every listed reader exists and reads the map
    assert readers == V_READERS, V_READERS - readers
