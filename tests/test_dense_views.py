"""Only the form storage and the file codec read a form's dense views.

A form is stored on orbit pairs.  ``QuadraticForm.block``, ``.blocks``
and ``QuadraticForm.from_dense`` convert between that storage and dense
blocks over all tuples; ``zops`` defines them and ``io`` writes and reads
the dense payload of a form file.  Every other module under ``src/`` acts
on the compressed blocks, so none of them may read these attributes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zfock"
ALLOWED = {"zops.py", "io.py"}
DENSE_VIEWS = {"block", "blocks", "from_dense"}


def test_only_storage_and_codec_read_dense_views():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS:
                reads.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not reads, "\n".join(reads)
