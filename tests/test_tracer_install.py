"""The span tracer of ``perfbench/`` installs on the package.

``tracer.install`` rebinds every public function at every module-level
name and raises "unwrapped bindings remain" if any module-level name or
container still holds an original, which would stop ``run.py --trace 1``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_rebinds_every_binding():
    # a fresh interpreter, so no earlier test has imported or rebound zfock
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer, install; print(install(Tracer()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert "unwrapped bindings remain" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 0
