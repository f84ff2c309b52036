"""Frontier ledger: how far `zfock verify` reaches in lattice size and truncation.

Each case (N points, truncation K) runs `python -m zfock.cli verify` in a
fresh interpreter, one case after another, with BLAS at one thread, a
wall-clock timeout and an address-space cap (RLIMIT_AS) set in the child
only.  Per case it records the wall time, the child's own peak RSS (from
wait4), the pass count, the largest residual/tolerance ratio, the sha256 of
the CSV report and an exit status: "ok", "fail" (a check failed),
"error", "timeout" or "memory" (killed, or out of memory under the cap).

    python3 bench/frontier.py --label change --out BENCH_6.json
    python3 bench/frontier.py --label parent --src path/to/parent/src --out BENCH_6.json
    python3 bench/frontier.py --label change --cases 5x4,6x4 --repeat 3 --out BENCH_14.json

``--src`` is the package source to measure (default: this checkout's
``src``).  ``--cases`` picks rungs as NxK (default: all of them) and
``--repeat R`` runs the picked rungs R times, round after round; each row
carries its round as ``repeat``, from 0.  Rows are appended to the ``rows``
list of ``--out``, so one file can hold the runs of several source trees.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LATTICES = {5: [-1.2, -0.5, 0.1, 0.6, 1.3],
            6: [-1.3, -0.8, -0.3, 0.2, 0.7, 1.3],
            8: [-1.7, -1.2, -0.7, -0.2, 0.3, 0.8, 1.2, 1.6],
            10: [-1.9, -1.5, -1.1, -0.7, -0.3, 0.1, 0.5, 0.9, 1.3, 1.7],
            12: [-2.3, -1.9, -1.5, -1.1, -0.7, -0.3, 0.1, 0.5, 0.9, 1.3, 1.7, 2.1]}
CASES = ((5, 4), (6, 4), (5, 5), (6, 5), (8, 4), (6, 6), (8, 5), (10, 4))
TIMEOUT_S = 600.0   # per case; the parent of the orbit-basis change ran out of it at (5, 5)
CAP_MB = 3072       # RLIMIT_AS of a case: a runaway case fails in itself, not the machine
BASE = {"mass": 1.0, "scattering": {"family": "sinh_exp", "a": 0.7},
        "omega": {"family": "log", "alpha": 0.8}, "seed": 3, "instances": 8}
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def case_config(N: int, K: int) -> dict:
    return {"grid": LATTICES[N], "truncation": K, **BASE}


def src_digest(src: Path) -> str:
    """sha256 over the package's Python files, in path order."""
    h = hashlib.sha256()
    for path in sorted((src / "zfock").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(src: Path) -> dict:
    import numpy  # the children run this interpreter, so this numpy

    return {"src_sha256": src_digest(src), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "blas_threads": 1}


def summarize(report: str) -> dict:
    """Pass count and the largest residual/tolerance ratio of a CSV report."""
    rows = list(csv.DictReader(io.StringIO(report)))
    ratios = [float(r["residual"]) / float(r["tolerance"]) for r in rows
              if r["residual"] and r["tolerance"] and float(r["tolerance"]) > 0]
    return {"checks": len(rows), "passed": sum(r["status"] == "pass" for r in rows),
            "max_ratio": max(ratios, default=None),
            "csv_sha256": hashlib.sha256(report.encode()).hexdigest()}


def run_case(src: Path, N: int, K: int, work: Path) -> dict:
    config = work / f"config_{N}_{K}.json"
    config.write_text(json.dumps(case_config(N, K)))
    report = work / f"report_{N}_{K}.csv"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", **BLAS_THREADS)
    cap = CAP_MB * 2**20

    def limit():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    errors = work / f"stderr_{N}_{K}.txt"
    with open(errors, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-m", "zfock.cli", "verify", "--config",
                                 str(config), "--report", str(report)], env=env,
                                stdout=subprocess.DEVNULL, stderr=err, preexec_fn=limit)
        timed_out = False
        while True:
            # wait4 gives this child's own rusage, not the maximum over all children
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t0 > TIMEOUT_S:
                proc.send_signal(signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.05)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = errors.read_text(errors="replace")
    row = {"N": N, "K": K, "wall_s": round(wall, 2),
           "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
           "exit_code": proc.returncode}
    if timed_out:
        row["status"] = "timeout"
    elif "MemoryError" in stderr or proc.returncode < 0:
        row["status"] = "memory"
    elif proc.returncode in (0, 1) and report.exists():
        row.update(summarize(report.read_text()))
        row["status"] = "ok" if proc.returncode == 0 else "fail"
    else:
        row["status"] = "error"
        row["stderr"] = stderr[-500:]
    return row


def parse_cases(text: str) -> list[tuple[int, int]]:
    """Rungs from "NxK,NxK,...", each N a lattice of ``LATTICES`` and K >= 1."""
    cases = []
    for item in text.split(","):
        try:
            N, K = (int(part) for part in item.strip().split("x"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"case {item!r} is not NxK") from None
        if N not in LATTICES or K < 1:
            raise argparse.ArgumentTypeError(
                f"case {item!r}: N must be one of {sorted(LATTICES)} and K >= 1")
        cases.append((N, K))
    return cases


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive count")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured source tree")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cases", type=parse_cases, default=list(CASES),
                        help="rungs to run, as NxK,NxK,... (default: all)")
    parser.add_argument("--repeat", type=positive, default=1,
                        help="rounds over the rungs (default: 1)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc.setdefault("cases", {}).update(
        {f"{n}x{k}": case_config(n, k) for n, k in args.cases})
    prov = provenance(src)
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(args.repeat):
            for N, K in args.cases:
                row = {"label": args.label, "repeat": repeat,
                       **run_case(src, N, K, Path(tmp)),
                       "timeout_s": TIMEOUT_S, "cap_mb": CAP_MB, **prov}
                print(json.dumps(row), flush=True)
                doc["rows"].append(row)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
