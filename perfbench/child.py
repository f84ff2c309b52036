"""One repetition of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON line:
set-up time (from the launcher's spawn timestamp to the point where zfock
is imported, the config parsed and the model built), wall time, peak RSS,
operations attempted and failed, residuals, an output digest, per-suite
and per-command seconds and, with ``--trace``, the per-layer statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import tracer
import workloads


def _blas_provenance() -> dict:
    """BLAS library, version and its thread count as seen by this process."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--input", required=True, help="generated workload input (JSON file)")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC of the launcher just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    with open(args.input) as fh:
        data = json.load(fh)
    ctx = workloads.setup(args.workload, data)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned_ns) * 1e-9
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        result["rebound"] = tracer.install(tr)
    outcome, wall = workloads.run(args.workload, ctx, args.workdir)
    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=outcome.attempted, failed=outcome.failed,
        residuals=outcome.residuals, digest=outcome.digest,
        layer_seconds=outcome.layer_seconds,
        caches=tracer.cache_counts(),
        provenance={"python": platform.python_version(), **_blas_provenance()},
    )
    if tr is not None:
        result["spans"] = tracer.aggregate(tr.spans)
        result["counters"] = tr.counters
        result["span_count"] = len(tr.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
