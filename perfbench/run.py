"""zfock benchmark launcher.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_deep --seed 1 --seconds 32 --trace 0

Workloads: verify_deep, verify_wide, norm_batch, cli_pipeline (see
workloads.py for why each exists), or ``all`` to run them in turn.

The launcher is one single-threaded process.  For ``--seconds`` it starts
fresh interpreters one after another (``child.py``), each running one
repetition of the workload with cold caches and BLAS capped at one thread.
With ``--trace 0`` it reports the medians of the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics, the tracing overhead, and whether both produced
byte-identical outputs.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5      # set-up-only interpreters per untraced run, besides the repetitions
HARD_LIMIT_S = 170.0  # no child may run past this point of a run
BLAS_THREADS = "1"    # steadier than 2 on a small shared machine

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Spans reported with calls and self time.
LAYER_SPANS = {
    "contractions": ("s_factor_grid", "r_factor_grid", "delta_mask"),
    "expansion": ("fmn_coefficients", "extract_family", "reconstruct",
                  "inversion_residual", "reflected_coeffs"),
    "zops": ("matmul", "zmzn_form", "creator_form", "annihilator_form", "apply",
             "qform_norm", "cross_norm"),
    "warped": ("warp", "q_commutator", "warp_spectral", "momentum_sector_decompose",
               "deformed_vector_matrices", "nested_free_family",
               "nested_graded_family", "nested_q_family"),
    "scattering": ("symmetrize",),
}
# Spans reported with self time only.
LAYER_SELF = ("zops.symmetrizer_matrix", "sampling.random_form", "io.save_form",
              "io.load_form", "io.save_family", "io.load_family")
COUNTERS = {"zops.matmul.gflop": "GFLOP", "zops.symmetrizer_matrix.mbytes": "MB",
            "io.bytes_written": "B", "io.bytes_read": "B"}
SUITES = ("scattering", "fock", "zops", "contractions", "expansion", "warped")
CLI_COMMANDS = ("expand", "reconstruct", "warp", "qcomm")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for mod, fns in LAYER_SPANS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
    for span in LAYER_SELF:
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    for _, _, prefix in tracer.CACHES:
        units[f"{prefix}.hits"] = "count"
        units[f"{prefix}.misses"] = "count"
    for suite in SUITES:
        units[f"suites.{suite}.s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.s"] = "s"
    for mod in tracer.MODULES:
        units[f"{mod}.self_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Launcher:
    """Starts child interpreters for one workload and collects their records."""

    def __init__(self, root: str, workload: str, input_path: str, work: str, t_start: float):
        self.root, self.workload, self.input_path, self.work = root, workload, input_path, work
        self.t_start = t_start
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        self.count = 0

    def spawn(self, *flags: str) -> dict | None:
        """Run one child to completion; its record, or None if it failed."""
        self.count += 1
        workdir = os.path.join(self.work, str(self.count))
        timeout = max(5.0, HARD_LIMIT_S - (time.monotonic() - self.t_start))
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--input", self.input_path, "--workdir", workdir, *flags,
               "--spawned-ns", str(_monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"child {self.count} exceeded {timeout:.0f} s and was killed", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"child {self.count} exited with {proc.returncode}", file=sys.stderr)
            return None
        record = json.loads(lines[-1])
        record["elapsed"] = time.monotonic() - t0
        return record


def _fits(deadline: float, cost: float) -> bool:
    return time.monotonic() + cost <= deadline


def run_untraced(launcher: Launcher, deadline: float) -> tuple[list, list, int]:
    """Set-up probes, then repetitions while the next one fits before the deadline."""
    setups, reps, crashed = [], [], 0
    for i in range(SETUP_PROBES):
        probe = launcher.spawn("--setup-only")
        if probe is None:
            if i == 0:
                raise SystemExit("zfock could not be set up; no result")
            crashed += 1
            continue
        setups.append(probe["setup_s"])
    cost = 0.0
    while not reps or _fits(deadline, cost):
        rec = launcher.spawn()
        if rec is None:
            if not reps:
                raise SystemExit("zfock could not be run; no result")
            crashed += 1
            break
        reps.append(rec)
        setups.append(rec["setup_s"])
        cost = max(cost, rec["elapsed"])
    return setups, reps, crashed


def run_traced(launcher: Launcher, deadline: float) -> tuple[list, list, int]:
    """Alternate untraced and traced repetitions while a pair fits."""
    plain, traced, crashed = [], [], 0
    cost = 0.0
    while not traced or _fits(deadline, cost):
        a = launcher.spawn()
        b = launcher.spawn("--trace") if a is not None else None
        if a is None or b is None:
            if not traced:
                raise SystemExit("zfock could not be run with tracing; no result")
            crashed += 1
            break
        plain.append(a)
        traced.append(b)
        cost = max(cost, a["elapsed"] + b["elapsed"])
    return plain, traced, crashed


def layer_metrics(plain: list, traced: list) -> dict[str, float]:
    """Per-layer values: medians of times over traced repetitions, counts as measured."""
    values = {}
    for name in per_layer_units():
        if name == "trace_overhead_s":
            values[name] = (statistics.median([r["wall_s"] for r in traced])
                            - statistics.median([r["wall_s"] for r in plain]))
            continue
        samples = []
        for rec in traced:
            head, _, stat = name.rpartition(".")
            spans = rec["spans"]
            if stat in ("calls", "self_s") and head in spans:
                v = spans[head][stat]
            elif name in rec["counters"]:
                v = rec["counters"][name]
            elif name in rec["caches"]:
                v = rec["caches"][name]
            elif name in rec["layer_seconds"]:
                v = rec["layer_seconds"][name]
            elif stat == "self_s" and head in tracer.MODULES:
                v = sum(s["self_s"] for n, s in spans.items() if n.startswith(head + "."))
            else:
                v = 0
            samples.append(v)
        values[name] = statistics.median(samples)
    return values


def _provenance(root: str, seed: int, rec: dict | None) -> dict:
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    src = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(root, "src"))):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src.update(f.encode() + fh.read())
    prov = {"commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "launcher_processes": 1, "blas_threads_env": BLAS_THREADS}
    if rec is not None:
        prov.update(rec.get("provenance", {}))
    return prov


def _problems(records: list, crashed: int) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, and what makes the run incorrect."""
    attempted = sum(r["attempted"] for r in records) + crashed
    failed = sum(r["failed"] for r in records) + crashed
    problems = []
    if crashed:
        problems.append(f"{crashed} repetition(s) crashed")
    if failed:
        bad = sorted({k for r in records for k in r["residuals"] if k.endswith(".error")})
        problems.append(f"{failed} of {attempted} operations failed {bad}")
    if len({r["digest"] for r in records}) > 1:
        problems.append("repetitions of one input produced different outputs")
    return attempted, failed, problems


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + seconds
    work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        input_path = os.path.join(work, "input.json")
        with open(input_path, "w") as fh:
            json.dump(workloads.make_input(workload, seed), fh)
        launcher = Launcher(root, workload, input_path, work, t_start)
        if trace:
            plain, traced, crashed = run_traced(launcher, deadline)
            records = plain + traced
        else:
            setups, records, crashed = run_untraced(launcher, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = _problems(records, crashed)
    first = records[0]
    print("provenance " + json.dumps(_provenance(root, seed, first), sort_keys=True))
    print("residuals " + json.dumps(first["residuals"], sort_keys=True))
    print(f"output_sha256 {first['digest']}")
    print(f"repetitions {len(records)} crashed {crashed}")
    print(f"{workload} fail_frac {failed / attempted:.6g} 1")

    if trace:
        try:
            tracer.self_test()
        except AssertionError as exc:
            problems.append(str(exc))
        values = layer_metrics(plain, traced)
        units = per_layer_units()
        print(f"traced repetitions {len(traced)}, rebound names {traced[0]['rebound']}, "
              f"spans {traced[0]['span_count']}, outputs identical to untraced: "
              f"{len({r['digest'] for r in records}) == 1}")
        print("spans by self time (first traced repetition):")
        for name, st in sorted(traced[0]["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<44} calls {st['calls']:>8} self {st['self_s']:9.4f} s "
                  f"total {st['total_s']:9.4f} s")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        values = {"wall_s": statistics.median([r["wall_s"] for r in records]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in records])}
        for k, unit in END_TO_END.items():
            print(f"{workload} {k} {values[k]:.6g} {unit}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zfock", "__init__.py")):
        print("no zfock sources under ./src: run from the repository root", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        print(json.dumps(run_workload(root, name, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
