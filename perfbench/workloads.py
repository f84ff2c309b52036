"""The four benchmark workloads: inputs from a seed, set-up, run and checks.

``make_input`` runs in the launcher and needs neither numpy nor zfock; the
program sees only what it returns.  ``setup`` and ``run`` execute in a
fresh interpreter per repetition, so zfock's caches start cold exactly as
they do for one ``zfock`` command.

Why these four (each likely optimisation dominates one workload and barely
registers on another):

- verify_deep: K=4 with S(0)=+1; the contraction sums inside the coefficient
  extraction dominate, so exchange/reflection-factor work shows here.
- verify_wide: N=6, K=3 with S(0)=-1 (Ising); dense 216-wide blocks, warp
  and matmul dominate and the contraction suite is nearly free, and
  ``warped._phase_block`` misses.
- norm_batch: the seven norm and bound checks of acceptance criterion 3;
  SVD-bound in ``qform_norm``/``cross_norm``, where a norm hoist shows.
- cli_pipeline: the only workload with file I/O; one large form goes
  through expand, reconstruct, warp and qcomm of ``zfock.cli``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import time

GRID3 = [-0.8, 0.1, 0.9]
GRID4 = [-1.1, -0.3, 0.4, 1.2]
GRID6 = [-1.3, -0.8, -0.3, 0.2, 0.7, 1.3]
LOG_OMEGA = {"family": "log", "alpha": 0.8}

NAMES = ("verify_deep", "verify_wide", "norm_batch", "cli_pipeline")

# Acceptance tolerances, fixed here so that the program cannot loosen them.
NORM_TOL = 1e-12
ROUNDTRIP_TOL = 1e-10

NORM_COUNT = 24   # instances per norm check; sets the run length of norm_batch
CLI_WARP_A = 0.6


def _run_config(grid, truncation, scattering, seed, instances):
    return {"grid": grid, "mass": 1.0, "truncation": truncation,
            "scattering": scattering, "omega": LOG_OMEGA,
            "seed": seed, "instances": instances}


def make_input(workload: str, seed: int) -> dict:
    """The generated input of one workload; the same seed gives the same input."""
    if workload == "verify_deep":
        return {"config": _run_config(GRID3, 4, {"family": "sinh_exp", "a": 0.7}, seed, 2)}
    if workload == "verify_wide":
        return {"config": _run_config(GRID6, 3, {"family": "ising"}, seed, 4)}
    if workload == "norm_batch":
        models = [{"family": "free"}, {"family": "ising"}, {"family": "sinh_exp", "a": 0.7}]
        return {"configs": [_run_config(GRID4, 4, s, seed, NORM_COUNT) for s in models],
                "small_grid": GRID3,
                "second_omega": {"family": "sqrt", "alpha": 0.4}}
    if workload == "cli_pipeline":
        return {"config": _run_config(GRID6, 3, {"family": "sinh_exp", "a": 0.7}, seed, 1),
                "a": CLI_WARP_A}
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(NAMES)})")


class Outcome:
    """What one repetition did: operations, residuals and a digest of its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.residuals: dict[str, float | None] = {}
        self.digest = ""
        self.layer_seconds: dict[str, float] = {}  # suites.<suite>.s, cli.<cmd>.s

    def record(self, name: str, residual: float | None, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.residuals[name] = residual

    def add_seconds(self, name: str, seconds: float) -> None:
        self.layer_seconds[name] = self.layer_seconds.get(name, 0.0) + seconds


def setup(workload: str, data: dict) -> dict:
    """Import zfock, parse the generated config(s) and build the model(s)."""
    from zfock.config import parse_config

    if workload == "norm_batch":
        from zfock.fock import Indicatrix, RapidityGrid

        cfgs = [parse_config(json.dumps(c)) for c in data["configs"]]
        omega2 = data["second_omega"]
        return {"cfgs": cfgs, "models": [c.build_model() for c in cfgs],
                "grid3": RapidityGrid(tuple(data["small_grid"]), cfgs[0].grid.mass),
                "omega2": Indicatrix.sqrt(omega2["alpha"])}
    text = json.dumps(data["config"])
    cfg = parse_config(text)
    return {"cfg": cfg, "model": cfg.build_model(), "config_text": text, "data": data}


def run(workload: str, ctx: dict, workdir: str) -> tuple[Outcome, float]:
    """Run one repetition; returns the outcome and its wall time in seconds.

    The wall time runs from the first call into zfock until the last result
    is checked; digests for review are taken after it.
    """
    if workload in ("verify_deep", "verify_wide"):
        return _run_verify(ctx)
    if workload == "norm_batch":
        return _run_norm_batch(ctx)
    return _run_cli(ctx, workdir)


def _run_verify(ctx):
    from zfock import suites

    out = Outcome()
    t0 = time.perf_counter()
    report = suites.run_suites(ctx["cfg"])
    for r in report.records:
        out.record(f"{r.suite}.{r.check}", r.residual, r.status == "pass")
        out.add_seconds(f"suites.{r.suite}.s", r.seconds)
    wall = time.perf_counter() - t0
    out.digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
    return out, wall


def _run_norm_batch(ctx):
    from zfock import suites

    suite_of = {name: suite for suite, checks in suites.SUITE_CHECKS.items()
                for name, _, _ in checks}
    cfg0 = ctx["cfgs"][0]
    grid4, grid3, K, seed, count = (cfg0.grid, ctx["grid3"], cfg0.truncation,
                                    cfg0.seed, cfg0.instances)
    omega = cfg0.omega
    calls = []
    for cfg, model in zip(ctx["cfgs"], ctx["models"]):
        fam = cfg.scattering["family"]
        calls += [
            (fam, "creator_weight_bound", suites.check_creator_weight_bound,
             (model, grid4, K, omega, seed, count)),
            (fam, "monomial_source_bound", suites.check_monomial_source_bound,
             (model, grid4, K, omega, seed, count)),
            (fam, "monomial_sector_bound", suites.check_monomial_sector_bound,
             (model, grid3, K, omega, seed, count)),
            (fam, "coefficient_bound", suites.check_coefficient_bound,
             (model, grid3, K, omega, seed, count)),
        ]
    for label, om in (("log", omega), ("sqrt", ctx["omega2"])):
        calls += [
            (label, "bounded_factor_rule", suites.check_bounded_factor_rule,
             (grid4, om, seed, count)),
            (label, "independent_product_rule", suites.check_independent_product_rule,
             (grid4, om, seed, count)),
            (label, "kernel_norm_comparison", suites.check_kernel_norm_comparison,
             (grid4, om, seed, count)),
        ]
    out = Outcome()
    t0 = time.perf_counter()
    for label, name, check, args in calls:
        t = time.perf_counter()
        try:
            residual = float(check(*args))
        except Exception as exc:  # a crashing check is a failed operation
            out.record(f"{name}.{label}", None, False)
            out.residuals[f"{name}.{label}.error"] = f"{type(exc).__name__}: {exc}"
        else:
            out.record(f"{name}.{label}", residual, residual <= NORM_TOL)
        out.add_seconds(f"suites.{suite_of.get(name, 'other')}.s", time.perf_counter() - t)
    wall = time.perf_counter() - t0
    out.digest = hashlib.sha256(
        json.dumps(out.residuals, sort_keys=True).encode()).hexdigest()
    return out, wall


def _form_blocks(path: str) -> dict:
    """Blocks of a saved form, read with json alone, independent of zfock.io."""
    import numpy as np

    with open(path) as fh:
        doc = json.load(fh)
    blocks = {}
    for rec in doc["blocks"]:
        arr = np.asarray(rec["values"], dtype=float)
        blocks[(rec["rows"], rec["cols"])] = arr[..., 0] + 1j * arr[..., 1]
    return blocks


def _relative_residual(path: str, reference) -> float:
    """max |saved - reference| over all blocks, relative to max |reference|."""
    import numpy as np

    got = _form_blocks(path)
    scale = max(float(np.max(np.abs(m))) for m in reference.blocks.values() if m.size)
    err = 0.0
    for key in set(got) | set(reference.blocks):
        diff = got.get(key, 0) - reference.blocks.get(key, 0)
        if np.size(diff):
            err = max(err, float(np.max(np.abs(diff))))
    return err / scale


def _run_cli(ctx, workdir):
    from zfock import cli, io, sampling

    cfg, model, a = ctx["cfg"], ctx["model"], ctx["data"]["a"]
    os.makedirs(workdir, exist_ok=True)
    path = {name: os.path.join(workdir, name)
            for name in ("cfg.json", "A.json", "B.json", "family", "R.json",
                         "W.json", "WW.json", "C.json")}
    with open(path["cfg.json"], "w") as fh:
        fh.write(ctx["config_text"])
    commands = [
        ("expand", ["--config", path["cfg.json"], "--in", path["A.json"], "--out", path["family"]]),
        ("reconstruct", ["--config", path["cfg.json"], "--in", path["family"], "--out", path["R.json"]]),
        ("warp", [f"--a={a!r}", "--in", path["A.json"], "--out", path["W.json"]]),
        ("warp", [f"--a={-a!r}", "--in", path["W.json"], "--out", path["WW.json"]]),
        ("qcomm", [f"--a={a!r}", "--lhs", path["A.json"], "--rhs", path["B.json"],
                   "--out", path["C.json"]]),
    ]
    out = Outcome()
    t0 = time.perf_counter()
    forms = {}
    for label in ("A", "B"):
        rng = sampling.keyed_rng(cfg.seed, "perfbench", "cli_pipeline", label)
        forms[label] = sampling.random_form(model, cfg.grid, cfg.truncation, rng)
        io.save_form(path[f"{label}.json"], forms[label])
    for i, (command, args) in enumerate(commands):
        t = time.perf_counter()
        try:
            rc = cli.main([command] + args)
        except Exception as exc:  # a crashing command is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        out.add_seconds(f"cli.{command}.s", time.perf_counter() - t)
        out.record(f"{i}.{command}.exit", None, rc == 0)
    for name, target in (("roundtrip", "R.json"), ("warp_inverse", "WW.json")):
        try:
            residual = _relative_residual(path[target], forms["A"])
        except (OSError, ValueError, KeyError) as exc:
            out.record(name, None, False)
            out.residuals[f"{name}.error"] = f"{type(exc).__name__}: {exc}"
        else:
            out.record(name, residual, math.isfinite(residual) and residual <= ROUNDTRIP_TOL)
    wall = time.perf_counter() - t0
    digest = hashlib.sha256()
    outputs = [path[n] for n in ("R.json", "W.json", "WW.json", "C.json")]
    outputs += sorted(glob.glob(os.path.join(path["family"], "*.json")))
    for p in outputs:
        if os.path.exists(p):
            with open(p, "rb") as fh:
                digest.update(fh.read())
    out.digest = digest.hexdigest()
    return out, wall
