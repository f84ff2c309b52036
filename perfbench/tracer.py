"""Span tracing of zfock from outside the package.

The tracer rebinds zfock's public functions, at every module-level name
that refers to them, to wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory and
are aggregated once the workload has ended.  A span's self time is its
duration minus the summed durations of its direct children; everything
runs on one thread, so the children of one span never overlap.

Run ``python3 perfbench/tracer.py`` to execute the self-test of the
aggregation on synthetic nested spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

MODULES = ("scattering", "fock", "zops", "contractions", "expansion",
           "warped", "sampling", "io", "suites", "cli")

# Methods recorded as spans, under the names the layer metrics use.
METHODS = {("zops", "QuadraticForm", "__matmul__"): "zops.matmul",
           ("zops", "QuadraticForm", "apply"): "zops.apply"}

# The module-level lru_caches: (module, attribute, metric prefix).
CACHES = (
    ("contractions", "enumerate_contractions", "contractions.enumerate_contractions"),
    ("expansion", "left_vector_matrix", "expansion.left_vector_matrix"),
    ("expansion", "right_vector_matrix", "expansion.right_vector_matrix"),
    ("fock", "basis_tuples", "fock.basis_tuples"),
    ("fock", "energy_grid", "fock.energy_grid"),
    ("fock", "sector_momentum", "fock.sector_momentum"),
    ("scattering", "all_permutations", "scattering.all_permutations"),
    ("scattering", "_pair_values_cached", "scattering.pair_values"),
    ("warped", "_phase_block", "warped._phase_block"),
    ("warped", "_point_ladder", "warped._point_ladder"),
    ("zops", "_perm_flat", "zops._perm_flat"),
    ("zops", "symmetrizer_matrix", "zops.symmetrizer_matrix"),
    ("zops", "reversal_permutation", "zops.reversal_permutation"),
)


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording a span per call; ``after(args, result)`` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None:
                after(args, result)
            return result

        traced.traced_original = fn
        return traced


def aggregate(spans: list[list], unit: float = 1e-9) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``self_s`` and ``total_s`` of recorded spans.

    ``total_s`` counts only outermost spans of a name, so recursion is not
    counted twice; ``self_s`` subtracts the direct children of each span.
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start - child[i]) * unit
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["total_s"] += (end - start) * unit
    return stats


def cache_objects() -> dict:
    """Metric prefix -> lru_cache object, for the caches present in zfock."""
    found = {}
    for mod, attr, prefix in CACHES:
        obj = getattr(sys.modules.get(f"zfock.{mod}"), attr, None)
        obj = getattr(obj, "traced_original", obj)
        if obj is not None and hasattr(obj, "cache_info"):
            found[prefix] = obj
    return found


def cache_counts() -> dict[str, int]:
    out = {}
    for prefix, obj in cache_objects().items():
        info = obj.cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
    return out


def _zfock_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "zfock" or name.startswith("zfock."))]


def _matmul_gflop(tracer):
    def after(args, result):
        a, b = args
        flop = 0
        for (l, j), x in a.blocks.items():
            for (jj, k), y in b.blocks.items():
                if jj == j:
                    flop += 8 * x.shape[0] * x.shape[1] * y.shape[1]
        tracer.count("zops.matmul.gflop", flop * 1e-9)
    return after


def _new_result_mbytes(tracer, name):
    seen = set()

    def after(args, result):
        if id(result) not in seen:
            seen.add(id(result))
            tracer.count(name, result.nbytes * 1e-6)
    return after


def _path_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    return os.path.getsize(path)


def _io_bytes(tracer, name):
    def after(args, result):
        tracer.count(name, _path_bytes(args[0]))
    return after


def install(tracer: Tracer) -> int:
    """Rebind every public zfock function, at every binding, to a traced wrapper.

    Returns the number of rebound names.  Raises RuntimeError if any
    module-level name or container still refers to an unwrapped target.
    """
    hooks = {
        "zops.symmetrizer_matrix": _new_result_mbytes(tracer, "zops.symmetrizer_matrix.mbytes"),
        "io.save_form": _io_bytes(tracer, "io.bytes_written"),
        "io.save_family": _io_bytes(tracer, "io.bytes_written"),
        "io.load_form": _io_bytes(tracer, "io.bytes_read"),
        "io.load_family": _io_bytes(tracer, "io.bytes_read"),
    }
    wrappers = {}  # id(original) -> (original, wrapper)
    for mod in MODULES:
        module = importlib.import_module(f"zfock.{mod}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            span = f"{mod}.{name}"
            wrappers[id(obj)] = (obj, tracer.wrap(obj, span, hooks.get(span)))
    rebound = 0
    for module in _zfock_modules():
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)][1])
                rebound += 1
    for (mod, cls, meth), span in METHODS.items():
        klass = getattr(sys.modules[f"zfock.{mod}"], cls)
        original = klass.__dict__[meth]
        after = _matmul_gflop(tracer) if span == "zops.matmul" else None
        wrapper = tracer.wrap(original, span, after)
        wrappers[id(original)] = (original, wrapper)
        setattr(klass, meth, wrapper)
        rebound += 1
    _check_complete(wrappers)
    return rebound


def _check_complete(wrappers: dict) -> None:
    originals = {id(orig) for orig, _ in wrappers.values()}
    missed = []
    for module in _zfock_modules():
        for name, obj in vars(module).items():
            held = [obj]
            if isinstance(obj, dict):
                held += list(obj.values())
            elif isinstance(obj, (list, tuple)):
                held += list(obj)
            elif isinstance(obj, type):
                held += list(vars(obj).values())
            if any(id(x) in originals for x in held):
                missed.append(f"{module.__name__}.{name}")
    if missed:
        raise RuntimeError(f"unwrapped bindings remain: {missed}")


def self_test() -> None:
    """Check self time = duration - children on scripted nested spans.

    Spans (start..end): a 0..200 holding b 10..45 (holding c 15..40) and
    c 70..100; then a 210..240 holding a 215..230.
    """
    ticks = iter([0, 10, 15, 40, 45, 70, 100, 200, 210, 215, 230, 240])
    tr = Tracer(clock=lambda: next(ticks))
    a = tr.enter("a")
    b = tr.enter("b")
    tr.exit(tr.enter("c"))
    tr.exit(b)
    tr.exit(tr.enter("c"))
    tr.exit(a)
    a = tr.enter("a")
    tr.exit(tr.enter("a"))
    tr.exit(a)
    got = aggregate(tr.spans, unit=1)
    want = {"a": {"calls": 3, "self_s": (200 - 35 - 30) + (30 - 15) + 15, "total_s": 230},
            "b": {"calls": 1, "self_s": 35 - 25, "total_s": 35},
            "c": {"calls": 2, "self_s": 25 + 30, "total_s": 55}}
    if got != want:
        raise AssertionError(f"tracer self-test: got {got}, want {want}")


if __name__ == "__main__":
    self_test()
    print("tracer self-test passed")
