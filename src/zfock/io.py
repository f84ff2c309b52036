"""JSON file formats for states, kernels, forms, and coefficient families.

Complex tensors are stored as nested row-major lists whose innermost
entries are [re, im] pairs.  Every file carries its lattice so results
are self-describing.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .expansion import CoefficientFamily
from .fock import FockState, RapidityGrid
from .zops import KernelTensor, QuadraticForm


def complex_to_nested(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def nested_to_complex(data, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != shape + (2,):
        raise ValueError(f"payload shape {arr.shape} does not match {shape + (2,)}")
    return arr[..., 0] + 1j * arr[..., 1]


def _write_json(fh, obj) -> None:
    """Write what ``json.dump`` writes, with ndarrays as ``complex_to_nested`` lists.

    Keys and scalars go through the C encoder of ``json.dumps``; a tensor
    is encoded one row at a time, so no whole document is held as nested
    lists or as text.
    """
    if isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, value)
        fh.write("}")
    elif isinstance(obj, list):
        fh.write("[")
        for i, item in enumerate(obj):
            if i:
                fh.write(", ")
            _write_json(fh, item)
        fh.write("]")
    elif isinstance(obj, np.ndarray) and obj.ndim:
        fh.write("[")
        for i, row in enumerate(obj):
            fh.write((", " if i else "") + json.dumps(complex_to_nested(row)))
        fh.write("]")
    else:
        fh.write(json.dumps(complex_to_nested(obj) if isinstance(obj, np.ndarray) else obj))


def _grid_header(grid: RapidityGrid) -> dict:
    return {"grid": list(grid.points), "mass": grid.mass}


def _grid_from_header(data: dict) -> RapidityGrid:
    return RapidityGrid(tuple(data["grid"]), float(data["mass"]))


def save_state(path: str, state: FockState) -> None:
    N = state.grid.size
    doc = {
        "kind": "fock_state",
        **_grid_header(state.grid),
        "truncation": state.truncation,
        "sectors": list(state.sectors),
    }
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_state(path: str) -> FockState:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "fock_state":
        raise ValueError(f"{path} is not a state file")
    grid = _grid_from_header(doc)
    N = grid.size
    sectors = [nested_to_complex(sec, (N,) * n) for n, sec in enumerate(doc["sectors"])]
    return FockState(grid, sectors)


def save_kernel(path: str, kernel: KernelTensor, grid: RapidityGrid) -> None:
    doc = {
        "kind": "kernel_tensor",
        **_grid_header(grid),
        "m": kernel.m,
        "n": kernel.n,
        "values": kernel.values,
    }
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_kernel(path: str) -> tuple[KernelTensor, RapidityGrid]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "kernel_tensor":
        raise ValueError(f"{path} is not a kernel file")
    grid = _grid_from_header(doc)
    m, n = int(doc["m"]), int(doc["n"])
    values = nested_to_complex(doc["values"], (grid.size,) * (m + n))
    return KernelTensor(m, n, values), grid


def save_form(path: str, form: QuadraticForm) -> None:
    doc = {
        "kind": "quadratic_form",
        **_grid_header(form.grid),
        "truncation": form.truncation,
        "truncated": form.truncated,
        "blocks": [
            {"rows": l, "cols": k, "values": mat}
            for (l, k), mat in sorted(form.blocks.items())
        ],
    }
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_form(path: str) -> QuadraticForm:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "quadratic_form":
        raise ValueError(f"{path} is not a quadratic form file")
    grid = _grid_from_header(doc)
    N = grid.size
    K = int(doc["truncation"])
    blocks = {}
    for rec in doc["blocks"]:
        l, k = int(rec["rows"]), int(rec["cols"])
        blocks[(l, k)] = nested_to_complex(rec["values"], (N**l, N**k))
    return QuadraticForm(grid, K, blocks, bool(doc.get("truncated", False)))


def save_family(directory: str, family: CoefficientFamily) -> None:
    """Write one kernel file per entry plus a manifest."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for (m, n), kernel in sorted(family.entries.items()):
        name = f"coeff_{m}_{n}.json"
        save_kernel(os.path.join(directory, name), kernel, family.grid)
        entries.append({"m": m, "n": n, "file": name})
    manifest = {
        "kind": "coefficient_family",
        **_grid_header(family.grid),
        "truncation": family.truncation,
        "entries": entries,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest))


def load_family(directory: str) -> CoefficientFamily:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("kind") != "coefficient_family":
        raise ValueError(f"{directory} holds no coefficient family manifest")
    grid = _grid_from_header(manifest)
    family = CoefficientFamily(grid, int(manifest["truncation"]))
    for rec in manifest["entries"]:
        kernel, kgrid = load_kernel(os.path.join(directory, rec["file"]))
        if kgrid != grid:
            raise ValueError(f"kernel {rec['file']} lattice differs from the manifest")
        if (kernel.m, kernel.n) != (int(rec["m"]), int(rec["n"])):
            raise ValueError(f"kernel {rec['file']} slot counts differ from the manifest")
        family.set_entry(kernel)
    return family
