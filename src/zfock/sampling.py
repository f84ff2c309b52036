"""Deterministic random inputs for verification runs.

Generators are counter-based (Philox) and keyed by a seed together with
string labels and an instance index, so any check can be reproduced in
isolation without replaying the runs before it.  Random forms are drawn
on orbit pairs, so the numbers a form takes from its generator depend on
the scattering model, through its orbit counts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .fock import FockState, RapidityGrid
from .scattering import ScatteringModel
from .zops import KernelTensor, QuadraticForm, orbit_dimension, symmetrize


def keyed_rng(seed: int, *labels) -> np.random.Generator:
    """Philox generator keyed by the seed and a label path."""
    digest = hashlib.blake2b(
        ("/".join(str(x) for x in (seed,) + labels)).encode(), digest_size=16
    ).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_kernel(grid: RapidityGrid, m: int, n: int, rng: np.random.Generator) -> KernelTensor:
    N = grid.size
    return KernelTensor(m, n, _complex(rng, (N,) * (m + n)))


def random_form(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                rng: np.random.Generator, kmax: int | None = None) -> QuadraticForm:
    """Dense random operator supported on the symmetric subspace.

    Blocks up to ``kmax`` (default: the truncation) are drawn complex
    gaussian on orbit pairs, in row-major (l, k) order: V^H G V of an iid
    complex gaussian G over all tuple pairs is again iid complex gaussian,
    so this is the distribution of the symmetric part of a gaussian over
    all N**l x N**k tuple pairs.  The draw sizes are the orbit counts of
    ``model`` (``zops.orbit_dimension``), so the random stream depends on
    the model.
    """
    kmax = truncation if kmax is None else kmax
    N = grid.size
    dims = [orbit_dimension(model, N, n) for n in range(kmax + 1)]
    blocks = {(l, k): _complex(rng, (dims[l], dims[k]))
              for l in range(kmax + 1) for k in range(kmax + 1)}
    return QuadraticForm(model, grid, truncation, blocks)


def random_state(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                 rng: np.random.Generator) -> FockState:
    """Random state with S-symmetric sectors."""
    N = grid.size
    sectors = []
    for n in range(truncation + 1):
        raw = _complex(rng, (N,) * n)
        sectors.append(symmetrize(model, grid, raw) if n >= 2 else raw)
    return FockState(grid, sectors)
