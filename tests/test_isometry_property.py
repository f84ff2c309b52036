"""Property: the orbit isometry spans the symmetric subspace and keeps every norm.

``symmetric_isometry`` must be an isometry onto the range of the
symmetrizer, one column per orbit, and the compressed norms
``qform_norm``/``sector_norm`` must equal the dense spectral norms over all
N**n tuples: plainly for forms with A = P A P, and sandwiched between
symmetrizers for any other form.  Models are free, ising, sinh_exp and a
table of random unitary values on the lattice differences; lattices are
random or symmetric, with 2-4 points; the examples are derandomized so the
run is deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.fock import Indicatrix, basis_tuples, energy_grid
from zfock.sampling import keyed_rng, random_form, random_kernel
from zfock.scattering import ScatteringModel
from zfock.zops import (QuadraticForm, qform_norm, sector_norm,
                        symmetric_isometry, symmetrizer_matrix, zmzn_form)

from test_support_property import lattices

K = 3
REL = 1e-12


def tabulated(grid, rng):
    """Unitary values S(-d) = conj S(d) on every lattice difference, S(0) = +-1."""
    pts = grid.array()
    keys = {round(float(d), 12) for d in (pts[:, None] - pts[None, :]).ravel()}
    diffs = sorted(key for key in keys if key > 0)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, len(diffs)))
    thetas = [0.0] + diffs + [-d for d in diffs]
    values = [float(rng.choice([-1.0, 1.0]))] + list(phases) + list(np.conj(phases))
    return ScatteringModel.tabulated(thetas, values)


MODELS = {"free": lambda a, grid, rng: ScatteringModel.free(),
          "ising": lambda a, grid, rng: ScatteringModel.ising(),
          "sinh_exp": lambda a, grid, rng: ScatteringModel.sinh_exp(a),
          "table": lambda a, grid, rng: tabulated(grid, rng)}


def weights(grid, omega, n, sign):
    return np.exp(sign * omega.weight(energy_grid(grid, n)))


def dense_qform_norm(model, A, n, omega, sandwich):
    """0.5 (|P A W P| + |P W A P|) over all tuples; P = 1 without ``sandwich``."""
    M = A.big_matrix(n)
    w = np.concatenate([weights(A.grid, omega, j, -1) for j in range(n + 1)])
    P = np.eye(len(w), dtype=complex)
    if sandwich:
        offs = np.cumsum([0] + [A.grid.size**j for j in range(n + 1)])
        for j in range(n + 1):
            P[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = symmetrizer_matrix(model, A.grid, j)
    return 0.5 * float(np.linalg.norm(P @ (M * w[None, :]) @ P, ord=2)
                       + np.linalg.norm(P @ (w[:, None] * M) @ P, ord=2))


def dense_sector_norm(model, grid, mat, l, k, wl, wr, sandwich):
    """|P_l diag(wl) mat diag(wr) P_k| over all tuples; P = 1 without ``sandwich``."""
    weighted = wl[:, None] * mat * wr[None, :]
    if sandwich:
        weighted = symmetrizer_matrix(model, grid, l) @ weighted \
            @ symmetrizer_matrix(model, grid, k)
    return float(np.linalg.norm(weighted, ord=2))


def assert_norms_match(model, A, omega, sandwich):
    """Equal at rel 1e-12; a block that vanishes on the symmetric subspace may
    keep rounding noise of the dense symmetrizer, so it is compared at 1e-12
    of the largest block norm instead."""
    grid = A.grid
    for n in range(K + 1):
        assert qform_norm(model, A, n, omega) == pytest.approx(
            dense_qform_norm(model, A, n, omega, sandwich), rel=REL)
    dense = {}
    for (l, k), mat in A.blocks.items():
        wl, wr = weights(grid, omega, l, 1), weights(grid, omega, k, -1)
        dense[(l, k)] = (sector_norm(model, grid, mat, l, k, wl, wr),
                         dense_sector_norm(model, grid, mat, l, k, wl, wr, sandwich))
    scale = max(want for _, want in dense.values())
    for got, want in dense.values():
        assert got == pytest.approx(want, rel=REL, abs=REL * scale)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       alpha=st.floats(0.0, 1.5), log=st.booleans(),
       degrees=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_orbit_isometry_keeps_norms(family, a, grid, seed, alpha, log, degrees):
    rng = keyed_rng(seed, "property", "isometry")
    model = MODELS[family](a, grid, rng)
    omega = Indicatrix.log(alpha) if log else Indicatrix.sqrt(alpha)
    N = grid.size
    strict = model.value(0.0).real < 0
    for n in range(K + 1):
        V, reps = symmetric_isometry(model, grid, n)
        P = symmetrizer_matrix(model, grid, n)
        assert V.shape == (N**n, math.comb(N, n) if strict else math.comb(N + n - 1, n))
        np.testing.assert_allclose(V.conj().T @ V, np.eye(len(reps)), rtol=0, atol=REL)
        np.testing.assert_allclose(V @ V.conj().T, P, rtol=0, atol=REL)
        tuples = basis_tuples(N, n)
        for j, rep in enumerate(reps):
            orbit = np.sort(tuples[np.flatnonzero(V[:, j])], axis=1)
            assert (orbit == tuples[rep]).all()
            assert (np.diff(tuples[rep]) > (0 if strict else -1)).all()

    assert_norms_match(model, random_form(model, grid, K, rng), omega, sandwich=False)
    kernel = random_kernel(grid, *degrees, rng)
    assert_norms_match(model, zmzn_form(model, kernel, grid, K), omega, sandwich=False)
    raw = QuadraticForm(grid, K, {(l, k): rng.standard_normal((N**l, N**k))
                                  + 1j * rng.standard_normal((N**l, N**k))
                                  for l in range(K + 1) for k in range(K + 1)})
    assert_norms_match(model, raw, omega, sandwich=True)
