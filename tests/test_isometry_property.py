"""Property: the orbit isometry spans the symmetric subspace and keeps every norm.

``symmetric_isometry``, a map from tuples to orbits, expanded to its dense
V by ``reference.isometry_matrix``, must be an isometry onto the range of
the dense symmetrizer P of ``reference``, one column per orbit.  The
compressed norms, ``qform_norms`` and ``weighted_norms`` with the
``orbit_weights``, must equal the dense spectral norms over all N**n
tuples: plainly for forms with A = P A P, and sandwiched between
symmetrizers for any other form, which is stored through
``QuadraticForm.from_dense``.  The dense
views of the form constructors, which build the compressed blocks
directly, must equal their dense P X P references; ``random_form`` must
draw its compressed blocks in row-major order with one entry per orbit
pair.  The merge map ``zops._orbit_merge`` behind the ladders, the
monomials and the expansion, expanded to its dense split, must equal
V_l^H kron(V_m, V_{l-m}) with the V of the n! loop
(``reference.dense_split``) for every 0 <= m <= l <= K, sectors without
orbits included, and its two ladder slices must be tied by the reversal
phases W.  ``zops.symmetrize`` on any
contiguous block of slots of a tensor with up to 4 slots must equal the
dense P applied to that block.  Models are free, ising, sinh_exp and a
table of random unitary values on the lattice differences with S(0) = +1
or -1; lattices are random or symmetric, with 2-4 points; the examples
are derandomized so the run is deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zfock.fock import Indicatrix, RapidityGrid, basis_tuples, energy_grid
from zfock.sampling import keyed_rng, random_form, random_kernel
from zfock.zops import (QuadraticForm, _orbit_merge, annihilator_form, compress_kernel,
                        creator_form, identity_form, orbit_weights, qform_norms,
                        symmetric_isometry, symmetrize, weighted_norms, zmzn_form)

from reference import (dense_split, isometry_matrix, merge_split, symmetrize_block,
                       symmetrizer_matrix)
from test_support_property import MODELS, lattices

K = 3
REL = 1e-12


def weights(grid, omega, n, sign):
    return np.exp(sign * omega.weight(energy_grid(grid, n)))


def dense_qform_norm(model, grid, blocks, n, omega, sandwich):
    """0.5 (|P A W P| + |P W A P|) over all tuples; P = 1 without ``sandwich``."""
    offs = np.cumsum([0] + [grid.size**j for j in range(n + 1)])
    M = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for (l, k), mat in blocks.items():
        if l <= n and k <= n:
            M[offs[l]:offs[l + 1], offs[k]:offs[k + 1]] = mat
    w = np.concatenate([weights(grid, omega, j, -1) for j in range(n + 1)])
    P = np.eye(len(w), dtype=complex)
    if sandwich:
        for j in range(n + 1):
            P[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = symmetrizer_matrix(model, grid, j)
    return 0.5 * float(np.linalg.norm(P @ (M * w[None, :]) @ P, ord=2)
                       + np.linalg.norm(P @ (w[:, None] * M) @ P, ord=2))


def dense_sector_norm(model, grid, mat, l, k, wl, wr, sandwich):
    """|P_l diag(wl) mat diag(wr) P_k| over all tuples; P = 1 without ``sandwich``."""
    weighted = wl[:, None] * mat * wr[None, :]
    if sandwich:
        weighted = symmetrizer_matrix(model, grid, l) @ weighted \
            @ symmetrizer_matrix(model, grid, k)
    return float(np.linalg.norm(weighted, ord=2))


def assert_norms_match(model, A, omega, blocks, sandwich):
    """The norms of A against the dense ones of ``blocks``, equal at rel 1e-12;
    a block that vanishes on the symmetric subspace may keep rounding noise
    of the dense symmetrizer, so it is compared at 1e-12 of the largest
    block norm instead."""
    grid = A.grid
    [got] = qform_norms(model, [A], omega)
    assert len(got) == K + 1
    for n in range(K + 1):
        assert got[n] == pytest.approx(
            dense_qform_norm(model, grid, blocks, n, omega, sandwich), rel=REL)
    sides = {key: (weights(grid, omega, key[0], 1), weights(grid, omega, key[1], -1))
             for key in blocks}
    got = weighted_norms([(A.orbit_block(l, k), orbit_weights(model, grid, omega, l, 1),
                            orbit_weights(model, grid, omega, k, -1)) for l, k in blocks])
    want = [dense_sector_norm(model, grid, mat, l, k, *sides[(l, k)], sandwich)
            for (l, k), mat in blocks.items()]
    scale = max(want)
    for got, want in zip(got, want):
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
        V = isometry_matrix(model, grid, n)
        basis = symmetric_isometry(model, grid, n)
        reps, peaks = basis.reps, basis.peaks
        P = symmetrizer_matrix(model, grid, n)
        assert V.shape == (N**n, math.comb(N, n) if strict else math.comb(N + n - 1, n))
        np.testing.assert_allclose(peaks, np.abs(V).max(axis=0, initial=0.0), rtol=0,
                                   atol=REL)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(len(reps)), rtol=0, atol=REL)
        np.testing.assert_allclose(V @ V.conj().T, P, rtol=0, atol=REL)
        tuples = basis_tuples(N, n)
        for j, rep in enumerate(reps):
            orbit = np.sort(tuples[np.flatnonzero(V[:, j])], axis=1)
            assert (orbit == tuples[rep]).all()
            assert (np.diff(tuples[rep]) > (0 if strict else -1)).all()

    A = random_form(model, grid, K, rng)
    assert_norms_match(model, A, omega, A.blocks, sandwich=False)
    kernel = random_kernel(grid, *degrees, rng)
    A = zmzn_form(model, compress_kernel(model, grid, kernel), grid, K)
    assert_norms_match(model, A, omega, A.blocks, sandwich=False)
    raw = {(l, k): rng.standard_normal((N**l, N**k)) + 1j * rng.standard_normal((N**l, N**k))
           for l in range(K + 1) for k in range(K + 1)}
    assert_norms_match(model, QuadraticForm.from_dense(model, grid, K, raw), omega, raw,
                       sandwich=True)


def sandwiched(model, grid, raw):
    """The dense reference P_l X P_k of every block X."""
    return {(l, k): symmetrizer_matrix(model, grid, l) @ X @ symmetrizer_matrix(model, grid, k)
            for (l, k), X in raw.items()}


def dense_zmzn(model, kernel, grid):
    """Blocks c P_l (F kron 1) P_k of the monomial, F with its incoming slots reversed."""
    N, m, n = grid.size, kernel.m, kernel.n
    perm = tuple(range(m)) + tuple(range(m + n - 1, m - 1, -1))
    F = kernel.values.transpose(perm).reshape(N**m, N**n)
    raw = {}
    for k in range(n, min(K, K - m + n) + 1):
        l = k - n + m
        c = math.sqrt(math.factorial(k) * math.factorial(l)) / math.factorial(k - n)
        raw[(l, k)] = c * np.kron(F, np.eye(N ** (k - n)))
    return sandwiched(model, grid, raw)


def assert_blocks_match(form, want):
    assert set(form.blocks) == set(want)
    scale = max(float(np.max(np.abs(b))) for b in want.values())
    for key, block in want.items():
        np.testing.assert_allclose(form.blocks[key], block, rtol=0, atol=REL * scale)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       degrees=st.tuples(st.integers(0, 2), st.integers(0, 2)))
# two points: with S(0) = -1 the sectors l > 2 have no orbits
@example(a=0.5, grid=RapidityGrid((-0.4, 0.3), 1.0), seed=0, degrees=(1, 2))
def test_forms_equal_dense_sandwiches(family, a, grid, seed, degrees):
    rng = keyed_rng(seed, "property", "sandwich")
    model = MODELS[family](a, grid, rng)
    N = grid.size
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    col, row = f.reshape(N, 1), f.reshape(1, N)
    assert_blocks_match(creator_form(model, grid, K, f), sandwiched(model, grid, {
        (k + 1, k): math.sqrt(k + 1) * np.kron(col, np.eye(N**k)) for k in range(K)}))
    assert_blocks_match(annihilator_form(model, grid, K, f), sandwiched(model, grid, {
        (k, k + 1): math.sqrt(k + 1) * np.kron(row, np.eye(N**k)) for k in range(K)}))
    assert_blocks_match(identity_form(model, grid, K), sandwiched(model, grid, {
        (n, n): np.eye(N**n) for n in range(K + 1)}))
    kernel = random_kernel(grid, *degrees, rng)
    assert_blocks_match(zmzn_form(model, compress_kernel(model, grid, kernel), grid, K),
                        dense_zmzn(model, kernel, grid))
    # random_form draws its compressed blocks, one entry per orbit pair,
    # in row-major (l, k) order, and its dense views are symmetric
    draws = keyed_rng(seed, "property", "draws")
    strict = model.value(0.0).real < 0
    dims = [math.comb(N, n) if strict else math.comb(N + n - 1, n) for n in range(K + 1)]
    got = random_form(model, grid, K, keyed_rng(seed, "property", "draws"))
    for l in range(K + 1):
        for k in range(K + 1):
            shape = (dims[l], dims[k])
            want = draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
            np.testing.assert_array_equal(got.orbit_blocks[(l, k)], want)
    assert_blocks_match(got, sandwiched(model, grid, got.blocks))
    # the merge map expands to the dense V_l^H kron(V_m, V_{l-m}); its
    # entries are at most 1 in modulus.  Its ladder slices L_a and R_a are
    # tied by W.
    def split(l, m):
        return merge_split(*_orbit_merge(model, grid, l, m), dims[l])

    for l in range(K + 1):
        for m in range(l + 1):
            want = dense_split(model, grid, l, m)
            got = split(l, m)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=REL)
        if l:
            L = split(l, l - 1).transpose(2, 1, 0)
            W = [symmetric_isometry(model, grid, j).W for j in (l, l - 1)]
            tied = W[0][:, None] * split(l, 1).conj() * W[1].conj()
            np.testing.assert_allclose(L, tied, rtol=0, atol=REL)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       rank=st.integers(1, 4))
def test_block_symmetrizer_equals_dense_projector(family, a, grid, seed, rank):
    rng = keyed_rng(seed, "property", "symmetrize")
    model = MODELS[family](a, grid, rng)
    shape = (grid.size,) * rank
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # P has norm one, so deviations are measured against the input; with
    # S(0) = -1 and more slots than points the dense P is rounding noise
    # where the orbit projection is exactly zero
    scale = float(np.max(np.abs(values)))
    for first in range(1, rank + 1):
        for last in range(first, rank + 1):
            slots = tuple(range(first, last + 1))
            want = symmetrize_block(model, grid, values, slots)
            got = symmetrize(model, grid, values, slots)
            assert got.shape == shape
            np.testing.assert_allclose(got, want, rtol=0, atol=REL * scale)
    np.testing.assert_array_equal(symmetrize(model, grid, values),
                                  symmetrize(model, grid, values, range(1, rank + 1)))
    bad = [(2, 1), (0, 1), (rank, rank + 1)] + ([(1, 3)] if rank >= 3 else [])
    for slots in bad:
        with pytest.raises(ValueError, match="contiguous block"):
            symmetrize(model, grid, values, slots)
