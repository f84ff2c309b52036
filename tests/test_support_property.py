"""Property: the contraction sums equal the dense masked sums over all contractions.

The dense references rebuild each term as ``delta_mask * s_factor_grid
(* r_factor_grid) * embed_reduced`` over all (N,)*(m+n) tuples and sum them
contraction by contraction, the way the coefficient formulas read.  A
single ``add_on_support`` insertion, plain or reflected, must add exactly
its dense term, for every contraction through (3, 3).  The
package sums on orbit pairs, one Horner step over the point ladder per
contraction depth, so the dense views of its coefficients
(``extract_family``), inversion residuals and reflected coefficients are
compared with the dense sums at rel 1e-12 of the family's largest entry;
they are fed the same matrix elements (the dense views of
``creator_elements``), which are themselves checked against the dense
L^H A R of ``reference`` at rel 1e-12.  Models are free, ising, sinh_exp and
a table of random unitary values with S(0) = +1 or -1.  Lattices are random
or symmetric, with 2-4 points at truncation 3 and 2-3 points at truncation
4, where four nesting levels run; the examples are derandomized so the run
is deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.contractions import add_on_support, enumerate_contractions
from zfock.expansion import (creator_elements, extract_family, inversion_residual,
                             reflected_coeffs)
from zfock.fock import RapidityGrid
from zfock.sampling import keyed_rng, random_form
from zfock.scattering import ScatteringModel
from zfock.zops import OrbitKernel, dense_kernel

from reference import (delta_mask, embed_reduced, left_vector_matrix, r_factor_grid,
                       right_vector_matrix, s_factor_grid, tabulated)

K = 3
REL = 1e-12

MODELS = {"free": lambda a, grid, rng: ScatteringModel.free(),
          "ising": lambda a, grid, rng: ScatteringModel.ising(),
          "sinh_exp": lambda a, grid, rng: ScatteringModel.sinh_exp(a),
          "table": lambda a, grid, rng: tabulated(grid, rng)}


@st.composite
def lattices(draw, max_size=4):
    """Strictly increasing lattices of 2 to max_size points, half of them symmetric about 0."""
    size = draw(st.integers(2, max_size))
    if draw(st.booleans()):
        half = draw(st.lists(st.floats(0.05, 1.5), min_size=size // 2,
                             max_size=size // 2, unique=True))
        pts = [-p for p in half] + ([0.0] if size % 2 else []) + half
    else:
        pts = draw(st.lists(st.floats(-1.5, 1.5), min_size=size, max_size=size,
                            unique=True))
    return RapidityGrid(tuple(sorted(pts)), 1.0)


def dense_factors(model, grid, m, n):
    """Per contraction of (m, n), the dense delta_mask * s_factor_grid, without
    and with the r_factor_grid factor."""
    out = {}
    for C in enumerate_contractions(m, n):
        plain = delta_mask(C, grid.size) * s_factor_grid(model, grid.points, C)
        out[C] = (plain, plain * r_factor_grid(model, grid.points, C))
    return out


def dense_elements(A, m, n):
    """The dense view of the multi-creator matrix elements of block (m, n)."""
    return dense_kernel(A.model, A.grid, OrbitKernel(m, n, creator_elements(A, m, n))).values


def dense_entry(family, m, n):
    return dense_kernel(family.model, family.grid, family.entry(m, n)).values


def dense_fmn(model, A, m, n, factors):
    N = A.grid.size
    out = np.zeros((N,) * (m + n), dtype=complex)
    for C, (factor, _) in factors.items():
        mh, nh = m - C.size, n - C.size
        M = dense_elements(A, mh, nh)
        out += ((-1) ** C.size) * (factor * embed_reduced(C, M, N))
    return out


def dense_inversion(model, A, m, n, family, factors):
    N = A.grid.size
    lhs = dense_elements(A, m, n)
    rhs = np.zeros_like(lhs)
    for C, (factor, _) in factors.items():
        reduced = dense_entry(family, m - C.size, n - C.size)
        rhs += factor * embed_reduced(C, reduced, N)
    return float(np.max(np.abs(lhs - rhs)))


def dense_reflected(family, m, n, factors):
    N = family.grid.size
    out = np.zeros((N,) * (m + n), dtype=complex)
    for C, (_, factor) in factors.items():
        mh, nh = m - C.size, n - C.size
        g = dense_entry(family, nh, mh)
        reduced = g.transpose(tuple(range(nh, nh + mh)) + tuple(range(nh)))
        out += ((-1) ** C.size) * (factor * embed_reduced(C, reduced, N))
    return out


def assert_insertions_equal_dense_terms(model, family, factors, rng):
    """One ``add_on_support`` insertion adds exactly its dense term: bitwise,
    plain and reflected, with the target left as it was off the support."""
    grid, N = family.grid, family.grid.size
    for (m, n), terms in factors.items():
        # np.array keeps the 0-slot target an array that can be written through
        base = np.array(rng.standard_normal((N,) * (m + n))
                        + 1j * rng.standard_normal((N,) * (m + n)))
        for C, dense in terms.items():
            reduced = dense_entry(family, m - C.size, n - C.size)
            for reflected, factor in zip((False, True), dense):
                got = base.copy()
                add_on_support(got, model, grid.points, C, reduced, reflected=reflected)
                np.testing.assert_array_equal(got, base + factor * embed_reduced(C, reduced, N))


def assert_sums_match_dense(model, grid, truncation, seed):
    """Coefficients, inversion residuals and reflected coefficients of a random
    form against the dense sums; returns the family and the dense factors."""
    A = random_form(model, grid, truncation, keyed_rng(seed, "property", "support"))
    fam = extract_family(model, A)
    slots = [(m, n) for m in range(truncation + 1) for n in range(truncation + 1)]
    for m, n in slots:
        dense = left_vector_matrix(model, grid, m).conj().T @ A.block(m, n) \
            @ right_vector_matrix(model, grid, n)
        np.testing.assert_allclose(dense_elements(A, m, n).reshape(dense.shape),
                                   dense, rtol=0, atol=REL * np.max(np.abs(dense)))
    factors = {mn: dense_factors(model, grid, *mn) for mn in slots}
    want = {mn: dense_fmn(model, A, *mn, factors[mn]) for mn in slots}
    scale = max(float(np.max(np.abs(f))) for f in want.values())
    for m, n in slots:
        np.testing.assert_allclose(dense_entry(fam, m, n), want[(m, n)],
                                   rtol=0, atol=REL * scale)
        assert inversion_residual(model, creator_elements(A, m, n), m, n, fam) == pytest.approx(
            dense_inversion(model, A, m, n, fam, factors[(m, n)]), rel=0, abs=REL * scale)
    reflected = {mn: dense_reflected(fam, *mn, factors[mn]) for mn in slots}
    scale = max(float(np.max(np.abs(f))) for f in reflected.values())
    for m, n in slots:
        got = dense_kernel(model, grid, reflected_coeffs(model, fam, m, n)).values
        np.testing.assert_allclose(got, reflected[(m, n)], rtol=0, atol=REL * scale)
    return fam, factors


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
def test_support_sums_equal_dense_sums(family, a, grid, seed):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "table"))
    fam, factors = assert_sums_match_dense(model, grid, K, seed)
    assert_insertions_equal_dense_terms(model, fam, factors, keyed_rng(seed, "property", "base"))


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=4, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(max_size=3), seed=st.integers(0, 2**16))
def test_depth_four_sums_equal_dense_sums(family, a, grid, seed):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "table"))
    assert_sums_match_dense(model, grid, 4, seed)

