"""Property: the support-view contraction sums equal the dense masked sums exactly.

The dense references rebuild each term as ``delta_mask * s_factor_grid
(* r_factor_grid) * embed_reduced`` over all (N,)*(m+n) tuples, the way the
coefficient formulas read.  They are fed the same matrix elements as the
package (``creator_elements``), so the sums must agree bitwise; the elements
themselves are checked against the dense L^H A R of ``reference`` at rel
1e-12.  Lattices are random or symmetric, with 2-4 points; the examples are
derandomized so the run is deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.contractions import (delta_mask, enumerate_contractions,
                                r_factor_grid, s_factor_grid)
from zfock.expansion import (creator_elements, extract_family, inversion_residual,
                             reflected_coeffs)
from zfock.fock import RapidityGrid
from zfock.sampling import keyed_rng, random_form
from zfock.scattering import ScatteringModel

from reference import embed_reduced, left_vector_matrix, right_vector_matrix

K = 3

MODELS = {"free": lambda a: ScatteringModel.free(),
          "ising": lambda a: ScatteringModel.ising(),
          "sinh_exp": ScatteringModel.sinh_exp}


@st.composite
def lattices(draw):
    """Strictly increasing lattices of 2-4 points, half of them symmetric about 0."""
    size = draw(st.integers(2, 4))
    if draw(st.booleans()):
        half = draw(st.lists(st.floats(0.05, 1.5), min_size=size // 2,
                             max_size=size // 2, unique=True))
        pts = [-p for p in half] + ([0.0] if size % 2 else []) + half
    else:
        pts = draw(st.lists(st.floats(-1.5, 1.5), min_size=size, max_size=size,
                            unique=True))
    return RapidityGrid(tuple(sorted(pts)), 1.0)


def _dense_term(model, grid, C, reduced, reflected=False):
    N = grid.size
    term = delta_mask(C, N) * s_factor_grid(model, grid.points, C)
    if reflected:
        term = term * r_factor_grid(model, grid.points, C)
    return term * embed_reduced(C, reduced, N)


def dense_fmn(model, A, m, n):
    grid, N = A.grid, A.grid.size
    out = np.zeros((N,) * (m + n), dtype=complex)
    for C in enumerate_contractions(m, n):
        mh, nh = m - C.size, n - C.size
        M = creator_elements(model, grid, A.block(mh, nh), mh, nh)
        out += ((-1) ** C.size) * _dense_term(model, grid, C, M.reshape((N,) * (mh + nh)))
    return out


def dense_inversion(model, A, m, n, family):
    grid, N = A.grid, A.grid.size
    lhs = creator_elements(model, grid, A.block(m, n), m, n).reshape((N,) * (m + n))
    rhs = np.zeros_like(lhs)
    for C in enumerate_contractions(m, n):
        reduced = family.entry(m - C.size, n - C.size).values
        rhs += _dense_term(model, grid, C, reduced)
    return float(np.max(np.abs(lhs - rhs)))


def dense_reflected(model, family, m, n):
    N = family.grid.size
    out = np.zeros((N,) * (m + n), dtype=complex)
    for C in enumerate_contractions(m, n):
        mh, nh = m - C.size, n - C.size
        g = family.entry(nh, mh).values
        reduced = g.transpose(tuple(range(nh, nh + mh)) + tuple(range(nh)))
        out += ((-1) ** C.size) * _dense_term(model, family.grid, C, reduced, True)
    return out


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
def test_support_sums_equal_dense_sums(family, a, grid, seed):
    model = MODELS[family](a)
    A = random_form(model, grid, K, keyed_rng(seed, "property", "support"))
    fam = extract_family(model, A)
    for m in range(K + 1):
        for n in range(K + 1):
            dense = left_vector_matrix(model, grid, m).conj().T @ A.block(m, n) \
                @ right_vector_matrix(model, grid, n)
            np.testing.assert_allclose(creator_elements(model, grid, A.block(m, n), m, n),
                                       dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))
            np.testing.assert_array_equal(fam.entry(m, n).values,
                                          dense_fmn(model, A, m, n))
            assert inversion_residual(model, A, m, n, fam) \
                == dense_inversion(model, A, m, n, fam)
            np.testing.assert_array_equal(reflected_coeffs(model, fam, m, n).values,
                                          dense_reflected(model, fam, m, n))
