"""Property: the tuple-to-orbit map equals the dense orbit basis of the n! loop.

``zops.symmetric_isometry`` stores V as one orbit index and one entry per
tuple, the entry being the exchange factor of one sorting permutation over
the square root of the orbit size.  ``reference.dense_isometry`` builds V
as the definition reads, summing s_sigma over every permutation that sorts
a tuple and normalizing each column.  The map's V, representatives, peaks
and reversal phases W must equal the oracle's at 1e-15 absolute, and every
merge map ``zops._orbit_merge`` with l <= 4, expanded to its dense split,
must equal the split of the oracle's V (``reference.dense_split``) at
1e-15 of the split's largest entry.  With S(0) = -1 the maps have -1
entries, sub-orbits that share a point, wherever both sub-orbits exist.
Models are those of ``test_support_property``: free, ising, sinh_exp and
a table of random unitary values with S(0) = +1 or -1.  Lattices have 2-4
points, so with S(0) = -1 the sectors with more slots than points have no
orbits; an explicit 2-point example makes sure that they are drawn.  The
examples are derandomized so the run is deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zfock.fock import RapidityGrid
from zfock.sampling import keyed_rng
from zfock.zops import _orbit_merge, symmetric_isometry

from reference import dense_isometry, dense_split, isometry_matrix, merge_split
from test_support_property import MODELS, lattices

L = 4
ATOL = 1e-15


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
# two points: with S(0) = -1 the sectors n > 2 have no orbits
@example(a=0.5, grid=RapidityGrid((-0.4, 0.3), 1.0), seed=1)
def test_orbit_map_equals_dense_isometry(family, a, grid, seed):
    rng = keyed_rng(seed, "property", "orbit_map")
    model = MODELS[family](a, grid, rng)
    for n in range(L + 1):
        V, reps, peaks, W = dense_isometry(model, grid, n)
        basis = symmetric_isometry(model, grid, n)
        np.testing.assert_array_equal(basis.reps, reps)
        got = isometry_matrix(model, grid, n)
        assert got.shape == V.shape
        np.testing.assert_allclose(got, V, rtol=0, atol=ATOL)
        np.testing.assert_allclose(basis.peaks, peaks, rtol=0, atol=ATOL)
        np.testing.assert_allclose(basis.W, W, rtol=0, atol=ATOL)
    for l in range(L + 1):
        for m in range(l + 1):
            want = dense_split(model, grid, l, m)
            merge, value = _orbit_merge(model, grid, l, m)
            assert merge.shape == value.shape == (want.shape[0], want.shape[2])
            got = merge_split(merge, value, want.shape[1])
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=ATOL * np.abs(want).max(initial=0.0))
            shared = model.sign_at_zero < 0 and 0 < m < l and merge.size > 0
            assert (merge < 0).any() == shared
