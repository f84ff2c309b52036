"""Property: one Horner step over the point ladder is the sum of the single-pair insertions.

``expansion._insertions`` takes an orbit matrix Y of (a - 1, b - 1) slots
to a b sum_x L_a[x] Y_x R_b[x]^T on (a, b) slots.  Its dense view must
equal both dense forms of the step on g = V_{a-1} Y V_{b-1}^T:

- the a b single-pair insertions of ``contractions.add_on_support`` into
  zeros, summed as the paper's contraction sum reads;
- a b times the S-symmetrization (``zops.symmetrize``) of both slot groups
  of the one adjacent insertion x_a = x_{a+1}, also by ``add_on_support``.

Both plain and with the reflection factor, for (a, b) up to (3, 3), at rel
1e-12 of the larger of the dense step and a b g.  Models are the shared
``MODELS`` table (free, ising, sinh_exp and tables with S(0) = +1 or -1);
lattices are random or symmetric with 2-4 points, 2-3 points at (3, 3),
and an explicit 2-point example draws the sectors without orbits; the
examples are derandomized.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zfock.contractions import Contraction, add_on_support, enumerate_contractions
from zfock.expansion import _insertions
from zfock.fock import RapidityGrid
from zfock.sampling import keyed_rng
from zfock.zops import OrbitKernel, dense_kernel, orbit_dimension, symmetrize

from test_support_property import MODELS, lattices

REL = 1e-12
STEPS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]


def assert_step_equals_insertions(model, grid, a, b, rng):
    N = grid.size
    shape = (orbit_dimension(model, N, a - 1), orbit_dimension(model, N, b - 1))
    Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = dense_kernel(model, grid, OrbitKernel(a - 1, b - 1, Y)).values
    adjacent = Contraction(a, b, ((a, a + 1),))
    for reflected in (False, True):
        got = dense_kernel(model, grid,
                           OrbitKernel(a, b, _insertions(model, grid, a, b, Y, reflected)))
        summed = np.zeros((N,) * (a + b), dtype=complex)
        for C in enumerate_contractions(a, b)[1:1 + a * b]:
            add_on_support(summed, model, grid.points, C, g, reflected=reflected)
        one = np.zeros((N,) * (a + b), dtype=complex)
        add_on_support(one, model, grid.points, adjacent, g, reflected=reflected)
        one = symmetrize(model, grid, one, range(1, a + 1))
        one = (a * b) * symmetrize(model, grid, one, range(a + 1, a + b + 1))
        scale = max(float(np.max(np.abs(summed), initial=0.0)),
                    a * b * float(np.max(np.abs(g), initial=0.0)))
        for want in (summed, one):
            np.testing.assert_allclose(got.values, want, rtol=0, atol=REL * scale,
                                       err_msg=f"(a, b) = {(a, b)}, reflected={reflected}")


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
# two points: with S(0) = -1 the sectors n > 2 have no orbits
@example(a=0.5, grid=RapidityGrid((-0.4, 0.3), 1.0), seed=1)
def test_ladder_step_equals_single_pair_insertions(family, a, grid, seed):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "ladder", "table"))
    rng = keyed_rng(seed, "property", "ladder")
    for steps in STEPS:
        assert_step_equals_insertions(model, grid, *steps, rng)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=3, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(max_size=3), seed=st.integers(0, 2**16))
def test_deepest_ladder_step_equals_single_pair_insertions(family, a, grid, seed):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "ladder", "table"))
    assert_step_equals_insertions(model, grid, 3, 3, keyed_rng(seed, "property", "ladder"))
