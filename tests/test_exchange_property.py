"""Property: the exchange checks batched over the second point equal the pairwise loops.

``suites.check_exchange_relations`` and ``suites.check_deformed_exchange``
loop over the first lattice point and batch over the second, through the
point ladder of ``zops.point_ladder``: one form with the lattice point as
batch axis.  Their residuals must equal, to the bit, those of the pairwise
oracles ``reference.loop_exchange_residual`` and
``reference.loop_deformed_exchange``, which take the same ladder one point
at a time with ``.batch(x)``: each word is then the same sequence of the
same floating-point operations, and a maximum is exact.  The point ladder
at each point must equal ``creator_form`` and ``annihilator_form`` at the
unit vector of that point at rel 1e-12 of the largest dense entry: those
smear the same ladder stack with the unit vector.  Models are the shared ``MODELS``
table (free, ising, sinh_exp and tables with S(0) = +1 or -1); lattices
are random or symmetric with 2-4 points, truncations 1-3; the examples are
derandomized.  ``suites.check_composition_law`` compares each permutation
against all others in one array operation; it must equal, to the bit, the
pair-by-pair ``reference.loop_composition_law``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock import suites
from zfock.sampling import keyed_rng
from zfock.scattering import pair_values
from zfock.zops import (QuadraticForm, annihilator_form, creator_form, form_residual,
                        point_ladder)

from reference import loop_composition_law, loop_deformed_exchange, loop_exchange_residual
from test_support_property import MODELS, lattices

REL = 1e-12


def assert_ladder_is_pointwise(model, grid, K):
    cre, ann = point_ladder(model, grid, K)
    zero = QuadraticForm(model, grid, K)
    for x, e in enumerate(np.eye(grid.size, dtype=complex)):
        for got, want in ((cre.batch(x), creator_form(model, grid, K, e)),
                          (ann.batch(x), annihilator_form(model, grid, K, e))):
            assert set(got.orbit_blocks) == set(want.orbit_blocks)
            assert form_residual(got, want) <= REL * form_residual(want, zero), x


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=12, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), K=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_exchange_relations_equal_pairwise_loop(family, a, grid, K, seed):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "exchange", "table"))
    assert_ladder_is_pointwise(model, grid, K)
    cre, ann = point_ladder(model, grid, K)
    want = loop_exchange_residual(pair_values(model, grid.points),
                                  [cre.batch(x) for x in range(grid.size)],
                                  [ann.batch(x) for x in range(grid.size)], K)
    assert suites.check_exchange_relations(model, grid, K) == want


@settings(max_examples=12, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=lattices(), K=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_deformed_exchange_equals_pairwise_loop(grid, K, seed):
    got = suites.check_deformed_exchange(grid, K, seed, 2)
    assert got == loop_deformed_exchange(grid, K, seed, 2)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=4, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
def test_composition_law_equals_pairwise_loop(family, a, grid, seed):
    # every sigma against all rho in one array operation: the same products
    # and differences as pair by pair, so the same maximum to the bit
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "composition", "table"))
    assert suites.check_composition_law(model, grid) == loop_composition_law(model, grid)
