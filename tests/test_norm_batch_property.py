"""Property: the batched norm checks compare exactly the sides their loops compared.

``check_creator_weight_bound``, ``check_monomial_source_bound``,
``check_monomial_sector_bound`` and ``check_coefficient_bound`` draw every
instance, take all norms of one kind in one batched call, then evaluate
their inequalities.  The ``loop_*`` references of ``reference`` take one
spectral norm per call, instance by instance.  Both must hand
``suites._excess`` the same (lhs, rhs) pairs, bit for bit and in the same
order, and return the same residual.  Models are free, ising, sinh_exp and
a table of random unitary values with S(0) = +1 or -1; lattices have 2-4
points, instance counts 1-5; the examples are derandomized.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock import suites
from zfock.fock import Indicatrix
from zfock.sampling import keyed_rng

import reference
from test_support_property import MODELS, lattices

CHECKS = ("creator_weight_bound", "monomial_source_bound", "monomial_sector_bound",
          "coefficient_bound")


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=6, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       count=st.integers(1, 5), truncation=st.integers(2, 4),
       alpha=st.floats(0.0, 1.5), log=st.booleans())
def test_batched_norm_checks_equal_loops(monkeypatch, family, a, grid, seed, count,
                                         truncation, alpha, log):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "table"))
    omega = Indicatrix.log(alpha) if log else Indicatrix.sqrt(alpha)
    compared = []
    excess = suites._excess

    def spy(lhs, rhs):
        compared.append((float(lhs).hex(), float(rhs).hex()))
        return excess(lhs, rhs)

    monkeypatch.setattr(suites, "_excess", spy)
    args = (model, grid, truncation, omega, seed, count)
    for name in CHECKS:
        got = getattr(suites, f"check_{name}")(*args)
        batched, compared[:] = list(compared), []
        want = getattr(reference, f"loop_{name}")(*args)
        assert batched == compared, name
        assert batched
        assert got == want, name
        compared.clear()
