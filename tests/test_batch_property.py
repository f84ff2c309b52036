"""Property: the batched primitives equal their per-slice calls, bit for bit.

``creator_form`` and ``annihilator_form`` take smearing functions of shape
(B, N), ``zmzn_form`` takes orbit kernels of shape (B, orbits_m, orbits_n)
and ``expansion._ladder_sum`` takes stacked terms.  Every slice of a
batched result must hold the bytes of the unbatched call on that slice:
the norm checks stack their instances through these primitives and must
compare exactly what one instance at a time would.  Models are the shared
``MODELS`` table (free, ising, sinh_exp and tables with S(0) = +1 or -1)
and tables with S(0) = -1 on every draw; lattices are random or symmetric
with 2-4 points, truncations 1-3.  The explicit examples put every model
on a 2-point lattice at degree (2, 2), where the sectors of an S(0) = -1
model hold a single orbit: there a complex multiply by a broadcast factor
is not shape-stable, so one multiply over a stack may differ from its
slices in the last bit.  The examples are derandomized.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zfock import expansion, suites, zops
from zfock.expansion import _ladder_sum
from zfock.fock import Indicatrix, RapidityGrid
from zfock.sampling import keyed_rng
from zfock.scattering import ScatteringModel
from zfock.zops import OrbitKernel, annihilator_form, creator_form, orbit_dimension, zmzn_form

from reference import tabulated
from test_support_property import MODELS, lattices

PAIR = RapidityGrid((-0.4, 0.7), 1.0)
# the shared models and a table with S(0) = -1 on every draw
FAMILIES = {**MODELS, "odd_table": lambda a, grid, rng: tabulated(grid, rng, -1.0)}


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def assert_same_forms(got, want) -> None:
    assert set(got.orbit_blocks) == set(want.orbit_blocks)
    assert got.truncated == want.truncated
    for key, C in want.orbit_blocks.items():
        assert_same_bytes(got.orbit_blocks[key], C)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       batch=st.integers(2, 5), truncation=st.integers(1, 3),
       degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)))
@example(a=0.5, grid=PAIR, seed=3, batch=5, truncation=2, degrees=(2, 2))
@example(a=0.5, grid=PAIR, seed=4, batch=3, truncation=3, degrees=(2, 1))
def test_batched_primitives_equal_their_slices(family, a, grid, seed, batch, truncation,
                                               degrees):
    rng = keyed_rng(seed, "property", "batch")
    model = FAMILIES[family](a, grid, rng)
    N, K = grid.size, truncation
    fs = rng.normal(size=(batch, N)) + 1j * rng.normal(size=(batch, N))
    for build in (creator_form, annihilator_form):
        stacked = build(model, grid, K, fs)
        for i, f in enumerate(fs):
            assert_same_forms(stacked.batch(i), build(model, grid, K, f))

    m, n = min(degrees[0], K), min(degrees[1], K)

    def orbit_stack(p, q):
        shape = (batch, orbit_dimension(model, N, p), orbit_dimension(model, N, q))
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    values = orbit_stack(m, n)
    stacked = zmzn_form(model, OrbitKernel(m, n, values), grid, K)
    for i in range(batch):
        want = zmzn_form(model, OrbitKernel(m, n, values[i]), grid, K)
        assert_same_forms(stacked.batch(i), want)

    terms = [orbit_stack(m - c, n - c) for c in range(min(m, n) + 1)]
    for sign in (-1, 1):
        got = _ladder_sum(model, grid, m, n, lambda c: terms[c], sign)
        for i in range(batch):
            assert_same_bytes(got[i], _ladder_sum(model, grid, m, n,
                                                  lambda c: terms[c][i], sign))


NORM_CHECKS = ("creator_weight_bound", "monomial_source_bound", "monomial_sector_bound",
               "coefficient_bound")
COUNTED = ((expansion, "_ladder_sum"), (zops, "zmzn_form"), (zops, "creator_form"),
           (zops, "annihilator_form"))


@pytest.mark.parametrize("truncation, few", [(1, 1), (3, 4)])
def test_norm_checks_do_not_loop_over_instances(monkeypatch, grid3, truncation, few):
    # the norm checks stack their instances, so 8 instances take as many
    # calls of the batched primitives as `few` do: one instance at
    # truncation 1, where every monomial has degree (1, 1), and at
    # truncation 3 one instance of each of the four monomial degrees
    calls = Counter()
    for owner, name in COUNTED:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (zops, expansion, suites):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    model = ScatteringModel.sinh_exp(0.7)
    omega = Indicatrix.log(0.8)

    def run(count):
        calls.clear()
        for check in NORM_CHECKS:
            getattr(suites, f"check_{check}")(model, grid3, truncation, omega, 7, count)
        return dict(calls)

    few_calls = run(few)
    assert set(few_calls) == {name for _, name in COUNTED}
    assert run(8) == few_calls
