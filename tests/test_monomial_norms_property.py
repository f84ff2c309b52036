"""Property: the sector norms of a monomial read from its blocks equal those of its full layout.

``zops.monomial_norms`` takes the sector-n norms of a monomial z†^m z^n
from its blocks alone: half the sum of the largest column-weighted and
the largest row-weighted block norm over the blocks inside sectors 0..n.
``zops.qform_norms`` lays the whole form out over the orbits of sectors
0..K and takes the norms of its leading principal blocks.  The two must
agree at rel 1e-12, for every batch index of a stacked monomial, every
degree (1,1), (2,1), (1,2), (2,2) up to the truncation and every
truncation 1..4.  Models are free, ising, sinh_exp and a table of random
unitary values with S(0) = +1 or -1; lattices are random or symmetric,
with 2-4 points, and the explicit example puts K = 4 on 2 points, where
S(0) = -1 leaves sectors 3 and 4 without orbits.  The examples are
derandomized.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zfock.fock import Indicatrix, RapidityGrid
from zfock.sampling import keyed_rng, random_kernel
from zfock.scattering import ScatteringModel
from zfock.zops import (OrbitKernel, QuadraticForm, compress_kernel, monomial_norms,
                        qform_norms, zmzn_form)

from test_support_property import MODELS, lattices

REL = 1e-12
DEGREES = [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       truncation=st.integers(1, 4), batch=st.integers(1, 3),
       alpha=st.floats(0.0, 1.5), log=st.booleans())
@example(a=0.7, grid=RapidityGrid((-0.4, 0.9), 1.0), seed=5, truncation=4, batch=2,
         alpha=0.8, log=True)
def test_block_norms_equal_full_layout(family, a, grid, seed, truncation, batch, alpha, log):
    rng = keyed_rng(seed, "property", "monomial_norms")
    model = MODELS[family](a, grid, rng)
    omega = Indicatrix.log(alpha) if log else Indicatrix.sqrt(alpha)
    forms = []
    for m, n in DEGREES:
        if max(m, n) > truncation:
            continue
        stack = np.stack([compress_kernel(model, grid, random_kernel(grid, m, n, rng)).values
                          for _ in range(batch)])
        forms.append(zmzn_form(model, OrbitKernel(m, n, stack), grid, truncation))
    assert forms
    for F, got in zip(forms, monomial_norms(model, forms, omega)):
        assert got.shape == (batch, truncation + 1)
        want = qform_norms(model, [F.batch(j) for j in range(batch)], omega)
        np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)


def test_a_form_with_two_block_offsets_is_refused(grid3):
    model = ScatteringModel.free()
    A = QuadraticForm(model, grid3, 2, {(1, 1): np.ones((3, 3)), (1, 0): np.ones((3, 1))})
    with pytest.raises(ValueError, match="not a monomial"):
        monomial_norms(model, [A], Indicatrix.zero())
