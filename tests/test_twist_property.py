"""Property: the deformation by Q is the diagonal twist D_Q of the free theory.

With phi_Q(t) = exp(i sum_{a<b} p(t_a) . (Q p(t_b))) on every n-tuple and
D_Q = diag(phi_Q), the dense symmetrizer of the model generated by Q must
equal D_Q^H P_free D_Q for n <= 3.  ``deformed_fmn_coefficients``, which
extracts the plain coefficients of the twist D_Q^H A D_Q, must equal the
dense extraction against the deformed creator vectors of ``reference``,
built operator by operator.  A is a random form on the ordinary symmetric
space, where the deformed creators act; on a form symmetric under the
model of Q the extraction cannot tell D_Q from its conjugate, since the
tuple reversal carries phi_Q to conj(phi_Q).  Both at rel 1e-12, with a in
[-2, 2] on random or symmetric lattices of 2-4 points; the examples are
derandomized so the run is deterministic.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.contractions import enumerate_contractions
from zfock.sampling import keyed_rng, random_form
from zfock.scattering import ScatteringModel
from zfock.warped import SkewSymmetricQ, _tuple_phases, deformed_fmn_coefficients

from reference import (deformed_vector_matrices, delta_mask, embed_reduced, s_factor_grid,
                       symmetrizer_matrix)
from test_support_property import lattices

K = 3
REL = 1e-12


def dense_deformed_fmn(A, Q, m, n):
    """Contraction sum over the elements of A between deformed creator vectors."""
    grid, N = A.grid, A.grid.size
    model = Q.scattering_model()
    left, right = deformed_vector_matrices(grid, A.truncation, Q, max(m, n))
    out = np.zeros((N,) * (m + n), dtype=complex)
    for C in enumerate_contractions(m, n):
        mh, nh = m - C.size, n - C.size
        M = (left[mh].conj().T @ A.block(mh, nh) @ right[nh]).reshape((N,) * (mh + nh))
        term = delta_mask(C, N) * s_factor_grid(model, grid.points, C)
        out += ((-1) ** C.size) * term * embed_reduced(C, M, N)
    return out


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(-2.0, 2.0), grid=lattices(), seed=st.integers(0, 2**16))
def test_deformation_is_a_diagonal_twist(a, grid, seed):
    Q = SkewSymmetricQ(a, grid.mass)
    model = Q.scattering_model()
    free = ScatteringModel.free()
    for n in range(K + 1):
        phi = _tuple_phases(grid, Q, n)
        twisted = phi.conj()[:, None] * symmetrizer_matrix(free, grid, n) * phi[None, :]
        np.testing.assert_allclose(twisted, symmetrizer_matrix(model, grid, n),
                                   rtol=0, atol=REL)

    A = random_form(free, grid, K, keyed_rng(seed, "property", "twist"))
    for m in range(K + 1):
        for n in range(K + 1):
            want = dense_deformed_fmn(A, Q, m, n)
            got = deformed_fmn_coefficients(A, Q, m, n).values
            np.testing.assert_allclose(got, want, rtol=0, atol=REL * np.max(np.abs(want)))
