"""Property: the deformation by Q is the diagonal twist D_Q of the free theory.

With phi_Q(t) = exp(i sum_{a<b} p(t_a) . (Q p(t_b))) on every n-tuple
(``reference.twist_phases``) and D_Q = diag(phi_Q), the dense symmetrizer
of the model generated by Q must equal D_Q^H P_free D_Q for n <= 3, and
the orbit bases must satisfy D_Q^H V_free = V_Q diag(conj phi_Q[reps]),
which lets the twist act on orbit pairs.  ``deformed_fmn_coefficients``,
which extracts the plain coefficients of the twist D_Q^H A D_Q, must equal
the dense extraction against the deformed creator vectors of
``reference``, built operator by operator.  A is a random form on the
ordinary symmetric space, where the deformed creators act; on a form
symmetric under the model of Q the extraction cannot tell D_Q from its
conjugate, since the tuple reversal carries phi_Q to conj(phi_Q), and
such a form is refused.  All at rel 1e-12, with a in [-2, 2] on random or
symmetric lattices of 2-4 points; the examples are derandomized so the
run is deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.contractions import enumerate_contractions
from zfock.fock import RapidityGrid
from zfock.sampling import keyed_rng, random_form
from zfock.scattering import ScatteringModel
from zfock.warped import SkewSymmetricQ, deformed_fmn_coefficients
from zfock.zops import dense_kernel, symmetric_isometry

from reference import (deformed_vector_matrices, delta_mask, embed_reduced, isometry_matrix,
                       s_factor_grid, symmetrizer_matrix, twist_phases)
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
        phi = twist_phases(grid, Q, n)
        twisted = phi.conj()[:, None] * symmetrizer_matrix(free, grid, n) * phi[None, :]
        np.testing.assert_allclose(twisted, symmetrizer_matrix(model, grid, n),
                                   rtol=0, atol=REL)
        V_free, V_Q = isometry_matrix(free, grid, n), isometry_matrix(model, grid, n)
        reps = symmetric_isometry(free, grid, n).reps
        np.testing.assert_array_equal(symmetric_isometry(model, grid, n).reps, reps)
        np.testing.assert_allclose(phi.conj()[:, None] * V_free, V_Q * phi[reps].conj(),
                                   rtol=0, atol=REL)

    A = random_form(free, grid, K, keyed_rng(seed, "property", "twist"))
    for m in range(K + 1):
        for n in range(K + 1):
            want = dense_deformed_fmn(A, Q, m, n)
            got = dense_kernel(model, grid, deformed_fmn_coefficients(A, Q, m, n)).values
            np.testing.assert_allclose(got, want, rtol=0, atol=REL * np.max(np.abs(want)))


@pytest.mark.parametrize("family", ["ising", "sinh_exp"])
def test_deformed_coefficients_refuse_a_form_off_the_free_model(family):
    # the twist D_Q acts on the free symmetric space; a form stored on
    # another model's orbits has no twist on orbit pairs
    grid = RapidityGrid((-0.8, 0.1, 0.9), 1.0)
    model = ScatteringModel.ising() if family == "ising" else ScatteringModel.sinh_exp(0.7)
    A = random_form(model, grid, 2, keyed_rng(0, "property", "twist", family))
    with pytest.raises(ValueError, match="free model"):
        deformed_fmn_coefficients(A, SkewSymmetricQ(0.7, 1.0), 1, 1)
