"""Ladder operators, normal-ordered monomials, and weighted norms."""

import numpy as np
import pytest

from zfock.fock import FockState, Indicatrix
from zfock.sampling import keyed_rng, random_form, random_kernel, random_state
from zfock.scattering import ScatteringModel
from zfock.zops import (KernelTensor, annihilate, annihilator_form, create,
                        creator_form, cross_norm, form_residual, identity_form,
                        kernel_adjoint, qform_norm, zmzn_form)

FREE = ScatteringModel.free()


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelTensor(1, 1, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        KernelTensor(2, 0, np.zeros(3))


def test_kernel_adjoint_involution():
    rng = np.random.default_rng(2)
    f = KernelTensor(2, 1, _complex(rng, (3, 3, 3)))
    g = kernel_adjoint(f)
    assert (g.m, g.n) == (1, 2)
    back = kernel_adjoint(g)
    np.testing.assert_array_equal(back.values, f.values)


def test_ladder_duality(model, grid3):
    rng = keyed_rng(0, "zops", "duality", 0)
    psi = random_state(model, grid3, 3, rng)
    chi = random_state(model, grid3, 3, rng)
    f = _complex(rng, 3)
    lhs = chi.inner(create(model, f, psi))
    rhs = annihilate(np.conj(f), chi).inner(psi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ladder_forms_are_adjoint(model, grid3):
    rng = keyed_rng(0, "zops", "form_adjoint", 0)
    f = _complex(rng, 3)
    a_dag = creator_form(model, grid3, 3, f)
    a = annihilator_form(model, grid3, 3, np.conj(f))
    assert form_residual(a_dag.adjoint(), a) <= 1e-13 * a.scale()


def test_free_commutation_relation(grid3):
    # [a(f), a+(g)] = (f . g) on states kept strictly below the truncation
    rng = keyed_rng(0, "zops", "ccr", 0)
    f = _complex(rng, 3)
    g = _complex(rng, 3)
    psi = random_state(FREE, grid3, 2, rng)
    psi.sectors[2][:] = 0.0
    psi = FockState(psi.grid, psi.sectors)
    lhs = annihilate(f, create(FREE, g, psi)) - create(FREE, g, annihilate(f, psi))
    rhs = complex(np.sum(f * g)) * psi
    assert (lhs - rhs).norm() <= 1e-13 * psi.norm()


def test_form_application_matches_matrix_element(model, grid3):
    rng = keyed_rng(0, "zops", "apply", 0)
    A = random_form(model, grid3, 2, rng)
    psi = random_state(model, grid3, 2, rng)
    chi = random_state(model, grid3, 2, rng)
    assert A.matrix_element(chi, psi) == pytest.approx(chi.inner(A.apply(psi)),
                                                       rel=1e-12)


def test_monomial_matches_ladder_composition(model, grid3):
    rng = keyed_rng(0, "zops", "ladder", 0)
    g = _complex(rng, 3)
    h = _complex(rng, 3)
    kernel = KernelTensor(1, 1, np.multiply.outer(g, h))
    direct = zmzn_form(model, kernel, grid3, 3)
    composed = creator_form(model, grid3, 3, g) @ annihilator_form(model, grid3, 3, h)
    assert form_residual(direct, composed) <= 1e-12 * direct.scale()


def test_monomial_adjoint(model, grid3):
    rng = keyed_rng(0, "zops", "monadj", 0)
    kernel = random_kernel(grid3, 2, 1, rng)
    A = zmzn_form(model, kernel, grid3, 3)
    B = zmzn_form(model, kernel_adjoint(kernel), grid3, 3)
    assert form_residual(A.adjoint(), B) <= 1e-12 * A.scale()


def test_monomial_degree_guard(grid3):
    kernel = KernelTensor(2, 1, np.zeros((3, 3, 3), dtype=complex))
    with pytest.raises(ValueError, match="exceeds truncation"):
        zmzn_form(FREE, kernel, grid3, 1)


def test_identity_form_acts_as_identity(model, grid3):
    psi = random_state(model, grid3, 2, keyed_rng(0, "zops", "ident", 0))
    ident = identity_form(model, grid3, 2)
    assert (ident.apply(psi) - psi).norm() <= 1e-13 * psi.norm()


def test_adjoint_involution(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "zops", "adj2", 0))
    assert form_residual(A.adjoint().adjoint(), A) == 0.0


def test_cross_norm_identity_kernel(grid3):
    ident = KernelTensor(1, 1, np.eye(3, dtype=complex))
    assert cross_norm(ident, grid3, Indicatrix.zero()) == pytest.approx(1.0, rel=1e-14)


def test_cross_norm_rank_one(grid3):
    rng = np.random.default_rng(3)
    g = _complex(rng, 3)
    h = _complex(rng, 3)
    kernel = KernelTensor(1, 1, np.multiply.outer(g, h))
    want = np.linalg.norm(g) * np.linalg.norm(h)
    assert cross_norm(kernel, grid3, Indicatrix.zero()) == pytest.approx(want, rel=1e-13)


def test_cross_norm_weighting_shrinks(grid3):
    rng = np.random.default_rng(4)
    kernel = KernelTensor(1, 2, _complex(rng, (3, 3, 3)))
    plain = cross_norm(kernel, grid3, Indicatrix.zero())
    damped = cross_norm(kernel, grid3, Indicatrix.sqrt(1.5))
    assert damped < plain


def test_qform_norm_of_identity(model, grid3):
    ident = identity_form(model, grid3, 2)
    assert qform_norm(model, ident, 2, Indicatrix.zero()) == pytest.approx(1.0, rel=1e-12)


def test_qform_norm_triangle(model, grid3):
    rng = keyed_rng(0, "zops", "tri", 0)
    A = random_form(model, grid3, 2, rng)
    B = random_form(model, grid3, 2, rng)
    omega = Indicatrix.sqrt(0.3)
    lhs = qform_norm(model, A + B, 2, omega)
    rhs = qform_norm(model, A, 2, omega) + qform_norm(model, B, 2, omega)
    assert lhs <= rhs * (1 + 1e-12)


def test_product_block_structure(model, grid3):
    rng = keyed_rng(0, "zops", "prod", 0)
    A = random_form(model, grid3, 2, rng)
    B = random_form(model, grid3, 2, rng)
    C = A @ B
    want = sum(A.block(2, j) @ B.block(j, 1) for j in range(3))
    np.testing.assert_allclose(C.block(2, 1), want, atol=1e-12)


def test_big_matrix_layout(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "zops", "big", 0))
    M = A.big_matrix(2)
    assert M.shape == (1 + 3 + 9, 1 + 3 + 9)
    np.testing.assert_array_equal(M[1:4, 4:], A.block(1, 2))


def test_qform_norm_rejects_sectors_outside_truncation(model, grid3):
    ident = identity_form(model, grid3, 2)
    for n in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            qform_norm(model, ident, n, Indicatrix.zero())
