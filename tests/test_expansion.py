"""Coefficient extraction, reconstruction, and covariance of the family."""

import math

import numpy as np
import pytest

from zfock.contractions import Contraction
from zfock.expansion import (CoefficientFamily, boost_form, creator_elements,
                             extract_family, fmn_coefficients, inversion_residual,
                             reconstruct, reflect_conjugate, reflected_coeffs,
                             transform_coeffs_poincare, translate_form)
from zfock.fock import minkowski, reflect, sector_momentum
from zfock.sampling import keyed_rng, random_form, random_kernel, random_state
from zfock.scattering import ScatteringModel
from zfock.zops import (compress_kernel, dense_kernel, form_residual, orbit_dimension,
                        zmzn_form)

from reference import (contracted_vector, left_vector_matrix, right_vector_matrix,
                       symmetrize_block)

FREE = ScatteringModel.free()


def test_vector_matrix_columns_are_creator_vectors(model, grid3):
    # column t of the left matrix is the 2-particle vector built by creators
    L = left_vector_matrix(model, grid3, 2)
    R = right_vector_matrix(model, grid3, 2)
    C = Contraction(2, 2)
    pts = grid3.points
    for i in range(3):
        for j in range(3):
            lvec = contracted_vector(model, "left", C, (pts[i], pts[j]), grid3, 2)
            rvec = contracted_vector(model, "right", C, (pts[i], pts[j]), grid3, 2)
            np.testing.assert_allclose(lvec.sector(2).ravel(), L[:, 3 * i + j],
                                       atol=1e-13)
            np.testing.assert_allclose(rvec.sector(2).ravel(), R[:, 3 * i + j],
                                       atol=1e-13)


def test_coefficients_of_monomial(model, grid3):
    # a pure normal-ordered monomial has itself (symmetrized, times m! n!)
    # as its only coefficient in the matching degree
    rng = keyed_rng(0, "expansion", "monomial", 0)
    g = random_kernel(grid3, 2, 1, rng)
    A = zmzn_form(model, compress_kernel(model, grid3, g), grid3, 3)
    got = dense_kernel(model, grid3, fmn_coefficients(model, A, 2, 1))
    want = 2.0 * symmetrize_block(model, grid3, g.values, (1, 2))
    np.testing.assert_allclose(got.values, want, atol=1e-11)


def test_extraction_is_linear(model, grid3):
    rng = keyed_rng(0, "expansion", "linear", 0)
    A = random_form(model, grid3, 2, rng)
    B = random_form(model, grid3, 2, rng)
    lhs = fmn_coefficients(model, A + 2j * B, 1, 1).values
    rhs = fmn_coefficients(model, A, 1, 1).values \
        + 2j * fmn_coefficients(model, B, 1, 1).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_roundtrip(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "expansion", "round", 0))
    back = reconstruct(model, extract_family(model, A))
    assert form_residual(back, A) <= 1e-10 * A.scale()


def test_inversion_residual_small(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "expansion", "inv", 0))
    fam = extract_family(model, A)
    for m in range(3):
        for n in range(3):
            lhs = creator_elements(A, m, n)
            assert inversion_residual(model, lhs, m, n, fam) <= 1e-10 * A.scale()


def test_family_bookkeeping(grid3):
    fam = CoefficientFamily(FREE, grid3, 2)
    kern = compress_kernel(FREE, grid3, random_kernel(grid3, 1, 2,
                                                      keyed_rng(0, "expansion", "fam", 0)))
    fam.set_entry(kern)
    assert fam.entry(1, 2) is kern
    # a missing coefficient is zero on its orbit pairs, with no dense tensor
    missing = fam.entry(2, 2)
    assert missing.values.shape == (orbit_dimension(FREE, 3, 2),) * 2 == (6, 6)
    assert not missing.values.any()


def test_translation_covariance_phase(grid3):
    # translating the operator multiplies f_{m,n} by the transfer phase
    x = np.array([0.6, -1.3])
    A = random_form(FREE, grid3, 2, keyed_rng(0, "expansion", "trans", 0))
    moved = fmn_coefficients(FREE, translate_form(A, x), 1, 1).values
    base = fmn_coefficients(FREE, A, 1, 1).values
    p0, p1 = sector_momentum(grid3, 1)
    phase = np.exp(1j * ((p0[:, None] - p0[None, :]) * x[0]
                         - (p1[:, None] - p1[None, :]) * x[1]))
    np.testing.assert_allclose(moved, phase * base, atol=1e-12)


def test_transform_coeffs_poincare_matches_direct(model, grid3):
    x = np.array([-0.4, 0.9])
    lam = 0.35
    A = random_form(model, grid3, 2, keyed_rng(0, "expansion", "poinc", 0))
    fam = extract_family(model, A)
    got = transform_coeffs_poincare(fam, x, lam)
    # convention: boost first, then translate on the shifted lattice
    moved = translate_form(boost_form(A, lam), x)
    want = extract_family(model, moved)
    assert got.grid == moved.grid
    for key, kern in want.entries.items():
        np.testing.assert_allclose(got.entry(*key).values, kern.values,
                                   atol=1e-10 * max(1.0, A.scale()))


def test_reflect_conjugate_defining_contract(model, grid3):
    rng = keyed_rng(0, "expansion", "refl", 0)
    A = random_form(model, grid3, 2, rng)
    psi = random_state(model, grid3, 2, rng)
    chi = random_state(model, grid3, 2, rng)
    lhs = reflect_conjugate(A).matrix_element(psi, chi)
    rhs = A.matrix_element(reflect(chi), reflect(psi))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_reflected_coeffs_match_reflected_operator(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "expansion", "reflc", 0))
    fam = extract_family(model, A)
    want = extract_family(model, reflect_conjugate(A))
    for (m, n), kern in want.entries.items():
        got = reflected_coeffs(model, fam, m, n)
        np.testing.assert_allclose(got.values, kern.values,
                                   atol=1e-10 * max(1.0, A.scale()))


def test_boost_form_shifts_lattice(grid3):
    A = random_form(FREE, grid3, 2, keyed_rng(0, "expansion", "boost", 0))
    lam = 0.8
    moved = boost_form(A, lam)
    assert moved.grid.points == tuple(p - lam for p in grid3.points)
    np.testing.assert_array_equal(moved.block(1, 2), A.block(1, 2))
