"""Slot pairings: enumeration, factors, composition, reflection."""

import itertools
import math

import numpy as np
import pytest

from zfock import contractions, suites
from zfock.contractions import (Contraction, compose, enumerate_contractions,
                                reflect_contraction, sigma_rho)
from zfock.fock import RapidityGrid
from zfock.scattering import ScatteringModel, s_sigma_grid

from reference import (delta_mask, delta_pairs, r_c_factor, r_factor_grid, s_c_factor,
                       s_factor_grid)

SINH = ScatteringModel.sinh_exp(0.8)
PTS = [-0.8, 0.1, 0.9]


def test_pair_validation():
    with pytest.raises(ValueError, match="out of range"):
        Contraction(2, 2, ((3, 4),))
    with pytest.raises(ValueError, match="distinct"):
        Contraction(2, 2, ((1, 3), (1, 4)))


def test_enumeration_count_and_uniqueness():
    # sum over k of C(m,k) C(n,k) k!; at (2,2): 1 + 4 + 2 = 7
    cons = enumerate_contractions(2, 2)
    assert len(cons) == 7
    assert len(set(cons)) == 7
    assert cons[0].pairs == ()
    for m, n in [(1, 3), (3, 2), (3, 3)]:
        want = sum(math.comb(m, k) * math.comb(n, k) * math.factorial(k)
                   for k in range(min(m, n) + 1))
        assert len(enumerate_contractions(m, n)) == want


def test_enumeration_matches_bruteforce():
    m, n = 3, 2
    brute = set()
    for k in range(min(m, n) + 1):
        for rights in itertools.combinations(range(m + 1, m + n + 1), k):
            for lefts in itertools.permutations(range(1, m + 1), k):
                brute.add(frozenset(zip(lefts, rights)))
    got = {frozenset(C.pairs) for C in enumerate_contractions(m, n)}
    assert got == brute


def test_compose_example():
    C = Contraction(2, 2, ((1, 3),))
    inner = Contraction(1, 1, ((1, 2),))
    assert compose(C, inner).pairs == ((1, 3), (2, 4))
    with pytest.raises(ValueError, match="free slots"):
        compose(C, Contraction(2, 2, ()))


def test_reflect_example():
    C = Contraction(2, 1, ((1, 3),))
    R = reflect_contraction(C)
    assert (R.m, R.n, R.pairs) == (1, 2, ((1, 2),))
    back = reflect_contraction(R)
    assert back == C


def test_delta_mask_support():
    C = Contraction(1, 1, ((1, 2),))
    mask = delta_mask(C, 3)
    np.testing.assert_array_equal(mask, np.eye(3, dtype=bool))
    assert delta_pairs(C, [0.1], [0.1]) == 1
    assert delta_pairs(C, [0.1], [0.9]) == 0
    empty = Contraction(2, 1)
    assert delta_mask(empty, 3).all()


def test_empty_contraction_factors_are_one():
    empty = Contraction(2, 2)
    np.testing.assert_array_equal(s_factor_grid(SINH, PTS, empty),
                                  np.ones((3,) * 4))
    np.testing.assert_array_equal(r_factor_grid(SINH, PTS, empty),
                                  np.ones((3,) * 4))


def test_s_factor_grid_matches_pointwise():
    # the pointwise factors are the references for the vectorized grids
    pairs = ((s_factor_grid, s_c_factor), (r_factor_grid, r_c_factor))
    for model in (SINH, ScatteringModel.ising()):
        for m, n in ((2, 2), (3, 2)):
            for C in enumerate_contractions(m, n):
                for on_grid, pointwise in pairs:
                    grid_vals = on_grid(model, PTS, C)
                    for idx in np.ndindex(grid_vals.shape):
                        theta = [PTS[i] for i in idx[:m]]
                        eta = [PTS[i] for i in idx[m:]]
                        assert grid_vals[idx] == pytest.approx(
                            pointwise(model, C, theta, eta), abs=1e-14), \
                            (model.family, C, pointwise.__name__, idx)


def test_exchange_factor_splits_on_support():
    # on the delta support the factor is a product of one-sided permutation factors
    for C in enumerate_contractions(2, 2):
        sigma, rho = sigma_rho(C)
        mask = delta_mask(C, 3)
        left = s_sigma_grid(SINH, PTS, sigma).reshape((3, 3, 1, 1))
        right = s_sigma_grid(SINH, PTS, rho).reshape((1, 1, 3, 3))
        lhs = mask * s_factor_grid(SINH, PTS, C)
        np.testing.assert_allclose(lhs, mask * (left * right), atol=1e-12)


def test_ising_factor_is_a_sign():
    ising = ScatteringModel.ising()
    for C in enumerate_contractions(2, 2):
        vals = s_factor_grid(ising, PTS, C)
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-14)
        assert np.all(np.isreal(vals))


def test_ising_reflection_factor_in_zero_two():
    # each pair contributes 1 - (product of -1 sweeps); for S = -1 the sweep
    # over an even slot count is +1, over odd is -1
    ising = ScatteringModel.ising()
    for C in enumerate_contractions(2, 2):
        vals = r_factor_grid(ising, PTS, C)
        total = C.m + C.n
        want = (1.0 - (-1.0) ** total) ** C.size
        np.testing.assert_allclose(vals, want, atol=1e-14)


def _pair_product_unordered(mat, pairs, V):
    """A faulty ``_pair_product``: it reads mat[x_u, x_v] also where u > v needs mat.T."""
    N = mat.shape[0]
    out = np.ones((1,) * V, dtype=complex)
    flat = iter(pairs)
    for u, v in zip(flat, flat):
        shape = [1] * V
        shape[u] = shape[v] = N
        out = out * (np.diagonal(mat) if u == v else mat).reshape(shape)
    return out


def test_contraction_checks_run_on_add_on_support(monkeypatch):
    # the checks must measure the package's one implementation of the
    # contraction terms, so a fault in it shows in their residuals
    grid = RapidityGrid(tuple(PTS), 1.0)
    model = ScatteringModel.sinh_exp(0.7)
    checks = (suites.check_pair_exchange, suites.check_reflection_alternation)
    assert all(check(model, grid) <= 1e-12 for check in checks)
    monkeypatch.setattr(contractions, "_pair_product", _pair_product_unordered)
    assert all(check(model, grid) > 1e-12 for check in checks)
