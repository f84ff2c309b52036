"""Scattering factors, twisted permutation action, and symmetrization."""

import math

import numpy as np
import pytest

from zfock.scattering import (Permutation, ScatteringModel, act_d,
                              all_permutations, pair_values, permute_tensor,
                              s_sigma_grid)
from zfock.zops import symmetrize

from reference import s_sigma, sign

THETAS = np.array([-1.3, -0.4, 0.0, 0.35, 0.8, 2.1])


def test_sinh_exp_value():
    # exp(i a sinh theta) at a=1, theta=0.5; sinh(0.5) = 0.5210953054937474
    s = ScatteringModel.sinh_exp(1.0).value(0.5)
    assert s == pytest.approx(0.8672744236830215 + 0.49783036671669884j, abs=1e-15)


def test_free_and_ising_values():
    assert ScatteringModel.free().value(0.37) == 1.0
    assert ScatteringModel.ising().value(-2.2) == -1.0


def test_unimodular_and_inversion_law(model):
    vals = model.values(THETAS)
    np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-14)
    np.testing.assert_allclose(model.values(-THETAS), np.conj(vals), atol=1e-14)
    np.testing.assert_allclose(model.values(-THETAS), 1.0 / vals, atol=1e-14)


def test_tabulated_matches_sampled_model():
    base = ScatteringModel.sinh_exp(0.9)
    diffs = np.concatenate([THETAS, -THETAS])
    table = ScatteringModel.tabulated(diffs, base.values(diffs))
    for t in THETAS:
        assert table.value(t) == pytest.approx(base.value(t), abs=1e-15)


@pytest.mark.parametrize("a", [1e308, -1e308])
def test_overflowing_sinh_phase_raises(a):
    # a * sinh(theta) overflows for |theta| > asinh(1.8) at |a| = 1e308; the
    # model refuses the value instead of returning exp(i inf) = NaN
    model = ScatteringModel.sinh_exp(a)
    thetas = np.array([0.0, 0.5, 1.7, -1.7])
    for evaluate in (model.values, lambda t: np.array([model.value(x) for x in t])):
        with pytest.raises(ValueError, match="non-finite") as err:
            evaluate(thetas)
        assert "a * sinh(theta)" in str(err.value)
    assert model.value(0.5) == pytest.approx(np.exp(1j * a * math.sinh(0.5)), abs=1e-15)


@pytest.mark.parametrize("theta", [800.0, -800.0])
def test_overflowing_sinh_raises_the_same_error_for_one_value(theta):
    # math.sinh itself overflows past |theta| ~ 710; value must still name
    # the non-finite phase, as values does
    model = ScatteringModel.sinh_exp(1.0)
    with pytest.raises(ValueError) as want:
        model.values(np.array([theta]))
    with pytest.raises(ValueError) as got:
        model.value(theta)
    assert str(got.value) == str(want.value)
    assert "a * sinh(theta)" in str(got.value)


def test_corrupted_table_rejected():
    with pytest.raises(ValueError, match="differs from 1"):
        ScatteringModel.tabulated([0.4, -0.4], [2.0, 0.5])
    with pytest.raises(ValueError, match="misses"):
        ScatteringModel.tabulated([0.4], [1.0])


def test_permutation_group():
    sigma = Permutation((2, 3, 1))
    tau = Permutation.transposition(3, 1, 2)
    assert sign(tau) == -1
    assert sign(sigma) == 1
    perms = all_permutations(4)
    assert len(set(perms)) == 24


def test_ising_factor_is_permutation_sign():
    ising = ScatteringModel.ising()
    thetas = [0.3, -0.7, 1.1, 0.05]
    for sigma in all_permutations(4):
        assert s_sigma(ising, sigma, thetas) == pytest.approx(sign(sigma))


def test_free_factor_is_one():
    free = ScatteringModel.free()
    for sigma in all_permutations(3):
        assert s_sigma(free, sigma, [0.2, 0.9, -0.4]) == 1.0


def test_s_sigma_grid_matches_pointwise():
    model = ScatteringModel.sinh_exp(0.6)
    pts = [-0.8, 0.1, 0.9]
    sigma = Permutation((3, 1, 2))
    grid_vals = s_sigma_grid(model, pts, sigma)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = s_sigma(model, sigma, [pts[i], pts[j], pts[k]])
                assert grid_vals[i, j, k] == pytest.approx(want, abs=1e-14)


def test_pair_values_layout():
    model = ScatteringModel.sinh_exp(1.2)
    pts = [-0.5, 0.2, 1.4]
    mat = pair_values(model, pts)
    assert mat[2, 0] == pytest.approx(model.value(pts[2] - pts[0]))
    np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-15)


def test_permute_tensor_reads_permuted_slots():
    rng = np.random.default_rng(11)
    f = rng.normal(size=(3, 3, 3))
    sigma = Permutation((2, 1, 3)).compose(Permutation((1, 3, 2)))
    g = permute_tensor(f, sigma)
    for idx in np.ndindex(3, 3, 3):
        permuted = tuple(idx[sigma(i + 1) - 1] for i in range(3))
        assert g[idx] == f[permuted]
    # leading axes are a batch: each member is permuted on its own
    stack = rng.normal(size=(2, 3, 3, 3))
    batched = permute_tensor(stack, sigma)
    for b in range(2):
        assert np.array_equal(batched[b], permute_tensor(stack[b], sigma))
    with pytest.raises(ValueError, match="rank"):
        permute_tensor(f[0], sigma)


def test_twisted_action_is_a_representation(model):
    rng = np.random.default_rng(5)
    pts = [-0.8, 0.1, 0.9]
    f = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    for sigma in all_permutations(3)[:4]:
        for rho in all_permutations(3)[2:]:
            lhs = act_d(model, sigma, act_d(model, rho, f, pts), pts)
            rhs = act_d(model, sigma.compose(rho), f, pts)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_symmetrize_projects(model, grid3):
    rng = np.random.default_rng(7)
    pts = grid3.points
    f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sym = symmetrize(model, grid3, f)
    np.testing.assert_allclose(symmetrize(model, grid3, sym), sym, atol=1e-13)
    # invariance under every twisted transposition
    for sigma in all_permutations(2):
        np.testing.assert_allclose(act_d(model, sigma, sym, pts), sym, atol=1e-13)


def test_subset_symmetrization_keeps_spectators(grid3):
    model = ScatteringModel.sinh_exp(0.8)
    rng = np.random.default_rng(9)
    f = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    sym = symmetrize(model, grid3, f, (2, 3))
    np.testing.assert_allclose(symmetrize(model, grid3, sym, (2, 3)), sym,
                               atol=1e-13)
