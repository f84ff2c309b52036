"""Lattice states, Poincare phases, reflections, and energy weights."""

import numpy as np
import pytest

from zfock.fock import (Indicatrix, RapidityGrid, apply_omega_weight, boost,
                        energy_grid, minkowski, reflect, sector_momentum,
                        translate)
from zfock.sampling import keyed_rng, random_state
from zfock.scattering import ScatteringModel
from zfock.zops import s_symmetry_residual

from reference import vacuum

FREE = ScatteringModel.free()


def test_grid_validation():
    with pytest.raises(ValueError, match="empty"):
        RapidityGrid((), 1.0)
    with pytest.raises(ValueError, match="increasing"):
        RapidityGrid((0.3, 0.3, 0.9), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        RapidityGrid((0.0, float("nan")), 1.0)
    with pytest.raises(ValueError):
        RapidityGrid((0.0, 1.0), -2.0)


def test_momentum_on_mass_shell():
    grid = RapidityGrid((0.9,), 2.5)
    p = grid.momentum(0.9)
    # (cosh, sinh)(0.9) = (1.4330863854487745, 1.0265167257081753)
    np.testing.assert_allclose(p, [2.5 * 1.4330863854487745,
                                   2.5 * 1.0265167257081753], rtol=1e-15)
    assert minkowski(p, p) == pytest.approx(2.5**2, rel=1e-14)


def test_minkowski_signature():
    assert minkowski([3.0, 2.0], [1.0, 5.0]) == pytest.approx(3.0 - 10.0)


def test_sector_momentum_additivity(grid3):
    p0, p1 = sector_momentum(grid3, 2)
    single0, single1 = sector_momentum(grid3, 1)
    N = grid3.size
    for i in range(N):
        for j in range(N):
            assert p0[i * N + j] == pytest.approx(single0[i] + single0[j])
            assert p1[i * N + j] == pytest.approx(single1[i] + single1[j])


def test_energy_grid_is_dimensionless_cosh_sum(grid3):
    vals = energy_grid(grid3, 2)
    coshes = np.cosh(np.asarray(grid3.points))
    assert vals[1] == pytest.approx(coshes[0] + coshes[1], rel=1e-15)


def test_translations_compose(grid3):
    psi = random_state(FREE, grid3, 2, keyed_rng(0, "fock", "translate", 0))
    x = np.array([0.7, -0.2])
    y = np.array([-1.1, 0.4])
    lhs = translate(translate(psi, x), y)
    rhs = translate(psi, x + y)
    assert (lhs - rhs).norm() <= 1e-14 * psi.norm()
    zero = translate(psi, [0.0, 0.0])
    assert (zero - psi).norm() == 0.0


def test_boost_moves_the_lattice(grid3):
    psi = random_state(FREE, grid3, 2, keyed_rng(0, "fock", "boost", 0))
    lam = 0.45
    moved = boost(psi, lam)
    assert moved.grid.points == tuple(p - lam for p in grid3.points)
    back = boost(moved, -lam)
    np.testing.assert_allclose(back.grid.points, grid3.points, atol=1e-15)
    for n in range(3):
        np.testing.assert_array_equal(back.sector(n), psi.sector(n))


def test_reflection_is_an_antiunitary_involution(grid3):
    rng = keyed_rng(0, "fock", "reflect", 0)
    psi = random_state(FREE, grid3, 2, rng)
    chi = random_state(FREE, grid3, 2, rng)
    assert (reflect(reflect(psi)) - psi).norm() == 0.0
    lhs = reflect(psi).inner(reflect(chi))
    assert lhs == pytest.approx(np.conj(psi.inner(chi)), rel=1e-14)


def test_omega_weight_values():
    zero = Indicatrix.zero()
    assert zero.weight([0.0, 3.7]).tolist() == [0.0, 0.0]
    # log family: alpha * log1p(E); e^(omega(1)) = 2 at alpha=1
    log1 = Indicatrix.log(1.0)
    assert np.exp(log1.weight(1.0)) == pytest.approx(2.0, rel=1e-15)
    sqrt = Indicatrix.sqrt(0.4)
    assert sqrt.weight(4.0) == pytest.approx(0.8, rel=1e-15)


def test_omega_weight_inverts(grid3, omega):
    psi = random_state(FREE, grid3, 2, keyed_rng(0, "fock", "weight", 0))
    back = apply_omega_weight(apply_omega_weight(psi, omega, +1), omega, -1)
    assert (back - psi).norm() <= 1e-12 * psi.norm()


def test_state_arithmetic_and_inner(grid3):
    rng = keyed_rng(0, "fock", "arith", 0)
    psi = random_state(FREE, grid3, 2, rng)
    chi = random_state(FREE, grid3, 2, rng)
    assert (psi + chi - chi - psi).norm() <= 1e-14 * psi.norm()
    assert psi.inner(psi) == pytest.approx(psi.norm() ** 2, rel=1e-14)
    sesq = (2j * psi).inner(chi)
    assert sesq == pytest.approx(-2j * psi.inner(chi), rel=1e-14)


def test_vacuum_norm(grid3):
    vac = vacuum(grid3, 3)
    assert vac.norm() == 1.0
    assert vac.sector(2).shape == (3, 3)


def test_random_symmetric_state_residual(model, grid3):
    psi = random_state(model, grid3, 3, keyed_rng(1, "fock", "sym", 0))
    assert s_symmetry_residual(model, psi) <= 1e-12
