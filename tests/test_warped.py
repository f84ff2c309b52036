"""Momentum-dependent deformation, sector decomposition, deformed commutator."""

import math
import warnings

import numpy as np
import pytest

from zfock import suites
from zfock.expansion import translate_form
from zfock.fock import RapidityGrid, minkowski
from zfock.sampling import keyed_rng, random_form
from zfock.scattering import ScatteringModel
from zfock.warped import (GroupingWarning, HomogeneousComponent, SkewSymmetricQ,
                          deformed_annihilator, deformed_creator,
                          deformed_fmn_coefficients, momentum_sector_decompose,
                          nested_free_family, nested_graded_family, nested_q_family,
                          parity_split, q_commutator, warp, warp_spectral)
from zfock.zops import annihilator_form, creator_form, form_residual

from reference import deformed_monomial, symmetrize_block

FREE = ScatteringModel.free()


def test_pairing_oracle():
    Q = SkewSymmetricQ(1.0, 1.0)
    p = [math.cosh(0.3), math.sinh(0.3)]
    q = [math.cosh(-0.7), math.sinh(-0.7)]
    # p0 q1 - p1 q0 = sinh(eta - theta) = sinh(-1.0) = -1.1752011936438014
    assert Q.pairing(p, q) == pytest.approx(0.5876005968219007, rel=1e-14)


def test_pairing_is_skew():
    Q = SkewSymmetricQ(1.7, 0.8)
    x = [1.3, -0.4]
    y = [0.2, 2.1]
    assert Q.pairing(x, y) == pytest.approx(-Q.pairing(y, x), rel=1e-14)
    assert Q.pairing(x, x) == 0.0


def test_deformation_arithmetic():
    Q = SkewSymmetricQ(0.6, 1.0)
    assert (Q + Q.scaled(2.0)).a == pytest.approx(1.8)
    assert (-Q).a == -0.6
    with pytest.raises(ValueError, match="different masses"):
        Q + SkewSymmetricQ(1.0, 2.0)
    with pytest.raises(ValueError):
        SkewSymmetricQ(float("inf"), 1.0)


def test_identification_with_sinh_model():
    Q = SkewSymmetricQ(1.4, 1.0)
    model = Q.scattering_model()
    grid = RapidityGrid((0.0,), 1.0)
    for theta, eta in [(0.3, -0.7), (1.2, 0.5), (-0.9, -0.1)]:
        phase = np.exp(2j * Q.pairing(grid.momentum(theta), grid.momentum(eta)))
        assert phase == pytest.approx(model.value(theta - eta), abs=1e-13)


def test_warp_zero_strength_is_identity(grid3):
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "zero", 0))
    assert form_residual(warp(A, SkewSymmetricQ(0.0, 1.0)), A) == 0.0


def test_warp_preserves_block_norms(grid3):
    # entrywise unimodular phases leave every Frobenius norm unchanged
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "norm", 0))
    W = warp(A, SkewSymmetricQ(1.1, 1.0))
    for key, mat in A.blocks.items():
        assert np.linalg.norm(W.block(*key)) == pytest.approx(np.linalg.norm(mat),
                                                              rel=1e-14)


def test_warp_composes_additively(grid3):
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "add", 0))
    Q1 = SkewSymmetricQ(0.7, 1.0)
    Q2 = SkewSymmetricQ(-0.3, 1.0)
    lhs = warp(warp(A, Q1), Q2)
    rhs = warp(A, Q1 + Q2)
    assert form_residual(lhs, rhs) <= 1e-13 * A.scale()
    back = warp(warp(A, Q1), -Q1)
    assert form_residual(back, A) <= 1e-13 * A.scale()


def test_warp_mass_guard(grid3):
    A = random_form(FREE, grid3, 1, keyed_rng(0, "warped", "mass", 0))
    with pytest.raises(ValueError, match="mass"):
        warp(A, SkewSymmetricQ(1.0, 2.0))


@pytest.mark.parametrize("a, side", [
    pytest.param(a, side, id=str(a) if side is None else f"spectral-{side}-{a}")
    for side in (None, "right", "left") for a in (1e308, -1e308)])
def test_overflowing_phase_raises(grid3, a, side):
    # at |a| = 1e308 the phase q . (Q p) overflows on 36 of the 169 entries
    # of a K = 2 form; numpy warns of the overflow, and warp and
    # warp_spectral (side given) refuse the form instead of returning NaN
    # entries
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "overflow", 0))
    Q = SkewSymmetricQ(a, 1.0)
    with pytest.raises(ValueError, match="non-finite"), pytest.warns(RuntimeWarning):
        warp(A, Q) if side is None else warp_spectral(A, Q, side)


def test_q_commutator_names_overflow(grid3):
    rng = keyed_rng(0, "warped", "qoverflow", 0)
    A = random_form(FREE, grid3, 2, rng)
    B = random_form(FREE, grid3, 2, rng)
    # 2a is finite but its phase overflows
    with pytest.raises(ValueError, match="non-finite"), pytest.warns(RuntimeWarning):
        q_commutator(A, B, SkewSymmetricQ(5e307, 1.0))
    # 2a itself overflows: named as such, not as an infinite input a
    with pytest.raises(ValueError, match="non-finite") as err:
        q_commutator(A, B, SkewSymmetricQ(1e308, 1.0))
    assert "needs finite a" not in str(err.value)


def test_spectral_sum_agrees_both_sides(grid3):
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "spectral", 0))
    Q = SkewSymmetricQ(0.9, 1.0)
    W = warp(A, Q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        right = warp_spectral(A, Q, "right")
        left = warp_spectral(A, Q, "left")
    assert form_residual(W, right) <= 1e-10 * A.scale()
    assert form_residual(W, left) <= 1e-10 * A.scale()
    with pytest.raises(ValueError, match="side"):
        warp_spectral(A, Q, "middle")


def test_sector_decomposition_sums_back(grid3):
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "decomp", 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        comps = momentum_sector_decompose(A)
    total = comps[0].form
    for comp in comps[1:]:
        total = total + comp.form
    assert form_residual(total, A) <= 1e-13 * A.scale()


def test_components_carry_pure_translation_phases(grid3):
    A = random_form(FREE, grid3, 1, keyed_rng(0, "warped", "phase", 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        comps = momentum_sector_decompose(A)
    x = np.array([0.8, -0.5])
    for comp in comps[:5]:
        moved = translate_form(comp.form, x)
        phase = np.exp(1j * minkowski(comp.transfer, x))
        assert form_residual(moved, phase * comp.form) <= 1e-13 * max(A.scale(), 1.0)


@pytest.mark.parametrize("points", [(-0.6063324537, 0.0, 0.6063324537),
                                    (-1.3, -0.8, -0.3, 0.2, 0.7, 1.3)],
                         ids=["symmetric", "six_point"])
def test_homogeneous_pieces_carry_distinct_transfers(points, monkeypatch):
    # on these lattices equal transfers reached through different sectors
    # differ in the last ulp, and lexicographic neighbours need not be equal
    grid = RapidityGrid(points, 1.0)
    ising = ScatteringModel.ising()
    A = random_form(ising, grid, 3, keyed_rng(0, "warped", "distinct", 0), kmax=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        t = np.array([comp.transfer for comp in momentum_sector_decompose(A)])
    gap = np.abs(t[:, None, :] - t[None, :, :]).max(axis=2)
    np.fill_diagonal(gap, np.inf)
    assert gap.min() > 1e-12 * max(1.0, float(np.abs(t).max()))
    assert suites.check_homogeneous_sum(ising, grid, 3, 0, 2) <= 1e-10

    # two halves of one piece sum back and carry pure phases, so only the
    # distinct-transfer condition of the check can catch them
    whole = suites._sectors

    def halved(form):
        comps = whole(form)
        half = HomogeneousComponent(comps[0].transfer, 0.5 * comps[0].form)
        return [half, half] + comps[1:]

    monkeypatch.setattr(suites, "_sectors", halved)
    assert suites.check_homogeneous_sum(ising, grid, 3, 0, 2) == math.inf


def test_grouping_warns_on_rounded_transfers(grid3):
    # the same momentum transfer reached through different sectors agrees
    # only to the last ulp, so the clustering reports that it merged values
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "warn", 0))
    with pytest.warns(GroupingWarning):
        momentum_sector_decompose(A)


def test_deformed_creator_is_warped_free_creator(grid3):
    f = np.zeros(3, dtype=complex)
    f[1] = 1.0
    Q = SkewSymmetricQ(0.8, 1.0)
    from zfock.zops import creator_form
    direct = deformed_creator(grid3, 2, f, Q)
    want = warp(creator_form(FREE, grid3, 2, f), Q)
    assert form_residual(direct, want) == 0.0


def test_deformed_exchange_matches_sinh_factor(grid3):
    # the warped ladder pair picks up exactly the sinh-family factor
    Q = SkewSymmetricQ(1.2, 1.0)
    S = Q.scattering_model()
    K = 3
    e0 = np.eye(3, dtype=complex)[0]
    e2 = np.eye(3, dtype=complex)[2]
    c0 = deformed_creator(grid3, K, e0, Q)
    c2 = deformed_creator(grid3, K, e2, Q)
    lhs = (c0 @ c2).block(2, 0)
    rhs = S.value(grid3.points[0] - grid3.points[2]) * (c2 @ c0).block(2, 0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    a0 = deformed_annihilator(grid3, K, e0, Q)
    lhs = (a0 @ c2).block(1, 1)
    rhs = S.value(grid3.points[2] - grid3.points[0]) * (c2 @ a0).block(1, 1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_q_commutator_reduces_to_plain_commutator_at_zero(grid3):
    rng = keyed_rng(0, "warped", "qzero", 0)
    A = random_form(FREE, grid3, 2, rng)
    B = random_form(FREE, grid3, 2, rng)
    Q0 = SkewSymmetricQ(0.0, 1.0)
    got = q_commutator(A, B, Q0)
    want = A @ B - B @ A
    assert form_residual(got, want) <= 1e-13 * (A.scale() * B.scale())


def test_nested_family_reproduces_coefficients(grid3):
    from zfock.expansion import fmn_coefficients
    A = random_form(FREE, grid3, 2, keyed_rng(0, "warped", "nested", 0))
    fam = nested_free_family(A, 2)
    for (m, n), kern in fam.items():
        want = fmn_coefficients(FREE, A, m, n).values
        np.testing.assert_allclose(kern.values, want,
                                   atol=1e-10 * max(1.0, A.scale()))


def _full_nested(A, total, creators, annihilators, wrapc, wrapa, parity=0):
    """Vacuum entries of the unpruned nested commutators, for all m + n <= total."""
    N = A.grid.size
    out = {(m, n): np.zeros((N,) * (m + n), dtype=complex)
           for n in range(total + 1) for m in range(total + 1 - n)}

    def fill(X, par, theta, eta):
        blk = X.blocks.get((0, 0))
        out[(len(theta), len(eta))][theta + eta] = blk[0, 0] if blk is not None else 0.0
        if len(theta) + len(eta) == total:
            return
        for g in range(N):
            fill(wrapa(annihilators[g], X, par), par ^ 1, theta + (g,), eta)
        if not theta:
            for g in range(N):
                fill(wrapc(X, creators[g], par), par ^ 1, theta, (g,) + eta)

    fill(A, parity, (), ())
    return out


def test_nested_families_equal_unpruned_commutators(grid3):
    # the families keep only the blocks that can still reach the vacuum;
    # the readouts must be bitwise those of the full nested commutators
    K, total = 3, 3
    units = np.eye(grid3.size, dtype=complex)
    rng = keyed_rng(0, "warped", "pruned", 0)

    def sign(par):
        return -1.0 if par else 1.0

    ising = ScatteringModel.ising()
    creators = [creator_form(FREE, grid3, K, e) for e in units]
    annihilators = [annihilator_form(FREE, grid3, K, e) for e in units]
    A = random_form(FREE, grid3, K, rng)
    want = _full_nested(A, total, creators, annihilators,
                        lambda X, B, _: X @ B - B @ X, lambda B, X, _: B @ X - X @ B)
    for mn, kern in nested_free_family(A, total).items():
        assert np.array_equal(kern.values, want[mn]), ("free", mn)

    creators = [creator_form(ising, grid3, K, e) for e in units]
    annihilators = [annihilator_form(ising, grid3, K, e) for e in units]
    A = random_form(ising, grid3, K, rng)
    parts = [_full_nested(part, total, creators, annihilators,
                          lambda X, B, par: X @ B - sign(par) * (B @ X),
                          lambda B, X, par: B @ X - sign(par) * (X @ B), par)
             for part, par in zip(parity_split(A), (0, 1))]
    for mn, kern in nested_graded_family(A, total).items():
        assert np.array_equal(kern.values, parts[0][mn] + parts[1][mn]), ("graded", mn)

    Q = SkewSymmetricQ(0.9, 1.0)
    creators = [deformed_creator(grid3, K, e, Q) for e in units]
    annihilators = [deformed_annihilator(grid3, K, e, Q) for e in units]
    A = random_form(Q.scattering_model(), grid3, K, rng)
    want = _full_nested(A, total, creators, annihilators,
                        lambda X, B, _: q_commutator(X, B, Q),
                        lambda B, X, _: q_commutator(B, X, Q))
    for mn, kern in nested_q_family(A, Q, total).items():
        assert np.array_equal(kern.values, want[mn]), ("q", mn)


def test_deformed_dual_basis(grid3):
    # deformed extraction of a deformed monomial returns m! n! times the
    # kernel symmetrized with the factor generated by Q
    from zfock.sampling import random_kernel
    Q = SkewSymmetricQ(0.9, 1.0)
    S = Q.scattering_model()
    rng = keyed_rng(0, "warped", "dcoef", 0)
    for m, n in [(1, 1), (2, 1), (0, 2)]:
        kern = random_kernel(grid3, m, n, rng)
        A = deformed_monomial(grid3, 3, Q, kern)
        got = deformed_fmn_coefficients(A, Q, m, n).values
        sym = kern.values
        if m >= 2:
            sym = symmetrize_block(S, grid3, sym, range(1, m + 1))
        if n >= 2:
            sym = symmetrize_block(S, grid3, sym, range(m + 1, m + n + 1))
        want = math.factorial(m) * math.factorial(n) * sym
        np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, A.scale()))
