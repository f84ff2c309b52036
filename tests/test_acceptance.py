"""Acceptance gate: ten criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each criterion aggregates the relevant checks over all three scattering
families at the stated lattice sizes and truncations.
"""

from zfock.fock import Indicatrix, RapidityGrid
from zfock.scattering import ScatteringModel
from zfock.suites import (check_binomial_cancellation, check_boost_covariance,
                          check_bounded_factor_rule, check_coefficient_bound,
                          check_coefficient_symmetry,
                          check_composition_identity, check_composition_law,
                          check_creator_weight_bound, check_deformed_exchange,
                          check_dual_basis, check_enumeration_count,
                          check_exchange_relations, check_homogeneous_sum,
                          check_independent_product_rule, check_inversion,
                          check_kernel_norm_comparison, check_model_axioms,
                          check_monomial_sector_bound,
                          check_monomial_source_bound, check_nested_deformed,
                          check_nested_free, check_nested_graded,
                          check_ordering_agreement, check_pair_exchange,
                          check_product_phase, check_projection_invariance,
                          check_qcomm_algebra, check_reflected_adjoint,
                          check_reflection_alternation,
                          check_reflection_covariance, check_roundtrip,
                          check_scattering_identification,
                          check_translation_covariance, check_vector_phase,
                          check_warp_compose, check_warp_star_linear,
                          check_warp_translation)

GRID5 = RapidityGrid((-1.3, -0.55, 0.05, 0.6, 1.25), 1.0)
GRID4 = RapidityGrid((-1.1, -0.3, 0.4, 1.2), 1.0)
GRID3 = RapidityGrid((-0.8, 0.1, 0.9), 1.0)

FAMILIES = (ScatteringModel.free(), ScatteringModel.ising(),
            ScatteringModel.sinh_exp(0.7))

SEED = 29
EXACT = 1e-12
CLOSE = 1e-10


def _gate(num, name, residual, tol, extra=""):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"criterion {num:2d} {name}: residual {residual:.3e} <= {tol:.0e}"
          f"{extra}: {status}")
    assert residual <= tol


def test_01_scattering_axioms():
    res = 0.0
    for model in FAMILIES:
        res = max(res, check_model_axioms(model, GRID5))
        res = max(res, check_composition_law(model, GRID5))
    _gate(1, "scattering axioms and composition", res, EXACT)


def test_02_exchange_relations():
    res = max(check_exchange_relations(model, GRID5, 4) for model in FAMILIES)
    _gate(2, "exchange relations", res, EXACT)


def test_03_norm_bounds():
    omega = Indicatrix.log(0.8)
    res = 0.0
    for model in FAMILIES:
        res = max(res, check_creator_weight_bound(model, GRID4, 4, omega, SEED, 200))
        res = max(res, check_monomial_source_bound(model, GRID4, 4, omega, SEED, 200))
        res = max(res, check_monomial_sector_bound(model, GRID3, 4, omega, SEED, 200))
        res = max(res, check_coefficient_bound(model, GRID3, 4, omega, SEED, 200))
    for omega in (Indicatrix.log(0.8), Indicatrix.sqrt(0.4)):
        res = max(res, check_bounded_factor_rule(GRID4, omega, SEED, 200))
        res = max(res, check_independent_product_rule(GRID4, omega, SEED, 200))
        res = max(res, check_kernel_norm_comparison(GRID4, omega, SEED, 200))
    _gate(3, "norm and bound inequalities", res, EXACT)


def test_04_contraction_combinatorics():
    res = check_enumeration_count()
    for model in FAMILIES:
        res = max(res, check_pair_exchange(model, GRID3, mmax=3))
        res = max(res, check_composition_identity(model, GRID3, mmax=3))
        res = max(res, check_reflection_alternation(model, GRID3, mmax=3))
    res = max(res, check_binomial_cancellation())
    _gate(4, "contraction combinatorics", res, EXACT)


def test_05_coefficient_symmetry():
    res = max(check_coefficient_symmetry(model, GRID4, 4, SEED, 20)
              for model in FAMILIES)
    _gate(5, "coefficient symmetry", res, EXACT)


def test_06_dual_basis_and_inversion():
    res = 0.0
    for model in FAMILIES:
        res = max(res, check_dual_basis(model, GRID4, 3, SEED, 50))
        res = max(res, check_inversion(model, GRID4, 3, SEED, 50))
    _gate(6, "dual basis and inversion", res, CLOSE)


def test_07_expansion_roundtrip():
    res = 0.0
    for model in FAMILIES:
        res = max(res, check_roundtrip(model, GRID4, 3, SEED, 50))
        res = max(res, check_projection_invariance(model, GRID4, 3, SEED, 50))
    _gate(7, "expansion roundtrip", res, CLOSE)


def test_08_spacetime_covariance():
    res = 0.0
    for model in FAMILIES:
        res = max(res, check_translation_covariance(model, GRID4, 3, SEED, 50))
        res = max(res, check_boost_covariance(model, GRID4, 3, SEED, 50))
        res = max(res, check_reflection_covariance(model, GRID4, 3, SEED, 50))
        res = max(res, check_reflected_adjoint(model, GRID4, 3, SEED, 50))
    _gate(8, "spacetime covariance", res, CLOSE)


def test_09_warped_deformation():
    res = 0.0
    for model in FAMILIES:
        res = max(res, check_warp_compose(model, GRID3, 3, SEED, 10))
        res = max(res, check_warp_translation(model, GRID3, 3, SEED, 10))
        res = max(res, check_warp_star_linear(model, GRID3, 3, SEED, 10))
        res = max(res, check_ordering_agreement(model, GRID3, 3, SEED, 10))
        res = max(res, check_homogeneous_sum(model, GRID3, 3, SEED, 10))
        res = max(res, check_vector_phase(model, GRID3, 3, SEED, 10))
        res = max(res, check_product_phase(model, GRID3, 3, SEED, 10))
    res = max(res, check_qcomm_algebra(GRID3, 3, SEED, 10))
    point = max(check_scattering_identification(GRID3, SEED),
                check_deformed_exchange(GRID3, 3, SEED, 3))
    ok = res <= CLOSE and point <= EXACT
    print(f"criterion  9 warped deformation algebra: residual {res:.3e} <= "
          f"{CLOSE:.0e}, pointwise {point:.3e} <= {EXACT:.0e}: "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_10_nested_coefficients():
    res = max(check_nested_free(GRID3, 3, SEED, 20, total=3),
              check_nested_graded(GRID3, 3, SEED, 20, total=3))
    for a in (0.5, 1.0, 2.0):
        res = max(res, check_nested_deformed(GRID3, 3, SEED, 20, a=a, total=3))
    _gate(10, "nested vs direct coefficients", res, CLOSE)
