"""Verification suites behind the command-line runner and the test harness.

Every check is a standalone function taking explicit inputs (model, lattice,
truncation, weight, seed, instance count) and returning one scalar residual:
for equalities the largest relative deviation found, for inequalities the
largest normalized excess of the left side over the right (zero when the
bound holds everywhere).  The runner reads ``SUITE_CHECKS``, one row per
check: its name, its default tolerance and any inputs that deviate from
the run config.  Checks take their inputs under shared parameter names,
so the runner binds them by name and the runner and the tests drive
exactly the same code.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import (DEFAULT_EQUALITY_TOL, DEFAULT_EXACT_TOL,
                     DEFAULT_INEQUALITY_SLACK, SUITES, ConfigError, RunConfig)
from .contractions import (compose, delta_mask, enumerate_contractions,
                           r_factor_grid, reflect_contraction, s_factor_grid,
                           sigma_rho)
from .expansion import (boost_form, embed_reduced, extract_family,
                        fmn_coefficients, inversion_residual,
                        left_vector_matrix, reconstruct, reflect_conjugate,
                        reflected_coeffs, right_vector_matrix,
                        transform_coeffs_poincare, translate_form)
from .fock import (Indicatrix, RapidityGrid, apply_omega_weight, boost,
                   energy_grid, minkowski, reflect, s_symmetry_residual,
                   sector_momentum, translate)
from .sampling import keyed_rng, random_form, random_kernel, random_state
from .scattering import (SINH_EXP, TABLE, Permutation, ScatteringModel, act_d,
                         act_d_subset, all_permutations, pair_values,
                         permute_tensor, s_sigma_grid, symmetrize)
from .warped import (GroupingWarning, SkewSymmetricQ, deformed_annihilator,
                     deformed_creator, deformed_fmn_coefficients,
                     momentum_sector_decompose, nested_free_family,
                     nested_graded_family, nested_q_family, q_commutator, warp,
                     warp_spectral)
from .zops import (KernelTensor, QuadraticForm, annihilator_form, annihilate,
                   create, creator_form, cross_norm, form_residual,
                   identity_form, kernel_adjoint, qform_norm, sector_norm,
                   zmzn_form)

_TINY = 1e-300


class SkipCheck(Exception):
    """Raised by a check when the configuration cannot exercise it.

    The runner records the check as skipped, with the message as its note.
    """


# ---------------------------------------------------------------------------
# residual conventions


def _rel(err: float, scale: float) -> float:
    """Relative residual with a guarded denominator."""
    return float(err) / max(float(scale), _TINY)


def _excess(lhs: float, rhs: float) -> float:
    """Normalized violation of lhs <= rhs; zero when the bound holds."""
    return max(0.0, (float(lhs) - float(rhs)) / max(abs(float(rhs)), 1e-30))


def _maxabs(arr) -> float:
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _form_rel(A: QuadraticForm, B: QuadraticForm) -> float:
    return _rel(form_residual(A, B), max(A.scale(), B.scale()))


def _keys_residual(A: QuadraticForm, B: QuadraticForm, keys) -> tuple[float, float]:
    """(max deviation, max magnitude) over the given block keys."""
    err = 0.0
    mag = 0.0
    for key in keys:
        a = A.blocks.get(key)
        b = B.blocks.get(key)
        if a is None and b is None:
            continue
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        err = max(err, _maxabs(a - b))
        mag = max(mag, _maxabs(a), _maxabs(b))
    return err, mag


def _zero_form(grid: RapidityGrid, truncation: int) -> QuadraticForm:
    return QuadraticForm(grid, truncation, {})


def coefficient_bound_constant(m: int, n: int) -> float:
    """Constant sum over contractions: sqrt((m-|C|)! (n-|C|)!)."""
    total = 0.0
    for C in enumerate_contractions(m, n):
        total += math.sqrt(math.factorial(m - C.size) * math.factorial(n - C.size))
    return total


# ---------------------------------------------------------------------------
# scattering checks


def check_model_axioms(model: ScatteringModel, grid: RapidityGrid) -> float:
    """Unimodularity and the symmetry S(-t) = conj(S(t)) = 1/S(t) on lattice differences."""
    mat = pair_values(model, grid.points)
    res = _maxabs(np.abs(mat) - 1.0)
    res = max(res, _maxabs(mat * mat.T - 1.0))
    res = max(res, _maxabs(np.conj(mat) - mat.T))
    return res


def check_composition_law(model: ScatteringModel, grid: RapidityGrid,
                          nmax: int = 4) -> float:
    """Cocycle law of the exchange factors over every permutation pair."""
    res = 0.0
    for n in range(2, nmax + 1):
        cache = {sigma: s_sigma_grid(model, grid.points, sigma)
                 for sigma in all_permutations(n)}
        for sigma in all_permutations(n):
            for rho in all_permutations(n):
                lhs = cache[sigma.compose(rho)]
                rhs = cache[sigma] * permute_tensor(cache[rho], sigma)
                res = max(res, _maxabs(lhs - rhs))
    return res


def check_delta_exchange(model: ScatteringModel, grid: RapidityGrid,
                         nmax: int = 3) -> float:
    """Symmetrizing the lattice pairing over one slot group or the other.

    The twisted average over the first n slots must agree with the average
    over the last n slots taken with the inverse model.
    """
    N = grid.size
    inv = model.inverse_model()
    res = 0.0
    for n in range(1, nmax + 1):
        pairing = np.eye(N**n, dtype=complex).reshape((N,) * (2 * n))
        lhs = symmetrize(model, pairing, grid.points, subset=range(1, n + 1))
        rhs = symmetrize(inv, pairing, grid.points, subset=range(n + 1, 2 * n + 1))
        res = max(res, _maxabs(lhs - rhs))
    return res


def check_projector_identity(model: ScatteringModel, grid: RapidityGrid,
                             seed: int, count: int = 4) -> float:
    """The symmetrization average is idempotent on random tensors."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "scattering", "projector_identity", i)
        for n in (2, 3):
            f = rng.normal(size=(grid.size,) * n) + 1j * rng.normal(size=(grid.size,) * n)
            once = symmetrize(model, f, grid.points)
            twice = symmetrize(model, once, grid.points)
            res = max(res, _rel(_maxabs(twice - once), _maxabs(once)))
    return res


def check_twisted_representation(model: ScatteringModel, grid: RapidityGrid,
                                 seed: int, n: int = 3) -> float:
    """Composing twisted slot actions matches acting with the composed permutation."""
    rng = keyed_rng(seed, "scattering", "twisted_representation", 0)
    f = rng.normal(size=(grid.size,) * n) + 1j * rng.normal(size=(grid.size,) * n)
    scale = _maxabs(f)
    res = 0.0
    for sigma in all_permutations(n):
        for rho in all_permutations(n):
            lhs = act_d(model, sigma.compose(rho), f, grid.points)
            rhs = act_d(model, sigma, act_d(model, rho, f, grid.points), grid.points)
            res = max(res, _rel(_maxabs(lhs - rhs), scale))
    return res


# ---------------------------------------------------------------------------
# fock checks


def check_mass_shell(grid: RapidityGrid) -> float:
    """Each lattice momentum lies on the hyperboloid with positive energy."""
    res = 0.0
    musq = grid.mass**2
    for theta in grid.points:
        p = grid.momentum(theta)
        res = max(res, abs(minkowski(p, p) - musq) / musq)
        if p[0] < grid.mass * (1.0 - 1e-15):
            res = max(res, 1.0)
    return res


def check_translation_group(model: ScatteringModel, grid: RapidityGrid,
                            truncation: int, seed: int, count: int) -> float:
    """Additivity, unitarity, and energy phases of the translation action."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "fock", "translation_group", i)
        psi = random_state(model, grid, truncation, rng)
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        nrm = psi.norm()
        both = translate(translate(psi, x), y)
        joint = translate(psi, x + y)
        res = max(res, _rel((both - joint).norm(), nrm))
        res = max(res, _rel(abs(translate(psi, x).norm() - nrm), nrm))
        t = float(rng.normal())
        shifted = translate(psi, (t, 0.0))
        for n in range(truncation + 1):
            phase = np.exp(1j * grid.mass * t * energy_grid(grid, n)).reshape(
                (grid.size,) * n)
            res = max(res, _rel(_maxabs(shifted.sector(n) - phase * psi.sector(n)), nrm))
    return res


def check_boost_roundtrip(model: ScatteringModel, grid: RapidityGrid,
                          truncation: int, seed: int, count: int) -> float:
    """Boosting back and forth restores the lattice and the amplitudes."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "fock", "boost_roundtrip", i)
        psi = random_state(model, grid, truncation, rng)
        lam = float(rng.normal())
        out = boost(boost(psi, lam), -lam)
        nrm = psi.norm()
        res = max(res, _maxabs(np.asarray(out.grid.points) - np.asarray(grid.points)))
        for n in range(truncation + 1):
            res = max(res, _rel(_maxabs(out.sector(n) - psi.sector(n)), nrm))
        res = max(res, _rel(abs(boost(psi, lam).norm() - nrm), nrm))
    return res


def check_reflection_antiunitary(model: ScatteringModel, grid: RapidityGrid,
                                 truncation: int, seed: int, count: int) -> float:
    """The reflection is an involution and conjugates inner products."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "fock", "reflection_antiunitary", i)
        psi = random_state(model, grid, truncation, rng)
        chi = random_state(model, grid, truncation, rng)
        scale = psi.norm() * chi.norm()
        res = max(res, _rel(abs(reflect(psi).inner(reflect(chi))
                                - np.conj(psi.inner(chi))), scale))
        res = max(res, _rel((reflect(reflect(psi)) - psi).norm(), psi.norm()))
    return res


def check_weight_involution(model: ScatteringModel, grid: RapidityGrid,
                            truncation: int, omega: Indicatrix, seed: int,
                            count: int) -> float:
    """Opposite-sign energy weights cancel; weights act diagonally per sector."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "fock", "weight_involution", i)
        psi = random_state(model, grid, truncation, rng)
        nrm = psi.norm()
        back = apply_omega_weight(apply_omega_weight(psi, omega, +1), omega, -1)
        res = max(res, _rel((back - psi).norm(), nrm))
        up = apply_omega_weight(psi, omega, +1)
        for n in range(truncation + 1):
            w = np.exp(omega.weight(energy_grid(grid, n))).reshape((grid.size,) * n)
            res = max(res, _rel(_maxabs(up.sector(n) - w * psi.sector(n)), nrm))
    return res


def check_sector_stability(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, omega: Indicatrix, seed: int,
                           count: int, boosts: bool = True) -> float:
    """Symmetry of the sectors survives translations, weights, reflection, boosts."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "fock", "sector_stability", i)
        psi = random_state(model, grid, truncation, rng)
        amp = max(_maxabs(sec) for sec in psi.sectors)
        states = [translate(psi, rng.normal(size=2)),
                  reflect(psi),
                  apply_omega_weight(psi, omega, +1)]
        if boosts:
            states.append(boost(psi, float(rng.normal())))
        for state in states:
            res = max(res, _rel(s_symmetry_residual(model, state), amp))
    return res


# ---------------------------------------------------------------------------
# zops checks


def _point_basis(N: int, g: int) -> np.ndarray:
    e = np.zeros(N, dtype=complex)
    e[g] = 1.0
    return e


def _exchange_residual(S: np.ndarray, cre, ann, ident: QuadraticForm,
                       truncation: int) -> float:
    """Shared exchange-algebra residual over the admissible sector windows.

    Creator pairs swap against the exchange factor, annihilator pairs
    likewise, and the mixed product differs from its swap by the lattice
    delta times the identity.  Keys near the truncation edge where a
    product leaves the space are excluded.
    """
    K = truncation
    N = len(cre)
    cc_keys = [(k + 2, k) for k in range(K - 1)]
    aa_keys = [(k, k + 2) for k in range(K - 1)]
    mm_keys = [(k, k) for k in range(K)]
    err = 0.0
    mag = 0.0
    for i in range(N):
        for j in range(N):
            lhs = cre[i] @ cre[j]
            rhs = (cre[j] @ cre[i]) * S[i, j]
            e, m = _keys_residual(lhs, rhs, cc_keys)
            err, mag = max(err, e), max(mag, m)

            lhs = ann[i] @ ann[j]
            rhs = (ann[j] @ ann[i]) * S[i, j]
            e, m = _keys_residual(lhs, rhs, aa_keys)
            err, mag = max(err, e), max(mag, m)

            lhs = ann[j] @ cre[i]
            rhs = (cre[i] @ ann[j]) * S[i, j]
            if i == j:
                rhs = rhs + ident
            e, m = _keys_residual(lhs, rhs, mm_keys)
            err, mag = max(err, e), max(mag, m)
    return _rel(err, mag)


def check_exchange_relations(model: ScatteringModel, grid: RapidityGrid,
                             truncation: int) -> float:
    """Exchange algebra of the ladder operators, blockwise on admissible sectors."""
    N = grid.size
    S = pair_values(model, grid.points)
    cre = [creator_form(model, grid, truncation, _point_basis(N, g)) for g in range(N)]
    ann = [annihilator_form(model, grid, truncation, _point_basis(N, g)) for g in range(N)]
    ident = identity_form(model, grid, truncation)
    return _exchange_residual(S, cre, ann, ident, truncation)


def check_ladder_adjoint(model: ScatteringModel, grid: RapidityGrid,
                         truncation: int, seed: int, count: int) -> float:
    """Creation against a bra equals annihilation with the conjugate vector."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "zops", "ladder_adjoint", i)
        f = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        psi = random_state(model, grid, truncation, rng)
        chi = random_state(model, grid, truncation, rng)
        lhs = chi.inner(create(model, f, psi))
        rhs = annihilate(np.conj(f), chi).inner(psi)
        res = max(res, _rel(abs(lhs - rhs), psi.norm() * chi.norm()))
        A = creator_form(model, grid, truncation, f)
        B = annihilator_form(model, grid, truncation, np.conj(f))
        res = max(res, _form_rel(A.adjoint(), B))
    return res


def _degree_cycle(pairs, K: int):
    """Degree pairs clipped to the truncation, cycled indefinitely."""
    usable = [(m, n) for m, n in pairs if m <= K and n <= K]
    if not usable:
        raise SkipCheck("truncation too small for any monomial degree")
    return usable


def check_monomial_ladder_product(model: ScatteringModel, grid: RapidityGrid,
                                  truncation: int, seed: int, count: int) -> float:
    """Monomials with factorized kernels match the ordered ladder product."""
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "monomial_ladder_product", i)
        gs = [rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
              for _ in range(m)]
        hs = [rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
              for _ in range(n)]
        values = np.ones((), dtype=complex)
        for v in gs + hs:
            values = np.multiply.outer(values, v)
        direct = zmzn_form(model, KernelTensor(m, n, values), grid, truncation)
        prod = identity_form(model, grid, truncation)
        for g in gs:
            prod = prod @ creator_form(model, grid, truncation, g)
        for h in hs:
            prod = prod @ annihilator_form(model, grid, truncation, h)
        res = max(res, _form_rel(direct, prod))
    return res


def check_monomial_adjoint(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """The adjoint monomial carries the slot-reversed conjugate kernel."""
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "monomial_adjoint", i)
        f = random_kernel(grid, m, n, rng)
        lhs = zmzn_form(model, f, grid, truncation).adjoint()
        rhs = zmzn_form(model, kernel_adjoint(f), grid, truncation)
        res = max(res, _form_rel(lhs, rhs))
    return res


def check_monomial_symmetrized_kernel(model: ScatteringModel, grid: RapidityGrid,
                                      truncation: int, seed: int,
                                      count: int) -> float:
    """A monomial only sees the doubly symmetrized part of its kernel."""
    degrees = _degree_cycle([(2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "monomial_symmetrized_kernel", i)
        f = random_kernel(grid, m, n, rng)
        sym = f.values
        if m > 1:
            sym = symmetrize(model, sym, grid.points, subset=range(1, m + 1))
        if n > 1:
            sym = symmetrize(model, sym, grid.points, subset=range(m + 1, m + n + 1))
        lhs = zmzn_form(model, f, grid, truncation)
        rhs = zmzn_form(model, KernelTensor(m, n, sym), grid, truncation)
        res = max(res, _form_rel(lhs, rhs))
    return res


def _plus_weights(grid: RapidityGrid, omega: Indicatrix, n: int) -> np.ndarray:
    return np.exp(omega.weight(energy_grid(grid, n)))


def check_creator_weight_bound(model: ScatteringModel, grid: RapidityGrid,
                               truncation: int, omega: Indicatrix, seed: int,
                               count: int) -> float:
    """Weighted norms of single ladder operators against the damped source sectors."""
    K = truncation
    res = 0.0
    wplus = [_plus_weights(grid, omega, n) for n in range(K + 1)]
    for i in range(count):
        rng = keyed_rng(seed, "zops", "creator_weight_bound", i)
        f = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        fnorm = float(np.linalg.norm(wplus[1] * f))
        A = creator_form(model, grid, K, f)
        B = annihilator_form(model, grid, K, f)
        up = [sector_norm(model, grid, A.block(j + 1, j), j + 1, j,
                          wplus[j + 1], 1.0 / wplus[j]) for j in range(K)]
        down = [sector_norm(model, grid, B.block(j, j + 1), j, j + 1,
                            wplus[j], 1.0 / wplus[j + 1]) for j in range(K)]
        for k in range(K):
            lhs = max(up[: k + 1])
            res = max(res, _excess(lhs, math.sqrt(k + 1) * fnorm))
        for k in range(1, K + 1):
            lhs = max(down[:k])
            res = max(res, _excess(lhs, math.sqrt(k) * fnorm))
    return res


def check_monomial_source_bound(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, omega: Indicatrix, seed: int,
                                count: int) -> float:
    """Monomial acting on damped sources, against the weighted kernel norm."""
    K = truncation
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "monomial_source_bound", i)
        f = random_kernel(grid, m, n, rng)
        F = zmzn_form(model, f, grid, K)
        fw = cross_norm(f, grid, omega)
        kmax = K if m <= n else K - (m - n)
        sig = {}
        for j in range(n, kmax + 1):
            l = j - n + m
            wm = np.exp(-omega.weight(energy_grid(grid, j)))
            sig[j] = sector_norm(model, grid, F.block(l, j), l, j, np.ones(grid.size**l), wm)
        for k in range(n, kmax + 1):
            lhs = max(sig[j] for j in range(n, k + 1))
            c = 2.0 * math.sqrt(math.factorial(k) * math.factorial(k - n + m)) \
                / math.factorial(k - n)
            res = max(res, _excess(lhs, c * fw))
    return res


def check_monomial_sector_bound(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, omega: Indicatrix, seed: int,
                                count: int) -> float:
    """Sector-restricted form norm of a monomial against the kernel norm."""
    K = truncation
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "monomial_sector_bound", i)
        f = random_kernel(grid, m, n, rng)
        F = zmzn_form(model, f, grid, K)
        fw = cross_norm(f, grid, omega)
        for k in range(max(m, n), K + 1):
            c = 2.0 * math.factorial(k) / math.factorial(k - max(m, n))
            res = max(res, _excess(qform_norm(model, F, k, omega), c * fw))
    return res


def check_bounded_factor_rule(grid: RapidityGrid, omega: Indicatrix, seed: int,
                              count: int) -> float:
    """Multiplying a kernel by bounded slot functions scales its norm at most."""
    degrees = [(1, 1), (2, 1), (1, 2), (2, 2)]
    res = 0.0
    N = grid.size
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "bounded_factor_rule", i)
        f = random_kernel(grid, m, n, rng)
        fl = rng.normal(size=(N,) * m) + 1j * rng.normal(size=(N,) * m)
        fr = rng.normal(size=(N,) * n) + 1j * rng.normal(size=(N,) * n)
        g = fl.reshape(fl.shape + (1,) * n) * f.values * fr.reshape((1,) * m + fr.shape)
        lhs = cross_norm(KernelTensor(m, n, g), grid, omega)
        rhs = _maxabs(fl) * cross_norm(f, grid, omega) * _maxabs(fr)
        res = max(res, _excess(lhs, rhs))
    return res


def check_independent_product_rule(grid: RapidityGrid, omega: Indicatrix,
                                   seed: int, count: int) -> float:
    """Outer products in fresh slots multiply the norms submultiplicatively."""
    shapes = [((1, 1), (1, 1)), ((2, 1), (1, 0)), ((1, 2), (0, 1)), ((2, 0), (0, 2))]
    res = 0.0
    for i in range(count):
        (m, n), (m2, n2) = shapes[i % len(shapes)]
        rng = keyed_rng(seed, "zops", "independent_product_rule", i)
        f = random_kernel(grid, m, n, rng)
        f2 = random_kernel(grid, m2, n2, rng)
        raw = np.multiply.outer(f.values, f2.values)
        order = (tuple(range(m)) + tuple(range(m + n, m + n + m2))
                 + tuple(range(m, m + n)) + tuple(range(m + n + m2, m + n + m2 + n2)))
        g = KernelTensor(m + m2, n + n2, raw.transpose(order))
        lhs = cross_norm(g, grid, omega)
        rhs = cross_norm(f, grid, omega) * cross_norm(f2, grid, Indicatrix.zero())
        res = max(res, _excess(lhs, rhs))
    return res


def check_kernel_norm_comparison(grid: RapidityGrid, omega: Indicatrix,
                                 seed: int, count: int) -> float:
    """The weighted cross norm is dominated by the weighted lattice 2-norms."""
    degrees = [(1, 1), (2, 1), (1, 2), (2, 2)]
    res = 0.0
    for i in range(count):
        m, n = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "zops", "kernel_norm_comparison", i)
        f = random_kernel(grid, m, n, rng)
        F = f.matrix()
        wl = np.exp(-omega.weight(energy_grid(grid, m)))
        wr = np.exp(-omega.weight(energy_grid(grid, n)))
        lhs = cross_norm(f, grid, omega)
        rhs = 0.5 * (float(np.linalg.norm(wl[:, None] * F))
                     + float(np.linalg.norm(F * wr[None, :])))
        res = max(res, _excess(lhs, rhs))
    return res


# ---------------------------------------------------------------------------
# contraction checks


def check_enumeration_count(mmax: int = 3) -> float:
    """Contraction enumeration against a direct combinatorial construction."""
    bad = 0.0
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            listed = enumerate_contractions(m, n)
            expected = sum(math.comb(m, k) * math.comb(n, k) * math.factorial(k)
                           for k in range(min(m, n) + 1))
            if len(listed) != expected or len(set(listed)) != expected:
                bad = 1.0
            oracle = set()
            for k in range(min(m, n) + 1):
                for lefts in itertools.combinations(range(1, m + 1), k):
                    for rights in itertools.permutations(range(m + 1, m + n + 1), k):
                        oracle.add(frozenset(zip(lefts, rights)))
            if {frozenset(C.pairs) for C in listed} != oracle:
                bad = 1.0
    return bad


def check_pair_exchange(model: ScatteringModel, grid: RapidityGrid,
                        mmax: int = 3) -> float:
    """On supported tuples the contraction factor splits into slot-group factors."""
    N = grid.size
    res = 0.0
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            if m + n == 0:
                continue
            for C in enumerate_contractions(m, n):
                mask = delta_mask(C, N)
                lhs = mask * s_factor_grid(model, grid.points, C)
                sigma, rho = sigma_rho(C)
                st = s_sigma_grid(model, grid.points, sigma).reshape((N,) * m + (1,) * n)
                sr = s_sigma_grid(model, grid.points, rho).reshape((1,) * m + (N,) * n)
                res = max(res, _maxabs(lhs - mask * st * sr))
    return res


def check_composition_identity(model: ScatteringModel, grid: RapidityGrid,
                               mmax: int = 3) -> float:
    """Stacking a contraction of the leftovers composes the deltas and factors."""
    N = grid.size
    res = 0.0
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            if m + n == 0:
                continue
            for C in enumerate_contractions(m, n):
                base = delta_mask(C, N) * s_factor_grid(model, grid.points, C)
                mh, nh = C.m - C.size, C.n - C.size
                for C2 in enumerate_contractions(mh, nh):
                    inner = delta_mask(C2, N) * s_factor_grid(model, grid.points, C2)
                    lhs = base * embed_reduced(C, inner, N)
                    D = compose(C, C2)
                    rhs = delta_mask(D, N) * s_factor_grid(model, grid.points, D)
                    res = max(res, _maxabs(lhs - rhs))
    return res


def check_reflection_alternation(model: ScatteringModel, grid: RapidityGrid,
                                 mmax: int = 3) -> float:
    """The reflected contraction reproduces the factor with swapped slot groups."""
    N = grid.size
    res = 0.0
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            if m + n == 0:
                continue
            for C in enumerate_contractions(m, n):
                T = delta_mask(C, N) * s_factor_grid(model, grid.points, C) \
                    * r_factor_grid(model, grid.points, C)
                CJ = reflect_contraction(C)
                TJ = delta_mask(CJ, N) * s_factor_grid(model, grid.points, CJ) \
                    * r_factor_grid(model, grid.points, CJ)
                swapped = np.moveaxis(T, tuple(range(m)), tuple(range(n, n + m)))
                res = max(res, _maxabs(TJ - ((-1.0) ** C.size) * swapped))
    return res


def check_binomial_cancellation(mmax: int = 3) -> float:
    """Signed decompositions of a contraction cancel unless it is empty."""
    res = 0.0
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            sums = {C: 0.0 for C in enumerate_contractions(m, n)}
            for C in enumerate_contractions(m, n):
                mh, nh = C.m - C.size, C.n - C.size
                for C2 in enumerate_contractions(mh, nh):
                    sums[compose(C, C2)] += (-1.0) ** C2.size
            for D, value in sums.items():
                res = max(res, abs(value - (1.0 if D.size == 0 else 0.0)))
    return res


# ---------------------------------------------------------------------------
# expansion checks


def _sym_both(model: ScatteringModel, values: np.ndarray, points, m: int,
              n: int) -> np.ndarray:
    """Symmetrize the outgoing and incoming slot groups separately."""
    out = values
    if m > 1:
        out = symmetrize(model, out, points, subset=range(1, m + 1))
    if n > 1:
        out = symmetrize(model, out, points, subset=range(m + 1, m + n + 1))
    return out


def check_coefficient_symmetry(model: ScatteringModel, grid: RapidityGrid,
                               truncation: int, seed: int, count: int,
                               cap: int = 4) -> float:
    """Every coefficient is invariant under twisted transpositions in each group."""
    K = truncation
    cap = min(cap, 2 * K)
    pairs = [(m, n) for m in range(min(K, cap) + 1)
             for n in range(min(K, cap) + 1)
             if m + n <= cap and max(m, n) >= 2]
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "coefficient_symmetry", i)
        A = random_form(model, grid, K, rng)
        for m, n in pairs:
            f = fmn_coefficients(model, A, m, n).values
            scale = _maxabs(f)
            for start, size in ((1, m), (m + 1, n)):
                for a in range(1, size + 1):
                    for b in range(a + 1, size + 1):
                        tau = Permutation.transposition(size, a, b)
                        slots = tuple(range(start, start + size))
                        moved = act_d_subset(model, f, grid.points, slots, tau)
                        res = max(res, _rel(_maxabs(moved - f), scale))
    return res


def check_dual_basis(model: ScatteringModel, grid: RapidityGrid,
                     truncation: int, seed: int, count: int) -> float:
    """Coefficients of a single monomial: factorials at its own degree, else zero."""
    K = truncation
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0)], K)
    res = 0.0
    for i in range(count):
        mp, np_ = degrees[i % len(degrees)]
        rng = keyed_rng(seed, "expansion", "dual_basis", i)
        g = random_kernel(grid, mp, np_, rng)
        A = zmzn_form(model, g, grid, K)
        expected = math.factorial(mp) * math.factorial(np_) \
            * _sym_both(model, g.values, grid.points, mp, np_)
        scale = _maxabs(expected)
        for m in range(K + 1):
            for n in range(K + 1):
                got = fmn_coefficients(model, A, m, n).values
                want = expected if (m, n) == (mp, np_) else np.zeros_like(got)
                res = max(res, _rel(_maxabs(got - want), scale))
    return res


def check_inversion(model: ScatteringModel, grid: RapidityGrid,
                    truncation: int, seed: int, count: int) -> float:
    """Contraction resummation of the coefficients recovers the raw elements."""
    K = truncation
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "inversion", i)
        A = random_form(model, grid, K, rng)
        fam = extract_family(model, A)
        err = 0.0
        mag = _TINY
        for m in range(K + 1):
            for n in range(K + 1):
                L = left_vector_matrix(model, grid, m)
                R = right_vector_matrix(model, grid, n)
                mag = max(mag, _maxabs(L.conj().T @ A.block(m, n) @ R))
                err = max(err, inversion_residual(model, A, m, n, fam))
        res = max(res, err / mag)
    return res


def check_roundtrip(model: ScatteringModel, grid: RapidityGrid,
                    truncation: int, seed: int, count: int) -> float:
    """Extract then reconstruct is the identity on the truncated space."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "roundtrip", i)
        A = random_form(model, grid, truncation, rng)
        B = reconstruct(model, extract_family(model, A))
        res = max(res, _form_rel(A, B))
    return res


def check_projection_invariance(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, seed: int, count: int,
                                total: int | None = None) -> float:
    """Extraction undoes a weighted monomial sum, returning symmetrized kernels."""
    K = truncation
    total = min(K, 3) if total is None else total
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "projection_invariance", i)
        kernels = {}
        A = QuadraticForm(grid, K)
        for m in range(total + 1):
            for n in range(total + 1 - m):
                f = random_kernel(grid, m, n, rng)
                kernels[(m, n)] = f
                w = 1.0 / (math.factorial(m) * math.factorial(n))
                A = A + w * zmzn_form(model, f, grid, K)
        for (m, n), f in kernels.items():
            want = _sym_both(model, f.values, grid.points, m, n)
            got = fmn_coefficients(model, A, m, n).values
            res = max(res, _rel(_maxabs(got - want), _maxabs(want)))
    return res


def check_translation_covariance(model: ScatteringModel, grid: RapidityGrid,
                                 truncation: int, seed: int, count: int) -> float:
    """Coefficients of the translated operator carry momentum-transfer phases."""
    K = truncation
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "translation_covariance", i)
        A = random_form(model, grid, K, rng)
        x = rng.normal(size=2)
        moved = transform_coeffs_poincare(extract_family(model, A), x, 0.0)
        B = translate_form(A, x)
        err = 0.0
        mag = _TINY
        for m in range(K + 1):
            for n in range(K + 1):
                got = fmn_coefficients(model, B, m, n).values
                want = moved.entry(m, n).values
                err = max(err, _maxabs(got - want))
                mag = max(mag, _maxabs(want))
        res = max(res, err / mag)
    return res


def check_boost_covariance(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """Coefficients of the boosted operator are the same arrays on the shifted lattice."""
    if model.family == TABLE:
        raise SkipCheck("tabulated scattering values are pinned to one lattice")
    K = truncation
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "boost_covariance", i)
        A = random_form(model, grid, K, rng)
        lam = float(rng.normal())
        moved = transform_coeffs_poincare(extract_family(model, A), (0.0, 0.0), lam)
        B = boost_form(A, lam)
        err = 0.0
        mag = _TINY
        for m in range(K + 1):
            for n in range(K + 1):
                got = fmn_coefficients(model, B, m, n).values
                want = moved.entry(m, n).values
                err = max(err, _maxabs(got - want))
                mag = max(mag, _maxabs(want))
        res = max(res, err / mag)
    return res


def check_reflection_covariance(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, seed: int, count: int) -> float:
    """Coefficients of the reflected adjoint from the original family."""
    K = truncation
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "reflection_covariance", i)
        A = random_form(model, grid, K, rng)
        fam = extract_family(model, A)
        R = reflect_conjugate(A)
        err = 0.0
        mag = _TINY
        for m in range(K + 1):
            for n in range(K + 1):
                got = fmn_coefficients(model, R, m, n).values
                want = reflected_coeffs(model, fam, m, n).values
                err = max(err, _maxabs(got - want))
                mag = max(mag, _maxabs(want))
        res = max(res, err / mag)
    return res


def check_reflected_adjoint(model: ScatteringModel, grid: RapidityGrid,
                            truncation: int, seed: int, count: int) -> float:
    """Defining matrix elements of the reflected adjoint on random states."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "reflected_adjoint", i)
        A = random_form(model, grid, truncation, rng)
        psi = random_state(model, grid, truncation, rng)
        chi = random_state(model, grid, truncation, rng)
        lhs = reflect_conjugate(A).matrix_element(psi, chi)
        rhs = A.matrix_element(reflect(chi), reflect(psi))
        res = max(res, _rel(abs(lhs - rhs), A.scale() * psi.norm() * chi.norm()))
    return res


def check_coefficient_bound(model: ScatteringModel, grid: RapidityGrid,
                            truncation: int, omega: Indicatrix, seed: int,
                            count: int) -> float:
    """Weighted norm of each coefficient against the sector-weighted form norm."""
    K = truncation
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "coefficient_bound", i)
        A = random_form(model, grid, K, rng)
        norms = [qform_norm(model, A, s, omega) for s in range(K + 1)]
        for m in range(K + 1):
            for n in range(K + 1 - m):
                f = fmn_coefficients(model, A, m, n)
                lhs = cross_norm(f, grid, omega)
                rhs = coefficient_bound_constant(m, n) * norms[m + n]
                res = max(res, _excess(lhs, rhs))
    return res


def check_vector_energy_bound(model: ScatteringModel, grid: RapidityGrid,
                              truncation: int, omega: Indicatrix, seed: int,
                              count: int) -> float:
    """Multi-creator vectors raise weighted norms by at most the factorial."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "expansion", "vector_energy_bound", i)
        for j in range(truncation + 1):
            v = rng.normal(size=grid.size**j) + 1j * rng.normal(size=grid.size**j)
            w = np.exp(omega.weight(energy_grid(grid, j))).ravel()
            lhs = float(np.linalg.norm(w * (left_vector_matrix(model, grid, j) @ v)))
            rhs = math.sqrt(math.factorial(j)) * float(np.linalg.norm(w * v))
            res = max(res, _excess(lhs, rhs))
    return res


# ---------------------------------------------------------------------------
# warped deformation checks


def _model_deformation(model: ScatteringModel, grid: RapidityGrid) -> SkewSymmetricQ:
    """Deformation matrix whose induced factor matches the model when it can."""
    a = model.a if model.family == SINH_EXP else 1.0
    return SkewSymmetricQ(a, grid.mass)


def _sectors(form: QuadraticForm):
    # grouping of nearly equal momentum sums is expected on generic grids
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        return momentum_sector_decompose(form)


def check_warp_compose(model: ScatteringModel, grid: RapidityGrid,
                       truncation: int, seed: int, count: int) -> float:
    """Warps compose additively in the deformation matrix and invert cleanly."""
    kmax = min(2, truncation)
    zero = SkewSymmetricQ(0.0, grid.mass)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "warp_compose", i)
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        Q1 = SkewSymmetricQ(float(rng.normal()), grid.mass)
        Q2 = SkewSymmetricQ(float(rng.normal()), grid.mass)
        res = max(res, _form_rel(warp(warp(A, Q1), Q2), warp(A, Q1 + Q2)))
        res = max(res, _form_rel(warp(warp(A, Q1), -Q1), A))
        res = max(res, _form_rel(warp(A, zero), A))
    return res


def _translation_form(grid: RapidityGrid, truncation: int,
                      x) -> QuadraticForm:
    """Diagonal form implementing translation by x on every sector."""
    blocks = {}
    for k in range(truncation + 1):
        q0, q1 = sector_momentum(grid, k)
        blocks[(k, k)] = np.diag(np.exp(1j * (q0 * x[0] - q1 * x[1])))
    return QuadraticForm(grid, truncation, blocks)


def check_warp_translation(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """Warping commutes with translation, and translation forms are warp fixed points."""
    kmax = min(2, truncation)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "warp_translation", i)
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        Q = SkewSymmetricQ(float(rng.normal()), grid.mass)
        x = rng.normal(size=2)
        res = max(res, _form_rel(translate_form(warp(A, Q), x),
                                 warp(translate_form(A, x), Q)))
        U = _translation_form(grid, truncation, x)
        res = max(res, _form_rel(warp(U, Q), U))
    return res


def check_warp_star_linear(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """The warp is linear and commutes with the adjoint."""
    kmax = min(2, truncation)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "warp_star_linear", i)
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        B = random_form(model, grid, truncation, rng, kmax=kmax)
        Q = SkewSymmetricQ(float(rng.normal()), grid.mass)
        c = complex(rng.normal(), rng.normal())
        res = max(res, _form_rel(warp(c * A + B, Q),
                                 c * warp(A, Q) + warp(B, Q)))
        res = max(res, _form_rel(warp(A, Q).adjoint(), warp(A.adjoint(), Q)))
    return res


def check_ordering_agreement(model: ScatteringModel, grid: RapidityGrid,
                             truncation: int, seed: int, count: int) -> float:
    """Entrywise warp agrees with the left and right spectral sums."""
    Q = _model_deformation(model, grid)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "ordering_agreement", i)
        A = random_form(model, grid, truncation, rng)
        W = warp(A, Q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GroupingWarning)
            res = max(res, _form_rel(W, warp_spectral(A, Q, "right")))
            res = max(res, _form_rel(W, warp_spectral(A, Q, "left")))
    return res


def check_homogeneous_sum(model: ScatteringModel, grid: RapidityGrid,
                          truncation: int, seed: int, count: int) -> float:
    """Momentum-transfer pieces sum back and carry pure translation phases.

    Distinct pieces must also carry transfers farther apart than the
    grouping tolerance; a transfer split across pieces fails with inf.
    """
    kmax = min(2, truncation)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "homogeneous_sum", i)
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        comps = _sectors(A)
        if len(comps) > 1:
            t = np.array([comp.transfer for comp in comps])
            gap = np.abs(t[:, None, :] - t[None, :, :]).max(axis=2)
            np.fill_diagonal(gap, np.inf)
            if gap.min() <= _EXACT * max(1.0, float(np.abs(t).max())):
                return float("inf")
        total = _zero_form(grid, truncation)
        for comp in comps:
            total = total + comp.form
        res = max(res, _form_rel(total, A))
        x = rng.normal(size=2)
        scale = max(A.scale(), _TINY)
        step = max(1, len(comps) // 4)
        for comp in comps[::step][:4]:
            moved = translate_form(comp.form, x)
            phase = np.exp(1j * minkowski(comp.transfer, x))
            res = max(res, form_residual(moved, phase * comp.form) / scale)
    return res


def check_vector_phase(model: ScatteringModel, grid: RapidityGrid,
                       truncation: int, seed: int, count: int) -> float:
    """Warping a fixed-transfer piece is one momentum-dependent column phase."""
    Q = _model_deformation(model, grid)
    kmax = min(2, truncation)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "vector_phase", i)
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        comps = _sectors(A)
        step = max(1, len(comps) // 4)
        for comp in comps[::step][:4]:
            W = warp(comp.form, Q)
            f0, f1 = comp.transfer
            err = 0.0
            mag = _TINY
            for (l, k), mat in comp.form.blocks.items():
                p0, p1 = sector_momentum(grid, k)
                col = np.exp(1j * Q.pairing_arrays(f0, f1, p0, p1))
                want = mat * col[None, :]
                err = max(err, _maxabs(W.block(l, k) - want))
                mag = max(mag, _maxabs(want))
            res = max(res, err / mag)
    return res


def check_product_phase(model: ScatteringModel, grid: RapidityGrid,
                        truncation: int, seed: int, count: int) -> float:
    """Products of warped fixed-transfer pieces pick up one pairing phase."""
    Q = _model_deformation(model, grid)
    kmax = min(2, truncation)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "product_phase", i)
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        B = random_form(model, grid, truncation, rng, kmax=kmax)
        for ci in _sectors(A)[:3]:
            for cj in _sectors(B)[:3]:
                lhs = warp(ci.form, Q) @ warp(cj.form, Q)
                phase = np.exp(1j * Q.pairing(ci.transfer, cj.transfer))
                rhs = phase * warp(ci.form @ cj.form, Q)
                mag = max(ci.form.scale() * cj.form.scale(), _TINY)
                res = max(res, form_residual(lhs, rhs) / mag)
    return res


def check_scattering_identification(grid: RapidityGrid, seed: int,
                                    count: int = 100) -> float:
    """The pairing phase of two mass-shell momenta is the induced exchange factor."""
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "scattering_identification", i)
        a = float(rng.uniform(0.2, 3.0))
        Q = SkewSymmetricQ(a, grid.mass)
        S = Q.scattering_model()
        th, et = rng.uniform(-3.0, 3.0, size=2)
        lhs = np.exp(2j * Q.pairing(grid.momentum(th), grid.momentum(et)))
        res = max(res, abs(lhs - S.value(th - et)))
    return res


def check_deformed_exchange(grid: RapidityGrid, truncation: int, seed: int,
                            count: int = 3) -> float:
    """Deformed ladder operators realize the exchange algebra of the induced model.

    The same relations are then rechecked with the deformed commutator,
    whose phase cancels against the induced factor.
    """
    K = truncation
    N = grid.size
    free = ScatteringModel.free()
    ident = identity_form(free, grid, K)
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "deformed_exchange", i)
        a = float(rng.uniform(0.3, 2.0))
        Q = SkewSymmetricQ(a, grid.mass)
        S = pair_values(Q.scattering_model(), grid.points)
        cre = [deformed_creator(grid, K, _point_basis(N, g), Q) for g in range(N)]
        ann = [deformed_annihilator(grid, K, _point_basis(N, g), Q) for g in range(N)]
        res = max(res, _exchange_residual(S, cre, ann, ident, K))
        cc_keys = [(k + 2, k) for k in range(K - 1)]
        aa_keys = [(k, k + 2) for k in range(K - 1)]
        mm_keys = [(k, k) for k in range(K)]
        zero = _zero_form(grid, K)
        err = 0.0
        mag = _TINY
        for gi in range(N):
            for gj in range(N):
                e, _ = _keys_residual(q_commutator(cre[gi], cre[gj], Q), zero, cc_keys)
                _, m = _keys_residual(cre[gi] @ cre[gj], zero, cc_keys)
                err, mag = max(err, e), max(mag, m)
                e, _ = _keys_residual(q_commutator(ann[gi], ann[gj], Q), zero, aa_keys)
                _, m = _keys_residual(ann[gi] @ ann[gj], zero, aa_keys)
                err, mag = max(err, e), max(mag, m)
                want = ident if gi == gj else zero
                e, _ = _keys_residual(q_commutator(ann[gj], cre[gi], Q), want, mm_keys)
                _, m = _keys_residual(ann[gj] @ cre[gi], want, mm_keys)
                err, mag = max(err, e), max(mag, m)
        res = max(res, err / mag)
    return res


def check_qcomm_algebra(grid: RapidityGrid, truncation: int, seed: int,
                        count: int) -> float:
    """Antisymmetry, Leibniz rule, and Jacobi identity of the deformed commutator.

    Words of one point creator and one point annihilator are homogeneous
    in momentum transfer and number preserving, so every identity is an
    exact matrix statement on all retained sectors.
    """
    K = truncation
    N = grid.size
    free = ScatteringModel.free()
    cre = [creator_form(free, grid, K, _point_basis(N, g)) for g in range(N)]
    ann = [annihilator_form(free, grid, K, _point_basis(N, g)) for g in range(N)]
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "qcomm_algebra", i)
        Q = SkewSymmetricQ(float(rng.uniform(0.3, 2.0)), grid.mass)
        idx = [int(v) for v in rng.integers(N, size=6)]
        ops = []
        phis = []
        for t in range(3):
            gi, gj = idx[2 * t], idx[2 * t + 1]
            ops.append(cre[gi] @ ann[gj])
            phis.append(np.asarray(grid.momentum(grid.points[gi]))
                        - np.asarray(grid.momentum(grid.points[gj])))
        A, B, C = ops
        phA, phB, phC = phis

        def w(x, y):
            return complex(np.exp(2j * Q.pairing(x, y)))

        # the commutator may vanish identically, so every residual is
        # normalized by the scale of the inputs rather than the output
        pair = max(A.scale() * B.scale(), _TINY)
        triple = max(pair * C.scale(), _TINY)
        AB = q_commutator(A, B, Q)
        direct = A @ B - w(phA, phB) * (B @ A)
        res = max(res, (AB - direct).scale() / pair)
        anti = AB + w(phA, phB) * q_commutator(B, A, Q)
        res = max(res, anti.scale() / pair)
        lhs = q_commutator(A, B @ C, Q)
        rhs = AB @ C + w(phA, phB) * (B @ q_commutator(A, C, Q))
        res = max(res, (lhs - rhs).scale() / triple)
        jac = w(phC, phA) * q_commutator(A, q_commutator(B, C, Q), Q) \
            + w(phA, phB) * q_commutator(B, q_commutator(C, A, Q), Q) \
            + w(phB, phC) * q_commutator(C, q_commutator(A, B, Q), Q)
        res = max(res, jac.scale() / triple)
    return res


def _family_residual(fam: dict, direct: dict) -> float:
    """Largest deviation across a coefficient family, relative to its scale."""
    scale = max((_maxabs(d.values) for d in direct.values()), default=0.0)
    err = max((_maxabs(fam[mn].values - direct[mn].values) for mn in fam),
              default=0.0)
    return _rel(err, scale)


def check_nested_free(grid: RapidityGrid, truncation: int, seed: int,
                      count: int, total: int | None = None) -> float:
    """Nested plain commutators recover the coefficients of the trivial factor."""
    free = ScatteringModel.free()
    total = min(truncation, 2) if total is None else total
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "nested_free", i)
        A = random_form(free, grid, truncation, rng)
        fam = nested_free_family(A, total)
        direct = {mn: fmn_coefficients(free, A, mn[0], mn[1]) for mn in fam}
        res = max(res, _family_residual(fam, direct))
    return res


def check_nested_graded(grid: RapidityGrid, truncation: int, seed: int,
                        count: int, total: int | None = None) -> float:
    """Nested graded commutators recover the coefficients of the sign factor."""
    ising = ScatteringModel.ising()
    total = min(truncation, 2) if total is None else total
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "nested_graded", i)
        A = random_form(ising, grid, truncation, rng)
        fam = nested_graded_family(A, total)
        direct = {mn: fmn_coefficients(ising, A, mn[0], mn[1]) for mn in fam}
        res = max(res, _family_residual(fam, direct))
    return res


def check_nested_deformed(grid: RapidityGrid, truncation: int, seed: int,
                          count: int, a: float = 1.0,
                          total: int | None = None) -> float:
    """Nested deformed commutators recover the deformed-creator coefficients."""
    Q = SkewSymmetricQ(a, grid.mass)
    model = Q.scattering_model()
    total = min(truncation, 2) if total is None else total
    res = 0.0
    for i in range(count):
        rng = keyed_rng(seed, "warped", "nested_deformed", i)
        A = random_form(model, grid, truncation, rng)
        fam = nested_q_family(A, Q, total)
        direct = {mn: deformed_fmn_coefficients(A, Q, mn[0], mn[1]) for mn in fam}
        res = max(res, _family_residual(fam, direct))
    return res


# ---------------------------------------------------------------------------
# runner


@dataclass
class CheckRecord:
    """Outcome of one verification check."""

    suite: str
    check: str
    status: str
    residual: float | None
    tolerance: float | None
    seconds: float
    note: str = ""


@dataclass
class Report:
    """Ordered collection of check records with stable serializations."""

    records: list[CheckRecord] = field(default_factory=list)

    @property
    def failed(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "fail"]

    def to_csv(self) -> str:
        """Deterministic text table; timing is deliberately left out."""
        lines = ["suite,check,status,residual,tolerance"]
        for r in self.records:
            res = "" if r.residual is None else repr(r.residual)
            tol = "" if r.tolerance is None else repr(r.tolerance)
            lines.append(f"{r.suite},{r.check},{r.status},{res},{tol}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.records], indent=2) + "\n"

    def summary(self) -> str:
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        return (f"{counts['pass']} passed, {counts['fail']} failed, "
                f"{counts['skipped']} skipped")


def _few(divisor: int = 4):
    """Recipe for a count of a fraction of the configured instances, at least one."""
    return lambda cfg, model: max(1, cfg.instances // divisor)


def _contraction_mmax(cfg: RunConfig, model: ScatteringModel) -> int:
    return 3 if cfg.grid.size <= 5 else 2


def _small_truncation(cfg: RunConfig, model: ScatteringModel) -> int:
    return min(cfg.truncation, 3)


_EXACT = DEFAULT_EXACT_TOL
_EQ = DEFAULT_EQUALITY_TOL
_SLACK = DEFAULT_INEQUALITY_SLACK

_MMAX = {"mmax": _contraction_mmax}
_NESTED = {"truncation": _small_truncation, "count": _few(6)}

# Rows are (check name, default tolerance, overrides).  The runner calls
# check_<name>, filling every parameter without a default from the run
# config and the model by parameter name; each override maps a parameter
# to a (cfg, model) -> value recipe applied on top.
SUITE_CHECKS = {
    "scattering": [
        ("model_axioms", _EXACT, {}),
        ("composition_law", _EXACT, {}),
        ("delta_exchange", _EXACT, {}),
        ("projector_identity", _EXACT, {"count": _few()}),
        ("twisted_representation", _EXACT, {}),
    ],
    "fock": [
        ("mass_shell", _EXACT, {}),
        ("translation_group", _EXACT, {}),
        ("boost_roundtrip", _EXACT, {}),
        ("reflection_antiunitary", _EXACT, {}),
        ("weight_involution", _EXACT, {}),
        ("sector_stability", _EXACT, {"boosts": lambda cfg, model: model.family != TABLE}),
    ],
    "zops": [
        ("exchange_relations", _EXACT, {}),
        ("ladder_adjoint", _EQ, {}),
        ("monomial_ladder_product", _EQ, {}),
        ("monomial_adjoint", _EQ, {}),
        ("monomial_symmetrized_kernel", _EQ, {}),
        ("creator_weight_bound", _SLACK, {}),
        ("monomial_source_bound", _SLACK, {}),
        ("monomial_sector_bound", _SLACK, {}),
        ("bounded_factor_rule", _SLACK, {}),
        ("independent_product_rule", _SLACK, {}),
        ("kernel_norm_comparison", _SLACK, {}),
    ],
    "contractions": [
        ("enumeration_count", _EXACT, {}),
        ("pair_exchange", _EXACT, _MMAX),
        ("composition_identity", _EXACT, _MMAX),
        ("reflection_alternation", _EXACT, _MMAX),
        ("binomial_cancellation", _EXACT, {}),
    ],
    "expansion": [
        ("coefficient_symmetry", _EXACT, {"count": _few()}),
        ("dual_basis", _EQ, {}),
        ("inversion", _EQ, {"count": _few()}),
        ("roundtrip", _EQ, {"count": _few()}),
        ("projection_invariance", _EQ, {"count": _few()}),
        ("translation_covariance", _EQ, {"count": _few()}),
        ("boost_covariance", _EQ, {"count": _few()}),
        ("reflection_covariance", _EQ, {"count": _few()}),
        ("reflected_adjoint", _EQ, {}),
        ("coefficient_bound", _SLACK, {"count": _few()}),
        ("vector_energy_bound", _SLACK, {}),
    ],
    "warped": [
        ("warp_compose", _EQ, {}),
        ("warp_translation", _EQ, {}),
        ("warp_star_linear", _EQ, {}),
        ("ordering_agreement", _EQ, {"count": _few()}),
        ("homogeneous_sum", _EQ, {"count": _few()}),
        ("vector_phase", _EQ, {"count": _few()}),
        ("product_phase", _EQ, {"count": _few()}),
        ("scattering_identification", _EXACT, {}),
        ("deformed_exchange", _EXACT, {"truncation": _small_truncation,
                                       "count": lambda cfg, model: min(cfg.instances, 3)}),
        ("qcomm_algebra", _EQ, {"truncation": _small_truncation, "count": _few()}),
        ("nested_free", _EQ, _NESTED),
        ("nested_graded", _EQ, _NESTED),
        ("nested_deformed", _EQ, _NESTED),
    ],
}

# The check whose failure invalidates every other one.
_GATE = ("scattering", "model_axioms")


def _run_check(name: str, overrides: dict, cfg: RunConfig,
               model: ScatteringModel) -> float:
    """Call check_<name> with its inputs bound by parameter name."""
    # looked up at call time, so a rebound module attribute is the one called
    check = globals()[f"check_{name}"]
    inputs = {"model": model, "grid": cfg.grid, "truncation": cfg.truncation,
              "omega": cfg.omega, "seed": cfg.seed, "count": cfg.instances}
    kwargs = {param: inputs[param]
              for param, spec in inspect.signature(check).parameters.items()
              if spec.default is inspect.Parameter.empty}
    kwargs.update((param, recipe(cfg, model)) for param, recipe in overrides.items())
    return check(**kwargs)


def _exc_note(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_suites(cfg: RunConfig) -> Report:
    """Run the selected suites serially, gating everything on the model check.

    A scattering model that cannot be built, or that fails ``model_axioms``,
    invalidates every later identity, so the remaining checks are recorded
    as skipped rather than run against a broken factor.  Tolerance
    overrides naming no check raise ConfigError before anything runs.
    """
    known = {name for rows in SUITE_CHECKS.values() for name, _, _ in rows}
    unknown = sorted(set(cfg.tolerances) - known)
    if unknown:
        raise ConfigError([f"tolerances name unknown checks {unknown!r}"])

    report = Report()
    t0 = time.perf_counter()
    try:
        model = cfg.build_model()
    except Exception as exc:
        model = None
        report.records.append(CheckRecord(
            *_GATE, "fail", float("inf"), cfg.tolerance("model_axioms", _EXACT),
            time.perf_counter() - t0, _exc_note(exc)))
    gate_failed = model is None

    for suite in (s for s in SUITES if s in cfg.suites):
        for name, default_tol, overrides in SUITE_CHECKS[suite]:
            tol = cfg.tolerance(name, default_tol)
            if gate_failed:
                # the gate row was recorded when the model failed to build
                if (suite, name) != _GATE:
                    report.records.append(CheckRecord(suite, name, "skipped", None,
                                                      tol, 0.0, "fail-fast"))
                continue
            t0 = time.perf_counter()
            residual: float | None
            try:
                residual = float(_run_check(name, overrides, cfg, model))
                status = "pass" if residual <= tol else "fail"
                note = ""
            except SkipCheck as exc:
                residual, status, note = None, "skipped", str(exc)
            except MemoryError:
                residual, status = float("inf"), "fail"
                note = (f"out of memory at lattice size {cfg.grid.size}, "
                        f"truncation {cfg.truncation}")
            except Exception as exc:
                residual, status, note = float("inf"), "fail", _exc_note(exc)
            report.records.append(CheckRecord(
                suite, name, status, residual, tol,
                time.perf_counter() - t0, note))
            if (suite, name) == _GATE and status == "fail":
                gate_failed = True
    return report
