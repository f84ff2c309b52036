"""Verification suites behind the command-line runner and the test harness.

Every check is a standalone function taking explicit inputs (model, lattice,
truncation, weight, seed, instance count) and returning one scalar residual:
for equalities the largest relative deviation found, for inequalities the
largest normalized excess of the left side over the right (zero when the
bound holds everywhere).  The runner reads ``SUITE_CHECKS``, one row per
check: its name, its default tolerance and any inputs that deviate from
the run config.  Checks take their inputs under shared parameter names,
so the runner binds them by name and the runner and the tests drive
exactly the same code.  Instance i of a check draws from a generator keyed
by (seed, suite, check, i), so a check reproduces on its own.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .config import (DEFAULT_EQUALITY_TOL, DEFAULT_EXACT_TOL,
                     DEFAULT_INEQUALITY_SLACK, SUITES, ConfigError, RunConfig)
from .contractions import (Contraction, add_on_support, compose,
                           enumerate_contractions, reflect_contraction,
                           sigma_rho)
from .expansion import (CoefficientFamily, _ladder_sum, boost_form, creator_elements,
                        extract_family, fmn_coefficients, inversion_residual, reconstruct,
                        reflect_conjugate, reflected_coeffs, transform_coeffs_poincare,
                        translate_form)
from .fock import (Indicatrix, RapidityGrid, apply_omega_weight, basis_tuples, boost,
                   energy_grid, energy_weights, minkowski, reflect, sector_momentum,
                   translate, translation_phases)
from .sampling import keyed_rng, random_form, random_kernel, random_state
from .scattering import (SINH_EXP, TABLE, Permutation, ScatteringModel, _pair_values_cached,
                         act_d, all_permutations, pair_values, permute_tensor,
                         s_sigma_grid)
from .warped import (GROUPING_RTOL, GroupingWarning, SkewSymmetricQ, _orbit_momentum,
                     _phase_block, deformed_fmn_coefficients, deformed_point_ladder,
                     momentum_sector_decompose,
                     nested_free_family, nested_graded_family, nested_q_family,
                     q_commutator, warp, warp_spectral)
from .zops import (KernelTensor, OrbitKernel, QuadraticForm, _gather, _orbit_merge,
                   annihilator_form, annihilate, compress_kernel, create, creator_form,
                   cross_norms, dense_kernel, form_residual, identity_form, kernel_adjoint,
                   monomial_norms, orbit_dimension, orbit_weights, peak_abs, peak_weights,
                   point_ladder, qform_norms, s_symmetry_residual, symmetric_isometry, symmetrize,
                   weighted_norms, zmzn_form)

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


def _keys_residual(A: QuadraticForm, B: QuadraticForm, window: dict) -> tuple[float, float]:
    """(max deviation, max magnitude) of the dense blocks with the keys of ``window``.

    Read from the compressed blocks through ``peak_abs``; ``window`` maps
    each key to its ``peak_weights``.
    """
    err = 0.0
    mag = 0.0
    for key, w in window.items():
        if key not in A.orbit_blocks and key not in B.orbit_blocks:
            continue
        a, b = A.orbit_block(*key), B.orbit_block(*key)
        err = max(err, peak_abs(a - b, w))
        mag = max(mag, peak_abs(a, w), peak_abs(b, w))
    return err, mag


def _instances(seed: int, name: str, count: int):
    """The random generators of instances 0, ..., count - 1 of check ``name``.

    Instance i draws from Philox keyed by (seed, suite, name, i), so every
    check, and every instance of it, reproduces on its own.
    """
    suite = _SUITE_OF[name]
    for i in range(count):
        yield keyed_rng(seed, suite, name, i)


def _sym_both(model: ScatteringModel, grid: RapidityGrid, values: np.ndarray,
              m: int, n: int) -> np.ndarray:
    """Symmetrize the outgoing and incoming slot groups separately."""
    out = values
    if m > 1:
        out = symmetrize(model, grid, out, range(1, m + 1))
    if n > 1:
        out = symmetrize(model, grid, out, range(m + 1, m + n + 1))
    return out


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


def check_composition_law(model: ScatteringModel, grid: RapidityGrid) -> float:
    """Cocycle law of the exchange factors over every permutation pair, up to S4."""
    res = 0.0
    for n in range(2, 5):
        perms = all_permutations(n)
        index = {sigma: i for i, sigma in enumerate(perms)}
        grids = np.stack([s_sigma_grid(model, grid.points, sigma) for sigma in perms])
        for sigma in perms:
            # every rho at once: axis 0 runs over rho, the slot axes follow
            lhs = grids[[index[sigma.compose(rho)] for rho in perms]]
            lhs -= grids[index[sigma]] * permute_tensor(grids, sigma)
            res = max(res, _maxabs(lhs))
    return res


def check_delta_exchange(model: ScatteringModel, grid: RapidityGrid) -> float:
    """Symmetrizing the lattice pairing over one slot group or the other.

    The twisted average over the first n <= 3 slots must agree with the
    average over the last n slots taken with the inverse model.
    """
    N = grid.size
    inv = model.inverse_model()
    res = 0.0
    for n in range(1, 4):
        pairing = np.eye(N**n, dtype=complex).reshape((N,) * (2 * n))
        lhs = symmetrize(model, grid, pairing, range(1, n + 1))
        rhs = symmetrize(inv, grid, pairing, range(n + 1, 2 * n + 1))
        res = max(res, _maxabs(lhs - rhs))
    return res


def check_projector_identity(model: ScatteringModel, grid: RapidityGrid,
                             seed: int, count: int = 4) -> float:
    """The S-symmetrization is idempotent on random tensors."""
    res = 0.0
    for rng in _instances(seed, "projector_identity", count):
        for n in (2, 3):
            f = rng.normal(size=(grid.size,) * n) + 1j * rng.normal(size=(grid.size,) * n)
            once = symmetrize(model, grid, f)
            twice = symmetrize(model, grid, once)
            res = max(res, _rel(_maxabs(twice - once), _maxabs(once)))
    return res


def check_twisted_representation(model: ScatteringModel, grid: RapidityGrid,
                                 seed: int) -> float:
    """Composing twisted slot actions on 3 slots matches acting with the composition."""
    rng = next(_instances(seed, "twisted_representation", 1))
    f = rng.normal(size=(grid.size,) * 3) + 1j * rng.normal(size=(grid.size,) * 3)
    scale = _maxabs(f)
    res = 0.0
    for sigma in all_permutations(3):
        for rho in all_permutations(3):
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
    for rng in _instances(seed, "translation_group", count):
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
    for rng in _instances(seed, "boost_roundtrip", count):
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
    for rng in _instances(seed, "reflection_antiunitary", count):
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
    for rng in _instances(seed, "weight_involution", count):
        psi = random_state(model, grid, truncation, rng)
        nrm = psi.norm()
        back = apply_omega_weight(apply_omega_weight(psi, omega, +1), omega, -1)
        res = max(res, _rel((back - psi).norm(), nrm))
        up = apply_omega_weight(psi, omega, +1)
        for n in range(truncation + 1):
            w = energy_weights(grid, omega, n, 1).reshape((grid.size,) * n)
            res = max(res, _rel(_maxabs(up.sector(n) - w * psi.sector(n)), nrm))
    return res


def check_sector_stability(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, omega: Indicatrix, seed: int,
                           count: int, boosts: bool = True) -> float:
    """Symmetry of the sectors survives translations, weights, reflection, boosts."""
    res = 0.0
    for rng in _instances(seed, "sector_stability", count):
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


def check_orbit_basis(model: ScatteringModel, grid: RapidityGrid, truncation: int) -> float:
    """The tuple-to-orbit map of V against the identities it rests on, for n <= min(K, 3).

    The map is expanded to a dense V per sector, the gather of the identity.
    Each sector must satisfy act_d(sigma) V = V for every permutation sigma,
    V^H V = I and conj(V)[rev] = V diag(W) (``OrbitBasis.W``), and every
    merge map with l <= 3 (``zops._orbit_merge``), expanded to its dense
    split, must equal V_l^H (V_m kron V_{l-m}).  The entries are at most 1
    in modulus, so the residual is the largest absolute deviation.
    """
    N = grid.size
    V = [_gather(model, grid, n, np.eye(orbit_dimension(model, N, n), dtype=complex))
         for n in range(min(truncation, 3) + 1)]
    res = 0.0
    for n, Vn in enumerate(V):
        cols = Vn.reshape((N,) * n + (-1,))
        for sigma in all_permutations(n):
            for a in range(Vn.shape[1]):
                moved = act_d(model, sigma, cols[..., a], grid.points)
                res = max(res, _maxabs(moved - cols[..., a]))
        res = max(res, _maxabs(Vn.conj().T @ Vn - np.eye(Vn.shape[1])))
        rev = basis_tuples(N, n)[:, ::-1] @ (N ** np.arange(n - 1, -1, -1))
        res = max(res, _maxabs(Vn.conj()[rev] - Vn * symmetric_isometry(model, grid, n).W))
    for l, Vl in enumerate(V):
        for m in range(l + 1):
            want = (Vl.conj().T @ np.kron(V[m], V[l - m])).reshape(
                Vl.shape[1], V[m].shape[1], V[l - m].shape[1]).transpose(1, 0, 2)
            merge, value = _orbit_merge(model, grid, l, m)
            b, c = np.nonzero(merge >= 0)
            want[b, merge[b, c], c] -= value[b, c]
            res = max(res, _maxabs(want))
    return res


def _exchange_words(cre: QuadraticForm, ann: QuadraticForm, K: int):
    """The three exchange relations at each first point i, batched over the second point j.

    ``cre`` and ``ann`` are point ladders, with the lattice point as batch
    axis.  Yields (i, X, Y, YX, window, eye) with X Y = cre_i cre_j,
    ann_i ann_j and ann_j cre_i in turn, each stacked over j.  ``window``
    maps the blocks where both X Y and Y X stay in the truncated space to
    their ``peak_weights``, and the relation adds the identity at j = i to
    the blocks ``eye``: the window for the mixed relation, whose Y X skips
    the (K - 1, K) annihilator block, as it reaches only the (K, K) block.
    """
    model, grid = cre.model, cre.grid

    def window(keys):
        return {key: peak_weights(model, grid, key) for key in keys}

    cc = window([(k + 2, k) for k in range(K - 1)])
    aa = window([(k, k + 2) for k in range(K - 1)])
    mm = window([(k, k) for k in range(K)])
    inner = ann._like({key: C for key, C in ann.orbit_blocks.items() if key != (K - 1, K)})
    for i in range(grid.size):
        cre_i, ann_i = cre.batch(i), ann.batch(i)
        yield i, cre_i, cre, cre @ cre_i, cc, ()
        yield i, ann_i, ann, ann @ ann_i, aa, ()
        yield i, ann, cre_i, cre_i @ inner, mm, mm


def _add_identity(A: QuadraticForm, i: int, keys) -> QuadraticForm:
    """Add the identity to slice i of blocks ``keys`` of A, stacked over the points, in place."""
    N = A.grid.size
    for key in keys:
        d = orbit_dimension(A.model, N, key[0])
        if key not in A.orbit_blocks:
            A.orbit_blocks[key] = np.zeros((N, d, d), dtype=complex)
        A.orbit_blocks[key][i] += np.eye(d)
    return A


def check_exchange_relations(model: ScatteringModel, grid: RapidityGrid,
                             truncation: int) -> float:
    """Exchange algebra of the ladder operators, blockwise on admissible sectors.

    Each word X Y equals S[i, j] Y X, plus the identity for the mixed
    relation at i = j.
    """
    S = pair_values(model, grid.points)
    cre, ann = point_ladder(model, grid, truncation)
    err, mag = 0.0, 0.0
    for i, X, Y, YX, window, eye in _exchange_words(cre, ann, truncation):
        e, m = _keys_residual(X @ Y, _add_identity(YX * S[i][:, None, None], i, eye), window)
        err, mag = max(err, e), max(mag, m)
    return _rel(err, mag)


def check_ladder_adjoint(model: ScatteringModel, grid: RapidityGrid,
                         truncation: int, seed: int, count: int) -> float:
    """Creation against a bra equals annihilation with the conjugate vector."""
    res = 0.0
    for rng in _instances(seed, "ladder_adjoint", count):
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
    return itertools.cycle(usable)


def check_monomial_ladder_product(model: ScatteringModel, grid: RapidityGrid,
                                  truncation: int, seed: int, count: int) -> float:
    """Monomials with factorized kernels match the ordered ladder product."""
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for (m, n), rng in zip(degrees, _instances(seed, "monomial_ladder_product", count)):
        gs = [rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
              for _ in range(m)]
        hs = [rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
              for _ in range(n)]
        values = np.ones((), dtype=complex)
        for v in gs + hs:
            values = np.multiply.outer(values, v)
        direct = zmzn_form(model, compress_kernel(model, grid, KernelTensor(m, n, values)),
                           grid, truncation)
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
    for (m, n), rng in zip(degrees, _instances(seed, "monomial_adjoint", count)):
        f = random_kernel(grid, m, n, rng)
        lhs = zmzn_form(model, compress_kernel(model, grid, f), grid, truncation).adjoint()
        rhs = zmzn_form(model, compress_kernel(model, grid, kernel_adjoint(f)), grid,
                        truncation)
        res = max(res, _form_rel(lhs, rhs))
    return res


def check_monomial_symmetrized_kernel(model: ScatteringModel, grid: RapidityGrid,
                                      truncation: int, seed: int,
                                      count: int) -> float:
    """A monomial only sees the doubly symmetrized part of its kernel."""
    degrees = _degree_cycle([(2, 1), (1, 2), (2, 2)], truncation)
    res = 0.0
    for (m, n), rng in zip(degrees, _instances(seed, "monomial_symmetrized_kernel", count)):
        f = random_kernel(grid, m, n, rng)
        lhs = zmzn_form(model, compress_kernel(model, grid, f), grid, truncation)
        sym = KernelTensor(m, n, _sym_both(model, grid, f.values, m, n))
        rhs = zmzn_form(model, compress_kernel(model, grid, sym), grid, truncation)
        res = max(res, _form_rel(lhs, rhs))
    return res


def check_creator_weight_bound(model: ScatteringModel, grid: RapidityGrid,
                               truncation: int, omega: Indicatrix, seed: int,
                               count: int) -> float:
    """Weighted norms of single ladder operators against the damped source sectors.

    The smearing functions of all instances are stacked into one creator
    and one annihilator form, whose slices are the forms of each instance.
    """
    K = truncation
    # sector 1 has one orbit per lattice point, so wplus[1] weighs the points
    wplus = [orbit_weights(model, grid, omega, n, 1) for n in range(K + 1)]
    winv = [1.0 / w for w in wplus]
    fs = np.array([rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
                   for rng in _instances(seed, "creator_weight_bound", count)])
    A = creator_form(model, grid, K, fs)
    B = annihilator_form(model, grid, K, fs)
    blocks = [(A.orbit_block(j + 1, j), wplus[j + 1], winv[j]) for j in range(K)]
    blocks += [(B.orbit_block(j, j + 1), wplus[j], winv[j + 1]) for j in range(K)]
    # one norm per block and instance, the instance running fastest
    norms = weighted_norms(blocks)
    res = 0.0
    for i, f in enumerate(fs):
        fnorm = float(np.linalg.norm(wplus[1] * f))
        up = norms[i:K * count:count]
        down = norms[K * count + i::count]
        for k in range(K):
            lhs = max(up[: k + 1])
            res = max(res, _excess(lhs, math.sqrt(k + 1) * fnorm))
        for k in range(1, K + 1):
            lhs = max(down[:k])
            res = max(res, _excess(lhs, math.sqrt(k) * fnorm))
    return res


def _monomial_draws(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                    rngs) -> tuple[list[KernelTensor], list[tuple[list[int], QuadraticForm]]]:
    """Kernel of each instance, the degrees cycling (1,1), (2,1), (1,2), (2,2), and the monomials.

    The compressed kernels of one degree are stacked into one batched
    monomial; each monomial comes with its instances idx, batch index j
    being instance idx[j].
    """
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], truncation)
    kernels = [random_kernel(grid, m, n, rng) for (m, n), rng in zip(degrees, rngs)]
    of_degree: dict[tuple[int, int], list[int]] = {}
    for i, f in enumerate(kernels):
        of_degree.setdefault((f.m, f.n), []).append(i)
    monomials = []
    for (m, n), idx in of_degree.items():
        stack = np.stack([compress_kernel(model, grid, kernels[i]).values for i in idx])
        monomials.append((idx, zmzn_form(model, OrbitKernel(m, n, stack), grid, truncation)))
    return kernels, monomials


def check_monomial_source_bound(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, omega: Indicatrix, seed: int,
                                count: int) -> float:
    """Monomial acting on damped sources, against the weighted kernel norm."""
    K = truncation
    kernels, monomials = _monomial_draws(model, grid, K,
                                         _instances(seed, "monomial_source_bound", count))
    fws = cross_norms(kernels, grid, omega)
    wminus = [orbit_weights(model, grid, omega, j, -1) for j in range(K + 1)]
    # every block (j - n + m, j) of a monomial, one norm per instance of its degree
    blocks, keys = [], []
    for idx, F in monomials:
        for (_, j), C in F.orbit_blocks.items():
            blocks.append((C, None, wminus[j]))
            keys += [(i, j) for i in idx]
    sig: list[dict[int, float]] = [{} for _ in kernels]
    for (i, j), norm in zip(keys, weighted_norms(blocks)):
        sig[i][j] = norm
    res = 0.0
    for f, fw, s in zip(kernels, fws, sig):
        m, n = f.m, f.n
        for k in s:
            lhs = max(s[j] for j in range(n, k + 1))
            c = 2.0 * math.sqrt(math.factorial(k) * math.factorial(k - n + m)) \
                / math.factorial(k - n)
            res = max(res, _excess(lhs, c * fw))
    return res


def check_monomial_sector_bound(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, omega: Indicatrix, seed: int,
                                count: int) -> float:
    """Sector-restricted form norm of a monomial against the kernel norm."""
    K = truncation
    kernels, monomials = _monomial_draws(model, grid, K,
                                         _instances(seed, "monomial_sector_bound", count))
    fws = cross_norms(kernels, grid, omega)
    form_norms: list[list[float]] = [[] for _ in kernels]
    for (idx, _), norms in zip(monomials, monomial_norms(model, [F for _, F in monomials],
                                                         omega)):
        for i, row in zip(idx, norms.tolist()):
            form_norms[i] = row
    res = 0.0
    for f, fw, norms in zip(kernels, fws, form_norms):
        top = max(f.m, f.n)
        for k in range(top, K + 1):
            c = 2.0 * math.factorial(k) / math.factorial(k - top)
            res = max(res, _excess(norms[k], c * fw))
    return res


def check_bounded_factor_rule(grid: RapidityGrid, omega: Indicatrix, seed: int,
                              count: int) -> float:
    """Multiplying a kernel by bounded slot functions scales its norm at most."""
    degrees = itertools.cycle([(1, 1), (2, 1), (1, 2), (2, 2)])
    N = grid.size
    kernels, bounds = [], []
    for (m, n), rng in zip(degrees, _instances(seed, "bounded_factor_rule", count)):
        f = random_kernel(grid, m, n, rng)
        fl = rng.normal(size=(N,) * m) + 1j * rng.normal(size=(N,) * m)
        fr = rng.normal(size=(N,) * n) + 1j * rng.normal(size=(N,) * n)
        g = fl.reshape(fl.shape + (1,) * n) * f.values * fr.reshape((1,) * m + fr.shape)
        kernels += [KernelTensor(m, n, g), f]
        bounds.append((_maxabs(fl), _maxabs(fr)))
    norms = cross_norms(kernels, grid, omega)
    res = 0.0
    for lhs, fw, (left, right) in zip(norms[::2], norms[1::2], bounds):
        res = max(res, _excess(lhs, left * fw * right))
    return res


def check_independent_product_rule(grid: RapidityGrid, omega: Indicatrix,
                                   seed: int, count: int) -> float:
    """Outer products in fresh slots multiply the norms submultiplicatively."""
    shapes = itertools.cycle([(1, 1, 1, 1), (2, 1, 1, 0), (1, 2, 0, 1), (2, 0, 0, 2)])
    kernels, seconds = [], []
    for (m, n, m2, n2), rng in zip(shapes, _instances(seed, "independent_product_rule", count)):
        f = random_kernel(grid, m, n, rng)
        f2 = random_kernel(grid, m2, n2, rng)
        raw = np.multiply.outer(f.values, f2.values)
        order = (tuple(range(m)) + tuple(range(m + n, m + n + m2))
                 + tuple(range(m, m + n)) + tuple(range(m + n + m2, m + n + m2 + n2)))
        kernels += [KernelTensor(m + m2, n + n2, raw.transpose(order)), f]
        seconds.append(f2)
    norms = cross_norms(kernels, grid, omega)
    plain = cross_norms(seconds, grid, Indicatrix.zero())
    res = 0.0
    for lhs, fw, f2w in zip(norms[::2], norms[1::2], plain):
        res = max(res, _excess(lhs, fw * f2w))
    return res


def check_kernel_norm_comparison(grid: RapidityGrid, omega: Indicatrix,
                                 seed: int, count: int) -> float:
    """The weighted cross norm is dominated by the weighted lattice 2-norms."""
    degrees = itertools.cycle([(1, 1), (2, 1), (1, 2), (2, 2)])
    kernels = [random_kernel(grid, m, n, rng) for (m, n), rng
               in zip(degrees, _instances(seed, "kernel_norm_comparison", count))]
    weights = {j: energy_weights(grid, omega, j, -1)
               for j in {f.m for f in kernels} | {f.n for f in kernels}}
    res = 0.0
    for f, lhs in zip(kernels, cross_norms(kernels, grid, omega)):
        F = f.matrix()
        rhs = 0.5 * (float(np.linalg.norm(weights[f.m][:, None] * F))
                     + float(np.linalg.norm(F * weights[f.n][None, :])))
        res = max(res, _excess(lhs, rhs))
    return res


# ---------------------------------------------------------------------------
# contraction checks


def check_enumeration_count() -> float:
    """Contraction enumeration against a direct combinatorial construction, m, n <= 3."""
    bad = 0.0
    for m in range(4):
        for n in range(4):
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


def _term(model: ScatteringModel, grid: RapidityGrid, C: Contraction,
          reflected: bool = False) -> np.ndarray:
    """delta_C S_C (times R_C when ``reflected``) on every lattice tuple.

    Built as the package builds every contraction term, by
    ``add_on_support`` of a reduced tensor of ones into zeros.  Under the
    free model every factor is 1, so this is the support delta_C.
    """
    N = grid.size
    out = np.zeros((N,) * (C.m + C.n), dtype=complex)
    ones = np.ones((N,) * (C.m + C.n - 2 * C.size), dtype=complex)
    add_on_support(out, model, grid.points, C, ones, reflected=reflected)
    return out


def _contractions(mmax: int):
    """Every contraction of m outgoing and n incoming slots, m, n <= mmax, in (m, n) order.

    The empty contraction of no slots comes first; its term is 1 on both
    sides of every contraction identity.
    """
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            yield from enumerate_contractions(m, n)


def check_pair_exchange(model: ScatteringModel, grid: RapidityGrid,
                        mmax: int = 3) -> float:
    """On supported tuples the contraction factor splits into slot-group factors."""
    N = grid.size
    free = ScatteringModel.free()
    res = 0.0
    for C in _contractions(mmax):
        sigma, rho = sigma_rho(C)
        st = s_sigma_grid(model, grid.points, sigma).reshape((N,) * C.m + (1,) * C.n)
        sr = s_sigma_grid(model, grid.points, rho).reshape((1,) * C.m + (N,) * C.n)
        rhs = _term(free, grid, C) * st * sr
        res = max(res, _maxabs(_term(model, grid, C) - rhs))
    return res


def check_composition_identity(model: ScatteringModel, grid: RapidityGrid,
                               mmax: int = 3) -> float:
    """Stacking a contraction of the leftovers composes the deltas and factors."""
    N = grid.size
    res = 0.0
    for C in _contractions(mmax):
        for C2 in enumerate_contractions(C.m - C.size, C.n - C.size):
            lhs = np.zeros((N,) * (C.m + C.n), dtype=complex)
            add_on_support(lhs, model, grid.points, C, _term(model, grid, C2))
            rhs = _term(model, grid, compose(C, C2))
            res = max(res, _maxabs(lhs - rhs))
    return res


def check_reflection_alternation(model: ScatteringModel, grid: RapidityGrid,
                                 mmax: int = 3) -> float:
    """The reflected contraction reproduces the factor with swapped slot groups."""
    res = 0.0
    for C in _contractions(mmax):
        T = _term(model, grid, C, reflected=True)
        TJ = _term(model, grid, reflect_contraction(C), reflected=True)
        swapped = np.moveaxis(T, tuple(range(C.m)), tuple(range(C.n, C.n + C.m)))
        res = max(res, _maxabs(TJ - ((-1.0) ** C.size) * swapped))
    return res


def check_binomial_cancellation() -> float:
    """Signed decompositions of a contraction cancel unless it is empty, m, n <= 3."""
    sums = {}
    for C in _contractions(3):
        for C2 in enumerate_contractions(C.m - C.size, C.n - C.size):
            D = compose(C, C2)
            sums[D] = sums.get(D, 0.0) + (-1.0) ** C2.size
    return max(abs(value - (1.0 if D.size == 0 else 0.0)) for D, value in sums.items())


# ---------------------------------------------------------------------------
# expansion checks


def _contraction_sum(model: ScatteringModel, points, m: int, n: int,
                     term, sign: int, reflected: bool = False) -> np.ndarray:
    """The paper's dense sum over contractions C of (m, n) of sign**|C| delta_C S_C (R_C) term(|C|).

    ``term(c)`` is the dense tensor on the (m - c, n - c) free slots; the
    reflection factor R_C enters when ``reflected`` is set.  Nested by
    contraction depth (``expansion`` module docstring): each level adds the
    a b single-pair ``add_on_support`` insertions of the level below into
    a fresh buffer, scales it by sign / c and adds its own term.  This is
    the formula the orbit-pair Horner of ``expansion`` is checked against,
    at capped degree only, as its tensors have N**(m+n) entries.
    """
    # a copy, so that a sum without contractions never aliases term(0)
    total = np.array(term(min(m, n)), dtype=complex)
    for c in range(min(m, n), 0, -1):
        a, b = m - c + 1, n - c + 1
        # the term first: its temporaries then never coexist with the buffer
        own = term(c - 1)
        lower = np.zeros((len(points),) * (a + b), dtype=complex)
        # the a * b single-pair contractions follow the empty one
        for C in enumerate_contractions(a, b)[1:1 + a * b]:
            add_on_support(lower, model, points, C, total, reflected=reflected)
        lower *= sign / c
        lower += own
        total = lower
    return total


def _capped_pairs(truncation: int) -> list[tuple[int, int]]:
    """The (m, n), m, n <= truncation, of degree m + n <= 4, where dense coefficients are built."""
    K = truncation
    return [(m, n) for m in range(K + 1) for n in range(K + 1) if m + n <= 4]


def _dense_coefficients(model: ScatteringModel, A: QuadraticForm) -> dict:
    """The coefficients of A at capped degree by the paper's dense contraction sums.

    The dense element tensors are the views of :func:`creator_elements`.
    """
    keys = _capped_pairs(A.truncation)
    elements = {(l, k): dense_kernel(model, A.grid,
                                     OrbitKernel(l, k, creator_elements(A, l, k))).values
                for l, k in keys}
    return {(m, n): _contraction_sum(model, A.grid.points, m, n,
                                     lambda c: elements[(m - c, n - c)], -1)
            for m, n in keys}


def check_coefficient_symmetry(model: ScatteringModel, grid: RapidityGrid,
                               truncation: int, seed: int, count: int) -> float:
    """Coefficients of degree m + n <= 4 are invariant under twisted transpositions.

    Read off the paper's dense contraction sums: on orbit pairs the
    symmetry holds by construction.
    """
    K = truncation
    pairs = [(m, n) for m, n in _capped_pairs(K) if max(m, n) >= 2]
    res = 0.0
    for rng in _instances(seed, "coefficient_symmetry", count):
        A = random_form(model, grid, K, rng)
        dense = _dense_coefficients(model, A)
        for m, n in pairs:
            f = dense[(m, n)]
            scale = _maxabs(f)
            for start, size in ((1, m), (m + 1, n)):
                for a in range(1, size + 1):
                    for b in range(a + 1, size + 1):
                        tau = Permutation.transposition(m + n, start + a - 1,
                                                        start + b - 1)
                        moved = act_d(model, tau, f, grid.points)
                        res = max(res, _rel(_maxabs(moved - f), scale))
    return res


def check_contraction_formula(model: ScatteringModel, grid: RapidityGrid,
                              truncation: int, seed: int, count: int) -> float:
    """Orbit-pair coefficients and reflected coefficients equal the dense sums, m + n <= 4.

    The reflected sum runs over the dense views of the orbit family, so
    each Horner is compared on its own.  Relative to the largest entry of
    each dense family.
    """
    res = 0.0
    for rng in _instances(seed, "contraction_formula", count):
        A = random_form(model, grid, truncation, rng)
        want = _dense_coefficients(model, A)
        family = CoefficientFamily(model, grid, truncation)
        for m, n in want:
            family.set_entry(fmn_coefficients(model, A, m, n))
        got = {key: dense_kernel(model, grid, kernel).values
               for key, kernel in family.entries.items()}
        # the reduced coefficients of the reflection: (n, m) with its slot groups exchanged
        exchanged = {(m, n): got[(n, m)].transpose(tuple(range(n, n + m)) + tuple(range(n)))
                     for m, n in want}
        reflected = {(m, n): _contraction_sum(model, grid.points, m, n,
                                              lambda c: exchanged[(m - c, n - c)], -1,
                                              reflected=True)
                     for m, n in want}
        got_reflected = {key: dense_kernel(model, grid, reflected_coeffs(model, family, *key))
                         .values for key in want}
        for dense, orbit in ((want, got), (reflected, got_reflected)):
            err = max(_maxabs(orbit[key] - dense[key]) for key in dense)
            res = max(res, _rel(err, max(_maxabs(f) for f in dense.values())))
    return res


def _orbit_residual(model: ScatteringModel, grid: RapidityGrid, got: OrbitKernel,
                    want: np.ndarray) -> tuple[float, float]:
    """(max |dense got - dense want|, max |dense want|), read from the orbit matrices."""
    w = peak_weights(model, grid, (got.m, got.n))
    return peak_abs(got.values - want, w), peak_abs(want, w)


def check_dual_basis(model: ScatteringModel, grid: RapidityGrid,
                     truncation: int, seed: int, count: int) -> float:
    """Coefficients of a single monomial: factorials at its own degree, else zero."""
    K = truncation
    degrees = _degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0)], K)
    res = 0.0
    for (mp, np_), rng in zip(degrees, _instances(seed, "dual_basis", count)):
        g = compress_kernel(model, grid, random_kernel(grid, mp, np_, rng))
        A = zmzn_form(model, g, grid, K)
        expected = math.factorial(mp) * math.factorial(np_) * g.values
        scale = peak_abs(expected, peak_weights(model, grid, (mp, np_)))
        for key, got in extract_family(model, A).entries.items():
            want = expected if key == (mp, np_) else 0.0
            res = max(res, _rel(peak_abs(got.values - want, peak_weights(model, grid, key)),
                                scale))
    return res


def check_inversion(model: ScatteringModel, grid: RapidityGrid,
                    truncation: int, seed: int, count: int) -> float:
    """Contraction resummation of the coefficients recovers the raw elements."""
    K = truncation
    res = 0.0
    for rng in _instances(seed, "inversion", count):
        A = random_form(model, grid, K, rng)
        fam = extract_family(model, A)
        err = 0.0
        mag = _TINY
        for m in range(K + 1):
            for n in range(K + 1):
                lhs = creator_elements(A, m, n)
                mag = max(mag, peak_abs(lhs, peak_weights(model, grid, (m, n))))
                err = max(err, inversion_residual(model, lhs, m, n, fam))
        res = max(res, err / mag)
    return res


def check_roundtrip(model: ScatteringModel, grid: RapidityGrid,
                    truncation: int, seed: int, count: int) -> float:
    """Extract then reconstruct is the identity on the truncated space."""
    res = 0.0
    for rng in _instances(seed, "roundtrip", count):
        A = random_form(model, grid, truncation, rng)
        B = reconstruct(model, extract_family(model, A))
        res = max(res, _form_rel(A, B))
    return res


def check_projection_invariance(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, seed: int, count: int) -> float:
    """Extraction undoes a weighted monomial sum of degree <= 3, giving symmetrized kernels."""
    K = truncation
    total = min(K, 3)
    res = 0.0
    for rng in _instances(seed, "projection_invariance", count):
        kernels = {}
        A = QuadraticForm(model, grid, K)
        for m in range(total + 1):
            for n in range(total + 1 - m):
                f = compress_kernel(model, grid, random_kernel(grid, m, n, rng))
                kernels[(m, n)] = f
                w = 1.0 / (math.factorial(m) * math.factorial(n))
                A = A + w * zmzn_form(model, f, grid, K)
        for (m, n), f in kernels.items():
            err, mag = _orbit_residual(model, grid, fmn_coefficients(model, A, m, n), f.values)
            res = max(res, _rel(err, mag))
    return res


def _coefficient_deviation(model: ScatteringModel, B: QuadraticForm, want,
                           K: int) -> float:
    """Largest deviation of B's coefficients from the orbit kernels want(m, n), m, n <= K.

    Relative to the largest wanted entry; both read through ``peak_weights``.
    """
    err = 0.0
    mag = _TINY
    family = extract_family(model, B)
    for m in range(K + 1):
        for n in range(K + 1):
            e, w = _orbit_residual(model, B.grid, family.entry(m, n), want(m, n).values)
            err, mag = max(err, e), max(mag, w)
    return err / mag


def check_translation_covariance(model: ScatteringModel, grid: RapidityGrid,
                                 truncation: int, seed: int, count: int) -> float:
    """Coefficients of the translated operator carry momentum-transfer phases."""
    K = truncation
    res = 0.0
    for rng in _instances(seed, "translation_covariance", count):
        A = random_form(model, grid, K, rng)
        x = rng.normal(size=2)
        moved = transform_coeffs_poincare(extract_family(model, A), x, 0.0)
        B = translate_form(A, x)
        res = max(res, _coefficient_deviation(model, B, moved.entry, K))
    return res


def check_boost_covariance(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """Coefficients of the boosted operator are the same arrays on the shifted lattice."""
    if model.family == TABLE:
        raise SkipCheck("tabulated scattering values are pinned to one lattice")
    K = truncation
    res = 0.0
    for rng in _instances(seed, "boost_covariance", count):
        A = random_form(model, grid, K, rng)
        lam = float(rng.normal())
        moved = transform_coeffs_poincare(extract_family(model, A), (0.0, 0.0), lam)
        B = boost_form(A, lam)
        res = max(res, _coefficient_deviation(model, B, moved.entry, K))
    return res


def check_reflection_covariance(model: ScatteringModel, grid: RapidityGrid,
                                truncation: int, seed: int, count: int) -> float:
    """Coefficients of the reflected adjoint from the original family."""
    K = truncation
    res = 0.0
    for rng in _instances(seed, "reflection_covariance", count):
        A = random_form(model, grid, K, rng)
        fam = extract_family(model, A)
        R = reflect_conjugate(A)
        res = max(res, _coefficient_deviation(
            model, R, lambda m, n: reflected_coeffs(model, fam, m, n), K))
    return res


def check_reflected_adjoint(model: ScatteringModel, grid: RapidityGrid,
                            truncation: int, seed: int, count: int) -> float:
    """Defining matrix elements of the reflected adjoint on random states."""
    res = 0.0
    for rng in _instances(seed, "reflected_adjoint", count):
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
    """Weighted norm of each coefficient against the sector-weighted form norm.

    The cross norm of a coefficient is taken on its weighted orbit matrix:
    the energy weights are constant on orbits and V has orthonormal
    columns, so diag(w) V_m F V_n^T has the norm of diag(w[reps]) F.  The
    creator elements of all instances are stacked per block, and each
    (m, n) coefficient of every instance comes from one ladder Horner.
    """
    K = truncation
    # the (m, n) with m + n <= K
    keys = [(m, n) for m in range(K + 1) for n in range(K + 1 - m)]
    constants = [coefficient_bound_constant(m, n) for m, n in keys]
    weights = [orbit_weights(model, grid, omega, j, -1) for j in range(K + 1)]
    forms = [random_form(model, grid, K, rng)
             for rng in _instances(seed, "coefficient_bound", count)]
    elements = {key: np.stack([creator_elements(A, *key) for A in forms]) for key in keys}
    blocks = []
    for m, n in keys:
        F = _ladder_sum(model, grid, m, n, lambda c: elements[(m - c, n - c)], -1)
        blocks += [(F, weights[m], None), (F, None, weights[n])]
    # per key, the left norms of all instances, then the right ones
    sides = weighted_norms(blocks)
    res = 0.0
    for i, norms in enumerate(qform_norms(model, forms, omega)):
        for q, ((m, n), c) in enumerate(zip(keys, constants)):
            lhs = 0.5 * (sides[2 * q * count + i] + sides[(2 * q + 1) * count + i])
            res = max(res, _excess(lhs, c * norms[m + n]))
    return res


def check_vector_energy_bound(model: ScatteringModel, grid: RapidityGrid,
                              truncation: int, omega: Indicatrix, seed: int,
                              count: int) -> float:
    """Multi-creator vectors raise weighted norms by at most the factorial."""
    res = 0.0
    for rng in _instances(seed, "vector_energy_bound", count):
        for j in range(truncation + 1):
            v = rng.normal(size=grid.size**j) + 1j * rng.normal(size=grid.size**j)
            w = energy_weights(grid, omega, j, 1)
            # the creator vectors applied to v: sqrt(j!) P_j v
            Lv = math.sqrt(math.factorial(j)) \
                * symmetrize(model, grid, v.reshape((grid.size,) * j)).ravel()
            lhs = float(np.linalg.norm(w * Lv))
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
    for rng in _instances(seed, "warp_compose", count):
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        Q1 = SkewSymmetricQ(float(rng.normal()), grid.mass)
        Q2 = SkewSymmetricQ(float(rng.normal()), grid.mass)
        res = max(res, _form_rel(warp(warp(A, Q1), Q2), warp(A, Q1 + Q2)))
        res = max(res, _form_rel(warp(warp(A, Q1), -Q1), A))
        res = max(res, _form_rel(warp(A, zero), A))
    return res


def _translation_form(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                      x) -> QuadraticForm:
    """Diagonal form implementing translation by x on every symmetric sector.

    The phase is constant on orbits, so it is diagonal on orbits too.
    """
    reps = [symmetric_isometry(model, grid, k).reps for k in range(truncation + 1)]
    blocks = {(k, k): np.diag(translation_phases(grid, k, x)[r]) for k, r in enumerate(reps)}
    return QuadraticForm(model, grid, truncation, blocks)


def check_warp_translation(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """Warping commutes with translation, and translation forms are warp fixed points."""
    kmax = min(2, truncation)
    res = 0.0
    for rng in _instances(seed, "warp_translation", count):
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        Q = SkewSymmetricQ(float(rng.normal()), grid.mass)
        x = rng.normal(size=2)
        res = max(res, _form_rel(translate_form(warp(A, Q), x),
                                 warp(translate_form(A, x), Q)))
        U = _translation_form(model, grid, truncation, x)
        res = max(res, _form_rel(warp(U, Q), U))
    return res


def check_warp_star_linear(model: ScatteringModel, grid: RapidityGrid,
                           truncation: int, seed: int, count: int) -> float:
    """The warp is linear and commutes with the adjoint."""
    kmax = min(2, truncation)
    res = 0.0
    for rng in _instances(seed, "warp_star_linear", count):
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
    for rng in _instances(seed, "ordering_agreement", count):
        A = random_form(model, grid, truncation, rng)
        W = warp(A, Q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GroupingWarning)
            res = max(res, _form_rel(W, warp_spectral(A, Q, "right")))
            res = max(res, _form_rel(W, warp_spectral(A, Q, "left")))
    return res


# entries of the |transfer difference| array held at once by _min_transfer_gap
_GAP_ENTRIES = 1 << 14


def _min_transfer_gap(t: np.ndarray) -> float:
    """Smallest max-coordinate distance between two different rows of t, shape (M, 2).

    Taken over row chunks of the (M, M) distance matrix, each row against
    all M, so no (M, M, 2) array is formed.
    """
    rows = max(1, _GAP_ENTRIES // len(t))
    low = np.inf
    for start in range(0, len(t), rows):
        chunk = t[start:start + rows, None, :]
        gap = np.maximum(np.abs(chunk[..., 0] - t[:, 0]), np.abs(chunk[..., 1] - t[:, 1]))
        gap[np.arange(len(gap)), np.arange(start, start + len(gap))] = np.inf
        low = min(low, float(gap.min()))
    return low


def check_homogeneous_sum(model: ScatteringModel, grid: RapidityGrid,
                          truncation: int, seed: int, count: int) -> float:
    """Momentum-transfer pieces sum back and carry pure translation phases.

    Distinct pieces must also carry transfers farther apart than the
    grouping tolerance; a transfer split across pieces fails with inf.
    """
    kmax = min(2, truncation)
    res = 0.0
    for rng in _instances(seed, "homogeneous_sum", count):
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        comps = _sectors(A)
        if len(comps) > 1:
            t = np.array([comp.transfer for comp in comps])
            if _min_transfer_gap(t) <= GROUPING_RTOL * max(1.0, float(np.abs(t).max())):
                return float("inf")
        total = sum((comp.form for comp in comps), QuadraticForm(model, grid, truncation))
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
    for rng in _instances(seed, "vector_phase", count):
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        comps = _sectors(A)
        step = max(1, len(comps) // 4)
        for comp in comps[::step][:4]:
            piece = comp.form
            W = warp(piece, Q)
            f0, f1 = comp.transfer
            err = 0.0
            mag = _TINY
            for (l, k), C in piece.orbit_blocks.items():
                p0, p1 = _orbit_momentum(model, grid, k)
                col = np.exp(1j * Q.pairing_arrays(f0, f1, p0, p1))
                want = C * col[None, :]
                w = peak_weights(model, grid, (l, k))
                err = max(err, peak_abs(W.orbit_block(l, k) - want, w))
                mag = max(mag, peak_abs(want, w))
            res = max(res, err / mag)
    return res


def check_product_phase(model: ScatteringModel, grid: RapidityGrid,
                        truncation: int, seed: int, count: int) -> float:
    """Products of warped fixed-transfer pieces pick up one pairing phase."""
    Q = _model_deformation(model, grid)
    kmax = min(2, truncation)
    res = 0.0
    for rng in _instances(seed, "product_phase", count):
        A = random_form(model, grid, truncation, rng, kmax=kmax)
        B = random_form(model, grid, truncation, rng, kmax=kmax)
        right = [(cj.transfer, cj.form) for cj in _sectors(B)[:3]]
        for ci in _sectors(A)[:3]:
            fi = ci.form
            wi = warp(fi, Q)
            for tj, fj in right:
                lhs = wi @ warp(fj, Q)
                phase = np.exp(1j * Q.pairing(ci.transfer, tj))
                rhs = phase * warp(fi @ fj, Q)
                mag = max(fi.scale() * fj.scale(), _TINY)
                res = max(res, form_residual(lhs, rhs) / mag)
    return res


def check_scattering_identification(grid: RapidityGrid, seed: int) -> float:
    """The pairing phase of two mass-shell momenta is the induced exchange factor.

    Checked on 100 random strengths and rapidity pairs.
    """
    res = 0.0
    for rng in _instances(seed, "scattering_identification", 100):
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
    res = 0.0
    for rng in _instances(seed, "deformed_exchange", count):
        a = float(rng.uniform(0.3, 2.0))
        Q = SkewSymmetricQ(a, grid.mass)
        S = pair_values(Q.scattering_model(), grid.points)
        cre, ann = deformed_point_ladder(grid, K, Q)
        err, mag, q_err, q_mag = 0.0, 0.0, 0.0, _TINY
        for i, X, Y, YX, window, eye in _exchange_words(cre, ann, K):
            XY = X @ Y
            delta = _add_identity(QuadraticForm(cre.model, grid, K), i, eye)
            e, m = _keys_residual(XY, YX * S[i][:, None, None] + delta, window)
            err, mag = max(err, e), max(mag, m)
            e, _ = _keys_residual(q_commutator(X, Y, Q), delta, window)
            _, m = _keys_residual(XY, delta, window)
            q_err, q_mag = max(q_err, e), max(q_mag, m)
        res = max(res, _rel(err, mag), q_err / q_mag)
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
    cre, ann = point_ladder(ScatteringModel.free(), grid, K)
    res = 0.0
    for rng in _instances(seed, "qcomm_algebra", count):
        Q = SkewSymmetricQ(float(rng.uniform(0.3, 2.0)), grid.mass)
        idx = [int(v) for v in rng.integers(N, size=6)]
        ops = []
        phis = []
        for t in range(3):
            gi, gj = idx[2 * t], idx[2 * t + 1]
            ops.append(cre.batch(gi) @ ann.batch(gj))
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


def _family_residual(model: ScatteringModel, grid: RapidityGrid, fam: dict,
                     direct: dict) -> float:
    """Largest deviation of a dense nested family from orbit coefficients, relative to their scale.

    The nested families are dense tensors at total degree <= 2; the orbit
    coefficients of ``model`` are compared through their dense views.
    """
    want = {mn: dense_kernel(model, grid, kernel).values for mn, kernel in direct.items()}
    scale = max((_maxabs(d) for d in want.values()), default=0.0)
    err = max((_maxabs(fam[mn].values - want[mn]) for mn in fam), default=0.0)
    return _rel(err, scale)


def _nested_residual(instances, draw: ScatteringModel, nested, model: ScatteringModel,
                     direct, grid: RapidityGrid, truncation: int, total: int | None) -> float:
    """Nested-bracket families against the directly extracted coefficients.

    Each generator of ``instances`` draws a form under ``draw``; its family
    ``nested(A, total)`` is compared with the coefficients
    ``direct(A, m, n)`` under ``model`` for each of its (m, n).
    """
    total = min(truncation, 2) if total is None else total
    res = 0.0
    for rng in instances:
        A = random_form(draw, grid, truncation, rng)
        fam = nested(A, total)
        res = max(res, _family_residual(model, grid, fam,
                                        {mn: direct(A, *mn) for mn in fam}))
    return res


def check_nested_free(grid: RapidityGrid, truncation: int, seed: int,
                      count: int, total: int | None = None) -> float:
    """Nested plain commutators recover the coefficients of the trivial factor."""
    free = ScatteringModel.free()
    return _nested_residual(_instances(seed, "nested_free", count), free,
                            nested_free_family, free,
                            lambda A, m, n: fmn_coefficients(free, A, m, n),
                            grid, truncation, total)


def check_nested_graded(grid: RapidityGrid, truncation: int, seed: int,
                        count: int, total: int | None = None) -> float:
    """Nested graded commutators recover the coefficients of the sign factor."""
    ising = ScatteringModel.ising()
    return _nested_residual(_instances(seed, "nested_graded", count), ising,
                            nested_graded_family, ising,
                            lambda A, m, n: fmn_coefficients(ising, A, m, n),
                            grid, truncation, total)


def check_nested_deformed(grid: RapidityGrid, truncation: int, seed: int,
                          count: int, a: float = 1.0,
                          total: int | None = None) -> float:
    """Nested deformed commutators recover the deformed-creator coefficients.

    The forms are drawn under the free model: on Q-model-symmetric ones a
    twist by conj(phi_Q) reads the same as one by phi_Q.
    """
    Q = SkewSymmetricQ(a, grid.mass)
    return _nested_residual(_instances(seed, "nested_deformed", count),
                            ScatteringModel.free(),
                            lambda A, total: nested_q_family(A, Q, total),
                            Q.scattering_model(),
                            lambda A, m, n: deformed_fmn_coefficients(A, Q, m, n),
                            grid, truncation, total)


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
        ("orbit_basis", _EXACT, {}),
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
        ("contraction_formula", _EXACT, {"count": _few()}),
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

# check name -> suite, the suite being part of the key of the check's instances
_SUITE_OF = {name: suite for suite, rows in SUITE_CHECKS.items() for name, _, _ in rows}

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


def run_suites(cfg: RunConfig,
               progress: Callable[[CheckRecord], None] | None = None) -> Report:
    """Run the selected suites serially, gating everything on the model check.

    A scattering model that cannot be built, or that fails ``model_axioms``,
    invalidates every later identity, so the remaining checks are recorded
    as skipped rather than run against a broken factor.  Tolerance
    overrides naming no check raise ConfigError before anything runs.
    ``progress``, when given, is called with each record as it is made.
    """
    unknown = sorted(set(cfg.tolerances) - _SUITE_OF.keys())
    if unknown:
        raise ConfigError([f"tolerances name unknown checks {unknown!r}"])

    report = Report()

    def record(*fields) -> None:
        report.records.append(CheckRecord(*fields))
        if progress is not None:
            progress(report.records[-1])

    t0 = time.perf_counter()
    try:
        model = cfg.build_model()
    except Exception as exc:
        model = None
        record(*_GATE, "fail", float("inf"), cfg.tolerance("model_axioms", _EXACT),
               time.perf_counter() - t0, _exc_note(exc))
    gate_failed = model is None

    for suite in (s for s in SUITES if s in cfg.suites):
        for name, default_tol, overrides in SUITE_CHECKS[suite]:
            tol = cfg.tolerance(name, default_tol)
            if gate_failed:
                # the gate row was recorded when the model failed to build
                if (suite, name) != _GATE:
                    record(suite, name, "skipped", None, tol, 0.0, "fail-fast")
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
                # free what the failed check left in the lattice-keyed caches; a
                # wrapped binding, such as a profiler's, is unwrapped to its cache
                for fn in (energy_grid, sector_momentum, _pair_values_cached, _phase_block,
                           symmetric_isometry, _orbit_merge):
                    inspect.unwrap(fn, stop=lambda f: hasattr(f, "cache_clear")).cache_clear()
            except Exception as exc:
                residual, status, note = float("inf"), "fail", _exc_note(exc)
            record(suite, name, status, residual, tol, time.perf_counter() - t0, note)
            if (suite, name) == _GATE and status == "fail":
                gate_failed = True
    return report
