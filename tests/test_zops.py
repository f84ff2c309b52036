"""Ladder operators, normal-ordered monomials, and weighted norms."""

import functools
import importlib
import json
import pkgutil
import typing

import numpy as np
import pytest

import zfock
from zfock import suites
from zfock.config import parse_config
from zfock.fock import (FockState, Indicatrix, RapidityGrid, energy_grid, energy_weights,
                        sector_momentum)
from zfock import zops
from zfock.sampling import keyed_rng, random_form, random_kernel, random_state
from zfock.scattering import ScatteringModel, _pair_values_cached
from zfock.warped import SkewSymmetricQ, _phase_block
from zfock.zops import (KernelTensor, _spectral_norms, annihilate,
                        annihilator_form, compress_kernel, create, creator_form, cross_norms,
                        form_residual, identity_form, kernel_adjoint, orbit_weights,
                        point_ladder, qform_norms, symmetric_isometry, weighted_norms,
                        zmzn_form)

from reference import big_matrix

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
    direct = zmzn_form(model, compress_kernel(model, grid3, kernel), grid3, 3)
    composed = creator_form(model, grid3, 3, g) @ annihilator_form(model, grid3, 3, h)
    assert form_residual(direct, composed) <= 1e-12 * direct.scale()


def test_monomial_adjoint(model, grid3):
    rng = keyed_rng(0, "zops", "monadj", 0)
    kernel = random_kernel(grid3, 2, 1, rng)
    A = zmzn_form(model, compress_kernel(model, grid3, kernel), grid3, 3)
    B = zmzn_form(model, compress_kernel(model, grid3, kernel_adjoint(kernel)), grid3, 3)
    assert form_residual(A.adjoint(), B) <= 1e-12 * A.scale()


def test_monomial_degree_guard(grid3):
    kernel = KernelTensor(2, 1, np.zeros((3, 3, 3), dtype=complex))
    with pytest.raises(ValueError, match="exceeds truncation"):
        zmzn_form(FREE, compress_kernel(FREE, grid3, kernel), grid3, 1)


def test_identity_form_acts_as_identity(model, grid3):
    psi = random_state(model, grid3, 2, keyed_rng(0, "zops", "ident", 0))
    ident = identity_form(model, grid3, 2)
    assert (ident.apply(psi) - psi).norm() <= 1e-13 * psi.norm()


def test_adjoint_involution(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "zops", "adj2", 0))
    assert form_residual(A.adjoint().adjoint(), A) == 0.0


def test_cross_norm_identity_kernel(grid3):
    ident = KernelTensor(1, 1, np.eye(3, dtype=complex))
    assert cross_norms([ident], grid3, Indicatrix.zero()) == [pytest.approx(1.0, rel=1e-14)]


def test_cross_norm_rank_one(grid3):
    rng = np.random.default_rng(3)
    g = _complex(rng, 3)
    h = _complex(rng, 3)
    kernel = KernelTensor(1, 1, np.multiply.outer(g, h))
    want = np.linalg.norm(g) * np.linalg.norm(h)
    assert cross_norms([kernel], grid3, Indicatrix.zero()) == [pytest.approx(want, rel=1e-13)]


def test_cross_norm_weighting_shrinks(grid3):
    rng = np.random.default_rng(4)
    kernel = KernelTensor(1, 2, _complex(rng, (3, 3, 3)))
    [plain] = cross_norms([kernel], grid3, Indicatrix.zero())
    [damped] = cross_norms([kernel], grid3, Indicatrix.sqrt(1.5))
    assert damped < plain


def test_qform_norm_of_identity(model, grid3):
    ident = identity_form(model, grid3, 2)
    assert qform_norms(model, [ident], Indicatrix.zero()) == [
        [pytest.approx(1.0, rel=1e-12)] * 3]


def test_qform_norm_triangle(model, grid3):
    rng = keyed_rng(0, "zops", "tri", 0)
    A = random_form(model, grid3, 2, rng)
    B = random_form(model, grid3, 2, rng)
    omega = Indicatrix.sqrt(0.3)
    for lhs, a, b in zip(*qform_norms(model, [A + B, A, B], omega)):
        assert lhs <= (a + b) * (1 + 1e-12)


def test_product_block_structure(model, grid3):
    rng = keyed_rng(0, "zops", "prod", 0)
    A = random_form(model, grid3, 2, rng)
    B = random_form(model, grid3, 2, rng)
    C = A @ B
    want = sum(A.block(2, j) @ B.block(j, 1) for j in range(3))
    np.testing.assert_allclose(C.block(2, 1), want, atol=1e-12)


def test_big_matrix_layout(model, grid3):
    A = random_form(model, grid3, 2, keyed_rng(0, "zops", "big", 0))
    M = big_matrix(A, 2)
    assert M.shape == (1 + 3 + 9, 1 + 3 + 9)
    np.testing.assert_array_equal(M[1:4, 4:], A.block(1, 2))


def test_qform_norms_give_every_sector_bound_of_each_form(model, grid3):
    # one list per form, of its truncation plus one sector bounds, whatever
    # else the call holds
    rng = keyed_rng(0, "zops", "per_form", 0)
    A, B = random_form(model, grid3, 2, rng), random_form(model, grid3, 3, rng)
    omega = Indicatrix.log(0.8)
    both = qform_norms(model, [A, B, A], omega)
    assert [len(norms) for norms in both] == [3, 4, 3]
    alone = qform_norms(model, [A], omega) + qform_norms(model, [B], omega)
    assert [[x.hex() for x in norms] for norms in both] == \
        [[x.hex() for x in norms] for norms in alone + alone[:1]]
    assert qform_norms(model, [], omega) == []


def test_spectral_norms_equal_numpy_norms_bitwise():
    rng = np.random.default_rng(5)
    shapes = [(3, 3), (1, 4), (4, 1), (3, 3), (0, 3), (2, 5), (1, 4), (3, 0), (0, 0),
              (1, 1), (4, 1), (3, 3), (5, 2)]
    mats = [_complex(rng, shape) for shape in shapes]
    mats.append(rng.normal(size=(3, 3)))  # a real matrix among complex ones of its shape
    got = _spectral_norms(mats)
    want = [float(np.linalg.norm(M, ord=2)) for M in mats]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert got[4] == got[7] == got[8] == 0.0
    assert _spectral_norms([]) == []


def test_spectral_norms_stack_large_groups_in_parts(monkeypatch):
    # with a budget of two 3x3 complex matrices, each group of one shape
    # runs in several batched SVDs, every value still numpy's to the bit
    monkeypatch.setattr(zops, "_SVD_STACK_BYTES", 300)
    rng = np.random.default_rng(6)
    mats = [_complex(rng, shape) for shape in [(3, 3)] * 5 + [(1, 4)] * 4 + [(2, 2)]]
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(len(a)) or svd(a, **kw))
    got = _spectral_norms(mats)
    want = [float(np.linalg.norm(M, ord=2)) for M in mats]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert sorted(calls) == [1, 1, 2, 2, 4]


def test_sector_norms_take_batched_blocks(model, grid3):
    # a stacked sector block with its orbit weights gives one norm per
    # matrix in row-major batch order, each equal to the bit to the norm of
    # its slice alone
    rng = keyed_rng(0, "zops", "batched_norms", 0)
    omega = Indicatrix.log(0.8)
    w1, w2 = orbit_weights(model, grid3, omega, 1, -1), orbit_weights(model, grid3, omega, 2, 1)
    fs = _complex(rng, (2, 3, 3))
    C = creator_form(model, grid3, 2, fs).orbit_block(2, 1)
    got = weighted_norms([(C, w2, w1), (C[1, 0], w2, w1)])
    want = weighted_norms([(C[i, j], w2, w1) for i in range(2) for j in range(3)]
                          + [(C[1, 0], w2, w1)])
    assert len(got) == 7
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # the orbit weights are the tuple weights read at the representatives
    reps = symmetric_isometry(model, grid3, 2).reps
    assert (w2 == energy_weights(grid3, omega, 2, 1)[reps]).all()


def _lattice_caches():
    """Every lru_cache of zfock keyed by a lattice: a RapidityGrid argument,
    or the lattice points of ``scattering._pair_values_cached``."""
    found = {"scattering._pair_values_cached": _pair_values_cached}
    for info in pkgutil.iter_modules(zfock.__path__):
        module = importlib.import_module(f"zfock.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info") and obj.__module__ == module.__name__
                    and RapidityGrid in typing.get_type_hints(obj.__wrapped__).values()):
                found[f"{info.name}.{name}"] = obj
    return found


def test_cached_basis_is_a_map_per_tuple():
    # the cached orbit basis holds one orbit index and one entry per tuple
    # and a few arrays per orbit, not a dense V: at N = 6, n = 4 (1296
    # tuples, 126 orbits) a dense V would hold 126 * 16 bytes per tuple
    grid = RapidityGrid((-1.3, -0.8, -0.3, 0.2, 0.7, 1.3), 1.0)
    basis = symmetric_isometry(ScatteringModel.sinh_exp(0.7), grid, 4)
    assert sum(arr.nbytes for arr in basis) <= 64 * 6**4


def test_lattice_caches_stay_bounded():
    # each lattice is a new key of the lattice-keyed caches: they evict
    # rather than keep every lattice a process has seen, and the loop
    # below fills every one of them
    caches = _lattice_caches()
    assert {"zops.symmetric_isometry", "zops._orbit_merge", "warped._phase_block"} <= set(caches)
    unbounded = [name for name, c in caches.items() if c.cache_info().maxsize is None]
    assert not unbounded, unbounded
    for i in range(2 * max(c.cache_info().maxsize for c in caches.values())):
        grid = RapidityGrid((0.0, 0.5 + 1e-3 * i), 1.0)
        point_ladder(FREE, grid, 1)
        energy_grid(grid, 1)
        sector_momentum(grid, 1)
        _phase_block(FREE, grid, SkewSymmetricQ(0.5, grid.mass), 1, 1)
    for name, c in caches.items():
        info = c.cache_info()
        assert info.currsize == info.maxsize, (name, info)


def test_memory_error_empties_the_lattice_caches(monkeypatch, grid3):
    # a check that runs out of memory may leave its arrays in the
    # lattice-keyed caches; the runner empties every one of them, so the
    # check after it still runs.  The failing check only raises.
    cfg = parse_config(json.dumps({
        "grid": list(grid3.points), "mass": grid3.mass, "truncation": 2,
        "scattering": {"family": "sinh_exp", "a": 0.7}, "omega": {"family": "zero"},
        "seed": 0, "instances": 1, "suites": ["zops"]}))
    failing, following = [name for name, _, _ in suites.SUITE_CHECKS["zops"]][1:3]
    filled, seen = {}, {}

    def sizes():
        return {name: c.cache_info().currsize for name, c in _lattice_caches().items()}

    @functools.wraps(getattr(suites, f"check_{failing}"))
    def out_of_memory(*args, **kwargs):
        filled.update(sizes())
        raise MemoryError

    check = getattr(suites, f"check_{following}")

    @functools.wraps(check)
    def recorded(*args, **kwargs):
        seen.update(sizes())
        return check(*args, **kwargs)

    monkeypatch.setattr(suites, f"check_{failing}", out_of_memory)
    monkeypatch.setattr(suites, f"check_{following}", recorded)
    status = {r.check: (r.status, r.note) for r in suites.run_suites(cfg).records}
    assert status[failing][0] == "fail" and "out of memory" in status[failing][1]
    assert status[following][0] == "pass"
    assert filled["zops.symmetric_isometry"] and filled["zops._orbit_merge"], filled
    assert not any(seen.values()), seen


def test_batched_form_stacks_its_points(grid3):
    # a point ladder is one form per lattice point: its dense views, its
    # adjoint and its products with a form stack those of its points
    model = ScatteringModel.sinh_exp(0.7)
    cre, ann = point_ladder(model, grid3, 3)
    A = random_form(model, grid3, 3, keyed_rng(0, "zops", "batched", 0))
    assert {C.shape[0] for C in cre.orbit_blocks.values()} == {3}
    for x in range(3):
        point = cre.batch(x)
        assert all(C.ndim == 2 for C in point.orbit_blocks.values())
        for key, D in cre.blocks.items():
            np.testing.assert_array_equal(D[x], point.block(*key))
        for got, want in ((cre.adjoint().batch(x), point.adjoint()),
                          ((A @ cre).batch(x), A @ point),
                          ((ann @ A).batch(x), ann.batch(x) @ A),
                          ((cre + A).batch(x), point + A)):
            assert set(got.orbit_blocks) == set(want.orbit_blocks)
            for key, C in want.orbit_blocks.items():
                np.testing.assert_array_equal(got.orbit_blocks[key], C)
    # None inserts a batch axis; an unbatched form has none to index
    assert cre.batch((slice(None), None)).orbit_blocks[(1, 0)].shape == (3, 1, 3, 1)
    with pytest.raises(IndexError):
        A.batch(0)
