"""Property: every operation on orbit-pair storage equals its dense reference.

A form stores C = V_l^H A V_k per block; its dense view V_l C V_k^H over
all tuples is what every operation used to act on.  Each compressed
operation must therefore equal the dense operation of ``reference`` on the
dense views, at rel 1e-12 of the largest entry: the product, the sum,
scalar multiples, the adjoint, ``apply``, ``warp``, ``warp_spectral`` on
either side, ``translate_form``, ``boost_form``, ``reflect_conjugate``,
the graded sign of ``_graded_commutator`` and the split of
``momentum_sector_decompose``.  Reversing the tuples must be the column
phase W of ``OrbitBasis.W``, conj(V)[rev] = V diag(W) with |W| = 1,
which the reflection and the creator-vector elements rest on.  The
full-basis max-abs readout of ``form_residual`` and ``peak_abs`` must
agree with the dense maximum to a few ulp.  Models are free, ising,
sinh_exp and tables of random unitary values with S(0) = +1 and
S(0) = -1, where the tuples with a repeated point are rows of zeros of V;
lattices are random or symmetric, with 2-4 points.  The examples are
derandomized so the run is deterministic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.expansion import boost_form, reflect_conjugate, translate_form
from zfock.fock import basis_tuples, sector_momentum
from zfock.sampling import keyed_rng, random_form, random_state
from zfock.scattering import ScatteringModel
from zfock.warped import (GROUPING_RTOL, GroupingWarning, SkewSymmetricQ,
                          _graded_commutator, momentum_sector_decompose, warp,
                          warp_spectral)
from zfock.zops import form_residual, peak_abs, peak_weights, symmetric_isometry

from reference import (dense_apply, dense_graded, dense_matmul, dense_reflect,
                       dense_transfer_piece, dense_translate, dense_warp,
                       dense_warp_spectral, isometry_matrix, tabulated)
from test_support_property import lattices

K = 3
REL = 1e-12
ULPS = 4 * np.finfo(float).eps

MODELS = {"free": lambda a, grid, rng: ScatteringModel.free(),
          "ising": lambda a, grid, rng: ScatteringModel.ising(),
          "sinh_exp": lambda a, grid, rng: ScatteringModel.sinh_exp(a),
          "table_plus": lambda a, grid, rng: tabulated(grid, rng, 1.0),
          "table_minus": lambda a, grid, rng: tabulated(grid, rng, -1.0)}


def assert_dense_equal(form, want: dict, scale: float | None = None):
    """The dense views of ``form`` against dense blocks, at rel 1e-12."""
    got = form.blocks
    assert set(got) <= set(want) | {key for key, mat in got.items() if not mat.any()}
    scale = max(float(np.max(np.abs(b))) for b in want.values()) if scale is None else scale
    N = form.grid.size
    for key in set(got) | set(want):
        shape = (N**key[0], N**key[1])
        np.testing.assert_allclose(got.get(key, np.zeros(shape)), want.get(key, np.zeros(shape)),
                                   rtol=0, atol=REL * scale, err_msg=str(key))


def draw(family, a, grid, seed, label, kmax=None):
    rng = keyed_rng(seed, "property", "orbit", label)
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "orbit", "table"))
    return model, random_form(model, grid, K, rng, kmax=kmax), rng


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       c=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0))
def test_algebra_equals_dense(family, a, grid, seed, c):
    model, A, rng = draw(family, a, grid, seed, "algebra")
    B = random_form(model, grid, K, rng)
    dA, dB = A.blocks, B.blocks
    assert_dense_equal(A @ B, dense_matmul(dA, dB))
    assert_dense_equal(A + B, {key: dA[key] + dB[key] for key in dA})
    assert_dense_equal(c * A - B, {key: c * dA[key] - dB[key] for key in dA})
    assert_dense_equal(A.adjoint(), {(k, l): mat.conj().T for (l, k), mat in dA.items()})
    YX = B @ A
    assert_dense_equal(_graded_commutator(A, B),
                       {key: mat + dense_graded(YX.blocks)[key]
                        for key, mat in dense_matmul(dA, dB).items()})
    psi = random_state(model, grid, K, rng)
    got, want = A.apply(psi), dense_apply(dA, psi)
    scale = max(float(np.max(np.abs(s))) for s in want.sectors)
    for g, w in zip(got.sectors, want.sectors):
        np.testing.assert_allclose(g, w, rtol=0, atol=REL * scale)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16),
       q=st.floats(-2.0, 2.0), x=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       lam=st.floats(-1.0, 1.0))
def test_phases_and_symmetries_equal_dense(family, a, grid, seed, q, x, lam):
    model, A, _ = draw(family, a, grid, seed, "phases")
    dA = A.blocks
    Q = SkewSymmetricQ(q, grid.mass)
    assert_dense_equal(warp(A, Q), dense_warp(dA, grid, Q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        for side in ("right", "left"):
            assert_dense_equal(warp_spectral(A, Q, side),
                               dense_warp_spectral(dA, grid, K, Q, side))
    assert_dense_equal(translate_form(A, x), dense_translate(dA, grid, x))
    try:
        shifted = grid.shifted(lam)
    except ValueError:  # the shift rounded two nearby points together
        shifted = None
    if shifted is not None:
        boosted = boost_form(A, lam)
        assert boosted.grid == shifted
        assert_dense_equal(boosted, dA)
    assert_dense_equal(reflect_conjugate(A), dense_reflect(dA, grid.size))


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
def test_decomposition_equals_dense_split(family, a, grid, seed):
    # each piece holds exactly the entries of A whose tuple transfer is its own
    model, A, _ = draw(family, a, grid, seed, "split", kmax=2)
    dA = A.blocks
    scale = max(float(np.max(np.abs(mat))) for mat in dA.values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GroupingWarning)
        pieces = momentum_sector_decompose(A)
    moms = [np.abs(np.stack(sector_momentum(grid, s))).max() for s in range(3)]
    atol = 2 * GROUPING_RTOL * max(1.0, 2 * max(moms))
    total = None
    for piece in pieces:
        assert_dense_equal(piece.form, dense_transfer_piece(dA, grid, piece.transfer, atol),
                           scale)
        total = piece.form if total is None else total + piece.form
    assert_dense_equal(total, dA)


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
def test_max_abs_readout_equals_dense_max(family, a, grid, seed):
    model, A, rng = draw(family, a, grid, seed, "readout")
    B = random_form(model, grid, K, rng)
    dA, dB = A.blocks, B.blocks
    want = max(float(np.max(np.abs(dA[key] - dB[key]))) for key in dA)
    assert abs(form_residual(A, B) - want) <= ULPS * want
    for key, C in A.orbit_blocks.items():
        want = float(np.max(np.abs(dA[key])))
        assert abs(peak_abs(C, peak_weights(model, grid, key)) - want) <= ULPS * want
    if model.value(0.0).real < 0 and grid.size >= 2:
        # the tuples with a repeated point are rows of zeros of V
        basis = symmetric_isometry(model, grid, 2)
        assert basis.col[0] == -1 and basis.val[0] == 0


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.1, 1.5), grid=lattices(), seed=st.integers(0, 2**16))
def test_reversal_is_a_column_phase(family, a, grid, seed):
    model = MODELS[family](a, grid, keyed_rng(seed, "property", "orbit", "table"))
    N = grid.size
    for n in range(K + 2):
        V = isometry_matrix(model, grid, n)
        W = symmetric_isometry(model, grid, n).W
        rev = basis_tuples(N, n)[:, ::-1] @ (N ** np.arange(n - 1, -1, -1))
        np.testing.assert_allclose(np.abs(W), 1.0, rtol=0, atol=REL)
        np.testing.assert_allclose(V.conj()[rev], V * W[None, :], rtol=0, atol=REL)
