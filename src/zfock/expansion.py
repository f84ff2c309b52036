"""Expansion of sector-blocked operators into normal-ordered monomials.

The coefficient of the (m, n) monomial is an alternating sum over
contractions of matrix elements between partially contracted multi-creator
vectors, decorated with lattice deltas and exchange factors.  The series
reconstructs the operator exactly on the truncated space, and the
coefficients transform covariantly under translations, boosts, and the
antiunitary reflection.

Forms stay on their orbit pairs: the multi-creator elements
(:func:`creator_elements`) and the reflection (:func:`reflect_conjugate`)
reverse tuples through the phase W of ``zops.reversal_phases``.

The contraction sums are nested by contraction depth
(:func:`_contraction_sum`).  Let K add every single-pair insertion: K g is
the sum of the terms ``delta * S (* R) * g`` over the m' n' one-pair
contractions of the current (m', n') slots, g living on the slots each
pair leaves free.  By the composition identity
(:func:`~zfock.contractions.compose`, checked by
``suites.check_composition_identity``), inserting a pair into the term of
a contraction of the free slots gives the term of the composed
contraction, delta and exchange factor included.  The reflection factor
composes the same way: on the support of a pair (l, r), x_l = x_r, and
the sweep of any other left slot a meets it as
S(x_a - x_l) S(x_r - x_a) = 1.  A c-pair contraction arises from exactly
c! orders of its pairs, so K^c g = c! sum_{|C|=c} delta_C S_C g, and the
sum over all contractions with weights s^|C| is the Horner form
term(0) + s K(term(1) + (s/2) K(term(2) + (s/3) K(...))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .contractions import add_on_support, enumerate_contractions
from .fock import RapidityGrid, translation_phases
from .scattering import ScatteringModel
from .zops import (KernelTensor, QuadraticForm, _require_model, reversal_phases,
                   symmetric_isometry, zmzn_form)


def creator_elements(A: QuadraticForm, m: int, n: int) -> np.ndarray:
    """Matrix elements of the (m, n) block of A between the multi-creator vectors.

    Entry (t, u), one slot axis per slot, pairs the m-fold creator vector
    of tuple t, creators applied in slot order, with the n-fold one of u,
    applied in descending slot order.  A j-fold creator vector is sqrt(j!)
    times the symmetrizer column of its tuple, so this is sqrt(m! n!) times
    V_m C V_n^H with its column tuples reversed: V_m (C diag(W)) V_n^T, with
    V_n[rev] = conj(V_n) diag(conj W) (:func:`~zfock.zops.reversal_phases`).
    """
    N = A.grid.size
    c = math.sqrt(math.factorial(m) * math.factorial(n))
    Vm = symmetric_isometry(A.model, A.grid, m)[0]
    Vn = symmetric_isometry(A.model, A.grid, n)[0]
    W = reversal_phases(A.model, A.grid, n)
    return (c * ((Vm @ (A.orbit_block(m, n) * W)) @ Vn.T)).reshape((N,) * (m + n))


def _contraction_sum(model: ScatteringModel, points: Sequence[float], m: int, n: int,
                     term: Callable[[int], np.ndarray], sign: int,
                     reflected: bool = False) -> np.ndarray:
    """Sum over contractions C of (m, n) of sign**|C| delta_C S_C (R_C) term(|C|).

    ``term(c)`` is the tensor on the (m - c, n - c) free slots, built when
    its level is reached; the reflection factor R_C enters when ``reflected``
    is set.  Nested from the deepest level out (see the module docstring):
    each level adds the single-pair insertions of the level below into a
    fresh buffer, scales it by sign / c and adds its own term, in place.
    (4, 4) takes 16 + 9 + 4 + 1 = 30 insertions for its 209 contractions.
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


def _coefficient(model: ScatteringModel, grid: RapidityGrid, m: int, n: int,
                 elements: Callable[[int, int], np.ndarray]) -> KernelTensor:
    """The (m, n) coefficient from the element tensors ``elements(m - c, n - c)``."""
    return KernelTensor(m, n, _contraction_sum(model, grid.points, m, n,
                                               lambda c: elements(m - c, n - c), -1))


def fmn_coefficients(model: ScatteringModel, A: QuadraticForm, m: int, n: int) -> KernelTensor:
    """Expansion coefficient with m outgoing and n incoming slots.

    Alternating sum over contractions: each term carries the lattice delta
    and exchange factor of the contraction and the matrix element of A
    between the reduced multi-creator vectors of ``model``
    (:func:`creator_elements`), which must be the model A is stored under.
    Only the blocks (l, k) of A with l <= m and k <= n enter.  The sum is
    nested by contraction depth (:func:`_contraction_sum`, sign -1), one
    matrix element tensor per depth.
    """
    _require_model(model, A)
    return _coefficient(model, A.grid, m, n, lambda l, k: creator_elements(A, l, k))


@dataclass
class CoefficientFamily:
    """Expansion coefficients under ``model``, indexed by (outgoing, incoming) slot counts."""

    model: ScatteringModel
    grid: RapidityGrid
    truncation: int
    entries: dict[tuple[int, int], KernelTensor] = field(default_factory=dict)

    def entry(self, m: int, n: int) -> KernelTensor:
        got = self.entries.get((m, n))
        if got is not None:
            return got
        N = self.grid.size
        return KernelTensor(m, n, np.zeros((N,) * (m + n), dtype=complex))

    def set_entry(self, kernel: KernelTensor) -> None:
        self.entries[(kernel.m, kernel.n)] = kernel


def element_tensors(model: ScatteringModel,
                    A: QuadraticForm) -> dict[tuple[int, int], np.ndarray]:
    """:func:`creator_elements` of every block (l, k) of A, l, k <= the truncation.

    A family of coefficients reaches every block, each from several
    (m, n); this builds each block's elements once.
    """
    _require_model(model, A)
    K = A.truncation
    return {(l, k): creator_elements(A, l, k) for l in range(K + 1) for k in range(K + 1)}


def family_from_elements(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                         elements: dict[tuple[int, int], np.ndarray]) -> CoefficientFamily:
    """The coefficient of every key (m, n) of ``elements``, from its element tensors.

    Each (m, n) reads the tensors of (m - c, n - c) for every depth c, so
    ``elements`` holds them all: every block up to the truncation, as
    :func:`element_tensors` returns, or every block with l + k <= s.
    """
    family = CoefficientFamily(model, grid, truncation)
    for m, n in elements:
        family.set_entry(_coefficient(model, grid, m, n, lambda l, k: elements[(l, k)]))
    return family


def extract_family(model: ScatteringModel, A: QuadraticForm) -> CoefficientFamily:
    """All coefficients with slot counts up to the truncation."""
    return family_from_elements(model, A.grid, A.truncation, element_tensors(model, A))


def _require_family_model(model: ScatteringModel, family: CoefficientFamily) -> None:
    if family.model != model:
        raise ValueError(f"coefficients were extracted under {family.model}, not {model}")


def reconstruct(model: ScatteringModel, family: CoefficientFamily) -> QuadraticForm:
    """Sum of normal-ordered monomials weighted by 1/(m! n!)."""
    _require_family_model(model, family)
    K = family.truncation
    total = QuadraticForm(model, family.grid, K)
    for (m, n), kernel in sorted(family.entries.items()):
        if m > K or n > K:
            continue
        term = zmzn_form(model, kernel, family.grid, K)
        total = total + (1.0 / (math.factorial(m) * math.factorial(n))) * term
    return total


def inversion_residual(model: ScatteringModel, elements: np.ndarray, m: int, n: int,
                       family: CoefficientFamily) -> float:
    """Defect of the inversion identity on the (m, n) matrix elements.

    The uncontracted multi-creator matrix elements ``elements`` of a form's
    (m, n) block (:func:`creator_elements`) must equal the sum over
    contractions of delta and exchange factors times the reduced
    coefficients, read from ``family``, which must hold every (m - c, n - c).
    The sum is nested by contraction depth (:func:`_contraction_sum`, sign +1).
    """
    _require_family_model(model, family)
    rhs = _contraction_sum(model, family.grid.points, m, n,
                           lambda c: family.entries[(m - c, n - c)].values, 1)
    return float(np.max(np.abs(elements - rhs)))


# ---------------------------------------------------------------------------
# symmetry transformations


def translate_form(A: QuadraticForm, x: Sequence[float]) -> QuadraticForm:
    """Conjugation by the translation unitary: phases on rows and columns.

    The phase of a tuple depends on its total momentum alone, so it is
    constant on orbits and read at the orbit representatives.
    """
    x = np.asarray(x, dtype=float)
    blocks = {}
    for (l, k), C in A.orbit_blocks.items():
        row = translation_phases(A.grid, l, x)[symmetric_isometry(A.model, A.grid, l)[1]]
        col = translation_phases(A.grid, k, -x)[symmetric_isometry(A.model, A.grid, k)[1]]
        blocks[(l, k)] = row[:, None] * C * col[None, :]
    return A._like(blocks)


def boost_form(A: QuadraticForm, lam: float) -> QuadraticForm:
    """Conjugation by the boost: identical blocks over the shifted lattice.

    The exchange factors depend on rapidity differences only, so the orbit
    bases of the shifted lattice carry the same compressed blocks.
    """
    return QuadraticForm(A.model, A.grid.shifted(lam), A.truncation,
                         {key: C.copy() for key, C in A.orbit_blocks.items()}, A.truncated)


def reflect_conjugate(A: QuadraticForm) -> QuadraticForm:
    """The reflected adjoint J A* J, as a transpose with two reversal phases.

    Its matrix elements satisfy <psi| J A* J |chi> = <J chi| A |J psi>, so
    its block (j, k) is the transpose of block (k, j) of A with the row and
    column tuples reversed.  With conj(V)[rev] = V diag(W)
    (:func:`~zfock.zops.reversal_phases`) that is diag(W_j) C_kj^T diag(conj W_k).
    """
    W = [reversal_phases(A.model, A.grid, j) for j in range(A.truncation + 1)]
    return A._like({(j, k): W[j][:, None] * C.T * W[k].conj()[None, :]
                    for (k, j), C in A.orbit_blocks.items()})


def transform_coeffs_poincare(family: CoefficientFamily, x: Sequence[float],
                              lam: float) -> CoefficientFamily:
    """Coefficient family of the Poincare-transformed operator.

    Boost part: same arrays over the lattice shifted by -lam.  Translation
    part: momentum-transfer phases evaluated on the new lattice.
    """
    x = np.asarray(x, dtype=float)
    new_grid = family.grid.shifted(lam)
    N = new_grid.size
    out = CoefficientFamily(family.model, new_grid, family.truncation)
    for (m, n), kernel in family.entries.items():
        row = translation_phases(new_grid, m, x).reshape((N,) * m + (1,) * n)
        col = translation_phases(new_grid, n, -x).reshape((1,) * m + (N,) * n)
        out.set_entry(KernelTensor(m, n, row * col * kernel.values))
    return out


def reflected_coeffs(model: ScatteringModel, family: CoefficientFamily,
                     m: int, n: int) -> KernelTensor:
    """Coefficient of the reflected adjoint from the original family.

    Alternating sum over contractions with the extra reflection factor;
    the reduced coefficients enter with slot groups exchanged.  The sum is
    nested by contraction depth (:func:`_contraction_sum`, sign -1, with the
    reflection factor, which composes like the exchange factor).
    """

    def reduced(c: int) -> np.ndarray:
        mh, nh = m - c, n - c
        g = family.entry(nh, mh).values
        return g.transpose(tuple(range(nh, nh + mh)) + tuple(range(nh)))

    return KernelTensor(m, n, _contraction_sum(model, family.grid.points, m, n, reduced,
                                               -1, reflected=True))
