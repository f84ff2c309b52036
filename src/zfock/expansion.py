"""Expansion of sector-blocked operators into normal-ordered monomials.

The coefficient of the (m, n) monomial is an alternating sum over
contractions of matrix elements between partially contracted multi-creator
vectors, decorated with lattice deltas and exchange factors.  The series
reconstructs the operator exactly on the truncated space, and the
coefficients transform covariantly under translations, boosts, and the
antiunitary reflection.

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
from .zops import KernelTensor, QuadraticForm, sandwich, zmzn_form


def creator_elements(model: ScatteringModel, grid: RapidityGrid, mat: np.ndarray,
                     m: int, n: int) -> np.ndarray:
    """Matrix elements of an (m, n) block between the multi-creator vectors.

    Row t pairs with the m-fold creator vector of tuple t, creators applied
    in slot order; column u with the n-fold one, applied in descending slot
    order.  A j-fold creator vector is sqrt(j!) times the symmetrizer column
    of its tuple, so this is sqrt(m! n!) (P_m mat P_n)[:, rev], with rev the
    tuple reversal, read by reversing the column slot axes.
    """
    N = grid.size
    c = math.sqrt(math.factorial(m) * math.factorial(n))
    scaled = (c * sandwich(model, grid, mat, m, n)).reshape((N**m,) + (N,) * n)
    return scaled.transpose((0,) + tuple(range(n, 0, -1))).reshape(N**m, N**n)


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


def fmn_coefficients(model: ScatteringModel, A: QuadraticForm, m: int, n: int) -> KernelTensor:
    """Expansion coefficient with m outgoing and n incoming slots.

    Alternating sum over contractions: each term carries the lattice delta
    and exchange factor of the contraction and the matrix element of A
    between the reduced multi-creator vectors of ``model``
    (:func:`creator_elements`).  Only the blocks (l, k) of A with l <= m
    and k <= n enter.  The sum is nested by contraction depth
    (:func:`_contraction_sum`, sign -1), one matrix element tensor per depth.
    """
    grid = A.grid
    N = grid.size

    def elements(c: int) -> np.ndarray:
        M = creator_elements(model, grid, A.block(m - c, n - c), m - c, n - c)
        return M.reshape((N,) * (m + n - 2 * c))

    return KernelTensor(m, n, _contraction_sum(model, grid.points, m, n, elements, -1))


@dataclass
class CoefficientFamily:
    """Expansion coefficients indexed by (outgoing, incoming) slot counts."""

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


def extract_family(model: ScatteringModel, A: QuadraticForm) -> CoefficientFamily:
    """All coefficients with slot counts up to the truncation."""
    family = CoefficientFamily(A.grid, A.truncation)
    for m in range(A.truncation + 1):
        for n in range(A.truncation + 1):
            family.set_entry(fmn_coefficients(model, A, m, n))
    return family


def reconstruct(model: ScatteringModel, family: CoefficientFamily) -> QuadraticForm:
    """Sum of normal-ordered monomials weighted by 1/(m! n!)."""
    K = family.truncation
    total = QuadraticForm(family.grid, K)
    for (m, n), kernel in sorted(family.entries.items()):
        if m > K or n > K:
            continue
        term = zmzn_form(model, kernel, family.grid, K)
        total = total + (1.0 / (math.factorial(m) * math.factorial(n))) * term
    return total


def inversion_residual(model: ScatteringModel, A: QuadraticForm, m: int, n: int,
                       family: CoefficientFamily) -> float:
    """Defect of the inversion identity on the (m, n) matrix elements.

    The uncontracted multi-creator matrix elements of A must equal the sum
    over contractions of delta and exchange factors times the reduced
    coefficients, read from ``family``, which must hold every (m - c, n - c).
    The sum is nested by contraction depth (:func:`_contraction_sum`, sign +1).
    """
    grid = A.grid
    N = grid.size
    lhs = creator_elements(model, grid, A.block(m, n), m, n).reshape((N,) * (m + n))
    rhs = _contraction_sum(model, grid.points, m, n,
                           lambda c: family.entries[(m - c, n - c)].values, 1)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# symmetry transformations


def translate_form(A: QuadraticForm, x: Sequence[float]) -> QuadraticForm:
    """Conjugation by the translation unitary: phases on rows and columns."""
    x = np.asarray(x, dtype=float)
    blocks = {}
    for (l, k), mat in A.blocks.items():
        row = translation_phases(A.grid, l, x)
        col = translation_phases(A.grid, k, -x)
        blocks[(l, k)] = row[:, None] * mat * col[None, :]
    return QuadraticForm(A.grid, A.truncation, blocks, A.truncated)


def boost_form(A: QuadraticForm, lam: float) -> QuadraticForm:
    """Conjugation by the boost: identical blocks over the shifted lattice."""
    return QuadraticForm(A.grid.shifted(lam), A.truncation,
                         {key: mat.copy() for key, mat in A.blocks.items()}, A.truncated)


def reflect_conjugate(A: QuadraticForm) -> QuadraticForm:
    """The reflected adjoint J A* J, realized blockwise.

    Its matrix elements satisfy <psi| J A* J |chi> = <J chi| A |J psi>.
    Reversing the row and column tuples of the transpose reverses every
    slot axis of the (k + j)-slot tensor of the block.
    """
    N = A.grid.size
    blocks = {(j, k): mat.reshape((N,) * (k + j)).T.reshape(N**j, N**k)
              for (k, j), mat in A.blocks.items()}
    return QuadraticForm(A.grid, A.truncation, blocks, A.truncated)


def transform_coeffs_poincare(family: CoefficientFamily, x: Sequence[float],
                              lam: float) -> CoefficientFamily:
    """Coefficient family of the Poincare-transformed operator.

    Boost part: same arrays over the lattice shifted by -lam.  Translation
    part: momentum-transfer phases evaluated on the new lattice.
    """
    x = np.asarray(x, dtype=float)
    new_grid = family.grid.shifted(lam)
    N = new_grid.size
    out = CoefficientFamily(new_grid, family.truncation)
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
