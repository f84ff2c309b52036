"""Expansion of sector-blocked operators into normal-ordered monomials.

The coefficient of the (m, n) monomial is an alternating sum over
contractions of matrix elements between partially contracted multi-creator
vectors, decorated with lattice deltas and exchange factors.  The series
reconstructs the operator exactly on the truncated space, and the
coefficients transform covariantly under translations, boosts, and the
antiunitary reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .contractions import add_on_support, enumerate_contractions
from .fock import RapidityGrid, sector_momentum
from .scattering import ScatteringModel
from .zops import (KernelTensor, QuadraticForm, reversal_permutation, sandwich,
                   zmzn_form)


def creator_elements(model: ScatteringModel, grid: RapidityGrid, mat: np.ndarray,
                     m: int, n: int) -> np.ndarray:
    """Matrix elements of an (m, n) block between the multi-creator vectors.

    Row t pairs with the m-fold creator vector of tuple t, creators applied
    in slot order; column u with the n-fold one, applied in descending slot
    order.  A j-fold creator vector is sqrt(j!) times the symmetrizer column
    of its tuple, so this is sqrt(m! n!) (P_m mat P_n)[:, rev], with rev the
    tuple reversal.
    """
    c = math.sqrt(math.factorial(m) * math.factorial(n))
    return c * sandwich(model, grid, mat, m, n)[:, reversal_permutation(grid.size, n)]


def fmn_coefficients(model: ScatteringModel, A: QuadraticForm, m: int, n: int) -> KernelTensor:
    """Expansion coefficient with m outgoing and n incoming slots.

    Alternating sum over contractions: each term carries the lattice delta
    and exchange factor of the contraction and the matrix element of A
    between the reduced multi-creator vectors of ``model``
    (:func:`creator_elements`).  Only the blocks (l, k) of A with l <= m
    and k <= n enter.
    """
    grid = A.grid
    N = grid.size
    out = np.zeros((N,) * (m + n), dtype=complex)
    elements = {}  # one matrix element tensor per reduced slot count
    for C in enumerate_contractions(m, n):
        mh, nh = m - C.size, n - C.size
        if (mh, nh) not in elements:
            M = creator_elements(model, grid, A.block(mh, nh), mh, nh)
            elements[(mh, nh)] = M.reshape((N,) * (mh + nh))
        add_on_support(out, model, grid.points, C, elements[(mh, nh)], (-1) ** C.size)
    return KernelTensor(m, n, out)


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


def extract_family(model: ScatteringModel, A: QuadraticForm,
                   mmax: int | None = None, nmax: int | None = None) -> CoefficientFamily:
    """All coefficients with slot counts up to the truncation (or given bounds)."""
    mmax = A.truncation if mmax is None else mmax
    nmax = A.truncation if nmax is None else nmax
    family = CoefficientFamily(A.grid, A.truncation)
    for m in range(mmax + 1):
        for n in range(nmax + 1):
            family.set_entry(fmn_coefficients(model, A, m, n))
    return family


def reconstruct(model: ScatteringModel, family: CoefficientFamily,
                truncation: int | None = None) -> QuadraticForm:
    """Sum of normal-ordered monomials weighted by 1/(m! n!)."""
    K = family.truncation if truncation is None else truncation
    total = QuadraticForm(family.grid, K)
    for (m, n), kernel in sorted(family.entries.items()):
        if m > K or n > K:
            continue
        term = zmzn_form(model, kernel, family.grid, K)
        total = total + (1.0 / (math.factorial(m) * math.factorial(n))) * term
    return total


def inversion_residual(model: ScatteringModel, A: QuadraticForm, m: int, n: int,
                       family: CoefficientFamily | None = None) -> float:
    """Defect of the inversion identity on the (m, n) matrix elements.

    The uncontracted multi-creator matrix elements of A must equal the sum
    over contractions of delta and exchange factors times the reduced
    coefficients.
    """
    grid = A.grid
    N = grid.size
    lhs = creator_elements(model, grid, A.block(m, n), m, n).reshape((N,) * (m + n))
    rhs = np.zeros((N,) * (m + n), dtype=complex)
    reduced = {}  # one coefficient per reduced slot count
    for C in enumerate_contractions(m, n):
        key = (m - C.size, n - C.size)
        if key not in reduced:
            known = family is not None and key in family.entries
            reduced[key] = (family.entry(*key) if known
                            else fmn_coefficients(model, A, *key)).values
        add_on_support(rhs, model, grid.points, C, reduced[key])
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# symmetry transformations


def translate_form(A: QuadraticForm, x: Sequence[float]) -> QuadraticForm:
    """Conjugation by the translation unitary: phases on rows and columns."""
    x = np.asarray(x, dtype=float)
    blocks = {}
    for (l, k), mat in A.blocks.items():
        q0, q1 = sector_momentum(A.grid, l)
        p0, p1 = sector_momentum(A.grid, k)
        row = np.exp(1j * (q0 * x[0] - q1 * x[1]))
        col = np.exp(-1j * (p0 * x[0] - p1 * x[1]))
        blocks[(l, k)] = row[:, None] * mat * col[None, :]
    return QuadraticForm(A.grid, A.truncation, blocks, A.truncated)


def boost_form(A: QuadraticForm, lam: float) -> QuadraticForm:
    """Conjugation by the boost: identical blocks over the shifted lattice."""
    return QuadraticForm(A.grid.shifted(lam), A.truncation,
                         {key: mat.copy() for key, mat in A.blocks.items()}, A.truncated)


def reflect_conjugate(A: QuadraticForm) -> QuadraticForm:
    """The reflected adjoint J A* J, realized blockwise.

    Its matrix elements satisfy <psi| J A* J |chi> = <J chi| A |J psi>.
    """
    N = A.grid.size
    blocks = {}
    for (k, j), mat in A.blocks.items():
        revj = reversal_permutation(N, j)
        revk = reversal_permutation(N, k)
        blocks[(j, k)] = mat.T[np.ix_(revj, revk)]
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
        q0, q1 = sector_momentum(new_grid, m)
        p0, p1 = sector_momentum(new_grid, n)
        row = np.exp(1j * (q0 * x[0] - q1 * x[1])).reshape((N,) * m + (1,) * n)
        col = np.exp(-1j * (p0 * x[0] - p1 * x[1])).reshape((1,) * m + (N,) * n)
        out.set_entry(KernelTensor(m, n, row * col * kernel.values))
    return out


def reflected_coeffs(model: ScatteringModel, family: CoefficientFamily,
                     m: int, n: int) -> KernelTensor:
    """Coefficient of the reflected adjoint from the original family.

    Alternating sum over contractions with the extra reflection factor;
    the reduced coefficients enter with slot groups exchanged.
    """
    grid = family.grid
    N = grid.size
    out = np.zeros((N,) * (m + n), dtype=complex)
    for C in enumerate_contractions(m, n):
        mh, nh = C.m - C.size, C.n - C.size
        g = family.entry(nh, mh).values
        reduced = g.transpose(tuple(range(nh, nh + mh)) + tuple(range(nh)))
        add_on_support(out, model, grid.points, C, reduced, (-1) ** C.size,
                       reflected=True)
    return KernelTensor(m, n, out)
