"""Expansion of sector-blocked operators into normal-ordered monomials.

The coefficient of the (m, n) monomial is an alternating sum over
contractions of matrix elements between partially contracted multi-creator
vectors, decorated with lattice deltas and exchange factors.  The series
reconstructs the operator exactly on the truncated space, and the
coefficients transform covariantly under translations, boosts, and the
antiunitary reflection.

Forms and coefficients stay on their orbit pairs.  The multi-creator
elements of a block (:func:`creator_elements`) and the reflection
(:func:`reflect_conjugate`) reverse tuples through the phase W of
``zops.OrbitBasis.W``.  A coefficient is S-symmetric in each slot
group, so it is stored as its orbit matrix F with f = V_m F V_n^T
(``zops.OrbitKernel``).

The contraction sums run as one Horner form over the one-point ladder
(:func:`_ladder_sum`).  Let K add every single-pair insertion: K g is the
sum of the terms ``delta * S (* R) * g`` over the m' n' one-pair
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

Every level g is S-symmetric in both slot groups, so the a b insertions
of K sum to a b times the symmetrization of both groups of one of them,
the adjacent pair x_a = x_{a+1}, which has no exchange factor; its
reflection factor is 1 - d_out d_in, with the sweep products
d_out = prod_i S(x - t_i) over the other outgoing slots t and
d_in = prod_j S(u_j - x) over the other incoming slots u, both constant on
orbits.  With g = V_{a-1} Y V_{b-1}^T this is one step over the lattice
points x:

    K g = a b V_a (sum_x L_a[x] Y_x R_b[x]^T) V_b^T,

with R_b[x] = V_b^H (e_x kron V_{b-1}) and L_a[x] = V_a^H (V_{a-1} kron e_x)
the merge maps ``zops._orbit_merge`` at (b, 1) and at (a, a - 1), and
Y_x = Y, or Y - diag(d_out[x]) Y diag(d_in[x]) with the reflection
factor, the sweep products read at the orbit representatives: one
``zops._merge_sum`` (:func:`_insertions`).  No N**(m+n) tensor is formed
and no contraction is enumerated.  ``suites`` keeps the dense sum over
contractions, at capped degree, as the formula this is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fock import RapidityGrid, basis_tuples, translation_phases
from .scattering import ScatteringModel, pair_values
from .zops import (OrbitKernel, QuadraticForm, _merge_sum, _orbit_merge, _require_model,
                   orbit_dimension, peak_abs, peak_weights, symmetric_isometry, zmzn_form)


def creator_elements(A: QuadraticForm, m: int, n: int) -> np.ndarray:
    """Matrix elements of the (m, n) block of A between the multi-creator vectors, on orbits.

    The dense element of the tuples (t, u) pairs the m-fold creator vector
    of t, creators applied in slot order, with the n-fold one of u, applied
    in descending slot order.  A j-fold creator vector is sqrt(j!) times the
    symmetrizer column of its tuple, so the dense elements are sqrt(m! n!)
    V_m C V_n^H with the column tuples reversed, which is V_m X V_n^T for
    the X = sqrt(m! n!) C diag(W_n) returned here, through
    V_n[rev] = conj(V_n) diag(conj W_n) (:class:`~zfock.zops.OrbitBasis`).
    """
    c = math.sqrt(math.factorial(m) * math.factorial(n))
    return c * (A.orbit_block(m, n) * symmetric_isometry(A.model, A.grid, n).W)


def _sweep_products(model: ScatteringModel, grid: RapidityGrid, p: int,
                    q: int) -> tuple[np.ndarray, np.ndarray]:
    """prod_i S(x - t_i) and prod_j S(u_j - x) over the representatives t of sector p and u of q.

    Shapes (N, orbits_p) and (N, orbits_q); both products are symmetric in
    the tuple, so they are constant on orbits.
    """
    mat = pair_values(model, grid.points)
    out = []
    for j, side in ((p, mat), (q, mat.T)):
        reps = basis_tuples(grid.size, j)[symmetric_isometry(model, grid, j).reps]
        prod = np.ones((grid.size, len(reps)), dtype=complex)
        for i in range(j):
            prod = prod * side[:, reps[:, i]]
        out.append(prod)
    return out[0], out[1]


def _insertions(model: ScatteringModel, grid: RapidityGrid, a: int, b: int,
                X: np.ndarray, reflected: bool) -> np.ndarray:
    """The single-pair insertions K of an orbit matrix X of (a - 1, b - 1) slots, on (a, b).

    a b sum_x L_a[x] Y_x R_b[x]^T, with Y_x = X, or
    X - diag(d_out[x]) X diag(d_in[x]) with the reflection factor
    (module docstring), the reflection factor 1 - d_out d_in weighing each
    entry of X.  X may carry leading batch axes; every batch index equals
    its unbatched insertions to the bit.
    """
    weight = None
    if reflected:
        dout, din = _sweep_products(model, grid, a - 1, b - 1)
        weight = 1 - dout.T[:, None, :] * din.T[None, :, :]
    right = tuple(v.T for v in _orbit_merge(model, grid, b, 1))
    shape = (orbit_dimension(model, grid.size, a), orbit_dimension(model, grid.size, b))
    return (a * b) * _merge_sum(X, _orbit_merge(model, grid, a, a - 1), right, shape, weight)


def _ladder_sum(model: ScatteringModel, grid: RapidityGrid, m: int, n: int,
                term: Callable[[int], np.ndarray], sign: int,
                reflected: bool = False) -> np.ndarray:
    """Sum over contractions C of (m, n) of sign**|C| delta_C S_C (R_C) term(|C|), on orbits.

    ``term(c)`` is the orbit matrix on the (m - c, n - c) free slots, or a
    stack of them with leading batch axes; the reflection factor R_C enters
    when ``reflected`` is set.  The Horner form of the module docstring,
    from the deepest level out: each level adds sign / c times the
    insertions (:func:`_insertions`) of the level below to its own term.
    A stack of terms gives the stack of their sums, each equal to its
    unbatched sum to the bit.
    """
    # a copy, so that a sum without contractions never aliases term(0)
    total = np.array(term(min(m, n)), dtype=complex)
    for c in range(min(m, n), 0, -1):
        insertions = _insertions(model, grid, m - c + 1, n - c + 1, total, reflected)
        total = term(c - 1) + (sign / c) * insertions
    return total


def fmn_coefficients(model: ScatteringModel, A: QuadraticForm, m: int, n: int) -> OrbitKernel:
    """Expansion coefficient with m outgoing and n incoming slots, on orbit pairs.

    Alternating sum over contractions: each term carries the lattice delta
    and exchange factor of the contraction and the matrix element of A
    between the reduced multi-creator vectors of ``model``
    (:func:`creator_elements`), which must be the model A is stored under.
    Only the blocks (l, k) of A with l <= m and k <= n enter.  The sum is
    the Horner form over the point ladder (:func:`_ladder_sum`, sign -1).
    """
    _require_model(model, A)
    return OrbitKernel(m, n, _ladder_sum(model, A.grid, m, n,
                                         lambda c: creator_elements(A, m - c, n - c), -1))


@dataclass
class CoefficientFamily:
    """Expansion coefficients under ``model``, indexed by (outgoing, incoming) slot counts.

    Each entry is stored on orbit pairs (``zops.OrbitKernel``).
    """

    model: ScatteringModel
    grid: RapidityGrid
    truncation: int
    entries: dict[tuple[int, int], OrbitKernel] = field(default_factory=dict)

    def entry(self, m: int, n: int) -> OrbitKernel:
        """The (m, n) coefficient, zeros on its orbit pairs when it is not stored."""
        got = self.entries.get((m, n))
        if got is not None:
            return got
        N = self.grid.size
        return OrbitKernel(m, n, np.zeros((orbit_dimension(self.model, N, m),
                                           orbit_dimension(self.model, N, n)), dtype=complex))

    def set_entry(self, kernel: OrbitKernel) -> None:
        self.entries[(kernel.m, kernel.n)] = kernel


def extract_family(model: ScatteringModel, A: QuadraticForm) -> CoefficientFamily:
    """All coefficients with slot counts up to the truncation.

    Each (m, n) reads the elements of every (m - c, n - c); each block's
    elements are built once.
    """
    _require_model(model, A)
    K = A.truncation
    elements = {(l, k): creator_elements(A, l, k) for l in range(K + 1) for k in range(K + 1)}
    family = CoefficientFamily(model, A.grid, K)
    for m, n in elements:
        family.set_entry(OrbitKernel(m, n, _ladder_sum(
            model, A.grid, m, n, lambda c: elements[(m - c, n - c)], -1)))
    return family


def _require_family_model(model: ScatteringModel, family: CoefficientFamily) -> None:
    if family.model != model:
        raise ValueError(f"coefficients were extracted under {family.model}, not {model}")


def reconstruct(model: ScatteringModel, family: CoefficientFamily) -> QuadraticForm:
    """Sum of normal-ordered monomials weighted by 1/(m! n!)."""
    _require_family_model(model, family)
    K = family.truncation
    total = QuadraticForm(model, family.grid, K)
    for (m, n), kernel in sorted(family.entries.items()):
        term = zmzn_form(model, kernel, family.grid, K)
        total = total + (1.0 / (math.factorial(m) * math.factorial(n))) * term
    return total


def inversion_residual(model: ScatteringModel, elements: np.ndarray, m: int, n: int,
                       family: CoefficientFamily) -> float:
    """Defect of the inversion identity on the (m, n) matrix elements.

    The uncontracted multi-creator matrix elements ``elements`` of a form's
    (m, n) block, on orbit pairs (:func:`creator_elements`), must equal the
    sum over contractions of delta and exchange factors times the reduced
    coefficients, read from ``family``, which must hold every
    (m - c, n - c).  The sum is the Horner form over the point ladder
    (:func:`_ladder_sum`, sign +1); the defect is the largest entry of its
    dense view, read through ``zops.peak_abs``.
    """
    _require_family_model(model, family)
    rhs = _ladder_sum(model, family.grid, m, n,
                      lambda c: family.entries[(m - c, n - c)].values, 1)
    return peak_abs(elements - rhs, peak_weights(model, family.grid, (m, n)))


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
        row = translation_phases(A.grid, l, x)[symmetric_isometry(A.model, A.grid, l).reps]
        col = translation_phases(A.grid, k, -x)[symmetric_isometry(A.model, A.grid, k).reps]
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
    (:class:`~zfock.zops.OrbitBasis`) that is diag(W_j) C_kj^T diag(conj W_k).
    """
    W = [symmetric_isometry(A.model, A.grid, j).W for j in range(A.truncation + 1)]
    return A._like({(j, k): W[j][:, None] * C.T * W[k].conj()[None, :]
                    for (k, j), C in A.orbit_blocks.items()})


def transform_coeffs_poincare(family: CoefficientFamily, x: Sequence[float],
                              lam: float) -> CoefficientFamily:
    """Coefficient family of the Poincare-transformed operator.

    Boost part: same arrays over the lattice shifted by -lam.  Translation
    part: momentum-transfer phases evaluated on the new lattice; the phase
    of a tuple is constant on its orbit, so it is read at the orbit
    representatives.
    """
    x = np.asarray(x, dtype=float)
    new_grid = family.grid.shifted(lam)
    out = CoefficientFamily(family.model, new_grid, family.truncation)
    model = family.model
    for (m, n), kernel in family.entries.items():
        row = translation_phases(new_grid, m, x)[symmetric_isometry(model, new_grid, m).reps]
        col = translation_phases(new_grid, n, -x)[symmetric_isometry(model, new_grid, n).reps]
        out.set_entry(OrbitKernel(m, n, row[:, None] * kernel.values * col[None, :]))
    return out


def reflected_coeffs(model: ScatteringModel, family: CoefficientFamily,
                     m: int, n: int) -> OrbitKernel:
    """Coefficient of the reflected adjoint from the original family.

    Alternating sum over contractions with the extra reflection factor;
    the reduced coefficients enter with slot groups exchanged, which on
    orbit pairs is the plain transpose F_{n-c, m-c}^T, since
    (V_j G V_k^T)^T = V_k G^T V_j^T.  The sum is the Horner form over the
    point ladder (:func:`_ladder_sum`, sign -1, with the reflection factor,
    which composes like the exchange factor).
    """
    return OrbitKernel(m, n, _ladder_sum(model, family.grid, m, n,
                                         lambda c: family.entry(n - c, m - c).values.T,
                                         -1, reflected=True))
