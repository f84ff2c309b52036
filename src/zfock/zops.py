"""Creation and annihilation operators with S-twisted exchange, and their forms.

Operators are realized either as actions on :class:`FockState` or as
sector-blocked matrices (:class:`QuadraticForm`) over the full lattice
tensor basis.  The S-symmetric subspace has one representation: the
orthonormal orbit basis V of :func:`symmetric_isometry`, built directly
from the permutation orbits, with one column per admissible multiset.
Every symmetrization goes through it: :func:`symmetrize` projects a
tensor, or a contiguous block of its slots, as V V^H; forms built here
are sandwiched as V_l ((V_l^H X) V_k) V_k^H, so they annihilate the
non-symmetric complement and compositions and matrix elements agree with
the symmetric-subspace operators exactly.  No N**n x N**n symmetrizer is
formed.  Weighted norms are taken on the compressed blocks V_l^H A V_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fock import (FockState, Indicatrix, RapidityGrid, basis_tuples,
                   energy_weights)
from .scattering import (ScatteringModel, all_permutations, pair_values,
                         permute_tensor, s_sigma_grid)


@dataclass
class KernelTensor:
    """Kernel with m outgoing and n incoming slots over a common lattice."""

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != self.m + self.n:
            raise ValueError(f"kernel rank {self.values.ndim} != m+n = {self.m + self.n}")
        if len(set(self.values.shape)) > 1:
            raise ValueError(f"slot axes differ in length: {self.values.shape}")

    @property
    def size(self) -> int:
        return self.values.shape[0] if self.values.ndim else 1

    def matrix(self) -> np.ndarray:
        """Reshape to (N**m, N**n) with row-major slot order."""
        N = self.size
        return self.values.reshape(N**self.m, N**self.n)


def kernel_adjoint(kernel: KernelTensor) -> KernelTensor:
    """Swap roles of the slot groups: conjugate, reverse each group, exchange them."""
    m, n = kernel.m, kernel.n
    perm = tuple(reversed(range(m, m + n))) + tuple(reversed(range(m)))
    return KernelTensor(n, m, np.conj(kernel.values).transpose(perm))


@lru_cache(maxsize=None)
def symmetric_isometry(model: ScatteringModel, grid: RapidityGrid,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis V of the S-symmetric n-particle subspace, and its orbits.

    There is one column per admissible multiset, built from its permutation
    orbit: the entry of an orbit tuple t is the sum of s_sigma(t) over the
    permutations sigma that carry t to the sorted representative, which is
    n! times the symmetrizer column of the representative; the column is
    then divided by its norm.  Every multiset is admissible when
    S(0) = +1; when S(0) = -1 the symmetrizer kills repeated entries and
    only strictly increasing tuples remain.  Distinct orbits have disjoint
    supports, so V^H V = I and V V^H is the symmetrizer, and no
    N**n x N**n array is formed.  Returns V, of shape (N**n, orbits), and
    the flat indices of the sorted tuples.
    """
    N = grid.size
    tuples = basis_tuples(N, n)
    steps = np.diff(tuples, axis=1)
    strict = pair_values(model, grid.points)[0, 0].real < 0
    reps = np.flatnonzero(np.all(steps > 0 if strict else steps >= 0, axis=1))
    # flat index of every tuple's sorted representative, and its column
    sorted_flat = np.sort(tuples, axis=1) @ (N ** np.arange(n - 1, -1, -1))
    column = np.full(N**n, -1)
    column[reps] = np.arange(len(reps))
    column = column[sorted_flat]
    entry = np.zeros(N**n, dtype=complex)
    flat = np.arange(N**n).reshape((N,) * n)
    for sigma in all_permutations(n):
        # the flat index of tuple^sigma, read by an axis transpose
        hits = permute_tensor(flat, sigma).ravel() == sorted_flat
        entry[hits] += s_sigma_grid(model, grid.points, sigma).ravel()[hits]
    rows = np.flatnonzero(column >= 0)
    V = np.zeros((N**n, len(reps)), dtype=complex)
    V[rows, column[rows]] = entry[rows]
    V /= np.linalg.norm(V, axis=0)
    V.flags.writeable = False
    reps.flags.writeable = False
    return V, reps


def symmetrize(model: ScatteringModel, grid: RapidityGrid, values: np.ndarray,
               slots: Iterable[int] | None = None) -> np.ndarray:
    """S-symmetrization of a lattice tensor over one contiguous block of slots.

    ``slots`` lists 1-based slot positions (default: all slots) and must be
    a contiguous block; the other slots are spectators.  The block's axes
    are projected with V V^H of :func:`symmetric_isometry`.
    """
    n = values.ndim
    slots = tuple(range(1, n + 1)) if slots is None else tuple(slots)
    s, j = (slots[0] if slots else 1), len(slots)
    if slots != tuple(range(s, s + j)) or s < 1 or s + j - 1 > n:
        raise ValueError(f"slots {slots!r} are not a contiguous block of 1..{n}")
    N = grid.size
    V = symmetric_isometry(model, grid, j)[0]
    x = values.reshape(N**(s - 1), N**j, -1)
    return (V @ (V.conj().T @ x)).reshape(values.shape)


def s_symmetry_residual(model: ScatteringModel, state: FockState) -> float:
    """Largest deviation of any sector from its own S-symmetrization."""
    res = 0.0
    for n in range(2, state.truncation + 1):
        sym = symmetrize(model, state.grid, state.sector(n))
        res = max(res, float(np.max(np.abs(sym - state.sector(n)))) if sym.size else 0.0)
    return res


@dataclass
class QuadraticForm:
    """Sector-blocked operator on the truncated space, dense per block.

    ``blocks[(l, k)]`` maps sector k to sector l as an (N**l, N**k) matrix.
    Missing blocks are zero.  ``truncated`` marks possibly incomplete
    content (some construction discarded sectors above the truncation).
    """

    grid: RapidityGrid
    truncation: int
    blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self):
        N = self.grid.size
        fixed = {}
        for (l, k), mat in self.blocks.items():
            if not (0 <= l <= self.truncation and 0 <= k <= self.truncation):
                raise ValueError(f"block {(l, k)} outside truncation {self.truncation}")
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (N**l, N**k):
                raise ValueError(f"block {(l, k)} has shape {arr.shape}")
            fixed[(l, k)] = arr
        self.blocks = fixed

    def block(self, l: int, k: int) -> np.ndarray:
        N = self.grid.size
        got = self.blocks.get((l, k))
        return got if got is not None else np.zeros((N**l, N**k), dtype=complex)

    def _check_space(self, other: "QuadraticForm") -> None:
        if self.grid != other.grid or self.truncation != other.truncation:
            raise ValueError("forms live on different spaces")

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_space(other)
        keys = set(self.blocks) | set(other.blocks)
        blocks = {key: self.block(*key) + other.block(*key) for key in keys}
        return QuadraticForm(self.grid, self.truncation, blocks,
                             self.truncated or other.truncated)

    def __sub__(self, other: "QuadraticForm") -> "QuadraticForm":
        return self + (-1.0) * other

    def __mul__(self, c) -> "QuadraticForm":
        return QuadraticForm(self.grid, self.truncation,
                             {key: c * mat for key, mat in self.blocks.items()},
                             self.truncated)

    __rmul__ = __mul__

    def __matmul__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_space(other)
        blocks: dict[tuple[int, int], np.ndarray] = {}
        for (l, j), a in self.blocks.items():
            for (jj, k), b in other.blocks.items():
                if jj != j:
                    continue
                key = (l, k)
                prod = a @ b
                if key in blocks:
                    blocks[key] = blocks[key] + prod
                else:
                    blocks[key] = prod
        return QuadraticForm(self.grid, self.truncation, blocks,
                             self.truncated or other.truncated)

    def adjoint(self) -> "QuadraticForm":
        return QuadraticForm(self.grid, self.truncation,
                             {(k, l): mat.conj().T for (l, k), mat in self.blocks.items()},
                             self.truncated)

    def apply(self, state: FockState) -> FockState:
        if state.grid != self.grid or state.truncation != self.truncation:
            raise ValueError("state and form live on different spaces")
        N = self.grid.size
        out = FockState.zeros(self.grid, self.truncation)
        for (l, k), mat in self.blocks.items():
            out.sectors[l] = out.sectors[l] + (mat @ state.sector(k).ravel()).reshape((N,) * l)
        out.truncated = state.truncated or self.truncated
        return out

    def matrix_element(self, bra: FockState, ket: FockState) -> complex:
        return bra.inner(self.apply(ket))

    def scale(self) -> float:
        """Largest block Frobenius norm; a size reference for residuals."""
        return max((float(np.linalg.norm(m)) for m in self.blocks.values()), default=0.0)


def sandwich(model: ScatteringModel, grid: RapidityGrid, mat: np.ndarray,
             l: int, k: int) -> np.ndarray:
    """P_l mat P_k, with P the symmetrizers, as V_l ((V_l^H mat) V_k) V_k^H."""
    Vl = symmetric_isometry(model, grid, l)[0]
    Vk = symmetric_isometry(model, grid, k)[0]
    return Vl @ ((Vl.conj().T @ mat) @ Vk) @ Vk.conj().T


def _ladder_block(model: ScatteringModel, grid: RapidityGrid, fmat: np.ndarray,
                  l: int, k: int) -> np.ndarray:
    """P_l (fmat kron 1) P_k, the identity acting on the trailing slots.

    The compressed block V_l^H (fmat kron 1) V_k is contracted from the
    reshaped bases, so the Kronecker product is never formed.
    """
    Vl = symmetric_isometry(model, grid, l)[0]
    Vk = symmetric_isometry(model, grid, k)[0]
    a, b = fmat.shape
    r = Vl.shape[0] // a
    left = np.tensordot(Vl.conj().T.reshape(Vl.shape[1], a, r), fmat, axes=(1, 0))
    C = np.tensordot(left, Vk.reshape(b, r, Vk.shape[1]), axes=([2, 1], [0, 1]))
    return Vl @ C @ Vk.conj().T


def identity_form(model: ScatteringModel, grid: RapidityGrid, truncation: int) -> QuadraticForm:
    """Identity of the symmetric subspace: the symmetrizer V V^H per sector."""
    blocks = {}
    for n in range(truncation + 1):
        V = symmetric_isometry(model, grid, n)[0]
        blocks[(n, n)] = V @ V.conj().T
    return QuadraticForm(grid, truncation, blocks)


def form_residual(A: QuadraticForm, B: QuadraticForm) -> float:
    """Largest absolute entry of A - B over the union of stored blocks."""
    keys = set(A.blocks) | set(B.blocks)
    res = 0.0
    for key in keys:
        diff = A.block(*key) - B.block(*key)
        if diff.size:
            res = max(res, float(np.max(np.abs(diff))))
    return res


# ---------------------------------------------------------------------------
# creation and annihilation


def create(model: ScatteringModel, f: np.ndarray, state: FockState) -> FockState:
    """Creation operator smeared with a one-slot function f.

    Sector n of the result is sqrt(n) times the S-symmetrization of
    f tensor psi_{n-1}.  Content pushed above the truncation is dropped
    and flagged.
    """
    f = np.asarray(f, dtype=complex)
    grid, K = state.grid, state.truncation
    if f.shape != (grid.size,):
        raise ValueError("smearing function must live on the lattice")
    out = FockState.zeros(grid, K)
    for n in range(1, K + 1):
        raw = np.multiply.outer(f, state.sector(n - 1))
        out.sectors[n] = math.sqrt(n) * symmetrize(model, grid, raw)
    dropped = float(np.max(np.abs(state.sector(K)))) if state.sector(K).size else 0.0
    out.truncated = state.truncated or dropped > 0.0
    return out


def annihilate(f: np.ndarray, state: FockState) -> FockState:
    """Annihilation operator smeared with f (not conjugated): contract the first slot."""
    f = np.asarray(f, dtype=complex)
    grid, K = state.grid, state.truncation
    if f.shape != (grid.size,):
        raise ValueError("smearing function must live on the lattice")
    out = FockState.zeros(grid, K)
    for n in range(K):
        out.sectors[n] = math.sqrt(n + 1) * np.tensordot(f, state.sector(n + 1), axes=(0, 0))
    out.truncated = state.truncated
    return out


def creator_form(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                 f: np.ndarray) -> QuadraticForm:
    """Matrix form of the creation operator, sandwiched between symmetrizers."""
    f = np.asarray(f, dtype=complex).reshape(grid.size, 1)
    blocks = {(k + 1, k): math.sqrt(k + 1) * _ladder_block(model, grid, f, k + 1, k)
              for k in range(truncation)}
    return QuadraticForm(grid, truncation, blocks)


def annihilator_form(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                     f: np.ndarray) -> QuadraticForm:
    """Matrix form of the annihilation operator, sandwiched between symmetrizers."""
    f = np.asarray(f, dtype=complex).reshape(1, grid.size)
    blocks = {(k, k + 1): math.sqrt(k + 1) * _ladder_block(model, grid, f, k, k + 1)
              for k in range(truncation)}
    return QuadraticForm(grid, truncation, blocks)


def point_ladder(model: ScatteringModel, grid: RapidityGrid,
                 truncation: int) -> tuple[list[QuadraticForm], list[QuadraticForm]]:
    """Creator and annihilator forms at every lattice point."""
    points = np.eye(grid.size, dtype=complex)
    return ([creator_form(model, grid, truncation, e) for e in points],
            [annihilator_form(model, grid, truncation, e) for e in points])


def zmzn_form(model: ScatteringModel, kernel: KernelTensor, grid: RapidityGrid,
              truncation: int) -> QuadraticForm:
    """Normal-ordered monomial with m creators and n annihilators smeared by the kernel.

    Block (k-n+m, k) for each admissible source sector k >= n carries the
    prefactor sqrt(k! (k-n+m)!) / (k-n)!; the incoming slots of the kernel
    pair against the state with their order reversed.  Blocks that would
    land above the truncation are dropped and flagged.
    """
    m, n = kernel.m, kernel.n
    K = truncation
    if kernel.size != grid.size and kernel.values.ndim:
        raise ValueError("kernel lattice size mismatch")
    if m > K or n > K:
        raise ValueError("monomial degree exceeds truncation")
    N = grid.size
    # reverse the incoming slots once
    perm = tuple(range(m)) + tuple(range(m + n - 1, m - 1, -1))
    fmat = kernel.values.transpose(perm).reshape(N**m, N**n)
    blocks = {}
    dropped = False
    for k in range(n, K + 1):
        l = k - n + m
        if l > K:
            dropped = True
            continue
        c = math.sqrt(math.factorial(k) * math.factorial(l)) / math.factorial(k - n)
        blocks[(l, k)] = c * _ladder_block(model, grid, fmat, l, k)
    return QuadraticForm(grid, K, blocks, truncated=dropped)


# ---------------------------------------------------------------------------
# norms


def cross_norm(kernel: KernelTensor, grid: RapidityGrid, omega: Indicatrix) -> float:
    """Weighted cross norm: half the sum of the two one-sided weighted spectral norms.

    The kernel is read as a matrix from incoming to outgoing slot groups;
    each term damps one side by exp(-omega(energy)).
    """
    F = kernel.matrix()
    wl = energy_weights(grid, omega, kernel.m, -1)
    wr = energy_weights(grid, omega, kernel.n, -1)
    left = np.linalg.norm(wl[:, None] * F, ord=2)
    right = np.linalg.norm(F * wr[None, :], ord=2)
    return 0.5 * float(left + right)


def sector_norm(model: ScatteringModel, grid: RapidityGrid, mat: np.ndarray,
                l: int, k: int, wl: np.ndarray, wr: np.ndarray) -> float:
    """Spectral norm of diag(wl) mat diag(wr) on the S-symmetric sectors, l <- k.

    ``wl`` and ``wr`` weigh the N**l and N**k tuples and must be constant on
    permutation orbits, as functions of the energy are.  The result is the
    norm of P_l diag(wl) mat diag(wr) P_k, with P the symmetrizers, taken
    on the compressed block V_l^H mat V_k of ``symmetric_isometry``: there
    diag(w) V = V diag(w[reps]).  For a block with mat = P_l mat P_k, as
    every block built here, it equals the norm over all tuples.
    """
    Vl, rl = symmetric_isometry(model, grid, l)
    Vk, rk = symmetric_isometry(model, grid, k)
    C = wl[rl, None] * (Vl.conj().T @ mat @ Vk) * wr[rk]
    return float(np.linalg.norm(C, ord=2))


def qform_norm(model: ScatteringModel, A: QuadraticForm, n: int, omega: Indicatrix) -> float:
    """Sector-n form norm on the S-symmetric Fock space, damped on either side.

    With W = exp(-omega(energy)) over sectors 0..n and P the symmetrizer,
    this is half the sum of the spectral norms of P A W P and P W A P.  It
    is taken on the blocks V_l^H A_lk V_k of ``symmetric_isometry``; W is
    constant on orbits, so W V = V diag(w[reps]) and no singular value is
    lost.  For a form with A = P A P, as every form built here, it equals
    the norm of A W and W A over all tuples.
    """
    if not 0 <= n <= A.truncation:
        raise ValueError(f"sector bound {n} outside 0..{A.truncation}")
    bases = [symmetric_isometry(model, A.grid, j) for j in range(n + 1)]
    offs = np.cumsum([0] + [len(reps) for _, reps in bases])
    C = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for (l, k), mat in A.blocks.items():
        if l <= n and k <= n:
            C[offs[l]:offs[l + 1], offs[k]:offs[k + 1]] = \
                bases[l][0].conj().T @ mat @ bases[k][0]
    w = np.concatenate([energy_weights(A.grid, omega, j, -1)[reps]
                        for j, (_, reps) in enumerate(bases)])
    left = np.linalg.norm(C * w[None, :], ord=2)
    right = np.linalg.norm(w[:, None] * C, ord=2)
    return 0.5 * float(left + right)
