"""Creation and annihilation operators with S-twisted exchange, and their forms.

Operators are realized either as actions on :class:`FockState` or as
sector-blocked forms (:class:`QuadraticForm`) on the S-symmetric
subspace.  That subspace has one representation: the orthonormal orbit
basis V of :func:`symmetric_isometry`, with one column per admissible
multiset.  Each row of V has at most one nonzero, so V is stored as a
map from tuples to orbits (:class:`OrbitBasis`): the orbit of every tuple
and its entry, one exchange factor over the square root of the orbit
size, with no loop over permutations.  No N**n x orbits array is formed;
V is applied as a gather (:func:`_gather`, V C) and an orbit sum
(:func:`_orbit_sum`, V^H Y), which the dense views of forms and kernels,
their inverses, ``apply`` and :func:`symmetrize` go through.  A form
stores each block on orbit pairs, as C = V_l^H A V_k, and every form
operation acts on C: sums, products, adjoints, the constructors, the
draws, the norms and the full-basis residuals.  The dense block
V_l C V_k^H over all N**l x N**k tuples is a view computed on access,
read only here and by the file codec.  Blocks may carry leading batch
axes, over which every form operation broadcasts: the point ladder
(:func:`point_ladder`) is one form whose batch axis is the lattice
point.  Each split V_l^H (V_m kron V_{l-m}) is a cached merge map
(:func:`_orbit_merge`): :func:`creator_form` writes f times the map at
(b, 1), the point ladder and :func:`annihilator_form` are built from it,
and :func:`zmzn_form` and the expansion sum over two maps in one scatter
primitive, :func:`_merge_sum`.  Tuple reversal is a phase per column of V
(``OrbitBasis.W``), computed with V.  A kernel S-symmetric in each
slot group, as an expansion coefficient is, is stored on orbit pairs too
(:class:`OrbitKernel`), and :func:`zmzn_form` takes one.
The constructors take stacks: :func:`creator_form` and
:func:`annihilator_form` smearing functions of shape (*batch, N),
:func:`zmzn_form` orbit kernels of shape (*batch, orbits_m, orbits_n).
Each batch index of the result equals the unbatched call to the bit.
Every spectral norm is one of :func:`weighted_norms`, which takes a list
of weighted matrices, maybe stacked, in batched SVDs per matrix shape
(:func:`_spectral_norms`); a compressed block is weighted by
:func:`orbit_weights`.  :func:`cross_norms` and :func:`qform_norms` use it.
:func:`symmetrize` projects a tensor, or a contiguous block of its
slots, as V V^H, an orbit sum and a gather.  No N**n x N**n symmetrizer
is formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fock import (FockState, Indicatrix, RapidityGrid, basis_tuples,
                   energy_weights)
from .scattering import ScatteringModel, pair_values


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


@dataclass
class OrbitKernel:
    """Kernel with m outgoing and n incoming slots, S-symmetric in each group, on orbit pairs.

    ``values`` is the orbit matrix F, of shape (orbits_m, orbits_n), of the
    dense kernel f = V_m F V_n^T over all tuples (:func:`dense_kernel`):
    each slot group of f lies in the S-symmetric subspace, the incoming
    one in the slot order of the kernel.  Expansion coefficients are such
    kernels, and so is all of a kernel that a monomial sees:
    :func:`compress_kernel` reads F = V_m^H f conj(V_n) off a dense kernel.
    """

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)


def kernel_adjoint(kernel: KernelTensor) -> KernelTensor:
    """Swap roles of the slot groups: conjugate, reverse each group, exchange them."""
    m, n = kernel.m, kernel.n
    perm = tuple(reversed(range(m, m + n))) + tuple(reversed(range(m)))
    return KernelTensor(n, m, np.conj(kernel.values).transpose(perm))


def orbit_dimension(model: ScatteringModel, N: int, n: int) -> int:
    """Columns of the orbit basis of the n-particle sector on N lattice points.

    C(N + n - 1, n) multisets when S(0) = +1; when S(0) = -1 only the
    strictly increasing tuples remain, C(N, n) of them.
    """
    return math.comb(N, n) if model.sign_at_zero < 0 else math.comb(N + n - 1, n)


class OrbitBasis(NamedTuple):
    """The orbit basis V of one sector, stored as a map from tuples to orbits.

    Each row of V has at most one nonzero: ``col[t]`` is the orbit of the
    flat tuple t and ``val[t]`` its entry V[t, col[t]].  A tuple with no
    orbit, one with a repeated point when S(0) = -1, has col -1 and val 0.
    ``by_orbit`` lists the tuples that have an orbit, grouped by orbit in
    tuple order, and orbit a starts at ``starts[a]`` in it.  ``reps`` are
    the flat indices of the sorted tuples, one per orbit, ``peaks`` the
    |V| of each column and ``W`` the reversal phases: a reversed tuple
    stays in its orbit, and conj(V)[rev] = V diag(W), rev reversing every
    n-tuple, with W = conj(V[rev(rep_a), a]) / V[rep_a, a] of unit modulus,
    read where V is real and positive.  All arrays are read-only.
    """

    col: np.ndarray
    val: np.ndarray
    by_orbit: np.ndarray
    starts: np.ndarray
    reps: np.ndarray
    peaks: np.ndarray
    W: np.ndarray


@lru_cache(maxsize=128)
def symmetric_isometry(model: ScatteringModel, grid: RapidityGrid, n: int) -> OrbitBasis:
    """Orthonormal basis V of the S-symmetric n-particle subspace, as a tuple-to-orbit map.

    There is one column per admissible multiset, supported on its
    permutation orbit.  Every multiset is admissible when S(0) = +1; when
    S(0) = -1 the symmetrizer kills repeated entries and only strictly
    increasing tuples remain.  The column is the symmetrizer column of the
    sorted representative, normalized: the entry of an orbit tuple t is
    the exchange factor of a permutation that sorts t, the product of
    S(x_{t_b} - x_{t_a}) over the slot pairs a < b with t_a > t_b, divided
    by the square root of the orbit size.  When S(0) = -1 an orbit tuple
    has distinct points and one sorting permutation; when S(0) = +1 the
    sorting permutations differ only on equal points, whose pairs add
    S(0) = 1, so all give this factor and no sum over permutations is
    needed.  Distinct orbits have
    disjoint supports, so V^H V = I and V V^H is the symmetrizer.  V is
    real and positive at the representatives, and the largest entry of
    V_l C V_k^H is max_ab |C_ab| peaks_l[a] peaks_k[b] (:func:`peak_abs`).
    No dense V is formed: :func:`_gather` and :func:`_orbit_sum` apply it.
    """
    N = grid.size
    tuples = basis_tuples(N, n)
    S = pair_values(model, grid.points)
    steps = np.diff(tuples, axis=1)
    reps = np.flatnonzero(np.all(steps > 0 if model.sign_at_zero < 0 else steps >= 0, axis=1))
    digits = N ** np.arange(n - 1, -1, -1)
    # the column of every tuple is that of its sorted representative
    column = np.full(N**n, -1)
    column[reps] = np.arange(len(reps))
    col = column[np.sort(tuples, axis=1) @ digits]
    phase = np.ones(N**n, dtype=complex)
    for a, b in itertools.combinations(range(n), 2):
        ta, tb = tuples[:, a], tuples[:, b]
        phase = np.where(ta > tb, phase * S[tb, ta], phase)
    has = col >= 0
    sizes = np.bincount(col[has], minlength=len(reps))
    val = np.zeros(N**n, dtype=complex)
    val[has] = phase[has] / np.sqrt(sizes[col[has]])
    by_orbit = np.argsort(col, kind="stable")[N**n - sizes.sum():]
    starts = np.cumsum(sizes) - sizes
    peaks = np.abs(val[reps])
    # a reversed tuple stays in its orbit
    W = val[tuples[reps, ::-1] @ digits].conj() / val[reps]
    basis = OrbitBasis(col, val, by_orbit, starts, reps, peaks, W)
    for arr in basis:
        arr.flags.writeable = False
    return basis


def _gather(model: ScatteringModel, grid: RapidityGrid, n: int, C: np.ndarray,
            axis: int = 0, conj: bool = False) -> np.ndarray:
    """V C along ``axis`` of C, or conj(V) C with ``conj``: orbits to tuples.

    Tuple t takes the entry of its orbit col[t] times val[t]; a tuple
    without an orbit takes 0.
    """
    basis = symmetric_isometry(model, grid, n)
    axis %= C.ndim
    if not C.shape[axis]:  # a sector without orbits
        return np.zeros(C.shape[:axis] + basis.col.shape + C.shape[axis + 1:], dtype=complex)
    val = basis.val.conj() if conj else basis.val
    return np.take(C, basis.col, axis=axis) * val.reshape((-1,) + (1,) * (C.ndim - axis - 1))


def _orbit_sum(model: ScatteringModel, grid: RapidityGrid, n: int, Y: np.ndarray,
               axis: int = 0, conj: bool = True) -> np.ndarray:
    """V^H Y along ``axis`` of Y, or V^T Y without ``conj``: tuples to orbits.

    Orbit a sums conj(val[t]) Y[t] over its tuples t, in one reduction
    over the tuples grouped by orbit.
    """
    basis = symmetric_isometry(model, grid, n)
    axis %= Y.ndim
    if not len(basis.starts):  # a sector without orbits
        return np.zeros(Y.shape[:axis] + (0,) + Y.shape[axis + 1:], dtype=complex)
    val = basis.val[basis.by_orbit]
    val = (val.conj() if conj else val).reshape((-1,) + (1,) * (Y.ndim - axis - 1))
    return np.add.reduceat(np.take(Y, basis.by_orbit, axis=axis) * val, basis.starts, axis=axis)


# holds every 0 <= m <= l <= K of the few models and lattices a run reads
@lru_cache(maxsize=128)
def _orbit_merge(model: ScatteringModel, grid: RapidityGrid, l: int,
                 m: int) -> tuple[np.ndarray, np.ndarray]:
    """The split V_l^H (V_m kron V_{l-m}) as a merge map (merge, value); cached, read-only.

    Both have shape (orbits_m, orbits_{l-m}).  The tuples of orbit b of the
    leading m slots followed by those of orbit c of the trailing ones all
    lie in the l-orbit merge[b, c] of t = reps_m[b] N**(l-m) + reps_{l-m}[c],
    or in none (-1) when S(0) = -1 and b and c share a point, and each adds
    the term of t: the split at (b, a, c) is value[b, c] =
    conj(val_l[t]) / (peaks_m[b] peaks_{l-m}[c]) if a = merge[b, c], else 0.
    """
    Bl, Bm, Br = (symmetric_isometry(model, grid, j) for j in (l, m, l - m))
    t = Bm.reps[:, None] * grid.size ** (l - m) + Br.reps[None, :]
    merge = Bl.col[t]
    value = Bl.val[t].conj() / (Bm.peaks[:, None] * Br.peaks[None, :])
    merge.flags.writeable = value.flags.writeable = False
    return merge, value


def _merge_sum(Y: np.ndarray, rows: tuple, cols: tuple, shape: tuple[int, int],
               weight: np.ndarray | None = None) -> np.ndarray:
    """sum_s A_s (Y * weight[..., s]) B_s^T of shape (*batch, *shape), Y of shape (*batch, p, q).

    A_s has one nonzero per column: ``rows`` = (index, value) of shape (p, S)
    puts value[j, s] in row index[j, s] of column j, none where the index is
    -1, and ``cols``, of shape (q, S), gives B_s.  The terms are added by one
    ``np.bincount`` per batch index and part, those without a row or column
    into an extra one that is cut off; so each batch index equals its
    unbatched sum to the bit.
    """
    (ri, rv), (ci, cv) = rows, cols
    P, Q = shape
    index = (np.where(ri < 0, P, ri)[:, None, :] * (Q + 1)
             + np.where(ci < 0, Q, ci)[None, :, :]).ravel()
    coef = rv[:, None, :] * cv[None, :, :]
    if weight is not None:
        coef = coef * weight
    out = np.empty((math.prod(Y.shape[:-2]), (P + 1) * (Q + 1)), dtype=complex)
    for y, o in zip(Y.reshape((len(out),) + Y.shape[-2:]), out):
        terms = (coef * y[:, :, None]).ravel()
        o.real = np.bincount(index, terms.real, minlength=len(o))
        o.imag = np.bincount(index, terms.imag, minlength=len(o))
    return out.reshape(Y.shape[:-2] + (P + 1, Q + 1))[..., :P, :Q]


def dense_kernel(model: ScatteringModel, grid: RapidityGrid, kernel: OrbitKernel) -> KernelTensor:
    """The dense view f = V_m F V_n^T of an orbit kernel, one slot axis per slot."""
    dense = _gather(model, grid, kernel.n, _gather(model, grid, kernel.m, kernel.values), axis=1)
    return KernelTensor(kernel.m, kernel.n, dense.reshape((grid.size,) * (kernel.m + kernel.n)))


def compress_kernel(model: ScatteringModel, grid: RapidityGrid,
                    kernel: KernelTensor) -> OrbitKernel:
    """The orbit kernel F = V_m^H f conj(V_n) of a dense kernel f.

    Its dense view is f with both slot groups S-symmetrized, the incoming
    one in the slot order of the kernel.
    """
    if kernel.values.ndim and kernel.size != grid.size:
        raise ValueError("kernel lattice size mismatch")
    rows = _orbit_sum(model, grid, kernel.m, kernel.matrix())
    return OrbitKernel(kernel.m, kernel.n, _orbit_sum(model, grid, kernel.n, rows, axis=1))


def peak_weights(model: ScatteringModel, grid: RapidityGrid,
                 key: tuple[int, int]) -> np.ndarray:
    """w_l[a] w_k[b] over the orbit pairs of block key, w the largest |V| of each column.

    A tuple lies in one orbit, so each row of V has at most one nonzero,
    and the dense entry of the tuples (t, u) is V[t, a] C[a, b] conj(V[u, b])
    for their orbits a and b: the largest |entry| of V_l C V_k^H over all
    tuples is max_ab |C_ab| w_l[a] w_k[b] (:func:`peak_abs`).
    """
    wl = symmetric_isometry(model, grid, key[0]).peaks
    wk = symmetric_isometry(model, grid, key[1]).peaks
    return wl[:, None] * wk[None, :]


def peak_abs(C: np.ndarray, weights: np.ndarray) -> float:
    """Largest |entry| of the dense block V_l C V_k^H, read from C and its :func:`peak_weights`."""
    return float(np.max(np.abs(C) * weights)) if C.size else 0.0


def symmetrize(model: ScatteringModel, grid: RapidityGrid, values: np.ndarray,
               slots: Iterable[int] | None = None) -> np.ndarray:
    """S-symmetrization of a lattice tensor over one contiguous block of slots.

    ``slots`` lists 1-based slot positions (default: all slots) and must be
    a contiguous block; the other slots are spectators.  The block's axes
    are projected with V V^H of :func:`symmetric_isometry`, as an orbit sum
    and a gather.
    """
    n = values.ndim
    slots = tuple(range(1, n + 1)) if slots is None else tuple(slots)
    s, j = (slots[0] if slots else 1), len(slots)
    if slots != tuple(range(s, s + j)) or s < 1 or s + j - 1 > n:
        raise ValueError(f"slots {slots!r} are not a contiguous block of 1..{n}")
    N = grid.size
    x = values.reshape(N**(s - 1), N**j, -1)
    return _gather(model, grid, j, _orbit_sum(model, grid, j, x, axis=1), axis=1).reshape(
        values.shape)


def s_symmetry_residual(model: ScatteringModel, state: FockState) -> float:
    """Largest deviation of any sector from its own S-symmetrization."""
    res = 0.0
    for n in range(2, state.truncation + 1):
        sym = symmetrize(model, state.grid, state.sector(n))
        res = max(res, float(np.max(np.abs(sym - state.sector(n)))) if sym.size else 0.0)
    return res


@dataclass
class QuadraticForm:
    """Sector-blocked operator on the truncated S-symmetric space, stored on orbit pairs.

    ``orbit_blocks[(l, k)]`` maps sector k to sector l as the compressed
    block C = V_l^H A V_k on the orbit bases of ``model``
    (:func:`symmetric_isometry`), of shape (orbits_l, orbits_k).  Missing
    blocks are zero.  ``blocks`` and :meth:`block` are the dense views
    V_l C V_k^H over all N**l x N**k tuples, computed on access; the form
    acts on states through them.  ``truncated`` marks possibly incomplete
    content (some construction discarded sectors above the truncation).

    A block may carry leading batch axes, shape (*batch, orbits_l, orbits_k):
    then the form is a stack of operators, one per batch index, such as the
    ladder operators at every lattice point (:func:`point_ladder`).  The
    form operations act on the last two axes and broadcast over the batch
    axes as numpy does: ``+``, ``-``, ``*`` by a scalar or by an array of
    shape (*batch, 1, 1), ``@``, :meth:`adjoint`, the dense views and the
    max-abs residuals (:func:`peak_abs`), and with them the warp and the
    deformed commutator of ``warped``.  :meth:`batch` indexes or inserts
    batch axes.  ``apply``, :func:`qform_norms` and the file codec take
    unbatched forms.
    """

    model: ScatteringModel
    grid: RapidityGrid
    truncation: int
    orbit_blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self):
        N = self.grid.size
        dims = [orbit_dimension(self.model, N, j) for j in range(self.truncation + 1)]
        fixed = {}
        for (l, k), C in self.orbit_blocks.items():
            if not (0 <= l <= self.truncation and 0 <= k <= self.truncation):
                raise ValueError(f"block {(l, k)} outside truncation {self.truncation}")
            arr = np.asarray(C, dtype=complex)
            if arr.ndim < 2 or arr.shape[-2:] != (dims[l], dims[k]):
                raise ValueError(f"orbit block {(l, k)} has shape {arr.shape}, "
                                 f"expected (*batch, {dims[l]}, {dims[k]})")
            fixed[(l, k)] = arr
        self.orbit_blocks = fixed

    @classmethod
    def from_dense(cls, model: ScatteringModel, grid: RapidityGrid, truncation: int,
                   blocks: dict[tuple[int, int], np.ndarray],
                   truncated: bool = False) -> "QuadraticForm":
        """The form whose dense blocks are P_l X P_k: C = V_l^H X V_k of each block X."""
        orbit_blocks = {(l, k): _orbit_sum(model, grid, k, _orbit_sum(model, grid, l, X),
                                           axis=1, conj=False)
                        for (l, k), X in blocks.items()}
        return cls(model, grid, truncation, orbit_blocks, truncated)

    def _like(self, orbit_blocks: dict, truncated: bool | None = None) -> "QuadraticForm":
        """A form on the same space, with the same truncated flag unless given.

        For the form operations: their complex blocks keep the shapes of
        checked ones, so they are not checked again.
        """
        out = object.__new__(QuadraticForm)
        out.model, out.grid, out.truncation = self.model, self.grid, self.truncation
        out.orbit_blocks = orbit_blocks
        out.truncated = self.truncated if truncated is None else truncated
        return out

    def orbit_block(self, l: int, k: int) -> np.ndarray:
        """The compressed block (l, k), zeros when it is not stored."""
        got = self.orbit_blocks.get((l, k))
        if got is not None:
            return got
        N = self.grid.size
        return np.zeros((orbit_dimension(self.model, N, l),
                         orbit_dimension(self.model, N, k)), dtype=complex)

    def block(self, l: int, k: int) -> np.ndarray:
        """The dense view V_l C V_k^H of block (l, k) over all tuples."""
        rows = _gather(self.model, self.grid, l, self.orbit_block(l, k), axis=-2)
        return _gather(self.model, self.grid, k, rows, axis=-1, conj=True)

    @property
    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """Dense views of the stored blocks, computed on access."""
        return {key: self.block(*key) for key in self.orbit_blocks}

    def _check_space(self, other: "QuadraticForm") -> None:
        if (self.grid != other.grid or self.truncation != other.truncation
                or self.model != other.model):
            raise ValueError("forms live on different spaces")

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_space(other)
        mine, theirs = self.orbit_blocks, other.orbit_blocks
        blocks = {}
        for key in dict.fromkeys([*mine, *theirs]):
            a, b = mine.get(key), theirs.get(key)
            blocks[key] = b if a is None else a if b is None else a + b
        return self._like(blocks, self.truncated or other.truncated)

    def __sub__(self, other: "QuadraticForm") -> "QuadraticForm":
        return self + (-1.0) * other

    def __mul__(self, c) -> "QuadraticForm":
        return self._like({key: c * C for key, C in self.orbit_blocks.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_space(other)
        rows: dict[int, list] = {}
        for (j, k), b in other.orbit_blocks.items():
            rows.setdefault(j, []).append((k, b))
        blocks: dict[tuple[int, int], np.ndarray] = {}
        for (l, j), a in self.orbit_blocks.items():
            for k, b in rows.get(j, ()):
                prod = a @ b
                got = blocks.get((l, k))
                blocks[(l, k)] = prod if got is None else got + prod
        return self._like(blocks, self.truncated or other.truncated)

    def adjoint(self) -> "QuadraticForm":
        return self._like({(k, l): C.conj().swapaxes(-1, -2)
                           for (l, k), C in self.orbit_blocks.items()})

    def batch(self, index) -> "QuadraticForm":
        """The form with ``index`` applied to the batch axes of every block.

        ``index`` is a numpy index of the leading axes: an integer picks one
        operator of the stack, ``None`` inserts an axis of length one, so
        that a stack broadcasts against another along a new axis.  Each
        block is first broadcast to the batch shape of the whole form, as
        in its operations, and its last two axes are never indexed.
        """
        shape = np.broadcast_shapes(*(C.shape[:-2] for C in self.orbit_blocks.values()))
        index = np.index_exp[index] + np.index_exp[:, :]
        return self._like({key: np.broadcast_to(C, shape + C.shape[-2:])[index]
                           for key, C in self.orbit_blocks.items()})

    def apply(self, state: FockState) -> FockState:
        """The dense view acting on a state, as V_l (C (V_k^H psi_k)): orbit sums, then gathers."""
        if state.grid != self.grid or state.truncation != self.truncation:
            raise ValueError("state and form live on different spaces")
        N = self.grid.size
        out = FockState.zeros(self.grid, self.truncation)
        coords = {k: _orbit_sum(self.model, self.grid, k, state.sector(k).ravel())
                  for k in {k for _, k in self.orbit_blocks}}
        for (l, k), C in self.orbit_blocks.items():
            image = _gather(self.model, self.grid, l, C @ coords[k])
            out.sectors[l] = out.sectors[l] + image.reshape((N,) * l)
        out.truncated = state.truncated or self.truncated
        return out

    def matrix_element(self, bra: FockState, ket: FockState) -> complex:
        return bra.inner(self.apply(ket))

    def scale(self) -> float:
        """Largest block Frobenius norm, which V keeps; a size reference for residuals."""
        return max((float(np.linalg.norm(C)) for C in self.orbit_blocks.values()),
                   default=0.0)


def identity_form(model: ScatteringModel, grid: RapidityGrid, truncation: int) -> QuadraticForm:
    """Identity of the symmetric subspace: the identity on the orbits of every sector."""
    blocks = {(n, n): np.eye(orbit_dimension(model, grid.size, n), dtype=complex)
              for n in range(truncation + 1)}
    return QuadraticForm(model, grid, truncation, blocks)


def form_residual(A: QuadraticForm, B: QuadraticForm) -> float:
    """Largest absolute entry of the dense A - B over the union of stored blocks.

    Read from the compressed difference through :func:`peak_abs`.
    """
    A._check_space(B)
    res = 0.0
    for key in dict.fromkeys([*A.orbit_blocks, *B.orbit_blocks]):
        diff = A.orbit_block(*key) - B.orbit_block(*key)
        res = max(res, peak_abs(diff, peak_weights(A.model, A.grid, key)))
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
    """Matrix form of the creation operator on the symmetric subspace.

    Block (b, b - 1) is sqrt(b) sum_x f[x] V_b^H (e_x kron V_{b-1}): f[x]
    times the merge map at (b, 1) (:func:`_orbit_merge`), written in place,
    as distinct points merge with one orbit into distinct orbits.  f may
    carry leading batch axes, shape (*batch, N); the form is then the stack
    of the creators of each f, each equal to the bit to its unbatched form.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape[-1:] != (grid.size,):
        raise ValueError("smearing function must live on the lattice")
    blocks = {}
    for b in range(1, truncation + 1):
        merge, value = _orbit_merge(model, grid, b, 1)
        x, c = np.nonzero(merge >= 0)
        blocks[(b, b - 1)] = np.zeros(f.shape[:-1] + (orbit_dimension(model, grid.size, b),
                                                      merge.shape[1]), dtype=complex)
        blocks[(b, b - 1)][..., merge[x, c], c] = math.sqrt(b) * (f[..., x] * value[x, c])
    return QuadraticForm(model, grid, truncation, blocks)


def annihilator_form(model: ScatteringModel, grid: RapidityGrid, truncation: int,
                     f: np.ndarray) -> QuadraticForm:
    """Matrix form of the annihilation operator: the adjoint of the creator of conj(f).

    f may carry leading batch axes, as in :func:`creator_form`.
    """
    return creator_form(model, grid, truncation, np.conj(f)).adjoint()


def point_ladder(model: ScatteringModel, grid: RapidityGrid,
                 truncation: int) -> tuple[QuadraticForm, QuadraticForm]:
    """The creators at every lattice point as one form, and their adjoint, the annihilators.

    The creator form of the unit vectors: the lattice point is the batch
    axis, and ``.batch(x)`` is the creator at x.
    """
    creators = creator_form(model, grid, truncation, np.eye(grid.size))
    return creators, creators.adjoint()


def zmzn_form(model: ScatteringModel, kernel: OrbitKernel, grid: RapidityGrid,
              truncation: int) -> QuadraticForm:
    """Normal-ordered monomial with m creators and n annihilators smeared by the kernel.

    Block (k-n+m, k) for each admissible source sector k >= n carries the
    prefactor sqrt(k! (k-n+m)!) / (k-n)!; the incoming slots of the kernel
    pair against the state with their order reversed.  Blocks that would
    land above the truncation are dropped and flagged.

    The block is V_l^H (g kron 1) V_k, g the kernel matrix with its incoming
    slots reversed and the identity on the r = k - n trailing slots.  With
    V_n[rev] = conj(V_n) diag(conj W) (:class:`OrbitBasis`) the part of g
    that V_l^H and V_k see is V_m F diag(conj W) V_n^H, and V_l^H, V_k
    absorb the symmetrizer of the trailing slots, so the block is
    c sum_e A_e F diag(conj W) B_e^H over the orbits e of the trailing
    slots, with the merge maps A and B at (l, m) and (k, n): one
    :func:`_merge_sum` over orbits_r, not over N**r, that reads no V.

    The kernel values may carry leading batch axes, shape (*batch,
    orbits_m, orbits_n), for the stack of the monomials of each kernel,
    each equal to its unbatched monomial to the bit.
    """
    m, n = kernel.m, kernel.n
    K = truncation
    if m > K or n > K:
        raise ValueError("monomial degree exceeds truncation")
    F = kernel.values
    orbits = (orbit_dimension(model, grid.size, m), orbit_dimension(model, grid.size, n))
    if F.shape[-2:] != orbits:
        raise ValueError(f"orbit kernel of shape {F.shape} does not match the "
                         f"orbits {orbits} of its slot counts")
    Wc = symmetric_isometry(model, grid, n).W.conj()
    blocks = {}
    dropped = False
    for k in range(n, K + 1):
        l = k - n + m
        if l > K:
            dropped = True
            continue
        c = math.sqrt(math.factorial(k) * math.factorial(l)) / math.factorial(k - n)
        index, value = _orbit_merge(model, grid, k, n)
        shape = (orbit_dimension(model, grid.size, l), orbit_dimension(model, grid.size, k))
        blocks[(l, k)] = c * _merge_sum(F, _orbit_merge(model, grid, l, m),
                                        (index, value.conj() * Wc[:, None]), shape)
    return QuadraticForm(model, grid, K, blocks, truncated=dropped)


# ---------------------------------------------------------------------------
# norms


# input bytes of one batched SVD: a group of large matrices is stacked in
# parts, so that its stacked copy does not set the peak memory of a norm call
_SVD_STACK_BYTES = 8 * 2**20


def _spectral_norms(mats: Sequence[np.ndarray]) -> list[float]:
    """Largest singular value of each matrix, in input order.

    Matrices of one shape and dtype go through batched SVDs of at most
    ``_SVD_STACK_BYTES`` of input each (one SVD unless they are large),
    which run the LAPACK routine of ``np.linalg.norm(M, ord=2)`` on each of
    them, so every value equals that norm to the bit.  A matrix with no
    entries has norm 0.0, as in numpy; its batched SVD would have no
    column 0.
    """
    groups: dict[tuple, list[int]] = {}
    for i, M in enumerate(mats):
        groups.setdefault((M.shape, M.dtype), []).append(i)
    out = [0.0] * len(mats)
    for (shape, _), idx in groups.items():
        if 0 in shape:
            continue
        step = max(1, _SVD_STACK_BYTES // mats[idx[0]].nbytes)
        for lo in range(0, len(idx), step):
            part = idx[lo:lo + step]
            top = np.linalg.svd(np.stack([mats[i] for i in part]), compute_uv=False)[:, 0]
            for i, s in zip(part, top.tolist()):
                out[i] = s
    return out


def _halved_pair_sums(s: list[float]) -> list[float]:
    """0.5 * (s[2i] + s[2i + 1]) for each i: the two one-sided norms of one operand."""
    return [0.5 * (a + b) for a, b in zip(s[::2], s[1::2])]


def weighted_norms(terms: Sequence[tuple[np.ndarray, np.ndarray | None, np.ndarray | None]]
                   ) -> list[float]:
    """Spectral norm of diag(wl) M diag(wr) of each term (M, wl, wr), in input order.

    ``wl`` weighs the rows of M and ``wr`` its columns; ``None`` leaves a
    side unweighted.  M may carry leading batch axes, shape (*batch, rows,
    cols), and then gives one norm per matrix in row-major batch order.
    The weights multiply as ``wl[:, None] * M``, then ``* wr``.  Every
    spectral norm of the package is taken here, all the norms of one call
    in one :func:`_spectral_norms` call.
    """
    mats = []
    for M, wl, wr in terms:
        if wl is not None:
            M = wl[:, None] * M
        if wr is not None:
            M = M * wr
        mats.extend(M.reshape((math.prod(M.shape[:-2]),) + M.shape[-2:]))
    return _spectral_norms(mats)


def orbit_weights(model: ScatteringModel, grid: RapidityGrid, omega: Indicatrix, n: int,
                  sign: int) -> np.ndarray:
    """exp(sign * omega(energy)) of each orbit of sector n: a side weight of compressed blocks.

    The energy is constant on permutation orbits, so the tuple weights w of
    ``energy_weights`` give diag(w) V = V diag(w[reps]).  V has orthonormal
    columns, so diag(wl) A diag(wr) on the S-symmetric sectors l <- k has
    the norm of diag(wl[reps_l]) C diag(wr[reps_k]) for the compressed
    block C = V_l^H A V_k, when A = P_l A P_k as for every form.
    """
    return energy_weights(grid, omega, n, sign)[symmetric_isometry(model, grid, n).reps]


def cross_norms(kernels: Sequence[KernelTensor], grid: RapidityGrid,
                omega: Indicatrix) -> list[float]:
    """Weighted cross norm of each kernel: half the sum of its two one-sided spectral norms.

    A kernel is read as a matrix from incoming to outgoing slot groups;
    each term damps one side by exp(-omega(energy)).  The weights of each
    slot count are computed once, and all the norms are taken in one
    :func:`weighted_norms` call.
    """
    weights = {j: energy_weights(grid, omega, j, -1)
               for j in dict.fromkeys(d for f in kernels for d in (f.m, f.n))}
    terms = []
    for f in kernels:
        F = f.matrix()
        terms += [(F, weights[f.m], None), (F, None, weights[f.n])]
    return _halved_pair_sums(weighted_norms(terms))


def _require_model(model: ScatteringModel, A: QuadraticForm) -> None:
    if A.model != model:
        raise ValueError(f"form is stored on the orbits of {A.model}, not of {model}")


def qform_norms(model: ScatteringModel, forms: Sequence[QuadraticForm],
                omega: Indicatrix) -> list[list[float]]:
    """Sector-n form norms on the S-symmetric Fock space, damped on either side, of each form.

    Per form A, the norms for n = 0..A.truncation.  With W = exp(-omega(energy))
    over sectors 0..n and P the symmetrizer, the sector-n norm is half the
    sum of the spectral norms of P A W P and P W A P, taken on the compressed
    blocks with the :func:`orbit_weights`; every form has A = P A P, so this
    is the norm of A W and W A over all tuples.  Each form is laid out once,
    over the orbits of sectors 0 to its truncation, and sectors 0..n are a
    leading principal block of it.  All the norms are taken in one
    :func:`weighted_norms` call.
    """
    weights: dict[tuple[RapidityGrid, int], tuple[np.ndarray, np.ndarray]] = {}
    terms = []
    for A in forms:
        _require_model(model, A)
        key = (A.grid, A.truncation)
        if key not in weights:
            parts = [orbit_weights(model, A.grid, omega, j, -1) for j in range(A.truncation + 1)]
            weights[key] = (np.concatenate(parts), np.cumsum([0] + [len(w) for w in parts]))
        w, offs = weights[key]
        C = np.zeros((offs[-1], offs[-1]), dtype=complex)
        for (l, k), blk in A.orbit_blocks.items():
            C[offs[l]:offs[l + 1], offs[k]:offs[k + 1]] = blk
        for d in offs[1:]:
            terms += [(C[:d, :d], None, w[:d]), (C[:d, :d], w[:d], None)]
    norms = iter(_halved_pair_sums(weighted_norms(terms)))
    return [[next(norms) for _ in range(A.truncation + 1)] for A in forms]
