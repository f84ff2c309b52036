"""Momentum-space deformation of sector-blocked operators.

Every basis tuple is a total-momentum eigenvector, so the deformation by
a skew-symmetric matrix Q acts as an explicit phase on each matrix
element.  The deformed commutator built from it closes on expansion
coefficients: nested deformed commutators of an operator with deformed
creators and annihilators reproduce the contraction-sum coefficients.

Forms are stored on orbit pairs (``zops.QuadraticForm``), and the total
momentum of a tuple is constant on its permutation orbit, so the warp,
its spectral sums and the split by momentum transfer act on the
compressed blocks, through the momenta of the orbit representatives.
This is the warped-convolution structure: every phase is a function of
the bra and ket momenta alone.  A momentum-transfer piece stores only
the orbit pairs of its entries and is built from the split form when
read, so the split of a form holds two indices per nonzero entry however
many transfers it has.

On n-particle tuples the deformation is one diagonal phase: with
phi_Q(t) = exp(i sum_{a<b} p(t_a) . (Q p(t_b))) and D_Q = diag(phi_Q),
the symmetrizer of the model generated by Q is D_Q^H P_free D_Q.  So the
deformed-creator coefficients of A are the plain coefficients, under that
model, of A twisted to D_Q^H A D_Q, which acts on the orbit pairs of a
free-model form as the phase vector phi_Q read at the orbit
representatives (:func:`deformed_fmn_coefficients`).  The deformed ladder
is the warped free one (:func:`deformed_point_ladder`).
The graded bracket is linear and parity-free, X Y + sgn(Y X) with sgn
negating the blocks of odd l - k: against a ladder operator, every output
block draws on one number-parity class of the other operand, where it is
the graded commutator of that class.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .expansion import fmn_coefficients
from .fock import RapidityGrid, basis_tuples, sector_momentum
from .scattering import ScatteringModel
from .zops import (KernelTensor, OrbitKernel, QuadraticForm, point_ladder,
                   symmetric_isometry)


# momenta (and transfers) within this fraction of the largest one share a group
GROUPING_RTOL = 1e-12


class GroupingWarning(UserWarning):
    """Momentum clustering merged values that were not bitwise identical."""


@dataclass(frozen=True)
class SkewSymmetricQ:
    """Skew matrix -(a / 2 mass^2) * offdiag(1, 1) entering the deformation.

    Skew means x . (Q y) = -(Q x) . y in the Minkowski pairing, so every
    momentum pairs to zero with itself.
    """

    a: float
    mass: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("deformation needs finite a and positive mass")

    def pairing(self, x: Sequence[float], y: Sequence[float]) -> float:
        """Minkowski product x . (Q y)."""
        return float(self.pairing_arrays(x[0], x[1], y[0], y[1]))

    def pairing_arrays(self, x0, x1, y0, y1) -> np.ndarray:
        c = -self.a / (2.0 * self.mass**2)
        return c * (np.asarray(x0) * np.asarray(y1) - np.asarray(x1) * np.asarray(y0))

    def scaled(self, c: float) -> "SkewSymmetricQ":
        return SkewSymmetricQ(c * self.a, self.mass)

    def __neg__(self) -> "SkewSymmetricQ":
        return self.scaled(-1.0)

    def __add__(self, other: "SkewSymmetricQ") -> "SkewSymmetricQ":
        if self.mass != other.mass:
            raise ValueError("deformations carry different masses")
        return SkewSymmetricQ(self.a + other.a, self.mass)

    def scattering_model(self) -> ScatteringModel:
        """The scattering factor exp(i a sinh) generated by this deformation."""
        return ScatteringModel.sinh_exp(self.a)


def _check_mass(A: QuadraticForm, Q: SkewSymmetricQ) -> None:
    if A.grid.mass != Q.mass:
        raise ValueError("deformation mass differs from the lattice mass")


def _orbit_momentum(model: ScatteringModel, grid: RapidityGrid,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Total two-momentum of the orbit representatives of the n-particle sector."""
    reps = symmetric_isometry(model, grid, n).reps
    p0, p1 = sector_momentum(grid, n)
    return p0[reps], p1[reps]


def warp(A: QuadraticForm, Q: SkewSymmetricQ) -> QuadraticForm:
    """Deformed operator: each matrix element picks up exp(i q . (Q p)).

    q and p are the total momenta of the row and column basis tuples.  This
    is the spectral sum over momentum projectors evaluated exactly, and the
    left and right orderings agree because Q is skew.  The momenta are
    constant on orbits, so the phase multiplies each compressed block
    entrywise, read at the orbit representatives.
    """
    _check_mass(A, Q)
    return A._like({(l, k): _phase_block(A.model, A.grid, Q, l, k) * C
                    for (l, k), C in A.orbit_blocks.items()})


def _phase(Q: SkewSymmetricQ, x0, x1, y0, y1, sign: complex, key) -> np.ndarray:
    """exp(sign * x . (Q y)), refusing a pairing that overflowed on block ``key``."""
    angle = Q.pairing_arrays(x0, x1, y0, y1)
    if not np.isfinite(angle).all():
        raise ValueError(f"warp phase q . (Q p) is non-finite on block {key}: "
                         f"a = {Q.a!r} overflows on this lattice")
    return np.exp(sign * angle)


@lru_cache(maxsize=64)
def _phase_block(model: ScatteringModel, grid: RapidityGrid, Q: SkewSymmetricQ,
                 l: int, k: int) -> np.ndarray:
    """exp(i q . (Q p)) over the orbit representatives of sectors l and k."""
    q0, q1 = _orbit_momentum(model, grid, l)
    p0, p1 = _orbit_momentum(model, grid, k)
    phase = _phase(Q, q0[:, None], q1[:, None], p0[None, :], p1[None, :], 1j, (l, k))
    phase.setflags(write=False)
    return phase


def _cluster(values: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Partition the rows of an (M, 2) array; returns labels and group means.

    Rows within atol of each other in both coordinates always share a
    group: the groups are the connected components of that relation.
    Labels follow the lexicographic order of each group's smallest row.
    """
    order = np.lexsort((values[:, 1], values[:, 0]))
    rows = values[order]
    distinct = np.ones(len(rows), dtype=bool)
    distinct[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    uniq = rows[distinct]
    # candidate pairs (i, j), i < j, from a window on the sorted first
    # coordinate wide enough that rounding cannot drop a pair within atol
    hi = np.searchsorted(uniq[:, 0], uniq[:, 0] + 2 * atol, side="right")
    count = hi - np.arange(len(uniq)) - 1
    left = np.repeat(np.arange(len(uniq)), count)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(count) - count, count)
    near = np.all(np.abs(uniq[left] - uniq[right]) <= atol, axis=1)
    left, right = left[near], right[near]
    # lower both ends of each pair to their smaller root and jump, until
    # stable: then every row points at the smallest row of its component
    root = np.arange(len(uniq))
    while True:
        low = np.minimum(root[left], root[right])
        lowered = root.copy()
        np.minimum.at(lowered, left, low)
        np.minimum.at(lowered, right, low)
        lowered = lowered[lowered]
        if (lowered == root).all():
            break
        root = lowered
    # the same labels as np.unique(root, return_inverse=True), whose first
    # call alone grows a process's peak RSS by about 0.4 MB
    group = (np.cumsum(root == np.arange(len(root))) - 1)[root]
    sorted_labels = group[np.cumsum(distinct) - 1]
    labels = np.empty(len(values), dtype=int)
    labels[order] = sorted_labels
    # sequential sums in lexicographic order: bitwise the mean(axis=0) of
    # each group's members taken in that order
    sizes = np.bincount(sorted_labels)
    reps = np.stack([np.bincount(sorted_labels, weights=rows[:, c]) for c in (0, 1)],
                    axis=1) / sizes[:, None]
    if len(group) > len(sizes):
        warnings.warn("momentum values were grouped within tolerance", GroupingWarning,
                      stacklevel=3)
    return labels, reps


def _momentum_clusters(model: ScatteringModel, grid: RapidityGrid,
                       truncation: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Cluster the total momenta of all orbit representatives up to the truncation.

    Returns per-sector label arrays and the representative momenta.
    """
    moms = [np.stack(_orbit_momentum(model, grid, s), axis=1) for s in range(truncation + 1)]
    allmoms = np.concatenate(moms, axis=0)
    scale = max(1.0, float(np.max(np.abs(allmoms))))
    labels, reps = _cluster(allmoms, GROUPING_RTOL * scale)
    return np.split(labels, np.cumsum([len(m) for m in moms])[:-1]), reps


def warp_spectral(A: QuadraticForm, Q: SkewSymmetricQ, side: str = "right") -> QuadraticForm:
    """Deformation computed as the literal spectral sum over momentum clusters.

    ``side`` selects whether the momentum projector multiplies from the
    right or from the left; skewness of Q makes both agree with
    :func:`warp` up to clustering error.
    """
    _check_mass(A, Q)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    labels, reps = _momentum_clusters(A.model, A.grid, A.truncation)
    blocks = {}
    for (l, k), mat in A.orbit_blocks.items():
        q0, q1 = _orbit_momentum(A.model, A.grid, l)
        p0, p1 = _orbit_momentum(A.model, A.grid, k)
        key_labels = labels[k] if side == "right" else labels[l]
        rep = reps[key_labels]  # one representative momentum per keyed index
        if side == "right":
            row = _phase(Q, q0[:, None], q1[:, None], rep[None, :, 0], rep[None, :, 1],
                         1j, (l, k))
            col = _phase(Q, p0, p1, rep[:, 0], rep[:, 1], -1j, (l, k))
            blocks[(l, k)] = row * mat * col[None, :]
        else:
            row = _phase(Q, q0, q1, rep[:, 0], rep[:, 1], 1j, (l, k))
            col = _phase(Q, p0[None, :], p1[None, :], rep[:, None, 0], rep[:, None, 1],
                         -1j, (l, k))
            blocks[(l, k)] = row[:, None] * mat * col
    return A._like(blocks)


@dataclass(frozen=True)
class HomogeneousComponent:
    """Piece of an operator shifting total momentum by a fixed transfer.

    It holds where its entries sit in ``source``: per block key, the rows
    and columns of its orbit pairs.  :attr:`form` builds the piece from the
    source on each read and keeps nothing, so the pieces of a form together
    hold two indices per nonzero entry.
    """

    transfer: tuple[float, float]
    source: QuadraticForm
    entries: tuple[tuple[tuple[int, int], np.ndarray, np.ndarray], ...]

    @property
    def form(self) -> QuadraticForm:
        """The source's entries at this piece's orbit pairs, zeros elsewhere in each block."""
        blocks = {}
        for key, i, j in self.entries:
            mat = self.source.orbit_blocks[key]
            piece = np.zeros_like(mat)
            piece[i, j] = mat[i, j]
            blocks[key] = piece
        return self.source._like(blocks)


def momentum_sector_decompose(A: QuadraticForm) -> list[HomogeneousComponent]:
    """Split an operator by momentum transfer (row momentum minus column momentum).

    The pieces sum to A exactly, and each is an eigenvector of translation
    conjugation with phase exp(i transfer . x).  Transfers equal within
    GROUPING_RTOL (relative to the largest) share one piece.  The transfer
    is constant on each pair of orbits, so the compressed blocks are split
    by the transfers of their representative pairs.  Each piece keeps the
    orbit pairs of its entries, grouped once per block by a stable sort of
    their labels, and builds its blocks from A when read
    (:class:`HomogeneousComponent`).
    """
    entries = []  # (block key, rows, columns) of the nonzero entries
    transfers = []
    for (l, k), mat in A.orbit_blocks.items():
        q0, q1 = _orbit_momentum(A.model, A.grid, l)
        p0, p1 = _orbit_momentum(A.model, A.grid, k)
        i, j = np.nonzero(mat)
        if len(i):
            entries.append(((l, k), i, j))
            transfers.append(np.stack([q0[i] - p0[j], q1[i] - p1[j]], axis=1))
    if not entries:
        return []
    arr = np.concatenate(transfers)
    scale = max(1.0, float(np.max(np.abs(arr))))
    labels, reps = _cluster(arr, GROUPING_RTOL * scale)
    pieces: list[list] = [[] for _ in reps]
    start = 0
    for key, i, j in entries:
        block_labels = labels[start:start + len(i)]
        start += len(i)
        # stable, so each label keeps its entries in row-major order
        order = np.argsort(block_labels, kind="stable")
        sorted_labels = block_labels[order]
        cuts = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
        for lab, hit in zip(sorted_labels[np.r_[0, cuts]], np.split(order, cuts)):
            pieces[lab].append((key, i[hit], j[hit]))
    order = np.lexsort((reps[:, 1], reps[:, 0]))
    return [HomogeneousComponent((float(reps[lab][0]), float(reps[lab][1])), A,
                                 tuple(pieces[lab]))
            for lab in order]


def q_commutator(A: QuadraticForm, B: QuadraticForm, Q: SkewSymmetricQ) -> QuadraticForm:
    """Deformed commutator: AB minus the twice-deformed reversed product."""
    if not math.isfinite(2.0 * Q.a):
        raise ValueError(f"deformed commutator needs 2a, which is non-finite "
                         f"for a = {Q.a!r}")
    back = Q.scaled(-2.0)
    fwd = Q.scaled(2.0)
    return (A @ B) - warp(warp(B, back) @ warp(A, back), fwd)


# ---------------------------------------------------------------------------
# deformed creators and the nested-commutator coefficients


def deformed_point_ladder(grid: RapidityGrid, truncation: int,
                          Q: SkewSymmetricQ) -> tuple[QuadraticForm, QuadraticForm]:
    """Deformed creators and annihilators at every lattice point: the warped free ladder.

    Each is one form with the lattice point as its batch axis, as
    ``zops.point_ladder`` builds them.
    """
    creators, annihilators = point_ladder(ScatteringModel.free(), grid, truncation)
    return warp(creators, Q), warp(annihilators, Q)


def deformed_fmn_coefficients(A: QuadraticForm, Q: SkewSymmetricQ, m: int,
                              n: int) -> OrbitKernel:
    """Expansion coefficients of A against the deformed creator vectors.

    Exchange factors use the scattering model generated by Q, so this is
    the coefficient formula of the interacting theory realized on the
    ordinary symmetric space, where A must be stored (the free model).  The
    result lies on the orbit pairs of the model of Q.
    These are the plain coefficients, under the model of Q, of the twist
    D_Q^H A D_Q, of which only the blocks (l, k) with l <= m, k <= n enter.
    Both models admit every multiset, and V is positive at each orbit
    representative in both bases, so D_Q^H V_free = V_Q diag(conj phi_Q)
    with phi_Q read at the representatives: the twist is conj(phi_l) C phi_k.
    """
    _check_mass(A, Q)
    free = ScatteringModel.free()
    if A.model != free:
        raise ValueError(f"deformed coefficients act on forms stored under the free model, "
                         f"not under {A.model}")
    # exp(i p(g) . (Q p(h))) over lattice points: every point is a one-tuple orbit
    pair = _phase_block(free, A.grid, Q, 1, 1)
    phases = []
    for j in range(max(m, n) + 1):
        reps = basis_tuples(A.grid.size, j)[symmetric_isometry(free, A.grid, j).reps]
        phi = np.ones(len(reps), dtype=complex)
        for a in range(j):
            for b in range(a + 1, j):
                phi = phi * pair[reps[:, a], reps[:, b]]
        phases.append(phi)
    blocks = {(l, k): phases[l].conj()[:, None] * C * phases[k][None, :]
              for (l, k), C in A.orbit_blocks.items() if l <= m and k <= n}
    model = Q.scattering_model()
    twisted = QuadraticForm(model, A.grid, A.truncation, blocks, A.truncated)
    return fmn_coefficients(model, twisted, m, n)


def _nested_family(A: QuadraticForm, total: int, creators: QuadraticForm,
                   annihilators: QuadraticForm,
                   bracket: Callable[[QuadraticForm, QuadraticForm], QuadraticForm]
                   ) -> dict[tuple[int, int], KernelTensor]:
    """Nested-bracket vacuum tensors for every (m, n) with m + n <= total.

    A node X is wrapped with a creator c as ``bracket(X, c)`` and with an
    annihilator a as ``bracket(a, X)``.  ``creators`` and ``annihilators``
    are point ladders, one form with the lattice point as batch axis
    (``zops.point_ladder``), and each layer of nodes is one form whose
    batch axes are the wrapped points: a wrap with a creator prepends the
    ladder's axis, one with an annihilator inserts it after the earlier
    annihilator axes, before the creator axes.  So the batch axes of a
    layer's (0, 0) block are the (m, n) tensor itself, the annihilator slots
    first.  Creator layers are shared between readouts, so the whole family
    costs little more than its deepest members.

    Only the (0, 0) entry of each nested commutator is read, and each wrap
    with one ladder operator moves a block (l, k) to blocks with l + k
    changed by exactly one.  A node that will be wrapped at most r more
    times therefore reaches the vacuum only through its blocks with
    l + k <= r, and every node keeps just those: r is ``total`` for A,
    ``total - n`` at creator layer n and ``total - n - m`` for an
    annihilator sub-node below it.  A kept block of a wrap draws only on
    kept blocks of its operand, summed in the same order, so the tensors
    are bitwise those of the unpruned nesting.
    """
    N = A.grid.size
    out = {}

    def vac(X: QuadraticForm, m: int, n: int) -> None:
        # the vacuum is its own orbit, with V_0 = [[1]]
        out[(m, n)] = np.zeros((N,) * (m + n), dtype=complex)
        blk = X.orbit_blocks.get((0, 0))
        if blk is not None:
            out[(m, n)][...] = blk[..., 0, 0]

    def reachable(X: QuadraticForm, r: int) -> QuadraticForm:
        return X._like({(l, k): C for (l, k), C in X.orbit_blocks.items() if l + k <= r})

    layer = reachable(A, total)
    for n in range(total + 1):
        if n:
            # the ladder's point axis first, then unit axes over the n - 1 earlier points
            wrap = creators.batch((slice(None),) + (None,) * (n - 1))
            layer = reachable(bracket(layer, wrap), total - n)
        vac(layer, 0, n)
        sub = layer
        wrap = annihilators.batch((slice(None),) + (None,) * n)
        for m in range(1, total + 1 - n):
            # a unit axis after the m - 1 annihilator axes, for the ladder's point axis
            sub = sub.batch((slice(None),) * (m - 1) + (None,))
            sub = reachable(bracket(wrap, sub), total - n - m)
            vac(sub, m, n)
    return {mn: KernelTensor(mn[0], mn[1], v) for mn, v in out.items()}


def _commutator(X: QuadraticForm, Y: QuadraticForm) -> QuadraticForm:
    return X @ Y - Y @ X


def _graded_commutator(X: QuadraticForm, Y: QuadraticForm) -> QuadraticForm:
    """X Y + sgn(Y X), sgn negating the blocks (l, k) with odd l - k.

    With a ladder operator on one side, the blocks of odd l - k come from
    the even part of the other operand and the rest from its odd part, so
    this is X Y - Y X on the even part and X Y + Y X on the odd one.
    """
    YX = Y @ X
    return X @ Y + YX._like({(l, k): (-1.0) * C if (l - k) % 2 else C
                             for (l, k), C in YX.orbit_blocks.items()})


def nested_free_family(A: QuadraticForm, total: int) -> dict[tuple[int, int], KernelTensor]:
    """Plain nested commutator tensors for all m + n <= total, shared layers."""
    creators, annihilators = point_ladder(ScatteringModel.free(), A.grid, A.truncation)
    return _nested_family(A, total, creators, annihilators, _commutator)


def nested_graded_family(A: QuadraticForm, total: int) -> dict[tuple[int, int], KernelTensor]:
    """Graded nested tensors for all m + n <= total, shared layers."""
    creators, annihilators = point_ladder(ScatteringModel.ising(), A.grid, A.truncation)
    return _nested_family(A, total, creators, annihilators, _graded_commutator)


def nested_q_family(A: QuadraticForm, Q: SkewSymmetricQ,
                    total: int) -> dict[tuple[int, int], KernelTensor]:
    """Deformed nested tensors for all m + n <= total, shared layers."""
    _check_mass(A, Q)
    creators, annihilators = deformed_point_ladder(A.grid, A.truncation, Q)
    return _nested_family(A, total, creators, annihilators,
                          lambda X, Y: q_commutator(X, Y, Q))
