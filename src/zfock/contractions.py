"""Contraction combinatorics for mixed creator/annihilator monomials.

A contraction pairs some outgoing slots (1..m) with incoming slots
(m+1..m+n).  Each carries a lattice delta factor, an exchange factor
accumulated by pulling the paired slots together, and a reflection
factor used by the conjugate-coefficient identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .scattering import Permutation, ScatteringModel, pair_values


@dataclass(frozen=True)
class Contraction:
    """Pairing of distinct outgoing slots with distinct incoming slots.

    Pairs (l, r) satisfy 1 <= l <= m < r <= m+n and are stored sorted by r.
    """

    m: int
    n: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple(sorted((tuple(p) for p in self.pairs), key=lambda p: p[1]))
        lefts = [l for l, _ in pairs]
        rights = [r for _, r in pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("contracted slots must be pairwise distinct")
        for l, r in pairs:
            if not (1 <= l <= self.m < r <= self.m + self.n):
                raise ValueError(f"pair {(l, r)} out of range for ({self.m},{self.n})")
        object.__setattr__(self, "pairs", pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def free_left(self) -> tuple[int, ...]:
        used = {l for l, _ in self.pairs}
        return tuple(i for i in range(1, self.m + 1) if i not in used)

    @property
    def free_right(self) -> tuple[int, ...]:
        used = {r for _, r in self.pairs}
        return tuple(i for i in range(self.m + 1, self.m + self.n + 1) if i not in used)


@lru_cache(maxsize=None)
def enumerate_contractions(m: int, n: int) -> tuple[Contraction, ...]:
    """All contractions of (m, n), the empty one first."""
    out = []
    for k in range(min(m, n) + 1):
        for rights in itertools.combinations(range(m + 1, m + n + 1), k):
            for lefts in itertools.permutations(range(1, m + 1), k):
                out.append(Contraction(m, n, tuple(zip(lefts, rights))))
    return tuple(sorted(out, key=lambda c: (c.size, c.pairs)))


def _crossed(a: int, b: int, m: int) -> bool:
    """Whether exactly one of the two concatenated-slot indices is outgoing."""
    return (a <= m) != (b <= m)


def _factor_indices(C: Contraction) -> list[tuple[int, int]]:
    """Concatenated-slot index pairs (a, b) whose S(xi_a - xi_b) values multiply.

    Crossed pairs enter with swapped arguments.  First the sweep factors of
    each contracted pair over the slots strictly between its ends, then one
    factor per nested pair combination.
    """
    out = []
    for l, r in C.pairs:
        for p in range(l + 1, r):
            a, b = p, l
            if _crossed(a, b, C.m):
                a, b = b, a
            out.append((a, b))
    for (li, ri), (lj, rj) in itertools.combinations(C.pairs, 2):
        # pairs are sorted by r, so ri < rj; nested combination needs li < lj
        if li < lj:
            a, b = lj, ri
            if _crossed(a, b, C.m):
                a, b = b, a
            out.append((a, b))
    return out


def _sweep_indices(C: Contraction) -> list[list[tuple[int, int]]]:
    """Per contracted pair, the (a, b) pairs of the full exchange sweep of its left slot.

    The sweep runs over every concatenated slot, the left slot included;
    crossed pairs enter with swapped arguments.
    """
    out = []
    for l, _ in C.pairs:
        sweep = []
        for p in range(1, C.m + C.n + 1):
            a, b = l, p
            if _crossed(a, b, C.m):
                a, b = b, a
            sweep.append((a, b))
        out.append(sweep)
    return out


@lru_cache(maxsize=None)
def _support_layout(C: Contraction) -> tuple[tuple[int, ...], bytes, tuple[bytes, ...]]:
    """Variables of the delta support of C and the factor pairs on them.

    The support has one variable per free outgoing slot, then one per free
    incoming slot, then one per contracted pair.  Returns the free slots,
    the (a, b) pairs of ``_factor_indices`` and of each sweep of
    ``_sweep_indices`` as variable pairs, flattened into bytes (u0, v0,
    u1, v1, ...) to keep the cache small.
    """
    free = C.free_left + C.free_right
    var = {slot: i for i, slot in enumerate(free)}
    for j, (l, r) in enumerate(C.pairs):
        var[l] = var[r] = len(free) + j
    exchange = bytes(var[s] for pair in _factor_indices(C) for s in pair)
    sweeps = tuple(bytes(var[s] for pair in sweep for s in pair)
                   for sweep in _sweep_indices(C))
    return free, exchange, sweeps


def _pair_product(mat: np.ndarray, pairs: bytes, V: int) -> np.ndarray:
    """Product of mat[x_u, x_v] over flattened variable pairs; broadcasts to (N,)*V.

    Each partial product spans only the variables met so far; every entry
    still sees the same multiplications in the same order.
    """
    N = mat.shape[0]
    out = np.ones((1,) * V, dtype=complex)
    flat = iter(pairs)
    for u, v in zip(flat, flat):
        shape = [1] * V
        shape[u] = shape[v] = N
        if u == v:
            vals = np.diagonal(mat)
        else:
            vals = mat if u < v else mat.T
        out = out * vals.reshape(shape)
    return out


def add_on_support(out: np.ndarray, model: ScatteringModel, points: Sequence[float],
                   C: Contraction, reduced: np.ndarray,
                   reflected: bool = False) -> None:
    """Add factor * reduced to ``out`` on the delta support of C.

    ``reduced`` is indexed by the free outgoing then free incoming slots.
    The factor is the exchange factor (the pairs of ``_factor_indices``),
    times the reflection factor (one ``1 - sweep`` per pair of
    ``_sweep_indices``) when ``reflected`` is set, each multiplied in
    list order.  The update equals adding the dense term
    ``delta_mask * s_factor_grid (* r_factor_grid)`` times ``reduced``
    broadcast over the free slots, which is zero off the support, so only
    the support is touched; those dense oracles live in
    ``tests/reference.py``, and this is the only implementation of the
    term in the package.  Signs and weights of a contraction sum are
    applied by the caller, once per nesting level (``expansion``).
    """
    free, exchange, sweeps = _support_layout(C)
    if reduced.ndim != len(free):
        raise ValueError("reduced tensor rank does not match the free slots")
    V = len(free) + C.size
    st = out.strides
    strides = tuple(st[s - 1] for s in free) + tuple(st[l - 1] + st[r - 1] for l, r in C.pairs)
    # distinct support points lie at distinct offsets, so adding through the view is safe
    view = np.lib.stride_tricks.as_strided(out, (len(points),) * V, strides)
    mat = pair_values(model, points)
    factor = _pair_product(mat, exchange, V)
    if reflected:
        refl = np.ones((1,) * V, dtype=complex)
        for sweep in sweeps:
            refl = refl * (1.0 - _pair_product(mat, sweep, V))
        factor = factor * refl
    view += factor * reduced.reshape(reduced.shape + (1,) * C.size)


def compose(C: Contraction, D: Contraction) -> Contraction:
    """Union of C with a contraction D of the slots left free by C.

    D is renumbered: its outgoing index i means the i-th free outgoing slot
    of C, and likewise on the incoming side.
    """
    c = C.size
    if (D.m, D.n) != (C.m - c, C.n - c):
        raise ValueError("inner contraction does not match the free slots")
    fl, fr = C.free_left, C.free_right
    lifted = tuple((fl[l - 1], fr[r - D.m - 1]) for l, r in D.pairs)
    return Contraction(C.m, C.n, C.pairs + lifted)


def reflect_contraction(C: Contraction) -> Contraction:
    """Swap the roles of the slot groups: (l, r) becomes (r - m, l + n)."""
    return Contraction(C.n, C.m, tuple((r - C.m, l + C.n) for l, r in C.pairs))


def sigma_rho(C: Contraction) -> tuple[Permutation, Permutation]:
    """Group permutations that reorder each side so the contracted slots meet.

    On the delta support the exchange factor splits as the outgoing-side
    factor of sigma times the incoming-side factor of rho.
    """
    fl, fr = C.free_left, C.free_right
    sigma = Permutation(fl + tuple(l for l, _ in C.pairs))
    rho = Permutation(tuple(r - C.m for _, r in reversed(C.pairs))
                      + tuple(r - C.m for r in fr))
    return sigma, rho
