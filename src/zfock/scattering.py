"""Two-particle scattering factors and the twisted permutation action.

A scattering factor S is a unimodular function of a rapidity difference
with S(-theta) = conj(S(theta)) = 1/S(theta).  Products of S values over
inversion pairs turn ordinary permutations of rapidity tuples into a
unitary representation on lattice tensors (:func:`act_d`).  The subspace
it fixes, the S-symmetric one, is represented by the orbit basis of
``zops.symmetric_isometry``, which also projects onto it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

FREE = "free"
ISING = "ising"
SINH_EXP = "sinh_exp"
TABLE = "table"

FAMILIES = (FREE, ISING, SINH_EXP, TABLE)

UNITARITY_TOL = 1e-12
MAX_MATERIALIZED_PERMUTATIONS = 8

# tabulated values are keyed on rounded rapidity differences
_KEY_DECIMALS = 12


def _key(theta: float) -> float:
    return round(float(theta), _KEY_DECIMALS)


def _validate_table(table: tuple[tuple[float, complex], ...]) -> None:
    lookup = dict(table)
    problems = []
    for theta, value in table:
        if not math.isfinite(theta):
            problems.append(f"non-finite rapidity {theta!r}")
            continue
        if abs(abs(value) - 1.0) > UNITARITY_TOL:
            problems.append(f"|S({theta})| = {abs(value)!r} differs from 1")
        mirror = lookup.get(_key(-theta))
        if mirror is None:
            problems.append(f"table misses {-theta}, needed for the inversion law")
        elif abs(mirror - np.conj(value)) > UNITARITY_TOL:
            problems.append(f"S({-theta}) != conj(S({theta}))")
    if problems:
        raise ValueError("invalid scattering table: " + "; ".join(problems))


@dataclass(frozen=True)
class ScatteringModel:
    """Unimodular two-particle scattering factor evaluated on rapidity differences.

    Families: ``free`` is identically 1, ``ising`` identically -1,
    ``sinh_exp`` is exp(i * a * sinh(theta)), and ``table`` carries explicit
    values validated for unitarity and the inversion law at load time.
    """

    family: str
    a: float = 0.0
    table: tuple[tuple[float, complex], ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown scattering family {self.family!r}")
        if self.family == TABLE:
            _validate_table(self.table)

    @classmethod
    def free(cls) -> "ScatteringModel":
        return cls(FREE)

    @classmethod
    def ising(cls) -> "ScatteringModel":
        return cls(ISING)

    @classmethod
    def sinh_exp(cls, a: float) -> "ScatteringModel":
        if not math.isfinite(a):
            raise ValueError("sinh_exp parameter must be finite")
        return cls(SINH_EXP, a=float(a))

    @classmethod
    def tabulated(cls, thetas: Sequence[float], values: Sequence[complex]) -> "ScatteringModel":
        if len(thetas) != len(values):
            raise ValueError("rapidity and value lists differ in length")
        table = tuple((_key(t), complex(v)) for t, v in zip(thetas, values))
        return cls(TABLE, table=table)

    @cached_property
    def sign_at_zero(self) -> int:
        """S(0), which is +1 or -1, read once per model.

        S(0) = -1 kills every tuple with a repeated point on the symmetric
        subspace.
        """
        return -1 if self.value(0.0).real < 0 else 1

    def value(self, theta: float) -> complex:
        """S evaluated at a single rapidity difference."""
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError(f"non-finite rapidity difference {theta!r}")
        if self.family == FREE:
            return 1.0 + 0.0j
        if self.family == ISING:
            return -1.0 + 0.0j
        if self.family == SINH_EXP:
            return complex(self._sinh_exp(theta, math.sinh))
        try:
            return dict(self.table)[_key(theta)]
        except KeyError:
            raise ValueError(f"scattering table has no entry at {theta!r}") from None

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of rapidity differences."""
        thetas = np.asarray(thetas, dtype=float)
        if not np.all(np.isfinite(thetas)):
            raise ValueError("non-finite rapidity difference")
        if self.family == FREE:
            return np.ones(thetas.shape, dtype=complex)
        if self.family == ISING:
            return -np.ones(thetas.shape, dtype=complex)
        if self.family == SINH_EXP:
            return self._sinh_exp(thetas, np.sinh)
        lookup = dict(self.table)
        flat = [lookup.get(_key(t)) for t in thetas.ravel()]
        if any(v is None for v in flat):
            missing = [t for t, v in zip(thetas.ravel(), flat) if v is None]
            raise ValueError(f"scattering table has no entry at {missing[:3]!r}")
        return np.array(flat, dtype=complex).reshape(thetas.shape)

    def _sinh_exp(self, thetas, sinh) -> np.ndarray:
        """exp(i a sinh(theta)), refusing a phase a sinh(theta) that overflowed.

        ``sinh`` is math.sinh for one value and np.sinh for arrays: the two
        can differ in the last place, and each caller keeps its own.
        """
        with np.errstate(over="ignore"):
            try:
                angle = self.a * sinh(thetas)
            except OverflowError:  # math.sinh past |theta| ~ 710, where np.sinh is inf
                angle = self.a * np.sinh(thetas)
        bad = ~np.isfinite(angle)
        if bad.any():
            raise ValueError(f"scattering phase a * sinh(theta) = "
                             f"{float(np.asarray(angle)[bad][0])!r} is non-finite for "
                             f"a = {self.a!r} at theta = {float(np.asarray(thetas)[bad][0])!r}")
        return np.exp(1j * angle)

    def inverse_model(self) -> "ScatteringModel":
        """The model whose factor is 1/S = conj(S)."""
        if self.family in (FREE, ISING):
            return self
        if self.family == SINH_EXP:
            return ScatteringModel.sinh_exp(-self.a)
        return ScatteringModel(TABLE, table=tuple((t, np.conj(v)) for t, v in self.table))


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the tuple of images (images[i-1] = sigma(i))."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images!r}")

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self o other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def inversion_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if self.images[i - 1] > self.images[j - 1]
        ]


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    if n > MAX_MATERIALIZED_PERMUTATIONS:
        raise ValueError(f"refusing to materialize {n}! permutations")
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# lattice (grid) versions: tensors over grid^n with one axis per slot


@lru_cache(maxsize=64)
def _pair_values_cached(model: ScatteringModel, points: tuple[float, ...]) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    mat = model.values(pts[:, None] - pts[None, :])
    mat.flags.writeable = False
    return mat


def pair_values(model: ScatteringModel, points: Sequence[float]) -> np.ndarray:
    """Matrix S(theta_i - theta_j) over a rapidity lattice."""
    return _pair_values_cached(model, tuple(float(p) for p in points))


def _axis(N: int, n: int, k: int) -> np.ndarray:
    """Index array broadcasting along slot k of an n-slot lattice tensor."""
    shape = [1] * n
    shape[k] = N
    return np.arange(N).reshape(shape)


def s_sigma_grid(model: ScatteringModel, points: Sequence[float], sigma: Permutation) -> np.ndarray:
    """Product of S(theta_sigma(i) - theta_sigma(j)) over the inversion pairs (i, j).

    Evaluated on every lattice tuple theta at once; shape (N,)*n.
    """
    N = len(points)
    n = sigma.n
    mat = pair_values(model, points)
    out = np.ones((N,) * n, dtype=complex)
    for i, j in sigma.inversion_pairs():
        out = out * mat[_axis(N, n, sigma(i) - 1), _axis(N, n, sigma(j) - 1)]
    return out


def permute_tensor(values: np.ndarray, sigma: Permutation) -> np.ndarray:
    """f(theta^sigma) as a lattice tensor: slot i reads slot sigma(i).

    The slots are the last sigma.n axes; leading axes are a batch and stay.
    """
    lead = values.ndim - sigma.n
    if lead < 0:
        raise ValueError("tensor rank is below the permutation size")
    zero_based = [img - 1 for img in sigma.images]
    inverse = np.argsort(zero_based)
    return values.transpose(*range(lead), *(lead + inverse))


def act_d(model: ScatteringModel, sigma: Permutation, values: np.ndarray,
          points: Sequence[float]) -> np.ndarray:
    """Twisted permutation action: S-factor times the rearranged tensor."""
    return s_sigma_grid(model, points, sigma) * permute_tensor(values, sigma)
