"""Truncated Fock space over a finite rapidity lattice.

States carry one dense tensor per particle sector, with one axis per slot
running over the lattice.  Counting measure replaces the rapidity integral,
so every operator identity of the continuum theory becomes a finite matrix
identity here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


def minkowski(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-dimensional Minkowski product x0*y0 - x1*y1."""
    return float(x[0]) * float(y[0]) - float(x[1]) * float(y[1])


@dataclass(frozen=True)
class RapidityGrid:
    """Strictly increasing rapidity lattice with a particle mass."""

    points: tuple[float, ...]
    mass: float

    def __post_init__(self):
        pts = self.points
        if len(pts) == 0:
            raise ValueError("empty rapidity lattice")
        if any(not math.isfinite(p) for p in pts):
            raise ValueError("non-finite lattice point")
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            if b <= a:
                kind = "duplicate" if b == a else "out-of-order"
                raise ValueError(f"{kind} lattice point at index {i + 1}: "
                                 "points must be strictly increasing")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass!r}")
        object.__setattr__(self, "points", tuple(float(p) for p in pts))
        object.__setattr__(self, "mass", float(self.mass))

    @property
    def size(self) -> int:
        return len(self.points)

    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def momentum(self, theta: float) -> np.ndarray:
        """On-shell two-momentum (m cosh, m sinh)."""
        return self.mass * np.array([math.cosh(theta), math.sinh(theta)])

    def shifted(self, lam: float) -> "RapidityGrid":
        return RapidityGrid(tuple(p - lam for p in self.points), self.mass)


@lru_cache(maxsize=None)
def basis_tuples(N: int, n: int) -> np.ndarray:
    """All lattice multi-indices of length n, row-major; shape (N**n, n)."""
    if n == 0:
        out = np.zeros((1, 0), dtype=int)
    else:
        out = np.stack(np.unravel_index(np.arange(N**n), (N,) * n), axis=1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def energy_grid(grid: RapidityGrid, n: int) -> np.ndarray:
    """Dimensionless energy of every n-tuple, flat over the sector basis."""
    coshes = np.cosh(grid.array())
    out = coshes[basis_tuples(grid.size, n)].sum(axis=1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def sector_momentum(grid: RapidityGrid, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Total two-momentum (p0, p1) of every n-tuple, flat over the sector basis."""
    tuples = basis_tuples(grid.size, n)
    p0 = (grid.mass * np.cosh(grid.array()))[tuples].sum(axis=1)
    p1 = (grid.mass * np.sinh(grid.array()))[tuples].sum(axis=1)
    p0.flags.writeable = False
    p1.flags.writeable = False
    return p0, p1


_OMEGA_FAMILIES = ("zero", "sqrt", "log")


@dataclass(frozen=True)
class Indicatrix:
    """Monotone sublinear weight function omega applied to dimensionless energies."""

    family: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in _OMEGA_FAMILIES:
            raise ValueError(f"unknown indicatrix family {self.family!r}")
        if self.family != "zero" and self.alpha < 0:
            raise ValueError("indicatrix parameter must be nonnegative")

    @classmethod
    def zero(cls) -> "Indicatrix":
        return cls("zero")

    @classmethod
    def sqrt(cls, alpha: float) -> "Indicatrix":
        return cls("sqrt", alpha=float(alpha))

    @classmethod
    def log(cls, alpha: float) -> "Indicatrix":
        return cls("log", alpha=float(alpha))

    def weight(self, p) -> np.ndarray:
        """omega evaluated elementwise on nonnegative arguments."""
        p = np.asarray(p, dtype=float)
        if self.family == "zero":
            return np.zeros(p.shape)
        if self.family == "sqrt":
            return self.alpha * np.sqrt(p)
        return self.alpha * np.log1p(p)


@dataclass
class FockState:
    """Sector tensors psi_0 .. psi_K over a common lattice.

    Sector n has shape (N,)*n.  ``truncated`` records that some operation
    discarded content that would have lived above the truncation.
    """

    grid: RapidityGrid
    sectors: list[np.ndarray]
    truncated: bool = False

    def __post_init__(self):
        N = self.grid.size
        fixed = []
        for n, sec in enumerate(self.sectors):
            arr = np.asarray(sec, dtype=complex)
            if arr.shape != (N,) * n:
                raise ValueError(f"sector {n} has shape {arr.shape}, expected {(N,) * n}")
            fixed.append(arr)
        self.sectors = fixed

    @property
    def truncation(self) -> int:
        return len(self.sectors) - 1

    @classmethod
    def zeros(cls, grid: RapidityGrid, truncation: int) -> "FockState":
        N = grid.size
        return cls(grid, [np.zeros((N,) * n, dtype=complex) for n in range(truncation + 1)])

    def sector(self, n: int) -> np.ndarray:
        return self.sectors[n]

    def inner(self, other: "FockState") -> complex:
        """Sesquilinear pairing, antilinear in self."""
        if self.grid != other.grid or self.truncation != other.truncation:
            raise ValueError("states live on different spaces")
        return complex(sum(np.vdot(a, b) for a, b in zip(self.sectors, other.sectors)))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def __add__(self, other: "FockState") -> "FockState":
        if self.grid != other.grid or self.truncation != other.truncation:
            raise ValueError("states live on different spaces")
        return FockState(self.grid, [a + b for a, b in zip(self.sectors, other.sectors)],
                         self.truncated or other.truncated)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + (-1.0) * other

    def __mul__(self, c) -> "FockState":
        return FockState(self.grid, [c * a for a in self.sectors], self.truncated)

    __rmul__ = __mul__


def translation_phases(grid: RapidityGrid, n: int, x: Sequence[float]) -> np.ndarray:
    """exp(i p(tuple) . x) of every n-tuple, flat over the sector basis."""
    p0, p1 = sector_momentum(grid, n)
    return np.exp(1j * (p0 * x[0] - p1 * x[1]))


def energy_weights(grid: RapidityGrid, omega: Indicatrix, n: int, sign: int) -> np.ndarray:
    """exp(sign * omega(energy)) of every n-tuple, flat over the sector basis."""
    return np.exp(sign * omega.weight(energy_grid(grid, n)))


def translate(state: FockState, x: Sequence[float]) -> FockState:
    """Phase rotation by exp(i p(tuple) . x) in every sector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("spacetime shift must be a 2-vector")
    N = state.grid.size
    out = [translation_phases(state.grid, n, x).reshape((N,) * n) * sec
           for n, sec in enumerate(state.sectors)]
    return FockState(state.grid, out, state.truncated)


def boost(state: FockState, lam: float) -> FockState:
    """Rapidity shift: identical amplitudes reinterpreted over the lattice moved by -lam."""
    return FockState(state.grid.shifted(lam), [sec.copy() for sec in state.sectors],
                     state.truncated)


def reflect(state: FockState) -> FockState:
    """Antiunitary spacetime reflection: conjugate and reverse each tuple."""
    out = []
    for n, sec in enumerate(state.sectors):
        out.append(np.conj(sec.transpose(tuple(reversed(range(n))))) if n else np.conj(sec))
    return FockState(state.grid, out, state.truncated)


def apply_omega_weight(state: FockState, omega: Indicatrix, sign: int) -> FockState:
    """Multiply each amplitude by exp(sign * omega(energy of the tuple))."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    N = state.grid.size
    out = [energy_weights(state.grid, omega, n, sign).reshape((N,) * n) * sec
           for n, sec in enumerate(state.sectors)]
    return FockState(state.grid, out, state.truncated)
