"""Dense reference constructions of the S-symmetric subspace, for the tests.

The package represents the symmetric subspace only through the orbit
isometry ``zops.symmetric_isometry``.  These are the dense oracles it is
checked against: the N**n x N**n symmetrization projector, summed over all
permutations as its definition reads, and the multi-creator vector matrices
built from it.
"""

import math
from functools import lru_cache

import numpy as np

from zfock.fock import basis_tuples
from zfock.scattering import all_permutations, s_sigma_grid


def _flat(tuples: np.ndarray, N: int) -> np.ndarray:
    return tuples @ (N ** np.arange(tuples.shape[1] - 1, -1, -1))


@lru_cache(maxsize=None)
def symmetrizer_matrix(model, grid, n: int) -> np.ndarray:
    """P with P[t, t^sigma] = sum of s_sigma(t) / n! over all permutations sigma."""
    N = grid.size
    tuples = basis_tuples(N, n)
    P = np.zeros((N**n, N**n), dtype=complex)
    rows = np.arange(N**n)
    for sigma in all_permutations(n):
        cols = _flat(tuples[:, [img - 1 for img in sigma.images]], N)
        P[rows, cols] += s_sigma_grid(model, grid.points, sigma).ravel()
    P /= math.factorial(n)
    P.flags.writeable = False
    return P


def left_vector_matrix(model, grid, j: int) -> np.ndarray:
    """Columns are the j-fold creator vectors, indexed row-major by the tuple."""
    return math.sqrt(math.factorial(j)) * symmetrizer_matrix(model, grid, j)


def right_vector_matrix(model, grid, j: int) -> np.ndarray:
    """Columns are j-fold creator vectors applied in descending slot order."""
    rev = _flat(basis_tuples(grid.size, j)[:, ::-1], grid.size)
    return left_vector_matrix(model, grid, j)[:, rev]
