"""Reference constructions for the tests, kept out of the package.

The package represents the symmetric subspace only through the orbit
isometry ``zops.symmetric_isometry``.  These are the dense oracles it is
checked against: the N**n x N**n symmetrization projector, summed over all
permutations as its definition reads, its action on a block of slots, and
the multi-creator vector matrices built from it.  ``dense_split`` is the
orbit split V_l^H (V_m kron V_{l-m}) of the dense V of the n! loop, which
the merge maps of the package, expanded by ``merge_split``, must equal.
The contraction terms have one implementation in the package,
``contractions.add_on_support``, which touches only the delta support;
its oracles here are the dense lattice-wide delta mask, exchange factor
and reflection factor (``delta_mask``, ``s_factor_grid``,
``r_factor_grid``), their pointwise versions, and the dense broadcast of
a reduced tensor.  The vectors, deformed creator vectors and deformed
monomials built operator by operator are the references of the extracted
coefficients, and
``twist_phases`` is the deformation phase phi_Q on every tuple, the
diagonal of D_Q.
``tabulated`` draws a table model of random unitary values on a
lattice's differences.  ``big_matrix``, ``vacuum`` and the permutation
``sign`` are views only the tests need.  The ``dense_*`` functions are the
form operations on dense blocks over all tuples, the way the package
computed them before forms were stored on orbit pairs: the references of
the compressed operations.  ``cross_norm``, ``sector_norm`` and
``qform_norm`` take one spectral norm per ``np.linalg.norm`` call, and the
``loop_*`` checks are the norm checks that call them once per instance and
per bound: the references of the batched norms and checks of ``suites``.
They read ``suites._excess`` at call time, so a test can record the
compared sides of both.  ``loop_exchange_residual`` and
``loop_deformed_exchange`` are the exchange checks one pair of lattice
points at a time: the references of the checks of ``suites`` that batch
over the second point.  ``loop_composition_law`` is the cocycle check one
pair of permutations at a time.
"""

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from zfock import suites
from zfock.contractions import Contraction, _factor_indices, _sweep_indices
from zfock.expansion import fmn_coefficients
from zfock.fock import (FockState, Indicatrix, RapidityGrid, basis_tuples, energy_weights,
                        sector_momentum)
from zfock.scattering import (Permutation, ScatteringModel, _axis, all_permutations,
                              pair_values, permute_tensor, s_sigma_grid)
from zfock.warped import (GROUPING_RTOL, SkewSymmetricQ, _cluster, deformed_point_ladder,
                          q_commutator)
from zfock.sampling import random_form, random_kernel
from zfock.zops import (KernelTensor, QuadraticForm, annihilator_form, compress_kernel,
                        create, creator_form, identity_form, peak_weights, symmetric_isometry,
                        zmzn_form)


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


@lru_cache(maxsize=128)
def dense_isometry(model, grid, n: int):
    """The dense orbit basis V, its representatives, peaks and reversal phases, by the n! loop.

    The entry of an orbit tuple t is the sum of s_sigma(t) over the
    permutations sigma that carry t to its sorted representative, n! times
    the symmetrizer column of the representative; each column is then
    divided by its norm.  When S(0) = -1 only strictly increasing tuples are
    representatives.  Returns V of shape (N**n, orbits), the flat indices of
    the representatives, the largest |V| of each column and the W with
    conj(V)[rev] = V diag(W), read at the representatives: the reference of
    the tuple-to-orbit map ``zops.symmetric_isometry``.
    """
    N = grid.size
    tuples = basis_tuples(N, n)
    steps = np.diff(tuples, axis=1)
    strict = pair_values(model, grid.points)[0, 0].real < 0
    reps = np.flatnonzero(np.all(steps > 0 if strict else steps >= 0, axis=1))
    sorted_flat = _flat(np.sort(tuples, axis=1), N)
    column = np.full(N**n, -1)
    column[reps] = np.arange(len(reps))
    column = column[sorted_flat]
    entry = np.zeros(N**n, dtype=complex)
    flat = np.arange(N**n).reshape((N,) * n)
    for sigma in all_permutations(n):
        hits = permute_tensor(flat, sigma).ravel() == sorted_flat
        entry[hits] += s_sigma_grid(model, grid.points, sigma).ravel()[hits]
    rows = np.flatnonzero(column >= 0)
    V = np.zeros((N**n, len(reps)), dtype=complex)
    V[rows, column[rows]] = entry[rows]
    V /= np.linalg.norm(V, axis=0)
    peaks = np.abs(V).max(axis=0, initial=0.0)
    cols = np.arange(len(reps))
    W = V[_flat(tuples[reps, ::-1], N), cols].conj() / V[reps, cols]
    for arr in (V, reps, peaks, W):
        arr.flags.writeable = False
    return V, reps, peaks, W


def isometry_matrix(model, grid, n: int) -> np.ndarray:
    """The dense V of the map ``zops.symmetric_isometry``: val[t] at (t, col[t])."""
    basis = symmetric_isometry(model, grid, n)
    V = np.zeros((grid.size**n, len(basis.reps)), dtype=complex)
    rows = np.flatnonzero(basis.col >= 0)
    V[rows, basis.col[rows]] = basis.val[rows]
    return V


def dense_split(model, grid, l: int, m: int) -> np.ndarray:
    """V_l^H (V_m kron V_{l-m}) with the n! loop's V, shape (orbits_m, orbits_l, orbits_{l-m}).

    The reference of the merge map ``zops._orbit_merge``.
    """
    Vl, Vm, Vr = (dense_isometry(model, grid, j)[0] for j in (l, m, l - m))
    return (Vl.conj().T @ np.kron(Vm, Vr)).reshape(
        Vl.shape[1], Vm.shape[1], Vr.shape[1]).transpose(1, 0, 2)


def merge_split(merge: np.ndarray, value: np.ndarray, orbits: int) -> np.ndarray:
    """The dense split of a merge map: value[b, c] at (b, merge[b, c], c) for the l-orbits."""
    split = np.zeros((merge.shape[0], orbits, merge.shape[1]), dtype=complex)
    b, c = np.nonzero(merge >= 0)
    split[b, merge[b, c], c] = value[b, c]
    return split


def left_vector_matrix(model, grid, j: int) -> np.ndarray:
    """Columns are the j-fold creator vectors, indexed row-major by the tuple."""
    return math.sqrt(math.factorial(j)) * symmetrizer_matrix(model, grid, j)


def right_vector_matrix(model, grid, j: int) -> np.ndarray:
    """Columns are j-fold creator vectors applied in descending slot order."""
    rev = _flat(basis_tuples(grid.size, j)[:, ::-1], grid.size)
    return left_vector_matrix(model, grid, j)[:, rev]


def symmetrize_block(model, grid, values: np.ndarray, slots: Sequence[int]) -> np.ndarray:
    """The dense P_j applied to the j listed slots (1-based) of a lattice tensor."""
    axes = [s - 1 for s in slots]
    j = len(axes)
    moved = np.moveaxis(values, axes, range(j))
    flat = symmetrizer_matrix(model, grid, j) @ moved.reshape(grid.size**j, -1)
    return np.moveaxis(flat.reshape(moved.shape), range(j), axes)


def big_matrix(A: QuadraticForm, nmax: int | None = None) -> np.ndarray:
    """Single matrix of a form over the direct sum of sectors 0..nmax."""
    nmax = A.truncation if nmax is None else nmax
    N = A.grid.size
    dims = [N**j for j in range(nmax + 1)]
    offs = np.concatenate([[0], np.cumsum(dims)])
    out = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for (l, k), mat in A.blocks.items():
        if l <= nmax and k <= nmax:
            out[offs[l]:offs[l + 1], offs[k]:offs[k + 1]] = mat
    return out


def sign(sigma: Permutation) -> int:
    """Sign of a permutation: -1 for an odd number of inversion pairs."""
    return -1 if len(sigma.inversion_pairs()) % 2 else 1


def s_sigma(model: ScatteringModel, sigma: Permutation, thetas: Sequence[float]) -> complex:
    """Product of S over the inversion pairs of sigma at the given rapidities."""
    if len(thetas) != sigma.n:
        raise ValueError("rapidity tuple does not match permutation size")
    out = 1.0 + 0.0j
    for i, j in sigma.inversion_pairs():
        out *= model.value(thetas[sigma(i) - 1] - thetas[sigma(j) - 1])
    return out


def delta_pairs(C: Contraction, theta: Sequence[float], eta: Sequence[float]) -> int:
    """Product of lattice deltas over the contracted pairs: 1 on support, else 0."""
    if len(theta) != C.m or len(eta) != C.n:
        raise ValueError("tuple lengths do not match the contraction")
    return int(all(theta[l - 1] == eta[r - C.m - 1] for l, r in C.pairs))


def embed_reduced(C: Contraction, reduced: np.ndarray, N: int) -> np.ndarray:
    """Broadcast a tensor over the free slots of C to the full slot lattice."""
    total = C.m + C.n
    free_axes = [l - 1 for l in C.free_left] + [r - 1 for r in C.free_right]
    contracted = tuple(sorted(set(range(total)) - set(free_axes)))
    if reduced.ndim != len(free_axes):
        raise ValueError("reduced tensor rank does not match the free slots")
    expanded = np.expand_dims(reduced, contracted) if contracted else reduced
    return np.broadcast_to(expanded, (N,) * total)


def delta_mask(C: Contraction, N: int) -> np.ndarray:
    """Boolean support tensor over the (m+n)-slot lattice."""
    total = C.m + C.n
    out = np.ones((N,) * total, dtype=bool)
    for l, r in C.pairs:
        out = out & (_axis(N, total, l - 1) == _axis(N, total, r - 1))
    return out


def s_factor_grid(model: ScatteringModel, points: Sequence[float], C: Contraction) -> np.ndarray:
    """Exchange factor on every lattice tuple; shape (N,)*(m+n)."""
    N = len(points)
    total = C.m + C.n
    mat = pair_values(model, points)
    out = np.ones((N,) * total, dtype=complex)
    for a, b in _factor_indices(C):
        out = out * mat[_axis(N, total, a - 1), _axis(N, total, b - 1)]
    return out


def r_factor_grid(model: ScatteringModel, points: Sequence[float], C: Contraction) -> np.ndarray:
    """Reflection factor on every lattice tuple; shape (N,)*(m+n)."""
    N = len(points)
    total = C.m + C.n
    mat = pair_values(model, points)
    out = np.ones((N,) * total, dtype=complex)
    for sweep_pairs in _sweep_indices(C):
        sweep = np.ones((N,) * total, dtype=complex)
        for a, b in sweep_pairs:
            sweep = sweep * mat[_axis(N, total, a - 1), _axis(N, total, b - 1)]
        out = out * (1.0 - sweep)
    return out


def s_c_factor(model: ScatteringModel, C: Contraction, theta: Sequence[float],
               eta: Sequence[float]) -> complex:
    """Exchange factor of the contraction at one lattice tuple."""
    xi = tuple(theta) + tuple(eta)
    out = 1.0 + 0.0j
    for a, b in _factor_indices(C):
        out *= model.value(xi[a - 1] - xi[b - 1])
    return out


def r_c_factor(model: ScatteringModel, C: Contraction, theta: Sequence[float],
               eta: Sequence[float]) -> complex:
    """Reflection factor: product over pairs of (1 - full exchange sweep of the left slot).

    The sweep runs over every concatenated slot including the left slot
    itself, so the S(0) value participates.
    """
    xi = tuple(theta) + tuple(eta)
    out = 1.0 + 0.0j
    for sweep_pairs in _sweep_indices(C):
        sweep = 1.0 + 0.0j
        for a, b in sweep_pairs:
            sweep *= model.value(xi[a - 1] - xi[b - 1])
        out *= 1.0 - sweep
    return out


def tabulated(grid: RapidityGrid, rng: np.random.Generator,
              s0: float | None = None) -> ScatteringModel:
    """Unitary values S(-d) = conj S(d) on every lattice difference, S(0) = s0.

    s0 is drawn from +-1 when not given.
    """
    pts = grid.array()
    keys = {round(float(d), 12) for d in (pts[:, None] - pts[None, :]).ravel()}
    diffs = sorted(key for key in keys if key > 0)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, len(diffs)))
    thetas = [0.0] + diffs + [-d for d in diffs]
    s0 = float(rng.choice([-1.0, 1.0])) if s0 is None else s0
    values = [s0] + list(phases) + list(np.conj(phases))
    return ScatteringModel.tabulated(thetas, values)


def point_index(grid: RapidityGrid, theta: float) -> int:
    try:
        return grid.points.index(float(theta))
    except ValueError:
        raise ValueError(f"rapidity {theta!r} is not a lattice point") from None


def vacuum(grid: RapidityGrid, truncation: int) -> FockState:
    out = FockState.zeros(grid, truncation)
    out.sectors[0] = np.asarray(1.0 + 0.0j)
    return out


def contracted_vector(model: ScatteringModel, side: str, C: Contraction,
                      args: Sequence[float], grid: RapidityGrid,
                      truncation: int) -> FockState:
    """Multi-creator vector with the contracted slots omitted.

    ``args`` is the full tuple for the chosen side; only the entries at
    free slots are used.  The left vector applies creators in slot order
    (slot 1 outermost), the right vector in descending slot order.
    """
    if side == "left":
        free = [l - 1 for l in C.free_left]
        order = list(reversed(free))
        if len(args) != C.m:
            raise ValueError("argument tuple must have one entry per outgoing slot")
    elif side == "right":
        free = [r - C.m - 1 for r in C.free_right]
        order = free
        if len(args) != C.n:
            raise ValueError("argument tuple must have one entry per incoming slot")
    else:
        raise ValueError("side must be 'left' or 'right'")
    state = vacuum(grid, truncation)
    for pos in order:
        e = np.zeros(grid.size, dtype=complex)
        e[point_index(grid, args[pos])] = 1.0
        state = create(model, e, state)
    return state


def deformed_vector_matrices(grid: RapidityGrid, truncation: int, Q: SkewSymmetricQ,
                             jmax: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Columns are products of deformed creators applied to the vacuum.

    The left list applies creators in slot order (slot 1 outermost), the
    right list in descending slot order, matching the contracted vectors
    of the coefficient formula.
    """
    creators, _ = deformed_point_ladder(grid, truncation, Q)
    N = grid.size
    left = [np.ones((1, 1), dtype=complex)]
    right = [np.ones((1, 1), dtype=complex)]
    for j in range(1, jmax + 1):
        L = np.zeros((N**j, N**j), dtype=complex)
        R = np.zeros((N**j, N**j), dtype=complex)
        for g in range(N):
            block = creators.batch(g).block(j, j - 1)
            L[:, g * N**(j - 1):(g + 1) * N**(j - 1)] = block @ left[j - 1]
            R[:, g::N] = block @ right[j - 1]
        left.append(L)
        right.append(R)
    return left, right


def twist_phases(grid: RapidityGrid, Q: SkewSymmetricQ, n: int) -> np.ndarray:
    """phi_Q(t) = exp(i sum_{a<b} p(t_a) . (Q p(t_b))) on every n-tuple, row-major.

    D_Q = diag(phi_Q) is the deformation by Q on the n-particle tuples.
    """
    p0, p1 = sector_momentum(grid, 1)
    pair = np.exp(1j * Q.pairing_arrays(p0[:, None], p1[:, None], p0[None, :], p1[None, :]))
    N = grid.size
    out = np.ones((N,) * n, dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            out = out * pair[_axis(N, n, a), _axis(N, n, b)]
    return out.ravel()


def deformed_monomial(grid: RapidityGrid, truncation: int, Q: SkewSymmetricQ,
                      kernel: KernelTensor) -> QuadraticForm:
    """Sum over lattice tuples of kernel-weighted deformed creator/annihilator words."""
    creators, annihilators = deformed_point_ladder(grid, truncation, Q)
    N = grid.size
    m, n = kernel.m, kernel.n

    def words(ops: QuadraticForm, depth: int) -> dict[tuple[int, ...], QuadraticForm]:
        out: dict[tuple[int, ...], QuadraticForm] = {
            (): None}  # type: ignore[dict-item]
        for _ in range(depth):
            new = {}
            for key, X in out.items():
                for g in range(N):
                    new[key + (g,)] = ops.batch(g) if X is None else X @ ops.batch(g)
            out = new
        return out

    lefts = words(creators, m)
    rights = words(annihilators, n)
    total = QuadraticForm(ScatteringModel.free(), grid, truncation)
    flat = kernel.values.reshape((N,) * (m + n)) if m + n else kernel.values
    for lkey, V in lefts.items():
        for rkey, W in rights.items():
            c = complex(flat[lkey + rkey]) if (m + n) else complex(kernel.values)
            if c == 0:
                continue
            if V is None and W is None:
                word = c * identity_form(ScatteringModel.free(), grid, truncation)
            elif V is None:
                word = c * W
            elif W is None:
                word = c * V
            else:
                word = c * (V @ W)
            total = total + word
    return total


# ---------------------------------------------------------------------------
# form operations on dense blocks over all tuples


def dense_matmul(a: dict, b: dict) -> dict:
    """Blocks of the product: sum over j of a[(l, j)] @ b[(j, k)]."""
    out: dict = {}
    for (l, j), x in a.items():
        for (jj, k), y in b.items():
            if jj == j:
                out[(l, k)] = out.get((l, k), 0) + x @ y
    return out


def dense_phased(blocks: dict, grid: RapidityGrid, phase) -> dict:
    """Each block times ``phase(q0, q1, p0, p1)`` of its row and column tuple momenta."""
    out = {}
    for (l, k), mat in blocks.items():
        q0, q1 = sector_momentum(grid, l)
        p0, p1 = sector_momentum(grid, k)
        out[(l, k)] = phase(q0[:, None], q1[:, None], p0[None, :], p1[None, :]) * mat
    return out


def dense_warp(blocks: dict, grid: RapidityGrid, Q: SkewSymmetricQ) -> dict:
    """exp(i q . (Q p)) on every entry, q and p the row and column tuple momenta."""
    return dense_phased(blocks, grid, lambda q0, q1, p0, p1:
                        np.exp(1j * Q.pairing_arrays(q0, q1, p0, p1)))


def dense_translate(blocks: dict, grid: RapidityGrid, x) -> dict:
    """exp(i (q - p) . x) on every entry."""
    return dense_phased(blocks, grid, lambda q0, q1, p0, p1:
                        np.exp(1j * ((q0 - p0) * x[0] - (q1 - p1) * x[1])))


def dense_warp_spectral(blocks: dict, grid: RapidityGrid, truncation: int,
                        Q: SkewSymmetricQ, side: str) -> dict:
    """The spectral sum over momentum clusters of all tuples, on one side."""
    moms = [np.stack(sector_momentum(grid, s), axis=1) for s in range(truncation + 1)]
    allmoms = np.concatenate(moms)
    labels, reps = _cluster(allmoms, GROUPING_RTOL * max(1.0, float(np.max(np.abs(allmoms)))))
    offs = np.cumsum([0] + [len(m) for m in moms])
    out = {}
    for (l, k), mat in blocks.items():
        q, p = moms[l], moms[k]
        if side == "right":
            rep = reps[labels[offs[k]:offs[k + 1]]]
            row = np.exp(1j * Q.pairing_arrays(q[:, None, 0], q[:, None, 1],
                                               rep[None, :, 0], rep[None, :, 1]))
            col = np.exp(-1j * Q.pairing_arrays(p[:, 0], p[:, 1], rep[:, 0], rep[:, 1]))
            out[(l, k)] = row * mat * col[None, :]
        else:
            rep = reps[labels[offs[l]:offs[l + 1]]]
            row = np.exp(1j * Q.pairing_arrays(q[:, 0], q[:, 1], rep[:, 0], rep[:, 1]))
            col = np.exp(-1j * Q.pairing_arrays(p[None, :, 0], p[None, :, 1],
                                                rep[:, None, 0], rep[:, None, 1]))
            out[(l, k)] = row[:, None] * mat * col
    return out


def dense_reflect(blocks: dict, N: int) -> dict:
    """J A* J: block (j, k) from block (k, j), every slot axis of its tensor reversed."""
    return {(j, k): mat.reshape((N,) * (k + j)).T.reshape(N**j, N**k)
            for (k, j), mat in blocks.items()}


def dense_graded(blocks: dict) -> dict:
    """The blocks (l, k) of odd l - k negated."""
    return {(l, k): -mat if (l - k) % 2 else mat for (l, k), mat in blocks.items()}


def dense_transfer_piece(blocks: dict, grid: RapidityGrid, transfer, atol: float) -> dict:
    """The entries of each block whose tuple transfer q - p lies within atol of ``transfer``."""
    return dense_phased(blocks, grid, lambda q0, q1, p0, p1:
                        (np.abs(q0 - p0 - transfer[0]) <= atol)
                        & (np.abs(q1 - p1 - transfer[1]) <= atol))


def dense_apply(blocks: dict, state: FockState) -> FockState:
    """The dense blocks acting on a state."""
    N = state.grid.size
    out = FockState.zeros(state.grid, state.truncation)
    for (l, k), mat in blocks.items():
        out.sectors[l] = out.sectors[l] + (mat @ state.sector(k).ravel()).reshape((N,) * l)
    return out


def cross_norm(kernel: KernelTensor, grid: RapidityGrid, omega: Indicatrix) -> float:
    """Half the sum of the two one-sided weighted spectral norms of one kernel."""
    F = kernel.matrix()
    wl = energy_weights(grid, omega, kernel.m, -1)
    wr = energy_weights(grid, omega, kernel.n, -1)
    left = np.linalg.norm(wl[:, None] * F, ord=2)
    right = np.linalg.norm(F * wr[None, :], ord=2)
    return 0.5 * float(left + right)


def sector_norm(model: ScatteringModel, grid: RapidityGrid, C: np.ndarray,
                l: int, k: int, wl: np.ndarray, wr: np.ndarray) -> float:
    """Spectral norm of diag(wl) A diag(wr) on the orbits of sectors l <- k."""
    rl = symmetric_isometry(model, grid, l).reps
    rk = symmetric_isometry(model, grid, k).reps
    return float(np.linalg.norm(wl[rl, None] * C * wr[rk], ord=2))


def qform_norm(model: ScatteringModel, A: QuadraticForm, n: int, omega: Indicatrix) -> float:
    """Sector-n form norm, laid out on the orbits of sectors 0..n alone."""
    reps = [symmetric_isometry(model, A.grid, j).reps for j in range(n + 1)]
    offs = np.cumsum([0] + [len(r) for r in reps])
    C = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for (l, k), blk in A.orbit_blocks.items():
        if l <= n and k <= n:
            C[offs[l]:offs[l + 1], offs[k]:offs[k + 1]] = blk
    w = np.concatenate([energy_weights(A.grid, omega, j, -1)[r]
                        for j, r in enumerate(reps)])
    left = np.linalg.norm(C * w[None, :], ord=2)
    right = np.linalg.norm(w[:, None] * C, ord=2)
    return 0.5 * float(left + right)


def loop_creator_weight_bound(model, grid, truncation, omega, seed, count):
    """``suites.check_creator_weight_bound``, one norm call per instance and bound."""
    K = truncation
    res = 0.0
    wplus = [energy_weights(grid, omega, n, 1) for n in range(K + 1)]
    for rng in suites._instances(seed, "creator_weight_bound", count):
        f = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        fnorm = float(np.linalg.norm(wplus[1] * f))
        A = creator_form(model, grid, K, f)
        B = annihilator_form(model, grid, K, f)
        up = [sector_norm(model, grid, A.orbit_block(j + 1, j), j + 1, j,
                          wplus[j + 1], 1.0 / wplus[j]) for j in range(K)]
        down = [sector_norm(model, grid, B.orbit_block(j, j + 1), j, j + 1,
                            wplus[j], 1.0 / wplus[j + 1]) for j in range(K)]
        for k in range(K):
            res = max(res, suites._excess(max(up[: k + 1]), math.sqrt(k + 1) * fnorm))
        for k in range(1, K + 1):
            res = max(res, suites._excess(max(down[:k]), math.sqrt(k) * fnorm))
    return res


def loop_monomial_source_bound(model, grid, truncation, omega, seed, count):
    """``suites.check_monomial_source_bound``, one norm call per instance and bound."""
    K = truncation
    degrees = suites._degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], K)
    res = 0.0
    for (m, n), rng in zip(degrees, suites._instances(seed, "monomial_source_bound", count)):
        f = random_kernel(grid, m, n, rng)
        F = zmzn_form(model, compress_kernel(model, grid, f), grid, K)
        fw = cross_norm(f, grid, omega)
        kmax = K if m <= n else K - (m - n)
        sig = {}
        for j in range(n, kmax + 1):
            l = j - n + m
            sig[j] = sector_norm(model, grid, F.orbit_block(l, j), l, j,
                                 np.ones(grid.size**l), energy_weights(grid, omega, j, -1))
        for k in range(n, kmax + 1):
            lhs = max(sig[j] for j in range(n, k + 1))
            c = 2.0 * math.sqrt(math.factorial(k) * math.factorial(k - n + m)) \
                / math.factorial(k - n)
            res = max(res, suites._excess(lhs, c * fw))
    return res


def loop_monomial_sector_bound(model, grid, truncation, omega, seed, count):
    """``suites.check_monomial_sector_bound``, one norm call per instance and bound."""
    K = truncation
    degrees = suites._degree_cycle([(1, 1), (2, 1), (1, 2), (2, 2)], K)
    res = 0.0
    for (m, n), rng in zip(degrees, suites._instances(seed, "monomial_sector_bound", count)):
        f = random_kernel(grid, m, n, rng)
        F = zmzn_form(model, compress_kernel(model, grid, f), grid, K)
        fw = cross_norm(f, grid, omega)
        # one norm per block and side; sector k sees the blocks inside sectors 0..k
        right, left = {}, {}
        for l, j in F.orbit_blocks:
            wl = energy_weights(grid, omega, l, -1)
            wr = energy_weights(grid, omega, j, -1)
            right[max(l, j)] = sector_norm(model, grid, F.orbit_block(l, j), l, j,
                                           np.ones(grid.size**l), wr)
            left[max(l, j)] = sector_norm(model, grid, F.orbit_block(l, j), l, j,
                                          wl, np.ones(grid.size**j))
        for k in range(max(m, n), K + 1):
            lhs = 0.5 * (max(v for d, v in right.items() if d <= k)
                         + max(v for d, v in left.items() if d <= k))
            c = 2.0 * math.factorial(k) / math.factorial(k - max(m, n))
            res = max(res, suites._excess(lhs, c * fw))
    return res


def loop_coefficient_bound(model, grid, truncation, omega, seed, count):
    """``suites.check_coefficient_bound``, one norm call per instance and bound."""
    K = truncation
    res = 0.0
    for rng in suites._instances(seed, "coefficient_bound", count):
        A = random_form(model, grid, K, rng)
        norms = [qform_norm(model, A, s, omega) for s in range(K + 1)]
        for m in range(K + 1):
            for n in range(K + 1 - m):
                F = fmn_coefficients(model, A, m, n).values
                # the cross norm of f = V_m F V_n^T, on the weighted orbit matrix
                wl = energy_weights(grid, omega, m, -1)
                wr = energy_weights(grid, omega, n, -1)
                left = sector_norm(model, grid, F, m, n, wl, np.ones(grid.size**n))
                right = sector_norm(model, grid, F, m, n, np.ones(grid.size**m), wr)
                lhs = 0.5 * (left + right)
                rhs = suites.coefficient_bound_constant(m, n) * norms[m + n]
                res = max(res, suites._excess(lhs, rhs))
    return res


def loop_exchange_words(creators, annihilators, K: int):
    """The three exchange relations at every pair (i, j) of lattice points.

    ``creators`` and ``annihilators`` list the ladder operators point by
    point.  Yields (i, j, X, Y, window, delta) with X Y = cre_i cre_j,
    ann_i ann_j and ann_j cre_i in turn.  ``window`` maps the blocks where
    both X Y and Y X stay in the truncated space to their ``peak_weights``,
    and ``delta`` marks the mixed relation at i = j, which carries the
    identity.
    """
    model, grid = creators[0].model, creators[0].grid

    def window(keys):
        return {key: peak_weights(model, grid, key) for key in keys}

    cc = window([(k + 2, k) for k in range(K - 1)])
    aa = window([(k, k + 2) for k in range(K - 1)])
    mm = window([(k, k) for k in range(K)])
    for i in range(len(creators)):
        for j in range(len(creators)):
            yield i, j, creators[i], creators[j], cc, False
            yield i, j, annihilators[i], annihilators[j], aa, False
            yield i, j, annihilators[j], creators[i], mm, i == j


def loop_exchange_residual(S: np.ndarray, creators, annihilators, K: int) -> float:
    """``suites.check_exchange_relations`` on the given ladder, one pair of points at a time.

    Each word X Y equals S[i, j] Y X, plus the identity for the mixed
    relation at i = j.
    """
    ident = identity_form(creators[0].model, creators[0].grid, K)
    err = 0.0
    mag = 0.0
    for i, j, X, Y, window, delta in loop_exchange_words(creators, annihilators, K):
        rhs = (Y @ X) * S[i, j]
        e, m = suites._keys_residual(X @ Y, rhs + ident if delta else rhs, window)
        err, mag = max(err, e), max(mag, m)
    return suites._rel(err, mag)


def loop_deformed_exchange(grid: RapidityGrid, K: int, seed: int, count: int) -> float:
    """``suites.check_deformed_exchange``, one pair of points at a time."""
    free = ScatteringModel.free()
    ident = identity_form(free, grid, K)
    zero = QuadraticForm(free, grid, K)
    res = 0.0
    for rng in suites._instances(seed, "deformed_exchange", count):
        Q = SkewSymmetricQ(float(rng.uniform(0.3, 2.0)), grid.mass)
        S = pair_values(Q.scattering_model(), grid.points)
        cre, ann = deformed_point_ladder(grid, K, Q)
        creators = [cre.batch(x) for x in range(grid.size)]
        annihilators = [ann.batch(x) for x in range(grid.size)]
        res = max(res, loop_exchange_residual(S, creators, annihilators, K))
        err = 0.0
        mag = suites._TINY
        for _, _, X, Y, window, delta in loop_exchange_words(creators, annihilators, K):
            want = ident if delta else zero
            e, _ = suites._keys_residual(q_commutator(X, Y, Q), want, window)
            _, m = suites._keys_residual(X @ Y, want, window)
            err, mag = max(err, e), max(mag, m)
        res = max(res, err / mag)
    return res


def loop_composition_law(model: ScatteringModel, grid: RapidityGrid) -> float:
    """``suites.check_composition_law``, one pair of permutations at a time."""
    res = 0.0
    for n in range(2, 5):
        cache = {sigma: s_sigma_grid(model, grid.points, sigma)
                 for sigma in all_permutations(n)}
        for sigma in all_permutations(n):
            for rho in all_permutations(n):
                lhs = cache[sigma.compose(rho)]
                rhs = cache[sigma] * permute_tensor(cache[rho], sigma)
                res = max(res, suites._maxabs(lhs - rhs))
    return res
