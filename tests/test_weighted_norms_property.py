"""Property: ``zops.weighted_norms`` is the spectral norm of diag(wl) M diag(wr), to the bit.

Each term (M, wl, wr) gives the largest singular value of M with its rows
scaled by ``wl`` and its columns by ``wr``, a ``None`` side unscaled.  The
reference scales one row, then one column, at a time and takes
``np.linalg.norm(..., 2)`` of each matrix alone; every value must equal it
to the hex.  M may carry zero to two batch axes, of length zero to three,
and then gives one norm per matrix in row-major batch order, each equal
to the norm of its slice as a term of its own.  Matrices have zero to
four rows and columns, so empty matrices and empty batches occur.  The
examples are derandomized.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.zops import weighted_norms


def scaled(M, wl, wr):
    """diag(wl) M diag(wr) of one matrix, a row and then a column at a time."""
    out = M.copy()
    for i in range(out.shape[0] if wl is not None else 0):
        out[i] = wl[i] * out[i]
    for j in range(out.shape[1] if wr is not None else 0):
        out[:, j] = out[:, j] * wr[j]
    return out


@st.composite
def terms(draw):
    batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = rng.normal(size=batch + (rows, cols)) + 1j * rng.normal(size=batch + (rows, cols))
    wl = rng.uniform(0.1, 3.0, size=rows) if draw(st.booleans()) else None
    wr = rng.uniform(0.1, 3.0, size=cols) if draw(st.booleans()) else None
    return M, wl, wr


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=st.lists(terms(), max_size=5))
def test_weighted_norms_equal_numpy_norms_bitwise(drawn):
    got = weighted_norms(drawn)
    want, slices = [], []
    for M, wl, wr in drawn:
        for index in np.ndindex(M.shape[:-2]):
            want.append(float(np.linalg.norm(scaled(M[index], wl, wr), 2)))
            slices.append((M[index], wl, wr))
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert [x.hex() for x in weighted_norms(slices)] == [x.hex() for x in got]
