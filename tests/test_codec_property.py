"""Property: the tensor codec of ``zfock.io`` writes json's bytes and reads them back bitwise.

States of truncation 0-3 on 1-4 lattice points hold complex tensors of
0-3 dimensions, and kernels of rank 0-3 are cut from them.  Their parts
range over every finite double: subnormals, the largest doubles, +-0.0,
and the edges 1e-4 and 1e16 of repr's fixed notation with their
neighbours.  A file must equal ``json.dumps`` of its document with the
tensors as ``complex_to_nested`` lists, must load back bitwise equal, and
must load the same after ``json.dumps(doc, indent=1)`` rewrote it.  Ragged
and transposed payloads are refused.  The examples are derandomized so
the run is deterministic.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zfock.fock import FockState, RapidityGrid
from zfock.io import complex_to_nested, load_kernel, load_state, save_kernel, save_state
from zfock.sampling import keyed_rng, random_kernel
from zfock.zops import KernelTensor

EDGES = [0.0, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
         1e16, np.nextafter(1e16, 0), np.nextafter(1e16, np.inf),
         5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def signed(magnitudes):
    return st.builds(lambda x, neg: -x if neg else x, magnitudes, st.booleans())


def decades(lo, hi):
    return signed(st.builds(lambda e: 10.0 ** e, st.floats(lo, hi)))


# each sector draws its parts from one regime, so that whole rows fall on
# either side of an edge of repr's fixed notation
REGIMES = [
    st.floats(allow_nan=False, allow_infinity=False),
    signed(st.sampled_from(EDGES)),
    decades(-6, -3),
    decades(15, 17),
    decades(-323, 308),
]
REGIMES.append(st.one_of(*REGIMES))


@st.composite
def states(draw):
    N = draw(st.integers(1, 4))
    grid = RapidityGrid(tuple(float(p) for p in range(N)), 1.0)
    sectors = []
    for n in range(draw(st.integers(0, 3)) + 1):
        parts = draw(st.sampled_from(REGIMES))
        pairs = np.array(draw(st.lists(parts, min_size=2 * N**n, max_size=2 * N**n)))
        sectors.append(pairs.view(complex).reshape((N,) * n))
    return FockState(grid, sectors)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == np.asarray(want, dtype=complex).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(psi=states())
def test_codec_writes_json_dumps_and_reads_bitwise(tmp_path, psi):
    header = {"grid": list(psi.grid.points), "mass": psi.grid.mass}
    K = psi.truncation
    kernel = KernelTensor(K // 2, K - K // 2, psi.sectors[K])
    files = (
        (tmp_path / "psi.json", save_state, (psi,),
         {"kind": "fock_state", **header, "truncation": K,
          "sectors": [complex_to_nested(sec) for sec in psi.sectors]}),
        (tmp_path / "k.json", save_kernel, (kernel, psi.grid),
         {"kind": "kernel_tensor", **header, "m": kernel.m, "n": kernel.n,
          "values": complex_to_nested(kernel.values)}),
    )
    for path, save, args, doc in files:
        save(path, *args)
        assert path.read_text() == json.dumps(doc)
    for rewrite in (False, True):
        if rewrite:
            for path, _, _, doc in files:
                path.write_text(json.dumps(doc, indent=1))
        back = load_state(files[0][0])
        assert back.grid == psi.grid
        assert len(back.sectors) == K + 1
        for got, want in zip(back.sectors, psi.sectors):
            assert_bitwise(got, want)
        kback, _ = load_kernel(files[1][0])
        assert (kback.m, kback.n) == (kernel.m, kernel.n)
        assert_bitwise(kback.values, kernel.values)


def _edit_payload(path, edit):
    doc = json.loads(path.read_text())
    doc["values"] = edit(doc["values"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("edit", [
    # the last pair of the last row moves into the middle row: the first
    # row still has the length of a regular payload, and the count is kept
    lambda rows: [rows[0], rows[1] + rows[2][-1:], rows[2][:-1]],
    lambda rows: np.transpose(rows).tolist(),
], ids=["ragged", "transposed"])
def test_irregular_payloads_are_refused(tmp_path, grid3, edit):
    path = tmp_path / "k.json"
    save_kernel(path, random_kernel(grid3, 1, 1, keyed_rng(0, "io", "irregular", 0)), grid3)
    _edit_payload(path, edit)
    with pytest.raises(ValueError):
        load_kernel(path)
