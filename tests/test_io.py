"""File formats roundtrip exactly and reject foreign payloads."""

import json

import numpy as np
import pytest

from zfock.expansion import extract_family
from zfock.io import (complex_to_nested, load_family, load_form, load_kernel,
                      load_state, save_family, save_form, save_kernel,
                      save_state)
from zfock.sampling import keyed_rng, random_form, random_kernel, random_state
from zfock.scattering import ScatteringModel
from zfock.zops import KernelTensor

FREE = ScatteringModel.free()
SINH = ScatteringModel.sinh_exp(0.7)


def test_state_roundtrip(tmp_path, grid3):
    psi = random_state(FREE, grid3, 2, keyed_rng(0, "io", "state", 0))
    path = tmp_path / "psi.json"
    save_state(path, psi)
    back = load_state(path)
    assert back.grid == psi.grid
    for n in range(3):
        np.testing.assert_array_equal(back.sector(n), psi.sector(n))


def test_kernel_roundtrip(tmp_path, grid3):
    kern = random_kernel(grid3, 2, 1, keyed_rng(0, "io", "kernel", 0))
    path = tmp_path / "k.json"
    save_kernel(path, kern, grid3)
    back, grid = load_kernel(path)
    assert grid == grid3
    assert (back.m, back.n) == (2, 1)
    np.testing.assert_array_equal(back.values, kern.values)


def test_form_roundtrip(tmp_path, grid3):
    A = random_form(SINH, grid3, 2, keyed_rng(0, "io", "form", 0))
    path = tmp_path / "A.json"
    save_form(path, A)
    back = load_form(path)
    assert back.grid == A.grid
    assert back.truncation == A.truncation
    for key, mat in A.blocks.items():
        np.testing.assert_array_equal(back.block(*key), mat)


def test_family_roundtrip(tmp_path, grid3):
    A = random_form(SINH, grid3, 2, keyed_rng(0, "io", "family", 0))
    fam = extract_family(SINH, A)
    save_family(tmp_path / "fam", fam)
    back = load_family(tmp_path / "fam")
    assert back.grid == fam.grid
    assert set(back.entries) == set(fam.entries)
    for key, kern in fam.entries.items():
        np.testing.assert_array_equal(back.entry(*key).values, kern.values)


def test_kind_tag_is_checked(tmp_path, grid3):
    psi = random_state(FREE, grid3, 1, keyed_rng(0, "io", "kind", 0))
    path = tmp_path / "psi.json"
    save_state(path, psi)
    with pytest.raises(ValueError, match="not a quadratic form"):
        load_form(path)
    with pytest.raises(ValueError, match="not a kernel"):
        load_kernel(path)


def test_payload_shape_is_checked(tmp_path, grid3):
    kern = random_kernel(grid3, 1, 1, keyed_rng(0, "io", "shape", 0))
    path = tmp_path / "k.json"
    save_kernel(path, kern, grid3)
    doc = json.loads(path.read_text())
    doc["m"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="shape"):
        load_kernel(path)


def test_family_manifest_mismatch(tmp_path, grid3):
    A = random_form(FREE, grid3, 1, keyed_rng(0, "io", "mismatch", 0))
    fam = extract_family(FREE, A)
    save_family(tmp_path / "fam", fam)
    manifest = json.loads((tmp_path / "fam" / "manifest.json").read_text())
    manifest["entries"][1]["m"] = 9
    (tmp_path / "fam" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="slot counts"):
        load_family(tmp_path / "fam")


def test_saved_bytes_equal_json_dumps(tmp_path, grid3):
    # the streamed writers produce exactly the text of json.dumps of the document
    header = {"grid": list(grid3.points), "mass": grid3.mass}
    psi = random_state(SINH, grid3, 2, keyed_rng(0, "io", "bytes", 0))
    save_state(tmp_path / "psi.json", psi)
    want = {"kind": "fock_state", **header, "truncation": 2,
            "sectors": [complex_to_nested(sec) for sec in psi.sectors]}
    assert (tmp_path / "psi.json").read_text() == json.dumps(want)

    kern = random_kernel(grid3, 2, 1, keyed_rng(0, "io", "bytes", 1))
    save_kernel(tmp_path / "k.json", kern, grid3)
    want = {"kind": "kernel_tensor", **header, "m": 2, "n": 1,
            "values": complex_to_nested(kern.values)}
    assert (tmp_path / "k.json").read_text() == json.dumps(want)

    A = random_form(SINH, grid3, 2, keyed_rng(0, "io", "bytes", 2))
    save_form(tmp_path / "A.json", A)
    want = {"kind": "quadratic_form", **header, "truncation": 2,
            "truncated": A.truncated,
            "blocks": [{"rows": l, "cols": k, "values": complex_to_nested(mat)}
                       for (l, k), mat in sorted(A.blocks.items())]}
    assert (tmp_path / "A.json").read_text() == json.dumps(want)

    fam = extract_family(SINH, A)
    save_family(tmp_path / "fam", fam)
    entries = []
    for (m, n), kernel in sorted(fam.entries.items()):
        name = f"coeff_{m}_{n}.json"
        want = {"kind": "kernel_tensor", **header, "m": m, "n": n,
                "values": complex_to_nested(kernel.values)}
        assert (tmp_path / "fam" / name).read_text() == json.dumps(want)
        entries.append({"m": m, "n": n, "file": name})
    want = {"kind": "coefficient_family", **header, "truncation": 2,
            "entries": entries}
    assert (tmp_path / "fam" / "manifest.json").read_text() == json.dumps(want)


def test_non_finite_tensors_are_not_written(tmp_path, grid3):
    psi = random_state(FREE, grid3, 2, keyed_rng(0, "io", "finite", 0))
    psi.sectors[1][0] = np.nan
    kern = random_kernel(grid3, 1, 1, keyed_rng(0, "io", "finite", 1))
    kern.values[0, 0] = np.inf
    A = random_form(FREE, grid3, 2, keyed_rng(0, "io", "finite", 2))
    A.blocks[(2, 1)][0, 0] = complex(0.0, -np.inf)
    fam = extract_family(FREE, random_form(FREE, grid3, 1, keyed_rng(0, "io", "finite", 3)))
    fam.set_entry(KernelTensor(1, 0, np.full(3, np.nan)))
    for save, path, obj in ((save_state, "psi.json", (psi,)),
                            (save_kernel, "k.json", (kern, grid3)),
                            (save_form, "A.json", (A,)),
                            (save_family, "fam", (fam,))):
        with pytest.raises(ValueError, match="non-finite"):
            save(tmp_path / path, *obj)
        assert not (tmp_path / path).exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_tokens_are_rejected(tmp_path, grid3, token):
    rng = keyed_rng(0, "io", "token", 0)
    files = (("psi.json", save_state, load_state, (random_state(FREE, grid3, 1, rng),)),
             ("k.json", save_kernel, load_kernel, (random_kernel(grid3, 1, 1, rng), grid3)),
             ("A.json", save_form, load_form, (random_form(FREE, grid3, 1, rng),)))
    for name, save, load, args in files:
        path = tmp_path / name
        save(path, *args)
        # replace the last number of the last tensor by the token
        head, sep, tail = path.read_text().rpartition("]]")
        number = head.rsplit(", ", 1)[1]
        path.write_text(head[: -len(number)] + token + sep + tail)
        with pytest.raises(ValueError, match=f"non-finite number {token}"):
            load(path)
