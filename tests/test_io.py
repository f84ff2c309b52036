"""File formats roundtrip exactly and reject foreign payloads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zfock import cli
from zfock.expansion import extract_family
from zfock.io import (complex_to_nested, load_family, load_form, load_kernel,
                      load_state, save_family, save_form, save_kernel,
                      save_state)
from zfock.sampling import keyed_rng, random_form, random_kernel, random_state
from zfock.scattering import ScatteringModel
from zfock.zops import OrbitKernel, compress_kernel, dense_kernel, point_ladder

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
    # the file holds the dense views; loading stores them on the orbits of
    # the file's model again, which recovers the blocks up to rounding
    A = random_form(SINH, grid3, 2, keyed_rng(0, "io", "form", 0))
    path = tmp_path / "A.json"
    save_form(path, A)
    back = load_form(path)
    assert back.grid == A.grid
    assert back.model == A.model
    assert back.truncation == A.truncation
    assert set(back.orbit_blocks) == set(A.orbit_blocks)
    for key, C in A.orbit_blocks.items():
        np.testing.assert_allclose(back.orbit_blocks[key], C, rtol=0, atol=1e-14 * A.scale())
    doc = json.loads(path.read_text())
    assert doc["scattering"] == {"family": "sinh_exp", "a": 0.7}
    for rec in doc["blocks"]:
        payload = np.array(rec["values"]).view(complex)[..., 0]
        np.testing.assert_array_equal(payload, A.block(rec["rows"], rec["cols"]))


@pytest.mark.parametrize("model", [ScatteringModel.ising(), SINH,
                                   ScatteringModel.tabulated([0.0, 0.9, -0.9, 1.7, -1.7,
                                                              0.8, -0.8],
                                                             [-1, 1j, -1j, 1, 1, -1, -1])],
                         ids=["ising", "sinh_exp", "table"])
def test_form_file_carries_its_model(tmp_path, grid3, model):
    A = random_form(model, grid3, 2, keyed_rng(0, "io", "model", 0))
    save_form(tmp_path / "A.json", A)
    assert load_form(tmp_path / "A.json").model == model


def test_batched_form_is_refused_at_save(tmp_path, grid3):
    # a point ladder is one form per lattice point; a file holds one operator
    creators, _ = point_ladder(SINH, grid3, 2)
    path = tmp_path / "ladder.json"
    with pytest.raises(ValueError, match=r"batch shape \(3,\)"):
        save_form(path, creators)
    assert not path.exists()
    save_form(path, creators.batch(1))
    back = load_form(path)
    for key, C in creators.batch(1).orbit_blocks.items():
        np.testing.assert_allclose(back.orbit_blocks[key], C, rtol=0, atol=1e-14)


def test_form_without_model_is_refused(tmp_path, grid3):
    path = tmp_path / "A.json"
    save_form(path, random_form(FREE, grid3, 1, keyed_rng(0, "io", "headless", 0)))
    doc = json.loads(path.read_text())
    del doc["scattering"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing field 'scattering'") as err:
        load_form(path)
    assert str(path) in str(err.value)
    doc["scattering"] = {"family": "nope"}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown scattering family") as err:
        load_form(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("change", [1e-9, 1e-11])
def test_non_symmetric_block_is_refused(tmp_path, grid3, change):
    # one entry of a free form moved off its symmetric part by change times
    # the block's largest entry: refused beyond 1e-10 of it, read below
    path = tmp_path / "A.json"
    save_form(path, random_form(FREE, grid3, 2, keyed_rng(0, "io", "symmetric", 0)))
    doc = json.loads(path.read_text())
    rec = next(r for r in doc["blocks"] if (r["rows"], r["cols"]) == (2, 1))
    size = np.max(np.abs(np.array(rec["values"]).view(complex)))
    rec["values"][1][0][0] += 2 * change * size
    path.write_text(json.dumps(doc))
    if change > 1e-10:
        with pytest.raises(ValueError, match=r"block \(2, 1\) is not symmetric") as err:
            load_form(path)
        assert str(path) in str(err.value)
    else:
        load_form(path)


def test_family_roundtrip(tmp_path, grid3):
    # the kernel files hold the dense views; loading stores them on orbit
    # pairs again, which recovers the coefficients up to rounding
    A = random_form(SINH, grid3, 2, keyed_rng(0, "io", "family", 0))
    fam = extract_family(SINH, A)
    save_family(tmp_path / "fam", fam)
    back = load_family(tmp_path / "fam")
    assert back.grid == fam.grid
    assert back.model == fam.model
    assert set(back.entries) == set(fam.entries)
    scale = max(float(np.max(np.abs(k.values))) for k in fam.entries.values())
    for key, kern in fam.entries.items():
        np.testing.assert_allclose(back.entry(*key).values, kern.values, rtol=0,
                                   atol=1e-14 * scale)
        payload, _ = load_kernel(tmp_path / "fam" / f"coeff_{key[0]}_{key[1]}.json")
        np.testing.assert_array_equal(payload.values,
                                      dense_kernel(SINH, grid3, kern).values)


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


def _saved_family(path, grid, truncation=1):
    """A saved free family of a random form; returns its manifest as a dict."""
    A = random_form(FREE, grid, truncation, keyed_rng(0, "io", "family_checks", truncation))
    save_family(path, extract_family(FREE, A))
    return json.loads((path / "manifest.json").read_text())


def test_family_entry_above_truncation_is_refused(tmp_path, grid3):
    # reconstruct would drop a monomial above the truncation, so loading
    # refuses it, naming the manifest, and the CLI exits 2
    manifest = _saved_family(tmp_path / "fam", grid3)
    kernel = compress_kernel(FREE, grid3, random_kernel(grid3, 2, 0,
                                                        keyed_rng(0, "io", "above", 0)))
    save_kernel(tmp_path / "fam" / "coeff_2_0.json", dense_kernel(FREE, grid3, kernel), grid3)
    manifest["entries"].append({"m": 2, "n": 0, "file": "coeff_2_0.json"})
    path = tmp_path / "fam" / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"entry \(2, 0\) lies above the truncation 1") as err:
        load_family(tmp_path / "fam")
    assert str(path) in str(err.value)
    assert _reconstruct_status(tmp_path, grid3, 1) == 2


def test_duplicated_family_entry_is_refused(tmp_path, grid3):
    # a second record of the same (m, n) would silently replace the first
    manifest = _saved_family(tmp_path / "fam", grid3)
    twin = dict(manifest["entries"][2])
    manifest["entries"].append(twin)
    path = tmp_path / "fam" / "manifest.json"
    path.write_text(json.dumps(manifest))
    key = (twin["m"], twin["n"])
    with pytest.raises(ValueError, match=rf"entry \({key[0]}, {key[1]}\) is listed twice") as err:
        load_family(tmp_path / "fam")
    assert str(path) in str(err.value)
    assert _reconstruct_status(tmp_path, grid3, 1) == 2


@pytest.mark.parametrize("change", [1e-9, 1e-11])
def test_non_symmetric_family_kernel_is_refused(tmp_path, grid3, change):
    # one entry of a symmetric coefficient moved off its symmetric part by
    # change times its largest entry: refused beyond 1e-10 of it, read below;
    # compressing it would silently drop the non-symmetric part
    _saved_family(tmp_path / "fam", grid3, truncation=2)
    path = tmp_path / "fam" / "coeff_2_1.json"
    doc = json.loads(path.read_text())
    size = np.max(np.abs(np.array(doc["values"]).view(complex)))
    doc["values"][1][0][0][0] += 2 * change * size
    path.write_text(json.dumps(doc))
    if change > 1e-10:
        with pytest.raises(ValueError, match=r"kernel \(2, 1\) is not symmetric") as err:
            load_family(tmp_path / "fam")
        assert str(path) in str(err.value)
        assert _reconstruct_status(tmp_path, grid3, 2) == 2
    else:
        load_family(tmp_path / "fam")


def _reconstruct_status(tmp_path, grid, truncation):
    """Exit status of ``zfock reconstruct`` on the family saved under tmp_path / "fam"."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": list(grid.points), "mass": grid.mass,
                               "truncation": truncation, "scattering": {"family": "free"},
                               "omega": {"family": "zero"}, "seed": 0, "instances": 1}))
    return cli.main(["reconstruct", "--config", str(cfg), "--in", str(tmp_path / "fam"),
                     "--out", str(tmp_path / "R.json")])


MISSING = object()


@pytest.mark.parametrize("kind,field,value", [
    pytest.param("state", "sectors", MISSING, id="state-sectors"),
    pytest.param("state", "mass", MISSING, id="state-mass"),
    pytest.param("kernel", "m", MISSING, id="kernel-m"),
    pytest.param("kernel", "grid", MISSING, id="kernel-grid"),
    pytest.param("family", "entries", MISSING, id="family-entries"),
    pytest.param("family", "truncation", MISSING, id="family-truncation"),
    pytest.param("family", "scattering", MISSING, id="family-scattering"),
    pytest.param("family", "scattering", "free", id="family-string_scattering"),
    pytest.param("state", "mass", "1.0", id="state-string_mass"),
    pytest.param("state", "truncation", "1", id="state-string_truncation"),
    pytest.param("state", "truncation", 2, id="state-truncation_beyond_sectors"),
    pytest.param("state", "grid", [-0.8, 0.1, True], id="state-boolean_grid_entry"),
    pytest.param("kernel", "m", 1.0, id="kernel-float_m"),
    pytest.param("kernel", "n", True, id="kernel-boolean_n"),
    pytest.param("family", "truncation", "1", id="family-string_truncation"),
    pytest.param("family", "truncation", 1.5, id="family-fractional_truncation"),
    pytest.param("family", "entries", [{"m": 0.0, "n": 0, "file": "coeff_0_0.json"}],
                 id="family-float_entry_m"),
    pytest.param("family", "entries", [{"m": 0, "n": False, "file": "coeff_0_0.json"}],
                 id="family-boolean_entry_n"),
])
def test_missing_field_names_the_file(tmp_path, grid3, kind, field, value):
    # a missing or ill-typed field is refused with the file named
    rng = keyed_rng(0, "io", "missing", 0)
    if kind == "state":
        path = tmp_path / "psi.json"
        save_state(path, random_state(FREE, grid3, 1, rng))
    elif kind == "kernel":
        path = tmp_path / "k.json"
        save_kernel(path, random_kernel(grid3, 1, 1, rng), grid3)
    else:
        save_family(tmp_path, extract_family(FREE, random_form(FREE, grid3, 1, rng)))
        path = tmp_path / "manifest.json"
    doc = json.loads(path.read_text())
    if value is MISSING:
        del doc[field]
        message = f"missing field '{field}'"
    else:
        doc[field] = value
        message = "malformed field"
    path.write_text(json.dumps(doc))
    load = {"state": load_state, "kernel": load_kernel, "family": load_family}[kind]
    with pytest.raises(ValueError, match=message) as err:
        load(tmp_path if kind == "family" else path)
    assert str(path) in str(err.value)


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
    model = {"scattering": {"family": "sinh_exp", "a": 0.7}}
    want = {"kind": "quadratic_form", **header, **model, "truncation": 2,
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
                "values": complex_to_nested(dense_kernel(SINH, grid3, kernel).values)}
        assert (tmp_path / "fam" / name).read_text() == json.dumps(want)
        entries.append({"m": m, "n": n, "file": name})
    want = {"kind": "coefficient_family", **header, **model, "truncation": 2,
            "entries": entries}
    assert (tmp_path / "fam" / "manifest.json").read_text() == json.dumps(want)


def test_non_finite_tensors_are_not_written(tmp_path, grid3):
    psi = random_state(FREE, grid3, 2, keyed_rng(0, "io", "finite", 0))
    psi.sectors[1][0] = np.nan
    kern = random_kernel(grid3, 1, 1, keyed_rng(0, "io", "finite", 1))
    kern.values[0, 0] = np.inf
    A = random_form(FREE, grid3, 2, keyed_rng(0, "io", "finite", 2))
    A.orbit_blocks[(2, 1)][0, 0] = complex(0.0, -np.inf)
    fam = extract_family(FREE, random_form(FREE, grid3, 1, keyed_rng(0, "io", "finite", 3)))
    fam.set_entry(OrbitKernel(1, 0, np.full((3, 1), np.nan)))
    for save, path, obj in ((save_state, "psi.json", (psi,)),
                            (save_kernel, "k.json", (kern, grid3)),
                            (save_form, "A.json", (A,)),
                            (save_family, "fam", (fam,))):
        with pytest.raises(ValueError, match="non-finite"):
            save(tmp_path / path, *obj)
        assert not (tmp_path / path).exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
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


def test_import_leaves_orjson_unloaded():
    # io imports orjson inside the functions that use it, so a run that
    # reads and writes no tensor file (verify, the norms) never loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c",
                          "import zfock, sys; print('orjson' in sys.modules)"],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
