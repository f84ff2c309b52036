"""File formats roundtrip exactly and reject foreign payloads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zfock import cli
from zfock.expansion import CoefficientFamily, extract_family
from zfock.fock import RapidityGrid
from zfock.io import (complex_to_nested, load_family, load_form, load_kernel,
                      load_state, save_family, save_form, save_kernel,
                      save_state)
from zfock.sampling import keyed_rng, random_form, random_kernel, random_state
from zfock.scattering import ScatteringModel
from zfock.zops import KernelTensor, OrbitKernel, compress_kernel, dense_kernel, point_ladder

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


GRID2 = RapidityGrid((-0.4, 0.5), 1.0)
# (model, lattice, truncation): on 2 points at K = 3 Ising has no
# 3-particle orbit, so entries of shapes (1, 0), (0, 2) and (0, 0) occur
FAMILY_CASES = [(model, grid, K) for model in (FREE, ScatteringModel.ising(), SINH)
                for grid, K in ((RapidityGrid((-0.8, 0.1, 0.9), 1.0), 2), (GRID2, 3))]


def test_family_roundtrip(tmp_path):
    # the manifest holds each entry's orbit matrix, which loads back to the bit
    for i, (model, grid, K) in enumerate(FAMILY_CASES):
        A = random_form(model, grid, K, keyed_rng(0, "io", "family", i))
        fam = extract_family(model, A)
        save_family(tmp_path / str(i), fam)
        assert os.listdir(tmp_path / str(i)) == ["manifest.json"]
        back = load_family(tmp_path / str(i))
        assert (back.model, back.grid, back.truncation) == (model, grid, K)
        assert set(back.entries) == set(fam.entries)
        for key, kern in fam.entries.items():
            got = back.entry(*key).values
            assert got.shape == kern.values.shape
            assert got.tobytes() == kern.values.tobytes(), (i, key)
        if model == ScatteringModel.ising() and grid == GRID2:
            assert {(1, 0), (0, 2), (0, 0)} <= {k.values.shape for k in fam.entries.values()}


def test_family_file_holds_orbit_matrices(tmp_path):
    # free model on 2 points: the orbits of sector 2 are (0, 0), (0, 1) and
    # (1, 1), and the unit column of (0, 1) is (e_01 + e_10) / sqrt 2, so an
    # entry whose dense view is the symmetric f is written as [f00, sqrt 2 f01, f11]
    f = np.array([[0.3 - 0.2j, 1.1 + 0.4j], [1.1 + 0.4j, -0.7 + 0.9j]])
    fam = CoefficientFamily(FREE, GRID2, 2)
    fam.set_entry(compress_kernel(FREE, GRID2, KernelTensor(2, 0, f)))
    save_family(tmp_path / "fam", fam)
    doc = json.loads((tmp_path / "fam" / "manifest.json").read_text())
    [rec] = doc["entries"]
    got = np.array(rec["values"]).view(complex)[..., 0]
    np.testing.assert_allclose(got, [[f[0, 0]], [np.sqrt(2) * f[0, 1]], [f[1, 1]]],
                               rtol=1e-15)
    back = load_family(tmp_path / "fam").entry(2, 0)
    np.testing.assert_allclose(dense_kernel(FREE, GRID2, back).values, f, rtol=1e-15)


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
    # an orbit matrix whose shape is not (orbits_m, orbits_n) of its entry
    A = random_form(FREE, grid3, 1, keyed_rng(0, "io", "mismatch", 0))
    save_family(tmp_path / "fam", extract_family(FREE, A))
    path = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["entries"][1]["values"].pop()
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="shape") as err:
        load_family(tmp_path / "fam")
    assert str(path) in str(err.value)
    assert _reconstruct_status(tmp_path, grid3, 1) == 2


def _saved_family(path, grid):
    """A saved free family of a random form at K = 1; returns its manifest as a dict."""
    A = random_form(FREE, grid, 1, keyed_rng(0, "io", "family_checks", 1))
    save_family(path, extract_family(FREE, A))
    return json.loads((path / "manifest.json").read_text())


def test_family_entry_above_truncation_is_refused(tmp_path, grid3):
    # reconstruct would drop a monomial above the truncation, so loading
    # refuses it, naming the manifest, and the CLI exits 2
    manifest = _saved_family(tmp_path / "fam", grid3)
    manifest["entries"].append({"m": 2, "n": 0, "values": [[[1.0, 0.0]]] * 6})
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


def test_old_family_layout_is_refused(tmp_path, grid3):
    # entries that name dense kernel files are the older layout: the family
    # must be expanded again, and nothing reads the kernel files
    manifest = _saved_family(tmp_path / "fam", grid3)
    for rec in manifest["entries"]:
        rec["file"] = f"coeff_{rec['m']}_{rec['n']}.json"
        del rec["values"]
    path = tmp_path / "fam" / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="old family layout") as err:
        load_family(tmp_path / "fam")
    assert str(path) in str(err.value)
    assert _reconstruct_status(tmp_path, grid3, 1) == 2
    for rec in manifest["entries"]:
        del rec["file"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="missing field 'values'"):
        load_family(tmp_path / "fam")


def test_expand_refuses_a_directory_of_the_old_layout(tmp_path, grid3, capsys):
    # writing the new manifest over an old one would leave its dense kernel
    # files beside it: save_family refuses, naming the manifest, and
    # ``zfock expand`` exits 2; nothing in the directory changes
    fam = tmp_path / "fam"
    manifest = _saved_family(fam, grid3)
    for rec in manifest["entries"]:
        rec["file"] = f"coeff_{rec['m']}_{rec['n']}.json"
        del rec["values"]
        (fam / rec["file"]).write_text("{}")
    path = fam / "manifest.json"
    path.write_text(json.dumps(manifest))
    before = {name: (fam / name).read_bytes() for name in os.listdir(fam)}
    A = random_form(FREE, grid3, 1, keyed_rng(0, "io", "family_checks", 2))
    with pytest.raises(ValueError, match="old layout") as err:
        save_family(fam, extract_family(FREE, A))
    assert str(path) in str(err.value)
    save_form(tmp_path / "A.json", A)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": list(grid3.points), "mass": grid3.mass,
                               "truncation": 1, "scattering": {"family": "free"},
                               "omega": {"family": "zero"}, "seed": 0, "instances": 1}))
    status = cli.main(["expand", "--config", str(cfg), "--in", str(tmp_path / "A.json"),
                       "--out", str(fam)])
    assert status == 2
    assert str(path) in capsys.readouterr().err
    assert {name: (fam / name).read_bytes() for name in os.listdir(fam)} == before
    # a manifest of the current layout is written over
    new = tmp_path / "new"
    _saved_family(new, grid3)
    save_family(new, extract_family(FREE, A))
    assert os.listdir(new) == ["manifest.json"]
    assert load_family(new).truncation == 1


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
    pytest.param("family", "entries", [{"m": 0.0, "n": 0, "values": [[[1.0, 0.0]]]}],
                 id="family-float_entry_m"),
    pytest.param("family", "entries", [{"m": 0, "n": False, "values": [[[1.0, 0.0]]]}],
                 id="family-boolean_entry_n"),
    pytest.param("family", "entries", [{"m": 0, "n": 0, "values": "1.0"}],
                 id="family-string_entry_values"),
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
        save_family(tmp_path / "fam", extract_family(FREE, random_form(FREE, grid3, 1, rng)))
        path = tmp_path / "fam" / "manifest.json"
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
        load(tmp_path / "fam" if kind == "family" else path)
    assert str(path) in str(err.value)
    if kind == "family":
        assert _reconstruct_status(tmp_path, grid3, 1) == 2


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
    want = {"kind": "coefficient_family", **header, **model, "truncation": 2,
            "entries": [{"m": m, "n": n, "values": complex_to_nested(kernel.values)}
                        for (m, n), kernel in sorted(fam.entries.items())]}
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
