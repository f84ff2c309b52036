"""Command line entry points: config parsing, reports, file pipelines."""

import json

import numpy as np
import pytest

from zfock.cli import main
from zfock.config import ConfigError, parse_config
from zfock.io import load_form, save_form, save_kernel
from zfock.sampling import keyed_rng, random_form, random_kernel
from zfock.scattering import ScatteringModel


def base_config(**extra):
    doc = {
        "grid": [-0.8, 0.1, 0.9],
        "mass": 1.0,
        "truncation": 2,
        "scattering": {"family": "free"},
        "seed": 11,
        "instances": 1,
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_config_minimal():
    cfg = parse_config(json.dumps(base_config()))
    assert cfg.grid.points == (-0.8, 0.1, 0.9)
    assert cfg.truncation == 2
    assert cfg.scattering["family"] == "free"


def test_parse_config_reports_all_problems():
    bad = base_config(truncation=-1)
    bad["grid"] = [0.0, 0.0, 1.0]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(bad))
    text = str(err.value)
    assert "duplicate lattice point at index 1" in text
    assert "truncation must be a positive integer" in text


def test_parse_config_unknown_family():
    bad = base_config(scattering={"family": "sine_gordon"})
    with pytest.raises(ConfigError, match="supported: free, ising, sinh_exp, table"):
        parse_config(json.dumps(bad))


def test_verify_writes_csv_report(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    report = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "suite,check,status,residual,tolerance"
    assert all(",pass," in line for line in lines[1:])
    out = capsys.readouterr().out
    assert "failed" in out and "passed" in out


def test_verify_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, base_config())
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["verify", "--config", str(cfg), "--report", str(first)]) == 0
    assert main(["verify", "--config", str(cfg), "--report", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_json_output(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert main(["verify", "--config", str(cfg), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records and all(r["status"] == "pass" for r in records)
    for field in ("suite", "check", "status", "residual", "tolerance", "seconds"):
        assert field in records[0]


def test_verify_fail_fast_on_broken_table(tmp_path, capsys):
    model = ScatteringModel.sinh_exp(1.0)
    grid = [-0.8, 0.1, 0.9]
    thetas, values = [], []
    for a in grid:
        for b in grid:
            t = a - b
            thetas.append(t)
            values.append(model.value(t))
    values[1] = 0.5 * values[1]
    table = {
        "family": "table",
        "thetas": thetas,
        "values": [[v.real, v.imag] for v in values],
    }
    cfg = write_config(tmp_path, base_config(scattering=table))
    assert main(["verify", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    assert "fail-fast" in out

    # without the scattering suite the gate row is still reported, first
    cfg = write_config(tmp_path, base_config(scattering=table, suites=["fock", "warped"]))
    report = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 1
    rows = report.read_text().splitlines()[1:]
    assert rows[0] == "scattering,model_axioms,fail,inf,1e-12"
    assert len(rows) > 1
    assert all(row.split(",")[2] == "skipped" for row in rows[1:])


def test_verify_names_overflowing_scattering_phase(tmp_path, capsys):
    # a = 1e308 is finite, but a * sinh(theta) overflows on the lattice
    # differences: the gate check fails naming the value, the rest is skipped
    doc = base_config(scattering={"family": "sinh_exp", "a": 1e308})
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), "--json"]) == 1
    gate, *rest = json.loads(capsys.readouterr().out)
    assert (gate["check"], gate["status"]) == ("model_axioms", "fail")
    assert "a * sinh(theta) = -inf is non-finite" in gate["note"]
    assert rest and all(record["status"] == "skipped" for record in rest)


def test_verify_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(truncation=-1))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"truncation": True},
    {"seed": False},
    {"instances": True},
    {"tolerances": {"ladder_adjoint": True}},
    {"tolerances": {"ladder_adjoint": -1e-9}},
    {"tolerances": {"ladder_adjoint": float("nan")}},
    {"tolerances": {"ladder_adjoint": float("inf")}},
    {"tolerances": {"ladder_adjont": 1e-9}},
    {"mass": True},
    {"scattering": {"family": "sinh_exp", "a": True}},
    {"omega": {"family": "log", "alpha": False}},
    {"scattering": {"family": "sinh_exp", "a": float("nan")}},
    {"scattering": {"family": "sinh_exp", "a": float("inf")}},
    {"scattering": {"family": "sinh_exp", "a": float("-inf")}},
    {"omega": {"family": "log", "alpha": float("nan")}},
    {"omega": {"family": "sqrt", "alpha": float("inf")}},
    {"grid": ["-0.8", 0.1, 0.9]},
    {"grid": [-0.8, 0.1, True]},
    {"grid": [-0.8, 0.1, 10**400]},
    {"scattering": {"family": "sinh_exp", "a": 10**400}},
], ids=["bool_truncation", "bool_seed", "bool_instances", "bool_tolerance",
        "negative_tolerance", "nan_tolerance", "inf_tolerance", "unknown_check",
        "bool_mass", "bool_sinh_exp_a", "bool_omega_alpha", "nan_sinh_exp_a",
        "inf_sinh_exp_a", "neg_inf_sinh_exp_a", "nan_omega_alpha", "inf_omega_alpha",
        "string_grid_point", "bool_grid_point", "huge_grid_point", "huge_sinh_exp_a"])
def test_verify_rejects_invalid_values(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, base_config(**extra))
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""


def test_verify_missing_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify", "--config", str(missing)]) == 2
    assert "error" in capsys.readouterr().err


def test_expand_reconstruct_pipeline(tmp_path):
    # on 2 points at K = 3 Ising has no 3-particle orbit: the family holds
    # orbit matrices with no rows or no columns
    cases = [(scattering, grid, K)
             for scattering in ({"family": "free"}, {"family": "ising"},
                                {"family": "sinh_exp", "a": 0.7})
             for grid, K in (([-0.8, 0.1, 0.9], 2), ([-0.4, 0.5], 3))]
    for i, (scattering, grid, K) in enumerate(cases):
        doc = base_config(grid=grid, truncation=K, scattering=scattering)
        cfg = write_config(tmp_path, doc, f"config{i}.json")
        config = parse_config(json.dumps(doc))
        A = random_form(config.build_model(), config.grid, K, keyed_rng(3, "cli", "pipeline", i))
        form_path = tmp_path / f"A{i}.json"
        save_form(form_path, A)
        fam_dir = tmp_path / f"fam{i}"
        out_path = tmp_path / f"back{i}.json"
        assert main(["expand", "--config", str(cfg),
                     "--in", str(form_path), "--out", str(fam_dir)]) == 0
        assert [p.name for p in fam_dir.iterdir()] == ["manifest.json"]
        assert main(["reconstruct", "--config", str(cfg),
                     "--in", str(fam_dir), "--out", str(out_path)]) == 0
        back = load_form(out_path)
        for key, mat in A.blocks.items():
            np.testing.assert_allclose(back.block(*key), mat, atol=1e-12)


def test_expand_rejects_foreign_lattice(tmp_path, grid4):
    cfg = write_config(tmp_path, base_config())
    A = random_form(ScatteringModel.free(), grid4, 2,
                    keyed_rng(3, "cli", "lattice", 0))
    form_path = tmp_path / "A.json"
    save_form(form_path, A)
    code = main(["expand", "--config", str(cfg),
                 "--in", str(form_path), "--out", str(tmp_path / "fam")])
    assert code == 2


def test_commands_refuse_a_foreign_model(tmp_path, capsys, grid3):
    # the free config meets files of the ising model: expand, reconstruct
    # and qcomm exit 2 and name the file
    cfg = write_config(tmp_path, base_config())
    ising = write_config(tmp_path, base_config(scattering={"family": "ising"}), "ising.json")
    rng = keyed_rng(3, "cli", "model", 0)
    A = tmp_path / "A.json"
    save_form(A, random_form(ScatteringModel.ising(), grid3, 2, rng))
    B = tmp_path / "B.json"
    save_form(B, random_form(ScatteringModel.free(), grid3, 2, rng))
    fam = tmp_path / "fam"
    assert main(["expand", "--config", str(ising), "--in", str(A), "--out", str(fam)]) == 0
    capsys.readouterr()
    runs = [(["expand", "--config", str(cfg), "--in", str(A), "--out", str(tmp_path / "f")], A),
            (["reconstruct", "--config", str(cfg), "--in", str(fam),
              "--out", str(tmp_path / "R.json")], fam),
            (["qcomm", "--a", "0.6", "--lhs", str(B), "--rhs", str(A),
              "--out", str(tmp_path / "C.json")], A)]
    for argv, named in runs:
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "scattering model" in err and str(named) in err, argv[0]
    assert not (tmp_path / "R.json").exists() and not (tmp_path / "C.json").exists()


def test_warp_inverse_roundtrip(tmp_path, grid3):
    A = random_form(ScatteringModel.free(), grid3, 2,
                    keyed_rng(3, "cli", "warp", 0))
    first = tmp_path / "A.json"
    mid = tmp_path / "warped.json"
    last = tmp_path / "back.json"
    save_form(first, A)
    assert main(["warp", "--a", "0.6", "--in", str(first), "--out", str(mid)]) == 0
    assert main(["warp", "--a", "-0.6", "--in", str(mid), "--out", str(last)]) == 0
    back = load_form(last)
    for key, mat in A.blocks.items():
        np.testing.assert_allclose(back.block(*key), mat, atol=1e-12)
    warped = load_form(mid)
    assert any(not np.allclose(warped.block(*key), mat)
               for key, mat in A.blocks.items())


def test_qcomm_vanishes_at_zero_strength(tmp_path, grid3):
    rng = keyed_rng(3, "cli", "qcomm", 0)
    A = random_form(ScatteringModel.free(), grid3, 2, rng)
    B = random_form(ScatteringModel.free(), grid3, 2, rng)
    lhs = tmp_path / "A.json"
    rhs = tmp_path / "B.json"
    out = tmp_path / "C.json"
    save_form(lhs, A)
    save_form(rhs, B)
    assert main(["qcomm", "--a", "0.0", "--lhs", str(lhs),
                 "--rhs", str(rhs), "--out", str(out)]) == 0
    plain = A @ B - B @ A
    back = load_form(out)
    for key, mat in plain.blocks.items():
        np.testing.assert_allclose(back.block(*key), mat, atol=1e-12)


def test_qcomm_rejects_kernel_file(tmp_path, grid3):
    kern = random_kernel(grid3, 1, 1, keyed_rng(3, "cli", "reject", 0))
    bad = tmp_path / "k.json"
    save_kernel(bad, kern, grid3)
    ok = tmp_path / "A.json"
    save_form(ok, random_form(ScatteringModel.free(), grid3, 2,
                              keyed_rng(3, "cli", "reject", 1)))
    code = main(["qcomm", "--a", "1.0", "--lhs", str(bad),
                 "--rhs", str(ok), "--out", str(tmp_path / "C.json")])
    assert code == 2


@pytest.mark.parametrize("command", ["warp", "qcomm"])
def test_overflowing_phase_writes_no_file(tmp_path, capsys, grid3, command):
    # the phase exp(i q.(Q p)) overflows to NaN at these strengths; JSON
    # cannot hold NaN, so the command must fail without leaving a file
    src = tmp_path / "A.json"
    save_form(src, random_form(ScatteringModel.free(), grid3, 2,
                               keyed_rng(3, "cli", "overflow", 0)))
    out = tmp_path / "out.json"
    args = (["warp", "--a", "1e308", "--in", str(src)] if command == "warp" else
            ["qcomm", "--a", "5e307", "--lhs", str(src), "--rhs", str(src)])
    with pytest.warns(RuntimeWarning):
        assert main(args + ["--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_qcomm_names_overflowing_deformation(tmp_path, capsys, grid3):
    # a = 1e308 is finite, but the doubled deformation 2a of the commutator
    # is not; the message must say so instead of calling a infinite
    src = tmp_path / "A.json"
    save_form(src, random_form(ScatteringModel.free(), grid3, 2,
                               keyed_rng(3, "cli", "overflow", 1)))
    out = tmp_path / "out.json"
    assert main(["qcomm", "--a", "1e308", "--lhs", str(src), "--rhs", str(src),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "needs finite a" not in err
    assert not out.exists()


def _drop_cols(doc):
    del doc["blocks"][0]["cols"]
    return doc


def _huge_entry(doc):
    # block (0, 0) holds one [re, im] pair; json reads 10**400 as an int
    doc["blocks"][0]["values"] = [[[10**400, 0.0]]]
    return doc


def _last_block(**fields):
    # the last block is (1, 1), so a field read as 1 keeps its shape
    def corrupt(doc):
        doc["blocks"][-1].update(fields)
        return doc
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda doc: {k: v for k, v in doc.items() if k != "truncation"},
    lambda doc: {k: v for k, v in doc.items() if k != "blocks"},
    _drop_cols,
    lambda doc: [doc],
    lambda doc: dict(doc, mass=None),
    lambda doc: dict(doc, grid="abc"),
    lambda doc: dict(doc, truncation=1.9),
    lambda doc: dict(doc, truncation="1"),
    lambda doc: dict(doc, truncation=True),
    lambda doc: dict(doc, truncated="no"),
    lambda doc: dict(doc, mass="1.0"),
    lambda doc: dict(doc, mass=10**400),
    lambda doc: dict(doc, truncation=-1),
    lambda doc: dict(doc, grid=[-0.8, 0.1, True]),
    _last_block(rows=1.0),
    _last_block(cols=True),
    _huge_entry,
], ids=["no_truncation", "no_blocks", "block_without_cols", "top_level_array",
        "null_mass", "string_grid", "fractional_truncation", "string_truncation",
        "boolean_truncation", "string_truncated", "string_mass", "huge_integer_mass",
        "negative_truncation", "boolean_grid_entry", "float_rows", "boolean_cols",
        "huge_integer_entry"])
def test_warp_rejects_malformed_form(tmp_path, capsys, grid3, corrupt):
    # a file of the wrong structure is bad input (exit 2), not a failed check
    src = tmp_path / "A.json"
    save_form(src, random_form(ScatteringModel.free(), grid3, 1,
                               keyed_rng(3, "cli", "malformed", 0)))
    src.write_text(json.dumps(corrupt(json.loads(src.read_text()))))
    out = tmp_path / "out.json"
    assert main(["warp", "--a", "0.5", "--in", str(src), "--out", str(out)]) == 2
    assert str(src) in capsys.readouterr().err
    assert not out.exists()
