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
], ids=["bool_truncation", "bool_seed", "bool_instances", "bool_tolerance",
        "negative_tolerance", "nan_tolerance", "inf_tolerance", "unknown_check",
        "bool_mass", "bool_sinh_exp_a", "bool_omega_alpha", "nan_sinh_exp_a",
        "inf_sinh_exp_a", "neg_inf_sinh_exp_a", "nan_omega_alpha", "inf_omega_alpha"])
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


def test_expand_reconstruct_pipeline(tmp_path, grid3):
    doc = base_config(scattering={"family": "sinh_exp", "a": 0.7})
    cfg = write_config(tmp_path, doc)
    model = ScatteringModel.sinh_exp(0.7)
    A = random_form(model, grid3, 2, keyed_rng(3, "cli", "pipeline", 0))
    form_path = tmp_path / "A.json"
    save_form(form_path, A)
    fam_dir = tmp_path / "fam"
    out_path = tmp_path / "back.json"
    assert main(["expand", "--config", str(cfg),
                 "--in", str(form_path), "--out", str(fam_dir)]) == 0
    assert (fam_dir / "manifest.json").exists()
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
