"""CLI contracts: subcommands, exit codes, output files, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qlelab
from qlelab.cli import run
from qlelab.io import (load_json, metric_from_file, metric_payload, parse_radii, parse_vector,
                       write_json)
from qlelab.sphere import make_grid
from qlelab.surfaces import ellipsoid, harmonic_perturbation


def test_parse_helpers():
    assert parse_radii("25,50,100") == [25.0, 50.0, 100.0]
    assert parse_radii("25:200:geometric") == [25.0, 50.0, 100.0, 200.0]
    assert np.abs(parse_vector("0.1,0,-2") - np.array([0.1, 0.0, -2.0])).max() == 0.0
    from qlelab.errors import ConfigError
    with pytest.raises(ConfigError):
        parse_radii("100,50")
    with pytest.raises(ConfigError):
        parse_radii("10:5:geometric")
    with pytest.raises(ConfigError):
        parse_vector("1,2")


def test_energy_rest_frame_equals_mass(tmp_path, capsys):
    out = tmp_path / "energy.json"
    csv = tmp_path / "energy.csv"
    code = run(["energy", "--family", "schwarzschild", "--mass", "1",
                "--radius", "10", "--a", "0,0,0", "--band-limit", "12",
                "--out", str(out), "--csv", str(csv)])
    assert code == 0
    payload = load_json(str(out))
    assert abs(payload["E"] - payload["m_LY"]) <= 1e-9
    # Areal radius 11.025 gives m_BY = 1.05 exactly for m = 1.
    assert abs(payload["E"] - 1.05) <= 1e-6
    lines = csv.read_text().splitlines()
    assert lines[0] == "E,E_tilde,boost_term,m_LY,C,lower,upper"
    assert len(lines) == 2


def test_energy_surface_file_flat_reference(tmp_path):
    surf = tmp_path / "surface.json"
    write_json(str(surf), {"band_limit": 12,
                           "X": {"kind": "ellipsoid", "axes": [1.0, 1.0, 1.1]}})
    out = tmp_path / "rep.json"
    code = run(["energy", "--surface", str(surf), "--a", "0.3,0,0",
                "--out", str(out)])
    assert code == 0
    payload = load_json(str(out))
    assert abs(payload["E"]) <= 1e-9   # own-embedding reference data
    assert payload["C"] == 0.0


def test_embed_subcommand_roundtrip(tmp_path):
    g = make_grid(12)
    E = ellipsoid(g, (1.0, 1.0, 1.1))
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(E.metric))
    out = tmp_path / "solution.json"
    code = run(["embed", "--metric", str(metric_file), "--out", str(out)])
    assert code == 0
    payload = load_json(str(out))
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-8
    assert len(payload["X_coeffs"]) == 3
    assert len(payload["X_coeffs"][0]) == g.n_coef


@pytest.mark.parametrize("band_limit", [16, 24, 32])
@pytest.mark.parametrize("make_surface", [
    lambda g: ellipsoid(g, (1.0, 1.3, 1.6)),
    lambda g: harmonic_perturbation(g, 1.0, {(2, 1): 0.03, (3, -2): 0.02, (4, 3): 0.015}),
], ids=["ellipsoid", "perturbation"])
def test_metric_file_round_trip(tmp_path, band_limit, make_surface):
    # Neither surface is axisymmetric, so the chart components of h depend on
    # phi at the poles; the ambient entries H_ij are smooth and round-trip.
    h = make_surface(make_grid(band_limit)).metric
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(h))
    grid, back = metric_from_file(load_json(str(metric_file)))
    assert grid.band_limit == band_limit
    assert np.abs(np.stack([back.tt - h.tt, back.tp - h.tp, back.pp - h.pp])).max() <= 1e-12


def test_embed_nonaxisymmetric_metric_file(tmp_path):
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(ellipsoid(make_grid(24), (1.0, 1.3, 1.6)).metric))
    out = tmp_path / "solution.json"
    assert run(["embed", "--metric", str(metric_file), "--out", str(out)]) == 0
    assert load_json(str(out))["residual"] <= 1e-8


@pytest.mark.parametrize("key, edit", [
    ("'h'", lambda p: {"band_limit": 8, "h": {"theta_theta": [1.0], "theta_phi": [0.0],
                                              "phi_phi": [1.0]}}),
    ("'yz'", lambda p: dict(p, H={k: v for k, v in p["H"].items() if k != "yz"})),
    ("'zz'", lambda p: dict(p, H=dict(p["H"], zz=list(p["H"]["zz"]) + [0.0]))),
], ids=["old-h-form", "missing-component", "over-long-component"])
def test_bad_metric_file_exits_2(tmp_path, capsys, key, edit):
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(ellipsoid(make_grid(8)).metric))
    metric_file.write_text(json.dumps(edit(load_json(str(metric_file)))))
    assert run(["embed", "--metric", str(metric_file)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_embed_from_surface_spec(tmp_path):
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), {"band_limit": 12,
                                  "surface": {"kind": "round", "radius": 2.0}})
    out = tmp_path / "solution.json"
    assert run(["embed", "--metric", str(metric_file), "--out", str(out)]) == 0
    assert load_json(str(out))["residual"] <= 1e-10


def test_infimum_subcommand(tmp_path):
    out = tmp_path / "inf.json"
    code = run(["infimum", "--family", "schwarzschild", "--mass", "1",
                "--radius", "5", "--band-limit", "12", "--out", str(out)])
    assert code == 0
    payload = load_json(str(out))
    assert payload["status"] == "closed-form"
    # Isotropic r = 5, m = 1: areal radius 6.05, m_BY = 11/10 exactly.
    assert abs(payload["value"] - 1.1) <= 1e-6
    assert abs(payload["closed_form_value"] - 1.1) <= 1e-6


def test_sweep_csv_format_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = ["sweep", "--family", "composite", "--mass", "1",
            "--momentum", "0.3,0,0", "--radii", "20,40", "--band-limit", "12",
            "--seed", "5"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "r,m_LY,V1,V2,V3,causal,C_r,inf_numeric,inf_closed,eps_max"
    assert len(lines) == 3
    assert "\r" not in b1.decode()
    # No stray temp files from the atomic writer.
    assert all(not name.startswith(".qlelab-") for name in os.listdir(tmp_path))


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "schwarzschild", "mass": 1.0,
                               "radius": 10.0, "a": [0, 0, 0],
                               "band_limit": 12}))
    out = tmp_path / "rep.json"
    code = run(["energy", "--config", str(cfg), "--radius", "5",
                "--out", str(out)])
    assert code == 0
    payload = load_json(str(out))
    assert payload["inputs"]["radius"] == 5.0   # flag wins over file


def test_exit_codes(tmp_path):
    # config errors -> 2
    assert run(["energy", "--family", "schwarzschild", "--mass", "1"]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "schwarzschild", "junk": 1}))
    assert run(["energy", "--config", str(cfg)]) == 2
    assert run(["energy", "--family", "schwarzschild", "--mass", "-1",
                "--radius", "10", "--band-limit", "12"]) == 2
    # numerical-domain errors -> 3 (sphere inside the Schwarzschild throat)
    assert run(["energy", "--family", "schwarzschild", "--mass", "1",
                "--radius", "0.3", "--band-limit", "12"]) == 3
    # no convergence -> 4
    g = make_grid(12)
    E = ellipsoid(g, (1.0, 1.0, 1.1))
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(E.metric))
    assert run(["embed", "--metric", str(metric_file), "--tol", "1e-18"]) == 4


def test_config_threads_key(tmp_path):
    # The BLAS thread cap is a flag only; a config that sets it is rejected.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 1}))
    assert run(["verify", "--config", str(cfg)]) == 2


def test_infimum_config_a0_shape(tmp_path):
    # A config list a0 skips parse_vector; a wrong length still exits 2.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "schwarzschild", "mass": 1.0, "radius": 5.0,
                               "band_limit": 12, "a0": [0.1, 0.2]}))
    assert run(["infimum", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, key, config", [
    ("verify", "seed", {"seed": "s"}),
    ("verify", "band_limit", {"band_limit": "x"}),
    ("infimum", "a0", {"family": "schwarzschild", "mass": 1.0, "radius": 5.0,
                       "band_limit": 12, "a0": ["x", 0, 0]}),
    ("energy", "band_limit", {"family": "flat", "radius": 5.0, "band_limit": 8.7}),
    ("energy", "band_limit", {"family": "flat", "radius": 5.0, "band_limit": True}),
    ("verify", "seed", {"seed": 7.0}),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, key, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("band_limit", ["x", None, 24.5])
@pytest.mark.parametrize("command, flag, payload", [
    ("embed", "--metric", {"surface": {"kind": "round", "radius": 1.0}}),
    ("energy", "--surface", {"X": {"kind": "round", "radius": 1.0}}),
])
def test_file_band_limit_must_be_an_integer(tmp_path, capsys, command, flag, payload, band_limit):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(payload, band_limit=band_limit)))
    assert run([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert "'band_limit'" in err and "Traceback" not in err


def test_verify_subcommand_exit_zero():
    # Invariant tolerances assume L >= 16, the verify default.
    assert run(["verify", "--seed", "7"]) == 0


def test_installed_entry_point():
    # The child imports the same qlelab as this process, installed or not.
    src = os.path.dirname(os.path.dirname(qlelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qlelab.cli", "energy",
                           "--family", "flat", "--radius", "5",
                           "--band-limit", "8", "--a", "0,0,0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "energy:" in proc.stdout
