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
                       surface_payload, write_json)
from qlelab.sphere import make_grid
from qlelab.surfaces import ellipsoid, harmonic_perturbation, round_sphere


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
    # A config list holds numbers; flag text is parsed.
    assert parse_radii([25, 50.0]) == [25.0, 50.0]
    for bad in (["25", 50], [25, True]):
        with pytest.raises(ConfigError):
            parse_radii(bad)
    with pytest.raises(ConfigError):
        parse_vector([True, 0, 0])


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
    ("'xx'", lambda p: dict(p, H=dict(p["H"], xx="abc"))),
    ("'xy'", lambda p: dict(p, H=dict(p["H"], xy=[[1.0, 0.0]]))),
    ("'xz'", lambda p: dict(p, H=dict(p["H"], xz=[1.0, [0.0, 2.0]]))),
    ("'yy'", lambda p: dict(p, H=dict(p["H"], yy=[1.0, "2.0"]))),
    ("'yz'", lambda p: dict(p, H=dict(p["H"], yz=[0.0, float("nan")]))),
    ("'zz'", lambda p: dict(p, H=dict(p["H"], zz=[float("inf")]))),
    ("metric components", lambda p: dict(p, H=5)),
], ids=["old-h-form", "missing-component", "over-long-component", "string", "two-dimensional",
        "ragged", "string-entry", "nan", "infinity", "not-an-object"])
def test_bad_metric_file_exits_2(tmp_path, capsys, key, edit):
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(ellipsoid(make_grid(8)).metric))
    metric_file.write_text(json.dumps(edit(load_json(str(metric_file)))))
    assert run(["embed", "--metric", str(metric_file)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda c: c[:2] + [["abc"] * len(c[2])],
    lambda c: [[row] for row in c],
    lambda c: [c[0], c[1], c[2][:-1] + [[0.0]]],
    lambda c: [c[0], c[1], c[2][:-1] + [float("nan")]],
    lambda c: c[:2],
], ids=["string", "three-dimensional", "ragged", "nan", "two-rows"])
def test_bad_surface_coefficients_exit_2(tmp_path, capsys, edit):
    surface_file = tmp_path / "surface.json"
    payload = surface_payload(round_sphere(make_grid(8), 1.0))
    surface_file.write_text(json.dumps(dict(
        payload, X_coeffs=edit([list(map(float, c)) for c in payload["X_coeffs"]]))))
    assert run(["energy", "--surface", str(surface_file), "--a", "0,0,0"]) == 2
    err = capsys.readouterr().err
    assert "'X_coeffs'" in err and "Traceback" not in err


def test_embed_from_surface_spec(tmp_path):
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), {"band_limit": 12,
                                  "surface": {"kind": "round", "radius": 2.0}})
    out = tmp_path / "solution.json"
    assert run(["embed", "--metric", str(metric_file), "--out", str(out)]) == 0
    assert load_json(str(out))["residual"] <= 1e-10


@pytest.mark.parametrize("key, spec", [
    ("'axes'", {"kind": "ellipsoid", "axes": "abc"}),
    ("'radius'", {"kind": "round", "radius": "x"}),
    ("'radius'", {"kind": "round", "radius": float("nan")}),
    ("'center'", {"kind": "round", "center": [0.0, "y", 0.0]}),
    ("'x,0'", {"kind": "harmonic_perturbation", "coeffs": {"x,0": 0.01}}),
    ("'coeffs[2,0]'", {"kind": "harmonic_perturbation", "coeffs": {"2,0": None}}),
    ("'coeffs'", {"kind": "harmonic_perturbation", "coeffs": [1.0, "z"]}),
    ("'base_radius'", {"kind": "harmonic_perturbation", "base_radius": True}),
], ids=["axes-string", "radius-string", "radius-nan", "center-string", "coeffs-key",
        "coeffs-value", "coeffs-list", "base-radius-bool"])
@pytest.mark.parametrize("command, flag, block", [("energy", "--surface", "X"),
                                                  ("embed", "--metric", "surface")])
def test_bad_surface_spec_number_exits_2(tmp_path, capsys, key, spec, command, flag, block):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"band_limit": 8, block: spec}))
    assert run([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_embed_non_finite_tol_exits_2(tmp_path, capsys, tol):
    metric_file = tmp_path / "metric.json"
    write_json(str(metric_file), metric_payload(ellipsoid(make_grid(8)).metric))
    assert run(["embed", "--metric", str(metric_file), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert "tol" in err and "Traceback" not in err


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
    ("embed", "metric", {"metric": 5}),
    ("energy", "out", {"family": "flat", "radius": 5.0, "band_limit": 8, "out": 5}),
    ("energy", "csv", {"family": "flat", "radius": 5.0, "band_limit": 8, "csv": ["a"]}),
    ("embed", "tol", {"metric": "metric.json", "tol": 10 ** 400}),
    # A config number is a JSON number: a bool or a string is not read as one.
    ("energy", "mass", {"family": "schwarzschild", "mass": True, "radius": 10.0}),
    ("infimum", "mass", {"family": "schwarzschild", "mass": "1", "radius": 10.0}),
    ("energy", "radius", {"family": "schwarzschild", "mass": 1.0, "radius": "10"}),
    ("energy", "momentum", {"family": "composite", "momentum": [True, 0, 0], "radius": 10.0}),
    ("sweep", "radii", {"family": "flat", "radii": ["25", 50]}),
    ("sweep", "radii", {"family": "flat", "radii": [25, False]}),
    ("energy", "a", {"family": "flat", "radius": 10.0, "a": ["0.1", 0, 0]}),
    ("infimum", "a0", {"family": "flat", "radius": 10.0, "a0": [0, True, 0]}),
    ("sweep", "a_samples", {"family": "flat", "radii": [25], "a_samples": [[0, "1", 0]]}),
    ("embed", "tol", {"metric": "metric.json", "tol": "1e-9"}),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, key, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


def test_number_flags_still_parse(tmp_path):
    # Flag text is parsed; a config string in the flag form of a list is too.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "composite", "radii": "25,50", "a_samples": [[0, 0, 0]],
                               "band_limit": 8}))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--mass", "1", "--momentum", "0.1,0,0",
                "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["25", "50"]


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


def _exit_code(argv):
    """run(argv), or the code of the SystemExit that argparse raises for an unknown flag."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def input_files(tmp_path):
    """Paths of an L = 8 metric file and an L = 8 surface file."""
    files = {"metric": tmp_path / "metric.json", "surface": tmp_path / "surface.json"}
    files["metric"].write_text(json.dumps(
        {"band_limit": 8, "surface": {"kind": "round", "radius": 1.0}}))
    files["surface"].write_text(json.dumps(
        {"band_limit": 8, "X": {"kind": "round", "radius": 1.0}}))
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("key, argv, config", [
    ("'mass'", ["energy", "--family", "flat", "--mass", "2", "--radius", "5"], None),
    ("'momentum'", ["energy", "--family", "schwarzschild", "--momentum", "0.5,0,0",
                    "--radius", "10"], None),
    ("'mass'", ["energy"], {"family": "flat", "mass": 2, "radius": 5}),
    ("'momentum'", ["sweep"], {"family": "schwarzschild", "momentum": [0.5, 0, 0],
                               "radii": [25]}),
    ("--band-limit", ["embed", "--metric", "{metric}", "--band-limit", "16"], None),
    ("'band_limit'", ["embed", "--metric", "{metric}"], {"band_limit": 16}),
    ("'band_limit'", ["energy", "--surface", "{surface}", "--band-limit", "16"], None),
    ("'radius'", ["energy", "--surface", "{surface}", "--radius", "10"], None),
    ("'mass'", ["energy", "--surface", "{surface}", "--mass", "1"], None),
    ("'family'", ["energy", "--surface", "{surface}", "--family", "flat"], None),
    ("--seed", ["embed", "--metric", "{metric}", "--seed", "3"], None),
    ("--seed", ["energy", "--surface", "{surface}", "--seed", "3"], None),
    ("'seed'", ["energy", "--surface", "{surface}"], {"seed": 3}),
    ("--out", ["verify", "--out", "verify.json"], None),
], ids=["flat-mass", "schwarzschild-momentum", "flat-mass-config",
        "schwarzschild-momentum-config", "embed-band-limit", "embed-band-limit-config",
        "surface-band-limit", "surface-radius", "surface-mass", "surface-family", "embed-seed",
        "energy-seed", "energy-seed-config", "verify-out"])
def test_unread_option_exits_2(tmp_path, capsys, input_files, key, argv, config):
    # Each of these inputs used to be accepted and ignored (exit 0).
    argv = [arg.format(**input_files) for arg in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("key, argv", [
    ("mass", ["energy", "--family", "composite", "--mass", "nan", "--radius", "10"]),
    ("mass", ["energy", "--family", "composite", "--mass", "inf", "--radius", "10"]),
    ("mass", ["infimum", "--family", "schwarzschild", "--mass", "1e400", "--radius", "10"]),
    ("radius", ["energy", "--family", "flat", "--radius", "nan"]),
    ("radius", ["infimum", "--family", "flat", "--radius", "inf"]),
    ("momentum", ["energy", "--family", "composite", "--momentum", "nan,0,0",
                  "--radius", "10"]),
    ("radii", ["sweep", "--family", "flat", "--radii", "25,nan"]),
    ("radii", ["sweep", "--family", "flat", "--radii", "10:inf:geometric"]),
    ("radii", ["sweep", "--family", "flat", "--radii=0,10"]),
    ("band_limit", ["verify", "--band-limit", "8"]),
    ("band_limit", ["verify", "--band-limit", "12"]),
], ids=["mass-nan", "mass-inf", "mass-overflow", "radius-nan", "radius-inf", "momentum-nan",
        "radii-nan", "radii-inf-range", "radii-zero", "verify-L8", "verify-L12"])
def test_non_finite_or_unsupported_number_exits_2(capsys, key, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


def test_parsing_loads_no_numpy():
    # `--threads` caps the BLAS pools before numpy loads, so building the
    # parser and parsing every subcommand must not import numpy.
    src = os.path.dirname(os.path.dirname(qlelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """
import sys
from qlelab.cli import build_parser
parser = build_parser()
for argv in (["embed", "--metric", "m.json", "--tol", "1e-9"],
             ["energy", "--family", "composite", "--mass", "1", "--momentum", "0.3,0,0",
              "--radius", "10", "--a", "0.3,0,0", "--band-limit", "12"],
             ["infimum", "--family", "flat", "--radius", "5", "--a0", "0,0,0", "--seed", "1"],
             ["sweep", "--family", "flat", "--radii", "25:200:geometric", "--threads", "1"],
             ["verify", "--seed", "7"]):
    parser.parse_args(argv)
sys.exit("numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


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
