"""File formats and deterministic report emission.

All numeric output uses 17 significant digits ('.17g'), '.' decimals and LF
line endings, so identical inputs produce byte-identical files.  Writes are
atomic (temp file + rename).

Surface file:   {"band_limit": L, "X": {"kind": ...}} or
                {"band_limit": L, "X_coeffs": [[...], [...], [...]]}
Metric file:    {"band_limit": L, "H": {"xx": [...], "xy": [...], "xz": [...],
                 "yy": [...], "yz": [...], "zz": [...]}} or
                {"band_limit": L, "surface": {...X spec...}}
Data config:    {"family": "schwarzschild"|"composite"|"flat",
                 "mass": m, "momentum": [p1, p2, p3]}

Coefficient lists use the real spherical-harmonic ordering with l ascending
and m from -l to l (flat index l^2 + l + m), up to degree L.  A metric is
stored as its smooth ambient tensor H_ij (`sphere.ambient_tensor`).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .sphere import InducedMetric, SphereGrid, ambient_coeffs, make_grid, metric_from_ambient
from .surfaces import EmbeddedSurface, surface_from_spec, surface_geometry


def fmt(x) -> str:
    """Canonical 17-significant-digit representation of a float."""
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str):
    """Write text to path atomically (temp file in the same directory)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qlelab-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _canonical(obj):
    """Recursively map floats/arrays to canonical string-formatted floats."""
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return None          # keep the JSON strict
        return float(fmt(obj))
    if isinstance(obj, (int, np.integer, str, bool)) or obj is None:
        return obj
    raise InvalidArgumentError(f"cannot serialize object of type {type(obj)!r}")


def write_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(_canonical(payload), indent=2) + "\n")


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell)
                              for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON file {path!r}: {exc}") from exc


def _require_keys(obj: dict, allowed, what: str):
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys in {what}: {sorted(extra)}")


def check_int(value) -> int:
    """`value` itself if it is an int; a bool, float or string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _file_band_limit(payload: dict, what: str) -> int:
    try:
        return check_int(payload.get("band_limit", 24))
    except TypeError as exc:
        raise ConfigError(f"{what}: 'band_limit' {exc}") from None


def surface_from_file(payload: dict, grid: SphereGrid | None = None):
    """Build (grid, EmbeddedSurface) from a parsed surface file."""
    _require_keys(payload, {"band_limit", "X", "X_coeffs"}, "surface file")
    if grid is None:
        grid = make_grid(_file_band_limit(payload, "surface file"))
    if ("X" in payload) == ("X_coeffs" in payload):
        raise ConfigError("surface file needs exactly one of 'X', 'X_coeffs'")
    if "X" in payload:
        try:
            return grid, surface_from_spec(grid, payload["X"])
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc
    coeffs = np.asarray(payload["X_coeffs"], dtype=float)
    if coeffs.shape != (3, grid.n_coef):
        raise ConfigError(
            f"X_coeffs must be 3 lists of {grid.n_coef} coefficients")
    return grid, surface_geometry(grid, coeffs=coeffs.T)


def surface_payload(surface: EmbeddedSurface) -> dict:
    return {
        "band_limit": surface.grid.band_limit,
        "X_coeffs": [surface.coeffs[:, j] for j in range(3)],
    }


_AMBIENT_KEYS = ("xx", "xy", "xz", "yy", "yz", "zz")   # order of `ambient_coeffs`


def metric_from_file(payload: dict, grid: SphereGrid | None = None):
    """Build (grid, InducedMetric) from a parsed metric file."""
    _require_keys(payload, {"band_limit", "H", "surface"}, "metric file")
    if grid is None:
        grid = make_grid(_file_band_limit(payload, "metric file"))
    if ("H" in payload) == ("surface" in payload):
        raise ConfigError("metric file needs exactly one of 'H', 'surface'")
    if "surface" in payload:
        try:
            return grid, surface_from_spec(grid, payload["surface"]).metric
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc
    H = payload["H"]
    _require_keys(H, _AMBIENT_KEYS, "metric components")
    coeffs = np.zeros((grid.n_coef, len(_AMBIENT_KEYS)))
    for j, key in enumerate(_AMBIENT_KEYS):
        if key not in H:
            raise ConfigError(f"metric file is missing component {key!r}")
        c = np.asarray(H[key], dtype=float)
        if c.size > grid.n_coef:
            raise ConfigError(f"component {key!r} exceeds the band limit")
        coeffs[: c.size, j] = c
    return grid, metric_from_ambient(grid, coeffs)


def metric_payload(h: InducedMetric) -> dict:
    coeffs = h.grid.truncate(ambient_coeffs(h))
    return {"band_limit": h.grid.band_limit,
            "H": {key: coeffs[:, j] for j, key in enumerate(_AMBIENT_KEYS)}}


def parse_radii(text: str):
    """Parse '25,50,100' or 'start:end:geometric' into an ascending list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or parts[2] != "geometric":
            raise ConfigError("radius range must be 'start:end:geometric'")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad radius range {text!r}") from exc
        if not (0 < start <= end):
            raise ConfigError("radius range needs 0 < start <= end")
        radii = [start]
        while radii[-1] * 2.0 <= end * (1 + 1e-12):
            radii.append(radii[-1] * 2.0)
        return radii
    try:
        radii = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad radius list {text!r}") from exc
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be a nonempty ascending list")
    return radii


def parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.asarray([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}") from exc
    if vec.shape != (3,):
        raise ConfigError(f"expected three comma-separated numbers, got {text!r}")
    return vec
