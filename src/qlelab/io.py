"""File formats and deterministic report emission.

All numeric output uses 17 significant digits ('.17g'), '.' decimals and LF
line endings, so identical inputs produce byte-identical files.  Writes are
atomic (temp file + rename).

Surface file:   {"band_limit": L, "X": {"kind": ...}} or
                {"band_limit": L, "X_coeffs": [[...], [...], [...]]}
Metric file:    {"band_limit": L, "H": {"xx": [...], "xy": [...], "xz": [...],
                 "yy": [...], "yz": [...], "zz": [...]}} or
                {"band_limit": L, "surface": {...X spec...}}
Data config:    {"family": name, ...}, with the keys that the family's
                constructor in `initialdata.FAMILIES` takes ("mass",
                "momentum"); a missing key takes the constructor's default.

A file without "band_limit" is read at `sphere.DEFAULT_BAND_LIMIT`.
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
from .sphere import (DEFAULT_BAND_LIMIT, InducedMetric, SphereGrid, ambient_coeffs, make_grid,
                     metric_from_ambient)
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
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys in {what}: {sorted(extra)}")


def check_int(value) -> int:
    """`value` itself if it is an int; a bool, float or string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def check_str(value) -> str:
    """`value` itself if it is a string; anything else is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def check_finite(value) -> float:
    """`value` as a float; a bool or a string is a TypeError, a NaN or an infinity a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:       # an int beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _numbers(value, what: str, ndim: int) -> np.ndarray:
    """`value` as an `ndim`-dimensional float array of finite numbers.

    A string, bool or null entry, a ragged list, the wrong nesting depth or a
    NaN/Infinity is a ConfigError naming `what`.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ConfigError(f"{what} is a ragged list") from None
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must hold only numbers")
    if arr.ndim != ndim:
        raise ConfigError(f"{what} must be a {ndim}-dimensional list, got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} holds a non-finite value")
    return arr.astype(float)


def _file_band_limit(payload: dict, what: str) -> int:
    try:
        return check_int(payload.get("band_limit", DEFAULT_BAND_LIMIT))
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
    coeffs = _numbers(payload["X_coeffs"], "'X_coeffs'", 2)
    if coeffs.shape != (3, grid.n_coef):
        raise ConfigError(
            f"'X_coeffs' must be 3 lists of {grid.n_coef} coefficients")
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
        c = _numbers(H[key], f"metric component {key!r}", 1)
        if c.size > grid.n_coef:
            raise ConfigError(f"component {key!r} exceeds the band limit")
        coeffs[: c.size, j] = c
    return grid, metric_from_ambient(grid, coeffs)


def metric_payload(h: InducedMetric) -> dict:
    coeffs = h.grid.truncate(ambient_coeffs(h))
    return {"band_limit": h.grid.band_limit,
            "H": {key: coeffs[:, j] for j, key in enumerate(_AMBIENT_KEYS)}}


def _finite_floats(tokens, what: str, text: bool) -> list:
    """Finite floats from the text tokens of a flag (`text`) or the entries of a list.

    A list entry must itself be a number: a string or a bool there is a
    ConfigError naming `what`, as is a NaN or an infinity anywhere.
    """
    try:
        return [check_finite(float(tok) if text else tok) for tok in tokens]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def parse_radii(value) -> list:
    """Ascending finite radii from '25,50,100', 'start:end:geometric' or a list."""
    if isinstance(value, str) and ":" in value:
        parts = value.split(":")
        if len(parts) != 3 or parts[2] != "geometric":
            raise ConfigError("radius range must be 'start:end:geometric'")
        start, end = _finite_floats(parts[:2], f"radius range {value!r}", text=True)
        if not (0 < start <= end):
            raise ConfigError("radius range needs 0 < start <= end")
        radii = [start]
        while radii[-1] * 2.0 <= end * (1 + 1e-12):
            radii.append(radii[-1] * 2.0)
        return radii
    text = isinstance(value, str)
    tokens = [tok for tok in value.split(",") if tok.strip()] if text else value
    radii = _finite_floats(tokens, f"radius list {value!r}", text)
    if not radii or radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be a nonempty ascending list of positive numbers")
    return radii


def parse_vector(value) -> np.ndarray:
    """A finite 3-vector from 'v1,v2,v3' or from a list of three numbers."""
    text = isinstance(value, str)
    tokens = value.split(",") if text else value
    vec = np.asarray(_finite_floats(tokens, f"vector {value!r}", text))
    if vec.shape != (3,):
        raise ConfigError(f"expected three numbers, got {value!r}")
    return vec


def parse_vectors(value) -> list:
    """A list of finite 3-vectors, each as `parse_vector` reads it."""
    return [parse_vector(v) for v in value]
