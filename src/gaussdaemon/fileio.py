"""Plain-text state and model files, and deterministic CSV output.

State file: line 1 the mode count n, line 2 the 2n mean entries
(whitespace-separated), then 2n lines with the covariance-matrix rows.
Lines starting with ``#`` and blank lines are ignored.

Model file: sections ``[H_S]``, ``[C]``, ``[sigma_in]``, ``[mean_in]`` with
whitespace-separated matrix rows, plus an optional ``[measurement]`` section
with ``key = value`` entries (keys nu_m, theta_m, z_m, homodyne): z_m in
[0, 1] with 0 for homodyne, and ``homodyne = true`` is shorthand for z_m = 0.
A key may appear once, and a ``homodyne`` flag must agree with any z_m given.
The setting refers to the basis ``[C]`` and ``[sigma_in]`` are written in.

CSV output: optional ``#`` comment header lines, one header row, then data
rows with 12 significant digits -- byte-identical for identical inputs.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .dynamics import DiffusiveModel
from .exceptions import ParseError
from .measurement import GeneralDyneSetting
from .symplectic import GaussianState, validate_state


def _data_lines(path: str) -> list[tuple[int, str]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                out.append((ln, text))
    return out


def _floats(text: str, ln: int, path: str, expect: int | None = None) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in text.split()])
    except ValueError as exc:
        raise ParseError(f"{path}:{ln}: expected numbers, got {text!r}") from exc
    if expect is not None and vals.size != expect:
        raise ParseError(f"{path}:{ln}: expected {expect} entries, got {vals.size}")
    return vals


def read_state(path: str) -> GaussianState:
    """Read and validate a Gaussian state file."""
    lines = _data_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty state file")
    ln, text = lines[0]
    try:
        n = int(text)
    except ValueError as exc:
        raise ParseError(f"{path}:{ln}: first entry must be the mode count, got {text!r}") from exc
    if n < 1:
        raise ParseError(f"{path}:{ln}: mode count must be positive, got {n}")
    if len(lines) != 2 + 2 * n:
        raise ParseError(
            f"{path}: expected 1 + 1 + {2 * n} data lines for {n} modes, got {len(lines)}"
        )
    mean = _floats(lines[1][1], lines[1][0], path, expect=2 * n)
    rows = [_floats(text, ln, path, expect=2 * n) for ln, text in lines[2:]]
    return validate_state(mean, np.vstack(rows))


_MODEL_SECTIONS = ("H_S", "C", "sigma_in", "mean_in", "measurement")


def read_model(path: str) -> tuple[DiffusiveModel, GeneralDyneSetting | None]:
    """Read a model file; returns the model and the measurement setting, if present."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for ln, text in _data_lines(path):
        if text.startswith("[") and text.endswith("]"):
            name = text[1:-1].strip()
            if name not in _MODEL_SECTIONS:
                raise ParseError(f"{path}:{ln}: unknown section [{name}]")
            if name in sections:
                raise ParseError(f"{path}:{ln}: duplicate section [{name}]")
            sections[name] = []
            current = name
        else:
            if current is None:
                raise ParseError(f"{path}:{ln}: content before any section header")
            sections[current].append((ln, text))

    for name in ("H_S", "C", "sigma_in", "mean_in"):
        if name not in sections or not sections[name]:
            raise ParseError(f"{path}: missing required section [{name}]")

    def matrix(name: str) -> np.ndarray:
        rows = [_floats(text, ln, path) for ln, text in sections[name]]
        widths = {r.size for r in rows}
        if len(widths) != 1:
            raise ParseError(f"{path}: ragged rows in section [{name}]")
        return np.vstack(rows)

    h_s = matrix("H_S")
    c = matrix("C")
    sigma_in = matrix("sigma_in")
    mean_rows = [_floats(text, ln, path) for ln, text in sections["mean_in"]]
    mean_in = np.concatenate(mean_rows)
    model = DiffusiveModel(h_s=h_s, c=c, sigma_in=sigma_in, mean_in=mean_in)

    if "measurement" not in sections:
        return model, None
    keys: dict[str, str] = {}
    for ln, text in sections["measurement"]:
        if "=" not in text:
            raise ParseError(f"{path}:{ln}: expected key = value in [measurement], got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in ("nu_m", "theta_m", "z_m", "homodyne"):
            raise ParseError(f"{path}:{ln}: unknown measurement key {key!r}")
        if key in keys:
            raise ParseError(f"{path}:{ln}: repeated measurement key {key!r}")
        keys[key] = value.strip()

    def num(key: str, default: float) -> float:
        if key not in keys:
            return default
        try:
            return float(keys[key])
        except ValueError as exc:
            raise ParseError(f"{path}: measurement key {key} must be a number, got {keys[key]!r}") from exc

    flag = keys.get("homodyne", "false").lower()
    if flag not in ("true", "false", "1", "0"):
        raise ParseError(f"{path}: measurement key homodyne must be boolean, got {keys['homodyne']!r}")
    flagged = flag in ("true", "1")
    z_m = num("z_m", 0.0 if flagged else 1.0)
    if "homodyne" in keys and (z_m == 0.0) != flagged:
        raise ParseError(f"{path}: measurement key homodyne = {keys['homodyne']} contradicts z_m = {keys['z_m']}")
    return model, GeneralDyneSetting(nu_m=num("nu_m", 1.0), theta_m=num("theta_m", 0.0), z_m=z_m)


def write_csv(path: str, columns, rows, comments=()) -> None:
    """Write a CSV table with 12-significant-digit values and # comment headers.

    An existing regular file at path is replaced by a new file rather than
    truncated: ext4 writes a truncated file's pending blocks to disk and waits
    for them, which made each rewrite of a just-written table cost tens of
    milliseconds of disk latency.  A symbolic link is written through.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size and rows.shape[1] != len(columns):
        raise ValueError(f"rows have {rows.shape[1]} columns, header has {len(columns)}")
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows.tolist():  # Python floats format faster than numpy scalars, to the same text
            fh.write(",".join(format(v, ".12g") for v in row) + "\n")
