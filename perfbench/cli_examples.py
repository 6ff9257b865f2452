"""The README's command-line examples, run in-process through ``gaussdaemon.cli.main``."""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import gaussdaemon as gd
import gaussdaemon.cli


def _write_tmsts(path: str) -> None:
    """The README's example state file: TMSTS with N = 1, r = 0.5."""
    state = gd.tmsts(1.0, 0.5)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# two-mode squeezed thermal state, N = 1, r = 0.5\n2\n")
        fh.write(" ".join(repr(float(v)) for v in state.mean) + "\n")
        for row in state.cm:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _csv_rows(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _expect(out: str, *lines: str) -> list[str]:
    return [f"missing output line {ln!r}" for ln in lines if ln not in out.splitlines()]


def run_examples(tmp: str) -> tuple[dict[str, float], list[str]]:
    """Time each example once; return seconds per example and the failures seen."""
    state_file = os.path.join(tmp, "tmsts.txt")
    _write_tmsts(state_file)
    paths = {name: os.path.join(tmp, f"{name}.csv") for name in ("zsweep", "transient", "traj")}

    def check_zsweep(_out):
        rows = _csv_rows(paths["zsweep"])
        return [] if rows[:-1, 1].max() <= rows[-1, 1] + 1e-7 else ["opo-zsweep: a grid value beats z_opt"]

    def check_transient(_out):
        rows = _csv_rows(paths["transient"])
        ok = rows.shape == (10001, 4) and (rows[:, 2] - rows[:, 1]).min() >= -1e-12
        return [] if ok else ["opo-transient: table shape or hom90 >= hom0 fails"]

    def check_traj(out):
        ok = _csv_rows(paths["traj"]).shape[0] == 201 and "n_traj = 1000, stored points = 201" in out.splitlines()
        return [] if ok else ["trajectories: unexpected ensemble output"]

    examples = {
        "daemonic": (
            ["daemonic", "--state", state_file],
            lambda out: _expect(
                out,
                "max general-dyne = 1.10404569753 at gendyne nu_m=1 theta_m=0 z_m=1",
                "homodyne maximum = 0.814620952223 at homodyne theta_m=0",
                "heterodyne = 1.10404569753",
            ),
        ),
        "opo_ss": (
            ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3"],
            lambda out: _expect(out, "det sigma_c = 7.71779788708", "daemonic ergotropy = 0.954703754632"),
        ),
        "opo_zsweep": (["opo-zsweep", "--out", paths["zsweep"]], check_zsweep),
        "opo_transient": (
            ["opo-transient", "--chi-tilde", "0.8", "--nu-in", "1", "--nu0", "5", "--T", "10",
             "--out", paths["transient"]],
            check_transient,
        ),
        "trajectories": (
            ["trajectories", "--chi-tilde", "0.6", "--nu-in", "3", "--n-traj", "1000", "--T", "3", "--seed", "1",
             "--out", paths["traj"]],
            check_traj,
        ),
        "validate": (["validate", "--cases", "500", "--seed", "0"], lambda out: []),
    }
    seconds: dict[str, float] = {}
    failures: list[str] = []
    for name, (argv, check) in examples.items():
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = gaussdaemon.cli.main(argv)
        seconds[name] = time.perf_counter() - t0
        if code != 0:
            failures.append(f"cli {name}: exit code {code}: {buf.getvalue().strip()[-200:]}")
        else:
            failures += check(buf.getvalue())
    return seconds, failures
