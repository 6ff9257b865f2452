"""Unit tests for file formats and the command-line interface."""

import io
import math
import os
import shlex
import signal
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussdaemon as gd
from gaussdaemon import ParseError
from gaussdaemon.bipartite import _LOG_MAX_CM_ENTRY
from gaussdaemon.cli import _describe, _pick_stride, main
from scalar_riccati import opo_quadrature_gains, scalar_riccati_transient
from standard_form_reference import degenerate_states


STATE_TMSTS = """\
# two-mode squeezed thermal state, N = 1, r = 0.5
2
0 0 0 0
4.629241904445731 0 3.525603580931404 0
0 4.629241904445731 0 -3.525603580931404
3.525603580931404 0 4.629241904445731 0   # trailing comment
0 -3.525603580931404 0 4.629241904445731
"""

MODEL_OPO = """\
[H_S]
0 -0.3
-0.3 0
[C]
0 1
-1 0
[sigma_in]
3 0
0 3
[mean_in]
0 0
[measurement]
homodyne = true
theta_m = 1.5707963267948966
"""

# Two damped modes (C = Omega per mode), squeezed and coupled, watched at a generic phase.
MODEL_TWO_MODE = """\
[H_S]
0 -0.3 0.1 0
-0.3 0 0 0.1
0.1 0 0 0.2
0 0.1 0.2 0
[C]
0 1 0 0
-1 0 0 0
0 0 0 1
0 0 -1 0
[sigma_in]
2 0 0 0
0 2 0 0
0 0 3 0
0 0 0 3
[mean_in]
0 0 0 0
[measurement]
theta_m = 0.7
z_m = 0.4
"""


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        """Comments and blank lines are ignored; the state validates."""
        path = tmp_path / "state.txt"
        path.write_text(STATE_TMSTS)
        st = gd.read_state(str(path))
        assert st.n == 2
        assert np.allclose(st.cm, gd.tmsts(1.0, 0.5).cm, atol=1e-12)

    def test_errors_carry_line_numbers(self, tmp_path):
        """Malformed tokens report the file and line they came from."""
        path = tmp_path / "bad.txt"
        path.write_text("1\n0 zero\n1 0\n0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2: expected numbers"):
            gd.read_state(str(path))
        path.write_text("1\n0 0 0\n1 0\n0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2: expected 2 entries, got 3"):
            gd.read_state(str(path))
        path.write_text("x\n")
        with pytest.raises(ParseError, match="mode count"):
            gd.read_state(str(path))
        path.write_text("# no modes\n0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2: mode count must be positive, got 0"):
            gd.read_state(str(path))
        path.write_text("2\n0 0 0 0\n1 0 0 0\n")
        with pytest.raises(ParseError, match="expected 1 \\+ 1 \\+ 4 data lines"):
            gd.read_state(str(path))
        path.write_text("# only comments\n\n")
        with pytest.raises(ParseError, match="empty state file"):
            gd.read_state(str(path))

    def test_unphysical_state_rejected(self, tmp_path):
        """Validation runs on the parsed state."""
        path = tmp_path / "bad.txt"
        path.write_text("1\n0 0\n0.5 0\n0 0.5\n")
        with pytest.raises(gd.UnphysicalStateError, match="uncertainty principle"):
            gd.read_state(str(path))


class TestModelFiles:
    def test_full_model(self, tmp_path):
        """All sections parse; the measurement maps to a homodyne setting."""
        path = tmp_path / "model.txt"
        path.write_text(MODEL_OPO)
        model, setting = gd.read_model(str(path))
        assert model.n == 1 and model.m == 1
        assert np.allclose(model.sigma_in, 3.0 * np.eye(2))
        assert setting.homodyne and setting.theta_m == pytest.approx(np.pi / 2)

    def test_homodyne_key_is_z_m_zero(self, tmp_path):
        """homodyne = true, z_m = 0 and both together give the same setting, homodyne(theta_m), described as before."""
        path = tmp_path / "model.txt"
        path.write_text(MODEL_OPO)
        _, flagged = gd.read_model(str(path))
        path.write_text(MODEL_OPO.replace("homodyne = true", "z_m = 0"))
        _, zero = gd.read_model(str(path))
        assert flagged == zero == gd.homodyne(np.pi / 2)
        assert (flagged.nu_m, flagged.theta_m, flagged.z_m) == (1.0, np.pi / 2, 0.0)
        assert _describe(zero) == "homodyne theta_m=1.57079632679"
        assert main(["validate", "--model", str(path)]) == 0
        path.write_text(MODEL_OPO.replace("homodyne = true", "homodyne = 1\nz_m = 0.0"))
        assert gd.read_model(str(path))[1] == zero
        path.write_text(MODEL_OPO.replace("homodyne = true", "z_m = -0.1"))
        with pytest.raises(ValueError, match=r"z_m must lie in \[0, 1\] \(0 = homodyne\)"):
            gd.read_model(str(path))

    def test_measurement_optional(self, tmp_path):
        """Without [measurement] the setting comes back as None."""
        text = MODEL_OPO[: MODEL_OPO.index("[measurement]")]
        path = tmp_path / "model.txt"
        path.write_text(text)
        model, setting = gd.read_model(str(path))
        assert setting is None

    def test_section_errors(self, tmp_path):
        """Unknown, duplicate, missing sections and stray content are rejected."""
        path = tmp_path / "model.txt"
        path.write_text("[H_S]\n0 0\n0 0\n[bogus]\n")
        with pytest.raises(ParseError, match=r"unknown section \[bogus\]"):
            gd.read_model(str(path))
        path.write_text("[H_S]\n0 0\n0 0\n[H_S]\n")
        with pytest.raises(ParseError, match=r"duplicate section \[H_S\]"):
            gd.read_model(str(path))
        path.write_text("1 2 3\n[H_S]\n")
        with pytest.raises(ParseError, match="content before any section"):
            gd.read_model(str(path))
        path.write_text("[H_S]\n0 0\n0 0\n[C]\n0 1\n-1 0\n[sigma_in]\n1 0\n0 1\n")
        with pytest.raises(ParseError, match=r"missing required section \[mean_in\]"):
            gd.read_model(str(path))
        path.write_text(MODEL_OPO.replace("0 -0.3\n", "0 -0.3 1\n", 1))
        with pytest.raises(ParseError, match=r"ragged rows in section \[H_S\]"):
            gd.read_model(str(path))
        path.write_text(MODEL_OPO + "gain = 2\n")
        with pytest.raises(ParseError, match="unknown measurement key 'gain'"):
            gd.read_model(str(path))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("homodyne = true\nz_m = 0.5", r"model\.txt: measurement key homodyne = true contradicts z_m = 0\.5"),
            ("homodyne = false\nz_m = 0", r"model\.txt: measurement key homodyne = false contradicts z_m = 0"),
            ("z_m = 0.5\nz_m = 0.25", r"model\.txt:14: repeated measurement key 'z_m'"),
            ("homodyne = true\nhomodyne = 1", r"model\.txt:14: repeated measurement key 'homodyne'"),
            ("homodyne", r"model\.txt:13: expected key = value in \[measurement\], got 'homodyne'"),
            ("z_m = half", r"model\.txt: measurement key z_m must be a number, got 'half'"),
            ("homodyne = maybe", r"model\.txt: measurement key homodyne must be boolean, got 'maybe'"),
        ],
    )
    def test_measurement_key_conflicts(self, tmp_path, capsys, entries, message):
        """A homodyne flag that contradicts z_m or is not boolean, a repeated key, a line without '=' and a value that
        is not a number are ParseErrors naming the file (exit 2)."""
        path = tmp_path / "model.txt"
        path.write_text(MODEL_OPO.replace("homodyne = true", entries))
        with pytest.raises(ParseError, match=message):
            gd.read_model(str(path))
        assert main(["validate", "--model", str(path)]) == 2
        assert "model.txt" in capsys.readouterr().err


class TestCsv:
    def test_format_and_determinism(self, tmp_path):
        """12 significant digits, comment headers, byte-identical rewrites."""
        path = tmp_path / "out.csv"
        rows = [[1.0 / 3.0, 2.0], [1e-12, 123456789012345.0]]
        gd.write_csv(str(path), ["alpha", "beta"], rows, comments=["config: demo"])
        text = path.read_text()
        assert text.splitlines()[0] == "# config: demo"
        assert text.splitlines()[1] == "alpha,beta"
        assert "0.333333333333" in text
        gd.write_csv(str(path.with_suffix(".again")), ["alpha", "beta"], rows, comments=["config: demo"])
        assert path.read_bytes() == path.with_suffix(".again").read_bytes()
        with pytest.raises(ValueError, match="header has"):
            gd.write_csv(str(path), ["only"], rows)
        assert path.read_bytes() == path.with_suffix(".again").read_bytes()

    def test_special_values_are_pinned(self, tmp_path):
        """Signed zeros, infinities, NaN and the extreme subnormal and finite doubles keep their exact text."""
        path = tmp_path / "special.csv"
        rows = np.array([[0.0, -0.0, np.inf, -np.inf], [np.nan, 5e-324, -1.7976931348623157e308, 1.0 / 3.0]])
        gd.write_csv(str(path), ["a", "b", "c", "d"], rows)
        expected = b"a,b,c,d\n0,-0,inf,-inf\nnan,4.94065645841e-324,-1.79769313486e+308,0.333333333333\n"
        assert path.read_bytes() == expected

    def test_rewrite_replaces_the_file_and_writes_through_a_link(self, tmp_path):
        """A rewrite is a new file with only the new table; a symbolic link stays a link to the rewritten target."""
        path = tmp_path / "out.csv"
        gd.write_csv(str(path), ["a"], [[1.0], [2.0], [3.0]])
        old_inode = path.stat().st_ino
        keep = tmp_path / "kept.csv"
        os.link(path, keep)
        gd.write_csv(str(path), ["b"], [[4.0]])
        assert path.read_text() == "b\n4\n"
        assert keep.read_text() == "a\n1\n2\n3\n"
        assert path.stat().st_ino != old_inode
        link = tmp_path / "link.csv"
        link.symlink_to(path)
        gd.write_csv(str(link), ["c"], [[5.0]])
        assert link.is_symlink()
        assert path.read_text() == "c\n5\n"


class TestCli:
    def test_ergotropy_exit_codes(self, tmp_path, capsys):
        """Exit 0 with the report on stdout; exit 2 on invalid input files."""
        path = tmp_path / "state.txt"
        path.write_text(STATE_TMSTS)
        assert main(["ergotropy", "--state", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ergotropy = " in out
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n0 0\n0.5 0\n0 0.5\n")
        assert main(["ergotropy", "--state", str(bad)]) == 2
        assert "uncertainty principle" in capsys.readouterr().err
        assert main(["ergotropy", "--state", str(tmp_path / "missing.txt")]) == 2

    def test_numeric_failures_map_to_exit_3(self, tmp_path, capsys, monkeypatch):
        """RuntimeError-family failures exit 3."""
        path = tmp_path / "state.txt"
        path.write_text(STATE_TMSTS)
        monkeypatch.setattr(
            "gaussdaemon.cli.ergotropy_report",
            lambda state: (_ for _ in ()).throw(gd.NumericError("solver broke down")),
        )
        assert main(["ergotropy", "--state", str(path)]) == 3
        assert "solver broke down" in capsys.readouterr().err

    def test_riccati_solver_failure_exits_3(self, capsys, monkeypatch):
        """A LinAlgError (a ValueError) from the one-mode Riccati basis step is a numeric failure, not bad input."""

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("stable basis not found.")

        monkeypatch.setattr(gd.dynamics, "_one_mode_basis", broken)
        args = ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3", "--strategy", "gendyne", "--z-m", "0.4"]
        assert main(args + ["--theta-m", "0.7"]) == 3
        assert "algebraic Riccati solve failed" in capsys.readouterr().err

    def test_model_trajectories_need_no_steady_state(self, tmp_path, capsys, monkeypatch):
        """Two-mode trajectories take the interval maps, so a broken Schur solver leaves their CSV as it was.

        The Schur route itself still turns the LinAlgError into a NumericError (exit 3 from the CLI).
        """

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Schur form not found.")

        model, out = tmp_path / "model.txt", tmp_path / "traj.csv"
        model.write_text(MODEL_TWO_MODE)
        args = ["trajectories", "--model", str(model), "--n-traj", "2", "--T", "0.01", "--dt", "0.01", "--out", str(out)]
        assert main(args) == 0
        written = out.read_bytes()
        monkeypatch.setattr(gd.dynamics, "_stable_schur", broken)
        assert main(args) == 0
        assert out.read_bytes() == written
        mm = gd.monitored(*gd.read_model(str(model)))
        with pytest.raises(gd.NumericError, match="algebraic Riccati solve failed: Schur form not found."):
            gd.steady_state_conditional(mm)

    @pytest.mark.parametrize("command", ["opo-ss", "daemonic", "trajectories"])
    @pytest.mark.parametrize(
        "options, named",
        [(["--z-m", "0.3"], "--z-m"), (["--strategy", "hom0", "--theta-m", "1.0"], "--theta-m")],
    )
    def test_measurement_options_need_gendyne(self, tmp_path, capsys, command, options, named):
        """--z-m or --theta-m without --strategy gendyne exits 2 naming the option, rather than being ignored.

        With --strategy gendyne, --z-m and --theta-m run (exit 0).
        """
        state, model = tmp_path / "state.txt", tmp_path / "model.txt"
        state.write_text(STATE_TMSTS)
        model.write_text(MODEL_TWO_MODE)
        args = {
            "opo-ss": ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3"],
            "daemonic": ["daemonic", "--state", str(state)],
            "trajectories": ["trajectories", "--model", str(model), "--T", "0.01", "--dt", "0.01"]
            + ["--n-traj", "2", "--out", str(tmp_path / "traj.csv")],
        }[command]
        assert main(args + options) == 2
        err = capsys.readouterr().err
        assert f"{named} applies only to --strategy gendyne" in err, err
        assert main(args + ["--strategy", "gendyne", "--z-m", "0.3", "--theta-m", "1.0"]) == 0

    def test_daemonic_rejects_a_one_mode_state(self, tmp_path, capsys):
        """daemonic on a one-mode state file is invalid input (exit 2) naming the mode count."""
        path = tmp_path / "state.txt"
        path.write_text("1\n0 0\n1 0\n0 1\n")
        assert main(["daemonic", "--state", str(path)]) == 2
        assert "daemonic requires a two-mode state, got 1 modes" in capsys.readouterr().err

    def test_daemonic_cross_checks(self, tmp_path, capsys):
        """The daemonic command reports closed form and pipeline side by side."""
        path = tmp_path / "state.txt"
        path.write_text(STATE_TMSTS)
        assert main(["daemonic", "--state", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max general-dyne" in out and "heterodyne" in out
        assert main(["daemonic", "--state", str(path), "--strategy", "gendyne", "--z-m", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "closed = " in out and "pipeline = " in out

    def test_validate_files_and_suites(self, tmp_path, capsys):
        """validate checks files when given, otherwise runs the invariant suites."""
        state = tmp_path / "state.txt"
        state.write_text(STATE_TMSTS)
        model = tmp_path / "model.txt"
        model.write_text(MODEL_OPO)
        assert main(["validate", "--state", str(state), "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "state OK" in out and "model OK" in out
        assert main(["validate", "--cases", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 4

    def test_seed_env_fallback(self, capsys, monkeypatch):
        """GAUSSDAEMON_SEED feeds commands that take a seed; --seed overrides."""
        monkeypatch.setenv("GAUSSDAEMON_SEED", "77")
        assert main(["validate", "--cases", "5"]) == 0
        assert "seed = 77" in capsys.readouterr().out
        assert main(["validate", "--cases", "5", "--seed", "3"]) == 0
        assert "seed = 3" in capsys.readouterr().out
        monkeypatch.delenv("GAUSSDAEMON_SEED")
        assert main(["validate", "--cases", "5"]) == 0
        assert "seed = 0" in capsys.readouterr().out

    def test_tmsts_sweep_csv(self, tmp_path, capsys):
        """tmsts-sweep prints both routes and writes a deterministic sweep."""
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["tmsts-sweep", "--N", "1", "--r", "0.5", "--out", str(out1)]) == 0
        assert main(["tmsts-sweep", "--N", "1", "--r", "0.5", "--out", str(out2)]) == 0
        printed = capsys.readouterr().out
        assert "closed = " in printed and "pipeline = " in printed
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()
        data = [ln for ln in header if not ln.startswith("#")]
        assert data[0] == "z_m,ergotropy"
        assert len(data) == 51

    def test_opo_zsweep_csv(self, tmp_path):
        """The z sweep CSV appends the z_opt marker row and echoes references."""
        out = tmp_path / "fig1.csv"
        assert main(["opo-zsweep", "--chi-tilde", "0.6", "--nu-in", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("z_opt" in c for c in comments)
        assert any("heterodyne reference" in c for c in comments)
        data = [ln for ln in lines if not ln.startswith("#")]
        last = [float(tok) for tok in data[-1].split(",")]
        assert last[0] == pytest.approx(0.25)  # (1 - 0.6)/(1 + 0.6)

    def test_trajectories_csv(self, tmp_path, monkeypatch):
        """Trajectory ensembles are reproducible byte for byte per seed, for any chunk size."""
        args = [
            "trajectories", "--chi-tilde", "0.6", "--nu-in", "3", "--strategy", "het",
            "--T", "0.2", "--dt", "1e-3", "--n-traj", "16", "--seed", "5",
        ]
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        out3 = tmp_path / "t3.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        monkeypatch.setattr(gd.dynamics, "_TRAJ_CHUNK", 5)
        assert main(args + ["--out", str(out3)]) == 0
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
        data = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
        assert data[0].startswith("kappa_t,mean_0,mean_1,sc_0_0")

    def test_trajectories_from_model_file(self, tmp_path):
        """Model files drive the trajectory command, measurement taken from the file."""
        model = tmp_path / "model.txt"
        model.write_text(MODEL_OPO)
        out = tmp_path / "t.csv"
        rc = main([
            "trajectories", "--model", str(model), "--T", "0.1", "--dt", "1e-3",
            "--n-traj", "4", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        assert "homodyne" in out.read_text().splitlines()[2]

    def test_trajectories_requires_a_model(self, capsys):
        """Either --model or --chi-tilde must be supplied."""
        assert main(["trajectories", "--out", "/tmp/never.csv"]) == 2
        assert "requires --model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["opo-ss", "--chi-tilde", "nan"],
        ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "nan"],
        ["opo-transient", "--chi-tilde", "0.6", "--nu0", "inf", "--out", "OUT"],
        ["opo-ss", "--chi-tilde", "0.6", "--strategy", "gendyne", "--z-m", "0.5", "--theta-m", "nan"],
        ["daemonic", "--state", "STATE", "--strategy", "gendyne", "--z-m", "0.5", "--theta-m", "inf"],
        ["ergotropy", "--state", "INF_STATE"],
        ["ergotropy", "--state", "NAN_MEAN"],
        ["validate", "--model", "NAN_MODEL"],
    ],
)
def test_non_finite_input_exits_2(args, tmp_path, capsys):
    """NaN and infinite inputs are invalid input (exit 2), not a printed nan with exit 0."""
    files = {
        "STATE": STATE_TMSTS,
        "INF_STATE": "1\n0 0\ninf 0\n0 1\n",
        "NAN_MEAN": "1\nnan 0\n1 0\n0 1\n",
        "NAN_MODEL": MODEL_OPO.replace("0 -0.3\n-0.3 0", "0 nan\nnan 0"),
    }
    argv = []
    for arg in args:
        if arg in files:
            path = tmp_path / f"{arg.lower()}.txt"
            path.write_text(files[arg])
            arg = str(path)
        argv.append(str(tmp_path / "out.csv") if arg == "OUT" else arg)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "nan" not in captured.out
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["opo-ss", "opo-zsweep"])
def test_steady_commands_take_no_initial_scale(command, tmp_path, capsys):
    """--nu0 belongs to the commands that start from a thermal state; the steady ones reject it as an unknown option."""
    with pytest.raises(SystemExit) as info:
        main([command, "--chi-tilde", "0.5", "--nu0", "1e100", "--out", str(tmp_path / "out.csv")])
    assert info.value.code == 2
    assert "unrecognized arguments: --nu0 1e100" in capsys.readouterr().err


def test_pick_stride_steps_down_to_a_divisor():
    """The stride is the largest divisor of the step count at most n_steps // 200."""
    assert _pick_stride(1205) == 5  # 1205 // 200 = 6 does not divide 1205
    assert _pick_stride(1200) == 6
    assert _pick_stride(150) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ergotropy_of_a_widely_spread_spectrum(seed, tmp_path, capsys):
    """A two-mode state with nu = (1e8, 1) prints passive energy (1e8 + 1) / 2 to all 12 digits."""
    s = gd.random_symplectic(np.random.default_rng(seed), 2, max_squeeze=1.5)
    cm = s @ np.diag([1e8, 1e8, 1.0, 1.0]) @ s.T
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in 0.5 * (cm + cm.T))
    path = tmp_path / "wide.txt"
    path.write_text(f"2\n0 0 0 0\n{rows}\n")
    assert main(["ergotropy", "--state", str(path)]) == 0
    assert "passive_energy = 50000000.5\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, code, out",
    [
        (1, 3, "energy 5e+307 or passive energy inf is not finite"),
        (2, 0, "energy = 1e+308\npassive_energy = 1e+308\nergotropy = 0\n"),
    ],
)
def test_ergotropy_near_the_float_maximum(n, code, out, tmp_path, capsys):
    """1e308 I is a valid state: two modes print its energy and ergotropy 0; one mode, whose det overflows, exits 3.

    Warnings are errors here, so no step may pass through an overflow warning.
    """
    rows = "\n".join(" ".join("1e308" if i == j else "0" for j in range(2 * n)) for i in range(2 * n))
    path = tmp_path / "huge.txt"
    path.write_text(f"{n}\n{' '.join(['0'] * (2 * n))}\n{rows}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ergotropy", "--state", str(path)]) == code
    captured = capsys.readouterr()
    assert out in (captured.err if code else captured.out)


def _readme_block(readme: str, marker: str) -> str:
    """Body of the first fenced code block after ``marker`` in the README."""
    start = readme.index("```", readme.index(marker))
    body = readme.index("\n", start) + 1
    return readme[body : readme.index("```", body)]


def test_readme_cli_examples(tmp_path, capsys, monkeypatch):
    """The README's CLI examples print exactly what the README shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tmsts.txt").write_text(_readme_block(readme, "**State file**"))
    examples = _readme_block(readme, "Examples:").split("\n\n")
    commands = (
        "gaussdaemon daemonic --state tmsts.txt",
        "gaussdaemon opo-ss --chi-tilde 0.6 --nu-in 3",
        "gaussdaemon validate --cases 500 --seed 0",
    )
    for command in commands:
        [example] = [ex for ex in examples if ex.startswith(f"$ {command}\n")]
        expected = example.split("\n", 1)[1].rstrip("\n") + "\n"
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "args",
    [
        ["opo-transient", "--chi-tilde", "0.5", "--dt", "0"],
        ["opo-transient", "--chi-tilde", "0.5", "--T", "inf"],
        ["trajectories", "--chi-tilde", "0.5", "--n-traj", "2", "--dt", "0"],
        ["trajectories", "--chi-tilde", "0.5", "--n-traj", "2", "--T", "inf"],
    ],
)
def test_degenerate_time_grid_exits_2(args, tmp_path, capsys):
    """A zero step or an infinite span is invalid input (exit 2), not a traceback."""
    assert main([*args, "--out", str(tmp_path / "out.csv")]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("n_th, r", [("1", "400"), ("1e300", "1")])
def test_tmsts_out_of_range_exits_2(n_th, r, capsys):
    """A squeezed thermal state whose determinant overflows is invalid input (exit 2), not a traceback."""
    assert main(["tmsts-sweep", "--N", n_th, "--r", r]) == 2
    assert "is out of range" in capsys.readouterr().err
    with pytest.raises(ValueError, match="is out of range"):
        gd.tmsts(float(n_th), float(r))


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("r", ["9.5", "20", "40"])
@pytest.mark.parametrize("n_th", ["0", "1", "1e3"])
def test_tmsts_sweep_never_rejects_a_state_tmsts_built(n_th, r, out, tmp_path):
    """tmsts-sweep on a state tmsts accepts is valid input: it exits 0 or 3, never 2, and never with a traceback.

    The physicality test of the standard form allows the round-off of each of
    its terms; det sigma and Delta cancel from terms of size cosh^4 2r, so from
    r ~ 9.5 on the floats no longer decide them, and the form is accepted.
    """
    args = ["tmsts-sweep", "--N", n_th, "--r", r] + (["--out", str(tmp_path / "sweep.csv")] if out else [])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    assert code in (0, 3), err.getvalue()
    assert "unphysical" not in err.getvalue()


@pytest.mark.parametrize("n_th", ["1e9", "1e70"])
def test_tmsts_large_values_pass_the_cross_check(n_th, capsys):
    """Closed forms and pipeline agree to round-off at any magnitude, so large valid inputs exit 0."""
    assert main(["tmsts-sweep", "--N", n_th, "--r", "1"]) == 0
    assert "disagree" not in capsys.readouterr().err


def _write_state(path: Path, state: gd.GaussianState) -> str:
    text = "2\n" + " ".join(map(repr, state.mean.tolist())) + "\n"
    path.write_text(text + "".join(" ".join(map(repr, row)) + "\n" for row in state.cm.tolist()))
    return str(path)


def test_pure_tmsts_files_pass_the_cross_checks(tmp_path, capsys):
    """daemonic exits 0 on every pure TMSTS file with r in 4.5, 4.6, ..., 8.2, all 38 of them readable.

    det sigma_A^c ~ 1 cancels from terms of size cosh^2 2r in both routes,
    so the cross-check allows 1e-12 of those terms over sqrt(det sigma_A^c).
    An allowance of 1e-12 of the values alone failed 28 of the files.  An
    eigvalsh physicality test rejected r = 8.0 and 8.2, whose sigma + i Omega
    has smallest eigenvalue -7.8e-10 and -9.3e-10 in 60-digit arithmetic:
    its own round-off, about eps |sigma| = 2e-9, exceeded TOL_PSD there.
    """
    readable = 0
    for r in np.arange(45, 83) / 10.0:
        state = gd.tmsts(0.0, float(r))
        try:
            gd.validate_state(state.mean, state.cm)
        except gd.GaussDaemonError:
            continue
        readable += 1
        assert main(["daemonic", "--state", _write_state(tmp_path / "state.txt", state)]) == 0, r
        assert capsys.readouterr().err == ""
    assert readable == 38


@pytest.mark.parametrize("r", ["6", "7"])
def test_pure_tmsts_sweep_passes_the_cross_checks(r, capsys):
    """tmsts-sweep's own homodyne comparison allows the same cancelled terms (both exited 3)."""
    assert main(["tmsts-sweep", "--N", "0", "--r", r]) == 0
    assert "disagree" not in capsys.readouterr().err


@pytest.mark.parametrize("n_th, r", [(1.0, 0.5), (0.0, 4.5), (0.0, 5.0), (1e3, 1.0)])
def test_pipeline_off_by_1e_7_exits_3(n_th, r, tmp_path, capsys, monkeypatch):
    """A pipeline value 1e-7 off (relative) still fails daemonic's cross-check where that is above round-off.

    For pure TMSTS the allowance, 1e-12 cosh^2 2r, passes 1e-7 of the value
    cosh(2r) / 2 from r ~ 5.4 on, where the closed form's own error is eps cosh^2 2r.
    """
    pipeline = gd.bipartite._pipeline

    def perturbed(*args):
        value, det_c = pipeline(*args)
        return value * (1.0 + 1e-7), det_c

    monkeypatch.setattr(gd.bipartite, "_pipeline", perturbed)
    assert main(["daemonic", "--state", _write_state(tmp_path / "state.txt", gd.tmsts(n_th, r))]) == 3
    assert "disagree" in capsys.readouterr().err


def test_validate_rejects_non_positive_case_count(capsys):
    """validate --cases below 1 checks nothing, so it is invalid input rather than a pass."""
    assert main(["validate", "--cases", "-3"]) == 2
    assert "at least one case" in capsys.readouterr().err
    with pytest.raises(ValueError, match="at least one case"):
        gd.invariant_suite(n_cases=0)


def test_invariant_suite_reports_a_failing_case(monkeypatch, capsys):
    """A case that always fails with margin m gives violations == n_cases and worst == m; validate prints [FAIL] and exits 2."""
    margin = 0.125
    suites = list(gd.randomized._SUITES)
    name, _ = suites[2]
    suites[2] = (name, lambda rng: (True, margin))
    monkeypatch.setattr(gd.randomized, "_SUITES", tuple(suites))
    results = gd.invariant_suite(n_cases=7, seed=4)
    assert [r.name for r in results] == [n for n, _ in suites]
    assert results[2] == gd.SuiteResult(name, 7, 7, margin)
    assert all(r.violations == 0 for i, r in enumerate(results) if i != 2)
    assert main(["validate", "--cases", "3"]) == 2
    out = capsys.readouterr().out
    assert f"  [FAIL] {name}: cases=3 violations=3 worst=1.250e-01" in out
    assert out.count("[pass]") == 3


class _OverBudget(Exception):
    """Raised by the per-call alarm.  Not an OSError: the CLI reports those as exit 2, which would hide a hang."""


@contextmanager
def _time_budget(seconds: int):
    def expire(signum, frame):
        raise _OverBudget(f"CLI call ran past its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("nu_in, code", [("1e300", 2), ("5.75e76", 0)])
def test_opo_nu_in_range(nu_in, code, capsys):
    """nu_in past the covariance range is invalid input (exit 2), not a -inf ergotropy; just inside it runs."""
    assert main(["opo-ss", "--chi-tilde", "0.5", "--nu-in", nu_in, "--strategy", "hom0"]) == code
    assert ("is out of range" in capsys.readouterr().err) == (code == 2)


def test_transient_at_large_nu_in_matches_scalar_riccati(tmp_path):
    """opo-transient at nu_in = 1e8 finishes within 5 s and matches the per-quadrature closed form.

    Unbalanced, the Hamiltonian's norm would grow with nu_in, and with it
    the number of doublings of each interval map.  The reference is
    tests/scalar_riccati.py from the closed-form steady state, plus the
    unconditional energy in closed form, to the CSV's 12 digits.
    """
    out = tmp_path / "t.csv"
    with _time_budget(5):
        args = ["opo-transient", "--chi-tilde", "0.5", "--T", "0.01", "--dt", "1e-3", "--nu-in", "1e8"]
        assert main([*args, "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", comments="#", skiprows=3)
    p = gd.OpoParams(0.5, nu_in=1e8, nu_0=5.0)
    times = table[:, 0]
    two_a = np.array([-1.0 - p.chi_tilde, -1.0 + p.chi_tilde])  # 2 a_i per quadrature, kappa = 1
    growth = np.exp(np.outer(times, two_a))
    energy = 0.25 * (5.0 * growth + p.nu_in * (growth - 1.0) / two_a).sum(axis=1)
    for column, name in enumerate(("hom0", "hom90", "het"), start=1):
        s_inf = np.diag(gd.opo_conditional_ss(p, gd.strategy_setting(name)))
        gains = opo_quadrature_gains(0.5, 1e8, name)
        sigma = [scalar_riccati_transient(*g, 5.0, s, times) for g, s in zip(gains, s_inf)]
        exact = energy - 0.5 * np.sqrt(sigma[0] * sigma[1])
        assert np.abs(table[:, column] - exact).max() <= 1e-11 * np.abs(exact).max(), name


def test_transient_at_nu_in_1e20_passes_the_positivity_check(tmp_path):
    """Conditional CMs with widely spread eigenvalues are valid; the one-mode check no longer cancels them to 0."""
    args = ["opo-transient", "--chi-tilde", "0.5", "--T", "0.01", "--dt", "1e-3", "--nu-in", "1e20"]
    assert main([*args, "--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize(
    "chi_tilde, nu_in",
    [
        ("0.9999814993294961", "10000"),
        ("0.99999", "1e12"),
        ("0.9999999", "1e12"),
        ("0.999999999", "1e15"),
        ("0.9999999937", "100"),
    ],
)
def test_zsweep_guards_hold_near_threshold(tmp_path, chi_tilde, nu_in):
    """Near threshold the z_opt and heterodyne guards compare two solves of the same filter data, so they pass.

    These runs exited 3 while the closed form derived its own pointer
    variances: the two derivations of the data differed by a rounding.
    """
    args = ["opo-zsweep", "--chi-tilde", chi_tilde, "--nu-in", nu_in, "--out", str(tmp_path / "z.csv")]
    assert main(args) == 0


def test_round_off_negative_at_huge_energy_is_clamped(capsys):
    """At chi~ = 0 the daemonic ergotropy is 0 up to round-off of about 1e-14 E, which is not an error."""
    assert main(["opo-ss", "--chi-tilde", "0", "--nu-in", "1.1e77"]) == 0
    assert "daemonic ergotropy = 0" in capsys.readouterr().out


_OPO_STRATEGIES = [[], ["--strategy", "hom0"], ["--strategy", "hom90"], ["--strategy", "het"]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["opo-ss", "opo-transient", "opo-zsweep"]),
    log_gap=st.floats(-10.0, 0.0),
    log_nu=st.floats(0.0, 300.0),
    strategy=st.one_of(
        st.sampled_from(_OPO_STRATEGIES),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, math.pi)).map(
            lambda zt: ["--strategy", "gendyne", "--z-m", repr(zt[0]), "--theta-m", repr(zt[1])]
        ),
    ),
)
def test_opo_cli_ends_within_budget(command, log_gap, log_nu, strategy):
    """Any chi~ up to 1 - 1e-10, nu_in up to 1e300 and strategy: every run exits 0, 2 or 3 within 10 s."""
    args = [command, "--chi-tilde", repr(1.0 - 10.0**log_gap), "--nu-in", repr(10.0**log_nu)]
    if command == "opo-ss":
        args += strategy
    elif command == "opo-transient":
        args += ["--T", "0.02", "--dt", "1e-3"]
    with tempfile.TemporaryDirectory() as tmp, _time_budget(10):
        code = main(args if command == "opo-ss" else [*args, "--out", str(Path(tmp) / "out.csv")])
    assert code in (0, 2, 3), args


def _daemonic_state(family: str, u: float, seed: int) -> tuple[gd.GaussianState, bool]:
    """(state, physical by construction) for one daemonic CLI fuzz case; u in [0, 1] sets the family's size."""
    rng = np.random.default_rng(seed)
    if family == "pure-tmsts":  # up to the range bound of tmsts
        return gd.tmsts(0.0, u * 0.5 * _LOG_MAX_CM_ENTRY), True
    if family in ("near-pure", "unphysical"):
        gap = -1e-6 if family == "unphysical" else (0.0 if u < 0.2 else 10.0 ** (-16.0 + 8.0 * u))
        s = gd.random_symplectic(rng, 2, max_squeeze=1.0 + 3.0 * u)
        cm = s @ np.kron(np.diag([1.0 + gap, rng.uniform(1.0, 3.0)]), np.eye(2)) @ s.T
        return gd.GaussianState(rng.standard_normal(4), 0.5 * (cm + cm.T)), family == "near-pure"
    states = dict(degenerate_states(rng))
    return gd.GaussianState(rng.standard_normal(4), states[family].cm), True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(
        ["pure-tmsts", "sigma_a-isotropic", "uncorrelated", "c_plus=c_minus", "c_plus=-c_minus"]
        + ["near-pure", "unphysical"]
    ),
    u=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_daemonic_cli_errors_are_typed(family, u, seed):
    """The daemonic command on state files: valid states exit 0 or 3, never 2, and no run ends in a traceback.

    A state is valid when it is physical by construction and its file passes
    read_state, which rejects most states unphysical by 1e-6 (exit 2); no run
    may fail with a bare math error.
    """
    state, physical = _daemonic_state(family, u, seed)
    text = "2\n" + " ".join(map(repr, state.mean.tolist())) + "\n"
    text += "".join(" ".join(map(repr, row)) + "\n" for row in state.cm.tolist())
    try:
        gd.validate_state(state.mean, state.cm)
        readable = True
    except gd.GaussDaemonError:
        readable = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.txt"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["daemonic", "--state", str(path)])
    message = err.getvalue()
    assert "math domain" not in message and "division" not in message, message
    if physical and readable:
        assert code in (0, 3), (family, u, seed, message)
    elif not readable:
        assert code == 2 and message.startswith("error: "), (family, u, seed, message)
    else:
        assert code in (0, 2, 3)
