"""Unit tests for file formats and the command-line interface."""

import shlex
from pathlib import Path

import numpy as np
import pytest

import gaussdaemon as gd
from gaussdaemon import ParseError
from gaussdaemon.cli import main


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
        """A LinAlgError (a ValueError) from the CARE solver is a numeric failure, not bad input."""

        def broken(*args):
            raise np.linalg.LinAlgError("Failed to find a finite solution.")

        monkeypatch.setattr(gd.dynamics, "solve_continuous_are", broken)
        args = ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3", "--strategy", "gendyne", "--z-m", "0.4"]
        assert main(args + ["--theta-m", "0.7"]) == 3
        assert "algebraic Riccati solve failed" in capsys.readouterr().err

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
        ["opo-ss", "--chi-tilde", "0.6", "--nu0", "inf"],
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
        argv.append(arg)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "nan" not in captured.out


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
    for command in ("gaussdaemon daemonic --state tmsts.txt", "gaussdaemon opo-ss --chi-tilde 0.6 --nu-in 3"):
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


def test_validate_rejects_non_positive_case_count(capsys):
    """validate --cases below 1 checks nothing, so it is invalid input rather than a pass."""
    assert main(["validate", "--cases", "-3"]) == 2
    assert "at least one case" in capsys.readouterr().err
    with pytest.raises(ValueError, match="at least one case"):
        gd.invariant_suite(n_cases=0)
