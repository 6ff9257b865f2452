"""Command-line front end.

Subcommands: validate, ergotropy, daemonic, tmsts-sweep, opo-ss,
opo-transient, opo-zsweep, trajectories.  Numeric output uses 12 significant
digits; CSV artifacts carry their configuration in # comment headers, so a
fixed configuration and seed reproduce byte-identical files.  Exit codes:
0 success, 2 validation failure (bad input, unphysical state, parse error),
3 numeric failure (non-convergence, solver breakdown).

The random seed is taken from --seed, falling back to the GAUSSDAEMON_SEED
environment variable, then to 0.

``daemonic`` and ``tmsts-sweep`` report measurement settings in the
standard-form basis of the measured mode (the basis in which the closed
forms are stated); closed-form and conditioning-pipeline values are always
computed side by side and any disagreement beyond round-off (1e-9, or 1e-12
of the values or of the terms that cancel in them) is a numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bipartite import (
    _cancelled,
    _closed_form,
    daemonic_ergotropy,
    daemonic_heterodyne,
    max_daemonic,
    max_daemonic_homodyne,
    optimal_phase,
    standard_form,
    tmsts,
    tmsts_heterodyne,
    tmsts_homodyne,
    unconditional_ergotropy_a,
)
from .dynamics import (
    _uniform_steps,
    excess_noise,
    monitored,
    simulate_trajectories,
    unconditional_path,
)
from .ergotropy import _cross_check, ergotropy_report
from .fileio import read_model, read_state, write_csv
from .measurement import GeneralDyneSetting, heterodyne
from .opo import (
    OpoParams,
    _daemonic,
    _unconditional_energy,
    zsweep_table,
    transient_table,
    opo_conditional_ss,
    opo_model,
    opo_unconditional_ergotropy,
    opo_unconditional_ss,
    opo_zopt,
    strategy_setting,
)
from .randomized import invariant_suite
from .symplectic import GaussianState, purity


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(os.environ.get("GAUSSDAEMON_SEED", "0"))


def _setting_from_args(args, default: GeneralDyneSetting | None = None) -> GeneralDyneSetting | None:
    """The --strategy setting, else default; --z-m and --theta-m belong to gendyne alone (theta_m 0 if not given)."""
    for option, value in (("--z-m", args.z_m), ("--theta-m", args.theta_m)):
        if value is not None and args.strategy != "gendyne":
            raise ValueError(f"{option} applies only to --strategy gendyne")
    if args.strategy is None:
        return default
    return strategy_setting(args.strategy, z_m=args.z_m, theta_m=0.0 if args.theta_m is None else args.theta_m)


def _describe(setting: GeneralDyneSetting) -> str:
    if setting.homodyne:
        return f"homodyne theta_m={_fmt(setting.theta_m)}"
    return f"gendyne nu_m={_fmt(setting.nu_m)} theta_m={_fmt(setting.theta_m)} z_m={_fmt(setting.z_m)}"


def cmd_validate(args) -> int:
    checked_file = False
    if args.state is not None:
        state = read_state(args.state)
        print(f"state OK: {state.n} modes, purity = {_fmt(purity(state))}")
        checked_file = True
    if args.model is not None:
        model, setting = read_model(args.model)
        line = f"model OK: n = {model.n}, m = {model.m}"
        if setting is not None:
            line += f", measurement: {_describe(setting)}"
        print(line)
        checked_file = True
    if checked_file:
        return 0
    seed = _resolve_seed(args)
    print(f"running invariant suites: {args.cases} cases each, seed = {seed}")
    failed = False
    for result in invariant_suite(n_cases=args.cases, seed=seed):
        status = "pass" if result.violations == 0 else "FAIL"
        print(
            f"  [{status}] {result.name}: cases={result.cases} "
            f"violations={result.violations} worst={result.worst:.3e}"
        )
        failed = failed or result.violations > 0
    return 2 if failed else 0


def cmd_ergotropy(args) -> int:
    state = read_state(args.state)
    report = ergotropy_report(state)
    print(f"energy = {_fmt(report.energy)}")
    print(f"passive_energy = {_fmt(report.passive_energy)}")
    print(f"ergotropy = {_fmt(report.ergotropy)}")
    return 0


def cmd_daemonic(args) -> int:
    state = read_state(args.state)
    if state.n != 2:
        raise ValueError(f"daemonic requires a two-mode state, got {state.n} modes")
    setting = _setting_from_args(args)
    sf, s_a, _ = standard_form(state)
    mean_a = s_a @ state.mean[:2]
    print(
        f"standard form: a={_fmt(sf.a)} z_A={_fmt(sf.z_a)} b={_fmt(sf.b)} "
        f"c+={_fmt(sf.c_plus)} c-={_fmt(sf.c_minus)} eta={_fmt(sf.eta)}"
    )
    print(f"unconditional ergotropy (A) = {_fmt(unconditional_ergotropy_a(state))}")

    if setting is not None:
        closed, pipeline = _closed_form(sf, mean_a, setting)
        print(f"daemonic ergotropy [{_describe(setting)}]: closed = {_fmt(closed.value)}, pipeline = {_fmt(pipeline)}")
        return 0

    best = max_daemonic(sf, mean_a)
    hom = max_daemonic_homodyne(sf, mean_a)
    het = daemonic_heterodyne(sf, mean_a)
    phase = optimal_phase(sf, 0.0)
    note = " (degenerate: any phase optimal)" if phase.degenerate else ""
    print(f"optimal phase theta_m = {_fmt(phase.angle)}{note}")
    print(f"max general-dyne = {_fmt(best.value)} at {_describe(best.setting)}")
    print(f"homodyne maximum = {_fmt(hom.value)} at {_describe(hom.setting)}")
    print(f"heterodyne = {_fmt(het.value)}")
    return 0


def cmd_tmsts_sweep(args) -> int:
    state = tmsts(args.N, args.r)
    sf, _, _ = standard_form(state)
    het_closed = tmsts_heterodyne(args.N, args.r)
    het_pipeline = daemonic_ergotropy(state, heterodyne()).value
    _cross_check(het_closed, het_pipeline, f"TMSTS heterodyne at N={args.N}, r={args.r}")
    hom_closed = tmsts_homodyne(args.N, args.r)
    hom = max_daemonic_homodyne(sf)
    hom_what = f"TMSTS homodyne at N={args.N}, r={args.r}"
    _cross_check(hom_closed, hom.value, hom_what, _cancelled(sf, hom.conditional_purity))
    print(f"TMSTS N={_fmt(args.N)} r={_fmt(args.r)}")
    print(f"heterodyne: closed = {_fmt(het_closed)}, pipeline = {_fmt(het_pipeline)}")
    print(f"homodyne:   closed = {_fmt(hom_closed)}, pipeline = {_fmt(hom.value)}")

    if args.out is not None:
        z_grid = np.logspace(-6, 0, 50)
        theta = optimal_phase(sf, 0.0).angle
        settings = [GeneralDyneSetting(nu_m=1.0, theta_m=theta, z_m=float(z)) for z in z_grid]
        rows = np.array([(s.z_m, _closed_form(sf, (0.0, 0.0), s)[0].value) for s in settings])
        write_csv(
            args.out,
            ["z_m", "ergotropy"],
            rows,
            comments=[
                f"tmsts-sweep N={_fmt(args.N)} r={_fmt(args.r)} theta_m={_fmt(theta)}",
                "daemonic ergotropy vs general-dyne parameter z_m (closed form)",
            ],
        )
        print(f"wrote {args.out}")
    return 0


def cmd_opo_ss(args) -> int:
    params = OpoParams(args.chi_tilde, nu_in=args.nu_in)
    setting = _setting_from_args(args, default=heterodyne())
    unc = opo_unconditional_ss(params)
    sig_c = opo_conditional_ss(params, setting)
    print(f"chi_tilde = {_fmt(params.chi_tilde)}, nu_in = {_fmt(params.nu_in)}")
    print(f"sigma_unc diag = ({_fmt(unc.cm[0, 0])}, {_fmt(unc.cm[1, 1])})")
    print(f"unconditional ergotropy = {_fmt(opo_unconditional_ergotropy(params))}")
    print(f"sigma_c [{_describe(setting)}]:")
    print(f"  [[{_fmt(sig_c[0, 0])}, {_fmt(sig_c[0, 1])}], [{_fmt(sig_c[1, 0])}, {_fmt(sig_c[1, 1])}]]")
    print(f"det sigma_c = {_fmt(np.linalg.det(sig_c))}")
    # opo_steady_daemonic's value, from the steady state solved above rather than a second solve.
    print(f"daemonic ergotropy = {_fmt(_daemonic(_unconditional_energy(params), sig_c))}")
    print(f"z_opt (phase 0) = {_fmt(opo_zopt(params))}")
    return 0


def cmd_opo_transient(args) -> int:
    params = OpoParams(args.chi_tilde, nu_in=args.nu_in, nu_0=args.nu0)
    table = transient_table(params, t_max=args.T, dt=args.dt)
    rows = np.column_stack([table.times, table.hom0, table.hom90, table.het])
    write_csv(
        args.out,
        ["kappa_t", "hom0", "hom90", "het"],
        rows,
        comments=[
            "daemonic ergotropy transients from a thermal state",
            f"config: chi_tilde={_fmt(params.chi_tilde)} nu_in={_fmt(params.nu_in)} "
            f"nu0={_fmt(params.nu_0)} dt={_fmt(args.dt)} T={_fmt(args.T)}",
        ],
    )
    print(f"wrote {args.out}")
    print(
        f"final values: hom0 = {_fmt(table.hom0[-1])}, hom90 = {_fmt(table.hom90[-1])}, "
        f"het = {_fmt(table.het[-1])}"
    )
    return 0


def cmd_opo_zsweep(args) -> int:
    params = OpoParams(args.chi_tilde, nu_in=args.nu_in)
    data = zsweep_table(params)
    rows = np.vstack([data.table, [data.z_opt, data.z_opt_value]])
    write_csv(
        args.out,
        ["z_m", "ergotropy"],
        rows,
        comments=[
            "steady-state daemonic ergotropy vs general-dyne parameter (theta_m = 0)",
            f"config: chi_tilde={_fmt(params.chi_tilde)} nu_in={_fmt(params.nu_in)}",
            f"z_opt = {_fmt(data.z_opt)} (closed form), appended as the final row",
            f"heterodyne reference = {_fmt(data.het_value)}",
        ],
    )
    print(f"wrote {args.out}")
    print(f"z_opt = {_fmt(data.z_opt)}, ergotropy(z_opt) = {_fmt(data.z_opt_value)}")
    print(f"heterodyne reference = {_fmt(data.het_value)}")
    return 0


def _pick_stride(n_steps: int, target_points: int = 200) -> int:
    stride = max(1, n_steps // target_points)
    while n_steps % stride:
        stride -= 1
    return stride


def cmd_trajectories(args) -> int:
    if args.model is not None:
        model, file_setting = read_model(args.model)
        setting = _setting_from_args(args, default=file_setting or heterodyne())
        state0 = read_state(args.state) if args.state else GaussianState(np.zeros(2 * model.n), np.eye(2 * model.n))
    elif args.chi_tilde is not None:
        params = OpoParams(args.chi_tilde, nu_in=args.nu_in, nu_0=args.nu0)
        model = opo_model(params)
        setting = _setting_from_args(args, default=heterodyne())
        state0 = read_state(args.state) if args.state else GaussianState(np.zeros(2), params.nu_0 * np.eye(2))
    else:
        raise ValueError("trajectories requires --model FILE or --chi-tilde")

    seed = _resolve_seed(args)
    mm = monitored(model, setting)
    stride = _pick_stride(_uniform_steps(args.T, args.dt))
    batch = simulate_trajectories(mm, state0, args.dt, args.T, args.n_traj, seed, store_stride=stride)

    two_n = batch.means.shape[2]
    i_up, j_up = np.triu_indices(two_n)  # the upper triangle row by row: (0, 0), (0, 1), ..., (1, 1), ...
    excess = excess_noise(batch, slice(None)) if batch.n_traj > 1 else np.zeros_like(batch.sigma_c)
    columns = ["kappa_t"]
    columns += [f"mean_{i}" for i in range(two_n)]
    columns += [f"sc_{i}_{j}" for i, j in zip(i_up, j_up)]
    columns += [f"ex_{i}_{j}" for i, j in zip(i_up, j_up)]
    rows = np.column_stack(
        (batch.times, batch.means.mean(axis=0), batch.sigma_c[:, i_up, j_up], excess[:, i_up, j_up])
    )
    write_csv(
        args.out,
        columns,
        rows,
        comments=[
            "monitored trajectory ensemble: means, conditional CM, excess noise",
            f"config: dt={_fmt(args.dt)} T={_fmt(args.T)} n_traj={args.n_traj} "
            f"seed={seed} stride={stride}",
            f"measurement: {_describe(setting)}",
        ],
    )
    print(f"wrote {args.out}")

    means_unc, cms_unc = unconditional_path(mm.dd, state0, batch.times)
    sig_sum = batch.sigma_c[-1] + excess[-1]
    dev_cm = np.abs(sig_sum - cms_unc[-1]).max()
    dev_mean = np.abs(batch.means[:, -1, :].mean(axis=0) - means_unc[-1]).max()
    print(f"n_traj = {batch.n_traj}, stored points = {batch.times.size}")
    print(f"max |sigma_c + Sigma - sigma_unc| at T = {dev_cm:.3e}")
    print(f"max |ensemble mean - mean_unc| at T = {dev_mean:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdaemon",
        description="Ergotropy and daemonic ergotropy of Gaussian states under general-dyne measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="random seed (default: $GAUSSDAEMON_SEED or 0)")

    def add_strategy(p):
        p.add_argument("--strategy", choices=("hom0", "hom90", "het", "gendyne"), default=None)
        p.add_argument("--z-m", type=float, default=None, help="general-dyne parameter in [0, 1]; 0 = homodyne")
        p.add_argument("--theta-m", type=float, default=None, help="general-dyne measurement phase (default 0)")

    def add_opo(p, chi_default=None, nu0_default=None, required=True):
        p.add_argument("--chi-tilde", type=float, default=chi_default, required=required and chi_default is None)
        p.add_argument("--nu-in", type=float, default=1.0, help="environment thermal parameter (default 1)")
        if nu0_default is not None:  # only the commands that start from a thermal state read it
            p.add_argument("--nu0", type=float, default=nu0_default, help=f"initial thermal scale (default {nu0_default})")

    p = sub.add_parser("validate", help="validate files or run the randomized invariant suites")
    p.add_argument("--state", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--cases", type=int, default=1000, help="cases per invariant suite (default 1000)")
    add_seed(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ergotropy", help="ergotropy of a state file")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_ergotropy)

    p = sub.add_parser("daemonic", help="daemonic ergotropy of a two-mode state file")
    p.add_argument("--state", required=True)
    add_strategy(p)
    p.set_defaults(func=cmd_daemonic)

    p = sub.add_parser("tmsts-sweep", help="two-mode squeezed thermal state benchmarks")
    p.add_argument("--N", type=float, required=True, help="thermal excitations of the seed")
    p.add_argument("--r", type=float, required=True, help="two-mode squeezing")
    p.add_argument("--out", default=None, help="optional CSV path for the z_m sweep")
    p.set_defaults(func=cmd_tmsts_sweep)

    p = sub.add_parser("opo-ss", help="OPO steady states and daemonic ergotropy")
    add_opo(p)
    add_strategy(p)
    p.set_defaults(func=cmd_opo_ss)

    p = sub.add_parser("opo-transient", help="daemonic ergotropy transients (CSV)")
    add_opo(p, nu0_default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_opo_transient)

    p = sub.add_parser("opo-zsweep", help="steady-state ergotropy vs z_m (CSV)")
    add_opo(p, chi_default=0.99)
    p.set_defaults(nu_in=3.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_opo_zsweep)

    p = sub.add_parser("trajectories", help="stochastic trajectory ensemble (CSV)")
    p.add_argument("--model", default=None, help="model file; alternative to --chi-tilde")
    p.add_argument("--state", default=None, help="optional initial state file")
    add_opo(p, nu0_default=1.0, required=False)
    add_strategy(p)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--n-traj", type=int, default=100)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_trajectories)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
