"""Benchmark entry point for gaussdaemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from
``src/``.  With ``--trace 0`` it runs the workload's operation cycle closed
loop (one caller, one operation at a time) for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs every workload briefly, first
untraced and then with spans around the public functions, plus the README's
command-line examples, and reports the per-layer metrics; spans are written
to ``.bench_out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS and OpenMP
threads are pinned to 1 before numpy is imported.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5  # set-ups per run: this process plus four fresh probe processes
END_TO_END = (  # name, unit
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class Pass:
    """Timed operations of one pass over a workload's cycle."""

    seconds: dict = field(default_factory=dict)  # cycle position -> times of its completed repeats
    items: dict = field(default_factory=dict)  # cycle position -> items per operation
    attempted: int = 0
    failures: list = field(default_factory=list)
    ratios: dict = field(default_factory=dict)  # cycle position -> op time over the reference time right after it
    kernel: list = field(default_factory=list)  # mean reference-kernel time of each block


def run_cycle(workload, cycle, *, seconds=None, n_ops=None, tracer=None, calibrate=False) -> Pass:
    """Run operations in cycle order, closed loop, until the deadline or op count.

    A deadline run completes at least one full cycle.  An operation fails when
    it raises ``GaussDaemonError`` or its check rejects the result; only
    ``run()`` is timed.  With ``calibrate``, each operation is followed by a
    block of reference-kernel calls, and its time is also recorded relative
    to the kernel's mean time in that block.
    """
    import gaussdaemon as gd
    import reference
    from workloads import CheckFailed

    out = Pass()
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        if n_ops is not None and out.attempted >= n_ops:
            break
        if deadline is not None and out.attempted >= len(cycle) and time.perf_counter() >= deadline:
            break
        op = cycle[out.attempted % len(cycle)]
        out.attempted += 1
        span = tracer.operation(workload, op.tag, op.items) if tracer else contextlib.nullcontext()
        try:
            with span:
                t0 = time.perf_counter()
                result = op.run()
                elapsed = time.perf_counter() - t0
            op.check(result)
        except (gd.GaussDaemonError, CheckFailed) as exc:
            out.failures.append(f"{workload} op {out.attempted - 1}: {type(exc).__name__}: {exc}")
            continue
        pos = (out.attempted - 1) % len(cycle)
        out.seconds.setdefault(pos, []).append(elapsed)
        out.items[pos] = op.items
        if calibrate:
            out.kernel.append(reference.paired(elapsed))
            out.ratios.setdefault(pos, []).append(elapsed / out.kernel[-1])
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _import_library() -> None:
    """Import gaussdaemon from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import gaussdaemon

    src = (ROOT / "src").resolve()
    if src not in Path(gaussdaemon.__file__).resolve().parents:
        raise SystemExit(f"error: gaussdaemon imported from {gaussdaemon.__file__}, not from {src}")


def setup(workload: str, seed: int, out_dir: str):
    """Import the library, build the workload's inputs and warm it up."""
    _import_library()
    import workloads

    cycle = workloads.build(workload, seed, out_dir)
    workloads.warmup(workload, out_dir)
    return cycle


def _setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(args, out_dir: str) -> tuple[dict, Pass]:
    import reference

    cycle = setup(args.workload, args.seed, out_dir)
    setups = [time.perf_counter() - _T_START]
    setups += [_setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    res = run_cycle(args.workload, cycle, seconds=args.seconds, calibrate=True)
    # Median over its repeats of each distinct operation's time in reference-kernel units;
    # set-up time scaled by the kernel's median speed over the run.
    med = {k: reference.REFERENCE_S * statistics.median(r) for k, r in res.ratios.items()}
    speed = reference.REFERENCE_S / statistics.median(res.kernel) if res.kernel else 1.0
    values = {
        "items_per_s": sum(res.items[k] for k in med) / sum(med.values()) if med else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": speed * statistics.median(setups),
    }
    done = sum(len(times) for times in res.seconds.values())
    print(
        f"{args.workload}: {done} ops ({len(med)} distinct) in {sum(map(sum, res.seconds.values())):.3f} s "
        f"(unscaled {sum(res.items.values()) / sum(statistics.median(t) for t in res.seconds.values()):.6g} items/s); "
        f"unscaled set-ups {', '.join(f'{s:.3f}' for s in setups)} s; speed scale {speed:.3f}"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, res


def traced(args, out_dir: str) -> tuple[dict, Pass]:
    """Untraced and traced pass over every workload, then the CLI examples."""
    _import_library()
    import cli_examples
    import workloads
    from spans import Tracer, metric_specs

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    tracer = Tracer()
    total = Pass()
    overhead = {}
    share = args.seconds / (2 * len(workloads.WORKLOADS))
    for name in workloads.WORKLOADS:
        cycle = workloads.build(name, args.seed, out_dir)
        workloads.warmup(name, out_dir)
        # The first untraced pass fixes the op count and warms caches; the
        # overhead compares the traced pass with the untraced pass after it,
        # both in reference-kernel units.
        passes = [run_cycle(name, cycle, seconds=share)]
        with tracer.instrument():
            passes.append(run_cycle(name, cycle, n_ops=passes[0].attempted, tracer=tracer, calibrate=True))
        passes.append(run_cycle(name, cycle, n_ops=passes[0].attempted, calibrate=True))
        traced_cost, plain_cost = (sum(map(sum, p.ratios.values())) for p in passes[1:])
        key = f"trace_overhead_frac.{name}"
        overhead[key] = traced_cost / plain_cost - 1.0 if plain_cost else 0.0
        print(f"{name}: {passes[0].attempted} ops per pass, trace overhead {overhead[key]:+.3f}")
        for p in passes:
            total.attempted += p.attempted
            total.failures += p.failures
    cli_seconds, cli_failures = cli_examples.run_examples(out_dir)
    total.attempted += len(cli_seconds)
    total.failures += cli_failures

    values = {**tracer.layer_metrics(), **overhead, **{f"cli.{k}.s": v for k, v in cli_seconds.items()}}
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(trace_file), {"machine": machine_record(args.seed), "metrics": values})
    print(f"wrote {len(tracer.spans)} spans to {trace_file.relative_to(ROOT)}")
    specs = metric_specs(workloads.WORKLOADS)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaussdaemon" / "__init__.py").is_file():
        print(f"error: no gaussdaemon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        if args.setup_only:
            setup(args.workload, args.seed, out_dir)
            print(json.dumps({"setup_s": time.perf_counter() - _T_START}))
            return 0
        metrics, res = (traced if args.trace else end_to_end)(args, out_dir)
        print("machine " + json.dumps(machine_record(args.seed)))
    for failure in res.failures[:20]:
        print(failure, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not res.failures and res.attempted > 0,
                "attempted": res.attempted,
                "failed": len(res.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
