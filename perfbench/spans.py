"""Span tracing around calls into the public gaussdaemon functions.

``Tracer.instrument()`` replaces each traced public function, wherever a
``gaussdaemon`` module holds a reference to it, by a wrapper that records a
span; leaving the context restores the originals.  Calls made inside the
library (``max_daemonic`` into ``conditional_determinant``, ``transient_table``
into ``symplectic_eigenvalues``, ...) are therefore traced too, without any
change to the library's files.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the index of the operation span
it belongs to (-1 outside operations, e.g. in checks).  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import gaussdaemon as gd

# Traced layers: metric prefix -> (public name, workloads whose operation time it is measured in).
_LANDSCAPE = ("bipartite-landscape",)
_OPTIMUM = ("bipartite-optimum",)
_STEADY = ("opo-steady",)
_TRANSIENT = ("opo-dynamics-transient",)
_TRAJ = ("opo-dynamics-wide", "opo-dynamics-long")
REGIMES = ("generic", "near_homodyne", "homodyne", "near_threshold", "multimode")

LAYERS = {
    "measurement.condition": ("condition", _LANDSCAPE),
    "measurement.inverse_sum": ("inverse_sum", _LANDSCAPE),
    "bipartite.daemonic_ergotropy": ("daemonic_ergotropy", _LANDSCAPE),
    "ergotropy.ergotropy_report": ("ergotropy_report", _LANDSCAPE),
    "bipartite.standard_form": ("standard_form", _OPTIMUM),
    "bipartite.max_daemonic": ("max_daemonic", _OPTIMUM),
    "bipartite.max_daemonic_homodyne": ("max_daemonic_homodyne", _OPTIMUM),
    "bipartite.daemonic_heterodyne": ("daemonic_heterodyne", _OPTIMUM),
    "bipartite.conditional_determinant": ("conditional_determinant", _OPTIMUM),
    **{f"dynamics.steady_state_conditional.{r}": ("steady_state_conditional", _STEADY) for r in REGIMES},
    "dynamics.monitored": ("monitored", _STEADY),
    "dynamics.steady_state_unconditional": ("steady_state_unconditional", _STEADY),
    "dynamics.riccati_residual": ("riccati_residual", _STEADY),
    "opo.opo_conditional_ss": ("opo_conditional_ss", _STEADY),
    "opo.zsweep_table": ("zsweep_table", _STEADY),
    "dynamics.daemonic_ergotropy_path": ("daemonic_ergotropy_path", _TRANSIENT),
    "dynamics.evolve_conditional_cm": ("evolve_conditional_cm", _TRANSIENT),
    "dynamics.unconditional_path": ("unconditional_path", _TRANSIENT),
    "symplectic.symplectic_eigenvalues": ("symplectic_eigenvalues", _TRANSIENT),
    "opo.transient_table": ("transient_table", _TRANSIENT),
    "dynamics.simulate_trajectories.wide": ("simulate_trajectories", ("opo-dynamics-wide",)),
    "dynamics.simulate_trajectories.long": ("simulate_trajectories", ("opo-dynamics-long",)),
    "dynamics.excess_noise": ("excess_noise", _TRAJ),
    "fileio.write_csv": ("write_csv", _TRAJ),
}
# Public functions whose span name carries the operation's tag (regime or ensemble shape).
_TAGGED = {
    "steady_state_conditional": "dynamics.steady_state_conditional",
    "simulate_trajectories": "dynamics.simulate_trajectories",
}
_PATH_PARTS = ("dynamics.evolve_conditional_cm", "dynamics.unconditional_path", "symplectic.symplectic_eigenvalues")
CLI_EXAMPLES = ("daemonic", "opo_ss", "opo_zsweep", "opo_transient", "trajectories", "validate")


def _per_item(prefix: str) -> str:
    return "ns_per_traj_step" if prefix.startswith("dynamics.simulate_trajectories") else "us_p50"


def metric_specs(workloads) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for prefix in LAYERS:
        specs.append((f"{prefix}.calls", "count", "lower"))
        timing = _per_item(prefix)
        specs.append((f"{prefix}.{timing}", "ns" if timing.startswith("ns") else "us", "lower"))
        specs.append((f"{prefix}.busy_frac", "frac", "lower"))
    specs.append(("dynamics.daemonic_ergotropy_path.remainder_frac", "frac", "lower"))
    specs += [(f"trace_overhead_frac.{w}", "frac", "lower") for w in workloads]
    specs += [(f"cli.{name}.s", "s", "lower") for name in CLI_EXAMPLES]
    return specs


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.items: dict[int, int] = {}  # operation span -> work items
        self._stack: list[int] = []
        self._op = -1
        self._tag = ""

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, workload: str, tag: str, items: int):
        """Span of one timed operation; library spans inside it carry its index."""
        sid = self._begin(f"op.{workload}")
        self.spans[sid][4] = sid
        self.items[sid] = items
        self._op, self._tag = sid, tag
        try:
            yield
        finally:
            self._end(sid)
            self._op, self._tag = -1, ""

    def _wrap(self, public: str, func):
        tagged = _TAGGED.get(public)
        layer = tagged or next(prefix for prefix, (name, _) in LAYERS.items() if name == public)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = self._begin(f"{layer}.{self._tag}" if tagged else layer)
            try:
                return func(*args, **kwargs)
            finally:
                self._end(sid)

        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Route every reference to a traced public function through a span wrapper."""
        modules = [m for name, m in sys.modules.items() if name == "gaussdaemon" or name.startswith("gaussdaemon.")]
        patched = []
        for public in sorted({name for name, _ in LAYERS.values()}):
            func = getattr(gd, public, None)
            if func is None:
                continue
            wrapper = self._wrap(public, func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, func))
        try:
            yield
        finally:
            for module, attr, func in patched:
                setattr(module, attr, func)

    def write(self, path: str, header: dict) -> None:
        """Write the header and one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """calls, median span time and busy share of each layer in its workloads' operations."""
        spans = self.spans
        op_time: dict[str, int] = {}
        for sid in self.items:
            workload = spans[sid][0][3:]
            op_time[workload] = op_time.get(workload, 0) + spans[sid][2] - spans[sid][1]
        by_name: dict[str, list[int]] = {}
        for sid, span in enumerate(spans):
            if span[4] >= 0 and sid != span[4]:
                by_name.setdefault(span[0], []).append(sid)

        def nested(sid: int) -> bool:
            name, parent = spans[sid][0], spans[sid][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        out: dict[str, float] = {}
        for prefix, (_, owners) in LAYERS.items():
            sids = [s for s in by_name.get(prefix, []) if spans[spans[s][4]][0][3:] in owners]
            durs = [spans[s][2] - spans[s][1] for s in sids]
            busy = sum(spans[s][2] - spans[s][1] for s in sids if not nested(s))
            total = sum(op_time.get(w, 0) for w in owners)
            out[f"{prefix}.calls"] = len(sids)
            if _per_item(prefix) == "us_p50":
                out[f"{prefix}.us_p50"] = statistics.median(durs) / 1e3 if durs else 0.0
            else:
                per_step = [(spans[s][2] - spans[s][1]) / self.items[spans[s][4]] for s in sids]
                out[f"{prefix}.ns_per_traj_step"] = statistics.median(per_step) if per_step else 0.0
            out[f"{prefix}.busy_frac"] = busy / total if total else 0.0

        path_sids = set(by_name.get("dynamics.daemonic_ergotropy_path", []))
        path_total = sum(spans[s][2] - spans[s][1] for s in path_sids)
        parts = sum(
            spans[s][2] - spans[s][1]
            for name in _PATH_PARTS
            for s in by_name.get(name, [])
            if spans[s][3] in path_sids
        )
        remainder = (path_total - parts) / path_total if path_total else 0.0
        out["dynamics.daemonic_ergotropy_path.remainder_frac"] = remainder
        return out
