"""In-memory span tracer that wraps the module attributes the CLI calls.

Only module and class attributes are replaced, and only while a traced pass
runs; no file under ``src/`` carries timers.  The CLI and the integrators look
these attributes up at call time, so the wrappers see every call.  ``nonrel``
imports ``rk4_path`` by name, so its copy is wrapped on its own.

A span is ``[name, start, end, parent, run_id]``.  A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import Counter, defaultdict

#: Span name -> per-layer metric that receives its self time.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "cli.run_scenario": "cli.self_s",
    "cli.run_verify": "cli.self_s",
    "cli.load_scenario": "cli.validate_s",
    "cli.validate": "cli.validate_s",
    "cli.write": "cli.write_s",
    "dynamics.integrate": "dynamics.self_s",
    "dynamics.rk4": "dynamics.rk4_s",
    "dynamics.records": "dynamics.records_s",
    "dynamics.monitor": "dynamics.monitor_s",
    "nonrel.integrate": "nonrel.post_s",
    "nonrel.work_integral": "nonrel.post_s",
    "nonrel.barrier_report": "nonrel.post_s",
    "nonrel.rk4": "nonrel.rk4_s",
    "brackets.verify": "brackets.verify_s",
    "dirac_check.verify": "dirac_check.verify_s",
    "pass": "trace.harness_s",
}

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "cli.validate_s": "s",
    "cli.write_s": "s",
    "cli.write_mb": "MB",
    "cli.write_rows": "count",
    "cli.self_s": "s",
    "dynamics.rk4_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.records_s": "s",
    "dynamics.monitor_s": "s",
    "dynamics.self_s": "s",
    "nonrel.rk4_s": "s",
    "nonrel.rk4_steps": "count",
    "nonrel.us_per_step": "us",
    "nonrel.gradient_calls": "count",
    "nonrel.post_s": "s",
    "brackets.verify_s": "s",
    "brackets.points": "count",
    "brackets.point_ms.p50": "ms",
    "brackets.point_ms.p90": "ms",
    "minkowski.fourvectors": "count",
    "dirac_check.verify_s": "s",
    "dirac_check.points": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.harness_s": "s",
}


class Tracer:
    """Records spans and counts while installed; restores every attribute after."""

    def __init__(self, run_id: int):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = run_id
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time one span under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner, attr: str, name: str, count=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count(args, result)`` may return ``{counter: amount}`` to add.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if count is not None:
                    self.counts.update(count(args, result))
                return result
            return wrapper
        self._replace(owner, attr, make)

    def tally(self, owner, attr: str, key: str):
        """Count calls of ``owner.attr`` without a span (for hot inner calls)."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    def install(self, cli):
        from zitterkit import brackets, dirac_check, dynamics, minkowski, nonrel

        def steps(key):
            # rk4_path(deriv, y0, t0, dt, n_steps, stride) is called positionally
            return lambda args, result: {key: args[4]}

        def written(args, result):
            scn, _, rows = args
            out = scn.get("output")
            return {"cli.write_rows": len(rows),
                    "cli.write_bytes": os.path.getsize(out["path"]) if out else 0}

        def one(key):
            return lambda args, result: {key: 1}

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "load_scenario", "cli.load_scenario")
        self.wrap(cli, "_validate_scenario", "cli.validate")
        self.wrap(cli, "run_scenario", "cli.run_scenario")
        self.wrap(cli, "run_verify", "cli.run_verify")
        self.wrap(cli, "_write_table", "cli.write", written)
        self.wrap(dynamics, "integrate_hamilton", "dynamics.integrate")
        self.wrap(dynamics, "integrate_free_general_n", "dynamics.integrate")
        self.wrap(dynamics, "rk4_path", "dynamics.rk4", steps("dynamics.rk4_steps"))
        self.wrap(dynamics, "_hamilton_records", "dynamics.records")
        self.wrap(dynamics, "monitor", "dynamics.monitor")
        self.wrap(nonrel, "integrate_nr", "nonrel.integrate")
        self.wrap(nonrel, "rk4_path", "nonrel.rk4", steps("nonrel.rk4_steps"))
        self.wrap(nonrel, "work_integral", "nonrel.work_integral")
        self.wrap(nonrel, "barrier_report", "nonrel.barrier_report")
        self.tally(nonrel.Potential3D, "gradient", "nonrel.gradient_calls")
        self.wrap(brackets, "verify_appendix", "brackets.verify", one("brackets.points"))
        self.wrap(dirac_check, "clifford_residual", "dirac_check.verify")
        self.wrap(dirac_check, "verify_heisenberg", "dirac_check.verify",
                  one("dirac_check.points"))
        self.wrap(dirac_check, "verify_onshell_zbw", "dirac_check.verify",
                  one("dirac_check.points"))
        self.tally(minkowski.FourVector, "__init__", "minkowski.fourvectors")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass, whose ``pass`` span comes first."""
    out = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        out[SELF_TIME_METRIC[name]] += own
    out["trace.wall_s"] = spans[0][2] - spans[0][1]
    point_ms = [(end - start) * 1e3 for name, start, end, _, _ in spans
                if name == "brackets.verify"]
    if len(point_ms) >= 2:
        out["brackets.point_ms.p50"] = statistics.median(point_ms)
        out["brackets.point_ms.p90"] = statistics.quantiles(point_ms, n=10)[8]
    for key, value in counts.items():
        if key in LAYER_UNITS:
            out[key] = value
    out["cli.write_mb"] = counts["cli.write_bytes"] / 1e6
    for layer in ("dynamics", "nonrel"):
        steps = out[f"{layer}.rk4_steps"]
        out[f"{layer}.us_per_step"] = out[f"{layer}.rk4_s"] / steps * 1e6 if steps else 0.0
    return {key: float(out[key]) for key in LAYER_UNITS}
