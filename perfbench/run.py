"""zitterkit benchmark: time to solution, set-up time and peak memory per workload.

    python3 perfbench/run.py --workload canonical_io --seed 3 --seconds 36 --trace 0

Run it from the root of a source checkout.  The seed generates every input
(see ``inputs.py``); the program sees only the generated scenario files.

``--trace 0`` runs passes one at a time, each in a fresh interpreter
(``child.py``), each followed by ``SETUP_PROBES`` cold starts without a pass,
for about ``--seconds``, and reports medians over them:

* ``wall_s``: wall time of one pass after set-up, the time to solution;
* ``setup_s``: cold start, ``import zitterkit.cli`` plus the first load and
  validation, timed in every fresh interpreter (before its pass, if any);
* ``peak_rss_mb``: peak resident memory of the interpreter after its pass.

Both times are scaled to reference machine speed (``speed.py``); the raw
medians are printed beside them.

``--trace 1`` alternates untraced and traced passes in this process and
reports the per-layer metrics of ``spans.py`` for the traced pass of median
wall time, with the tracing overhead (median traced minus median untraced
pass time, both at reference speed).  The spans are written to
``.perfbench_out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one scenario run or one verify
suite; it fails on a non-zero exit code or a failed output check.  The run
exits 2 without a result when the checkout has no zitterkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import passes
import spans

ROOT = inputs.ROOT
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 60
#: Cold starts without a pass after each pass, so that a workload with long
#: passes still has enough set-up samples for a steady median.
SETUP_PROBES = 2


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: dict[str, list[str]]):
        for name, found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{name}: {'; '.join(found)}")


def child(*args: str) -> dict:
    """Run ``child.py`` with ``args`` in a fresh interpreter and parse its result."""
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def budget(seconds: float, at_least: int):
    """Iterate until ``seconds`` are used, at least ``at_least`` times.

    It stops before an iteration that would, at the median iteration time so
    far, end more than half an iteration late, so a run lasts about
    ``seconds`` whatever the pass length.
    """
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        yield len(durations)
        durations.append(time.perf_counter() - began)
        late = time.perf_counter() - start + statistics.median(durations) / 2 - seconds
        if len(durations) >= at_least and late >= 0:
            return


def summary(name: str, values: list[float], unit: str) -> str:
    line = f"{name:<12} {statistics.median(values):10.4f} {unit:<3} median of {len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  q1 {q1:.4f}  q3 {q3:.4f}"
    return line


def end_to_end(workload, seed, ops, workdir, seconds, tally) -> dict:
    scenario = str(ops[0].scenario_path)
    samples, setups = [], []
    for _ in budget(seconds, at_least=1):
        sample = child(scenario, workload, str(seed), str(workdir))
        samples.append(sample)
        tally.add(sample["problems"])
        setups += [sample] + [child(scenario) for _ in range(SETUP_PROBES)]

    metrics = {}
    print(f"{len(samples)} passes, each in a fresh interpreter after its set-up, "
          f"and {len(setups)} cold starts")
    for name, unit, source in (("wall_s", "s", samples), ("setup_s", "s", setups),
                               ("peak_rss_mb", "MiB", samples)):
        values = [sample[name] for sample in source]
        print(summary(name, values, unit))
        metrics[name] = (statistics.median(values), unit)
    print(summary("wall_raw_s", [s["wall_raw_s"] for s in samples], "s"), "(not scaled)")
    print(summary("setup_raw_s", [s["setup_raw_s"] for s in setups], "s"), "(not scaled)")
    return metrics


def per_layer(cli, workload, seed, ops, seconds, tally) -> dict:
    untraced, traced, traced_scaled = [], [], []
    for i in budget(seconds, at_least=2):
        if i % 2 == 0:
            wall, scaled, problems = passes.run_pass(cli, ops, seed)
            untraced.append((wall, scaled))
        else:
            tracer = spans.Tracer(run_id=len(traced))
            tracer.install(cli)
            try:
                _, scaled, problems = passes.run_pass(cli, ops, seed, tracer)
            finally:
                tracer.uninstall()
            traced.append(tracer)
            traced_scaled.append(scaled)
        tally.add(problems)

    # report the traced pass of median wall time whole, so its layers add up
    layers = sorted((spans.layer_metrics(t.spans, t.counts) for t in traced),
                    key=lambda layer: layer["trace.wall_s"])
    metrics = layers[(len(layers) - 1) // 2]
    metrics["trace.untraced_wall_s"] = statistics.median(wall for wall, _ in untraced)
    # at reference speed, so a change of machine speed between passes cancels
    metrics["trace.overhead_s"] = (statistics.median(traced_scaled)
                                   - statistics.median(scaled for _, scaled in untraced))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"spans_{workload}_seed{seed}.json"
    fields = ("name", "start", "end", "parent", "run_id")
    out_path.write_text(json.dumps([dict(zip(fields, s)) for t in traced for s in t.spans]))

    print(f"{len(traced)} traced and {len(untraced)} untraced passes; spans in {out_path}")
    for key, unit in spans.LAYER_UNITS.items():
        print(f"  {key:<24} {metrics[key]:>14.6g} {unit}")
    attributed = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    print(f"layer self times sum to {attributed:.4f} s of traced wall "
          f"{metrics['trace.wall_s']:.4f} s; the remainder {metrics['trace.wall_s'] - attributed:.4f}"
          f" s against a tracing overhead of {metrics['trace.overhead_s']:+.4f} s")
    return {key: (value, spans.LAYER_UNITS[key]) for key, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zitterkit" / "cli.py").is_file() or not inputs.SCENARIO_DIR.is_dir():
        print(f"error: no zitterkit sources and scenarios under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zitterkit.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "zitterkit":
        print(f"error: imported zitterkit from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        ops = inputs.generate(args.workload, args.seed, workdir)
        # the generated inputs must be valid; this also finishes lazy set-up
        for op in ops:
            cli._validate_scenario(cli.load_scenario(str(op.scenario_path)))
        if args.trace:
            metrics = per_layer(cli, args.workload, args.seed, ops, args.seconds, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, ops, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    print(f"operations {tally.attempted} attempted, {tally.failed} failed, "
          f"failed_frac {tally.failed / tally.attempted:.4f}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
