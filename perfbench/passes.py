"""One benchmark pass and the checks on its outputs.

A pass runs every operation of a workload in turn through ``cli.main``, in
this process, as one closed-loop client.  An operation fails on a non-zero
exit code or on any failed check.  The bounds are the ones tier-1 uses for
the same quantities:

* free runs: closed-form oracle deviation <= 1e-6 (criterion 01) and the
  energy, p.v and on-shell monitors <= 1e-8 (criterion 02);
* nonrel runs: total-energy drift <= 1e-8 and work-energy residual <= 1e-6
  (criterion 06).  Tier-1 takes the work integral on every RK4 step; the CLI
  takes it on the strided samples, and trapezoidal error grows as the square
  of the sample spacing, so the residual bound is 1e-6 * stride**2;
* verify: the printed result is PASS.

Row counts, headers and barrier-interval counts do not depend on the seed.
At seed 0 each CSV must also match its recorded sha256 (byte-identical CSV).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from pathlib import Path

import speed

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))

FREE_BOUNDS = {
    "max |x - exact|": 1e-6,
    "max |v - exact|": 1e-6,
    "energy rel drift": 1e-8,
    "p.v constraint": 1e-8,
    "on-shell constraint": 1e-8,
}


def printed_value(stdout: str, label: str) -> float | None:
    """The number printed after ``label`` at the start of a summary line."""
    for line in stdout.splitlines():
        text = line.strip()
        if text.startswith(label):
            rest = text[len(label):].split()
            if rest:
                try:
                    return float(rest[0])
                except ValueError:
                    return None
    return None


def _bounded(stdout: str, bounds: dict) -> list[str]:
    problems = []
    for label, bound in bounds.items():
        value = printed_value(stdout, label)
        if value is None:
            problems.append(f"{label!r} missing from summary")
        elif not value <= bound:
            problems.append(f"{label} = {value:.3e} exceeds {bound:g}")
    return problems


def check(op, seed: int, code: int, stdout: str) -> list[str]:
    """Problems found with one operation's outputs; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if op.kind == "verify":
        ok = "verification result: PASS" in stdout
        return [] if ok else ["verification result is not PASS"]

    expected = EXPECTED[op.name]
    problems = []
    # read in chunks, so the check adds nothing to the pass's peak memory
    digest = hashlib.sha256()
    try:
        with open(op.output_path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            rows = -1 + header.count(b"\n")
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                rows += chunk.count(b"\n")
    except OSError as exc:
        return [f"output unreadable: {exc}"]
    if header.rstrip(b"\n").decode("utf-8", "replace") != expected["header"]:
        problems.append(f"CSV header {header[:60]!r}... differs")
    if rows != expected["rows"]:
        problems.append(f"{rows} CSV rows, expected {expected['rows']}")
    if seed == 0 and digest.hexdigest() != expected["sha256_seed0"]:
        problems.append("CSV differs from the recorded seed-0 digest")

    if op.kind == "free":
        problems += _bounded(stdout, FREE_BOUNDS)
    elif op.kind == "nonrel":
        problems += _bounded(stdout, {
            "total energy rel drift": 1e-8,
            "work-energy residual": 1e-6 * op.stride ** 2,
        })
        intervals = sum(1 for line in stdout.splitlines() if line.startswith("  ["))
        if intervals != expected["barrier_intervals"]:
            problems.append(f"{intervals} barrier intervals, "
                            f"expected {expected['barrier_intervals']}")
    return problems


def run_pass(cli, ops, seed: int, tracer=None) -> tuple[float, float, dict[str, list[str]]]:
    """Run every operation once; return the wall time, the wall time at
    reference speed (``speed.py``) and each operation's problems.

    Only the calls into the CLI are timed, each with its own speed samples;
    the checks run after the clock stops.  In a traced pass the speed loop
    runs only between the calls, so no sample lands in a layer's span.
    """
    results = []
    wall = scaled = 0.0
    traced = tracer is not None
    with tracer.span("pass") if traced else contextlib.nullcontext():
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with speed.Clock(sample=not traced) as clock:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(op.argv))
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:
                        traceback.print_exc()
                        code = None
            wall += clock.raw_s
            scaled += clock.scaled_s
            results.append((op, code, out.getvalue(), err.getvalue()))
    problems = {}
    for op, code, stdout, stderr in results:
        found = check(op, seed, code, stdout)
        if found and stderr:
            found.append(stderr.strip().splitlines()[-1])
        problems[op.name] = found
    return wall, scaled, problems
