"""Scenario-driven command line front end.

Subcommands:
    run     execute a JSON scenario file, write CSV/JSON output, print summary
    verify  run the residual verification suites on seeded random points
    schema  print the scenario JSON schema

Exit codes: 0 success, 1 verification tolerance breach, 2 validation failure
(a scenario path that is not a readable file, a field rejected by this
module's own walk over the schema that ``schema`` prints, or a sample grid
that numpy cannot allocate, before any step), 3 integration
divergence, 4 output could not be written.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import brackets, dirac_check, dynamics, nonrel
from .dynamics import IntegrationDiverged
from .forks import fork_jobs, usable_cpus
from .lagrangian import ModelParams, PhasePoint, ScalarPotential, characteristic_frequencies
from .minkowski import FourVector
from .rng import SplitMix64

_VEC4 = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}
_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

# each potential type of a scenario kind: its constructor and the parameters
# it requires, in the constructor's order.  The 4-D zero potential is None,
# the free run of integrate_hamilton.
_POTENTIALS = {
    "hamilton": {"zero": (lambda: None, ()),
                 "linear": (ScalarPotential.linear, ("b",)),
                 "harmonic": (ScalarPotential.harmonic_spatial, ("k",))},
    "nonrel": {"zero": (nonrel.Potential3D.zero, ()),
               "uniform": (nonrel.Potential3D.uniform_force, ("force",)),
               "harmonic": (nonrel.Potential3D.harmonic, ("k",)),
               "gaussian": (nonrel.Potential3D.gaussian_barrier, ("height", "width")),
               "step": (nonrel.Potential3D.smoothed_step, ("height", "width"))},
}

_PARAMETER_SCHEMAS = {"force": _VEC3, "b": _VEC4, "k": {"type": "number"},
                      "height": {"type": "number"}, "width": _POSITIVE}


def _potential_schema(types: dict) -> dict:
    properties = {name: _PARAMETER_SCHEMAS[name] for _, needs in types.values() for name in needs}
    return {"type": "object", "additionalProperties": False, "required": ["type"],
            "properties": {"type": {"enum": list(types)}, **properties}}


_INITIAL_SCHEMAS = {
    "free": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "cos_amp", "sin_amp"],
        "properties": {
            "p": _VEC4, "cos_amp": _VEC4, "sin_amp": _VEC4, "x0": _VEC4,
            "project": {"type": "boolean"},
        },
    },
    "hamilton": {
        "type": "object",
        "additionalProperties": False,
        "required": ["x", "p", "q", "pi"],
        "properties": {
            "x": _VEC4, "p": _VEC4, "q": _VEC4, "pi": _VEC4,
            "potential": _potential_schema(_POTENTIALS["hamilton"]),
        },
    },
    "general_n": {
        "type": "object",
        "additionalProperties": False,
        "required": ["x0", "stack"],
        "properties": {
            "x0": _VEC4,
            "stack": {"type": "array", "items": _VEC4, "minItems": 1},
        },
    },
    "nonrel": {
        "type": "object",
        "additionalProperties": False,
        "required": ["x", "v"],
        "properties": {
            "x": _VEC3, "v": _VEC3, "a": _VEC3, "j": _VEC3,
            "potential": _potential_schema(_POTENTIALS["nonrel"]),
        },
    },
    "verify": {"type": "object", "additionalProperties": False, "properties": {}},
}

_SUITES = ("all", "brackets", "dirac", "monitors")

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "zitterkit scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_INITIAL_SCHEMAS)},
        "units": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"hbar": _POSITIVE, "c": _POSITIVE},
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mass"],
            "properties": {
                "mass": _POSITIVE,
                "n": {"type": "integer", "minimum": 0},
                "k": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
        },
        "initial": {"type": "object"},
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dt", "t_end"],
            "properties": {
                "dt": _POSITIVE,
                "t_end": _POSITIVE,
                "stride": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "required": ["path"],
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
                "precision": {"type": "integer", "minimum": 1, "maximum": 17},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "suite": {"enum": list(_SUITES)},
                # the seeds whose SplitMix64 streams differ
                "seed": {"type": "integer", "minimum": 0, "maximum": (1 << 64) - 1},
                "points": {"type": "integer", "minimum": 1},
            },
        },
    },
}


class ValidationFailure(ValueError):
    pass


def _rule(fails, words):
    """A keyword's check with one error at most, at v: if fails(v, r), worded repr(v) words(r)."""
    return lambda v, r, s, p: [(p, f"{v!r} {words(r)}")] if fails(v, r) else []


def _unexpected(v, r, s, p):
    """additionalProperties, which the scenario schemas set only to false."""
    if r is not False:
        raise KeyError(f"additionalProperties: {r!r}")
    extras = sorted(set(v) - set(s.get("properties", {})), key=str) if isinstance(v, dict) else []
    return [(p, f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                f"{'was' if len(extras) == 1 else 'were'} unexpected)")] if extras else []


# the JSON Schema types: a bool is no number, and an integral float is an integer
_TYPES = {"object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
          "string": lambda v: isinstance(v, str), "boolean": lambda v: isinstance(v, bool),
          "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
          "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                                or isinstance(v, float) and v.is_integer())}
# each keyword of the scenario schemas: the type of value it applies to (None:
# all) and its check of value v against the keyword's value r in schema s at
# path p, listing (path, message) errors in the words tests/test_conforms.py pins
_KEYWORDS = {
    "$schema": (None, lambda v, r, s, p: []), "title": (None, lambda v, r, s, p: []),
    "type": (None, _rule(lambda v, r: not _TYPES[r](v), "is not of type {!r}".format)),
    "enum": (None, _rule(lambda v, r: not any(
        v == e and isinstance(v, bool) is isinstance(e, bool) for e in r),
        "is not one of {!r}".format)),
    "properties": ("object", lambda v, r, s, p: [
        error for k in r if k in v for error in _errors(v[k], r[k], (*p, k))]),
    "required": ("object", lambda v, r, s, p: [
        (p, f"{k!r} is a required property") for k in r if k not in v]),
    "additionalProperties": (None, _unexpected),
    "items": ("array", lambda v, r, s, p: [
        error for i, x in enumerate(v) for error in _errors(x, r, (*p, i))]),
    "minItems": ("array", _rule(lambda v, r: len(v) < r,
                                lambda r: "should be non-empty" if r == 1 else "is too short")),
    "maxItems": ("array", _rule(lambda v, r: len(v) > r,
                                lambda r: "is expected to be empty" if r == 0 else "is too long")),
    "minimum": ("number", _rule(operator.lt, "is less than the minimum of {!r}".format)),
    "maximum": ("number", _rule(operator.gt, "is greater than the maximum of {!r}".format)),
    "exclusiveMinimum": ("number", _rule(operator.le,
                                         "is less than or equal to the minimum of {!r}".format)),
}


def _errors(value, schema: dict, path: tuple = ()):
    """Yield every error of ``value`` under ``schema`` as (path, message), schema
    keyword by keyword.  A keyword missing from _KEYWORDS raises KeyError."""
    for key, rule in schema.items():
        applies, check = _KEYWORDS[key]
        if applies is None or _TYPES[applies](value):
            yield from check(value, rule, schema, path)


def _integers(value, path: tuple = ()):
    """Yield (path, value) for every int in the JSON document ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _integers(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _integers(item, (*path, i))
    elif isinstance(value, int) and not isinstance(value, bool):
        yield path, value


def _validate_scenario(scn: dict):
    """Raise ValidationFailure unless ``scn`` can run; make its integer fields ints.
    The error named is the shallowest, then the greatest path, then the first found."""
    errors = list(_errors(scn, SCENARIO_SCHEMA)) or list(
        _errors(scn.get("initial", {}), _INITIAL_SCHEMAS[scn["kind"]], ("initial",)))
    if errors:
        path, message = max(errors, key=lambda error: (-len(error[0]), error[0]))
        where = "/".join(map(str, path)) or "(top level)"
        raise ValidationFailure(f"scenario field {where}: {message}")
    for path, value in _integers(scn):
        try:
            float(value)
        except OverflowError:
            raise ValidationFailure(
                f"scenario field {'/'.join(map(str, path))}: an integer of "
                f"{math.floor(math.log10(abs(value))) + 1} digits is too large for a float"
            ) from None
    for section, spec in SCENARIO_SCHEMA["properties"].items():  # 3.0 is an integer: 3
        for name, rule in spec.get("properties", {}).items():
            if rule.get("type") == "integer" and name in scn.get(section, {}):
                scn[section][name] = int(scn[section][name])
    missing = [name for name in ("model", "integrator") if name not in scn]
    if scn["kind"] not in ("verify",) and missing:
        raise ValidationFailure(f"scenario kind {scn['kind']!r} requires the {missing[0]!r} "
                                "section")
    potential = scn.get("initial", {}).get("potential")
    needs = _POTENTIALS[scn["kind"]][potential["type"]][1] if potential else ()
    for name in needs:
        if name not in potential:
            raise ValidationFailure(f"scenario field initial/potential: a {potential['type']!r} "
                                    f"potential requires {name!r}")
    if "output" in scn:
        _check_writable(scn["output"]["path"])


def _check_writable(path: str):
    """Raise ValidationFailure unless ``path`` can be written: an existing
    file that this process may write, or a new name in a writable directory."""
    where = f"scenario field output/path: {path}"
    if not path:
        raise ValidationFailure("scenario field output/path: an empty path names no file")
    directory = os.path.dirname(path) or "."
    if os.path.exists(path):
        if os.path.isdir(path) or not os.access(path, os.W_OK):
            raise ValidationFailure(f"{where} is a directory or not writable")
    elif not os.path.isdir(directory):
        raise ValidationFailure(f"{where}: directory {directory} does not exist")
    elif not os.access(directory, os.W_OK | os.X_OK):
        raise ValidationFailure(f"{where}: directory {directory} is not writable")


def load_scenario(path: str) -> dict:
    if not os.path.isfile(path):
        raise ValidationFailure(f"scenario file not found: {path} is missing or not a file")
    try:
        with open(path, encoding="utf-8") as fh:
            scn = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationFailure(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(f"could not read scenario file {path}: {exc}") from exc
    if not isinstance(scn, dict):
        raise ValidationFailure(f"{path}: scenario must be a JSON object")
    return scn


def apply_override(scn: dict, spec: str):
    path, sep, raw = spec.partition("=")
    if not sep or not path:
        raise ValidationFailure(f"override must look like dotted.path=value, got {spec!r}")
    keys = path.split(".")
    node = scn
    for key in keys[:-1]:
        child = node.setdefault(key, {})
        if not isinstance(child, dict):
            raise ValidationFailure(f"override path {path!r} crosses a scalar field")
        node = child
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[keys[-1]] = value


def _model_from(scn: dict) -> ModelParams:
    units = scn.get("units", {})
    model = scn["model"]
    return ModelParams(
        m=model["mass"],
        n=model.get("n", 1),
        hbar=units.get("hbar", 1.0),
        c=units.get("c", 1.0),
        k=tuple(model["k"]) if "k" in model else None,
    )


def _potential_from(scn: dict):
    spec = scn["initial"].get("potential")
    make, needs = _POTENTIALS[scn["kind"]][spec["type"] if spec else "zero"]
    return make(*(spec[name] for name in needs))


def _span(scn: dict) -> tuple[float, float, int]:
    integ = scn["integrator"]
    return integ["t_end"], integ["dt"], integ.get("stride", 1)


# the fewest rows worth a process of their own: on a 2-vCPU VM two parts
# broke even at ~1900 rows in all (a second process ~6 ms, a row 7-8 us).
# Every benchmark table has at least 2048 rows, so only short runs, tier-1's
# and small user runs, write in one part; one part for every table cost
# canonical_io's wall_s +41% (medians of 8 alternating perfbench pairs)
ROWS_PER_PART = 1024


def _csv_parts(n_rows: int) -> int:
    """How many processes format a CSV table of ``n_rows`` rows: one per
    usable CPU, with at least ROWS_PER_PART rows each."""
    return max(1, min(usable_cpus(), n_rows // ROWS_PER_PART))


# rows a block of the CSV and JSON writers: one ``%`` or ``json.dumps``
# call a block, in which a CSV column whose bits do not change is formatted
# once.  On a 2-vCPU VM (one CPU, 30 interleaved passes over the four
# canonical tables, 84,827 rows), blocks of 64, 256, 1024 and 4096 rows
# took 0.596, 0.581, 0.596 and 0.601 s, with traced peaks of 0.06, 0.22,
# 0.87 and 3.6 MiB on free_cmf; 256 rows without folding took 0.696 s and
# a row a call 0.805 s.  256 is as fast as any and bounds the peak near
# 0.2 MiB whatever the run's length
FORMAT_ROWS = 256


def _format_rows(fh, fmt: str, rows, lo: int, hi: int):
    """Write rows lo..hi-1 of ``rows`` to ``fh``, each value as ``fmt % value``.

    Each block is one ``%`` call.  A column whose values have the same bits
    on every row of the block (so -0.0 is not 0.0) is the literal
    ``fmt % value`` in that call's line; every byte is the same as per value.
    """
    for span in dynamics.row_blocks(hi, FORMAT_ROWS, lo):
        block = rows[span]
        bits = block.view(np.uint64)
        folded = (bits == bits[0]).all(axis=0)
        line = ",".join(fmt % value if fold else fmt
                        for value, fold in zip(block[0].tolist(), folded.tolist())) + "\n"
        fh.write((line * len(block)) % tuple(block[:, ~folded].ravel().tolist()))


def _write_csv(path: str, header: list[str], rows, prec: int, parts: int):
    """Write ``rows`` under ``header`` to ``path`` as CSV, each value to
    ``prec`` significant digits, formatted by ``parts`` processes.

    The rows are cut into ``parts`` contiguous ranges.  Through fork_jobs,
    this process formats the first straight into ``path`` and a child
    formats each other range into its own part, which is appended in order.
    Every value is formatted alike in every process and block, so the bytes
    do not depend on ``parts``, nor on whether a range was formatted again
    here after its child failed.  The file is complete when it returns.
    """
    import shutil

    fmt = f"%.{prec}g"
    bounds = [len(rows) * k // parts for k in range(parts + 1)]

    def append(k, part):
        fh.flush()
        shutil.copyfileobj(part.buffer, fh.buffer)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fork_jobs([lambda: _format_rows(fh, fmt, rows, 0, bounds[1])]
                   + [lambda part, k=k: _format_rows(part, fmt, rows, bounds[k], bounds[k + 1])
                      for k in range(1, parts)], append)


def _write_table(scn: dict, header: list[str], rows) -> list[str]:
    out = scn.get("output")
    if out is None:
        return []
    path = out["path"]
    fmt = out.get("format", "csv")
    prec = out.get("precision", 17)
    try:
        if fmt == "csv":
            _write_csv(path, header, rows, prec, _csv_parts(len(rows)))
        else:
            with open(path, "w", encoding="utf-8") as fh:
                # the bytes of json.dump of the whole table, a block at a time
                fh.write(f'{{"columns": {json.dumps(header)}, "rows": [')
                for k, span in enumerate(dynamics.row_blocks(len(rows), FORMAT_ROWS)):
                    fh.write((", " if k else "") + json.dumps(rows[span].tolist())[1:-1])
                fh.write("]}\n")
    except OSError as exc:
        exc.filename = path  # a failed write or flush names no file
        raise
    return [f"output: {path} ({len(rows)} rows, {fmt})"]


def _final_time(t_end: float, dt: float) -> list[str]:
    """A line saying where the run ends when step_count had to round
    t_end/dt, so that the final sample is off t_end by more than roundoff."""
    steps = dynamics.step_count(t_end, dt)
    quotient = t_end / dt
    if abs(quotient - steps) <= 1e-9 * steps:
        return []
    end = steps * dt
    return [f"final time {end:.10g} is {end - t_end:+.2e} off t_end={t_end:.10g}: "
            f"t_end/dt = {quotient:.6f} rounds to {steps} steps"]


def _fmt_items(items: dict) -> list[str]:
    width = max(len(k) for k in items)
    return [f"  {k.ljust(width)}  {v:.3e}" for k, v in items.items()]


# the columns of a canonical run's CSV table, after its times
_HAMILTON_COLUMNS = ("x", "v", "a", "H", "s", "res_zbw", "res_pv")


def _summarize_hamilton(traj: dynamics.Trajectory, lines: list[str]):
    if dynamics.monitorable(traj):
        lines.append("conservation and identity residual maxima:")
        lines.extend(_fmt_items(dynamics.monitor(traj).as_dict()))


def _run_free(scn: dict) -> tuple[list[str], tuple[list[str], dynamics.TableRows]]:
    params = _model_from(scn)
    init = scn["initial"]
    sol = dynamics.make_free_solution(
        params, *(FourVector(*init[name]) for name in ("p", "cos_amp", "sin_amp")),
        x0=FourVector(*init.get("x0", [0, 0, 0, 0])), project=init.get("project", False))
    t_end, dt, stride = _span(scn)
    traj = dynamics.integrate_hamilton(sol.initial_phase_point(), params, None,
                                       t_end, dt, stride)
    lines = [f"free run: m={params.m:g} n={params.n} omega={sol.omega:g} "
             f"dt={dt:g} t_end={t_end:g} samples={len(traj)}"]
    _summarize_hamilton(traj, lines)
    # block by block, so the reference arrays are bounded by the block
    deviations = []
    for rows in dynamics.row_blocks(len(traj)):
        x_ref, v_ref, _ = sol.sample(traj.times[rows])
        deviations.append((np.abs(traj["x"][rows] - x_ref).max(),
                           np.abs(traj["v"][rows] - v_ref).max()))
    x_dev, v_dev = np.max(deviations, axis=0)
    lines.append("closed-form oracle deviation:")
    lines.extend(_fmt_items({"max |x - exact|": float(x_dev), "max |v - exact|": float(v_dev)}))
    amp = np.abs(sol.cos_amp.components[1:]) + np.abs(sol.sin_amp.components[1:])
    if amp.max() > 0:
        comp = 1 + int(np.argmax(amp))
        try:
            measured = dynamics.estimate_frequency(traj.times, traj["v"][:, comp])
            lines.append(f"  measured frequency     {measured:.9g} (expected {sol.omega:g})")
        except ValueError:
            pass
    speeds = dynamics.check_superluminal(sol)
    lines.append(f"  max |dx/dt| over period  {speeds.max_coordinate_speed:.6g}"
                 f"   cm speed {speeds.cm_speed:.6g} (c={speeds.light_speed:g})")
    return lines, traj.table("tau", _HAMILTON_COLUMNS)


def _run_hamilton(scn: dict) -> tuple[list[str], tuple[list[str], dynamics.TableRows]]:
    params = _model_from(scn)
    init = scn["initial"]
    potential = _potential_from(scn)
    s0 = PhasePoint(**{name: FourVector(*init[name]) for name in ("x", "p", "q", "pi")})
    traj = dynamics.integrate_hamilton(s0, params, potential, *_span(scn))
    lines = [f"hamilton run: m={params.m:g} potential="
             f"{potential.label if potential else 'none'} samples={len(traj)}"]
    _summarize_hamilton(traj, lines)
    return lines, traj.table("tau", _HAMILTON_COLUMNS)


def _run_general_n(scn: dict) -> tuple[list[str], tuple[list[str], dynamics.TableRows]]:
    params = _model_from(scn)
    init = scn["initial"]
    stack = [FourVector(*entry) for entry in init["stack"]]
    traj = dynamics.integrate_free_general_n(params, FourVector(*init["x0"]), stack, *_span(scn))
    lines = [f"general-n free run: n={params.n} k={list(params.k)} samples={len(traj)}"]
    freqs = characteristic_frequencies(params)
    lines.append(f"  characteristic frequencies: {[round(f, 9) for f in freqs]}")
    for mu in range(1, 4):
        try:
            measured = dynamics.estimate_frequency(traj.times, traj["v0_"][:, mu])
            lines.append(f"  measured frequency of v{mu}: {measured:.6g}")
        except ValueError:
            continue
    orders = [f"v{i}_" for i in range(len(traj.names) // 4 - 1)]
    return lines, traj.table("tau", ["x", *orders])


def _run_nonrel(scn: dict) -> tuple[list[str], tuple[list[str], dynamics.TableRows]]:
    params = _model_from(scn)
    init = scn["initial"]
    pot = _potential_from(scn)
    s0 = nonrel.KinState3D(t=0.0, x=init["x"], v=init["v"],
                           a=init.get("a", [0, 0, 0]), j=init.get("j", [0, 0, 0]))
    traj = nonrel.integrate_nr(s0, params, pot, *_span(scn))
    drift = dynamics.relative_drift(traj["E_total"])
    work = nonrel.work_integral(traj, pot)
    dkin = float(traj["T"][-1] - traj["T"][0])
    lines = [f"nonrel run: m={params.m:g} potential={pot.label} samples={len(traj)}"]
    lines.extend(_fmt_items({
        "total energy rel drift": drift,
        "work integral": work,
        "kinetic energy change": dkin,
        "work-energy residual": abs(work - dkin),
    }))
    intervals = nonrel.barrier_report(traj)
    if intervals:
        lines.append("barrier intervals (U > E_total with v^2 > 0):")
        for iv in intervals:
            lines.append(f"  [{iv.t_start:.6g}, {iv.t_end:.6g}] "
                         f"max(U-E)={iv.max_excess:.3e} min v^2={iv.min_v_squared:.3e}")
    else:
        lines.append("barrier intervals: none")
    return lines, traj.table("t", ("x", "v", "a", "j", "T_newton", "T_zbw", "T", "U",
                                   "E_total"))


@dataclass
class SuiteResult:
    name: str
    ok: bool
    lines: list[str]


def _worst(reports, tol: float) -> tuple[bool, list[str]]:
    """Maximum of each residual over a sequence of reports, checked against
    tol; one line per residual, naming the first point where it peaks if it
    fails.  Returns whether all maxima pass, and the lines."""
    worst = {}
    for idx, report in enumerate(reports):
        for label, value in report.as_dict().items():
            if label not in worst or value > worst[label][0]:
                worst[label] = (value, idx)
    lines = []
    for label, (value, idx) in worst.items():
        status = "ok" if value <= tol else f"FAIL at point {idx}"
        lines.append(f"  {label:<36} max {value:.3e}  {status}")
    return all(value <= tol for value, _ in worst.values()), lines


def bracket_suite(seed: int = 1, points: int = 100, tol: float = 1e-9) -> SuiteResult:
    """Appendix bracket identities at seeded random phase points in [-1,1]^16."""
    rng = SplitMix64(seed)
    params = ModelParams(m=1.0)
    states = (PhasePoint.from_array(rng.uniforms(16, -1.0, 1.0)) for _ in range(points))
    ok, worst_lines = _worst((brackets.verify_appendix(params, s) for s in states), tol)
    lines = [f"bracket suite: seed={seed} points={points} h={brackets.STEP:g} "
             f"orientation={brackets.BRACKET_ORIENTATION:+.0f} tol={tol:g}"]
    return SuiteResult(name="brackets", ok=ok, lines=lines + worst_lines)


def dirac_suite(seed: int = 1, points: int = 50, onshell_points: int = 20,
                tol: float = 1e-12, clifford_tol: float = 1e-15) -> SuiteResult:
    """Gamma-matrix identities for seeded random momenta, on and off shell."""
    rng = SplitMix64(seed)
    lines = [f"dirac suite: seed={seed} points={points} onshell={onshell_points}"]
    cliff = dirac_check.clifford_residual()
    ok = cliff <= clifford_tol
    lines.append(f"  {'anticommutation relations':<36} max {cliff:.3e}  "
                 f"{'ok' if ok else 'FAIL'}")

    # the draws of each point (momentum, then mass) happen in argument order
    off_ok, off_lines = _worst(
        (dirac_check.verify_heisenberg(FourVector.from_array(rng.uniforms(4, -1.0, 1.0)),
                                       rng.uniform(0.5, 2.0)) for _ in range(points)), tol)

    def onshell_report():
        spatial = rng.uniforms(3, -1.0, 1.0)
        m = rng.uniform(0.5, 2.0)
        p0 = math.sqrt(m * m + float(np.dot(spatial, spatial)))
        return dirac_check.verify_onshell_zbw(FourVector(p0, *spatial), m)

    on_ok, on_lines = _worst((onshell_report() for _ in range(onshell_points)), tol)
    return SuiteResult(name="dirac", ok=ok and off_ok and on_ok,
                       lines=lines + off_lines + on_lines)


# the tolerance of each monitor residual, in the report's own shape
_MONITOR_TOLS = dynamics.MonitorReport(
    momentum_drift=1e-12, energy_rel_drift=1e-8, pv_constraint=1e-8,
    onshell_constraint=1e-8, zbw_residual=1e-6, dual_residual=1e-6,
    spin_momentum_residual=1e-8, spin_drift=1e-8)


def _checked(report, tols: dict, lines: list[str]) -> bool:
    """Append one line per residual of ``report``, checked against its
    tolerance in ``tols``; returns whether all pass."""
    residuals = report.as_dict()
    for label, value in residuals.items():
        lines.append(f"    {label:<30} {value:.3e} (tol {tols[label]:g}) "
                     f"{'ok' if value <= tols[label] else 'FAIL'}")
    return all(value <= tols[label] for label, value in residuals.items())


def monitor_suite() -> SuiteResult:
    """Conservation monitors on the standard oscillating and Newtonian runs."""
    params = ModelParams(m=1.0)
    lines = ["monitor suite: standard (cmf) and Newtonian free runs"]

    sol = dynamics.make_free_solution(
        params, FourVector(1, 0, 0, 0), FourVector(0, 0.1, 0, 0),
        FourVector(0, 0, 0.1, 0))
    traj = dynamics.integrate_hamilton(sol.initial_phase_point(), params, None,
                                       10.0 * math.pi, 1e-3)
    steps = len(traj) - 1
    drift = _MONITOR_TOLS.momentum_drift * max(1.0, steps / 1e4)
    tols = replace(_MONITOR_TOLS, momentum_drift=drift).as_dict()
    lines.append(f"  standard run ({steps} steps):")
    ok = _checked(dynamics.monitor(traj), tols, lines)

    newton = dynamics.make_free_solution(
        params, FourVector(1, 0, 0, 0), FourVector.zero(), FourVector.zero())
    ntraj = dynamics.integrate_hamilton(newton.initial_phase_point(), params, None,
                                        1.0, 1e-3)
    lines.append("  Newtonian run (no oscillation):")
    ok = _checked(dynamics.monitor(ntraj), dict.fromkeys(tols, 1e-12), lines) and ok
    return SuiteResult(name="monitors", ok=ok, lines=lines)


def run_verify(suite: str, seed: int, points: int) -> int:
    runs = [run for name, run in (
        ("brackets", lambda: bracket_suite(seed=seed, points=points)),
        ("dirac", lambda: dirac_suite(seed=seed, points=min(points, 50),
                                      onshell_points=min(points, 20))),
        ("monitors", monitor_suite)) if suite in ("all", name)]
    if len(runs) > 1 and usable_cpus() > 1:
        # the monitor suite, the longest, runs in a child (in sequence, verify_suites'
        # wall_s read +38%, peak_rss_mb +10.6 MiB); dirac's LAPACK calls stay here
        import pickle

        here, away = fork_jobs([lambda: [run() for run in runs[:-1]],
                                lambda part: pickle.dump(runs[-1](), part.buffer)],
                               lambda k, part: pickle.load(part.buffer))
        results = here + [away]
    else:
        results = [run() for run in runs]
    print(f"verification suites (seed={seed}):")
    ok = all(res.ok for res in results)
    for res in results:
        for line in res.lines:
            print(line)
    if {r.name for r in results} >= {"dirac", "monitors"}:
        print("correspondence: the classical monitors and the operator checks "
              "validate the same three evolution equations (momentum "
              "conservation, spin-tensor rate, velocity equation) on the same "
              "model (m=1, physical k1)")
    print("verification result:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


_RUNNERS = {
    "free": _run_free,
    "hamilton": _run_hamilton,
    "general_n": _run_general_n,
    "nonrel": _run_nonrel,
}


def run_scenario(scn: dict) -> int:
    kind = scn["kind"]
    if kind == "verify":
        spec = scn.get("verify", {})
        return run_verify(spec.get("suite", "all"), spec.get("seed", 1),
                          spec.get("points", 100))
    lines, (header, rows) = _RUNNERS[kind](scn)
    lines.extend(_final_time(*_span(scn)[:2]))
    lines.extend(_write_table(scn, header, rows))
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zitterkit",
        description="simulate and verify the classical dynamics of spinning particles")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="override a scenario field, "
                       "e.g. --set integrator.dt=1e-2")

    ver_p = sub.add_parser("verify", help="run residual verification suites")
    ver_p.add_argument("--suite", choices=_SUITES, default="all")
    ver_p.add_argument("--seed", type=int, default=1)
    ver_p.add_argument("--points", type=int, default=100)

    sub.add_parser("schema", help="print the scenario JSON schema")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "schema":
            print(json.dumps({**SCENARIO_SCHEMA, "initial_by_kind": _INITIAL_SCHEMAS},
                             indent=2))
            return 0
        if args.command == "verify":
            scn = {"kind": "verify",
                   "verify": {"suite": args.suite, "seed": args.seed, "points": args.points}}
        else:
            scn = load_scenario(args.scenario)
            for spec in args.overrides:
                apply_override(scn, spec)
        _validate_scenario(scn)
        return run_scenario(scn)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationDiverged as exc:
        bad = exc.nonfinite
        where = f"; non-finite entries: {len(bad)}, first at index {bad[0]}" if bad else ""
        print(f"error: integration diverged: {exc} (last good time {exc.last_time:g}{where})",
              file=sys.stderr)
        return 3
    except OSError as exc:  # only _write_table's errors name a file
        print(f"error: could not write {exc.filename or 'standard output'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
