"""Scenario-driven command line front end.

Subcommands:
    run     execute a JSON scenario file, write CSV/JSON output, print summary
    verify  run the residual verification suites on seeded random points
    schema  print the scenario JSON schema

Exit codes: 0 success, 1 verification tolerance breach, 2 validation failure,
3 integration divergence.  The env var ZITTERKIT_PRECISION (1..17) overrides
the number of significant digits in CSV output.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import brackets, dirac_check, dynamics, nonrel
from .dynamics import IntegrationDiverged
from .lagrangian import ModelParams, PhasePoint, ScalarPotential
from .minkowski import FourVector
from .rng import SplitMix64

_VEC4 = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}
_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_POTENTIAL3_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["type"],
    "properties": {
        "type": {"enum": ["zero", "uniform", "harmonic", "gaussian", "step"]},
        "force": _VEC3,
        "k": {"type": "number"},
        "height": {"type": "number"},
        "width": _POSITIVE,
    },
}

_POTENTIAL4_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["type"],
    "properties": {
        "type": {"enum": ["zero", "linear", "harmonic"]},
        "b": _VEC4,
        "k": {"type": "number"},
    },
}

# the parameters each potential type needs, in 3-D and 4-D alike
_POTENTIAL_PARAMETERS = {"uniform": ("force",), "harmonic": ("k",), "linear": ("b",),
                         "gaussian": ("height", "width"), "step": ("height", "width")}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "zitterkit scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["free", "hamilton", "general_n", "nonrel", "verify"]},
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
                "suite": {"enum": ["all", "brackets", "dirac", "monitors"]},
                "seed": {"type": "integer"},
                "points": {"type": "integer", "minimum": 1},
            },
        },
    },
}

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
            "potential": _POTENTIAL4_SCHEMA,
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
            "potential": _POTENTIAL3_SCHEMA,
        },
    },
    "verify": {"type": "object", "additionalProperties": False, "properties": {}},
}


class ValidationFailure(ValueError):
    pass


@functools.cache
def _validator(kind: str | None = None):
    """Validator of SCENARIO_SCHEMA, or of the initial section of ``kind``,
    built once in the dialect that ``jsonschema.validate`` picks."""
    from jsonschema.validators import validator_for

    schema = SCENARIO_SCHEMA if kind is None else _INITIAL_SCHEMAS[kind]
    return validator_for(schema)(schema)


def _validate_scenario(scn: dict):
    from jsonschema.exceptions import best_match  # the error jsonschema.validate raises

    error = best_match(_validator().iter_errors(scn))
    if error is None:
        error = best_match(_validator(scn["kind"]).iter_errors(scn.get("initial", {})))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ValidationFailure(f"scenario field {path}: {error.message}") from error
    if scn["kind"] not in ("verify",) and "integrator" not in scn:
        raise ValidationFailure(f"scenario kind {scn['kind']!r} requires an 'integrator' section")
    potential = scn.get("initial", {}).get("potential", {})
    for name in _POTENTIAL_PARAMETERS.get(potential.get("type"), ()):
        if name not in potential:
            raise ValidationFailure(f"scenario field initial/potential: a {potential['type']!r} "
                                    f"potential requires {name!r}")
    if "output" in scn:
        _precision(scn)  # an invalid ZITTERKIT_PRECISION fails before the run


def load_scenario(path: str) -> dict:
    if not os.path.exists(path):
        raise ValidationFailure(f"scenario file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            scn = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
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


def _fv(values) -> FourVector:
    return FourVector(*values)


def _potential3_from(spec: dict | None) -> nonrel.Potential3D:
    if spec is None or spec["type"] == "zero":
        return nonrel.Potential3D.zero()
    kind = spec["type"]
    if kind == "uniform":
        return nonrel.Potential3D.uniform_force(spec["force"])
    if kind == "harmonic":
        return nonrel.Potential3D.harmonic(spec["k"])
    if kind == "gaussian":
        return nonrel.Potential3D.gaussian_barrier(spec["height"], spec["width"])
    if kind == "step":
        return nonrel.Potential3D.smoothed_step(spec["height"], spec["width"])
    raise ValidationFailure(f"unknown potential type {kind!r}")


def _potential4_from(spec: dict | None) -> ScalarPotential | None:
    if spec is None or spec["type"] == "zero":
        return None
    if spec["type"] == "linear":
        return ScalarPotential.linear(spec["b"])
    if spec["type"] == "harmonic":
        return ScalarPotential.harmonic_spatial(spec["k"])
    raise ValidationFailure(f"unknown potential type {spec['type']!r}")


def _precision(scn: dict) -> int:
    env = os.environ.get("ZITTERKIT_PRECISION")
    if env is None:
        return scn.get("output", {}).get("precision", 17)
    if not env.strip().isdecimal() or not 1 <= int(env) <= 17:
        raise ValidationFailure(f"ZITTERKIT_PRECISION must be an integer in 1..17, got {env!r}")
    return int(env)


def _write_table(scn: dict, header: list[str], rows: np.ndarray) -> list[str]:
    out = scn.get("output")
    if out is None:
        return []
    path = out["path"]
    fmt = out.get("format", "csv")
    prec = _precision(scn)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            # rows are formatted and written one at a time: joining a whole
            # table first would hold a second copy of it in memory
            line = ",".join([f"%.{prec}g"] * len(header)) + "\n"
            for row in rows:
                fh.write(line % tuple(row.tolist()))
    else:
        payload = {"columns": header, "rows": rows.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return [f"output: {path} ({len(rows)} rows, {fmt})"]


def _final_time(integ: dict) -> list[str]:
    """A line saying where the run ends when step_count had to round
    t_end/dt, so that the final sample is off t_end by more than roundoff."""
    t_end, dt = integ["t_end"], integ["dt"]
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


def _hamilton_table(traj: dynamics.Trajectory) -> tuple[list[str], np.ndarray]:
    header = (["tau"] + [f"x{mu}" for mu in range(4)] + [f"v{mu}" for mu in range(4)]
              + [f"a{mu}" for mu in range(4)]
              + ["H", "s1", "s2", "s3", "res_zbw", "res_pv"])
    rec = traj.records
    cols = [traj.times, traj.xs, traj.qs, traj.accs, rec["energy"][:, None],
            rec["spin"], rec["zbw_residual"][:, None], rec["pv_residual"][:, None]]
    return header, np.column_stack(cols)


def _summarize_hamilton(traj: dynamics.Trajectory, lines: list[str]):
    if len(traj) >= 5:
        report = dynamics.monitor(traj)
        lines.append("conservation and identity residual maxima:")
        lines.extend(_fmt_items(report.as_dict()))


def _run_free(scn: dict) -> tuple[list[str], tuple[list[str], np.ndarray]]:
    params = _model_from(scn)
    init = scn["initial"]
    sol = dynamics.make_free_solution(
        params, _fv(init["p"]), _fv(init["cos_amp"]), _fv(init["sin_amp"]),
        x0=_fv(init.get("x0", [0, 0, 0, 0])), project=init.get("project", False))
    integ = scn["integrator"]
    traj = dynamics.integrate_hamilton(sol.initial_phase_point(), params, None,
                                       integ["t_end"], integ["dt"],
                                       integ.get("stride", 1))
    lines = [f"free run: m={params.m:g} n={params.n} omega={sol.omega:g} "
             f"dt={integ['dt']:g} t_end={integ['t_end']:g} samples={len(traj)}"]
    _summarize_hamilton(traj, lines)
    x_ref, v_ref, _ = sol.sample(traj.times)
    lines.append("closed-form oracle deviation:")
    lines.extend(_fmt_items({
        "max |x - exact|": float(np.abs(traj.xs - x_ref).max()),
        "max |v - exact|": float(np.abs(traj.qs - v_ref).max()),
    }))
    amp = np.abs(sol.cos_amp.components[1:]) + np.abs(sol.sin_amp.components[1:])
    if amp.max() > 0:
        comp = 1 + int(np.argmax(amp))
        try:
            measured = dynamics.estimate_frequency(traj.times, traj.qs[:, comp])
            lines.append(f"  measured frequency     {measured:.9g} (expected {sol.omega:g})")
        except ValueError:
            pass
    speeds = dynamics.check_superluminal(sol)
    lines.append(f"  max |dx/dt| over period  {speeds.max_coordinate_speed:.6g}"
                 f"   cm speed {speeds.cm_speed:.6g} (c={speeds.light_speed:g})")
    return lines, _hamilton_table(traj)


def _run_hamilton(scn: dict) -> tuple[list[str], tuple[list[str], np.ndarray]]:
    params = _model_from(scn)
    init = scn["initial"]
    potential = _potential4_from(init.get("potential"))
    s0 = PhasePoint(x=_fv(init["x"]), p=_fv(init["p"]), q=_fv(init["q"]),
                    pi=_fv(init["pi"]))
    integ = scn["integrator"]
    traj = dynamics.integrate_hamilton(s0, params, potential, integ["t_end"],
                                       integ["dt"], integ.get("stride", 1))
    lines = [f"hamilton run: m={params.m:g} potential="
             f"{potential.label if potential else 'none'} samples={len(traj)}"]
    _summarize_hamilton(traj, lines)
    return lines, _hamilton_table(traj)


def _run_general_n(scn: dict) -> tuple[list[str], tuple[list[str], np.ndarray]]:
    from .lagrangian import characteristic_frequencies

    params = _model_from(scn)
    init = scn["initial"]
    stack = [_fv(entry) for entry in init["stack"]]
    integ = scn["integrator"]
    traj = dynamics.integrate_free_general_n(params, _fv(init["x0"]), stack,
                                             integ["t_end"], integ["dt"],
                                             integ.get("stride", 1))
    lines = [f"general-n free run: n={params.n} k={list(params.k)} samples={len(traj)}"]
    freqs = characteristic_frequencies(params)
    lines.append(f"  characteristic frequencies: {[round(f, 9) for f in freqs]}")
    for mu in range(1, 4):
        try:
            measured = dynamics.estimate_frequency(traj.times, traj.blocks[:, 1, mu])
            lines.append(f"  measured frequency of v{mu}: {measured:.6g}")
        except ValueError:
            continue
    n_orders = traj.blocks.shape[1] - 1
    header = (["tau"] + [f"x{mu}" for mu in range(4)]
              + [f"v{i}_{mu}" for i in range(n_orders) for mu in range(4)])
    rows = np.column_stack([traj.times, traj.blocks.reshape(len(traj), -1)])
    return lines, (header, rows)


def _run_nonrel(scn: dict) -> tuple[list[str], tuple[list[str], np.ndarray]]:
    params = _model_from(scn)
    init = scn["initial"]
    pot = _potential3_from(init.get("potential"))
    s0 = nonrel.KinState3D(t=0.0, x=init["x"], v=init["v"],
                           a=init.get("a", [0, 0, 0]), j=init.get("j", [0, 0, 0]))
    integ = scn["integrator"]
    traj = nonrel.integrate_nr(s0, params, pot, integ["t_end"], integ["dt"],
                               integ.get("stride", 1))
    drift = dynamics.relative_drift(traj.e_total)
    work = nonrel.work_integral(traj, pot)
    dkin = float(traj.e_kinetic[-1] - traj.e_kinetic[0])
    lines = [f"nonrel run: m={params.m:g} potential={pot.label} samples={len(traj)}"]
    lines.extend(_fmt_items({
        "total energy rel drift": drift,
        "work integral": work,
        "kinetic energy change": dkin,
        "work-energy residual": abs(work - dkin),
    }))
    intervals = nonrel.barrier_report(traj, pot)
    if intervals:
        lines.append("barrier intervals (U > E_total with v^2 > 0):")
        for iv in intervals:
            lines.append(f"  [{iv.t_start:.6g}, {iv.t_end:.6g}] "
                         f"max(U-E)={iv.max_excess:.3e} min v^2={iv.min_v_squared:.3e}")
    else:
        lines.append("barrier intervals: none")
    header = (["t"] + [f"x{i}" for i in (1, 2, 3)] + [f"v{i}" for i in (1, 2, 3)]
              + [f"a{i}" for i in (1, 2, 3)] + [f"j{i}" for i in (1, 2, 3)]
              + ["T_newton", "T_zbw", "T", "U", "E_total"])
    rows = np.column_stack([traj.times, traj.xs, traj.vs, traj.accs, traj.jerks,
                            traj.e_newton, traj.e_zbw, traj.e_kinetic,
                            traj.e_potential, traj.e_total])
    return lines, (header, rows)


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


def bracket_suite(seed: int = 1, points: int = 100, h: float = 1e-4,
                  tol: float = 1e-9) -> SuiteResult:
    """Appendix bracket identities at seeded random phase points in [-1,1]^16."""
    rng = SplitMix64(seed)
    params = ModelParams(m=1.0)
    states = (PhasePoint.from_array(rng.uniforms(16, -1.0, 1.0)) for _ in range(points))
    ok, worst_lines = _worst((brackets.verify_appendix(params, s, h=h) for s in states), tol)
    lines = [f"bracket suite: seed={seed} points={points} h={h:g} "
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


_MONITOR_TOLS = {
    "momentum drift": 1e-12,
    "energy rel drift": 1e-8,
    "p.v constraint": 1e-8,
    "on-shell constraint": 1e-8,
    "velocity-equation residual": 1e-6,
    "dual-form residual": 1e-6,
    "spin-momentum identity": 1e-8,
    "spin vector drift": 1e-8,
}


def monitor_suite() -> SuiteResult:
    """Conservation monitors on the standard oscillating and Newtonian runs."""
    params = ModelParams(m=1.0)
    lines = ["monitor suite: standard (cmf) and Newtonian free runs"]
    ok = True

    sol = dynamics.make_free_solution(
        params, FourVector(1, 0, 0, 0), FourVector(0, 0.1, 0, 0),
        FourVector(0, 0, 0.1, 0))
    traj = dynamics.integrate_hamilton(sol.initial_phase_point(), params, None,
                                       10.0 * math.pi, 1e-3)
    steps = len(traj) - 1
    report = dynamics.monitor(traj)
    lines.append(f"  standard run ({steps} steps):")
    for label, value in report.as_dict().items():
        tol = _MONITOR_TOLS[label]
        if label == "momentum drift":
            tol *= max(1.0, steps / 1e4)
        good = value <= tol
        ok = ok and good
        lines.append(f"    {label:<30} {value:.3e} (tol {tol:g}) "
                     f"{'ok' if good else 'FAIL'}")

    newton = dynamics.make_free_solution(
        params, FourVector(1, 0, 0, 0), FourVector.zero(), FourVector.zero())
    ntraj = dynamics.integrate_hamilton(newton.initial_phase_point(), params, None,
                                        1.0, 1e-3)
    nreport = dynamics.monitor(ntraj)
    lines.append("  Newtonian run (no oscillation):")
    for label, value in nreport.as_dict().items():
        good = value <= 1e-12
        ok = ok and good
        lines.append(f"    {label:<30} {value:.3e} (tol 1e-12) "
                     f"{'ok' if good else 'FAIL'}")
    return SuiteResult(name="monitors", ok=ok, lines=lines)


def run_verify(suite: str, seed: int, points: int) -> int:
    results = []
    if suite in ("all", "brackets"):
        results.append(bracket_suite(seed=seed, points=points))
    if suite in ("all", "dirac"):
        results.append(dirac_suite(seed=seed, points=min(points, 50),
                                   onshell_points=min(points, 20)))
    if suite in ("all", "monitors"):
        results.append(monitor_suite())
    print(f"verification suites (seed={seed}):")
    ok = True
    for res in results:
        ok = ok and res.ok
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
    try:
        lines, (header, rows) = _RUNNERS[kind](scn)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    lines.extend(_final_time(scn["integrator"]))
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
    ver_p.add_argument("--suite", choices=["all", "brackets", "dirac", "monitors"],
                       default="all")
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
            return run_verify(args.suite, args.seed, args.points)
        scn = load_scenario(args.scenario)
        scn = copy.deepcopy(scn)
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


if __name__ == "__main__":
    sys.exit(main())
