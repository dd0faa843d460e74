import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zitterkit import dynamics
from zitterkit.brackets import verify_appendix
from zitterkit.cli import (
    SCENARIO_SCHEMA,
    _run_free,
    _write_table,
    apply_override,
    bracket_suite,
    dirac_suite,
    load_scenario,
    main,
)
from zitterkit.lagrangian import ModelParams, PhasePoint
from zitterkit.minkowski import FourVector
from zitterkit.rng import SplitMix64

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


def short_free_scenario(tmp_path, out_name="out.csv", fmt="csv"):
    scn = {
        "kind": "free",
        "units": {"hbar": 1.0, "c": 1.0},
        "model": {"mass": 1.0, "n": 1},
        "initial": {
            "p": [1.0, 0.0, 0.0, 0.0],
            "cos_amp": [0.0, 0.1, 0.0, 0.0],
            "sin_amp": [0.0, 0.0, 0.1, 0.0],
        },
        "integrator": {"dt": 0.001, "t_end": 0.5, "stride": 1},
        "output": {"path": str(tmp_path / out_name), "format": fmt, "precision": 17},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    return path


def test_run_free_scenario_writes_csv(tmp_path, capsys):
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "free run" in out
    lines = (tmp_path / "out.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["tau", "x0", "x1", "x2", "x3", "v0", "v1", "v2", "v3",
                      "a0", "a1", "a2", "a3", "H", "s1", "s2", "s3",
                      "res_zbw", "res_pv"]
    assert len(lines) == 502  # header + 501 samples
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[13] == pytest.approx(0.51)


def test_run_missing_file_exits_2(capsys):
    assert main(["run", "does_not_exist.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "free",')
    assert main(["run", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_run_unknown_key_exits_2(tmp_path, capsys):
    path = short_free_scenario(tmp_path)
    scn = json.loads(path.read_text())
    scn["unexpected"] = 1
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 2
    assert "unexpected" in capsys.readouterr().err


def test_run_tampered_coefficient_sign_exits_2(tmp_path, capsys):
    path = short_free_scenario(tmp_path)
    code = main(["run", str(path), "--set", "model.k=[1.0,0.25]"])
    assert code == 2
    assert "alternate" in capsys.readouterr().err


def test_override_changes_step(tmp_path, capsys):
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path), "--set", "integrator.dt=1e-2"]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 52  # header + 51 samples at the coarser step


def test_apply_override_parsing():
    scn = {"integrator": {"dt": 1e-3}}
    apply_override(scn, "integrator.dt=0.01")
    assert scn["integrator"]["dt"] == 0.01
    apply_override(scn, "output.path=run.csv")
    assert scn["output"]["path"] == "run.csv"
    with pytest.raises(ValueError):
        apply_override(scn, "no_equals_sign")


def test_byte_identical_reruns(tmp_path):
    path_a = short_free_scenario(tmp_path, out_name="a.csv")
    assert main(["run", str(path_a)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["run", str(path_a)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == first


def test_json_output_round_trips(tmp_path):
    path = short_free_scenario(tmp_path, out_name="out.json", fmt="json")
    assert main(["run", str(path)]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["columns"][0] == "tau"
    rows = np.asarray(payload["rows"])
    # H column reproduces the stored double exactly
    assert rows[0, 13] == 0.51
    # re-serialize: identical because repr round-trips doubles
    assert json.loads(json.dumps(payload)) == payload
    # the file is exactly the per-value float serialization of the table
    _, (header, table) = _run_free(json.loads(path.read_text()))
    reference = json.dumps({"columns": header,
                            "rows": [[float(v) for v in row] for row in table]}) + "\n"
    assert (tmp_path / "out.json").read_text() == reference


SPECIAL_ROW = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 2.0, 0.1]


def _format_table_reference(rows, prec):
    return [",".join("{:.{p}g}".format(v, p=prec) for v in row) for row in rows]


@pytest.mark.parametrize("prec", [1, 6, 17])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.lists(st.lists(st.floats(), min_size=len(SPECIAL_ROW),
                              max_size=len(SPECIAL_ROW)), max_size=8))
def test_csv_rows_match_per_value_format(tmp_path, monkeypatch, prec, body):
    monkeypatch.delenv("ZITTERKIT_PRECISION", raising=False)
    rows = np.array([SPECIAL_ROW] + body)
    header = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path / "table.csv"
    _write_table({"output": {"path": str(path), "precision": prec}}, header, rows)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(header)
    assert lines[1:] == _format_table_reference(rows, prec) + [""]


@pytest.mark.parametrize("name", ["superluminal", "general_n2", "nonrel_gaussian_barrier",
                                  "nonrel_circle", "nonrel_harmonic"])
def test_shipped_scenario_csv_matches_recorded_digest(tmp_path, name):
    with open(os.path.join(SCENARIO_DIR, "..", "perfbench", "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)[name]["sha256_seed0"]
    out = tmp_path / f"{name}.csv"
    assert main(["run", scenario_path(f"{name}.json"),
                 "--set", f"output.path={out}"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_precision_env_override(tmp_path, monkeypatch):
    path = short_free_scenario(tmp_path)
    monkeypatch.setenv("ZITTERKIT_PRECISION", "6")
    assert main(["run", str(path)]) == 0
    row = (tmp_path / "out.csv").read_text().splitlines()[2]
    for field in row.split(","):
        digits = field.split("e")[0].replace("-", "").replace(".", "")
        significant = digits.lstrip("0").rstrip("0")
        assert len(significant) <= 6


def test_nonrel_scenario_runs(tmp_path, capsys):
    out = tmp_path / "circle.csv"
    code = main(["run", scenario_path("nonrel_circle.json"),
                 "--set", f"output.path={out}",
                 "--set", "integrator.t_end=0.5",
                 "--set", "integrator.dt=0.001"])
    assert code == 0
    text = capsys.readouterr().out
    assert "barrier intervals" in text
    header = out.read_text().splitlines()[0]
    assert header.startswith("t,x1,x2,x3,v1") and header.endswith("T_newton,T_zbw,T,U,E_total")


@pytest.mark.parametrize("overrides", [["model.n=0"],
                                       ["model.n=2", "model.k=[1.0,-1.25,0.25]"]])
def test_nonrel_scenario_of_another_order_exits_2(tmp_path, capsys, overrides):
    out = tmp_path / "circle.csv"
    sets = [arg for value in overrides for arg in ("--set", value)]
    assert main(["run", scenario_path("nonrel_circle.json"),
                 "--set", f"output.path={out}", *sets]) == 2
    err = capsys.readouterr().err
    assert "requires n=1, got n=" in err and "Traceback" not in err
    assert not out.exists()


def test_nonrel_scenario_honours_model_k(tmp_path, capsys):
    runs = {}
    for name, sets in (("default", []), ("k5", ["--set", "model.k=[1.0,-5.0]"])):
        out = tmp_path / f"{name}.csv"
        assert main(["run", scenario_path("nonrel_circle.json"), "--set", f"output.path={out}",
                     "--set", "integrator.t_end=0.5", *sets]) == 0
        drift = re.search(r"total energy rel drift\s+(\S+)", capsys.readouterr().out)
        assert float(drift.group(1)) <= 1e-8
        runs[name] = out.read_bytes()
    assert runs["k5"] != runs["default"]


def test_summary_names_a_rounded_final_time(tmp_path, capsys):
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path)]) == 0
    assert "final time" not in capsys.readouterr().out  # 0.5 / 0.001 steps
    assert main(["run", str(path), "--set", "integrator.dt=0.003"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "final time" in line] == [
        "final time 0.501 is +1.00e-03 off t_end=0.5: t_end/dt = 166.666667 rounds to 167 steps"]


def test_general_n_scenario_runs(tmp_path, capsys):
    out = tmp_path / "general.csv"
    code = main(["run", scenario_path("general_n2.json"),
                 "--set", f"output.path={out}",
                 "--set", "integrator.t_end=6.0"])
    assert code == 0
    assert "characteristic frequencies" in capsys.readouterr().out


@pytest.mark.parametrize("potential", [
    {"type": "zero"},
    {"type": "linear", "b": [0, 0.01, 0, 0]},
    {"type": "harmonic", "k": 0.05},
], ids=["zero", "linear", "harmonic"])
def test_hamilton_scenario(tmp_path, potential):
    scn = {
        "kind": "hamilton",
        "model": {"mass": 1.0},
        "initial": {
            "x": [0, 0, 0, 0], "p": [1, 0, 0, 0],
            "q": [1, 0.1, 0, 0], "pi": [0, 0, -0.05, 0],
            "potential": potential,
        },
        "integrator": {"dt": 0.001, "t_end": 0.1},
        "output": {"path": str(tmp_path / "h.csv")},
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "h.csv").exists()
    header = (tmp_path / "h.csv").read_text().splitlines()[0].split(",")
    energy = np.loadtxt(tmp_path / "h.csv", delimiter=",", skiprows=1)[:, header.index("H")]
    assert np.abs(energy - energy[0]).max() <= 1e-8 * abs(energy[0])


POTENTIAL_PARAMETERS = {
    "nonrel": {"uniform": {"force": [0.1, 0, 0]}, "harmonic": {"k": 1.0},
               "gaussian": {"height": 0.5, "width": 0.3},
               "step": {"height": 0.5, "width": 0.3}},
    "hamilton": {"linear": {"b": [0, 0.01, 0, 0]}, "harmonic": {"k": 0.05}},
}
MISSING_PARAMETERS = [(kind, ptype, field) for kind, types in POTENTIAL_PARAMETERS.items()
                      for ptype, fields in types.items() for field in fields]


@pytest.mark.parametrize("kind, ptype, field", MISSING_PARAMETERS,
                         ids=["-".join(case) for case in MISSING_PARAMETERS])
def test_potential_without_a_parameter_exits_2(tmp_path, capsys, kind, ptype, field):
    spec = {"type": ptype, **POTENTIAL_PARAMETERS[kind][ptype]}
    del spec[field]
    if kind == "nonrel":
        initial = {"x": [1, 0, 0], "v": [0, 0.1, 0]}
    else:
        initial = {"x": [0, 0, 0, 0], "p": [1, 0, 0, 0], "q": [1, 0.1, 0, 0],
                   "pi": [0, 0, -0.05, 0]}
    scn = {"kind": kind, "model": {"mass": 1.0},
           "initial": {**initial, "potential": spec},
           "integrator": {"dt": 0.001, "t_end": 0.01},
           "output": {"path": str(tmp_path / "out.csv")}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"initial/potential: a '{ptype}' potential requires '{field}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("precision", ["0", "18", "six"])
def test_precision_env_out_of_range_exits_2(tmp_path, monkeypatch, capsys, precision):
    monkeypatch.setenv("ZITTERKIT_PRECISION", precision)
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path)]) == 2
    assert "ZITTERKIT_PRECISION" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("field", ["t_end", "dt"])
def test_non_finite_integrator_value_exits_2(tmp_path, capsys, field):
    path = short_free_scenario(tmp_path)
    scn = json.loads(path.read_text())
    scn["integrator"][field] = math.inf
    path.write_text(json.dumps(scn))
    assert f'"{field}": Infinity' in path.read_text()
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be positive and finite, got inf" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_overflowing_step_count_exits_2(capsys, tmp_path):
    # t_end and dt are each finite, but their quotient is not
    assert main(["run", scenario_path("free_cmf.json"),
                 "--set", "integrator.t_end=1e300", "--set", "integrator.dt=1e-300",
                 "--set", f"output.path={tmp_path / 'out.csv'}"]) == 2
    err = capsys.readouterr().err
    assert "error: t_end/dt must be finite, got t_end=1e+300 and dt=1e-300" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_precision_env_is_rejected_before_integrating(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("integration started with an invalid precision")

    monkeypatch.setattr(dynamics, "rk4_path", refuse)
    monkeypatch.setenv("ZITTERKIT_PRECISION", "0")
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path)]) == 2
    assert "ZITTERKIT_PRECISION" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


DIVERGENT_RUNS = {
    # each single-state run takes the straight-line RK4 loop
    "free": lambda tmp_path: [str(short_free_scenario(tmp_path)), "--set", "integrator.dt=10",
                              "--set", "integrator.t_end=2000"],
    "general_n": lambda tmp_path: [scenario_path("general_n2.json"),
                                   "--set", f"output.path={tmp_path / 'out.csv'}",
                                   "--set", "integrator.dt=10",
                                   "--set", "integrator.t_end=1000"],
    "nonrel": lambda tmp_path: [scenario_path("nonrel_harmonic.json"),
                                "--set", f"output.path={tmp_path / 'out.csv'}",
                                "--set", "integrator.dt=10", "--set", "integrator.t_end=1000"],
}


@pytest.mark.parametrize("run", sorted(DIVERGENT_RUNS))
def test_divergent_scenario_exits_3(tmp_path, capsys, run):
    code = main(["run", *DIVERGENT_RUNS[run](tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    # the line names how many state entries went non-finite and the first
    assert re.search(r"\(last good time \S+; non-finite entries: [1-9]\d*, "
                     r"first at index \(\d+,\)\)$", err.strip())


def test_schema_command_prints_valid_json(capsys):
    assert main(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["title"] == SCENARIO_SCHEMA["title"]
    assert "initial_by_kind" in doc


def test_verify_command_all(capsys):
    assert main(["verify", "--suite", "dirac", "--seed", "7", "--points", "50"]) == 0
    out = capsys.readouterr().out
    assert "seed=7" in out
    assert "PASS" in out


def test_verify_breach_exits_1(capsys, monkeypatch):
    import zitterkit.cli as cli

    failing = cli.SuiteResult(name="brackets", ok=False,
                              lines=["  {H,x} position rate max 1.0e-02  FAIL at point 3"])
    monkeypatch.setattr(cli, "bracket_suite", lambda **kw: failing)
    assert main(["verify", "--suite", "brackets"]) == 1
    out = capsys.readouterr().out
    assert "FAIL at point 3" in out
    assert "verification result: FAIL" in out


def test_verify_all_cross_references_correspondence(capsys):
    assert main(["verify", "--suite", "all", "--seed", "3", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert "correspondence" in out
    assert "monitor suite" in out and "dirac suite" in out and "bracket suite" in out


def test_verify_scenario_kind(tmp_path, capsys):
    scn = {"kind": "verify", "verify": {"suite": "dirac", "seed": 3, "points": 10}}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 0
    assert "dirac suite" in capsys.readouterr().out


def test_bracket_suite_result():
    result = bracket_suite(seed=5, points=10)
    assert result.ok
    assert any("orientation=-1" in line for line in result.lines)


def test_bracket_suite_names_worst_point():
    # tol=0 fails every nonzero maximum; each FAIL names the argmax point
    seed, points = 4, 12
    result = bracket_suite(seed=seed, points=points, tol=0.0)
    rng = SplitMix64(seed)
    params = ModelParams(m=1.0)
    reports = []
    for _ in range(points):
        y = rng.uniforms(16, -1.0, 1.0)
        s = PhasePoint(*(FourVector.from_array(b) for b in y.reshape(4, 4)))
        reports.append(verify_appendix(params, s).as_dict())
    fails = 0
    for line in result.lines[1:]:
        label = line[2:38].rstrip()
        if "FAIL at point" in line:
            fails += 1
            idx = int(line.rsplit(" ", 1)[1])
            assert idx == int(np.argmax([r[label] for r in reports]))
    assert fails >= 3
    assert not result.ok


def test_dirac_suite_result():
    result = dirac_suite(seed=5, points=10, onshell_points=5)
    assert result.ok


def test_shipped_scenarios_validate():
    from zitterkit.cli import _validate_scenario

    for name in os.listdir(SCENARIO_DIR):
        scn = load_scenario(scenario_path(name))
        _validate_scenario(scn)


def test_every_schema_is_valid_in_the_dialect_it_is_validated_with():
    from jsonschema.validators import Draft7Validator, Draft202012Validator, validator_for

    from zitterkit.cli import _INITIAL_SCHEMAS, _validator

    assert type(_validator()) is validator_for(SCENARIO_SCHEMA) is Draft7Validator
    Draft7Validator.check_schema(SCENARIO_SCHEMA)
    for kind, schema in _INITIAL_SCHEMAS.items():
        assert type(_validator(kind)) is validator_for(schema) is Draft202012Validator
        Draft202012Validator.check_schema(schema)


def test_splitmix_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq_a = [a.next_u64() for _ in range(5)]
    seq_b = [b.next_u64() for _ in range(5)]
    assert seq_a == seq_b
    # reference vectors of the standard splitmix64 stream
    ref = SplitMix64(1234567)
    assert [ref.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert SplitMix64(0).next_u64() == 16294208416658607535
    vals = SplitMix64(9).uniforms(1000, -1, 1)
    assert vals.min() >= -1 and vals.max() <= 1
    assert abs(vals.mean()) < 0.1
