import hashlib
import json
import math
import os
import re
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zitterkit import cli, dynamics
from zitterkit.brackets import verify_appendix
from zitterkit.cli import (
    SCENARIO_SCHEMA,
    _run_free,
    _write_csv,
    _write_table,
    apply_override,
    bracket_suite,
    dirac_suite,
    load_scenario,
    main,
)
from zitterkit.dirac_check import verify_heisenberg, verify_onshell_zbw
from zitterkit.dynamics import IntegrationDiverged
from zitterkit.forks import fork_jobs, usable_cpus
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


def test_run_directory_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


def test_run_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"kind": "free", "note": "\u00e9"}'.encode("latin-1"))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"could not read scenario file {bad}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


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
    # 2B + 3 rows in blocks of B: two seams and a short last block
    scn = json.loads(path.read_text())
    scn["integrator"]["t_end"] = (2 * cli.FORMAT_ROWS + 2) * scn["integrator"]["dt"]
    path.write_text(json.dumps(scn))
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
                            "rows": [[float(v) for v in row] for row in table[:]]}) + "\n"
    assert (tmp_path / "out.json").read_text() == reference


@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_free_run_prints_and_tabulates_the_same_in_any_block(tmp_path, monkeypatch, block):
    # records, monitor and the closed-form oracle run in blocks of rows,
    # each row by the same expressions, so the summary (residual maxima and
    # oracle deviations) and the table of this 501-row run have the bits of
    # one block of all rows
    scn = json.loads(short_free_scenario(tmp_path).read_text())
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", 10**9)
    lines, (header, table) = _run_free(scn)
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", block)
    blocked_lines, (blocked_header, blocked_table) = _run_free(scn)
    assert (blocked_lines, blocked_header) == (lines, header)
    assert blocked_table[:].tobytes() == table[:].tobytes()
    assert any("max |x - exact|" in line for line in lines)


SPECIAL_ROW = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 2.0, 0.1]


def _format_table_reference(rows, prec):
    return [",".join("{:.{p}g}".format(v, p=prec) for v in row) for row in rows]


@pytest.mark.parametrize("prec", [1, 6, 17])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.lists(st.lists(st.floats(), min_size=len(SPECIAL_ROW),
                              max_size=len(SPECIAL_ROW)), max_size=8))
def test_csv_rows_match_per_value_format(tmp_path, prec, body):
    rows = np.array([SPECIAL_ROW] + body)
    header = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path / "table.csv"
    _write_table({"output": {"path": str(path), "precision": prec}}, header, rows)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(header)
    assert lines[1:] == _format_table_reference(rows, prec) + [""]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _folding_columns(n_rows):
    """Columns that the CSV writer folds in some blocks of B rows and not in
    others: the block index; zero in even blocks and the row in odd ones;
    NaN, inf, -inf and -0.0 a block in turn; and +0.0 with -0.0 on the
    first and the last row of each block, which only a fold by bits keeps."""
    B, index = cli.FORMAT_ROWS, np.arange(n_rows)
    block = index // B
    signed = np.zeros(n_rows)
    signed[(index % B == 0) | (index % B == B - 1)] = -0.0
    return np.column_stack([block * 1.0, np.where(block % 2, index * 0.1, 0.0),
                            np.array([math.nan, math.inf, -math.inf, -0.0])[block % 4],
                            signed])


@pytest.mark.parametrize("prec", [1, 6, 17])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 4, 4097, cli.FORMAT_ROWS - 1,
                                    cli.FORMAT_ROWS, cli.FORMAT_ROWS + 1,
                                    2 * cli.FORMAT_ROWS + 3])
def test_split_csv_is_the_same_bytes_on_any_part_count(tmp_path, prec, n_rows):
    rng = np.random.default_rng(n_rows)
    rows = (rng.standard_normal((n_rows, len(SPECIAL_ROW)))
            * np.logspace(-300, 300, len(SPECIAL_ROW)))
    rows[::7] = SPECIAL_ROW
    rows = np.column_stack([rows, _folding_columns(n_rows)])
    header = [f"c{i}" for i in range(rows.shape[1])]
    expected = ",".join(header) + "\n" + "".join(
        line + "\n" for line in _format_table_reference(rows, prec))
    # the writer reads a run's table through its view of the run's columns
    table = dynamics.TableRows((rows[:, 0], rows[:, 1:]))
    for parts in (1, 2, 3, 5):
        path = tmp_path / f"table{parts}.csv"
        _write_csv(str(path), header, table, prec, parts)
        assert path.read_text(encoding="utf-8") == expected, parts
        _assert_no_child_left()


@pytest.mark.parametrize("failing, error", [("child", OSError), ("parent", RuntimeError)])
def test_split_csv_failure_leaves_no_child_and_no_part(tmp_path, monkeypatch, parts,
                                                       failing, error):
    # the formatter raises ``error`` in the ``failing`` process: a slice
    # whose child failed is formatted again here, and an error here raises
    parent, format_rows = os.getpid(), cli._format_rows

    def broken(fh, fmt, rows, lo, hi):
        if (os.getpid() == parent) == (failing == "parent"):
            raise error("formatter failed")
        format_rows(fh, fmt, rows, lo, hi)

    rows = np.arange(3000.0 * 4).reshape(3000, 4)
    path, one_part = tmp_path / "table.csv", tmp_path / "one-part.csv"
    _write_csv(str(one_part), ["a", "b", "c", "d"], rows, 17, 1)
    monkeypatch.setattr(cli, "_format_rows", broken)
    if failing == "child":
        _write_csv(str(path), ["a", "b", "c", "d"], rows, 17, 3)
        assert path.read_bytes() == one_part.read_bytes()
    else:
        with pytest.raises(error, match="formatter failed"):
            _write_csv(str(path), ["a", "b", "c", "d"], rows, 17, 3)
    _assert_no_child_left()
    assert len(parts) == 2 and all(part.closed for part in parts)


@pytest.mark.parametrize("name", ["free_cmf", "free_boosted", "superluminal", "general_n2",
                                  "nonrel_gaussian_barrier", "nonrel_circle",
                                  "nonrel_harmonic"])
def test_shipped_scenario_csv_matches_recorded_digest(tmp_path, name):
    with open(os.path.join(SCENARIO_DIR, "..", "perfbench", "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)[name]["sha256_seed0"]
    out = tmp_path / f"{name}.csv"
    assert main(["run", scenario_path(f"{name}.json"),
                 "--set", f"output.path={out}"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_precision_env_override(tmp_path):
    # output.precision set from the command line
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path), "--set", "output.precision=6"]) == 0
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


def test_a_strided_run_with_4_uniform_samples_skips_the_monitor(tmp_path, capsys):
    # samples at steps 0, 2, 4, 6 and the last, 7: only the first 4 are uniform
    out = tmp_path / "short.csv"
    assert main(["run", scenario_path("free_cmf.json"), "--set", "integrator.t_end=0.007",
                 "--set", "integrator.dt=0.001", "--set", "integrator.stride=2",
                 "--set", f"output.path={out}"]) == 0
    assert "residual maxima" not in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 6  # header + 5 samples


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
    "nonrel": {"zero": {}, "uniform": {"force": [0.1, 0, 0]}, "harmonic": {"k": 1.0},
               "gaussian": {"height": 0.5, "width": 0.3},
               "step": {"height": 0.5, "width": 0.3}},
    "hamilton": {"zero": {}, "linear": {"b": [0, 0.01, 0, 0]}, "harmonic": {"k": 0.05}},
}
POTENTIAL_TYPES = [(kind, ptype) for kind, types in POTENTIAL_PARAMETERS.items()
                   for ptype in types]
MISSING_PARAMETERS = [(kind, ptype, field) for kind, types in POTENTIAL_PARAMETERS.items()
                      for ptype, fields in types.items() for field in fields]


@pytest.mark.parametrize("kind, ptype", POTENTIAL_TYPES,
                         ids=["-".join(case) for case in POTENTIAL_TYPES])
def test_every_potential_type_runs_from_the_cli(tmp_path, capsys, kind, ptype):
    from zitterkit.cli import _INITIAL_SCHEMAS

    assert set(POTENTIAL_TYPES) == {
        (k, t) for k, schema in _INITIAL_SCHEMAS.items()
        if "potential" in schema["properties"]
        for t in schema["properties"]["potential"]["properties"]["type"]["enum"]}
    spec = {"type": ptype, **POTENTIAL_PARAMETERS[kind][ptype]}
    if kind == "nonrel":
        initial = {"x": [1, 0, 0], "v": [0, 0.1, 0]}
    else:
        initial = {"x": [0, 0, 0, 0], "p": [1, 0, 0, 0], "q": [1, 0.1, 0, 0],
                   "pi": [0, 0, -0.05, 0]}
    scn = {"kind": kind, "model": {"mass": 1.0},
           "initial": {**initial, "potential": spec},
           "integrator": {"dt": 0.001, "t_end": 0.01}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 0
    label = "none" if (kind, ptype) == ("hamilton", "zero") else ptype
    out = capsys.readouterr().out
    assert f" potential={label} samples=11" in out.splitlines()[0]


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
def test_precision_env_out_of_range_exits_2(tmp_path, capsys, precision):
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path), "--set", f"output.precision={precision}"]) == 2
    assert "output/precision" in capsys.readouterr().err
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


@pytest.mark.parametrize("kind", ["free", "hamilton"])
def test_a_grid_numpy_cannot_allocate_exits_2(tmp_path, capsys, kind):
    # 10^15 steps: a grid of 7.11 PiB, more than the 128 TiB of address space a
    # process gets by default, so numpy refuses it at once under any overcommit policy
    path = short_free_scenario(tmp_path)
    scn = json.loads(path.read_text())
    if kind == "hamilton":
        scn.update(kind="hamilton", initial={"x": [0, 0, 0, 0], "p": [1, 0, 0, 0],
                                             "q": [1, 0.1, 0, 0], "pi": [0, 0, -0.05, 0],
                                             "potential": {"type": "harmonic", "k": 0.05}})
    scn["integrator"].update(t_end=1e15, dt=1.0)
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the grid of 1000000000000001 samples ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def _run_must_not_integrate(monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda scn: pytest.fail("the run was started"))


@pytest.mark.parametrize("setting", ["model.mass", "integrator.t_end", "initial.potential.k"])
def test_an_integer_too_large_for_a_float_exits_2(monkeypatch, capsys, setting):
    # the schema takes any int as a number; float() of this one overflows
    _run_must_not_integrate(monkeypatch)
    huge = "1" + "0" * 400
    assert main(["run", scenario_path("nonrel_harmonic.json"), "--set", f"{setting}={huge}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: scenario field {setting.replace('.', '/')}: an integer of 401 digits "
                   "is too large for a float\n")


def test_output_into_a_missing_directory_exits_2(tmp_path, monkeypatch, capsys):
    _run_must_not_integrate(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    assert main(["run", scenario_path("superluminal.json"),
                 "--set", f"output.path={out}"]) == 2
    err = capsys.readouterr().err
    assert f"scenario field output/path: {out}: directory {out.parent} does not exist" in err
    assert "Traceback" not in err
    assert not out.parent.exists()


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root may write into a read-only directory")
def test_output_into_a_read_only_directory_exits_2(tmp_path, monkeypatch, capsys):
    _run_must_not_integrate(monkeypatch)
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    try:
        out = locked / "x.csv"
        assert main(["run", scenario_path("superluminal.json"),
                     "--set", f"output.path={out}"]) == 2
        err = capsys.readouterr().err
        assert f"scenario field output/path: {out}: directory {locked} is not writable" in err
        assert "Traceback" not in err
        assert list(locked.iterdir()) == []
    finally:
        locked.chmod(0o700)


def test_an_empty_output_path_exits_2_before_the_run(monkeypatch, capsys):
    _run_must_not_integrate(monkeypatch)
    assert main(["run", scenario_path("nonrel_circle.json"), "--set", "output.path="]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: scenario field output/path: an empty path names no file\n"


NON_FINITE_PARAMETERS = [
    ("nonrel", "gaussian", "height=NaN", "height must be finite, got nan"),
    ("nonrel", "gaussian", "width=NaN", "width must be positive and finite, got nan"),
    ("nonrel", "gaussian", "width=Infinity", "width must be positive and finite, got inf"),
    ("nonrel", "uniform", "force=[0, Infinity, 0]", "force must be finite, got [0.0, inf, 0.0]"),
    ("nonrel", "harmonic", "k=NaN", "k must be finite, got nan"),
    ("nonrel", "step", "height=NaN", "height must be finite, got nan"),
    ("nonrel", "step", "width=Infinity", "width must be positive and finite, got inf"),
    ("hamilton", "linear", "b=[0, NaN, 0, 0]", "b must be finite, got [0.0, nan, 0.0, 0.0]"),
    ("hamilton", "harmonic", "k=Infinity", "k must be finite, got inf"),
]


@pytest.mark.parametrize("kind, ptype, setting, message", NON_FINITE_PARAMETERS,
                         ids=["-".join(case[:3]) for case in NON_FINITE_PARAMETERS])
def test_a_non_finite_potential_parameter_exits_2(tmp_path, capsys, kind, ptype, setting,
                                                  message):
    # the schema lets NaN and Infinity through; the potential's constructor
    # rejects them before the first step
    initial = ({"x": [1, 0, 0], "v": [0, 0.1, 0]} if kind == "nonrel" else
               {"x": [0, 0, 0, 0], "p": [1, 0, 0, 0], "q": [1, 0.1, 0, 0], "pi": [0, 0, -0.05, 0]})
    spec = {"type": ptype, **POTENTIAL_PARAMETERS[kind][ptype]}
    scn = {"kind": kind, "model": {"mass": 1.0}, "initial": {**initial, "potential": spec},
           "integrator": {"dt": 0.001, "t_end": 0.01},
           "output": {"path": str(tmp_path / "out.csv")}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--set", f"initial.potential.{setting}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ptype} potential: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("scenario, settings, message", [
    ("general_n2.json", ["initial.stack=[]"], "initial/stack: [] should be non-empty"),
    ("nonrel_circle.json", ["initial.x=[0, 0, 0, 0]"], "initial/x: [0, 0, 0, 0] is too long"),
    ("nonrel_circle.json", ["output.format=xml"],
     "output/format: 'xml' is not one of ['csv', 'json']"),
    ("nonrel_circle.json", ["integrator.dt=fast"],
     "integrator/dt: 'fast' is not of type 'number'"),
    ("nonrel_circle.json", ["model.zeta=1", "model.alpha=2"],
     "model: Additional properties are not allowed ('alpha', 'zeta' were unexpected)"),
    ("nonrel_circle.json", ["extra=1"],
     "(top level): Additional properties are not allowed ('extra' was unexpected)"),
    ("nonrel_circle.json", ["integrator.dt=0"],
     "integrator/dt: 0 is less than or equal to the minimum of 0"),
], ids=["non-empty", "too-long", "not-one-of", "not-of-type", "unexpected-names", "top-level",
        "exclusive-minimum"])
def test_each_message_rule_is_worded_exactly(monkeypatch, capsys, scenario, settings, message):
    _run_must_not_integrate(monkeypatch)
    argv = ["run", scenario_path(scenario)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: scenario field {message}\n"


def test_overflowing_step_count_exits_2(capsys, tmp_path):
    # t_end and dt are each finite, but their quotient is not
    assert main(["run", scenario_path("free_cmf.json"),
                 "--set", "integrator.t_end=1e300", "--set", "integrator.dt=1e-300",
                 "--set", f"output.path={tmp_path / 'out.csv'}"]) == 2
    err = capsys.readouterr().err
    assert "error: t_end/dt must be finite, got t_end=1e+300 and dt=1e-300" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_to_a_full_device_exits_4(capsys):
    assert main(["run", scenario_path("superluminal.json"),
                 "--set", "output.path=/dev/full"]) == 4
    err = capsys.readouterr().err
    assert err == "error: could not write /dev/full: No space left on device\n"


def test_failed_formatting_process_writes_the_one_part_bytes(tmp_path, monkeypatch, capsys):
    scenario = str(short_free_scenario(tmp_path))
    one_part = tmp_path / "one-part.csv"
    monkeypatch.setattr(cli, "_csv_parts", lambda n_rows: 1)
    assert main(["run", scenario, "--set", f"output.path={one_part}"]) == 0
    expected = capsys.readouterr().out
    parent, format_rows = os.getpid(), cli._format_rows

    def broken(fh, fmt, rows, lo, hi):
        if os.getpid() != parent:
            os._exit(1)
        format_rows(fh, fmt, rows, lo, hi)

    monkeypatch.setattr(cli, "_format_rows", broken)
    monkeypatch.setattr(cli, "_csv_parts", lambda n_rows: 2)
    out = tmp_path / "out.csv"
    assert main(["run", scenario, "--set", f"output.path={out}"]) == 0
    assert capsys.readouterr() == (expected.replace(str(one_part), str(out)), "")
    assert out.read_bytes() == one_part.read_bytes()
    _assert_no_child_left()


def test_precision_env_is_rejected_before_integrating(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("integration started with an invalid precision")

    monkeypatch.setattr(dynamics, "rk4_path", refuse)
    path = short_free_scenario(tmp_path)
    assert main(["run", str(path), "--set", "output.precision=0"]) == 2
    assert "output/precision" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_a_steep_step_runs_without_a_warning(tmp_path, capsys):
    # exp(-x / 0.001) overflows at x = -1, where the step's U and dU/dx are 0
    scn = {"kind": "nonrel", "model": {"mass": 1},
           "initial": {"x": [-1, 0, 0], "v": [0.1, 0, 0],
                       "potential": {"type": "step", "height": 0.1, "width": 0.001}},
           "integrator": {"dt": 0.001, "t_end": 1, "stride": 100}}
    path = tmp_path / "step.json"
    path.write_text(json.dumps(scn))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == ""


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


def test_schema_command_output_is_pinned(capsys):
    assert main(["schema"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "b29d52e267f96d7ce85e635220f6c2f784989c59f2651f88110a72ed71ac4dbe"


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


def verify_on(cpus, argv, capfd):
    """``main(argv)`` run as if this process may run on ``cpus`` CPUs: its
    exit code, stdout and stderr, and how many children it and its
    descendants forked.  A forked child may run on as many, so it forks no
    further only because ``usable_cpus`` reads 1 there."""
    fork = os.fork
    handle, log = tempfile.mkstemp()
    os.close(handle)

    def counted_fork():
        pid = fork()
        if pid:  # appended by whichever process forked, children included
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{pid}\n")
        return pid

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            patch.setattr(os, "fork", counted_fork)
            code = main(argv)
        with open(log, encoding="utf-8") as fh:
            forks = len(fh.read().split())
    finally:
        os.remove(log)
    out, err = capfd.readouterr()
    return code, out, err, forks


@pytest.mark.parametrize("seed", [1, 20250810, 20250813])
@pytest.mark.parametrize("points", [5, 100])
def test_verify_all_prints_the_same_on_one_cpu_as_on_two(capfd, seed, points):
    # on two CPUs the monitor suite runs in a child; capfd would also catch
    # anything the child wrote to the inherited stdout or stderr
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--points", str(points)]
    one, two = verify_on(1, argv, capfd), verify_on(2, argv, capfd)
    assert one[:3] == two[:3] and one[0] == 0 and one[2] == ""
    assert (one[3], two[3]) == (0, 1)


@pytest.mark.parametrize("suite", ["brackets", "dirac", "monitors"])
def test_verify_of_one_suite_runs_in_process(capfd, suite):
    # a suite alone runs in this process; the monitor suite's 31,416-step
    # free run is long enough that rk4_path splits its state, one fork
    code, out, _, forks = verify_on(2, ["verify", "--suite", suite, "--points", "5"], capfd)
    assert (code, forks) == (0, 1 if suite == "monitors" else 0)
    assert "verification result: PASS" in out


def test_a_forked_child_sees_one_usable_cpu_and_its_parent_its_own(monkeypatch):
    # so the monitor suite's child of `verify --suite all` forks no further;
    # a job whose child fails runs again here, with this process's count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    parent = os.getpid()

    def report(part):
        part.write(str(usable_cpus()))

    def dies_in_a_child(part):
        if os.getpid() != parent:
            os._exit(3)
        report(part)

    values = fork_jobs([usable_cpus, report, dies_in_a_child], lambda k, part: int(part.read()))
    assert values == [3, 1, 3] and usable_cpus() == 3
    _assert_no_child_left()


def test_verify_failing_monitor_suite_in_the_child_exits_1(monkeypatch, capfd):
    monkeypatch.setattr(cli, "monitor_suite", lambda: cli.SuiteResult(
        name="monitors", ok=False, lines=[f"  monitor residual FAIL in process {os.getpid()}"]))
    code, out, _, forks = verify_on(2, ["verify", "--points", "5"], capfd)
    assert (code, forks) == (1, 1)
    fail = [line for line in out.splitlines() if "monitor residual FAIL" in line]
    assert len(fail) == 1 and not fail[0].endswith(f" {os.getpid()}")
    assert out.endswith("verification result: FAIL\n")


@pytest.mark.parametrize("error, code", [
    (ValueError("monitor run rejected"), 2),
    (IntegrationDiverged("monitor run diverged", last_time=0.25, nonfinite=((3,), (5,))), 3),
], ids=["ValueError", "IntegrationDiverged"])
def test_verify_error_in_the_child_exits_as_in_one_process(monkeypatch, capfd, error, code):
    def raising():
        raise error

    monkeypatch.setattr(cli, "monitor_suite", raising)
    argv = ["verify", "--points", "5"]
    one, two = verify_on(1, argv, capfd), verify_on(2, argv, capfd)
    assert one[:3] == two[:3] and (two[0], two[3]) == (code, 1)
    assert one[1] == "" and one[2].startswith("error: ") and one[2].count("\n") == 1


def test_verify_child_that_dies_gives_the_one_cpu_report(monkeypatch, capfd):
    parent, monitor_suite = os.getpid(), cli.monitor_suite
    monkeypatch.setattr(cli, "monitor_suite",
                        lambda: monitor_suite() if os.getpid() == parent else os._exit(7))
    argv = ["verify", "--points", "5"]
    one, two = verify_on(1, argv, capfd), verify_on(2, argv, capfd)
    assert one[:3] == two[:3] and one[0] == 0 and one[2] == ""
    _assert_no_child_left()


def test_verify_without_fork_gives_the_one_cpu_report(monkeypatch, capfd):
    argv = ["verify", "--points", "5"]
    one = verify_on(1, argv, capfd)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert verify_on(2, argv, capfd)[:3] == one[:3] and one[0] == 0


def test_run_without_fork_writes_the_recorded_digest(tmp_path, monkeypatch, capsys):
    with open(os.path.join(SCENARIO_DIR, "..", "perfbench", "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)["free_cmf"]["sha256_seed0"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _no_fork)
    out = tmp_path / "free_cmf.csv"
    assert main(["run", scenario_path("free_cmf.json"), "--set", f"output.path={out}"]) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_verify_failure_in_the_parent_leaves_no_child_and_no_part(monkeypatch, parts, error):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "monitor_suite", lambda: time.sleep(60))

    def broken(**kwargs):
        raise error("bracket suite failed")

    monkeypatch.setattr(cli, "bracket_suite", broken)
    start = time.monotonic()
    with pytest.raises(error):
        main(["verify", "--points", "5"])
    assert time.monotonic() - start < 30  # the sleeping child was killed, not awaited
    _assert_no_child_left()
    assert len(parts) == 1 and parts[0].closed


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


@pytest.mark.parametrize("edit, message", [
    (lambda scn: scn.pop("initial"), "initial: 'p' is a required property"),
    (lambda scn: scn["initial"].update(cos_amp=[0.0, 0.1, 0.0]),
     "initial/cos_amp: [0.0, 0.1, 0.0] is too short"),
], ids=["missing", "short"])
def test_initial_section_error_names_its_field(tmp_path, capsys, edit, message):
    path = short_free_scenario(tmp_path)
    scn = json.loads(path.read_text())
    edit(scn)
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: scenario field {message}\n"


@pytest.mark.parametrize("section", ["model", "integrator"])
def test_a_run_without_a_model_or_integrator_exits_2(tmp_path, monkeypatch, capsys, section):
    _run_must_not_integrate(monkeypatch)
    scn = {"kind": "nonrel", "model": {"mass": 1.0},
           "initial": {"x": [0.0, 0.0, 0.0], "v": [0.1, 0.0, 0.0]},
           "integrator": {"dt": 0.01, "t_end": 0.1}}
    del scn[section]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: scenario kind 'nonrel' requires the '{section}' section\n"


@pytest.mark.parametrize("suite", ["brackets", "dirac"])
@pytest.mark.parametrize("points", [0, -3])
def test_verify_with_no_points_exits_2(capsys, suite, points):
    assert main(["verify", "--suite", suite, f"--points={points}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: scenario field verify/points: {points} is less than the minimum of 1\n"


@pytest.mark.parametrize("seed, message", [
    (2**64, "18446744073709551616 is greater than the maximum of 18446744073709551615"),
    (-1, "-1 is less than the minimum of 0"),
])
def test_verify_with_a_seed_outside_64_bits_exits_2(capsys, seed, message):
    # SplitMix64 keeps 64 bits of its seed, so 2^64 would draw the stream of 0
    assert main(["verify", "--suite", "brackets", "--points=2", f"--seed={seed}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: scenario field verify/seed: {message}\n"


def test_verify_runs_at_the_largest_seed(capsys):
    assert main(["verify", "--suite", "brackets", "--points=2", f"--seed={2**64 - 1}"]) == 0
    assert "seed=18446744073709551615" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("integrator.stride", 3), ("output.precision", 17), ("output.precision", 6),
    ("model.n", 1), ("verify.points", 3), ("verify.seed", 5),
])
def test_an_integral_float_runs_as_its_int(tmp_path, capsys, field, value):
    # JSON Schema counts 3.0 as an integer, so the run must read it as 3
    if field.startswith("verify."):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"kind": "verify",
                                    "verify": {"suite": "brackets", "seed": 1, "points": 2}}))
    else:
        path = short_free_scenario(tmp_path)
    written = []
    for spelling in (f"{value}", f"{value:.1f}"):
        assert main(["run", str(path), "--set", f"{field}={spelling}"]) == 0
        csv = tmp_path / "out.csv"
        written.append((capsys.readouterr(), csv.read_bytes() if csv.exists() else None))
        csv.unlink(missing_ok=True)
    assert written[0] == written[1]


_MONITOR_LINES = (
    "    momentum drift                 # (tol #) ok",
    "    energy rel drift               # (tol #) ok",
    "    p.v constraint                 # (tol #) ok",
    "    on-shell constraint            # (tol #) ok",
    "    velocity-equation residual     # (tol #) ok",
    "    dual-form residual             # (tol #) ok",
    "    spin-momentum identity         # (tol #) ok",
    "    spin vector drift              # (tol #) ok",
)

VERIFY_LAYOUT = (
    "verification suites (seed=#):",
    "bracket suite: seed=# points=# h=# orientation=-# tol=#",
    "  {H,p} momentum conservation          max #  ok",
    "  {H,x} position rate                  max #  ok",
    "  {H,q} velocity rate                  max #  ok",
    "  {H,pi} first-order momentum rate     max #  ok",
    "  {H,S} spin-tensor rate               max #  ok",
    "dirac suite: seed=# points=# onshell=#",
    "  anticommutation relations            max #  ok",
    "  (a) momentum rate                    max #  ok",
    "  (b) spin-operator rate               max #  ok",
    "  (c) acceleration operator            max #  ok",
    "  (d) acceleration rate                max #  ok",
    "  projector consistency                max #  ok",
    "  acceleration rate on subspace        max #  ok",
    "  velocity equation on subspace        max #  ok",
    "monitor suite: standard (cmf) and Newtonian free runs",
    "  standard run (# steps):",
    *_MONITOR_LINES,
    "  Newtonian run (no oscillation):",
    *_MONITOR_LINES,
    "correspondence: the classical monitors and the operator checks validate the same "
    "three evolution equations (momentum conservation, spin-tensor rate, velocity "
    "equation) on the same model (m=#, physical k#)",
    "verification result: PASS",
)


def test_verify_report_layout_is_pinned(capsys):
    # the labels are printed output that perfbench parses: pin their text,
    # order and indentation, with every number masked
    assert main(["verify", "--suite", "all", "--seed", "1", "--points", "5"]) == 0
    out = capsys.readouterr().out
    masked = tuple(re.sub(r"\d+(\.\d+)?(e[-+]\d+)?", "#", line) for line in out.splitlines())
    assert masked == VERIFY_LAYOUT


def test_residual_reports_list_their_labels_in_order():
    p = FourVector(math.sqrt(1.25), 0.5, 0.0, 0.0)
    sol = dynamics.make_free_solution(ModelParams(m=1.0), p, FourVector(0, 0, 0.1, 0),
                                      FourVector(0, 0, 0, 0.1))
    traj = dynamics.integrate_hamilton(sol.initial_phase_point(), sol.params, None, 0.1, 1e-2)
    state = PhasePoint.from_array(SplitMix64(2).uniforms(16, -1.0, 1.0))
    reports = [
        (dynamics.monitor(traj), (
            "momentum drift", "energy rel drift", "p.v constraint", "on-shell constraint",
            "velocity-equation residual", "dual-form residual", "spin-momentum identity",
            "spin vector drift")),
        (verify_appendix(ModelParams(m=1.0), state), (
            "{H,p} momentum conservation", "{H,x} position rate", "{H,q} velocity rate",
            "{H,pi} first-order momentum rate", "{H,S} spin-tensor rate")),
        (verify_heisenberg(FourVector(0.3, -0.7, 0.2, 0.9), 1.3), (
            "(a) momentum rate", "(b) spin-operator rate", "(c) acceleration operator",
            "(d) acceleration rate")),
        (verify_onshell_zbw(p, 1.0), (
            "projector consistency", "acceleration rate on subspace",
            "velocity equation on subspace")),
    ]
    for report, labels in reports:
        residuals = report.as_dict()
        assert tuple(residuals) == labels
        assert report.max_residual == max(residuals.values())


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

    from zitterkit.cli import _INITIAL_SCHEMAS

    assert validator_for(SCENARIO_SCHEMA) is Draft7Validator
    Draft7Validator.check_schema(SCENARIO_SCHEMA)
    for schema in _INITIAL_SCHEMAS.values():
        assert validator_for(schema) is Draft202012Validator
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
