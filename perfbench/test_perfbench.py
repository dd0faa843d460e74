"""Checks on the benchmark's own pieces: input generation, tracing, output checks."""

import json
from collections import Counter

import pytest

import inputs
import passes
import spans


@pytest.mark.parametrize("name", [n for names in inputs.WORKLOADS.values() for n in names])
def test_seed_zero_reproduces_the_shipped_scenario(name):
    shipped = (inputs.SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert inputs.render(name, 0) == shipped


@pytest.mark.parametrize("seed", [1, 2, 7, 12345])
def test_rotation_is_proper_and_keeps_free_invariants(seed):
    rot = inputs.rotation(seed, "free_boosted")
    for i in range(3):
        for j in range(3):
            dot = sum(rot[i][k] * rot[j][k] for k in range(3))
            assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)
    det = (rot[0][0] * (rot[1][1] * rot[2][2] - rot[1][2] * rot[2][1])
           - rot[0][1] * (rot[1][0] * rot[2][2] - rot[1][2] * rot[2][0])
           + rot[0][2] * (rot[1][0] * rot[2][1] - rot[1][1] * rot[2][0]))
    assert det == pytest.approx(1.0, abs=1e-14)

    for name in ("free_cmf", "free_boosted", "superluminal"):
        before = json.loads(inputs.render(name, 0))["initial"]
        after = json.loads(inputs.render(name, seed))["initial"]
        for other in ("p", "cos_amp", "sin_amp"):
            assert inputs.minkowski_dot(after["p"], after[other]) == pytest.approx(
                inputs.minkowski_dot(before["p"], before[other]), abs=1e-12)


def test_rotation_tampering_is_caught():
    before = {"p": [1.0, 0.0, 0.0, 0.0], "cos_amp": [0.0, 0.1, 0.0, 0.0],
              "sin_amp": [0.0, 0.0, 0.1, 0.0]}
    after = dict(before, cos_amp=[0.01, 0.1, 0.0, 0.0])
    with pytest.raises(RuntimeError, match="cos_amp"):
        inputs.check_free_invariants(before, after)


def test_generation_depends_only_on_the_seed():
    assert inputs.render("nonrel_circle", 3) == inputs.render("nonrel_circle", 3)
    assert inputs.render("nonrel_circle", 3) != inputs.render("nonrel_circle", 4)
    assert json.loads(inputs.render("verify_all", 5))["verify"]["seed"] == \
        inputs.VERIFY_BASE_SEED + 5


def test_self_time_subtracts_children():
    trace = [
        ["pass", 0.0, 10.0, None, 0],
        ["cli.main", 1.0, 9.0, 0, 0],
        ["dynamics.integrate", 2.0, 8.0, 1, 0],
        ["dynamics.rk4", 3.0, 6.0, 2, 0],
        ["cli.write", 8.5, 9.0, 1, 0],
    ]
    assert spans.self_times(trace) == [2.0, 1.5, 3.0, 3.0, 0.5]
    layers = spans.layer_metrics(trace, Counter({"dynamics.rk4_steps": 1000}))
    assert layers["trace.wall_s"] == 10.0
    assert layers["dynamics.us_per_step"] == pytest.approx(3000.0)
    self_total = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.wall_s")
    assert self_total == pytest.approx(layers["trace.wall_s"])


def test_tracer_restores_every_attribute():
    import zitterkit.cli as cli
    from zitterkit import minkowski, nonrel

    originals = (cli.main, nonrel.rk4_path, nonrel.Potential3D.gradient,
                 minkowski.FourVector.__init__)
    tracer = spans.Tracer(run_id=0)
    tracer.install(cli)
    try:
        assert cli.main is not originals[0]
        minkowski.FourVector(1.0, 0.0, 0.0, 0.0)
        assert tracer.counts["minkowski.fourvectors"] == 1
    finally:
        tracer.uninstall()
    assert (cli.main, nonrel.rk4_path, nonrel.Potential3D.gradient,
            minkowski.FourVector.__init__) == originals


def test_checks_reject_wrong_outputs(tmp_path):
    op = inputs.Operation("nonrel_circle", "nonrel", (), tmp_path / "in.json",
                          tmp_path / "out.csv", 10)
    expected = passes.EXPECTED["nonrel_circle"]
    op.output_path.write_text(expected["header"] + "\n" + "0\n" * expected["rows"])
    summary = ("  total energy rel drift  3.469e-16\n  work-energy residual    0.000e+00\n"
               "barrier intervals (U > E_total with v^2 > 0):\n  [0, 3.1416] ...\n")
    assert passes.check(op, 1, 0, summary) == []
    assert passes.check(op, 1, 2, summary) == ["exit code 2"]
    assert passes.check(op, 0, 0, summary) == ["CSV differs from the recorded seed-0 digest"]
    drifted = passes.check(op, 1, 0, summary.replace("3.469e-16", "2e-7"))
    assert drifted == ["total energy rel drift = 2.000e-07 exceeds 1e-08"]
    assert passes.check(op, 1, 0, summary.replace("  [0, 3.1416] ...\n", "")) == [
        "0 barrier intervals, expected 1"]
    op.output_path.write_text(expected["header"] + "\n")
    assert passes.check(op, 1, 0, summary) == [f"0 CSV rows, expected {expected['rows']}"]


def test_clock_leaves_its_samples_out(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "INTERVAL_S", 0.01)
    with speed.Clock() as clock:
        deadline = speed.time.perf_counter() + 0.2
        while speed.time.perf_counter() < deadline:
            pass
    assert len(clock.loops) > 3
    assert clock.raw_s == pytest.approx(0.2 - clock.paused, abs=0.02)
    mean_loop = sum(clock.loops) / len(clock.loops)
    assert clock.scaled_s == pytest.approx(clock.raw_s * speed.REFERENCE_S / mean_loop)
    with speed.Clock(sample=False) as quiet:
        pass
    assert len(quiet.loops) == 2 and quiet.paused == 0.0
