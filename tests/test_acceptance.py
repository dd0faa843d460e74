"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them).
"""

import json
import math

import numpy as np
import pytest

from zitterkit.cli import bracket_suite, dirac_suite, main
from zitterkit.dynamics import (
    check_superluminal,
    estimate_frequency,
    integrate_free_general_n,
    integrate_hamilton,
    make_free_solution,
    mean_time_dilation,
    monitor,
)
from zitterkit.lagrangian import ModelParams, characteristic_frequencies
from zitterkit.minkowski import FourVector
from zitterkit.nonrel import (
    KinState3D,
    Potential3D,
    barrier_report,
    integrate_newtonian,
    integrate_nr,
    work_integral,
)

PARAMS = ModelParams(m=1.0)
TAU_END = 10.0 * math.pi


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def standard_solution(m: float = 1.0):
    params = ModelParams(m=m)
    return params, make_free_solution(
        params, FourVector(m, 0, 0, 0), FourVector(0, 0.1, 0, 0),
        FourVector(0, 0, 0.1, 0))


@pytest.fixture(scope="module")
def standard_run():
    params, sol = standard_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), params, None,
                              TAU_END, 1e-3)
    return sol, traj


def test_c01_analytic_oracle_agreement(standard_run):
    sol, traj = standard_run
    x_ref, v_ref, _ = sol.sample(traj.times)
    err = max(np.abs(traj["x"] - x_ref).max(), np.abs(traj["v"] - v_ref).max())

    errors = [err]
    dts = [1e-3, 5e-4, 2.5e-4]
    for dt in dts[1:]:
        t = integrate_hamilton(sol.initial_phase_point(), sol.params, None,
                               TAU_END, dt, stride=8)
        xr, vr, _ = sol.sample(t.times)
        errors.append(max(np.abs(t["x"] - xr).max(), np.abs(t["v"] - vr).max()))
    order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    ok = err <= 1e-6 and order >= 3.5
    report(1, "analytic-oracle agreement", ok,
           f"max err {err:.3e} (tol 1e-6), convergence order {order:.2f} (>= 3.5)")


def test_c02_conservation(standard_run):
    _, traj = standard_run
    rep = monitor(traj)
    steps = len(traj) - 1
    p_tol = 1e-12 * steps / 1e4
    energy = traj["H"]
    h_err = np.abs(energy - 0.51).max()
    ok = (rep.momentum_drift <= p_tol and h_err <= 1e-8
          and rep.spin_drift <= 1e-8 and rep.pv_constraint <= 1e-8
          and rep.onshell_constraint <= 1e-8)
    report(2, "conservation", ok,
           f"p drift {rep.momentum_drift:.1e} (tol {p_tol:.1e}), |H-0.51| {h_err:.1e}, "
           f"spin drift {rep.spin_drift:.1e}, p.v {rep.pv_constraint:.1e}, "
           f"p^2 {rep.onshell_constraint:.1e} (tol 1e-8)")


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_c03_compton_frequency(mass):
    params, sol = standard_solution(mass)
    expected = 2.0 * mass * params.c**2 / params.hbar
    periods = 5
    traj = integrate_hamilton(sol.initial_phase_point(), params, None,
                              periods * 2 * math.pi / expected, 2e-3)
    measured = estimate_frequency(traj.times, traj["v"][:, 1])
    rel = abs(measured - expected) / expected
    report(3, f"Compton frequency (m={mass})", rel <= 1e-4,
           f"measured {measured:.8g}, expected {expected:g}, rel err {rel:.2e}")


def test_c04_mean_time_dilation():
    root2 = math.sqrt(2.0)
    sol = make_free_solution(
        PARAMS, FourVector(root2, 1, 0, 0), FourVector(0, 0, 0.1, 0),
        FourVector(0.1, 0.1 * root2, 0, 0))
    mean_v0, lorentz = mean_time_dilation(sol)
    _, v, _ = sol.sample(np.linspace(0, 2 * math.pi / sol.omega, 2049))
    spread = v[:, 0].max() - v[:, 0].min()
    ok = abs(mean_v0 - root2) <= 1e-6 and lorentz == pytest.approx(root2) and spread >= 0.19
    report(4, "mean time dilation", ok,
           f"period mean v0 {mean_v0:.9f} vs {root2:.9f}, pointwise spread {spread:.3f}")


def test_c05_spin_momentum_identity(standard_run):
    _, traj = standard_run
    rep = monitor(traj)
    ok = rep.spin_momentum_residual <= 1e-8
    report(5, "spin-momentum identity", ok,
           f"max |S.p - a/4| = {rep.spin_momentum_residual:.3e} (tol 1e-8)")


def test_c06_work_energy_theorem():
    runs = {
        "harmonic": (
            KinState3D(t=0, x=[1, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0]),
            Potential3D.harmonic(1.0),
        ),
        "gaussian": (
            KinState3D(t=0, x=[-3, 0, 0], v=[0.35, 0, 0], a=[0, 0, 0],
                       j=[-0.6, 0, 0]),
            Potential3D.gaussian_barrier(0.015, 1.0),
        ),
    }
    details = []
    ok = True
    for name, (s0, pot) in runs.items():
        traj = integrate_nr(s0, PARAMS, pot, 10.0, 1e-4)
        assert len(traj) - 1 == 100000
        work = work_integral(traj, pot)
        dkin = traj["T"][-1] - traj["T"][0]
        drift = np.abs(traj["E_total"] - traj["E_total"][0]).max() / abs(traj["E_total"][0])
        ok = ok and abs(work - dkin) <= 1e-6 and drift <= 1e-8
        details.append(f"{name}: |W-dT| {abs(work - dkin):.2e}, E drift {drift:.2e}")
    report(6, "work-energy theorem", ok, "; ".join(details))


def test_c07_classical_tunnel_analogue():
    # free circle: forbidden everywhere (E_total = -0.01 < U = 0, v^2 > 0)
    circle = KinState3D(t=0, x=[0, -0.05, 0], v=[0.1, 0, 0],
                        a=[0, 0.2, 0], j=[-0.4, 0, 0])
    zero = Potential3D.zero()
    traj = integrate_nr(circle, PARAMS, zero, 2.0, 1e-3)
    intervals = barrier_report(traj)
    circle_ok = (len(intervals) == 1
                 and intervals[0].t_start == traj.times[0]
                 and intervals[0].t_end == traj.times[-1]
                 and abs(traj["E_total"][0] + 0.01) <= 1e-12)

    # Gaussian barrier: scan 16 oscillation phases, at least one genuine
    # crossing with a forbidden interval
    pot = Potential3D.gaussian_barrier(0.015, 1.0)
    crossings = 0
    for i in range(16):
        phase = 2 * math.pi * i / 16
        s0 = KinState3D(
            t=0.0, x=[-3.0, 0.0, 0.0],
            v=[0.2 + 0.15 * math.cos(phase), 0.0, 0.0],
            a=[-0.3 * math.sin(phase), 0.0, 0.0],
            j=[-0.6 * math.cos(phase), 0.0, 0.0])
        run = integrate_nr(s0, PARAMS, pot, 35.0, 5e-3)
        assert run["E_total"][0] < 0.015
        if barrier_report(run) and run["x"][-1, 0] > 1.5:
            crossings += 1

    # Newtonian control at comparable energy never reports an interval
    v0 = math.sqrt(2 * 0.009)
    control = integrate_newtonian([-3, 0, 0], [v0, 0, 0], PARAMS, pot, 35.0, 5e-3)
    control_ok = barrier_report(control) == []

    ok = circle_ok and crossings >= 1 and control_ok
    report(7, "classical tunnel analogue", ok,
           f"circle interval spans run: {circle_ok}, barrier crossings {crossings}/16, "
           f"Newtonian control empty: {control_ok}")


def test_c08_poisson_bracket_suite():
    result = bracket_suite(seed=20250810, points=100, tol=1e-9)
    report(8, "Poisson-bracket suite", result.ok,
           "; ".join(line.strip() for line in result.lines[1:]))


def test_c09_dirac_operator_suite():
    result = dirac_suite(seed=20250810, points=50, onshell_points=20,
                         tol=1e-12, clifford_tol=1e-15)
    report(9, "operator identity suite", result.ok,
           "; ".join(line.strip() for line in result.lines[1:4]) + " ...")


def test_c10_general_n_frequencies():
    params = ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25))
    expected = characteristic_frequencies(params)
    stack = [FourVector(1, 0.2, 0.15, 0), FourVector.zero(),
             FourVector(0, -0.2, -0.6, 0), FourVector.zero(),
             FourVector(0, 0.2, 2.4, 0)]
    traj = integrate_free_general_n(params, FourVector.zero(), stack,
                                    10 * math.pi, 2e-3)
    f1 = estimate_frequency(traj.times, traj["v0_"][:, 1])
    f2 = estimate_frequency(traj.times, traj["v0_"][:, 2])
    ok = abs(f1 - expected[0]) <= 1e-3 and abs(f2 - expected[1]) <= 1e-3
    report(10, "general-n frequencies", ok,
           f"measured ({f1:.6f}, {f2:.6f}) vs {tuple(expected)}")


def test_c11_superluminal_acceptance():
    sol = make_free_solution(PARAMS, FourVector(1, 0, 0, 0),
                             FourVector(0, 1.5, 0, 0), FourVector(0, 0, 1.5, 0))
    assert np.linalg.norm(sol.sample(0.0)[1][0, 1:]) == pytest.approx(1.5)
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None,
                              math.pi, 1e-3)
    speeds = np.linalg.norm(traj["v"][:, 1:], axis=1) / traj["v"][:, 0]
    speed_report = check_superluminal(sol)
    ok = (np.isfinite(traj.samples).all() and speeds.max() > 1.0
          and speed_report.cm_speed < 1.0)
    report(11, "superluminal acceptance", ok,
           f"max integrated |dx/dt| {speeds.max():.3f} > 1 accepted, "
           f"cm speed {speed_report.cm_speed:.3f} < 1")


def test_c12_determinism(tmp_path):
    scn = {
        "kind": "free",
        "model": {"mass": 1.0, "n": 1},
        "initial": {
            "p": [1.0, 0.0, 0.0, 0.0],
            "cos_amp": [0.0, 0.1, 0.0, 0.0],
            "sin_amp": [0.0, 0.0, 0.1, 0.0],
        },
        "integrator": {"dt": 0.001, "t_end": 3.0},
        "output": {"path": str(tmp_path / "run.csv"), "format": "csv"},
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scn))
    assert main(["run", str(spath)]) == 0
    first = (tmp_path / "run.csv").read_bytes()
    assert main(["run", str(spath)]) == 0
    second = (tmp_path / "run.csv").read_bytes()
    ok = first == second and len(first) > 0
    report(12, "deterministic output", ok,
           f"two runs, {len(first)} bytes, byte-identical: {first == second}")
