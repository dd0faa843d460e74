import math
import warnings

import numpy as np
import pytest

from zitterkit.dynamics import Trajectory
from zitterkit.forms import IntegrationDiverged
from zitterkit.lagrangian import ModelParams
from zitterkit.nonrel import (
    KinState3D,
    Potential3D,
    barrier_report,
    energy_breakdown,
    integrate_newtonian,
    integrate_nr,
    nr_momentum,
    quantum_potential_analogue,
    work_integral,
    zbw_coefficient,
)

PARAMS = ModelParams(m=1.0)


def circle_state(phase=0.0, drift=0.0, amp=0.1, omega=2.0):
    """Velocity circle of radius amp at frequency omega plus a drift along x."""
    c, s = math.cos(phase), math.sin(phase)
    return KinState3D(
        t=0.0,
        x=[0.0, -amp / omega * c, 0.0],
        v=[drift + amp * c, amp * s, 0.0],
        a=[-amp * omega * s, amp * omega * c, 0.0],
        j=[-amp * omega**2 * c, -amp * omega**2 * s, 0.0],
    )


def test_zbw_coefficient():
    assert zbw_coefficient(PARAMS) == pytest.approx(0.25)
    assert zbw_coefficient(ModelParams(m=2.0)) == pytest.approx(1 / 8)
    assert zbw_coefficient(ModelParams(m=1.0, hbar=0.5)) == pytest.approx(1 / 16)


def test_zbw_coefficient_is_minus_k1():
    assert zbw_coefficient(ModelParams(m=1.0, k=(1.0, -5.0))) == 5.0
    # for the physical coefficient, the same bits as hbar^2 / (4 m c^4)
    rng = np.random.default_rng(7)
    for hbar, m, c in 10.0 ** rng.uniform(-3, 3, size=(2000, 3)):
        params = ModelParams(m=m, hbar=hbar, c=c)
        assert zbw_coefficient(params) == hbar**2 / (4.0 * m * c**4)


@pytest.mark.parametrize("params", [ModelParams(m=1.0, n=0),
                                    ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25))])
def test_integrate_nr_requires_the_first_order_theory(params):
    with pytest.raises(ValueError, match=f"requires n=1, got n={params.n}"):
        integrate_nr(circle_state(), params, Potential3D.zero(), 0.1, 1e-3)


def test_integrate_nr_honours_the_coefficient_k1():
    params = ModelParams(m=1.0, k=(1.0, -5.0))
    s0 = KinState3D(t=0.0, x=[0.5, 0, 0], v=[0, 0.3, 0], a=[0.1, 0, 0], j=[0, 0, 0])
    pot = Potential3D.harmonic(1.0)
    traj = integrate_nr(s0, params, pot, 2.0, 1e-3, stride=10)
    assert not np.array_equal(traj["x"], integrate_nr(s0, PARAMS, pot, 2.0, 1e-3, stride=10)["x"])
    assert np.abs(traj["E_total"] - traj["E_total"][0]).max() <= 1e-10 * abs(traj["E_total"][0])
    # the zbw kinetic term carries -k1 = 5
    a, j, v = traj["a"][-1], traj["j"][-1], traj["v"][-1]
    assert traj["T_zbw"][-1] == pytest.approx(-5.0 * (0.5 * (a @ a) - j @ v), rel=1e-12)


def test_nr_momentum_examples():
    s = KinState3D(t=0, x=[0, 0, 0], v=[0.1, 0, 0], a=[0, 0.2, 0], j=[-0.4, 0, 0])
    np.testing.assert_allclose(nr_momentum(PARAMS, s), [0, 0, 0], atol=1e-15)

    newtonian = KinState3D(t=0, x=[0, 0, 0], v=[0.3, -0.1, 0], a=[0, 0, 0], j=[0, 0, 0])
    np.testing.assert_allclose(nr_momentum(PARAMS, newtonian), [0.3, -0.1, 0])

    pure_jerk = KinState3D(t=0, x=[0, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0.4, 0, 0])
    np.testing.assert_allclose(nr_momentum(PARAMS, pure_jerk), [0.1, 0, 0])


def test_energy_breakdown_examples():
    pot = Potential3D.zero()
    s = KinState3D(t=0, x=[0, 0, 0], v=[0.1, 0, 0], a=[0, 0.2, 0], j=[-0.4, 0, 0])
    eb = energy_breakdown(PARAMS, s, pot)
    assert eb.kinetic_newton == pytest.approx(0.005)
    assert eb.kinetic_zbw == pytest.approx(-0.015)
    assert eb.kinetic == pytest.approx(-0.01)
    assert eb.total == pytest.approx(-0.01)
    assert eb.quantum_potential == eb.kinetic_zbw

    newtonian = KinState3D(t=0, x=[0, 0, 0], v=[0.3, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    nb = energy_breakdown(PARAMS, newtonian, pot)
    assert nb.kinetic == pytest.approx(0.5 * 0.3**2)
    assert nb.kinetic_zbw == 0.0

    accel_only = KinState3D(t=0, x=[0, 0, 0], v=[0, 0, 0], a=[0.2, 0, 0], j=[0, 0, 0])
    assert energy_breakdown(PARAMS, accel_only, pot).kinetic == pytest.approx(-0.005)


def test_quantum_potential_analogue():
    s = KinState3D(t=0, x=[0, 0, 0], v=[0.1, 0, 0], a=[0, 0.2, 0], j=[-0.4, 0, 0])
    assert quantum_potential_analogue(PARAMS, s) == pytest.approx(-0.015)
    newtonian = KinState3D(t=0, x=[0, 0, 0], v=[1, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    assert quantum_potential_analogue(PARAMS, newtonian) == 0.0
    # degree-2 homogeneity
    doubled = KinState3D(t=0, x=[0, 0, 0], v=[0.2, 0, 0], a=[0, 0.4, 0], j=[-0.8, 0, 0])
    assert quantum_potential_analogue(PARAMS, doubled) == pytest.approx(4 * -0.015)


def test_builtin_gradients_match_central_differences():
    pots = [
        Potential3D.uniform_force([0.3, -1.0, 0.2]),
        Potential3D.harmonic(1.7),
        Potential3D.gaussian_barrier(0.4, 1.3),
        Potential3D.smoothed_step(0.8, 0.5),
    ]
    rng = np.random.default_rng(23)
    for pot in pots:
        fd = Potential3D(pot.value_many)  # same values, finite-difference gradient
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            np.testing.assert_allclose(pot.gradient(x), fd.gradient(x),
                                       rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("make", [Potential3D.gaussian_barrier, Potential3D.smoothed_step],
                         ids=["gaussian", "step"])
@pytest.mark.parametrize("width", [0.0, -0.3])
def test_a_barrier_of_no_positive_width_raises(make, width):
    # a width of zero or less would divide by zero or flip the barrier
    with pytest.raises(ValueError, match=r"potential: width must be positive and finite"):
        make(0.5, width)


def test_a_vector_parameter_is_checked_and_copied():
    # the built-ins word a bad vector as they word a bad number, and keep
    # their own floats
    with pytest.raises(ValueError, match=r"^uniform potential: force must have 3 components, "
                                         r"got shape \(2,\)$"):
        Potential3D.uniform_force([0.1, 0.0])
    force = np.array([0.1, 0.0, 0.0])
    pot = Potential3D.uniform_force(force)
    force[0] = 5.0
    assert pot.value([1.0, 0.0, 0.0]) == -0.1


def test_non_broadcasting_potential_raises():
    # a user fn for one point fails loudly on many points instead of looping
    pot = Potential3D(Potential3D.harmonic(1.0).value, label="pointwise")
    xs = np.zeros((5, 3))
    with pytest.raises(ValueError, match="pointwise"):
        pot.value_many(xs)
    one_d = Potential3D(lambda x: np.atleast_1d(np.sum(x, -1)), label="one_d")
    with pytest.raises(ValueError, match=r"potential 'one_d' returned shape \(1,\)"):
        one_d.value([1.0, 0.0, 0.0])
    bad_grad = Potential3D(lambda x: 0.0, grad=lambda x: np.zeros(3), label="flat")
    with pytest.raises(ValueError, match="flat"):
        bad_grad.gradient(xs)


@pytest.mark.parametrize("integrate", [
    lambda pot: integrate_nr(circle_state(), PARAMS, pot, 2.0, 1e-3),
    lambda pot: integrate_newtonian([1, 0, 0], [0, 0.1, 0], PARAMS, pot, 2.0, 1e-3),
], ids=["integrate_nr", "integrate_newtonian"])
def test_non_broadcasting_potential_fails_on_first_gradient(integrate):
    # without grad, the partials come from one batched call of fn; a fn for
    # one point fails there instead of after the run
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return 0.5 * float(np.dot(x, x))

    with pytest.raises(ValueError, match="pointwise"):
        integrate(Potential3D(fn, label="pointwise"))
    assert len(calls) <= 2


def test_bad_user_gradient_fails_on_the_first_stage():
    calls = []

    def grad(x):
        calls.append(x.shape)
        return np.zeros(2)

    pot = Potential3D(lambda x: np.zeros(np.shape(x)[:-1]), grad=grad, label="short")
    with pytest.raises(ValueError, match="'short'.*shape \\(2,\\)"):
        integrate_nr(circle_state(), PARAMS, pot, 2.0, 1e-3)
    assert calls == [(3,)]


def test_integrate_nr_free_circle_periodicity():
    s0 = circle_state()
    traj = integrate_nr(s0, PARAMS, Potential3D.zero(), math.pi, 1e-4)
    # oracle: the closed-form circle evaluated at the actual sample times
    t = traj.times
    v_exact = np.stack([0.1 * np.cos(2 * t), 0.1 * np.sin(2 * t), np.zeros_like(t)], 1)
    assert np.abs(traj["v"] - v_exact).max() <= 1e-6
    # period-pi return, up to the documented grid offset of the final sample
    offset = abs(t[-1] - math.pi)
    assert offset <= 1e-4
    assert np.abs(traj["v"][-1] - s0.v).max() <= 0.2 * offset + 1e-6


def test_integrate_nr_newtonian_start_stays_straight():
    s0 = KinState3D(t=0, x=[0, 0, 0], v=[0.2, 0.1, 0], a=[0, 0, 0], j=[0, 0, 0])
    traj = integrate_nr(s0, PARAMS, Potential3D.zero(), 2.0, 1e-3)
    assert np.abs(traj["a"]).max() == 0.0
    x_expected = s0.x + np.outer(traj.times, s0.v)
    assert np.abs(traj["x"] - x_expected).max() <= 1e-12


def test_integrate_nr_harmonic_energy_is_the_oracle():
    s0 = KinState3D(t=0, x=[1, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    pot = Potential3D.harmonic(1.0)
    traj = integrate_nr(s0, PARAMS, pot, 5.0, 1e-3)
    e = traj["E_total"]
    assert np.abs(e - e[0]).max() <= 1e-8 * abs(e[0])


def test_integrate_nr_divergence():
    s0 = KinState3D(t=0, x=[1, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    with pytest.raises(IntegrationDiverged) as err:
        integrate_nr(s0, PARAMS, Potential3D.harmonic(1.0), 1000.0, 10.0)
    assert err.value.last_time < 1000.0
    assert err.value.last_time == 950.0
    assert str(err.value) == "state became non-finite at t=960"


def test_work_integral_constant_force():
    # Newtonian particle from rest under F = (1,0,0): x = t^2/2, so t_end = 1
    # moves it d = 0.5 and the work is exactly F*d.
    pot = Potential3D.uniform_force([1.0, 0.0, 0.0])
    traj = integrate_newtonian([0, 0, 0], [0, 0, 0], PARAMS, pot, 1.0, 1e-3)
    assert traj["x"][-1, 0] == pytest.approx(0.5, abs=1e-12)
    assert work_integral(traj, pot) == pytest.approx(0.5, abs=1e-9)


def test_work_integral_free_run_is_zero():
    s0 = circle_state()
    pot = Potential3D.zero()
    traj = integrate_nr(s0, PARAMS, pot, 1.0, 1e-3)
    assert work_integral(traj, pot) == pytest.approx(0.0, abs=1e-12)
    assert np.abs(traj["T"] - traj["T"][0]).max() <= 1e-12


def test_work_energy_theorem_harmonic_sweep():
    s0 = KinState3D(t=0, x=[1, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    pot = Potential3D.harmonic(1.0)
    traj = integrate_nr(s0, PARAMS, pot, 5.0, 1e-4)
    work = work_integral(traj, pot)
    dkin = traj["T"][-1] - traj["T"][0]
    assert abs(work - dkin) <= 1e-6


def test_pointwise_kinetic_rate_identity():
    # addot.v + d/dt (a^2/2 - adot.v) = 0 along solutions, checked by
    # 5-point finite differences on the sampled trajectory
    s0 = circle_state(drift=0.1)
    pot = Potential3D.harmonic(0.3)
    traj = integrate_nr(s0, PARAMS, pot, 2.0, 1e-4, stride=10)
    h = traj.times[1] - traj.times[0]

    def d5(f):
        return (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)

    addot = d5(traj["j"])  # second derivative of the acceleration
    g = 0.5 * (traj["a"]**2).sum(1) - (traj["j"] * traj["v"]).sum(1)
    resid = (addot * traj["v"][2:-2]).sum(1) + d5(g)
    assert np.abs(resid).max() <= 1e-6


def test_momentum_law_along_trajectory():
    s0 = circle_state(drift=0.1)
    pot = Potential3D.harmonic(0.3)
    traj = integrate_nr(s0, PARAMS, pot, 2.0, 1e-4, stride=10)
    h = traj.times[1] - traj.times[0]
    p = PARAMS.m * traj["v"] + zbw_coefficient(PARAMS) * traj["j"]
    dp = (p[:-4] - 8 * p[1:-3] + 8 * p[3:-1] - p[4:]) / (12 * h)
    force = -pot.gradient(traj["x"][2:-2])
    assert np.abs(dp - force).max() <= 1e-6


def test_newtonian_regression_order():
    # Newtonian-start runs approach the Newtonian integrator linearly in the
    # coefficient hbar^2/(4 m c^4); the rms deviation averages out the
    # interference of the fast ringing whose phase depends on the coefficient
    pot = Potential3D.harmonic(1.0)
    x0, v0 = [1.0, 0.0, 0.0], [0.0, 0.3, 0.0]
    newton = integrate_newtonian(x0, v0, PARAMS, pot, 2.0, 1e-3)
    lams, devs = [], []
    for hbar in (0.4, 0.4 / math.sqrt(2), 0.2, 0.2 / math.sqrt(2), 0.1, 0.05):
        params = ModelParams(m=1.0, hbar=hbar)
        s0 = KinState3D(t=0, x=x0, v=v0, a=[0, 0, 0], j=[0, 0, 0])
        traj = integrate_nr(s0, params, pot, 2.0, 1e-3)
        lams.append(zbw_coefficient(params))
        dev = traj["x"] - newton["x"]
        devs.append(float(np.sqrt((dev**2).sum(1).mean())))
    slope = np.polyfit(np.log(lams), np.log(devs), 1)[0]
    assert slope >= 1.0
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_barrier_report_newtonian_always_empty():
    pot = Potential3D.gaussian_barrier(0.015, 1.0)
    v0 = math.sqrt(2 * 0.009)  # energy below the barrier top
    traj = integrate_newtonian([-3, 0, 0], [v0, 0, 0], PARAMS, pot, 35.0, 5e-3)
    assert barrier_report(traj) == []
    assert traj["x"][-1, 0] < 0  # it turned around


def test_barrier_report_free_circle_spans_run():
    s0 = circle_state()
    pot = Potential3D.zero()
    traj = integrate_nr(s0, PARAMS, pot, 2.0, 1e-3)
    intervals = barrier_report(traj)
    assert len(intervals) == 1
    iv = intervals[0]
    assert iv.t_start == traj.times[0]
    assert iv.t_end == traj.times[-1]
    assert iv.max_excess == pytest.approx(0.01, abs=1e-10)
    assert iv.min_v_squared == pytest.approx(0.01, abs=1e-6)


def test_barrier_crossing_phase_scan():
    pot = Potential3D.gaussian_barrier(0.015, 1.0)
    crossings = 0
    for i in range(16):
        phase = 2 * math.pi * i / 16
        s0 = KinState3D(
            t=0.0, x=[-3.0, 0.0, 0.0],
            v=[0.2 + 0.15 * math.cos(phase), 0.0, 0.0],
            a=[-0.3 * math.sin(phase), 0.0, 0.0],
            j=[-0.6 * math.cos(phase), 0.0, 0.0])
        traj = integrate_nr(s0, PARAMS, pot, 35.0, 5e-3)
        assert traj["E_total"][0] < 0.015  # classically forbidden at the top
        intervals = barrier_report(traj)
        if intervals and traj["x"][-1, 0] > 1.5:
            crossings += 1
    assert crossings >= 1


def test_a_steep_step_overflows_quietly():
    # exp(-x / 0.001) overflows all along x in [-1, -0.9], where the step's
    # U and dU/dx are 0: the records and the reports take that without a warning
    pot = Potential3D.smoothed_step(0.1, 0.001)
    s0 = KinState3D(t=0, x=[-1, 0, 0], v=[0.1, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_nr(s0, PARAMS, pot, 1.0, 1e-3, stride=100)
        assert not traj["U"].any() and work_integral(traj, pot) == 0.0
        assert barrier_report(traj) == []


def test_barrier_report_requires_positive_speed():
    # forbidden region throughout, but zero velocity at the start: the one
    # interval begins at the second sample
    pot = Potential3D.uniform_force([0.0, 0.0, 0.0])
    s0 = KinState3D(t=0, x=[0, 0, 0], v=[0, 0, 0], a=[0.2, 0, 0], j=[0, 0, 0])
    traj = integrate_nr(s0, PARAMS, pot, 0.01, 1e-3)
    # kinetic term is negative (E < U = 0) yet v^2 is zero at the start
    assert traj["E_total"][0] < 0
    [interval] = barrier_report(traj)
    assert (interval.t_start, interval.t_end) == (traj.times[1], traj.times[-1])


def forbidden_samples(indices, n=12):
    """A run record at unit speed with E_total = 0, and U = 1 on the samples
    ``indices`` and 0 on the others."""
    u = np.zeros(n)
    u[indices] = 1.0
    return Trajectory(PARAMS, np.arange(n) * 0.1, np.ones((n, 3)), ("v0", "v1", "v2"),
                      {"U": u, "E_total": np.zeros(n)})


def test_barrier_report_merges_stretches_fewer_than_3_samples_apart():
    # samples 4 and 5 lie between the stretches: one interval
    traj = forbidden_samples([2, 3, 6, 7])
    assert [(iv.t_start, iv.t_end) for iv in barrier_report(traj)] == [
        (traj.times[2], traj.times[7])]
    # samples 4, 5 and 6 lie between them: two intervals
    traj = forbidden_samples([2, 3, 7, 8])
    assert [(iv.t_start, iv.t_end) for iv in barrier_report(traj)] == [
        (traj.times[2], traj.times[3]), (traj.times[7], traj.times[8])]


def test_kinstate_validation():
    with pytest.raises(ValueError):
        KinState3D(t=0, x=[0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    with pytest.raises(ValueError):
        KinState3D(t=0, x=[0, 0, np.inf], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
