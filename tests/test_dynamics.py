import dataclasses
import math
import os
import pickle
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zitterkit import cli, dynamics
from zitterkit.brackets import hamiltonian_function
from zitterkit.dynamics import (
    IntegrationDiverged,
    Trajectory,
    _kernel_source,
    check_superluminal,
    estimate_frequency,
    eval_free,
    integrate_free_general_n,
    integrate_hamilton,
    make_free_solution,
    mean_time_dilation,
    monitor,
    rk4_path,
)
from zitterkit.forms import FloatForm
from zitterkit.lagrangian import (
    ModelParams,
    PhasePoint,
    ScalarPotential,
    canonical_momentum,
    characteristic_frequencies,
    hamiltonian,
)
from zitterkit.minkowski import (
    METRIC,
    AntisymTensor4,
    FourVector,
    dot,
    pauli_lubanski,
    wedge,
)
from zitterkit.nonrel import (
    KinState3D,
    Potential3D,
    integrate_newtonian,
    integrate_nr,
    zbw_coefficient,
)

PARAMS = ModelParams(m=1.0)
P_CMF = FourVector(1, 0, 0, 0)
COS_AMP = FourVector(0, 0.1, 0, 0)
SIN_AMP = FourVector(0, 0, 0.1, 0)


def standard_solution():
    return make_free_solution(PARAMS, P_CMF, COS_AMP, SIN_AMP)


def boosted_solution():
    root2 = math.sqrt(2.0)
    return make_free_solution(
        PARAMS, FourVector(root2, 1, 0, 0), FourVector(0, 0, 0.1, 0),
        FourVector(0.1, 0.1 * root2, 0, 0))


@pytest.fixture(scope="module")
def standard_run():
    sol = standard_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, math.pi, 1e-3)
    return sol, traj


def test_make_free_solution_standard():
    sol = standard_solution()
    assert sol.omega == pytest.approx(2.0)
    assert dot(sol.p, sol.p) == pytest.approx(1.0)


def test_make_free_solution_rejections():
    with pytest.raises(ValueError, match="spacelike"):
        make_free_solution(PARAMS, P_CMF, FourVector(0.5, 0, 0, 0), SIN_AMP)
    with pytest.raises(ValueError, match="off shell"):
        make_free_solution(PARAMS, FourVector(1, 1, 0, 0), COS_AMP, SIN_AMP)
    with pytest.raises(ValueError, match="orthogonal"):
        make_free_solution(PARAMS, P_CMF, FourVector(0.05, 0.3, 0, 0), SIN_AMP)
    with pytest.raises(ValueError, match="n=1"):
        make_free_solution(ModelParams(m=1.0, n=0), P_CMF, COS_AMP, SIN_AMP)


def test_make_free_solution_projection_is_opt_in():
    tilted = FourVector(0.01, 0.1, 0, 0)  # not orthogonal to p
    with pytest.raises(ValueError):
        make_free_solution(PARAMS, P_CMF, tilted, SIN_AMP)
    sol = make_free_solution(PARAMS, P_CMF, tilted, SIN_AMP, project=True)
    assert abs(dot(sol.p, sol.cos_amp)) <= 1e-12
    np.testing.assert_allclose(sol.cos_amp.components, [0, 0.1, 0, 0], atol=1e-15)


def test_eval_free_examples():
    sol = standard_solution()
    x, v, a = eval_free(sol, 0.0)
    np.testing.assert_allclose(v.components, [1, 0.1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(a.components, [0, 0, 0.2, 0], atol=1e-15)
    np.testing.assert_allclose(x.components, [0, 0, 0, 0], atol=1e-15)

    # one full period later the velocity repeats and x advances by p/m * tau
    x, v, _ = eval_free(sol, math.pi)
    np.testing.assert_allclose(v.components, [1, 0.1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(x.components, [math.pi, 0, 0, 0], atol=1e-14)


def test_eval_free_newtonian_limit():
    sol = make_free_solution(PARAMS, P_CMF, FourVector.zero(), FourVector.zero())
    for tau in (0.0, 0.7, 3.1):
        _, v, a = eval_free(sol, tau)
        np.testing.assert_allclose(v.components, [1, 0, 0, 0])
        assert np.all(a.components == 0.0)


def test_integrate_hamilton_matches_closed_form(standard_run):
    sol, traj = standard_run
    x_ref, v_ref, a_ref = sol.sample(traj.times)
    assert np.abs(traj["x"] - x_ref).max() <= 1e-6
    assert np.abs(traj["v"] - v_ref).max() <= 1e-6
    assert np.abs(traj["a"] - a_ref).max() <= 1e-6


def test_integrate_hamilton_oscillator_form(standard_run):
    # the canonical velocity must obey qddot + w^2 q = -p/k1
    sol, traj = standard_run
    q = traj["v"]
    h = traj.times[1] - traj.times[0]
    qdd = (-q[:-4] + 16 * q[1:-3] - 30 * q[2:-2] + 16 * q[3:-1] - q[4:]) / (12 * h * h)
    w2 = sol.omega**2
    rhs = -traj["p"][2:-2] / PARAMS.k1
    resid = qdd + w2 * q[2:-2] - rhs
    assert np.abs(resid).max() <= 1e-6


def test_integrate_hamilton_newtonian_start():
    sol = make_free_solution(PARAMS, P_CMF, FourVector.zero(), FourVector.zero())
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, 1.0, 1e-3)
    assert np.abs(traj["v"] - traj["v"][0]).max() == 0.0
    assert np.all(traj["r"] == 0.0)
    x_expected = np.outer(traj.times, sol.p.components)
    assert np.abs(traj["x"] - x_expected).max() <= 1e-12


def test_integrate_hamilton_validation():
    sol = standard_solution()
    s0 = sol.initial_phase_point()
    with pytest.raises(ValueError):
        integrate_hamilton(s0, PARAMS, None, -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_hamilton(s0, PARAMS, None, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_hamilton(s0, ModelParams(m=1.0, n=0), None, 1.0, 1e-3)


INTEGRATORS = {
    "hamilton": lambda t_end, dt, stride=1: integrate_hamilton(
        standard_solution().initial_phase_point(), PARAMS, None, t_end, dt, stride),
    "free_general_n": lambda t_end, dt, stride=1: integrate_free_general_n(
        PARAMS, FourVector.zero(), [P_CMF, FourVector.zero(), FourVector.zero()], t_end, dt,
        stride),
    # n=0 is evaluated exactly, off the RK4 path
    "free_general_n0": lambda t_end, dt, stride=1: integrate_free_general_n(
        ModelParams(m=1.0, n=0), FourVector.zero(), [P_CMF], t_end, dt, stride),
    "nr": lambda t_end, dt, stride=1: integrate_nr(
        KinState3D(t=0, x=[0, 0, 0], v=[0.1, 0, 0], a=[0, 0, 0], j=[0, 0, 0]),
        PARAMS, Potential3D.zero(), t_end, dt, stride),
    "newtonian": lambda t_end, dt, stride=1: integrate_newtonian(
        [0, 0, 0], [0.1, 0, 0], PARAMS, Potential3D.zero(), t_end, dt, stride),
}


@pytest.mark.parametrize("t_end, dt", [(0.0, 1e-3), (-1.0, 1e-3), (1.0, 0.0), (1.0, -1e-3)])
@pytest.mark.parametrize("name", sorted(INTEGRATORS))
def test_integrators_reject_non_positive_time_arguments(name, t_end, dt):
    with pytest.raises(ValueError, match="must be positive"):
        INTEGRATORS[name](t_end, dt)


@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("name", sorted(INTEGRATORS))
def test_integrators_reject_a_stride_below_one(name, stride):
    with pytest.raises(ValueError, match=f"stride must be >= 1, got {stride}"):
        INTEGRATORS[name](1.0, 0.1, stride)


@pytest.mark.parametrize("name", sorted(INTEGRATORS))
def test_integrators_reject_a_grid_numpy_cannot_allocate(name):
    # 10^15 steps: a grid of 7.11 PiB, which numpy refuses at once
    with pytest.raises(ValueError, match="the grid of 1000000000000001 samples "
                                         r"\(1000000000000000 steps at stride 1\) "
                                         "cannot be allocated"):
        INTEGRATORS[name](1e15, 1.0)


def test_integrate_hamilton_divergence_reports_last_time():
    sol = standard_solution()
    with pytest.raises(IntegrationDiverged) as err:
        integrate_hamilton(sol.initial_phase_point(), PARAMS, None, 1000.0, 10.0)
    assert 0.0 < err.value.last_time < 1000.0
    assert err.value.last_time == 800.0
    assert str(err.value) == "state became non-finite at t=810"


def _reference_rk4(f, y0, t0, dt, n_steps, stride):
    """Allocating RK4 loop with the same arithmetic, sample by sample;
    ``f(t, y)`` returns the derivative array of the state array y."""
    y = np.array(y0, dtype=float)
    comp = np.zeros_like(y)
    times, samples = [t0], [y.copy()]
    for i in range(1, n_steps + 1):
        t = t0 + (i - 1) * dt
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = f(t, y)
            k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = f(t + dt, y + dt * k3)
            tmp = dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4) - comp
            ynew = y + tmp
            comp = (ynew - y) - tmp
        y = ynew
        if not np.isfinite(y).all():
            raise IntegrationDiverged(
                f"state became non-finite at t={t0 + i * dt:g}", last_time=t)
        if i % stride == 0 or i == n_steps:
            times.append(t0 + i * dt)
            samples.append(y.copy())
    return np.asarray(times), np.asarray(samples)


def _on_columns(rates):
    """``f(t, y)`` for :func:`_reference_rk4` that evaluates the float form
    ``rates`` on the columns of y."""
    def f(t, y):
        out = np.empty_like(y)
        for c, value in enumerate(rates(t, *np.moveaxis(y, -1, 0))):
            out[..., c] = value
        return out
    return f


def _anharmonic(t, x0, x1, v0, v1):
    # x'' = -x - x^3 + t per component; elementwise, so that it serves a
    # stack of states as well as a single one
    return v0, v1, t - x0 - x0 * x0 * x0, t - x1 - x1 * x1 * x1


@pytest.mark.parametrize("n_steps, stride", [
    (12, 3),   # stride divides n_steps
    (12, 5),   # it does not
    (4, 10),   # stride > n_steps
    (7, 7),    # stride == n_steps
    (1, 1),
    (1, 4),
    (0, 2),    # no step: the initial state alone
])
def test_rk4_path_samples_on_the_stride_grid(n_steps, stride):
    t0, dt = 0.25, 0.1
    y0 = np.array([1.0, -0.5, 0.0, 0.3])
    times, samples = rk4_path(_anharmonic, y0, t0, dt, n_steps, stride)
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    assert times.tolist() == [t0 + i * dt for i in idx]
    assert samples.shape == (len(idx), 4)
    ref_times, ref_samples = _reference_rk4(_on_columns(_anharmonic), y0, t0, dt,
                                            n_steps, stride)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(samples, ref_samples)


def test_rk4_path_rejects_negative_step_count():
    with pytest.raises(ValueError, match="n_steps"):
        rk4_path(_anharmonic, np.zeros(4), 0.0, 0.1, -1, 1)


@pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
def test_rk4_path_rejects_a_state_without_components(shape):
    with pytest.raises(ValueError, match=f"at least one component.*{re.escape(str(shape))}"):
        rk4_path(_anharmonic, np.zeros(shape), 0.0, 0.1, 3, 1)


@pytest.mark.parametrize("shape", [(4,), (2, 4)])
def test_rk4_path_rejects_rates_of_the_wrong_length(shape):
    def three_rates(t, x0, x1, v0, v1):
        return v0, v1, t - x0

    with pytest.raises(ValueError):
        rk4_path(three_rates, np.zeros(shape), 0.0, 0.1, 3, 1)


def test_rk4_path_stacked_states_match_separate_runs():
    y0 = np.array([[1.0, -0.5, 0.0, 0.3], [0.2, 0.7, -1.1, 0.0]])
    times, samples = rk4_path(_anharmonic, y0, 0.0, 0.01, 250, 7)
    assert samples.shape == (len(times), 2, 4)
    for k in range(2):
        times_k, samples_k = rk4_path(_anharmonic, y0[k], 0.0, 0.01, 250, 7)
        assert np.array_equal(times, times_k)
        assert np.array_equal(samples[:, k, :], samples_k)


def test_rk4_path_multi_axis_stack_matches_separate_runs():
    y0 = np.random.default_rng(7).uniform(-1.0, 1.0, size=(2, 3, 4))
    y0[0, 1, 2] = -0.0
    times, samples = rk4_path(_anharmonic, y0, 0.25, 0.01, 60, 7)
    assert samples.shape == (len(times), 2, 3, 4)
    for i in range(2):
        for j in range(3):
            times_ij, samples_ij = rk4_path(_anharmonic, y0[i, j], 0.25, 0.01, 60, 7)
            assert np.array_equal(times, times_ij)
            _assert_bit_identical(samples[:, i, j], samples_ij)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_multi_axis_stack_divergence_names_the_member_first(value):
    y0 = np.random.default_rng(7).uniform(-1.0, 1.0, size=(2, 3, 4))
    with pytest.raises(IntegrationDiverged) as err:
        rk4_path(_injecting(value, 0.42, ((1, 2), 3)), y0, 0.0, 0.1, 20, 3)
    with pytest.raises(IntegrationDiverged) as ref:
        rk4_path(_injecting(value, 0.42, 3), y0[1, 2], 0.0, 0.1, 20, 3)
    assert err.value.nonfinite == ((1, 2, 3),)
    assert (err.value.last_time, str(err.value)) == (ref.value.last_time, str(ref.value))
    assert err.value.last_state.shape == (2, 3, 4)
    _assert_bit_identical(err.value.last_state[1, 2], ref.value.last_state)


def _injecting(value, t_bad, where):
    """Float form of y' = -y/10 that sets the rate of component ``where``,
    or of ``where = (member, component)`` in a stack, the member an index
    or a tuple of them, to ``value`` from time ``t_bad`` on."""
    def rates(t, *y):
        out = [-0.1 * c for c in y]
        if t >= t_bad:
            if isinstance(where, tuple):
                member, c = where
                out[c][member] = value
            else:
                out[where] = value
        return out
    return rates


def _divergence(rates, y0):
    with pytest.raises(IntegrationDiverged) as err:
        rk4_path(rates, y0, 0.0, 0.1, 20, 3)
    return err.value.last_time, str(err.value)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_rk4_path_raises_on_the_step_a_component_turns_non_finite(value):
    y0 = np.array([1.0, -0.5, 0.0, 0.3])
    rates = _injecting(value, 0.42, 1)  # first reached by step 5's middle stages
    got = _divergence(rates, y0)
    with pytest.raises(IntegrationDiverged) as ref:
        _reference_rk4(_on_columns(rates), y0, 0.0, 0.1, 20, 3)
    assert got == (ref.value.last_time, str(ref.value))
    assert got == (0.4, "state became non-finite at t=0.5")


def _straight_line_divergence(rates, y0, dt=10.0, n_steps=100, stride=1):
    """The divergence of a run from the 1-D state y0, on floats, which must
    match, field by field, that of the run on the columns of the one-member
    stack y0[None]."""
    with pytest.raises(IntegrationDiverged) as ref:
        rk4_path(rates, y0[None], 0.0, dt, n_steps, stride)
    with pytest.raises(IntegrationDiverged) as got:
        rk4_path(rates, y0, 0.0, dt, n_steps, stride)
    got, ref = got.value, ref.value
    assert str(got) == str(ref)
    assert got.last_time == ref.last_time
    assert {index[0] for index in ref.nonfinite} == {0}
    assert got.nonfinite == tuple(index[1:] for index in ref.nonfinite)
    # compared as bytes, so that a NaN start compares too
    assert got.last_state.tobytes() == ref.last_state[0].tobytes()
    return got


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_straight_line_divergence_equals_the_array_loop(value):
    y0 = np.array([1.0, -0.5, 0.0, 0.3])
    got = _straight_line_divergence(_injecting(value, 0.42, 1), y0, 0.1, 20, 3)
    assert got.nonfinite == ((1,),)
    assert (got.last_time, str(got)) == (0.4, "state became non-finite at t=0.5")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_rk4_path_raises_when_one_stacked_member_diverges(value):
    y0 = np.array([[1.0, -0.5, 0.0, 0.3], [0.2, 0.7, -1.1, 0.0]])
    got = _divergence(_injecting(value, 0.42, (1, 1)), y0)
    assert got == _divergence(_injecting(value, 0.42, 1), y0[1])
    with pytest.raises(IntegrationDiverged) as ref:
        _reference_rk4(_on_columns(_injecting(value, 0.42, (1, 1))), y0, 0.0, 0.1, 20, 3)
    assert got == (ref.value.last_time, str(ref.value))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_divergence_names_the_member_and_keeps_the_last_finite_state(value):
    y0 = np.array([[1.0, -0.5, 0.0, 0.3], [0.2, 0.7, -1.1, 0.0]])
    rates = _injecting(value, 0.42, (1, 1))
    with pytest.raises(IntegrationDiverged) as err:
        rk4_path(rates, y0, 0.0, 0.1, 20, 3)
    assert err.value.nonfinite == ((1, 1),)
    assert err.value.last_time == 0.4
    _, ref = _reference_rk4(_on_columns(rates), y0, 0.0, 0.1, 4, 1)
    assert np.array_equal(err.value.last_state, ref[-1])


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_rk4_path_checks_a_state_in_any_memory_order(value):
    y0 = np.asfortranarray([[1.0, -0.5, 0.0, 0.3], [0.2, 0.7, -1.1, 0.0]])
    assert not y0.flags.c_contiguous
    got = _divergence(_injecting(value, 0.42, (1, 1)), y0)
    assert got == _divergence(_injecting(value, 0.42, (1, 1)), np.ascontiguousarray(y0))


def test_rk4_path_finite_check_does_not_overflow():
    # finite entries whose sum (or squared norm) overflows to inf
    y0 = np.array([1e308, 1e308, -1e308, 1e308])
    with np.errstate(over="ignore"):
        assert not np.isfinite(y0.sum())
        assert not np.isfinite(np.dot(y0, y0))
    rates = _injecting(0.0, np.inf, 0)  # y' = -y/10, never injects
    ref_times, ref_samples = _reference_rk4(_on_columns(rates), y0, 0.0, 0.1, 20, 3)
    # the loop on the floats of the state and on the columns of a stack of it
    for state in (y0, y0[None]):
        times, samples = rk4_path(rates, state, 0.0, 0.1, 20, 3)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(samples.reshape(ref_samples.shape), ref_samples)
        assert np.isfinite(samples).all()


def test_integrate_nr_calls_the_component_gradient_four_times_a_step(monkeypatch):
    # a user potential is reached through the call of its partials, once a
    # stage; a built-in's partials are spliced into the kernel instead
    gradients, partials_calls = [], []
    gradient = Potential3D.gradient

    def counting_gradient(self, xs):
        gradients.append(1)
        return gradient(self, xs)

    monkeypatch.setattr(Potential3D, "gradient", counting_gradient)
    pot = Potential3D(_user_fn, grad=_user_grad, label="user_grad")
    partials = pot.partials

    def counting_partials(*x):
        partials_calls.append(1)
        return partials(*x)

    pot.partials = counting_partials
    s0 = KinState3D(t=0.0, x=[1.0, 0, 0], v=[0, 0.5, 0], a=[0, 0, 0], j=[0, 0, 0])
    traj = integrate_nr(s0, PARAMS, pot, 0.137, 1e-3)
    assert len(traj) == 138
    assert len(gradients) == 0
    assert len(partials_calls) == 4 * 137
    assert "u_partials(x0, x1, x2)" in _kernel_source(_nr_rates(monkeypatch, pot).text)
    builtin = _kernel_source(_nr_rates(monkeypatch, Potential3D.harmonic(1.0)).text)
    assert "partials(" not in builtin and "u_s * x0" in builtin


def _textbook(deriv):
    """``f(t, y)`` for :func:`_reference_rk4` from a closure
    ``deriv(t, y, out)`` that slices the state array on every call."""
    def f(t, y):
        out = np.empty_like(y)
        deriv(t, y, out)
        return out
    return f


def _assert_bit_identical(got, ref):
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _user_fn(x):
    return 0.3 * (x**2).sum(-1) + 0.1 * x[..., 0] * x[..., 1]


def _user_grad(x):
    return np.stack([0.6 * x[..., 0] + 0.1 * x[..., 1], 0.6 * x[..., 1] + 0.1 * x[..., 0],
                     0.6 * x[..., 2]], -1)


NR_POTENTIALS = {
    "zero": Potential3D.zero(),
    "harmonic": Potential3D.harmonic(1.0),
    "gaussian": Potential3D.gaussian_barrier(0.5, 0.3),
    "user_fn": Potential3D(_user_fn, label="user_fn"),
    "user_grad": Potential3D(_user_fn, grad=_user_grad, label="user_grad"),
}


@pytest.mark.parametrize("name", ["user_fn", "user_grad"])
def test_user_partials_of_floats_are_python_floats(name):
    pot = NR_POTENTIALS[name]
    point = [0.4, -0.23, 0.17]
    partials = pot.partials(*point)
    assert [type(v) for v in partials] == [float] * 3
    # the same bits as the partials of a stack of columns
    _assert_bit_identical(np.array(partials), pot.gradient(np.array([point, point]))[0])


NR_STARTS = [
    # the z axis is at rest at -0.0, where -(g + m a) would flip signed zeros
    KinState3D(t=0.25, x=[0.4, -0.0, -0.0], v=[-0.0, 0.5, -0.0],
               a=[0.1, -0.0, -0.0], j=[-0.0, 0.0, -0.0]),
    # off every axis, where the order of the gaussian's sum of squares shows
    KinState3D(t=0.25, x=[0.4, -0.23, 0.17], v=[-0.0, 0.5, -0.2],
               a=[0.1, -0.0, 0.3], j=[-0.0, 0.2, -0.0]),
]


def _nr_state(s0):
    return np.concatenate([s0.x, s0.v, s0.a, s0.j])


@pytest.mark.parametrize("name", sorted(NR_POTENTIALS))
def test_integrate_nr_matches_the_textbook_closure(name):
    pot = NR_POTENTIALS[name]
    m = PARAMS.m
    inv_lam = 1.0 / zbw_coefficient(PARAMS)

    def deriv(t, y, out):
        out[0:9] = y[3:12]
        out[9:12] = inv_lam * (-pot.gradient(y[0:3]) - m * y[6:9])

    for s0 in NR_STARTS:
        traj = integrate_nr(s0, PARAMS, pot, 0.05, 1e-3, stride=3)
        times, samples = _reference_rk4(_textbook(deriv), _nr_state(s0), 0.25, 1e-3, 50, 3)
        assert np.array_equal(traj.times, times)
        _assert_bit_identical(np.hstack([traj["x"], traj["v"], traj["a"], traj["j"]]), samples)


def _rates_of(monkeypatch, target, integrate):
    """The float form that ``integrate()`` hands to the rk4_path named by
    ``target``."""
    forms = []

    def spy(rates, y0, t0, dt, n_steps, stride):
        forms.append(rates)
        return rk4_path(rates, y0, t0, dt, n_steps, stride)

    monkeypatch.setattr(target, spy)
    integrate()
    return forms[0]


def _assert_stack_equals_straight_line_runs(rates, y0, t0):
    """A stack y0 runs the kernel on columns, which calls ``rates`` on
    them, each member the kernel on floats, which calls it on floats, 4
    times a step each; every member's samples are the same bits."""
    calls = []

    def counting_rates(t, *y):
        calls.append(type(y[0]))
        return rates(t, *y)

    times, samples = rk4_path(counting_rates, y0, t0, 1e-3, 50, 3)
    assert samples.shape == (len(times),) + y0.shape
    assert calls == [np.ndarray] * 4 * 50
    for k in range(len(y0)):
        times_k, samples_k = rk4_path(counting_rates, y0[k], t0, 1e-3, 50, 3)
        assert np.array_equal(times, times_k)
        _assert_bit_identical(samples[:, k], samples_k)
    assert calls[4 * 50:] == [float] * len(y0) * 4 * 50


def _nr_rates(monkeypatch, pot):
    return _rates_of(monkeypatch, "zitterkit.nonrel.rk4_path",
                     lambda: integrate_nr(NR_STARTS[0], PARAMS, pot, 1e-3, 1e-3))


def _newtonian_rates(monkeypatch, pot):
    return _rates_of(monkeypatch, "zitterkit.nonrel.rk4_path",
                     lambda: integrate_newtonian([0, 0, 0], [0, 0, 0], PARAMS, pot, 1e-3, 1e-3))


@pytest.mark.parametrize("name", sorted(NR_POTENTIALS))
def test_nr_stack_in_the_array_loop_equals_straight_line_runs(monkeypatch, name):
    rates = _nr_rates(monkeypatch, NR_POTENTIALS[name])
    y0 = np.array([_nr_state(s0) for s0 in NR_STARTS])
    _assert_stack_equals_straight_line_runs(rates, y0, 0.25)


@pytest.mark.parametrize("name", sorted(NR_POTENTIALS))
def test_newtonian_stack_in_the_array_loop_equals_straight_line_runs(monkeypatch, name):
    rates = _newtonian_rates(monkeypatch, NR_POTENTIALS[name])
    y0 = np.array([np.concatenate([s0.x, s0.v]) for s0 in NR_STARTS])
    _assert_stack_equals_straight_line_runs(rates, y0, 0.25)


def test_integrate_nr_divergence_equals_the_array_loop(monkeypatch):
    rates = _nr_rates(monkeypatch, Potential3D.harmonic(1.0))
    y0 = _nr_state(KinState3D(t=0, x=[1, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0]))
    got = _straight_line_divergence(rates, y0)
    assert got.last_time == 950.0


def test_integrate_newtonian_divergence_equals_the_array_loop(monkeypatch):
    rates = _newtonian_rates(monkeypatch, Potential3D.harmonic(1.0))
    got = _straight_line_divergence(rates, np.array([1.0, 0, 0, 0, 0, 0]), n_steps=200)
    assert got.last_time == 1180.0


NEWTONIAN_POTENTIALS = {
    **NR_POTENTIALS,
    "step": Potential3D.smoothed_step(0.8, 0.5),
    "uniform": Potential3D.uniform_force([0.3, -0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(NEWTONIAN_POTENTIALS))
def test_integrate_newtonian_matches_the_textbook_closure(name):
    pot = NEWTONIAN_POTENTIALS[name]
    m = PARAMS.m

    def deriv(t, y, out):
        out[0:3] = y[3:6]
        out[3:6] = -pot.gradient(y[0:3]) / m

    for s0 in NR_STARTS:
        x0, v0 = s0.x, s0.v
        traj = integrate_newtonian(x0, v0, PARAMS, pot, 0.05, 1e-3, stride=3)
        times, samples = _reference_rk4(_textbook(deriv), np.concatenate([x0, v0]),
                                        0.0, 1e-3, 50, 3)
        assert np.array_equal(traj.times, times)
        _assert_bit_identical(np.hstack([traj["x"], traj["v"]]), samples)
        # from the first start the z axis is at rest at -0.0, so the sign of
        # every zero the closure writes is compared too; 0 - g / m, say,
        # would turn -0.0 into +0.0
        assert s0 is not NR_STARTS[0] or np.signbit(samples[:, 2]).any()


def _user_grad4(x):
    return np.stack([0.6 * x[..., 0] + 0.1 * x[..., 1], 0.6 * x[..., 1] + 0.1 * x[..., 0],
                     0.6 * x[..., 2], 0.6 * x[..., 3]], -1)


HAMILTON_POTENTIALS = {
    "none": None,
    "linear": ScalarPotential.linear([0.0, 0.01, 0.0, 0.0]),
    "harmonic": ScalarPotential.harmonic_spatial(0.05),
    "user_fn": ScalarPotential(_user_fn, label="user_fn"),
    "user_grad": ScalarPotential(_user_fn, grad=_user_grad4, label="user_grad"),
}


@pytest.mark.parametrize("name", sorted(HAMILTON_POTENTIALS))
def test_energy_record_is_the_one_hamiltonian(name):
    # the H column, the bracket suite's H and H of one state share one
    # formula, so they agree bit for bit
    potential = HAMILTON_POTENTIALS[name]
    traj = integrate_hamilton(boosted_solution().initial_phase_point(), PARAMS, potential,
                              0.5, 1e-3, stride=25)
    u = np.zeros(len(traj)) if potential is None else potential.value_many(traj["x"])
    energy = traj["H"]
    assert np.array_equal(energy, hamiltonian_function(PARAMS)(traj.samples) - u)
    assert energy.tolist() == [hamiltonian(PARAMS, PhasePoint.from_array(y), float(v))
                               for y, v in zip(traj.samples, u)]


def _hamilton_starts():
    """The standard start with every zero entry at -0.0, and a boosted one
    off the origin whose third axis is at rest at -0.0."""
    standard = standard_solution().initial_phase_point().as_array()
    standard[standard == 0.0] = -0.0
    boosted = boosted_solution().initial_phase_point().as_array()
    boosted[0:4] = [0.3, -0.2, 0.1, -0.0]
    boosted[[7, 11, 15]] = -0.0
    return [standard, boosted]


@pytest.mark.parametrize("name", sorted(HAMILTON_POTENTIALS))
def test_integrate_hamilton_matches_the_textbook_closure(name):
    potential = HAMILTON_POTENTIALS[name]
    m, k1 = PARAMS.m, PARAMS.k1

    def deriv(tau, y, out):
        q = y[8:12]
        out[0:4] = q
        if potential is None:
            out[4:8] = 0.0
        else:
            np.multiply(METRIC, potential.gradient(y[0:4]), out=out[4:8])
        np.divide(y[12:16], k1, out=out[8:12])
        np.subtract(m * q, y[4:8], out=out[12:16])

    for y0 in _hamilton_starts():
        s0 = PhasePoint.from_array(y0, tau=0.5)
        assert np.array_equal(np.signbit(s0.as_array()), np.signbit(y0))
        traj = integrate_hamilton(s0, PARAMS, potential, 0.05, 1e-3, stride=4)
        times, samples = _reference_rk4(_textbook(deriv), y0, 0.5, 1e-3, 50, 4)
        assert np.array_equal(traj.times, times)
        _assert_bit_identical(traj.samples, samples)


GENERAL_N_PARAMS = {
    1: PARAMS,
    2: ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25)),
    3: ModelParams(m=1.0, n=3, k=(1.0, -1.5, 0.5, -0.05)),
}


def _general_n_starts(n):
    """Two (x0, stack) starts at order n, with -0.0 entries in every block.

    In the first the third axis is at rest at -0.0 throughout; the second
    moves off every axis.
    """
    def blocks(rows):
        return [FourVector(*row) for row in rows[:2 * n + 1]]

    resting = blocks([(1.0, 0.2, 0.15, -0.0), (-0.0, 0.0, -0.0, -0.0),
                      (0.0, -0.2, -0.6, -0.0), (-0.0, -0.0, 0.0, -0.0),
                      (0.0, 0.2, 2.4, -0.0), (-0.0, 0.1, -0.0, -0.0),
                      (0.0, -0.3, 0.5, -0.0)])
    moving = blocks([(1.1, -0.1, 0.3, 0.25), (0.05, -0.0, 0.2, -0.1),
                     (-0.0, 0.3, -0.4, 0.1), (0.02, 0.1, -0.0, 0.3),
                     (-0.1, -0.2, 0.6, -0.0), (0.0, 0.4, -0.1, 0.2),
                     (0.1, -0.0, 0.3, -0.5)])
    return [(FourVector(-0.0, 0.0, -0.0, -0.0), resting),
            (FourVector(0.5, -0.25, -0.0, 0.125), moving)]


def _general_n_state(n, x0, stack):
    return np.concatenate([x0.components] + [v.components for v in stack[:2 * n]])


def test_integrate_free_general_n_matches_the_textbook_closure():
    params = GENERAL_N_PARAMS[2]
    lower_coeffs = [(-1.0) ** i * params.k[i] for i in range(2)]
    scale = (-1.0) ** 3 / params.k[2]

    for x0, stack in _general_n_starts(2):
        pc = canonical_momentum(params, stack).components

        def deriv(tau, y, out):
            out[0:16] = y[4:20]
            acc = out[16:]
            np.negative(pc, out=acc)
            for i, ci in enumerate(lower_coeffs):
                acc += ci * y[4 * (2 * i + 1):4 * (2 * i + 2)]
            acc *= scale

        traj = integrate_free_general_n(params, x0, stack, 0.1, 2e-3, stride=7)
        y0 = _general_n_state(2, x0, stack)
        times, samples = _reference_rk4(_textbook(deriv), y0, 0.0, 2e-3, 50, 7)
        assert np.array_equal(traj.times, times)
        _assert_bit_identical(traj.samples, samples)


def _hamilton_rates(monkeypatch, potential):
    # k1 = -1/5.2 is no power of two, so pi / k1 and pi * (1 / k1) differ
    s0 = standard_solution().initial_phase_point()
    return _rates_of(monkeypatch, "zitterkit.dynamics.rk4_path",
                     lambda: integrate_hamilton(s0, ModelParams(m=1.3), potential, 1e-3, 1e-3))


@pytest.mark.parametrize("name", sorted(HAMILTON_POTENTIALS))
def test_hamilton_stack_in_the_array_loop_equals_straight_line_runs(monkeypatch, name):
    rates = _hamilton_rates(monkeypatch, HAMILTON_POTENTIALS[name])
    _assert_stack_equals_straight_line_runs(rates, np.array(_hamilton_starts()), 0.5)


def _general_n_rates(monkeypatch, n):
    x0, stack = _general_n_starts(n)[0]
    return _rates_of(monkeypatch, "zitterkit.dynamics.rk4_path",
                     lambda: integrate_free_general_n(GENERAL_N_PARAMS[n], x0, stack,
                                                      1e-3, 1e-3))


@pytest.mark.parametrize("n", sorted(GENERAL_N_PARAMS))
def test_general_n_stack_in_the_array_loop_equals_straight_line_runs(monkeypatch, n):
    rates = _general_n_rates(monkeypatch, n)
    y0 = np.array([_general_n_state(n, *start) for start in _general_n_starts(n)])
    assert y0.shape == (2, 4 * (2 * n + 1))
    _assert_stack_equals_straight_line_runs(rates, y0, 0.0)


@pytest.mark.parametrize("name", sorted(HAMILTON_POTENTIALS))
def test_integrate_hamilton_divergence_equals_the_array_loop(monkeypatch, name):
    rates = _hamilton_rates(monkeypatch, HAMILTON_POTENTIALS[name])
    y0 = standard_solution().initial_phase_point().as_array()
    got = _straight_line_divergence(rates, y0)
    assert got.nonfinite


@pytest.mark.parametrize("n", sorted(GENERAL_N_PARAMS))
def test_general_n_divergence_equals_the_array_loop(monkeypatch, n):
    rates = _general_n_rates(monkeypatch, n)
    y0 = _general_n_state(n, *_general_n_starts(n)[1])
    got = _straight_line_divergence(rates, y0)
    assert got.nonfinite


@pytest.mark.parametrize("value, held", [
    (0.0, (4, 5, 6, 7)), (0.7, (4, 5, 6, 7)), (-0.0, (4,)), (math.inf, (4,)), (math.nan, (4,))])
def test_a_held_free_run_gives_the_bits_of_the_stacked_binding(monkeypatch, value, held):
    # p0 = 1 and p1..p3 = value; a p component is held when it is finite
    # and keeps its bits under + 0.0, and the stacked binding holds none
    rates = _hamilton_rates(monkeypatch, None)
    y0 = standard_solution().initial_phase_point().as_array()
    y0[5:8] = value
    assert dynamics._held(rates.text, y0.tolist()) == held
    if math.isfinite(value):
        _, one = rk4_path(rates, y0, 0.25, 1e-3, 50, 3)
        _, stack = rk4_path(rates, y0[None], 0.25, 1e-3, 50, 3)
        _assert_bit_identical(one, stack[:, 0])
        assert _straight_line_divergence(rates, y0).last_time > 0.0
    else:
        assert {(5,), (6,), (7,)} <= set(_straight_line_divergence(rates, y0, 1e-3).nonfinite)


@pytest.mark.parametrize("y0, held", [([1.0, 2.0], (0, 1)), ([-0.0, 2.0], (1,))])
def test_a_form_of_zero_rates_holds_each_component_it_can(y0, held):
    form = FloatForm(("a", "b"), "0.0, 0.0", time="t")
    y0 = np.array(y0)
    assert dynamics._held(form.text, y0.tolist()) == held
    _, one = rk4_path(form, y0, 0.0, 0.1, 10, 3)
    _assert_bit_identical(one, rk4_path(form, y0[None], 0.0, 0.1, 10, 3)[1][:, 0])


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["none", "linear"]),
       p=st.lists(st.sampled_from([0.0, -0.0, 1.3, -2.5e-3, 1e308, math.inf, math.nan]),
                  min_size=4, max_size=4),
       rest=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))
def test_a_free_or_linear_run_gives_the_bits_of_the_stacked_binding(name, p, rest):
    # every sample, or every field of the divergence, of the float kernel
    # that holds the zero-rate components equals that of the stacked one
    with pytest.MonkeyPatch.context() as mp:
        rates = _hamilton_rates(mp, HAMILTON_POTENTIALS[name])
    y0 = np.array(rest[:4] + p + rest[4:])
    try:
        _, one = rk4_path(rates, y0, 0.25, 1e-2, 30, 7)
    except IntegrationDiverged:
        _straight_line_divergence(rates, y0, 1e-2, 30, 7)
    else:
        _assert_bit_identical(one, rk4_path(rates, y0[None], 0.25, 1e-2, 30, 7)[1][:, 0])


P_HELD, X_DEAD = ("p0", "p1", "p2", "p3"), ("x0", "x1", "x2", "x3")
SHIPPED_KERNELS = {  # name: (held, unread positions); no shipped form reads its time
    "free_cmf": (P_HELD, X_DEAD), "free_boosted": (P_HELD, X_DEAD),
    "superluminal": (P_HELD, X_DEAD), "general_n2": ((), X_DEAD),
    "nonrel_circle": ((), X_DEAD[:3]), "nonrel_gaussian_barrier": ((), ()),
    "nonrel_harmonic": ((), ())}


@pytest.mark.parametrize("name", sorted(SHIPPED_KERNELS))
def test_the_kernel_of_a_shipped_start_holds_its_zero_rate_components(monkeypatch, name):
    # and assigns no stage value or time that the form does not read
    held, unread = SHIPPED_KERNELS[name]
    runs = []

    def spy(rates, y0, *args):
        runs.append((rates, np.array(y0, dtype=float)))
        raise KeyboardInterrupt

    for target in ("zitterkit.dynamics.rk4_path", "zitterkit.nonrel.rk4_path"):
        monkeypatch.setattr(target, spy)
    with pytest.raises(KeyboardInterrupt):
        cli.run_scenario(cli.load_scenario(
            os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{name}.json")))
    (rates, y0), = runs
    columns = dynamics._held(rates.text, y0.tolist())
    assert tuple(rates.args[c] for c in columns) == held
    source = _kernel_source(rates.text, held=columns)
    stores = [line.split(" = ")[0].strip() for line in source.splitlines() if " = " in line]
    assert [arg for arg in stores if arg in held] == list(held)  # once, before the loop
    assert set(stores).isdisjoint((rates.time, "_t") + unread)
    assert all(f"_k1_{c} " not in source for c in columns)


def test_a_form_that_reads_the_time_gets_every_stage_time():
    seen = []

    def rates(t, y):
        seen.append(t)
        return (-y,)

    t0, dt = 0.25, 0.1
    half = 0.5 * dt
    rk4_path(rates, [1.0], t0, dt, 3)
    stages = [[t, t + half, t + half, t + dt] for t in (t0 + i * dt for i in range(3))]
    assert seen == [t for step in stages for t in step]
    assert [t.hex() for t in seen] == [t.hex() for step in stages for t in step]


@pytest.mark.parametrize("y0", [np.array([1.0, -0.5]), np.array([[1.0, -0.5], [0.0, 2.0]])])
def test_a_form_without_a_time_name_runs_as_one_that_ignores_the_time(y0):
    _, got = rk4_path(FloatForm(("a", "b"), "-b, a"), y0, 0.0, 0.1, 20, 3)
    _, ref = rk4_path(FloatForm(("a", "b"), "-b, a", time="t"), y0, 0.0, 0.1, 20, 3)
    _assert_bit_identical(got, ref)


def test_forced_run_conserves_energy():
    # weak spatial harmonic potential: H including U must stay constant
    sol = standard_solution()
    pot = ScalarPotential.harmonic_spatial(0.05)
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, pot, 2.0, 1e-3)
    energy = traj["H"]
    assert np.abs(energy - energy[0]).max() <= 1e-8 * abs(energy[0])
    # momentum is no longer conserved once a force acts
    assert np.abs(traj["p"] - traj["p"][0]).max() > 1e-6


def test_harmonic_spatial_confines():
    # U = (k/2)|x|^2 with k > 0 pulls a particle at rest at x^1 = 1 back;
    # with the opposite sign convention x^1 reached 42 by tau = 20
    s0 = PhasePoint(x=FourVector(0, 1, 0, 0), p=FourVector(1, 0, 0, 0),
                    q=FourVector(1, 0, 0, 0), pi=FourVector.zero())
    traj = integrate_hamilton(s0, PARAMS, ScalarPotential.harmonic_spatial(0.05), 20.0, 1e-3)
    assert np.abs(traj["x"][:, 1]).max() <= 1.01
    energy = traj["H"]
    assert np.abs(energy - energy[0]).max() <= 1e-14


@pytest.mark.parametrize("k, time", [
    # at rest, p^0 = m, q^0 = 1 and pi^0 = 0, the time components stay put
    pytest.param(0.05, (0.0, PARAMS.m, 1.0, 0.0), id="0.05"),
    pytest.param(0.5, (0.0, PARAMS.m, 1.0, 0.0), id="0.5"),
    *(pytest.param(k, (0.7, 1.3, 1.1, pi0), id=f"{k}-moving-pi0={pi0}")
      for k in (0.05, 0.5) for pi0 in (0.2, -0.4)),
])
def test_rest_frame_hamilton_run_reproduces_integrate_nr(k, time):
    # the spatial blocks obey the non-relativistic equations, p = m v - k1 j
    # and pi = k1 a under the same force -grad U, and their rates never read
    # the time components (x^0, p^0, q^0, pi^0) = time, at rest or not
    x, v, a, j = (np.array(c) for c in ([1, .2, 0], [0, .3, .1], [.1, 0, .2], [0, -.1, .05]))
    m, k1 = PARAMS.m, PARAMS.k1
    x0, p0, q0, pi0 = time
    nr = integrate_nr(KinState3D(t=0.0, x=x, v=v, a=a, j=j), PARAMS, Potential3D.harmonic(k),
                      10.0, 1e-3)
    s0 = PhasePoint(x=FourVector(x0, *x), p=FourVector(p0, *(m * v - k1 * j)),
                    q=FourVector(q0, *v), pi=FourVector(pi0, *(k1 * a)))
    traj = integrate_hamilton(s0, PARAMS, ScalarPotential.harmonic_spatial(k), 10.0, 1e-3)
    assert np.array_equal(traj.times, nr.times)
    assert np.abs(traj["x"][:, 1:] - nr["x"]).max() <= 1e-14 * np.abs(nr["x"]).max()


def test_forced_run_stays_array_first(monkeypatch):
    # the potential is evaluated on raw arrays: no FourVector per RK4 stage or sample
    s0 = standard_solution().initial_phase_point()
    pot = ScalarPotential.harmonic_spatial(0.05)
    calls = []
    init = FourVector.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(FourVector, "__init__", counting_init)
    traj = integrate_hamilton(s0, PARAMS, pot, 10.0, 1e-3)
    assert len(traj) == 10001
    assert len(calls) <= 8


def test_general_n1_matches_hamilton(standard_run):
    sol, hamilton_traj = standard_run
    _, v0, a0 = eval_free(sol, 0.0)
    adot0 = FourVector.from_array(-sol.omega**2 * (v0.components - sol.p.components))
    traj = integrate_free_general_n(PARAMS, sol.x0, [v0, a0, adot0], math.pi, 1e-3)
    assert np.abs(traj["x"] - hamilton_traj["x"]).max() <= 1e-9
    assert np.abs(traj["v0_"] - hamilton_traj["v"]).max() <= 1e-9
    np.testing.assert_allclose(traj["p"][0], sol.p.components, atol=1e-12)


def test_general_n2_single_mode():
    params = ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25))
    amp = 0.2
    stack = [FourVector(1, amp, 0, 0), FourVector.zero(), FourVector(0, -amp, 0, 0),
             FourVector.zero(), FourVector(0, amp, 0, 0)]
    traj = integrate_free_general_n(params, FourVector.zero(), stack, 6 * math.pi, 2e-3)
    freq = estimate_frequency(traj.times, traj["v0_"][:, 1])
    assert freq == pytest.approx(1.0, abs=1e-3)


def test_general_n_zero_oscillation_is_uniform():
    params = ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25))
    v = FourVector(1, 0.25, 0, 0)
    stack = [v] + [FourVector.zero()] * 4
    traj = integrate_free_general_n(params, FourVector.zero(), stack, 2.0, 1e-2)
    assert np.abs(traj["v0_"] - v.components).max() <= 1e-12
    x_expected = np.outer(traj.times, v.components)
    assert np.abs(traj["x"] - x_expected).max() <= 1e-12


def test_general_n0_exact_uniform_motion():
    params = ModelParams(m=2.0, n=0)
    v = FourVector(1, 0.3, -0.1, 0)
    traj = integrate_free_general_n(params, FourVector.zero(), [v], 5.0, 1e-2)
    np.testing.assert_array_equal(traj["v0_"] - v.components, 0.0)
    np.testing.assert_allclose(traj["p"][0], 2.0 * v.components)


def test_monitor_standard_run(standard_run):
    _, traj = standard_run
    report = monitor(traj)
    assert report.momentum_drift == 0.0
    assert report.energy_rel_drift <= 1e-8
    assert report.pv_constraint <= 1e-8
    assert report.onshell_constraint <= 1e-8
    assert report.zbw_residual <= 1e-6
    assert report.dual_residual <= 1e-6
    assert report.spin_momentum_residual <= 1e-8
    assert report.spin_drift <= 1e-8


def test_monitor_newtonian_run():
    sol = make_free_solution(PARAMS, P_CMF, FourVector.zero(), FourVector.zero())
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, 1.0, 1e-3)
    report = monitor(traj)
    for value in report.as_dict().values():
        assert value <= 1e-12


def test_monitor_boosted_run_frame_independent_entries():
    sol = boosted_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, math.pi, 1e-3)
    report = monitor(traj)
    assert report.momentum_drift == 0.0
    assert report.energy_rel_drift <= 1e-8
    assert report.pv_constraint <= 1e-8
    assert report.onshell_constraint <= 1e-8
    assert report.zbw_residual <= 1e-6
    assert report.dual_residual <= 1e-6
    assert report.spin_momentum_residual <= 1e-8


def lorentz_boost(rapidity: float, theta: float, phi: float) -> np.ndarray:
    """The boost of ``rapidity`` along the unit vector at polar angle theta
    and azimuth phi, acting on contravariant components."""
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    lam = np.eye(4)
    lam[0, 0] = math.cosh(rapidity)
    lam[0, 1:] = lam[1:, 0] = math.sinh(rapidity) * n
    lam[1:, 1:] += (math.cosh(rapidity) - 1.0) * np.outer(n, n)
    return lam


@settings(max_examples=25, deadline=None)
@given(rapidity=st.floats(-2.0, 2.0), theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2.0 * math.pi))
def test_boosting_commutes_with_integrating(rapidity, theta, phi):
    # the free equations act alike on every component, so the run from the
    # boosted start is the boosted run.  Over 2000 random boosts (|rapidity|
    # <= 2, 200 steps) the blocks differed by at most 4.3e-16 of their
    # largest entry and the scalar records by 9.2e-16 cosh^2(rapidity)
    lam = lorentz_boost(rapidity, theta, phi)
    s0 = standard_solution().initial_phase_point()
    traj = integrate_hamilton(s0, PARAMS, None, 2.0, 1e-2)
    boosted = integrate_hamilton(PhasePoint.from_array(s0.as_array().reshape(4, 4) @ lam.T),
                                 PARAMS, None, 2.0, 1e-2)
    expected = traj.samples.reshape(-1, 4, 4) @ lam.T
    assert (np.abs(boosted.samples.reshape(-1, 4, 4) - expected).max()
            <= 2e-15 * np.abs(expected).max())
    for name in ("H", "pv", "onshell"):
        assert (np.abs(boosted[name] - traj[name]).max()
                <= 4e-15 * math.cosh(rapidity) ** 2)


def boosted_free_run(m, rapidity, theta, phi, cos_amp, sin_amp, periods, steps_per_period,
                     potential=None):
    """A run of whole periods from the start of the free solution of mass m
    whose momentum and amplitudes are ``lorentz_boost``ed from the rest
    frame, where the amplitudes are the spatial vectors ``cos_amp`` and
    ``sin_amp``; free unless a ``potential`` is given."""
    params = ModelParams(m=m)
    lam = lorentz_boost(rapidity, theta, phi)
    p, ca, sa = (FourVector.from_array(lam @ [t, *s])
                 for t, s in ((m, (0.0, 0.0, 0.0)), (0.0, cos_amp), (0.0, sin_amp)))
    sol = make_free_solution(params, p, ca, sa)
    period = 2.0 * math.pi / sol.omega
    traj = integrate_hamilton(sol.initial_phase_point(), params, potential, periods * period,
                              period / steps_per_period)
    assert len(traj) == periods * steps_per_period + 1
    return sol, traj


# an amplitude entry is 0 or at least 1e-3, so that an amplitude is exactly
# zero or clearly spacelike, as make_free_solution requires
AMPLITUDE = st.lists(st.floats(-0.3, 0.3).map(lambda a: a if abs(a) >= 1e-3 else 0.0),
                     min_size=3, max_size=3)
BOOSTED_FREE_RUNS = dict(
    m=st.floats(0.5, 2.0), rapidity=st.floats(-2.0, 2.0), theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi), cos_amp=AMPLITUDE, sin_amp=AMPLITUDE)


@settings(max_examples=25, deadline=None)
@given(**BOOSTED_FREE_RUNS)
def test_pv_equals_the_mass_along_boosted_free_runs(m, rapidity, theta, phi, cos_amp, sin_amp):
    # p is constant, and <p, v> - m and <p, pi> obey a linear system that
    # starts at 0, where RK4 keeps them, so only roundoff is left: over
    # 2000 uniform draws and 400 at the corners of the ranges (2 periods of
    # 256 steps) |<p, v> - m| reached 1.06e-15 of |p| |v| (Euclidean norms,
    # sample by sample)
    _, traj = boosted_free_run(m, rapidity, theta, phi, cos_amp, sin_amp, 2, 256)
    ps, vs = traj["p"], traj["v"]
    scale = np.linalg.norm(ps, axis=1) * np.linalg.norm(vs, axis=1)
    worst = float(np.max(np.abs((ps * METRIC * vs).sum(axis=1) - m) / scale))
    assert worst <= 4e-15


@settings(max_examples=25, deadline=None)
@given(**BOOSTED_FREE_RUNS)
def test_period_mean_of_v0_is_p0_over_m(m, rapidity, theta, phi, cos_amp, sin_amp):
    # the mean over whole periods of the integrated v0: the gap is RK4's
    # phase error, which falls 16x per halving of dt.  At 256 steps a period
    # it reached 1.13e-9 of p0/m over 2000 uniform draws and 1.56e-9 over
    # 400 at the corners of the ranges
    sol, traj = boosted_free_run(m, rapidity, theta, phi, cos_amp, sin_amp, 2, 256)
    drift = sol.p[0] / m
    mean = float(traj["v"][:-1, 0].mean())
    assert abs(mean - drift) <= 5e-9 * drift


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["none", "linear", "harmonic"]), **BOOSTED_FREE_RUNS)
def test_the_pauli_lubanski_vector_stays_orthogonal_to_p(name, m, rapidity, theta, phi,
                                                         cos_amp, sin_amp):
    # W = (1/2m) eps S p with the spin tensor S = v ^ pi, sample by sample,
    # also where a force turns p.  Only roundoff is left: over 1000 draws a
    # potential (a tenth at the corners of the ranges; 2 periods of 128
    # steps) |<W, p>| reached 7.1e-17 of |S| |p|^2 / m (Frobenius and
    # Euclidean norms)
    _, traj = boosted_free_run(m, rapidity, theta, phi, cos_amp, sin_amp, 2, 128,
                               HAMILTON_POTENTIALS[name])
    for p, s in zip(traj["p"], wedge(traj["v"], traj["r"])):
        w = pauli_lubanski(AntisymTensor4.from_matrix(s), FourVector.from_array(p), m)
        assert abs(dot(w, FourVector.from_array(p))) <= 2.5e-16 * np.linalg.norm(s) * (p @ p) / m


@settings(max_examples=25, deadline=None)
@given(**BOOSTED_FREE_RUNS)
def test_the_compton_frequency_is_boost_invariant(m, rapidity, theta, phi, cos_amp, sin_amp):
    # v - p/m turns at the Compton frequency in proper time in every frame.
    # The gap is RK4's phase lag, (omega h)^4 / 120 = 4.84e-8 at 128 steps a
    # period whatever the boost: over 3000 draws (a tenth at the corners of
    # the ranges; 2 and 3 periods) it read 4.8340e-8 to 4.8361e-8 of omega
    assume(any(cos_amp) or any(sin_amp))
    sol, traj = boosted_free_run(m, rapidity, theta, phi, cos_amp, sin_amp, 2, 128)
    zbw = traj["v"] - traj["p"] / m
    comp = 1 + int(np.argmax(np.abs(zbw[:, 1:]).max(axis=0)))
    omega = ModelParams(m=m).compton_frequency
    assert abs(estimate_frequency(traj.times, zbw[:, comp]) - omega) <= 5e-8 * omega


def test_integration_diverged_survives_pickling():
    # a public exception keeps its fields through pickling
    exc = IntegrationDiverged("step 7 is not finite", last_time=0.5, nonfinite=((1, 2),),
                              last_state=np.arange(4.0))
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is IntegrationDiverged and str(copy) == str(exc)
    assert (copy.last_time, copy.nonfinite) == (0.5, ((1, 2),))
    assert np.array_equal(copy.last_state, exc.last_state)


def test_monitor_requires_enough_samples():
    sol = standard_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, 3e-3, 1e-3)
    with pytest.raises(ValueError):
        monitor(traj)


@pytest.mark.parametrize("name, missing", [("free_general_n", "v"), ("nr", "p")])
def test_monitor_names_what_a_non_canonical_run_lacks(name, missing):
    traj = INTEGRATORS[name](0.01, 1e-3)
    with pytest.raises(KeyError, match=f"'{missing}' is neither a record nor a block"):
        monitor(traj)


def _post_processed(traj, potential, block):
    """The records of ``traj``'s samples and the monitor report of ``traj``'s
    times with them, computed in blocks of ``block`` rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "BLOCK_ROWS", block)
        records = dynamics._hamilton_records(traj.params, traj.samples, potential)
        report = monitor(Trajectory(traj.params, traj.times, traj.samples, traj.names, records))
    return records, report


@settings(max_examples=60, deadline=None)
@given(block=st.sampled_from([1, 2, 3, 7, 64, None]),
       length=st.sampled_from([(0, 5), (0, 6), (0, 7), (1, -1), (1, 0), (1, 1), (2, 3)]),
       name=st.sampled_from(sorted(HAMILTON_POTENTIALS)), start=st.sampled_from([0, 1]),
       tail=st.integers(0, 3), nan_at=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_the_post_processing_has_the_bits_of_one_block(block, length, name, start, tail,
                                                       nan_at):
    # records and monitor run block by block (None is a block of all rows),
    # each row by the same expressions, so every block size B gives the bits
    # of one block, for runs of 5, 6, 7, B-1, B, B+1 and 2B+3 rows, also
    # with a nonuniform tail of `tail` samples and a NaN planted in one v
    blocks, rows = length
    n = max(5, blocks * (block or 64) + rows)
    potential = HAMILTON_POTENTIALS[name]
    traj = integrate_hamilton(PhasePoint.from_array(_hamilton_starts()[start]), PARAMS,
                              potential, (n - 1) * 1e-3, 1e-3)
    assert len(traj) == n
    times, samples = traj.times.copy(), traj.samples.copy()
    tail = min(tail, n - 5)
    if tail:
        times[n - tail:] += 5e-4 * np.arange(1, tail + 1)
    if nan_at is not None:
        samples[int(nan_at * (n - 1)), 9] = np.nan
    traj = Trajectory(PARAMS, times, samples, traj.names, {})
    records, report = _post_processed(traj, potential, block or n)
    one_records, one_report = _post_processed(traj, potential, 10**9)
    assert records.keys() == one_records.keys()
    for key, value in records.items():
        assert value.tobytes() == one_records[key].tobytes(), key
    assert (np.array(dataclasses.astuple(report)).tobytes()
            == np.array(dataclasses.astuple(one_report)).tobytes())
    if nan_at is not None:
        assert math.isnan(report.pv_constraint) and math.isnan(report.spin_momentum_residual)


def _post_processing_peaks(rows):
    """Traced peaks over a free run of ``rows`` samples, in MiB: of its
    records and monitor, above the run's own arrays and the records it
    keeps; and of its CSV table, ``traj.table`` and ``_write_table``."""
    sol = standard_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, (rows - 1) * 1e-3, 1e-3)
    tracemalloc.start()
    try:
        records = dynamics._hamilton_records(PARAMS, traj.samples, None)
        monitor(Trajectory(PARAMS, traj.times, traj.samples, traj.names, records))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        header, table = traj.table("tau", cli._HAMILTON_COLUMNS)
        cli._write_table({"output": {"path": os.devnull}}, header, table)
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - sum(record.nbytes for record in records.values())) / 2**20, table_peak / 2**20


def test_the_post_processing_memory_does_not_grow_with_the_run():
    # its temporaries are bounded by BLOCK_ROWS: over free runs of 31,417
    # and 125,665 rows the peak above the kept records read 2.88 and 2.89
    # MiB (one block of all rows: 15.3 and 61.4 MiB).  4 MiB leaves a
    # margin of 1.1 MiB, and 0.25 MiB of growth is 25x the measured 0.01
    (short, short_table), (long, long_table) = (
        _post_processing_peaks(rows) for rows in (31_417, 125_665))
    assert short <= 4.0 and long <= 4.0
    assert long - short <= 0.25
    # the CSV table is stacked and written a block of cli.FORMAT_ROWS rows
    # at a time: its peak read 0.23 MiB at both lengths (the whole table
    # stacked: 4.69 and 18.35 MiB).  0.5 MiB is twice the measured peak,
    # and 0.05 MiB of growth is 100x the measured 0.0003
    assert short_table <= 0.5 and long_table <= 0.5
    assert long_table - short_table <= 0.05


def test_zbw_square_stays_spacelike_for_orthogonal_amplitudes(standard_run):
    # with <cos_amp, sin_amp> = 0 the oscillatory velocity part is spacelike
    _, traj = standard_run
    assert traj["zbw_square"].max() <= 1e-12
    sol = boosted_solution()
    assert abs(dot(sol.cos_amp, sol.sin_amp)) <= 1e-15
    traj_b = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, 1.0, 1e-3)
    assert traj_b["zbw_square"].max() <= 1e-12


def test_helix_geometry_boosted():
    # positions minus the drift lie on an ellipse in the oscillation plane
    sol = boosted_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, math.pi, 1e-3)
    rel = (traj["x"] - sol.x0.components
           - np.outer(traj.times, sol.p.components) / PARAMS.m)
    ea = sol.cos_amp.components
    ha = sol.sin_amp.components
    basis = np.linalg.qr(np.stack([ea, ha], axis=1))[0]  # Euclidean orthonormal
    coords = rel @ basis
    out_of_plane = rel - coords @ basis.T
    assert np.abs(out_of_plane).max() <= 1e-8

    u, v = coords[:, 0], coords[:, 1]
    design = np.stack([u * u, u * v, v * v, u, v, np.ones_like(u)], axis=1)
    _, svals, vt = np.linalg.svd(design, full_matrices=False)
    conic = vt[-1]
    assert np.abs(design @ conic).max() <= 1e-8
    a_c, b_c, c_c = conic[0], conic[1], conic[2]
    assert b_c * b_c - 4 * a_c * c_c < 0  # ellipse, not parabola/hyperbola


def test_mean_time_dilation_cmf():
    mean_v0, lorentz = mean_time_dilation(standard_solution())
    assert mean_v0 == pytest.approx(1.0, abs=1e-9)
    assert lorentz == pytest.approx(1.0)


def test_mean_time_dilation_boosted():
    sol = boosted_solution()
    mean_v0, lorentz = mean_time_dilation(sol)
    root2 = math.sqrt(2.0)
    assert mean_v0 == pytest.approx(root2, abs=1e-6)
    assert lorentz == pytest.approx(root2)
    # pointwise v0 is genuinely non-constant
    _, v, _ = sol.sample(np.linspace(0, math.pi, 512))
    assert v[:, 0].max() - v[:, 0].min() >= 0.19


def test_mean_time_dilation_constant_when_time_amplitudes_vanish():
    sol = make_free_solution(PARAMS, P_CMF, COS_AMP, SIN_AMP)
    taus = np.linspace(0, math.pi, 257)
    _, v, _ = sol.sample(taus)
    assert np.abs(v[:, 0] - sol.p[0] / PARAMS.m).max() <= 1e-15


def test_check_superluminal_examples():
    report = check_superluminal(standard_solution())
    assert report.max_coordinate_speed == pytest.approx(0.1, abs=1e-12)
    assert report.cm_speed == 0.0
    assert not report.superluminal_instants
    assert report.cm_subluminal

    fast = make_free_solution(PARAMS, P_CMF, FourVector(0, 1.5, 0, 0),
                              FourVector(0, 0, 1.5, 0))
    report = check_superluminal(fast)
    assert report.max_coordinate_speed == pytest.approx(1.5, abs=1e-12)
    assert report.cm_speed == 0.0
    assert report.superluminal_instants and report.cm_subluminal

    drifting = make_free_solution(PARAMS, FourVector(math.sqrt(2), 1, 0, 0),
                                  FourVector.zero(), FourVector.zero())
    report = check_superluminal(drifting)
    assert report.max_coordinate_speed == pytest.approx(1 / math.sqrt(2))
    assert report.cm_speed == pytest.approx(1 / math.sqrt(2))


def test_convergence_order_of_rk4():
    sol = standard_solution()
    errors = []
    dts = [4e-3, 2e-3, 1e-3]
    for dt in dts:
        traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, math.pi, dt)
        x_ref, v_ref, _ = sol.sample(traj.times)
        errors.append(max(np.abs(traj["x"] - x_ref).max(), np.abs(traj["v"] - v_ref).max()))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope >= 3.5


def test_newton_residual_on_integrated_solution(standard_run):
    # acceleration stack reconstructed from the samples by finite differences
    from zitterkit.lagrangian import newton_law_residual

    _, traj = standard_run
    h = traj.times[1] - traj.times[0]

    def d5(f):
        return (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)

    acc = traj["a"]
    adot = d5(acc)
    addot = d5(adot)
    worst = 0.0
    for i in range(0, len(addot), 97):
        stack = [FourVector.from_array(acc[i + 4]),
                 FourVector.from_array(adot[i + 2]),
                 FourVector.from_array(addot[i])]
        res = newton_law_residual(PARAMS, stack, FourVector.zero())
        worst = max(worst, np.abs(res.components).max())
    assert worst <= 1e-6


def test_an_in_place_edit_of_a_record_raises_and_leaves_monitor_unchanged():
    traj = integrate_hamilton(standard_solution().initial_phase_point(), PARAMS, None,
                              0.1, 1e-3)
    before = monitor(traj)
    h = traj["H"]
    with pytest.raises(ValueError, match="read-only"):
        h -= h[0]
    assert monitor(traj) == before
    nr = integrate_nr(NR_STARTS[1], PARAMS, Potential3D.harmonic(1.0), 0.1, 1e-3)
    assert not any(record.flags.writeable
                   for run in (traj, nr) for record in run.records.values())


def test_frequency_measurement_matches_model():
    sol = standard_solution()
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None, 2 * math.pi, 1e-3)
    freq = estimate_frequency(traj.times, traj["v"][:, 1])
    assert freq == pytest.approx(sol.omega, rel=1e-4)
    assert characteristic_frequencies(PARAMS) == pytest.approx([sol.omega])


def _split_on(monkeypatch, cpus):
    """Split every 1-D run with two or more groups across ``cpus`` processes;
    returns the list of the pids this process forks."""
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(dynamics, "SPLIT_WORK", 0)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


SPLIT_CASES = {
    "nr-harmonic": lambda mp: (_nr_rates(mp, Potential3D.harmonic(1.0)), _nr_state(NR_STARTS[1])),
    "nr-zero": lambda mp: (_nr_rates(mp, Potential3D.zero()), _nr_state(NR_STARTS[0])),
    "hamilton-none": lambda mp: (_hamilton_rates(mp, None), _hamilton_starts()[1]),
    "hamilton-harmonic": lambda mp: (_hamilton_rates(mp, HAMILTON_POTENTIALS["harmonic"]),
                                     _hamilton_starts()[0]),
    "general_n2": lambda mp: (_general_n_rates(mp, 2),
                              _general_n_state(2, *_general_n_starts(2)[1])),
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_a_split_run_gives_the_one_cpu_samples_bit_for_bit(monkeypatch, case, stride, cpus):
    rates, y0 = SPLIT_CASES[case](monkeypatch)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    times, one = rk4_path(rates, y0, 0.25, 1e-2, 200, stride)  # 7 does not divide 200
    forked = _split_on(monkeypatch, cpus)
    split_times, split = rk4_path(rates, y0, 0.25, 1e-2, 200, stride)
    # a bin per group where there is one group more than CPUs, else one per CPU
    assert len(forked) == {(3, 2): 2, (3, 3): 2, (4, 2): 1, (4, 3): 3}[len(rates.groups), cpus]
    assert np.array_equal(split_times, times)
    _assert_bit_identical(split, one)
    _assert_no_child_left()


def test_each_split_bin_compiles_its_kernel_in_the_process_that_runs_it(monkeypatch):
    rates, y0 = SPLIT_CASES["nr-harmonic"](monkeypatch)
    forked = _split_on(monkeypatch, 2)
    dynamics._straight_line_rk4.cache_clear()
    rk4_path(rates, y0, 0.0, 1e-2, 100)
    # the kernel of the bin run here; each child compiled its own
    assert len(forked) == 2 and dynamics._straight_line_rk4.cache_info().currsize == 1
    _assert_no_child_left()


def test_a_gaussian_or_stacked_run_does_not_split(monkeypatch):
    gaussian = _nr_rates(monkeypatch, Potential3D.gaussian_barrier(0.5, 0.3))
    harmonic = _nr_rates(monkeypatch, Potential3D.harmonic(1.0))
    forked = _split_on(monkeypatch, 2)
    rk4_path(gaussian, _nr_state(NR_STARTS[1]), 0.25, 1e-2, 50)
    rk4_path(harmonic, np.array([_nr_state(s0) for s0 in NR_STARTS]), 0.25, 1e-2, 50)
    assert forked == []
    rk4_path(harmonic, _nr_state(NR_STARTS[1]), 0.25, 1e-2, 50)
    assert len(forked) == 2


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("axis, where", [(0, "parent"), (1, "child")])
def test_a_diverging_split_run_raises_the_one_cpu_error(monkeypatch, axis, where):
    # the harmonic group (0, 3, 6, 9) runs here, (1, 4, 7, 10) and (2, 5, 8, 11) in children
    rates = _nr_rates(monkeypatch, Potential3D.harmonic(1.0))
    y0 = np.zeros(12)
    y0[axis] = 1.0
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    with pytest.raises(IntegrationDiverged) as one:
        rk4_path(rates, y0, 0.0, 10.0, 100)
    forked = _split_on(monkeypatch, 2)
    with pytest.raises(IntegrationDiverged) as split:
        rk4_path(rates, y0, 0.0, 10.0, 100)
    assert len(forked) == 2
    one, split = one.value, split.value
    assert str(split) == str(one)
    assert (split.last_time, split.nonfinite) == (one.last_time, one.nonfinite)
    assert split.nonfinite[0] == (axis,) and one.last_time == 950.0
    _assert_bit_identical(split.last_state, one.last_state)
    _assert_no_child_left()


def _failing_bins(monkeypatch, failing, error):
    """Make every kernel raise ``error`` in the ``failing`` process (parent
    or child), and the child's sleep for a minute otherwise."""
    parent, kernel = os.getpid(), dynamics._straight_line_rk4

    def broken(text, stacked=False, held=()):
        run = kernel(text, stacked, held)

        def guarded(*args):
            here = os.getpid() == parent
            if here == (failing == "parent"):
                raise error("bin failed")
            return run(*args) if here else time.sleep(60)
        return guarded

    monkeypatch.setattr(dynamics, "_straight_line_rk4", broken)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_parent_bin_that_raises_leaves_no_child_and_no_open_part(monkeypatch, parts, error):
    rates, y0 = SPLIT_CASES["nr-harmonic"](monkeypatch)
    forked = _split_on(monkeypatch, 2)
    _failing_bins(monkeypatch, "parent", error)
    start = time.monotonic()
    with pytest.raises(error, match="bin failed") as raised:
        rk4_path(rates, y0, 0.0, 1e-2, 100)
    assert len(forked) == 2 and time.monotonic() - start < 30
    # closed, not merely unreferenced: the traceback held here keeps every frame
    assert raised.tb is not None and len(parts) == 2 and all(part.closed for part in parts)
    _assert_no_child_left()


def test_a_failing_child_bin_runs_that_bin_here(monkeypatch):
    rates, y0 = SPLIT_CASES["hamilton-none"](monkeypatch)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    _, one = rk4_path(rates, y0, 0.0, 1e-2, 100, 3)
    forked = _split_on(monkeypatch, 2)
    _failing_bins(monkeypatch, "child", RuntimeError)
    _, split = rk4_path(rates, y0, 0.0, 1e-2, 100, 3)
    assert len(forked) == 1
    _assert_bit_identical(split, one)
    _assert_no_child_left()


def test_a_child_bin_that_dies_gives_the_one_cpu_samples(monkeypatch):
    rates, y0 = SPLIT_CASES["nr-harmonic"](monkeypatch)
    monkeypatch.setattr(dynamics, "usable_cpus", lambda: 1)
    _, one = rk4_path(rates, y0, 0.0, 1e-2, 100, 3)
    forked = _split_on(monkeypatch, 2)
    parent, kernel = os.getpid(), dynamics._straight_line_rk4

    def dying(text, stacked=False, held=()):
        run = kernel(text, stacked, held)
        return lambda *args: run(*args) if os.getpid() == parent else os._exit(9)

    monkeypatch.setattr(dynamics, "_straight_line_rk4", dying)
    _, split = rk4_path(rates, y0, 0.0, 1e-2, 100, 3)
    assert len(forked) == 2
    _assert_bit_identical(split, one)
    _assert_no_child_left()


def test_a_split_run_overflows_as_quietly_as_one_cpu(monkeypatch, capfd):
    # exp(-x0 / 0.001) overflows at x0 = -1 in every step; each bin, in
    # this process or a child, runs under the one-CPU error state
    rates = _nr_rates(monkeypatch, Potential3D.smoothed_step(0.1, 0.001))
    y0 = np.zeros(12)
    y0[0] = -1.0
    forked, runs = _split_on(monkeypatch, 2), []
    for cpus in (1, 2):
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: cpus)
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(rk4_path(rates, y0, 0.0, 1e-3, 10_000, 100)[1])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capfd.readouterr().err == ""
    assert len(forked) == 2
    _assert_bit_identical(runs[1], runs[0])
    _assert_no_child_left()


@pytest.mark.parametrize("groups, count, bins", [
    (((0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11)), 2, [[0, 2, 3, 5, 6, 8, 9, 11], [1, 4, 7, 10]]),
    (((0, 1, 2, 3, 4), (5, 6, 7), (8, 9, 10)), 2, [[5, 6, 7, 8, 9, 10], [0, 1, 2, 3, 4]]),
    (((0, 4), (1, 5), (2, 6), (3, 7)), 3, [[0, 3, 4, 7], [1, 5], [2, 6]]),
])
def test_bins_balance_the_component_count_largest_first(groups, count, bins):
    assert dynamics._bins(groups, count) == bins
