"""Float forms and the straight-line RK4 kernel that splices them."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zitterkit
from zitterkit import dynamics, forms, nonrel
from zitterkit.dynamics import integrate_free_general_n, integrate_hamilton
from zitterkit.forms import FloatForm, rk4_path
from zitterkit.lagrangian import ModelParams, PhasePoint, ScalarPotential, coordinates
from zitterkit.minkowski import FourVector
from zitterkit.nonrel import KinState3D, Potential3D, integrate_newtonian, integrate_nr

PARAMS = ModelParams(m=1.0)


def _user_fn(x):
    return 0.3 * (x**2).sum(-1) + 0.1 * x[..., 0] * x[..., 1]


def _user_grad(x):
    g = 0.6 * x
    g[..., 0] += 0.1 * x[..., 1]
    g[..., 1] += 0.1 * x[..., 0]
    return g


POTENTIALS_3D = {
    "zero": Potential3D.zero,
    "uniform": lambda: Potential3D.uniform_force([0.3, -0.0, 0.1]),
    "harmonic": lambda: Potential3D.harmonic(1.3),
    "gaussian": lambda: Potential3D.gaussian_barrier(0.5, 0.3),
    "step": lambda: Potential3D.smoothed_step(0.8, 0.5),
    "user_fn": lambda: Potential3D(_user_fn, label="user_fn"),
    "user_grad": lambda: Potential3D(_user_fn, grad=_user_grad, label="user_grad"),
}

POTENTIALS_4D = {
    "none": lambda: None,
    "zero": ScalarPotential.zero,
    "linear": lambda: ScalarPotential.linear([0.02, 0.01, -0.0, 0.03]),
    "harmonic": lambda: ScalarPotential.harmonic_spatial(0.05),
    "user_fn": lambda: ScalarPotential(_user_fn, label="user_fn"),
    "user_grad": lambda: ScalarPotential(_user_fn, grad=_user_grad, label="user_grad"),
}

GENERAL_N_PARAMS = {
    1: PARAMS,
    2: ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25)),
    3: ModelParams(m=1.0, n=3, k=(1.0, -1.5, 0.5, -0.05)),
}


def _form_of(module, integrate):
    """The float form that ``integrate()`` hands to ``module.rk4_path``."""
    seen = []
    original = module.rk4_path

    def spy(rates, *args):
        seen.append(rates)
        return original(rates, *args)

    module.rk4_path = spy
    try:
        integrate()
    finally:
        module.rk4_path = original
    return seen[0]


def _nr_form(pot):
    s0 = KinState3D(t=0.0, x=[0.1, 0, 0], v=[0, 0, 0], a=[0, 0, 0], j=[0, 0, 0])
    return _form_of(nonrel, lambda: integrate_nr(s0, PARAMS, pot, 1e-3, 1e-3))


def _newtonian_form(pot):
    return _form_of(nonrel, lambda: integrate_newtonian([0.1, 0, 0], [0, 0, 0], PARAMS, pot,
                                                        1e-3, 1e-3))


def _hamilton_form(pot):
    s0 = PhasePoint(x=FourVector(0, 0.1, 0, 0), p=FourVector(1, 0, 0, 0),
                    q=FourVector(1, 0, 0, 0), pi=FourVector(0, 0, 0.01, 0))
    # k1 = -1/5.2 is no power of two, so pi / k1 and pi * (1 / k1) differ
    return _form_of(dynamics, lambda: integrate_hamilton(s0, ModelParams(m=1.3), pot,
                                                         1e-3, 1e-3))


def _general_n_form(n):
    stack = [FourVector(1, 0.2, 0.1, 0)] + [FourVector(0, 0.1, -0.2, 0.3)] * (2 * n)
    return _form_of(dynamics, lambda: integrate_free_general_n(
        GENERAL_N_PARAMS[n], FourVector.zero(), stack, 1e-3, 1e-3))


CASES = {
    **{f"nr-{name}": (lambda make=make: _nr_form(make()))
       for name, make in POTENTIALS_3D.items()},
    **{f"newtonian-{name}": (lambda make=make: _newtonian_form(make()))
       for name, make in POTENTIALS_3D.items()},
    **{f"hamilton-{name}": (lambda make=make: _hamilton_form(make()))
       for name, make in POTENTIALS_4D.items()},
    **{f"general_n{n}": (lambda n=n: _general_n_form(n)) for n in GENERAL_N_PARAMS},
}

# finite components, signed zeros drawn on purpose
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("case", sorted(CASES))
def test_straight_line_kernel_equals_the_array_loop(case):
    # the kernel splices the form's text; the same kernel runs on floats and
    # on the columns of a one-member stack
    form = CASES[case]()
    assert isinstance(form, FloatForm)
    n = len(form.args)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(COMPONENT, min_size=n, max_size=n))
    def check(components):
        y0 = np.array(components)
        times, samples = rk4_path(form, y0, 0.25, 1e-3, 6, 4)
        ref_times, ref_samples = rk4_path(form, y0[None], 0.25, 1e-3, 6, 4)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(samples, ref_samples[:, 0])
        assert np.array_equal(np.signbit(samples), np.signbit(ref_samples[:, 0]))

    check()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacks_and_floats_run_one_source(case):
    # the executions (floats, columns) are bindings of one generated step
    # loop; only the line that stores a sample is written for each
    text = CASES[case]().text
    floats = forms._kernel_source(text).splitlines()
    columns = forms._kernel_source(text, stacked=True).splitlines()
    assert len(floats) == len(columns)
    differ = [(a.strip(), b.strip()) for a, b in zip(floats, columns) if a != b]
    assert len(differ) == 1
    assert differ[0][0].startswith("_pack(_samples, _j * ")
    assert differ[0][1].startswith("_samples[_j] = _stack((_y0, ")


def test_one_kernel_serves_every_strength_and_mass():
    forms._straight_line_rk4.cache_clear()
    s0 = KinState3D(t=0.0, x=[1.0, 0, 0], v=[0, 0.5, 0], a=[0, 0, 0], j=[0, 0, 0])
    for strength in (1.0, 2.0):
        for mass in (1.0, 2.0):
            integrate_nr(s0, ModelParams(m=mass), Potential3D.harmonic(strength), 1e-2, 1e-3)
    info = forms._straight_line_rk4.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)


def test_importing_the_cli_compiles_nothing():
    code = ("import zitterkit.cli\n"
            "from zitterkit import forms\n"
            "print(forms._straight_line_rk4.cache_info().currsize,"
            " forms._maker.cache_info().currsize)\n")
    src = os.path.dirname(os.path.dirname(zitterkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0"]


def test_forms_leave_underscore_names_to_the_kernel():
    with pytest.raises(ValueError, match="start with '_'.*'_v'"):
        rk4_path(FloatForm(("x", "_v"), "_v, -x", time="t"), np.zeros(2), 0.0, 0.1, 1)
    with pytest.raises(ValueError, match="start with '_'.*'_c'"):
        rk4_path(FloatForm(("x", "v"), "v, -_c * x", constants={"_c": 1.0}, time="t"),
                 np.zeros(2), 0.0, 0.1, 1)
    with pytest.raises(ValueError, match="start with '_'.*'_tmp'"):
        FloatForm(("x",), "_tmp", ["_tmp = 2.0 * x"])(1.0)


def test_forms_may_not_assign_to_their_names():
    form = FloatForm(("x", "v"), "v, -k * x", ["k = 2.0"], constants={"k": 1.0}, time="t")
    with pytest.raises(ValueError, match="assign.*'k'"):
        rk4_path(form, np.zeros(2), 0.0, 0.1, 1)
    with pytest.raises(ValueError, match="twice"):
        rk4_path(FloatForm(("x", "t"), "t, x", time="t"), np.zeros(2), 0.0, 0.1, 1)


def test_spliced_forms_may_not_share_a_constant():
    outer = FloatForm(coordinates(3), "g0, g1, g2", constants={"u_s": 2.0}, time="t")
    with pytest.raises(ValueError, match="share the constants \\['u_s'\\]"):
        outer.spliced(Potential3D.harmonic(1.0).partials_form, ("g0", "g1", "g2"))
    with pytest.raises(ValueError, match="not arguments"):
        FloatForm(("x0",), "g0", time="t").spliced(
            Potential3D.harmonic(1.0).partials_form, ("g0", "g1", "g2"))


def test_a_form_runs_the_same_text_it_splices():
    pot = Potential3D.gaussian_barrier(0.5, 0.3)
    form = pot.partials_form
    assert pot.partials is form
    point = [0.4, -0.23, 0.17]
    got = form(*point)
    assert [type(v) for v in got] == [float] * 3
    columns = form(*np.array([point, point]).T)
    assert np.array_equal(np.array(got), np.array(columns)[:, 0])
    # the call form of a user potential reads its partials at build time
    user = Potential3D(_user_fn, grad=_user_grad)
    assert user.partials_form.result == "u_partials(x0, x1, x2)"
    assert user.partials_form.constants == {"u_partials": user.partials}


def test_rates_of_the_wrong_length_raise_in_both_executions():
    form = FloatForm(("x", "v"), "v, -x, x", time="t")
    for y0 in (np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(ValueError):
            rk4_path(form, y0, 0.0, 0.1, 2)


def test_a_tuple_result_is_assigned_element_by_element_only_when_that_is_exact():
    assert forms.assignments(("a", "b"), "x, (y + 1.0) * x") == ["a = x", "b = (y + 1.0) * x"]
    assert forms.assignments(("a", "b"), "b, a") == ["a, b, = b, a"]
    assert forms.assignments(("a", "b"), "x, y, z") == ["a, b, = x, y, z"]
    assert forms.assignments(("a", "b"), "f(x)") == ["a, b, = f(x)"]


def _per_block(width: int, blocks: int) -> tuple:
    """The groups of a state of ``width`` components in which component c
    belongs to block c % blocks."""
    return tuple(tuple(range(b, width, blocks)) for b in range(blocks))


# potentials whose partials leave the axes apart: every built-in but the gaussian
SEPARABLE = {"zero", "uniform", "harmonic", "step", "none", "linear"}


def _expected_groups(case: str) -> tuple:
    integrator, _, potential = case.partition("-")
    if integrator.startswith("general_n"):
        return _per_block(4 * (2 * int(integrator[-1]) + 1), 4)
    width, blocks = {"nr": (12, 3), "newtonian": (6, 3), "hamilton": (16, 4)}[integrator]
    return _per_block(width, blocks) if potential in SEPARABLE else (tuple(range(width)),)


@pytest.mark.parametrize("case", sorted(CASES))
def test_groups_of_every_integrator_form(case):
    assert CASES[case]().groups == _expected_groups(case)


@pytest.mark.parametrize("case", sorted(case for case in CASES
                                        if len(_expected_groups(case)) > 1))
def test_a_restricted_form_runs_its_columns_bit_for_bit(case):
    form = CASES[case]()
    n = len(form.args)
    y0 = np.linspace(-0.9, 0.8, n) + 0.05
    _, whole = rk4_path(form, y0, 0.25, 1e-2, 40, 3)
    for columns in form.groups + (sorted(form.groups[0] + form.groups[-1]),):
        part = form.restricted(columns)
        assert part.args == tuple(form.args[c] for c in columns)
        assert len(part.lines) <= len(form.lines)
        _, samples = rk4_path(part, y0[list(columns)], 0.25, 1e-2, 40, 3)
        assert np.array_equal(samples, whole[:, list(columns)])
        assert np.array_equal(np.signbit(samples), np.signbit(whole[:, list(columns)]))
    with pytest.raises(ValueError, match="not a union of the groups"):
        form.restricted(form.groups[0][:-1])


def test_a_restricted_form_keeps_only_the_lines_of_its_groups():
    form = _nr_form(Potential3D.harmonic(1.3))
    part = form.restricted((1, 4, 7, 10))
    assert part.lines == ("g1 = u_s * x1",)
    assert part.result == "v1, a1, j1, inv_lam * (neg_m * a1 - g1)"
    assert (part.constants, part.time) == (form.constants, "t")
    one = FloatForm(("x", "v"), "c, -k * v", constants={"k": 2.0, "c": 3.0}).restricted((1,))
    assert (one.args, one.result) == (("v",), "-k * v,")
    assert one(0.5) == (-1.0,)


@pytest.mark.parametrize("form", [
    FloatForm.call(lambda t, x, v: (v, -x), ("x", "v"), time="t"),
    FloatForm(("x", "v"), "f(v, x)", constants={"f": lambda v, x: (v, -x)}),
    FloatForm(("x", "v"), "v, -x, 0.0"),
    FloatForm(("x", "v"), "(*w,)", ["w = v, -x"]),
    FloatForm(("x", "v"), "v, w", ["w = -x; z = v"]),
    FloatForm(("x", "v"), "v, w", ["w = z = -x"]),
    FloatForm(("x", "v"), "v, w[0]", ["w = [0.0]", "w[0] = -x"]),
    FloatForm(("x", "v"), "1.0, w", ["u = (w := -x)"]),
], ids=["call", "call-constant", "long-result", "starred", "two-statements", "chained",
        "subscript-target", "assignment-expression"])
def test_a_form_that_cannot_be_analysed_is_one_group(form):
    assert form.groups == ((0, 1),)
    assert form.restricted((0, 1)) is form
    with pytest.raises(ValueError, match="not a union of the groups"):
        form.restricted((0,))
