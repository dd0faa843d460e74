
import numpy as np
import pytest

from zitterkit.lagrangian import (
    ModelParams,
    PhasePoint,
    ScalarPotential,
    canonical_momentum,
    central_gradient,
    characteristic_frequencies,
    hamiltonian,
    lagrangian_value,
    newton_law_residual,
    pi_momentum,
)
from zitterkit.brackets import hamiltonian_function
from zitterkit.minkowski import METRIC, FourVector, dot
from zitterkit.nonrel import Potential3D


def test_params_physical_default():
    params = ModelParams(m=1.0)
    assert params.k == (1.0, -0.25)
    assert params.compton_frequency == pytest.approx(2.0)
    params2 = ModelParams(m=2.0)
    assert params2.k[1] == pytest.approx(-1.0 / 8.0)
    assert params2.compton_frequency == pytest.approx(4.0)


def test_params_newtonian_default():
    assert ModelParams(m=3.0, n=0).k == (3.0,)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m=-1.0)
    with pytest.raises(ValueError):
        ModelParams(m=1.0, n=1, k=(1.0, 0.25))  # wrong sign for k1
    with pytest.raises(ValueError):
        ModelParams(m=1.0, n=1, k=(2.0, -0.25))  # k0 != m
    with pytest.raises(ValueError):
        ModelParams(m=1.0, n=2)  # n >= 2 needs explicit coefficients
    with pytest.raises(ValueError):
        ModelParams(m=1.0, n=1, k=(1.0, -0.25, 0.1))  # wrong length
    with pytest.raises(ValueError):
        ModelParams(m=1.0, n=2, k=(1.0, -1.0, -0.5))  # k2 sign


@pytest.mark.parametrize("units", [{"hbar": 1e200}, {"c": 1e-100}, {"c": 1e100}])
def test_a_default_k1_out_of_the_float_range_names_hbar_m_and_c(units):
    # hbar**2 or c**4 overflows, or c**4 underflows to 0.0 and the division fails
    given = {"hbar": 1.0, "c": 1.0, **units}
    with pytest.raises(ValueError) as err:
        ModelParams(m=2.0, **units)
    assert str(err.value) == (f"k1 = -hbar^2/(4 m c^4) leaves the float range at "
                              f"hbar={given['hbar']}, m=2.0, c={given['c']}")


@pytest.mark.parametrize("hbar, m, c", [(1e150, 1.0, 1.0), (1.0, 1.0, 1e-70), (0.1, 3.0, 2.0)])
def test_a_finite_default_k1_keeps_its_bits(hbar, m, c):
    assert ModelParams(m=m, hbar=hbar, c=c).k1 == -hbar**2 / (4.0 * m * c**4)


def test_lagrangian_value_examples():
    v = FourVector(1, 0, 0, 0)
    assert lagrangian_value(ModelParams(m=1.0, n=0), [v]) == pytest.approx(0.5)

    params = ModelParams(m=1.0)
    stack = [FourVector(1, 0.1, 0, 0), FourVector(0, 0, 0.2, 0)]
    value = lagrangian_value(params, stack)
    assert value == pytest.approx(0.5)  # 0.5*0.99 + (-0.125)*(-0.04)

    # L_0 + U: the spatial kinetic terms carry the metric's minus sign
    assert lagrangian_value(params, stack, potential_energy=0.1) == pytest.approx(0.6)


def test_lagrangian_value_arity():
    params = ModelParams(m=1.0)
    with pytest.raises(ValueError):
        lagrangian_value(params, [FourVector(1, 0, 0, 0)])


def test_canonical_momentum_examples():
    params = ModelParams(m=1.0)
    stack = [FourVector(1, 0.1, 0, 0), FourVector(0, 0, 0.2, 0), FourVector(0, -0.4, 0, 0)]
    p = canonical_momentum(params, stack)
    np.testing.assert_allclose(p.components, [1, 0, 0, 0], atol=1e-15)

    v = FourVector(0.9, 0.2, 0, 0)
    p0 = canonical_momentum(ModelParams(m=1.5, n=0), [v])
    np.testing.assert_allclose(p0.components, 1.5 * v.components)

    rest = canonical_momentum(params, [v, FourVector.zero(), FourVector.zero()])
    np.testing.assert_allclose(rest.components, v.components)

    with pytest.raises(ValueError):
        canonical_momentum(params, stack[:2])


def test_pi_momentum_examples():
    params = ModelParams(m=1.0)
    pi = pi_momentum(params, FourVector(0, 0, 0.2, 0))
    np.testing.assert_allclose(pi.components, [0, 0, -0.05, 0])
    assert np.all(pi_momentum(params, FourVector.zero()).components == 0.0)

    heavier = ModelParams(m=2.0)
    pi2 = pi_momentum(heavier, FourVector(0, 0.8, 0, 0))
    np.testing.assert_allclose(pi2.components, [0, -0.1, 0, 0])

    with pytest.raises(ValueError):
        pi_momentum(ModelParams(m=1.0, n=0), FourVector.zero())


def test_hamiltonian_examples():
    params = ModelParams(m=1.0)
    point = PhasePoint(x=FourVector.zero(), p=FourVector(1, 0, 0, 0),
                       q=FourVector(1, 0.1, 0, 0), pi=FourVector(0, 0, -0.05, 0))
    assert hamiltonian(params, point) == pytest.approx(0.51, abs=1e-15)
    assert hamiltonian(params, point, potential_energy=0.1) == pytest.approx(0.41, abs=1e-15)

    onshell = PhasePoint(x=FourVector.zero(), p=FourVector(1, 0, 0, 0),
                         q=FourVector(1, 0, 0, 0), pi=FourVector.zero())
    assert hamiltonian(params, onshell) == pytest.approx(0.5)

    with pytest.raises(ValueError):
        hamiltonian(ModelParams(m=1.0, n=0), point)


def _free_derivative_stack(params, p, cos_amp, sin_amp, tau, orders):
    """Analytic derivatives of the oscillating free velocity, any order."""
    w = params.compton_frequency
    pc = p.components / params.m
    ea = cos_amp.components
    ha = sin_amp.components
    out = []
    for i in range(orders):
        # i-th derivative of cos/sin pair
        phase = 0.5 * np.pi * i
        ci = np.cos(w * tau + phase) * w**i
        si = np.sin(w * tau + phase) * w**i
        vec = ea * ci + ha * si
        if i == 0:
            vec = vec + pc
        out.append(FourVector.from_array(vec))
    return out


def test_newton_law_residual_examples():
    newton = ModelParams(m=1.0, n=0)
    res = newton_law_residual(newton, [FourVector(0, 1, 0, 0)], FourVector(0, 1, 0, 0))
    assert np.all(res.components == 0.0)

    params = ModelParams(m=1.0)
    p = FourVector(1, 0, 0, 0)
    cos_amp = FourVector(0, 0.1, 0, 0)
    sin_amp = FourVector(0, 0, 0.1, 0)
    for tau in (0.0, 0.37, 2.9):
        stack = _free_derivative_stack(params, p, cos_amp, sin_amp, tau, 4)
        accel_stack = stack[1:]  # a, adot, addot
        res = newton_law_residual(params, accel_stack, FourVector.zero())
        assert np.abs(res.components).max() <= 1e-12

    still = [FourVector.zero()] * 3
    res = newton_law_residual(params, still, FourVector(0, 0.3, 0, 0))
    np.testing.assert_allclose(res.components, [0, -0.3, 0, 0])

    with pytest.raises(ValueError):
        newton_law_residual(params, still[:2], FourVector.zero())


def test_characteristic_frequencies_examples():
    assert characteristic_frequencies(ModelParams(m=1.0)) == pytest.approx([2.0])
    assert characteristic_frequencies(ModelParams(m=2.0)) == pytest.approx([4.0])
    two_mode = ModelParams(m=1.0, n=2, k=(1.0, -1.25, 0.25))
    assert characteristic_frequencies(two_mode) == pytest.approx([1.0, 2.0])
    assert characteristic_frequencies(ModelParams(m=1.0, n=0)) == []


def test_characteristic_frequencies_consistency():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = [float(rng.uniform(0.2, 3.0)) * (-1.0) ** i for i in range(n + 1)]
        params = ModelParams(m=k[0], n=n, k=tuple(k))
        for w in characteristic_frequencies(params):
            terms = [params.k[i] * w ** (2 * i) for i in range(n + 1)]
            assert abs(sum(terms)) <= 1e-10 * max(abs(t) for t in terms)


def test_momentum_consistency_on_free_solution():
    params = ModelParams(m=1.0)
    p = FourVector(1, 0, 0, 0)
    cos_amp = FourVector(0, 0.1, 0, 0)
    sin_amp = FourVector(0, 0, 0.1, 0)
    for tau in (0.0, 1.1):
        stack = _free_derivative_stack(params, p, cos_amp, sin_amp, tau, 3)
        recovered = canonical_momentum(params, stack)
        np.testing.assert_allclose(recovered.components, p.components, atol=1e-12)
        # p = m q - k1 v^(2) written out
        direct = params.m * stack[0].components - params.k1 * stack[2].components
        np.testing.assert_allclose(recovered.components, direct, atol=1e-15)
        pi = pi_momentum(params, stack[1])
        np.testing.assert_allclose(pi.components, params.k1 * stack[1].components)


def test_scalar_potential_gradients():
    b = np.array([0.3, -1.2, 0.4, 2.0])
    lin = ScalarPotential.linear(b)
    x = np.array([0.5, 1.5, -2.0, 0.25])
    assert lin.value(x) == pytest.approx(dot(FourVector.from_array(b), FourVector.from_array(x)))
    # lower-index partials dU/dx^mu of b_mu x^mu
    assert np.array_equal(lin.gradient(x), METRIC * b)

    # finite-difference fallback agrees with the analytic gradient
    fd = ScalarPotential(lambda y: y @ (METRIC * b))
    np.testing.assert_allclose(fd.gradient(x), METRIC * b, rtol=1e-9, atol=1e-9)

    harm = ScalarPotential.harmonic_spatial(2.0)
    fd_harm = ScalarPotential(harm.value_many)
    np.testing.assert_allclose(fd_harm.gradient(x), harm.gradient(x), rtol=1e-8, atol=1e-8)

    assert ScalarPotential.zero().value(x) == 0.0
    assert np.all(ScalarPotential.zero().gradient(x) == 0.0)


def _smooth4(r):
    return np.sin(r[..., 0]) * np.exp(r[..., 1]) + (r**3).sum(-1) - r[..., 2] / (1 + r[..., 3]**2)


@pytest.mark.parametrize("f_rows, d", [
    (_smooth4, 4),
    (hamiltonian_function(ModelParams(m=1.0)), 16),
], ids=["smooth4", "hamiltonian16"])
def test_central_gradient_of_a_stack_matches_each_point(f_rows, d):
    xs = np.random.default_rng(5).uniform(-2, 2, size=(5, d))
    stacked = central_gradient(f_rows, xs, 1e-5)
    assert stacked.shape == xs.shape
    for x, g in zip(xs, stacked):
        assert np.array_equal(g, central_gradient(f_rows, x, 1e-5))


def _gaussian_textbook(u0, width):
    sig2 = width**2

    def fn(x):
        return u0 * np.exp(-(x**2).sum(-1) / (2.0 * sig2))
    return lambda x: -x / sig2 * fn(x)[..., None]


def _step_textbook(u0, sig):
    def grad(x):
        s = 1.0 / (1.0 + np.exp(-x[..., 0] / sig))
        g = np.zeros(x.shape)
        g[..., 0] = u0 * s * (1.0 - s) / sig
        return g
    return grad


def _harmonic_spatial_textbook(s):
    def grad(x):
        g = s * x
        g[..., 0] = 0.0
        return g
    return grad


# each built-in against the gradient expression it had before it was a binder
BUILTIN_GRADIENTS = {
    "zero": (Potential3D.zero(), lambda x: np.zeros(np.shape(x)), 3),
    "uniform": (Potential3D.uniform_force([0.3, -0.0, 0.2]),
                lambda x: np.broadcast_to(-np.array([0.3, -0.0, 0.2]), x.shape).copy(), 3),
    "harmonic": (Potential3D.harmonic(1.7), lambda x: np.multiply(np.array(1.7), x), 3),
    "gaussian": (Potential3D.gaussian_barrier(0.4, 1.3), _gaussian_textbook(0.4, 1.3), 3),
    "step": (Potential3D.smoothed_step(0.8, 0.5), _step_textbook(0.8, 0.5), 3),
    "linear": (ScalarPotential.linear([0.3, -1.2, 0.0, 2.0]),
               lambda x: np.broadcast_to(METRIC * np.array([0.3, -1.2, 0.0, 2.0]),
                                         x.shape).copy(), 4),
    "harmonic_spatial": (ScalarPotential.harmonic_spatial(2.0),
                         _harmonic_spatial_textbook(2.0), 4),
}


def _assert_bit_identical(got, ref):
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("name", sorted(BUILTIN_GRADIENTS))
def test_builtin_binders_match_the_textbook_gradient(name):
    pot, textbook, d = BUILTIN_GRADIENTS[name]
    stack = np.random.default_rng(11).uniform(-2, 2, size=(400, d))
    stack[1] = -0.0
    stack[2, ::2] = -0.0
    stack[3, 1:] = 0.0
    # gradient calls the partials on the columns, as the array RK4 loop does
    _assert_bit_identical(pot.gradient(stack), textbook(stack))
    for row in stack:
        _assert_bit_identical(pot.gradient(row), textbook(row.copy()))
        # the partials on floats, as the straight-line RK4 loop calls them,
        # give the same bits and keep to Python floats
        partials = pot.partials(*row.tolist())
        assert [type(v) for v in partials] == [float] * d
        _assert_bit_identical(np.array(partials), textbook(row.copy()))
