
import numpy as np
import pytest

from zitterkit.brackets import (
    BRACKET_ORIENTATION,
    bracket_rate,
    canonical_spin_function,
    coordinate,
    hamiltonian_function,
    poisson,
    verify_appendix,
)
from zitterkit.dynamics import integrate_hamilton, make_free_solution
from zitterkit.lagrangian import ModelParams, PhasePoint
from zitterkit.minkowski import FourVector

PARAMS = ModelParams(m=1.0)


def random_point(rng) -> PhasePoint:
    y = rng.uniform(-1, 1, size=16)
    return PhasePoint(x=FourVector.from_array(y[0:4]), p=FourVector.from_array(y[4:8]),
                      q=FourVector.from_array(y[8:12]), pi=FourVector.from_array(y[12:16]))


def test_conjugate_pair_carries_the_metric():
    # {x^1, p^1} picks up g^{11} = -1 from the lower-index derivative
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = random_point(rng)
        assert poisson(coordinate("x", 1), coordinate("p", 1), s) == pytest.approx(-1.0, abs=1e-10)
        assert poisson(coordinate("x", 0), coordinate("p", 0), s) == pytest.approx(1.0, abs=1e-10)
        assert poisson(coordinate("q", 2), coordinate("pi", 2), s) == pytest.approx(-1.0, abs=1e-10)
        # different blocks commute
        assert poisson(coordinate("x", 1), coordinate("pi", 1), s) == pytest.approx(0.0, abs=1e-10)


def test_bracket_of_function_with_itself_vanishes():
    rng = np.random.default_rng(1)
    f = lambda y: y[..., 5] * y[..., 10] + 0.3 * y[..., 0]
    for _ in range(5):
        s = random_point(rng)
        assert abs(poisson(f, f, s)) <= 1e-12


def test_hamiltonian_conserves_momentum():
    rng = np.random.default_rng(2)
    hf = hamiltonian_function(PARAMS)
    for _ in range(5):
        s = random_point(rng)
        for mu in range(4):
            assert abs(poisson(hf, coordinate("p", mu), s)) <= 1e-10


def test_antisymmetry_at_random_points():
    rng = np.random.default_rng(3)
    f = lambda y: y[..., 4] * y[..., 9] - 0.2 * y[..., 15] ** 2
    g = lambda y: y[..., 2] * y[..., 13] + y[..., 8]
    for _ in range(100):
        s = random_point(rng)
        assert abs(poisson(f, g, s) + poisson(g, f, s)) <= 1e-9


def test_leibniz_rule():
    rng = np.random.default_rng(4)
    f = lambda y: y[..., 5] * y[..., 9]
    g = lambda y: y[..., 1] + 0.5 * y[..., 10]
    h = lambda y: y[..., 13] - 0.25 * y[..., 0]
    gh = lambda y: g(y) * h(y)
    for _ in range(20):
        s = random_point(rng)
        y = s.as_array()
        lhs = poisson(f, gh, s)
        rhs = poisson(f, g, s) * h(y) + g(y) * poisson(f, h, s)
        assert abs(lhs - rhs) <= 1e-7


def test_bracket_linearity_in_scaling():
    rng = np.random.default_rng(5)
    s = random_point(rng)
    hf = hamiltonian_function(PARAMS)
    scaled = lambda y: 3.5 * hf(y)
    g = coordinate("x", 1)
    assert poisson(scaled, g, s) == pytest.approx(3.5 * poisson(hf, g, s), rel=1e-9, abs=1e-9)


def test_orientation_pins_position_rate():
    # dx/dtau = +q with the documented global orientation
    rng = np.random.default_rng(6)
    hf = hamiltonian_function(PARAMS)
    for _ in range(5):
        s = random_point(rng)
        for mu in range(4):
            rate = bracket_rate(hf, coordinate("x", mu), s)
            assert rate == pytest.approx(s.q[mu], abs=1e-9)
    assert BRACKET_ORIENTATION == -1.0


def test_verify_appendix_random_points():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        s = random_point(rng)
        report = verify_appendix(PARAMS, s)
        worst = max(worst, report.max_residual)
    assert worst <= 1e-9


def test_verify_appendix_on_shell_point():
    # q = p/m and pi = 0: the pi rate uses p - m q = 0 and returns zero
    p = FourVector(1, 0.2, 0, 0)
    s = PhasePoint(x=FourVector.zero(), p=p, q=p, pi=FourVector.zero())
    report = verify_appendix(PARAMS, s)
    assert report.pi_max <= 1e-12
    assert report.max_residual <= 1e-9


def test_verify_appendix_stays_array_first(monkeypatch):
    # the bracket engine works on raw 16-vectors: no FourVector per perturbed point
    s = random_point(np.random.default_rng(9))
    calls = []
    init = FourVector.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(FourVector, "__init__", counting_init)
    verify_appendix(PARAMS, s)
    assert len(calls) <= 8


def test_phase_point_array_round_trip():
    y = np.arange(16.0) - 7.5
    s = PhasePoint.from_array(y, tau=0.25)
    np.testing.assert_array_equal(s.q.components, y[8:12])
    assert s.tau == 0.25
    np.testing.assert_array_equal(s.as_array(), y)


def test_verify_appendix_rejects_wrong_order():
    s = PhasePoint(x=FourVector.zero(), p=FourVector(1, 0, 0, 0),
                   q=FourVector(1, 0, 0, 0), pi=FourVector.zero())
    with pytest.raises(ValueError):
        verify_appendix(ModelParams(m=1.0, n=0), s)


def test_spin_function_matches_expected_rate():
    rng = np.random.default_rng(8)
    hf = hamiltonian_function(PARAMS)
    for _ in range(10):
        s = random_point(rng)
        for mu in range(4):
            for nu in range(mu + 1, 4):
                rate = bracket_rate(hf, canonical_spin_function(mu, nu), s)
                expected = s.p[mu] * s.q[nu] - s.p[nu] * s.q[mu]
                assert rate == pytest.approx(expected, abs=1e-9)


def test_bracket_rates_match_trajectory_derivatives():
    sol = make_free_solution(PARAMS, FourVector(1, 0, 0, 0),
                             FourVector(0, 0.1, 0, 0), FourVector(0, 0, 0.1, 0))
    traj = integrate_hamilton(sol.initial_phase_point(), PARAMS, None,
                              0.5, 1e-3, stride=10)
    h = traj.times[1] - traj.times[0]
    blocks = traj.samples.reshape(len(traj), 4, 4)
    hf = hamiltonian_function(PARAMS)
    for i in (5, 20, 35):
        s = PhasePoint.from_array(traj.samples[i], tau=float(traj.times[i]))
        fd = (blocks[i - 2] - 8 * blocks[i - 1] + 8 * blocks[i + 1] - blocks[i + 2]) / (12 * h)
        for bi, name in enumerate(("x", "p", "q", "pi")):
            for mu in range(4):
                rate = bracket_rate(hf, coordinate(name, mu), s)
                assert rate == pytest.approx(fd[bi, mu], abs=1e-6)
