"""Three-dimensional non-relativistic theory.

The force law is fourth order in time: F = m a + (hbar^2 / 4 m c^4) d2a/dt2.
Alongside the integrator this module provides the generalized kinetic-energy
split, the work integral, total-energy bookkeeping and the detector for
classically forbidden barrier traversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import rk4_path, step_count
from .lagrangian import ModelParams, Potential, _constant_binder

__all__ = [
    "KinState3D",
    "Potential3D",
    "EnergyBreakdown",
    "Trajectory3D",
    "BarrierInterval",
    "zbw_coefficient",
    "nr_momentum",
    "integrate_nr",
    "integrate_newtonian",
    "energy_breakdown",
    "work_integral",
    "barrier_report",
    "quantum_potential_analogue",
]


def _vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def zbw_coefficient(params: ModelParams) -> float:
    """Strength hbar^2 / (4 m c^4) of the non-Newtonian terms."""
    return params.hbar**2 / (4.0 * params.m * params.c**4)


@dataclass(frozen=True, eq=False)
class KinState3D:
    """Fourth-order kinematic state: position, velocity, acceleration, jerk."""

    t: float
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        for name in ("x", "v", "a", "j"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))


class Potential3D(Potential):
    """Scalar potential on 3-space: points have a trailing axis of size 3 and
    ``gradient`` returns dU/dx_i (see :class:`~zitterkit.lagrangian.Potential`)."""

    @classmethod
    def uniform_force(cls, force) -> "Potential3D":
        """Linear potential U = -F.x giving the constant force F."""
        f = _vec3(force, "force")
        return cls(lambda x: -(np.asarray(x) * f).sum(-1),
                   binder=_constant_binder(-f), label="uniform")

    @classmethod
    def harmonic(cls, strength: float) -> "Potential3D":
        s = np.array(float(strength))
        return cls(lambda x: 0.5 * s * (np.asarray(x) ** 2).sum(-1),
                   binder=lambda x, out: partial(np.multiply, s, x, out),
                   label="harmonic")

    @classmethod
    def gaussian_barrier(cls, height: float, width: float) -> "Potential3D":
        u0 = float(height)
        sig2 = float(width) ** 2
        two_sig2 = 2.0 * sig2

        def envelope(r2):
            return u0 * np.exp(-r2 / two_sig2)

        def fn(x):
            return envelope((np.asarray(x, dtype=float) ** 2).sum(-1))

        def bind(x, out):
            t, neg_sig2 = np.empty_like(x), np.array(-sig2)
            square, div, mul, add_reduce = np.square, np.divide, np.multiply, np.add.reduce

            # (-x) / sig2 * fn(x)[..., None] as x / (-sig2), the squares summed
            # by the reduction .sum(-1) runs in fn; for one point the envelope
            # stays numpy scalar arithmetic, cheaper than 0-d ufuncs with out
            def g():
                e = envelope(add_reduce(square(x, t), -1))
                mul(div(x, neg_sig2, t), e[..., None], out)
            return g

        return cls(fn, binder=bind, label="gaussian")

    @classmethod
    def smoothed_step(cls, height: float, width: float) -> "Potential3D":
        """Sigmoid step along the first axis, U = height / (1 + exp(-x/width))."""
        u0 = float(height)
        sig = float(width)

        def _sigmoid(x0):
            return 1.0 / (1.0 + np.exp(-x0 / sig))

        def fn(x):
            return u0 * _sigmoid(np.asarray(x, dtype=float)[..., 0])

        def bind(x, out):
            x0, along, across = x[..., 0], out[..., 0], out[..., 1:]

            def g():
                s = _sigmoid(x0)
                across[...] = 0.0
                along[...] = u0 * s * (1.0 - s) / sig
            return g

        return cls(fn, binder=bind, label="step")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic-energy split of the fourth-order theory.

    ``kinetic_zbw`` is the non-Newtonian term -(hbar^2/4mc^4)(a^2/2 - adot.v);
    it doubles as the classical analogue of the quantum potential.
    """

    kinetic_newton: float
    kinetic_zbw: float
    kinetic: float
    potential: float
    total: float

    @property
    def quantum_potential(self) -> float:
        return self.kinetic_zbw


def _kinetic_zbw(params: ModelParams, vs, accs, jerks):
    """Non-Newtonian kinetic term -(hbar^2/4mc^4)(a^2/2 - adot.v) of each
    row of the (..., 3) velocity, acceleration and jerk arrays."""
    return -zbw_coefficient(params) * (0.5 * (accs**2).sum(-1) - (jerks * vs).sum(-1))


def energy_breakdown(params: ModelParams, s: KinState3D, pot: Potential3D) -> EnergyBreakdown:
    kn = 0.5 * params.m * float(np.dot(s.v, s.v))
    kz = float(_kinetic_zbw(params, s.v, s.a, s.j))
    u = pot.value(s.x)
    return EnergyBreakdown(kinetic_newton=kn, kinetic_zbw=kz, kinetic=kn + kz,
                           potential=u, total=kn + kz + u)


def nr_momentum(params: ModelParams, s: KinState3D) -> np.ndarray:
    """Conserved 3-momentum m v + (hbar^2 / 4 m c^4) adot."""
    return params.m * s.v + zbw_coefficient(params) * s.j


def quantum_potential_analogue(params: ModelParams, s: KinState3D) -> float:
    """Classical counterpart of the quantum potential of wave mechanics:
    -(hbar^2 / 4 m c^4) (a^2/2 - adot.v), identical to the non-Newtonian
    kinetic term."""
    return float(_kinetic_zbw(params, s.v, s.a, s.j))


@dataclass(frozen=True, eq=False)
class Trajectory3D:
    """Sampled non-relativistic trajectory with per-sample energy records."""

    params: ModelParams
    times: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    jerks: np.ndarray
    e_newton: np.ndarray
    e_zbw: np.ndarray
    e_kinetic: np.ndarray
    e_potential: np.ndarray
    e_total: np.ndarray
    newtonian: bool = False

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> KinState3D:
        return KinState3D(t=float(self.times[i]), x=self.xs[i], v=self.vs[i],
                          a=self.accs[i], j=self.jerks[i])

    def breakdown(self, i: int) -> EnergyBreakdown:
        return EnergyBreakdown(
            kinetic_newton=float(self.e_newton[i]), kinetic_zbw=float(self.e_zbw[i]),
            kinetic=float(self.e_kinetic[i]), potential=float(self.e_potential[i]),
            total=float(self.e_total[i]))


def _make_traj(params, pot, times, xs, vs, accs, jerks, newtonian=False) -> Trajectory3D:
    kn = 0.5 * params.m * (vs**2).sum(1)
    if newtonian:
        kz = np.zeros(len(times))
    else:
        kz = _kinetic_zbw(params, vs, accs, jerks)
    u = pot.value_many(xs)
    return Trajectory3D(params=params, times=times, xs=xs, vs=vs, accs=accs,
                        jerks=jerks, e_newton=kn, e_zbw=kz, e_kinetic=kn + kz,
                        e_potential=u, e_total=kn + kz + u, newtonian=newtonian)


def integrate_nr(s0: KinState3D, params: ModelParams, pot: Potential3D,
                 t_end: float, dt: float, stride: int = 1) -> Trajectory3D:
    """RK4 on the 12-dimensional first-order reduction of the force law.

    The highest derivative is solved for algebraically:
    djdt = (4 m c^4 / hbar^2) (F(x) - m a) with F = -grad U.
    """
    n_steps = step_count(t_end, dt)
    neg_m = np.array(-params.m)
    inv_lam = np.array(1.0 / zbw_coefficient(params))
    mul, sub = np.multiply, np.subtract

    def deriv(y, out):
        x, xva, a = y[..., 0:3], y[..., 3:12], y[..., 6:9]
        rates, jdot = out[..., 0:9], out[..., 9:12]
        g, ma = np.empty_like(a), np.empty_like(a)
        grad = pot.bind(x, g)

        def f(t):
            rates[...] = xva
            grad()
            # (-m a) - g is (-g) - m a bit for bit, signed zeros included
            mul(inv_lam, sub(mul(neg_m, a, ma), g, ma), jdot)
        return f

    y0 = np.concatenate([s0.x, s0.v, s0.a, s0.j])
    times, samples = rk4_path(deriv, y0, s0.t, dt, n_steps, stride)
    return _make_traj(params, pot, times, samples[:, 0:3], samples[:, 3:6],
                      samples[:, 6:9], samples[:, 9:12])


def integrate_newtonian(x0, v0, params: ModelParams, pot: Potential3D,
                        t_end: float, dt: float, stride: int = 1) -> Trajectory3D:
    """Plain second-order Newtonian control run, m a = F.

    Recorded accelerations are F/m and jerks are zero; the energy samples use
    the Newtonian kinetic term only.
    """
    n_steps = step_count(t_end, dt)
    x0 = _vec3(x0, "x0")
    v0 = _vec3(v0, "v0")
    m, neg_m, div = np.array(params.m), np.array(-params.m), np.divide

    def deriv(y, out):
        x, v = y[..., 0:3], y[..., 3:6]
        xdot, vdot = out[..., 0:3], out[..., 3:6]
        g = np.empty_like(v)
        grad = pot.bind(x, g)

        def f(t):
            xdot[...] = v
            grad()
            div(g, neg_m, vdot)  # (-g) / m
        return f

    y0 = np.concatenate([x0, v0])
    times, samples = rk4_path(deriv, y0, 0.0, dt, n_steps, stride)
    xs = samples[:, 0:3]
    accs = -pot.gradient(xs) / m
    jerks = np.zeros_like(xs)
    return _make_traj(params, pot, times, xs, samples[:, 3:6], accs, jerks,
                      newtonian=True)


def work_integral(traj: Trajectory3D, pot: Potential3D) -> float:
    """Trapezoidal integral of F . v along the trajectory.

    Equals the change of the generalized kinetic energy between the endpoints
    on any exact solution of the force law.
    """
    if len(traj) < 2:
        raise ValueError("work integral needs at least 2 samples")
    force = -pot.gradient(traj.xs)
    integrand = (force * traj.vs).sum(1)
    dt = np.diff(traj.times)
    return float(0.5 * ((integrand[1:] + integrand[:-1]) * dt).sum())


@dataclass(frozen=True)
class BarrierInterval:
    """One maximal stretch of classically forbidden travel: the potential
    exceeds the conserved total energy while the speed stays nonzero."""

    t_start: float
    t_end: float
    max_excess: float
    min_v_squared: float


def barrier_report(traj: Trajectory3D, pot: Potential3D, margin: float = 1e-12,
                   merge_gap: int = 3) -> list[BarrierInterval]:
    """Maximal time intervals with U(x(t)) > E_total and v^2 > 0.

    Strict inequalities with ``margin`` guard against roundoff; intervals
    separated by fewer than ``merge_gap`` samples are merged.  Returns an
    empty list when the motion never enters a forbidden region (always the
    case for Newtonian runs).
    """
    u = pot.value_many(traj.xs)
    excess = u - traj.e_total
    v2 = (traj.vs**2).sum(1)
    mask = (excess > margin) & (v2 > margin)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev - 1 < merge_gap:
            prev = i
        else:
            runs.append((start, prev))
            start = prev = i
    runs.append((start, prev))
    return [
        BarrierInterval(
            t_start=float(traj.times[a]), t_end=float(traj.times[b]),
            max_excess=float(excess[a:b + 1].max()),
            min_v_squared=float(v2[a:b + 1].min()))
        for a, b in runs
    ]
