"""Three-dimensional non-relativistic theory.

The force law is fourth order in time: F = m a + (hbar^2 / 4 m c^4) d2a/dt2.
Alongside the integrator this module provides the generalized kinetic-energy
split, the work integral, total-energy bookkeeping and the detector for
classically forbidden barrier traversals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, rk4_path, step_count
from .forms import FloatForm
from .lagrangian import ModelParams, Potential, coordinates, potential_parameter

__all__ = [
    "KinState3D",
    "Potential3D",
    "EnergyBreakdown",
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


def _exp(z):
    """np.exp, which math.exp does not match bit for bit; for a float it
    returns a float, so the straight-line RK4 kernel stays on floats.  An
    array's overflow to inf is quiet, as in that kernel's errstate: the
    step's U and dU/dx take their right limit, 0, from it."""
    if type(z) is float:
        return float(np.exp(z))
    with np.errstate(over="ignore"):
        return np.exp(z)


def zbw_coefficient(params: ModelParams) -> float:
    """Strength -k1 of the non-Newtonian terms; hbar^2 / (4 m c^4) for the
    physical coefficient."""
    return -params.k1


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

    dim = 3

    @classmethod
    def uniform_force(cls, force) -> "Potential3D":
        """Linear potential U = -F.x giving the constant force F."""
        f = potential_parameter("uniform", "force", force, components=3)
        partials = {f"u_f{i}": value for i, value in enumerate((-f).tolist())}
        return cls(lambda x: -(np.asarray(x) * f).sum(-1),
                   partials=FloatForm(coordinates(3), ", ".join(partials), constants=partials),
                   label="uniform")

    @classmethod
    def harmonic(cls, strength: float) -> "Potential3D":
        s = float(potential_parameter("harmonic", "k", strength))
        return cls(lambda x: 0.5 * s * (np.asarray(x) ** 2).sum(-1),
                   partials=FloatForm(coordinates(3), "u_s * x0, u_s * x1, u_s * x2",
                                      constants={"u_s": s}),
                   label="harmonic")

    @classmethod
    def gaussian_barrier(cls, height: float, width: float) -> "Potential3D":
        u0 = float(potential_parameter("gaussian", "height", height))
        sig2 = float(potential_parameter("gaussian", "width", width, positive=True)) ** 2
        two_sig2 = 2.0 * sig2

        def fn(x):
            return u0 * np.exp(-(np.asarray(x, dtype=float) ** 2).sum(-1) / two_sig2)

        # (-x) / sig2 * U as x / (-sig2) * U; the squares are summed in the
        # order of fn's .sum(-1), (x0 x0 + x1 x1) + x2 x2
        partials = FloatForm(
            coordinates(3), "x0 / u_neg_sig2 * u_e, x1 / u_neg_sig2 * u_e, x2 / u_neg_sig2 * u_e",
            ["u_e = u_height * u_exp(-((x0 * x0 + x1 * x1) + x2 * x2) / u_two_sig2)"],
            {"u_height": u0, "u_two_sig2": two_sig2, "u_neg_sig2": -sig2, "u_exp": _exp})
        return cls(fn, partials=partials, label="gaussian")

    @classmethod
    def smoothed_step(cls, height: float, width: float) -> "Potential3D":
        """Sigmoid step along the first axis, U = height / (1 + exp(-x/width))."""
        u0 = float(potential_parameter("step", "height", height))
        sig = float(potential_parameter("step", "width", width, positive=True))

        def fn(x):
            return u0 * (1.0 / (1.0 + _exp(-np.asarray(x, dtype=float)[..., 0] / sig)))

        partials = FloatForm(
            coordinates(3), "u_height * u_s * (1.0 - u_s) / u_width, 0.0, 0.0",
            ["u_s = 1.0 / (1.0 + u_exp(-x0 / u_width))"],
            {"u_height": u0, "u_width": sig, "u_exp": _exp})
        return cls(fn, partials=partials, label="step")


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


def _energy_split(params: ModelParams, pot: Potential3D, xs, vs, accs, jerks,
                  newtonian: bool = False):
    """The fields of :class:`EnergyBreakdown`, T_newton, T_zbw, T, U and
    E_total, of each row of the (..., 3) state arrays; a Newtonian run has
    T_zbw = 0."""
    kn = 0.5 * params.m * (vs**2).sum(-1)
    kz = (np.zeros_like(kn) if newtonian else
          -zbw_coefficient(params) * (0.5 * (accs**2).sum(-1) - (jerks * vs).sum(-1)))
    u = pot.value_many(xs)
    return kn, kz, kn + kz, u, kn + kz + u


def energy_breakdown(params: ModelParams, s: KinState3D, pot: Potential3D) -> EnergyBreakdown:
    return EnergyBreakdown(*map(float, _energy_split(params, pot, s.x, s.v, s.a, s.j)))


def nr_momentum(params: ModelParams, s: KinState3D) -> np.ndarray:
    """Conserved 3-momentum m v + (hbar^2 / 4 m c^4) adot."""
    return params.m * s.v + zbw_coefficient(params) * s.j


def quantum_potential_analogue(params: ModelParams, s: KinState3D) -> float:
    """Classical counterpart of the quantum potential of wave mechanics:
    -(hbar^2 / 4 m c^4) (a^2/2 - adot.v), identical to the non-Newtonian
    kinetic term."""
    return energy_breakdown(params, s, Potential3D.zero()).kinetic_zbw


_ENERGIES = ("T_newton", "T_zbw", "T", "U", "E_total")


def integrate_nr(s0: KinState3D, params: ModelParams, pot: Potential3D,
                 t_end: float, dt: float, stride: int = 1) -> Trajectory:
    """RK4 on the 12-dimensional first-order reduction of the force law.

    The highest derivative is solved for algebraically:
    djdt = (F(x) - m a) / (-k1) with F = -grad U, where 1 / (-k1) is
    4 m c^4 / hbar^2 for the physical coefficient.  Raises ValueError
    unless the model is the first-order theory, n = 1.  The records are
    the fields of :class:`EnergyBreakdown`: ``T_newton``, ``T_zbw``, ``T``,
    ``U`` and ``E_total``.
    """
    if params.n != 1:
        raise ValueError(f"the non-relativistic integrator requires n=1, got n={params.n}")
    n_steps = step_count(t_end, dt)
    # (-m a) - g is (-g) - m a bit for bit, signed zeros included
    rates = FloatForm(
        coordinates(3) + ("v0", "v1", "v2", "a0", "a1", "a2", "j0", "j1", "j2"),
        "v0, v1, v2, a0, a1, a2, j0, j1, j2, inv_lam * (neg_m * a0 - g0), "
        "inv_lam * (neg_m * a1 - g1), inv_lam * (neg_m * a2 - g2)",
        constants={"neg_m": -float(params.m), "inv_lam": 1.0 / zbw_coefficient(params)},
        time="t").spliced(pot.partials_form, ("g0", "g1", "g2"))

    y0 = np.concatenate([s0.x, s0.v, s0.a, s0.j])
    times, samples = rk4_path(rates, y0, s0.t, dt, n_steps, stride)
    energies = _energy_split(params, pot, samples[:, 0:3], samples[:, 3:6],
                             samples[:, 6:9], samples[:, 9:12])
    return Trajectory(params, times, samples, rates.args, dict(zip(_ENERGIES, energies)))


def integrate_newtonian(x0, v0, params: ModelParams, pot: Potential3D,
                        t_end: float, dt: float, stride: int = 1) -> Trajectory:
    """Plain second-order Newtonian control run, m a = F.

    Besides the energy records of :func:`integrate_nr`, which use the
    Newtonian kinetic term only, it records the acceleration ``a`` = F/m and
    the jerk ``j`` = 0.
    """
    n_steps = step_count(t_end, dt)
    x0 = _vec3(x0, "x0")
    v0 = _vec3(v0, "v0")
    m = np.array(params.m)
    rates = FloatForm(coordinates(3) + ("v0", "v1", "v2"),
                      "v0, v1, v2, g0 / neg_m, g1 / neg_m, g2 / neg_m",  # (-g) / m
                      constants={"neg_m": -float(params.m)},
                      time="t").spliced(pot.partials_form, ("g0", "g1", "g2"))

    y0 = np.concatenate([x0, v0])
    times, samples = rk4_path(rates, y0, 0.0, dt, n_steps, stride)
    xs = samples[:, 0:3]
    records = {"a": -pot.gradient(xs) / m, "j": np.zeros_like(xs)}
    energies = _energy_split(params, pot, xs, samples[:, 3:6], records["a"], records["j"],
                             newtonian=True)
    return Trajectory(params, times, samples, rates.args,
                      {**records, **dict(zip(_ENERGIES, energies))})


def work_integral(traj: Trajectory, pot: Potential3D) -> float:
    """Trapezoidal integral of F . v along the trajectory.

    Equals the change of the generalized kinetic energy between the endpoints
    on any exact solution of the force law.
    """
    if len(traj) < 2:
        raise ValueError("work integral needs at least 2 samples")
    force = -pot.gradient(traj["x"])
    integrand = (force * traj["v"]).sum(1)
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


_BARRIER_MARGIN = 1e-12  # of U - E_total and of v^2, against roundoff
_MERGE_GAP = 3  # forbidden samples fewer apart than this share an interval


def barrier_report(traj: Trajectory) -> list[BarrierInterval]:
    """Maximal time intervals with U(x(t)) > E_total and v^2 > 0.

    U is the run's ``U`` record, from which its ``E_total`` was built.
    Strict inequalities with a margin of 1e-12 guard against roundoff;
    intervals separated by fewer than 3 samples are merged.  Returns an
    empty list when the motion never enters a forbidden region (always the
    case for Newtonian runs).
    """
    excess = traj["U"] - traj["E_total"]
    v2 = (traj["v"]**2).sum(1)
    mask = (excess > _BARRIER_MARGIN) & (v2 > _BARRIER_MARGIN)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev - 1 < _MERGE_GAP:
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
