"""Time evolution of the spinning-particle theory.

Provides the exact oscillatory solution of the free first-order theory, RK4
integration of the n=1 canonical equations and of free motion at general
order, and monitors for every conserved quantity and identity the theory
asserts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .lagrangian import ModelParams, PhasePoint, ScalarPotential, canonical_momentum
from .minkowski import METRIC, FourVector

__all__ = [
    "IntegrationDiverged",
    "FreeSolution",
    "Trajectory",
    "MonitorReport",
    "SpeedReport",
    "TimeDilation",
    "make_free_solution",
    "eval_free",
    "integrate_hamilton",
    "integrate_free_general_n",
    "monitor",
    "mean_time_dilation",
    "check_superluminal",
    "rk4_path",
    "step_count",
    "zero_crossings",
    "estimate_frequency",
]


class IntegrationDiverged(RuntimeError):
    """Raised when the integrator encounters a non-finite state.

    ``last_time`` is the time of ``last_state``, a copy of the last finite
    state.  ``nonfinite`` lists the index of every non-finite entry of the
    state that followed it; for a stacked state the leading indices name
    the member.
    """

    def __init__(self, message: str, last_time: float, nonfinite: tuple = (),
                 last_state: np.ndarray | None = None):
        super().__init__(message)
        self.last_time = last_time
        self.nonfinite = nonfinite
        self.last_state = last_state


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps of size dt that reach t_end, at least one.

    Raises ValueError unless both t_end and dt are positive.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return max(1, int(round(t_end / dt)))


def rk4_path(deriv, y0, t0: float, dt: float, n_steps: int, stride: int = 1):
    """Classical fixed-step RK4 over a state array of any shape.

    ``deriv(y, out)`` binds a state buffer ``y`` to a derivative buffer
    ``out`` of the same shape and returns ``f``; ``f(t)`` writes the time
    derivative of the current contents of ``y`` at time ``t`` into ``out``
    and must write every element of it.  The driver binds its five buffer
    pairs once, before the first step, so a binder can slice its views and
    allocate its scratch there; ``y`` and ``out`` never overlap.  Returns
    ``(times, samples)`` where samples are recorded every ``stride`` steps
    plus the final step.  The state update uses compensated summation so
    that long runs stay truncation-limited rather than roundoff-limited.
    Raises :class:`IntegrationDiverged` if the state stops being finite.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    y = np.array(y0, dtype=float, order="C")
    comp = np.zeros_like(y)
    k1, k2, k3, k4, stage, inc, ynew = (np.empty_like(y) for _ in range(7))
    # flat views that follow y and ynew through the swaps, for the check
    yflat, ynewflat, zeros = y.reshape(-1), ynew.reshape(-1), np.zeros(y.size)
    n_samples = 1 + n_steps // stride + (n_steps % stride != 0)
    times = np.empty(n_samples)
    samples = np.empty((n_samples,) + y.shape)
    times[0] = t0
    samples[0] = y
    j = 1
    half = 0.5 * dt
    # the same constants as 0-d arrays, so no ufunc call converts a float
    c_half, c_dt, c_sixth, c_two = (np.array(c) for c in (half, dt, dt / 6.0, 2.0))
    f1, f1_next = deriv(y, k1), deriv(ynew, k1)
    f2, f3, f4 = deriv(stage, k2), deriv(stage, k3), deriv(stage, k4)
    add, mul, sub, isfinite = np.add, np.multiply, np.subtract, math.isfinite
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            t = t0 + (i - 1) * dt
            f1(t)
            add(y, mul(c_half, k1, stage), stage)
            f2(t + half)
            add(y, mul(c_half, k2, stage), stage)
            f3(t + half)
            add(y, mul(c_dt, k3, stage), stage)
            f4(t + dt)
            add(k2, k3, inc)
            mul(c_two, inc, inc)
            add(k1, inc, inc)
            add(inc, k4, inc)
            mul(c_sixth, inc, inc)
            sub(inc, comp, inc)
            add(y, inc, ynew)
            sub(ynew, y, comp)
            sub(comp, inc, comp)
            y, ynew = ynew, y
            yflat, ynewflat = ynewflat, yflat
            f1, f1_next = f1_next, f1
            # y . 0 is NaN exactly when some element of y is not finite,
            # and a product with zero cannot overflow
            if not isfinite(yflat.dot(zeros)):
                raise IntegrationDiverged(
                    f"state became non-finite at t={t0 + i * dt:g}", last_time=t,
                    nonfinite=tuple(map(tuple, np.argwhere(~np.isfinite(y)).tolist())),
                    last_state=ynew.copy())
            if i % stride == 0 or i == n_steps:
                times[j] = t0 + i * dt
                samples[j] = y
                j += 1
    return times, samples


@dataclass(frozen=True, eq=False)
class FreeSolution:
    """Closed-form free solution of the first-order theory.

    The velocity is the constant drift p/m plus a rotation in the plane of
    two constant spacelike amplitude vectors::

        v(tau) = p/m + cos_amp * cos(omega tau) + sin_amp * sin(omega tau)

    with omega the Compton frequency of the model.
    """

    params: ModelParams
    p: FourVector
    cos_amp: FourVector
    sin_amp: FourVector
    x0: FourVector
    omega: float

    def sample(self, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized evaluation; returns (x, v, a) arrays of shape (N, 4)."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        w = self.omega
        m = self.params.m
        c = np.cos(w * taus)[:, None]
        s = np.sin(w * taus)[:, None]
        pa = self.p.components
        ea = self.cos_amp.components
        ha = self.sin_amp.components
        v = pa / m + ea * c + ha * s
        a = w * (ha * c - ea * s)
        x = (self.x0.components + pa * taus[:, None] / m
             + (ea / w) * s - (ha / w) * (c - 1.0))
        return x, v, a

    def initial_phase_point(self) -> PhasePoint:
        """Matching canonical state at tau = 0."""
        x, v, a = self.sample(0.0)
        return PhasePoint(
            x=FourVector.from_array(x[0]),
            p=self.p,
            q=FourVector.from_array(v[0]),
            pi=FourVector.from_array(self.params.k1 * a[0]),
            tau=0.0,
        )


def _check_spacelike(vec: FourVector, name: str):
    sq = float(np.dot(vec.components * METRIC, vec.components))
    if np.all(vec.components == 0.0):
        return
    if sq >= 0.0:
        raise ValueError(f"{name} must be spacelike (or exactly zero); got square {sq}")


def make_free_solution(params: ModelParams, p: FourVector, cos_amp: FourVector,
                       sin_amp: FourVector, x0: FourVector | None = None,
                       project: bool = False, tol: float = 1e-10) -> FreeSolution:
    """Validated free solution of the n=1 theory.

    Requires p on the mass shell and both amplitude vectors spacelike and
    orthogonal to p (so that <p, v> = m holds at all times).  With
    ``project=True`` the amplitudes are first projected onto the subspace
    orthogonal to p; the result is re-validated, never silently accepted.
    """
    if params.n != 1:
        raise ValueError(f"free solution requires n=1, got n={params.n}")
    m = params.m
    pp = float(np.dot(p.components * METRIC, p.components))
    if abs(pp - m * m) > tol:
        raise ValueError(f"p is off shell: <p,p> = {pp}, expected m^2 = {m * m}")
    if x0 is None:
        x0 = FourVector.zero()
    if project:
        pl = METRIC * p.components
        cos_amp = FourVector.from_array(
            cos_amp.components - np.dot(pl, cos_amp.components) / pp * p.components)
        sin_amp = FourVector.from_array(
            sin_amp.components - np.dot(pl, sin_amp.components) / pp * p.components)
    for vec, name in ((cos_amp, "cos_amp"), (sin_amp, "sin_amp")):
        _check_spacelike(vec, name)
        ortho = float(np.dot(p.components * METRIC, vec.components))
        if abs(ortho) > tol:
            raise ValueError(
                f"{name} must be orthogonal to p (<p,{name}> = {ortho}); "
                "pass project=True to project it")
    return FreeSolution(params=params, p=p, cos_amp=cos_amp, sin_amp=sin_amp,
                        x0=x0, omega=params.compton_frequency)


def eval_free(sol: FreeSolution, tau: float) -> tuple[FourVector, FourVector, FourVector]:
    """Position, velocity and acceleration of the free solution at one time."""
    x, v, a = sol.sample(tau)
    return (FourVector.from_array(x[0]), FourVector.from_array(v[0]),
            FourVector.from_array(a[0]))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory.

    ``blocks`` has shape (N, B, 4).  For ``kind="hamilton"`` the B=4 blocks
    are (x, p, q, pi); for ``kind="free_general"`` they are x followed by the
    velocity-derivative stack v^(0) .. v^(2n-1) and ``momentum`` carries the
    conserved momentum.  ``records`` holds per-sample monitor columns.
    """

    params: ModelParams
    kind: str
    times: np.ndarray
    blocks: np.ndarray
    records: dict = field(default_factory=dict)
    momentum: FourVector | None = None

    def __post_init__(self):
        self.times.flags.writeable = False
        self.blocks.flags.writeable = False
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def xs(self) -> np.ndarray:
        return self.blocks[:, 0, :]

    @property
    def ps(self) -> np.ndarray:
        self._require("hamilton")
        return self.blocks[:, 1, :]

    @property
    def qs(self) -> np.ndarray:
        self._require("hamilton")
        return self.blocks[:, 2, :]

    @property
    def pis(self) -> np.ndarray:
        self._require("hamilton")
        return self.blocks[:, 3, :]

    @property
    def accs(self) -> np.ndarray:
        return self.pis / self.params.k1

    def _require(self, kind: str):
        if self.kind != kind:
            raise ValueError(f"operation requires a {kind!r} trajectory, got {self.kind!r}")

    def state(self, i: int) -> PhasePoint:
        self._require("hamilton")
        return PhasePoint.from_array(self.blocks[i].reshape(16), tau=float(self.times[i]))

    @property
    def states(self) -> list[PhasePoint]:
        return [self.state(i) for i in range(len(self))]

    def stack(self, i: int) -> tuple[FourVector, list[FourVector]]:
        """Position plus velocity-derivative stack at sample i (general order)."""
        self._require("free_general")
        b = self.blocks[i]
        return FourVector.from_array(b[0]), [FourVector.from_array(r) for r in b[1:]]


def _hamilton_records(params: ModelParams, times, blocks, potential: ScalarPotential | None):
    m = params.m
    k1 = params.k1
    p = blocks[:, 1, :]
    q = blocks[:, 2, :]
    pi = blocks[:, 3, :]
    pl = p * METRIC
    if potential is None:
        u = np.zeros(len(times))
    else:
        u = potential.value_many(blocks[:, 0, :])
    energy = ((pl * q).sum(1) - 0.5 * m * (q * METRIC * q).sum(1)
              + (pi * METRIC * pi).sum(1) / (2.0 * k1) + u)
    pv = (pl * q).sum(1)
    pp = (pl * p).sum(1)
    # spin vector of the canonical spin tensor q ^ pi
    spin = np.stack([
        q[:, 2] * pi[:, 3] - q[:, 3] * pi[:, 2],
        q[:, 3] * pi[:, 1] - q[:, 1] * pi[:, 3],
        q[:, 1] * pi[:, 2] - q[:, 2] * pi[:, 1],
    ], axis=1)
    # pointwise residual of the velocity equation, with the spin-tensor rate
    # S = k1 (q ^ a) expressed through the equations of motion (no finite
    # differences here); the a ^ a part of the rate vanishes identically
    adot = (m * q - p) / k1
    sdot_p = k1 * (q * (adot * pl).sum(1)[:, None] - adot * (q * pl).sum(1)[:, None])
    res = q - p / m + sdot_p / m**2
    w = q - p / m
    return {
        "energy": energy,
        "pv": pv,
        "onshell": pp,
        "spin": spin,
        "zbw_residual": np.abs(res).max(axis=1),
        "pv_residual": np.abs(pv - m),
        "zbw_square": (w * METRIC * w).sum(1),
        "potential": u,
    }


def integrate_hamilton(s0: PhasePoint, params: ModelParams,
                       potential: ScalarPotential | None,
                       tau_end: float, dt: float, stride: int = 1) -> Trajectory:
    """RK4 integration of the n=1 canonical equations.

    The evolution is xdot = q, pdot^mu = -g^{mu nu} dU/dx^nu (the potential
    gives the lower-index partials), qdot = pi/k1 and pidot = -(p - m q); for
    the physical coefficient pi/k1 equals -(4 m c^4 / hbar^2) pi.  Samples are
    recorded every ``stride`` steps and the final time lands within dt of
    ``tau_end``.
    """
    if params.n != 1:
        raise ValueError(f"the canonical integrator requires n=1, got n={params.n}")
    n_steps = step_count(tau_end, dt)
    m, k1 = np.array(params.m), np.array(params.k1)
    neg_metric = -METRIC
    mul, div, sub = np.multiply, np.divide, np.subtract

    def deriv(y, out):
        x, p, q, pi = (y[..., a:a + 4] for a in (0, 4, 8, 12))
        xdot, pdot, qdot, pidot = (out[..., a:a + 4] for a in (0, 4, 8, 12))
        mq = np.empty_like(q)
        grad = None if potential is None else potential.bind(x, pdot)

        def f(tau):
            xdot[...] = q
            if grad is None:
                pdot[...] = 0.0
            else:
                grad()
                mul(neg_metric, pdot, pdot)
            div(pi, k1, qdot)
            sub(mul(m, q, mq), p, pidot)
        return f

    times, samples = rk4_path(deriv, s0.as_array(), s0.tau, dt, n_steps, stride)
    blocks = samples.reshape(len(times), 4, 4)
    records = _hamilton_records(params, times, blocks, potential)
    return Trajectory(params=params, kind="hamilton", times=times,
                      blocks=blocks, records=records)


def integrate_free_general_n(params: ModelParams, x0: FourVector,
                             stack, tau_end: float, dt: float,
                             stride: int = 1) -> Trajectory:
    """Free motion of the order-n theory.

    ``stack`` must supply v^(0) .. v^(2n) so the conserved momentum can be
    computed from it; the integrated first-order state is x together with
    v^(0) .. v^(2n-1), the highest derivative being closed through the
    momentum relation.  n=0 is uniform motion and is evaluated exactly.
    """
    n_steps = step_count(tau_end, dt)
    n = params.n
    p = canonical_momentum(params, stack)

    if n == 0:
        idx = np.arange(0, n_steps + 1, stride)
        if idx[-1] != n_steps:
            idx = np.append(idx, n_steps)
        times = idx * dt
        v = stack[0].components
        blocks = np.empty((len(times), 2, 4))
        blocks[:, 0, :] = x0.components + np.outer(times, v)
        blocks[:, 1, :] = v
        return Trajectory(params=params, kind="free_general", times=times,
                          blocks=blocks, momentum=p)

    c_scale = np.array((-1.0) ** (n + 1) / params.k[n])
    lower_coeffs = [(-1.0) ** i * params.k[i] for i in range(n)]
    neg_pc = -p.components
    nblocks = 2 * n + 1  # x plus v^(0) .. v^(2n-1)
    mul, add = np.multiply, np.add

    def deriv(y, out):
        shifted, rates = y[..., 4:4 * nblocks], out[..., :4 * (nblocks - 1)]
        acc = out[..., 4 * (nblocks - 1):]
        terms = [(np.array(ci), y[..., 4 * (2 * i + 1):4 * (2 * i + 2)])
                 for i, ci in enumerate(lower_coeffs)]
        tmp = np.empty_like(acc)

        def f(tau):
            rates[...] = shifted  # xdot = v, shift the stack
            total = neg_pc  # -p, then + c_i v^(2i) term by term
            for ci, v in terms:
                add(total, mul(ci, v, tmp), acc)
                total = acc
            mul(acc, c_scale, acc)
        return f

    y0 = np.concatenate([x0.components] + [stack[i].components for i in range(2 * n)])
    times, samples = rk4_path(deriv, y0, 0.0, dt, n_steps, stride)
    blocks = samples.reshape(len(times), nblocks, 4)
    return Trajectory(params=params, kind="free_general", times=times,
                      blocks=blocks, momentum=p)


@dataclass(frozen=True)
class MonitorReport:
    """Maxima of conservation drifts and identity residuals along a run.

    Derivative-based residuals use 5-point central differences on the
    uniformly spaced samples, endpoints excluded.
    """

    momentum_drift: float
    energy_rel_drift: float
    pv_constraint: float
    onshell_constraint: float
    zbw_residual: float
    dual_residual: float
    spin_momentum_residual: float
    spin_drift: float

    def as_dict(self) -> dict:
        return {
            "momentum drift": self.momentum_drift,
            "energy rel drift": self.energy_rel_drift,
            "p.v constraint": self.pv_constraint,
            "on-shell constraint": self.onshell_constraint,
            "velocity-equation residual": self.zbw_residual,
            "dual-form residual": self.dual_residual,
            "spin-momentum identity": self.spin_momentum_residual,
            "spin vector drift": self.spin_drift,
        }


def _d5(values: np.ndarray, h: float) -> np.ndarray:
    """5-point central first derivative along axis 0 (valid on the interior)."""
    return (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)


def monitor(traj: Trajectory) -> MonitorReport:
    """Conservation and identity report for an n=1 canonical trajectory."""
    params = traj.params
    traj._require("hamilton")
    n_total = len(traj)
    if n_total < 5:
        raise ValueError(f"monitor needs at least 5 samples, got {n_total}")
    dts = np.diff(traj.times)
    h = dts[0]
    nonuniform = np.nonzero(np.abs(dts - h) > 1e-9 * h)[0]
    n_uni = int(nonuniform[0]) + 1 if nonuniform.size else n_total
    if n_uni < 5:
        raise ValueError("monitor needs at least 5 uniformly spaced samples")

    m = params.m
    k1 = params.k1
    p = traj.ps
    q = traj.qs
    pi = traj.pis
    a = pi / k1
    pl = p * METRIC

    s_tensor = q[:, :, None] * pi[:, None, :] - pi[:, :, None] * q[:, None, :]
    sp = np.einsum("nij,nj->ni", s_tensor, pl)

    momentum_drift = float(np.abs(p - p[0]).max())
    energy = traj.records["energy"]
    e0 = energy[0]
    energy_rel_drift = float(np.abs(energy - e0).max() / (abs(e0) if e0 != 0 else 1.0))
    pv_constraint = float(np.abs(traj.records["pv"] - m).max())
    onshell_constraint = float(np.abs(traj.records["onshell"] - m * m).max())

    mid = slice(2, n_uni - 2)
    sdot = _d5(s_tensor[:n_uni], h)
    sdot_p = np.einsum("nij,nj->ni", sdot, pl[mid])
    res3 = q[mid] - p[mid] / m + sdot_p / m**2
    zbw_residual = float(np.abs(res3).max())

    wt = sp / m
    wtdot = _d5(wt[:n_uni], h)
    res6 = q[mid] - p[mid] / m + wtdot / m
    dual_residual = float(np.abs(res6).max())

    # contraction of the spin tensor with the momentum against its
    # acceleration form; the coefficient -k1*m is 1/4 in natural units
    spin_momentum_residual = float(np.abs(sp + (k1 * m) * a).max())

    spin = traj.records["spin"]
    spin_drift = float(np.abs(spin - spin[0]).max())

    return MonitorReport(
        momentum_drift=momentum_drift,
        energy_rel_drift=energy_rel_drift,
        pv_constraint=pv_constraint,
        onshell_constraint=onshell_constraint,
        zbw_residual=zbw_residual,
        dual_residual=dual_residual,
        spin_momentum_residual=spin_momentum_residual,
        spin_drift=spin_drift,
    )


TimeDilation = namedtuple("TimeDilation", ["mean_v0", "lorentz"])


def mean_time_dilation(sol: FreeSolution, samples: int = 4096) -> TimeDilation:
    """Average of v^0 over one oscillation period versus the constant p^0/m.

    The pointwise v^0(tau) itself is not constant (inspect it through
    ``sol.sample``); only its period mean equals the Lorentz factor p^0/m.
    The mean is measured by trapezoidal quadrature over one exact period.
    """
    period = 2.0 * np.pi / sol.omega
    taus = np.linspace(0.0, period, samples + 1)
    _, v, _ = sol.sample(taus)
    v0 = v[:, 0]
    mean = float((0.5 * v0[0] + v0[1:-1].sum() + 0.5 * v0[-1]) / samples)
    return TimeDilation(mean_v0=mean, lorentz=float(sol.p[0] / sol.params.m))


@dataclass(frozen=True)
class SpeedReport:
    """Coordinate-speed survey over one oscillation period.

    The instantaneous speed |dx/dt| may exceed the light speed; the
    center-of-mass speed |p_spatial| / p^0 must stay below it.  Nothing is
    clamped or rejected.
    """

    max_coordinate_speed: float
    cm_speed: float
    light_speed: float

    @property
    def superluminal_instants(self) -> bool:
        return self.max_coordinate_speed > self.light_speed

    @property
    def cm_subluminal(self) -> bool:
        return self.cm_speed < self.light_speed


def check_superluminal(sol: FreeSolution, samples: int = 4096) -> SpeedReport:
    period = 2.0 * np.pi / sol.omega
    taus = np.linspace(0.0, period, samples + 1)
    _, v, _ = sol.sample(taus)
    with np.errstate(divide="ignore", invalid="ignore"):
        speeds = np.linalg.norm(v[:, 1:], axis=1) / v[:, 0]
    pc = sol.p.components
    cm = float(np.linalg.norm(pc[1:]) / pc[0])
    return SpeedReport(
        max_coordinate_speed=float(np.max(np.abs(speeds))),
        cm_speed=cm,
        light_speed=float(sol.params.c),
    )


def zero_crossings(times, values) -> np.ndarray:
    """Linearly interpolated zero-crossing times of a sampled signal."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    sign = np.sign(v)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    frac = v[idx] / (v[idx] - v[idx + 1])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def estimate_frequency(times, values) -> float:
    """Angular frequency from the mean spacing of zero crossings."""
    crossings = zero_crossings(times, values)
    if len(crossings) < 3:
        raise ValueError(f"need at least 3 zero crossings, found {len(crossings)}")
    return float(np.pi / np.diff(crossings).mean())
