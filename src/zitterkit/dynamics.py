"""Time evolution of the spinning-particle theory.

Provides the exact oscillatory solution of the free first-order theory, RK4
integration of the n=1 canonical equations and of free motion at general
order, and monitors for every conserved quantity and identity the theory
asserts.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .forms import FloatForm, _sample_steps, rk4_path, step_count
from .lagrangian import (ModelParams, PhasePoint, ScalarPotential, canonical_momentum,
                         hamiltonian_rows)
from .minkowski import (METRIC, SHELL_TOL, FourVector, check_on_shell, dot, inner, spin_vector,
                        wedge)

__all__ = [
    "FreeSolution",
    "Trajectory",
    "TableRows",
    "Residuals",
    "residual",
    "MonitorReport",
    "SpeedReport",
    "TimeDilation",
    "make_free_solution",
    "eval_free",
    "integrate_hamilton",
    "integrate_free_general_n",
    "monitor",
    "monitorable",
    "relative_drift",
    "mean_time_dilation",
    "check_superluminal",
    "zero_crossings",
    "estimate_frequency",
]


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


def make_free_solution(params: ModelParams, p: FourVector, cos_amp: FourVector,
                       sin_amp: FourVector, x0: FourVector | None = None,
                       project: bool = False) -> FreeSolution:
    """Validated free solution of the n=1 theory.

    Requires p on the mass shell and both amplitude vectors spacelike and
    orthogonal to p to within SHELL_TOL (so that <p, v> = m holds at all
    times).  With ``project=True`` the amplitudes are first projected onto
    the subspace orthogonal to p; the result is re-validated, never
    silently accepted.
    """
    if params.n != 1:
        raise ValueError(f"free solution requires n=1, got n={params.n}")
    pp = check_on_shell(p, params.m)
    if x0 is None:
        x0 = FourVector.zero()
    if project:
        cos_amp, sin_amp = (vec - p * (dot(p, vec) / pp) for vec in (cos_amp, sin_amp))
    for vec, name in ((cos_amp, "cos_amp"), (sin_amp, "sin_amp")):
        sq = dot(vec, vec)
        if sq >= 0.0 and np.any(vec.components != 0.0):
            raise ValueError(f"{name} must be spacelike (or exactly zero); got square {sq}")
        ortho = dot(p, vec)
        if abs(ortho) > SHELL_TOL:
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


# rows a block of the canonical post-processing (records, monitor and the
# free-run oracle).  On a 2-vCPU VM (one CPU, 40 interleaved passes of all
# three over free_cmf's 31,417 rows), 1024, 4096 and 16384 rows took 56.2,
# 52.1 and 54.1 ms a pass with traced peaks of 0.8, 2.9 and 10.8 MiB above
# the records; one block of all rows took ~66 ms and 15.3 MiB.  4096 is the
# fastest and bounds the temporaries near 3 MiB whatever the run's length
BLOCK_ROWS = 4096


def row_blocks(n: int, size: int = BLOCK_ROWS, start: int = 0) -> list:
    """The slices of at most ``size`` rows that cover rows start..n-1 in order."""
    return [slice(lo, min(lo + size, n)) for lo in range(start, n, size)]


def _block_max(n: int, block) -> float:
    """The largest ``block(rows)`` over the :func:`row_blocks` of n rows,
    combined as one ``.max()`` over all rows would combine them: a NaN in
    any block surfaces (Python's ``max(0.0, nan)`` would drop it)."""
    return float(np.max([block(rows) for rows in row_blocks(n)]))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled run of either theory.

    ``samples`` has shape (N, n), as :func:`rk4_path` returns them, and
    ``names`` names their columns (the float form's ``args``); ``records``
    holds derived columns by name.  ``traj[name]`` is a record, or else the
    view of the block of components named ``name`` plus one index
    character: ``"x"`` is x0..x3 (x0..x2 in 3-D), ``"v0_"`` is v0_0..v0_3.
    """

    params: ModelParams
    times: np.ndarray
    samples: np.ndarray
    names: tuple
    records: dict

    def __post_init__(self):
        for array in (self.times, self.samples, *self.records.values()):
            array.flags.writeable = False
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.records:
            return self.records[name]
        columns = [c for c, arg in enumerate(self.names) if arg[:-1] == name]
        if not columns:
            raise KeyError(f"{name!r} is neither a record nor a block of {list(self.names)}")
        return self.samples[:, columns[0]:columns[-1] + 1]

    def table(self, time: str, names) -> tuple[list[str], TableRows]:
        """``(header, rows)`` of a table of the times, headed ``time``, and
        the entry ``self[name]`` of each name.  An entry of k > 1 columns
        is headed by its name with the indices 4 - k .. 3, so a 4-vector
        gets 0..3 and a spatial 3-vector 1..3."""
        header, columns = [time], [self.times]
        for name in names:
            column = self[name]
            header += ([name] if column.ndim == 1
                       else [f"{name}{i}" for i in range(4 - column.shape[1], 4)])
            columns.append(column)
        return header, TableRows(tuple(columns))


@dataclass(frozen=True, eq=False)
class TableRows:
    """The rows of a table whose columns are a run's own read-only arrays,
    each of shape (N,) or (N, k).  ``len(rows)`` is N, and ``rows[a:b]``
    stacks only rows a..b-1, with the bits ``np.column_stack`` of all
    columns would give them, so the whole table is never built."""

    columns: tuple

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.column_stack([column[rows] for column in self.columns])


def _hamilton_records(params: ModelParams, samples, potential: ScalarPotential | None):
    """The records of a canonical run of ``samples`` (x, p, v, r blocks):
    the acceleration ``a`` = r/k1, the conserved ``H`` = H_0 - U, the spin
    vector ``s``, the velocity-equation and <p, v> = m residuals ``res_zbw``
    and ``res_pv``, and ``pv``, ``onshell`` = <p, p> and ``zbw_square``.

    The potential is evaluated once over all rows; everything else runs one
    :func:`row_blocks` block at a time, so its temporaries (the spin
    tensor's (rows, 4, 4) among them) are bounded by the block rather than
    by the run.  Each row is computed by the same expressions whatever the
    block, so the records have the same bits for every block size.
    """
    u = (np.broadcast_to(0.0, len(samples)) if potential is None
         else potential.value_many(samples[:, 0:4]))
    records = {}
    for rows in row_blocks(len(samples)):
        for name, value in _hamilton_rows(params, samples[rows], u[rows]).items():
            if name not in records:
                records[name] = np.empty((len(samples),) + value.shape[1:])
            records[name][rows] = value
    return records


def _hamilton_rows(params: ModelParams, samples, u) -> dict:
    """The :func:`_hamilton_records` of the rows ``samples``, whose
    potential energies are ``u``."""
    m = params.m
    k1 = params.k1
    p = samples[:, 4:8]
    q = samples[:, 8:12]
    pi = samples[:, 12:16]
    pv = inner(p, q)
    # pointwise residual of the velocity equation, with the spin-tensor rate
    # S = k1 (q ^ a) expressed through the equations of motion (no finite
    # differences here); the a ^ a part of the rate vanishes identically
    adot = (m * q - p) / k1
    sdot_p = k1 * (q * inner(adot, p)[:, None] - adot * pv[:, None])
    w = q - p / m
    return {
        "a": pi / k1,
        "H": hamiltonian_rows(params, samples) - u,
        "pv": pv,
        "onshell": inner(p, p),
        "s": spin_vector(wedge(q, pi)),
        "res_zbw": np.abs(w + sdot_p / m**2).max(axis=1),
        "res_pv": np.abs(pv - m),
        "zbw_square": inner(w, w),
    }


_HAMILTON_ARGS = tuple(f"{block}{mu}" for block in "xpvr" for mu in range(4))


def integrate_hamilton(s0: PhasePoint, params: ModelParams,
                       potential: ScalarPotential | None,
                       tau_end: float, dt: float, stride: int = 1) -> Trajectory:
    """RK4 integration of the n=1 canonical equations.

    The evolution is xdot = v, pdot^mu = g^{mu nu} dU/dx^nu (the potential
    gives the lower-index partials), vdot = r/k1 and rdot = -(p - m v), with
    v the canonical q and r its conjugate pi; for the physical coefficient
    r/k1 equals -(4 m c^4 / hbar^2) r.  The spatial force is -grad U, as in
    :func:`~zitterkit.nonrel.integrate_nr`, and the ``H`` record is the
    conserved H_0 - U (see :func:`_hamilton_records` for every record).
    Samples are recorded every ``stride`` steps and the final time lands
    within dt of ``tau_end``.
    """
    if params.n != 1:
        raise ValueError(f"the canonical integrator requires n=1, got n={params.n}")
    n_steps = step_count(tau_end, dt)
    # pdot is METRIC times the lower-index partials, one component at a time
    pdot = ("1.0 * g0, -1.0 * g1, -1.0 * g2, -1.0 * g3" if potential is not None
            else "0.0, 0.0, 0.0, 0.0")
    rates = FloatForm(
        _HAMILTON_ARGS,
        f"v0, v1, v2, v3, {pdot}, r0 / k1, r1 / k1, r2 / k1, r3 / k1, "
        "m * v0 - p0, m * v1 - p1, m * v2 - p2, m * v3 - p3",
        constants={"m": float(params.m), "k1": float(params.k1)}, time="tau")
    if potential is not None:
        rates = rates.spliced(potential.partials_form, ("g0", "g1", "g2", "g3"))
    times, samples = rk4_path(rates, s0.as_array(), s0.tau, dt, n_steps, stride)
    return Trajectory(params, times, samples, rates.args,
                      _hamilton_records(params, samples, potential))


def _general_n_names(n: int) -> tuple:
    """The components x0..x3, v0_0..v0_3, .. of the free state at order n:
    x and v^(0) .. v^(2n-1), or v^(0) alone at n = 0."""
    return tuple(f"x{mu}" for mu in range(4)) + tuple(
        f"v{i}_{mu}" for i in range(max(1, 2 * n)) for mu in range(4))


def _general_n_rates(n: int, neg_p, coeffs, scale: float) -> FloatForm:
    """The float form of :func:`integrate_free_general_n` at order n >= 1.

    The rates are the shifted stack v0_0 .. v{2n-1}_3, then for each
    component c the sum ``((p{c} + c0 * v0_{c}) + c1 * v2_{c} + ...)
    * scale`` with ``p{c} = neg_p[c]`` and ``c{i} = coeffs[i]``, written
    out term by term.
    """
    args = _general_n_names(n)
    acc = ", ".join(
        "(" + " + ".join([f"p{c}"] + [f"c{i} * v{2 * i}_{c}" for i in range(n)])
        + ") * scale" for c in range(4))
    constants = {**{f"p{c}": v for c, v in enumerate(neg_p)},
                 **{f"c{i}": v for i, v in enumerate(coeffs)}, "scale": scale}
    return FloatForm(args, f"{', '.join(args[4:])}, {acc}", constants=constants, time="t")


def integrate_free_general_n(params: ModelParams, x0: FourVector,
                             stack, tau_end: float, dt: float,
                             stride: int = 1) -> Trajectory:
    """Free motion of the order-n theory.

    ``stack`` must supply v^(0) .. v^(2n) so the conserved momentum can be
    computed from it; the integrated first-order state is x together with
    v^(0) .. v^(2n-1) (see :func:`_general_n_names`), the highest
    derivative being closed through the momentum relation.  The record
    ``p`` is the conserved momentum at every sample.  n=0 is uniform
    motion and is evaluated exactly.
    """
    n_steps = step_count(tau_end, dt)
    n = params.n
    p = canonical_momentum(params, stack)

    if n == 0:
        times = _sample_steps(n_steps, stride) * dt
        v = stack[0].components
        samples = np.empty((len(times), 8))
        samples[:, 0:4] = x0.components + np.outer(times, v)
        samples[:, 4:8] = v
    else:
        scale = (-1.0) ** (n + 1) / params.k[n]
        lower_coeffs = [(-1.0) ** i * params.k[i] for i in range(n)]
        rates = _general_n_rates(n, (-p.components).tolist(), lower_coeffs, scale)
        y0 = np.concatenate([x0.components] + [stack[i].components for i in range(2 * n)])
        times, samples = rk4_path(rates, y0, 0.0, dt, n_steps, stride)
    return Trajectory(params, times, samples, _general_n_names(n),
                      {"p": np.broadcast_to(p.components, (len(times), 4))})


def residual(label: str):
    """A residual field of a :class:`Residuals` report, listed as ``label``."""
    return field(metadata={"label": label})


class Residuals:
    """Base of the residual reports: each field declared with
    :func:`residual` is one residual maximum.  The labels are printed
    output, in field order."""

    def as_dict(self) -> dict:
        """Label -> value of every residual field, in field order."""
        return {f.metadata["label"]: getattr(self, f.name)
                for f in fields(self) if "label" in f.metadata}

    @property
    def max_residual(self) -> float:
        return max(self.as_dict().values())


@dataclass(frozen=True)
class MonitorReport(Residuals):
    """Maxima of conservation drifts and identity residuals along a run.

    Derivative-based residuals use 5-point central differences on the
    uniformly spaced samples, endpoints excluded.
    """

    momentum_drift: float = residual("momentum drift")
    energy_rel_drift: float = residual("energy rel drift")
    pv_constraint: float = residual("p.v constraint")
    onshell_constraint: float = residual("on-shell constraint")
    zbw_residual: float = residual("velocity-equation residual")
    dual_residual: float = residual("dual-form residual")
    spin_momentum_residual: float = residual("spin-momentum identity")
    spin_drift: float = residual("spin vector drift")


def _d5(values: np.ndarray, h: float) -> np.ndarray:
    """5-point central first derivative along axis 0 (valid on the interior)."""
    return (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)


def _uniform_prefix(times) -> tuple:
    """The first step h of ``times`` and the count of leading samples whose
    steps all equal h to within 1e-9 h, found one block at a time."""
    h = times[1] - times[0]
    for rows in row_blocks(len(times) - 1):
        steps = np.diff(times[rows.start:rows.stop + 1])
        nonuniform = np.nonzero(np.abs(steps - h) > 1e-9 * h)[0]
        if nonuniform.size:
            return h, rows.start + int(nonuniform[0]) + 1
    return h, len(times)


def monitorable(traj: Trajectory) -> bool:
    """Whether :func:`monitor` reports on ``traj``: its first 5 samples are
    uniformly spaced (a strided run's last step may be shorter)."""
    return len(traj) >= 5 and _uniform_prefix(traj.times)[1] >= 5


def monitor(traj: Trajectory) -> MonitorReport:
    """Conservation and identity report for an n=1 canonical trajectory.

    Every residual runs one :func:`row_blocks` block at a time, so its
    temporaries, the (rows, 4, 4) spin tensor and its 5-point derivative
    among them, are bounded by the block rather than by the run; the
    derivative of a block also reads the two neighbouring rows on each side,
    within the uniform samples.  Each row is computed by the same
    expressions as over all rows at once, and the block maxima are combined
    as one ``.max()`` would combine them (a NaN surfaces), so the report has
    the same bits whatever the block size.
    """
    params = traj.params
    n_total = len(traj)
    if not monitorable(traj):
        raise ValueError("monitor needs at least 5 uniformly spaced samples")
    h, n_uni = _uniform_prefix(traj.times)

    m = params.m
    k1 = params.k1
    p = traj["p"]
    q = traj["v"]
    r = traj["r"]
    a = traj["a"]
    onshell = traj["onshell"]
    spin = traj["s"]

    zbw, dual, spin_momentum = [], [], []
    for rows in row_blocks(n_total):
        # the block's rows and up to two neighbours on each side
        lo, hi = max(rows.start - 2, 0), min(rows.stop + 2, n_total)
        pl = p[lo:hi] * METRIC
        s_tensor = wedge(q[lo:hi], r[lo:hi])
        sp = np.einsum("nij,nj->ni", s_tensor, pl)
        # contraction of the spin tensor with the momentum against its
        # acceleration form; the coefficient -k1*m is 1/4 in natural units
        own = slice(rows.start - lo, rows.stop - lo)
        spin_momentum.append(np.abs(sp[own] + (k1 * m) * a[rows]).max())

        # the block's rows of the uniform interior 2 .. n_uni - 3
        first, stop = max(rows.start, 2), min(rows.stop, n_uni - 2)
        if first >= stop:
            continue
        mid, near = slice(first, stop), slice(first - 2 - lo, stop + 2 - lo)
        sdot = _d5(s_tensor[near], h)
        sdot_p = np.einsum("nij,nj->ni", sdot, pl[first - lo:stop - lo])
        res3 = q[mid] - p[mid] / m + sdot_p / m**2
        zbw.append(np.abs(res3).max())

        wtdot = _d5(sp[near] / m, h)
        res6 = q[mid] - p[mid] / m + wtdot / m
        dual.append(np.abs(res6).max())

    return MonitorReport(
        momentum_drift=_block_max(n_total, lambda rows: np.abs(p[rows] - p[0]).max()),
        energy_rel_drift=relative_drift(traj["H"]),
        pv_constraint=float(traj["res_pv"].max()),
        onshell_constraint=_block_max(n_total, lambda rows: np.abs(onshell[rows] - m * m).max()),
        zbw_residual=float(np.max(zbw)),
        dual_residual=float(np.max(dual)),
        spin_momentum_residual=float(np.max(spin_momentum)),
        spin_drift=_block_max(n_total, lambda rows: np.abs(spin[rows] - spin[0]).max()),
    )


def relative_drift(values: np.ndarray) -> float:
    """Largest |values - values[0]|, relative to |values[0]| unless that is 0."""
    v0 = values[0]
    drift = _block_max(len(values), lambda rows: np.abs(values[rows] - v0).max())
    return float(drift / (abs(v0) if v0 != 0 else 1.0))


TimeDilation = namedtuple("TimeDilation", ["mean_v0", "lorentz"])


PERIOD_SAMPLES = 4096


def _period_velocities(sol: FreeSolution) -> np.ndarray:
    """The velocity of ``sol`` at PERIOD_SAMPLES + 1 evenly spaced times
    spanning one oscillation period, ends included."""
    period = 2.0 * np.pi / sol.omega
    return sol.sample(np.linspace(0.0, period, PERIOD_SAMPLES + 1))[1]


def mean_time_dilation(sol: FreeSolution) -> TimeDilation:
    """Average of v^0 over one oscillation period versus the constant p^0/m.

    The pointwise v^0(tau) itself is not constant (inspect it through
    ``sol.sample``); only its period mean equals the Lorentz factor p^0/m.
    The mean is measured by trapezoidal quadrature over one exact period.
    """
    v0 = _period_velocities(sol)[:, 0]
    mean = float((0.5 * v0[0] + v0[1:-1].sum() + 0.5 * v0[-1]) / PERIOD_SAMPLES)
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


def check_superluminal(sol: FreeSolution) -> SpeedReport:
    v = _period_velocities(sol)
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
