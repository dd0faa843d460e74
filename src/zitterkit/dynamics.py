"""Time evolution of the spinning-particle theory.

Provides the exact oscillatory solution of the free first-order theory, RK4
integration of the n=1 canonical equations and of free motion at general
order, and monitors for every conserved quantity and identity the theory
asserts.
"""

from __future__ import annotations

import ast
import functools
import math
import struct
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .forks import fork_jobs, usable_cpus
from .forms import FloatForm, assignments, check_names, define, elements
from .lagrangian import (ModelParams, PhasePoint, ScalarPotential, canonical_momentum,
                         hamiltonian_rows)
from .minkowski import METRIC, FourVector, check_on_shell, dot, inner, spin_vector, wedge

__all__ = [
    "IntegrationDiverged",
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
    "relative_drift",
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

    def __reduce__(self):
        # the default rebuilds from self.args alone, which lack last_time
        return type(self), (*self.args, self.last_time, self.nonfinite, self.last_state)


def _require_positive(name: str, value: float):
    """The one check on an integrator's time arguments: finite and > 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps of size dt that reach t_end, at least one.

    Raises ValueError unless both t_end and dt are positive and finite and
    so is their quotient.
    """
    _require_positive("t_end", t_end)
    _require_positive("dt", dt)
    quotient = t_end / dt
    if quotient == math.inf:
        raise ValueError(f"t_end/dt must be finite, got t_end={t_end} and dt={dt}")
    return max(1, int(round(quotient)))


def _sample_steps(n_steps: int, stride: int) -> np.ndarray:
    """The steps 0, stride, 2 stride, ... and n_steps at which a run of
    n_steps records a sample; raises ValueError unless stride >= 1 and
    n_steps >= 0."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    steps = np.arange(0, n_steps + 1, stride)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _diverged(t_next, last_time, state, last_state) -> IntegrationDiverged:
    """The error for a step to ``t_next`` that left ``state`` non-finite;
    both states are component tuples, of floats or of member columns,
    stacked on the last axis so that ``nonfinite`` names the member first."""
    state = np.stack(state, -1)
    return IntegrationDiverged(
        f"state became non-finite at t={t_next:g}", last_time=last_time,
        nonfinite=tuple(map(tuple, np.argwhere(~np.isfinite(state)).tolist())),
        last_state=np.stack(last_state, -1))


def _kernel_source(text, stacked=False, held=()) -> str:
    """The source of the step loop of :func:`rk4_path` written out for the
    float form of ``text`` (see :attr:`FloatForm.text`).

    The generated ``run(y, t0, dt, n_steps, stride, samples, *constants)``
    keeps each component, stage rate and compensation term in a local: a
    float for a 1-D state, the column of every member for a stacked one.
    Each of the four stages assigns the stage time and values to the form's
    names, runs its lines and assigns its result to the stage's rates; the
    kernel's own names start with ``_``.  A stage assigns only the names
    that the form's lines and result read, and the step time ``_t`` is
    computed only when the form reads the time (an error builds it from
    the same expression); assigning them all cost verify_suites' ``wall_s``
    +6.6%.  Each component of ``held`` (see :func:`_held`) is assigned to
    its name once, before the loop, and has no stage value, rate,
    compensation term, finite check or swap; it is still stored with every
    sample.  The two bindings differ only in the line that stores a sample:

    - floats: the n floats are packed as native doubles straight into
      ``samples``, the bytes of the C-ordered float64 samples (``_pack``, a
      ``struct.Struct.pack_into``), which stores the same bits as
      ``samples[j] = ...`` at a third of its cost (that store cost
      verify_suites' ``wall_s`` +14%);
    - ``stacked``: the columns are stacked into ``samples[j]``.
    """
    args, time, lines, result, constants = text
    used = check_names(text)
    n = len(args)
    live = [c for c in range(n) if c not in held]
    clock = time in used
    now = "_t0 + (_i - 1) * _dt"

    def each(template):
        return [template.format(c=c) for c in live]

    def stage(k, when, values):
        # a result with a held component is a tuple display: one line a rate
        rates = assignments([f"_k{k}_{c}" for c in range(n)], result)
        return (([f"{time} = {when}"] if clock else [])
                + [f"{args[c]} = {values.format(c=c)}" for c in live if args[c] in used]
                + list(lines) + [rate for c, rate in enumerate(rates) if c not in held])

    ys = ", ".join(f"_y{c}" for c in range(n))
    store = (f"_samples[_j] = _stack(({ys},), -1)" if stacked
             else f"_pack(_samples, _j * {8 * n}, {ys})")
    before = [f"{ys}, = _y"] + [f"{args[c]} = _y{c}" for c in held if args[c] in used]
    step = ([f"_t = {now}"] if clock else []) + (
        stage(1, "_t", "_y{c}")
        + stage(2, "_t + _half", "_y{c} + _half * _k1_{c}")
        + stage(3, "_t + _half", "_y{c} + _half * _k2_{c}")
        + stage(4, "_t + _dt", "_y{c} + _dt * _k3_{c}"))
    if live:
        before.append(f"{', '.join(each('_c{c}'))}, = {(0.0,) * len(live)}")
        after = ", ".join(f"_y{c}" if c in held else f"_n{c}" for c in range(n))
        step += [line.format(c=c) for c in live for line in (
            "_e{c} = _sixth * ((_k1_{c} + 2.0 * (_k2_{c} + _k3_{c})) + _k4_{c}) - _c{c}",
            "_n{c} = _y{c} + _e{c}",
            "_c{c} = (_n{c} - _y{c}) - _e{c}")] + [
            # the float form of y . 0: NaN exactly when some component is not finite
            f"if not _isfinite({' + '.join(each('_n{c} * 0.0'))}):",
            f"    raise _diverged(_t0 + _i * _dt, {'_t' if clock else now}, ({after},), ({ys},))",
            "; ".join(each("_y{c} = _n{c}"))]
    step += ["if _i % _stride == 0 or _i == _n_steps:", f"    {store}", "    _j += 1"]
    params = ", ".join(("_y", "_t0", "_dt", "_n_steps", "_stride", "_samples")
                       + constants + ("_isfinite=_isfinite",))
    before, step = "\n    ".join(before), "\n        ".join(step)
    return f"""
def run({params}):
    {before}
    _half, _sixth = 0.5 * _dt, _dt / 6.0
    _j = 1
    for _i in range(1, _n_steps + 1):
        {step}
"""


@functools.cache
def _straight_line_rk4(text, stacked=False, held=()):
    """The compiled :func:`_kernel_source` of its arguments, kept for each
    text, binding and held set whatever the values of the constants."""
    n = len(text[0])
    return define("run", _kernel_source(text, stacked, held), f"<rk4 straight line n={n}>",
                  _isfinite=(lambda z: np.isfinite(z).all()) if stacked else math.isfinite,
                  _diverged=_diverged, _pack=struct.Struct(f"={n}d").pack_into,
                  _stack=np.stack)


def _held(text, y) -> tuple:
    """The components that the float kernel of ``text`` holds fixed from
    the 1-D start ``y``, a list of floats: each whose result element is the
    float literal ``0.0`` and whose start is finite and keeps its bits
    under ``+ 0.0`` (so is not -0.0).  Every stage value y + h * 0.0 of
    such a component is then y, and its compensated update leaves y and a
    zero compensation term as they are, so holding it changes no bit.
    Holding none cost verify_suites' ``wall_s`` +16% (as every cost in this
    module, medians of 8 alternating perfbench pairs on a 2-vCPU VM)."""
    return tuple(c for c, node in enumerate(elements(text[3], len(text[0])) or ())
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)
                 and node.value == 0.0 and math.isfinite(y[c])
                 and (y[c] + 0.0).hex() == y[c].hex())


def _float_rk4(form: FloatForm, y, t0, dt, n_steps, stride, rows) -> np.ndarray:
    """The ``rows`` samples of :func:`rk4_path` for the 1-D state ``y``, run
    in this process by the float kernel of ``form`` that holds the
    :func:`_held` components of ``y``."""
    samples = np.empty((rows, len(y)))
    samples[0] = y
    start = y.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        _straight_line_rk4(form.text, False, _held(form.text, start))(
            start, t0, dt, n_steps, stride, memoryview(samples).cast("B"),
            *form.constants.values())
    return samples


# the fewest component-steps (n_steps times the state's width) worth
# splitting a 1-D state across processes.  On a 2-vCPU VM splitting 12- and
# 16-component forms broke even at ~45k; 100k keeps a twofold margin.  Every
# splittable benchmark run is above it (the closest, superluminal, has
# 100,528), so only short runs, tier-1's and small user runs, stay on one CPU;
# at 100k a 12-component nonrel state took 28.9, 23.3 and 30.8 ms in 1, 2 and 3 bins
SPLIT_WORK = 100_000


def _bins(groups, count: int) -> list:
    """``groups`` of columns dealt into ``count`` bins balanced by component
    count, each group, largest first, to the bin with the fewest; returns
    each bin's sorted columns, the largest bin first."""
    bins = [[] for _ in range(count)]
    for group in sorted(groups, key=len, reverse=True):
        min(bins, key=len).extend(group)
    return sorted(map(sorted, bins), key=len, reverse=True)


def _split_rk4(form: FloatForm, bins, y, t0, dt, n_steps, stride, rows):
    """The samples of :func:`rk4_path` for the 1-D state ``y``, one process
    per bin of columns: each bin is the :func:`_float_rk4` run of its
    restricted form, built and compiled by the process that runs it, the
    first here and each other in a forked child, which writes its samples to
    its part for this process to put in their columns; a bin whose child
    fails runs again here (see :func:`~zitterkit.forks.fork_jobs`).  Returns
    None, with no child left, if a bin raised."""
    samples = None

    def run(k):
        return _float_rk4(form.restricted(bins[k]), y[bins[k]], t0, dt, n_steps, stride, rows)

    def put(k, block):  # bin 0's first: its build and compile run before the samples exist
        nonlocal samples
        if samples is None:
            samples = np.empty((rows, len(y)))
        samples[:, bins[k]] = block.reshape(rows, len(bins[k]))

    try:
        fork_jobs([lambda: put(0, run(0))]
                  + [lambda part, k=k: part.buffer.write(run(k)) for k in range(1, len(bins))],
                  lambda k, part: put(k, np.frombuffer(part.buffer.read())))
    except Exception:
        return None  # the run on one process raises it again
    return samples


def rk4_path(rates, y0, t0: float, dt: float, n_steps: int, stride: int = 1):
    """Classical fixed-step RK4 over a state of n components.

    ``rates(t, y_0, ..., y_{n-1})`` returns the n time derivatives at time
    ``t``: a :class:`~zitterkit.forms.FloatForm` with a time name, or any
    callable, which runs as the one-line form ``rates(t, y0, ..., y{n-1})``.
    The form is spliced into each stage of one generated straight-line
    loop.  A 1-D state runs it on n Python floats; a stacked state of shape
    (..., n) runs the same source on the column views ``y[..., c]``.  The
    float form must therefore use elementwise arithmetic only, which gives
    the same bits on floats and on arrays, since CPython floats and numpy's
    elementwise loops both round IEEE doubles with no fused multiply-add.
    Each member of a stack then gets the same times and samples as its own
    run.  The loop assigns only the names the form reads, and a 1-D run
    holds fixed its :func:`_held` components, such as p in a free canonical
    run; both give the same bits as the full loop.  Returns
    ``(times, samples)`` where samples are recorded every ``stride`` steps
    plus the final step.  The state update uses compensated summation so
    that long runs stay truncation-limited rather than roundoff-limited.
    Raises :class:`IntegrationDiverged` if the state stops being finite.

    A 1-D state whose form has two or more :attr:`~FloatForm.groups` of
    components (every built-in potential but the gaussian, and free runs)
    runs in parallel when at least two CPUs are usable and ``n_steps`` times
    n reaches SPLIT_WORK: the groups are dealt into one bin per usable CPU
    (one per group where that is one bin more, three axes on two CPUs),
    balanced by component count, and each bin runs as the 1-D state of its
    :meth:`~FloatForm.restricted` form, the first in this process and each
    other in a forked child, which returns its samples through its part
    (see :mod:`zitterkit.forks`); the kernel shares the CPUs among the bins.
    Each bin builds its form, picks its held components and compiles its
    kernel in the process that runs it.  Each component is computed by the
    same operations as in one process, so the samples are the same bits.  A
    bin whose child fails runs again in this process; if a bin raises, the
    whole state runs again in this process, which raises the same error as a
    run on one CPU.
    """
    _require_positive("dt", dt)
    steps = _sample_steps(n_steps, stride)
    y = np.array(y0, dtype=float, order="C")
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ValueError(f"a state needs at least one component on its last axis, "
                         f"got shape {y.shape}")
    times = t0 + steps * dt
    form = (rates if isinstance(rates, FloatForm)
            else FloatForm.call(rates, [f"y{c}" for c in range(y.shape[-1])], time="t"))
    if y.ndim > 1:
        samples = np.empty((len(steps),) + y.shape)
        samples[0] = y
        with np.errstate(over="ignore", invalid="ignore"):
            _straight_line_rk4(form.text, True)(np.moveaxis(y, -1, 0), t0, dt, n_steps, stride,
                                                samples, *form.constants.values())
        return times, samples
    if n_steps * len(y) >= SPLIT_WORK:
        groups, cpus = form.groups, usable_cpus()
        # one group more than CPUs: a bin per group, which the kernel time-shares
        # over the CPUs.  Without: nonrel_loop wall_s +10.2% (0.550 -> 0.606 s)
        count = len(groups) if cpus > 1 and len(groups) == cpus + 1 else min(cpus, len(groups))
        if count > 1:
            samples = _split_rk4(form, _bins(groups, count), y, t0, dt, n_steps, stride,
                                 len(steps))
            if samples is not None:
                return times, samples
    return times, _float_rk4(form, y, t0, dt, n_steps, stride, len(steps))


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
    if np.all(vec.components == 0.0):
        return
    sq = dot(vec, vec)
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
    pp = check_on_shell(p, params.m, tol)
    if x0 is None:
        x0 = FourVector.zero()
    if project:
        cos_amp, sin_amp = (vec - p * (dot(p, vec) / pp) for vec in (cos_amp, sin_amp))
    for vec, name in ((cos_amp, "cos_amp"), (sin_amp, "sin_amp")):
        _check_spacelike(vec, name)
        ortho = dot(p, vec)
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


# rows a block of the canonical post-processing (records, monitor and the
# free-run oracle).  On a 2-vCPU VM (one CPU, 40 interleaved passes of all
# three over free_cmf's 31,417 rows), 1024, 4096 and 16384 rows took 56.2,
# 52.1 and 54.1 ms a pass with traced peaks of 0.8, 2.9 and 10.8 MiB above
# the records; one block of all rows took ~66 ms and 15.3 MiB.  4096 is the
# fastest and bounds the temporaries near 3 MiB whatever the run's length
BLOCK_ROWS = 4096


def row_blocks(n: int) -> list:
    """The slices of at most BLOCK_ROWS rows that cover rows 0..n-1 in order."""
    return [slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]


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
    if n_total < 5:
        raise ValueError(f"monitor needs at least 5 samples, got {n_total}")
    h, n_uni = _uniform_prefix(traj.times)
    if n_uni < 5:
        raise ValueError("monitor needs at least 5 uniformly spaced samples")

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


def _period_velocities(sol: FreeSolution, samples: int) -> np.ndarray:
    """The velocity of ``sol`` at samples + 1 evenly spaced times spanning one
    oscillation period, ends included."""
    period = 2.0 * np.pi / sol.omega
    return sol.sample(np.linspace(0.0, period, samples + 1))[1]


def mean_time_dilation(sol: FreeSolution, samples: int = 4096) -> TimeDilation:
    """Average of v^0 over one oscillation period versus the constant p^0/m.

    The pointwise v^0(tau) itself is not constant (inspect it through
    ``sol.sample``); only its period mean equals the Lorentz factor p^0/m.
    The mean is measured by trapezoidal quadrature over one exact period.
    """
    v0 = _period_velocities(sol, samples)[:, 0]
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
    v = _period_velocities(sol, samples)
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
