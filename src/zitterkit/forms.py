"""Float forms: a derivative written once, as source text, and its RK4 driver.

A :class:`FloatForm` holds the argument names, an optional time name, a few
statement lines, one result expression and a dict of the constants it
reads.  Calling the form runs a function compiled from that text;
:func:`rk4_path`, the one RK4 driver of every integrator, splices the same
text into the stages of its generated loop instead.  Compiles are cached on
the text, with the constants passed in at run time, so one compile serves
every value of them, and nothing is compiled before the first call.
"""

from __future__ import annotations

import ast
import functools
import math
import struct

import numpy as np

from .forks import fork_jobs, usable_cpus

__all__ = ["FloatForm", "IntegrationDiverged", "rk4_path", "step_count"]


def define(name: str, source: str, filename: str, **namespace):
    """Compile ``source`` with ``namespace`` as its globals and return the
    function ``name`` that it defines."""
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def check_names(text) -> set:
    """Raise ValueError unless the form ``text`` leaves the ``_`` names to
    the code it is spliced into, names each argument, the time and each
    constant once, and assigns to none of them; returns every name that its
    lines and result use."""
    args, time, lines, result, constants = text
    tree = ast.parse("\n".join(lines + (result,)))
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    given = list(args) + list(constants) + ([time] if time else [])
    private = sorted(name for name in {n.id for n in names} | set(given)
                     if name.startswith("_"))
    if private:
        raise ValueError(f"a float form may not use names that start with '_': {private}")
    if len(set(given)) != len(given):
        raise ValueError(f"a float form names an argument, its time or a constant twice: "
                         f"{given}")
    assigned = sorted({n.id for n in names if isinstance(n.ctx, ast.Store)} & set(given))
    if assigned:
        raise ValueError(f"a float form may not assign to its arguments or constants: "
                         f"{assigned}")
    return {n.id for n in names}


def elements(expression: str, count: int):
    """The element nodes of ``expression`` when it is a tuple display of
    ``count`` elements, none of them starred; else None."""
    node = ast.parse(expression, mode="eval").body
    if (isinstance(node, ast.Tuple) and len(node.elts) == count
            and not any(isinstance(e, ast.Starred) for e in node.elts)):
        return node.elts
    return None


def assignments(targets, expression: str) -> list:
    """``targets = expression`` as statement lines: one line per target
    when the expression is a tuple display of one element per target that
    reads none of them, which saves building and unpacking the tuple."""
    node = ast.parse(expression, mode="eval").body
    read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    nodes = elements(expression, len(targets))
    if nodes is not None and not read & set(targets):
        return [f"{t} = {ast.get_source_segment(expression, e)}"
                for t, e in zip(targets, nodes)]
    return [f"{', '.join(targets)}, = {expression}"]


@functools.cache
def _partition(text):
    """The independent blocks of the form ``text``: ``(groups, roots,
    elements)``, where ``groups`` lists the argument indices of each block,
    ``roots`` names the block of each line and then of each argument, and
    ``elements`` is the source of each result element; None when the form
    cannot be split.

    A union-find joins every argument and assigned name with the arguments
    and assigned names that its line, or its result element, reads; the
    time and the constants are read by every block.  Only lines that are
    single assignments to plain names, with no assignment expression, and a
    result that is a tuple display of one element per argument are analysed.
    """
    args, _, lines, result, _ = text
    statements = [ast.parse(line).body for line in lines]
    nodes = elements(result, len(args))
    if nodes is None:
        return None
    # an assignment inside an expression would hide what its name reads
    if any(isinstance(n, ast.NamedExpr) for n in ast.walk(ast.parse("\n".join(lines)))):
        return None
    targets = []
    for body in statements:
        if not (len(body) == 1 and isinstance(body[0], ast.Assign)
                and len(body[0].targets) == 1):
            return None
        target = body[0].targets[0]
        names = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        if not all(isinstance(name, ast.Name) for name in names):
            return None
        targets.append([name.id for name in names])
    parent = {name: name for name in (*args, *(t for names in targets for t in names))}

    def find(name):
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def join(names, value):
        roots = [find(name) for name in names]
        roots += [find(n.id) for n in ast.walk(value)
                  if isinstance(n, ast.Name) and n.id in parent]
        for root in roots[1:]:
            parent[root] = roots[0]

    for names, body in zip(targets, statements):
        join(names, body[0].value)
    for arg, element in zip(args, nodes):
        join([arg], element)
    groups = {}
    for c, arg in enumerate(args):
        groups.setdefault(find(arg), []).append(c)
    return (tuple(map(tuple, groups.values())),
            [find(names[0]) for names in targets] + [find(arg) for arg in args],
            [ast.get_source_segment(result, e) for e in nodes])


@functools.cache
def _maker(text):
    """``make(*constants)``, which returns the function of the form ``text``."""
    check_names(text)
    args, time, lines, result, constants = text
    body = "\n        ".join(lines + (f"return {result}",))
    source = f"""
def make({", ".join(constants)}):
    def form({", ".join(((time,) if time else ()) + args)}):
        {body}
    return form
"""
    return define("make", source, "<float form>")


class FloatForm:
    """A function given as text: ``form(time, *args)`` (or ``form(*args)``
    when ``time`` is None) runs ``lines`` and returns ``result``, reading
    the names of ``constants`` as their values.  Use elementwise arithmetic
    only, so the form gives the same bits on floats and on arrays of them.
    """

    __slots__ = ("args", "time", "lines", "result", "constants", "_function")

    def __init__(self, args, result: str, lines=(), constants=None, time: str | None = None):
        self.args = tuple(args)
        self.time = time
        self.lines = tuple(lines)
        self.result = result
        self.constants = dict(constants or {})
        self._function = None

    @classmethod
    def call(cls, function, args, time: str | None = None, name: str = "rates"):
        """The one-line form ``name(time, *args)`` with the constant
        ``name`` bound to ``function``."""
        params = ((time,) if time else ()) + tuple(args)
        return cls(args, f"{name}({', '.join(params)})", constants={name: function},
                   time=time)

    @property
    def text(self) -> tuple:
        """The hashable text of the form, constant names without values."""
        return self.args, self.time, self.lines, self.result, tuple(self.constants)

    def spliced(self, inner: "FloatForm", targets) -> "FloatForm":
        """This form with the lines of ``inner`` run first and its result
        assigned to ``targets``; the arguments of ``inner`` must be
        arguments of this form, and the two may share no constant."""
        missing = [name for name in inner.args if name not in self.args]
        if missing:
            raise ValueError(f"spliced form reads {missing}, which are not arguments")
        shared = sorted(self.constants.keys() & inner.constants.keys())
        if shared:
            raise ValueError(f"spliced forms share the constants {shared}")
        return FloatForm(self.args, self.result,
                         inner.lines + tuple(assignments(targets, inner.result)) + self.lines,
                         {**self.constants, **inner.constants}, self.time)

    @property
    def groups(self) -> tuple:
        """The argument indices of each block of components whose rates read
        only each other, in argument order (see :func:`_partition`): one
        group of all of them when the text cannot be analysed, as for every
        :meth:`call`."""
        partition = _partition(self.text)
        return partition[0] if partition else (tuple(range(len(self.args))),)

    def restricted(self, columns) -> "FloatForm":
        """The form of the components ``columns``, a union of :attr:`groups`
        in argument order: their arguments and result elements, the lines
        of their groups and every constant."""
        columns = tuple(columns)
        chosen = [group for group in self.groups if set(group) & set(columns)]
        if sorted(c for group in chosen for c in group) != list(columns):
            raise ValueError(f"columns {list(columns)} are not a union of the groups "
                             f"{self.groups}")
        partition = _partition(self.text)
        if partition is None:
            return self
        _, roots, elements = partition
        kept = {roots[len(self.lines) + group[0]] for group in chosen}
        lines = tuple(line for line, root in zip(self.lines, roots) if root in kept)
        result = ", ".join(elements[c] for c in columns) + ("," if len(columns) == 1 else "")
        return FloatForm([self.args[c] for c in columns], result, lines, self.constants,
                         self.time)

    def __call__(self, *values):
        if self._function is None:
            self._function = _maker(self.text)(*self.constants.values())
        return self._function(*values)


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
    n_steps >= 0, and when numpy cannot allocate the grid."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    try:
        steps = np.arange(0, n_steps + 1, stride)
        return steps if steps[-1] == n_steps else np.append(steps, n_steps)
    except MemoryError as exc:
        count = -(-n_steps // stride) + 1
        raise ValueError(f"the grid of {count} samples ({n_steps} steps at stride {stride}) "
                         f"cannot be allocated: {exc}") from exc


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
