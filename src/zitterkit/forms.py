"""Float forms: a derivative written once, as source text.

A :class:`FloatForm` holds the argument names, an optional time name, a few
statement lines, one result expression and a dict of the constants it
reads.  Calling the form runs a function compiled from that text; the
straight-line RK4 kernel of :mod:`zitterkit.dynamics` splices the same text
into its stages instead of calling it.  Compiles are cached on the text,
with the constants passed in at run time, so one compile serves every value
of them, and nothing is compiled before the first call.
"""

from __future__ import annotations

import ast
import functools

__all__ = ["FloatForm"]


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
