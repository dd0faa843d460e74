"""Jobs run side by side in forked processes.

:func:`fork_jobs` is the one helper that the CSV writer, ``verify`` and the
RK4 driver use to run work in parallel.  The kernel places each child on a
CPU; a child learns from this module that it has one usable CPU, so nothing
it runs forks again.  Every child returns its result through its part, an
unnamed temporary file: CSV text, a pickled suite result or the bytes of RK4
samples.  A job whose child fails runs again in the parent.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpus", "fork_jobs"]

_forked = False  # set in a child of fork_jobs


def usable_cpus() -> int:
    """How many CPUs this process may run on; 1 in a child of
    :func:`fork_jobs`, and where ``os.fork`` is missing, so that nothing is
    split across processes there."""
    if _forked or not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_jobs(jobs: list, collect) -> list:
    """Run ``jobs[0]()`` here while each later ``jobs[k](part)`` runs in a
    forked child; ``part`` is the child's own unnamed temporary file, UTF-8
    text without newline translation, whose ``buffer`` takes bytes.

    In a child, :func:`usable_cpus` returns 1.  A child leaves through
    ``os._exit``: 0 once its job has returned and ``part`` is flushed, 1 if
    the job raised.  Then the children are reaped in order, calling
    ``collect(k, part)`` with ``part`` rewound.  A job whose child exits
    non-zero, or whose ``os.fork`` raises OSError, first runs again here on
    its emptied part, so every result and every error is that of a run in
    one process.  A later job may write only to its part, which makes that
    second run safe.  Returns what ``jobs[0]`` and each ``collect``
    returned.  No child outlives the call and every part is closed, whether
    it returns or raises.
    """
    import signal
    import tempfile

    global _forked
    parent = os.getpid()
    children = []  # [pid, part] of each later job; pid None if reaped or never forked
    try:
        for job in jobs[1:]:
            part = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
            children.append([None, part])
            try:
                pid = os.fork()
            except OSError:
                continue  # the job runs here once jobs[0] has
            if pid == 0:
                _forked = True
                job(part)
                part.flush()
                os._exit(0)
            children[-1][0] = pid
        values = [jobs[0]()]
        for k, child in enumerate(children, start=1):
            pid, part = child
            if pid is not None:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                child[0] = None
            if pid is None or code:
                part.seek(0)
                part.truncate()
                jobs[k](part)
            part.seek(0)
            values.append(collect(k, part))
        return values
    finally:
        if os.getpid() != parent:  # a child whose job raised leaves without unwinding
            os._exit(1)
        for pid, part in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            part.close()
