"""Jobs run side by side in forked processes.

:func:`fork_jobs` is the one helper that the CSV writer, ``verify`` and the
RK4 driver use to run work in parallel.  Each child it forks pins itself to
one usable CPU other than the one its parent runs on, so that the two do
not share a CPU while another idles; a pinned child then sees one usable
CPU, so nothing it runs forks again.  Every child returns its result through
its part, an unnamed temporary file: CSV text, a pickled suite result or the
bytes of RK4 samples.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpus", "fork_jobs"]


def usable_cpus() -> int:
    """How many CPUs this process may run on; 1 where ``os.fork`` is missing,
    so that nothing is split across processes there."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_cpus() -> list:
    """The usable CPUs other than the one this process last ran on (field 39
    of ``/proc/self/stat``), for the children to take in turn; empty where
    that field or the affinity calls are missing."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        return sorted(os.sched_getaffinity(0) - {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return []


def fork_jobs(jobs: list, collect) -> list:
    """Run ``jobs[0]()`` here while each later ``jobs[k](part)`` runs in a
    forked child; ``part`` is the child's own unnamed temporary file, UTF-8
    text without newline translation, whose ``buffer`` takes bytes.

    Child k first pins itself to the k-th of the usable CPUs other than
    this process's, in turn; where that CPU is unknown or
    ``os.sched_setaffinity`` raises OSError, it runs unpinned.  A child
    leaves through ``os._exit``: 0 once its job has returned and ``part``
    is flushed, 1 if the job raised.  Then the children are reaped in
    order, calling ``collect(k, part, exit_code)`` with ``part`` rewound.
    Returns what ``jobs[0]`` and each ``collect`` returned.  No child
    outlives the call and every part is closed, whether it returns or raises.
    """
    import signal
    import tempfile

    parent = os.getpid()
    cpus = _child_cpus() if len(jobs) > 1 else []
    children = []  # [pid, part] of each later job; pid None once reaped
    try:
        for k, job in enumerate(jobs[1:]):
            part = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
            children.append([None, part])
            pid = os.fork()
            if pid == 0:
                if cpus:
                    try:
                        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                    except OSError:
                        pass
                job(part)
                part.flush()
                os._exit(0)
            children[-1][0] = pid
        values = [jobs[0]()]
        for k, child in enumerate(children, start=1):
            pid, part = child
            status = os.waitpid(pid, 0)[1]
            child[0] = None
            part.seek(0)
            values.append(collect(k, part, os.waitstatus_to_exitcode(status)))
        return values
    finally:
        if os.getpid() != parent:  # a child whose job raised leaves without unwinding
            os._exit(1)
        for pid, part in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            part.close()
