"""Jobs run side by side in forked processes.

:func:`fork_jobs` is the one helper that the CSV writer, ``verify`` and the
RK4 driver use to run work in parallel.  Each child it forks pins itself to
a usable CPU of its own (see :func:`_child_cpus`), so it sees one usable CPU
and nothing it runs forks again.  Every child returns its result through its
part, an unnamed temporary file: CSV text, a pickled suite result or the
bytes of RK4 samples.  A job whose child fails runs again in the parent.
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
    of ``/proc/self/stat``), for the children to take in turn, so that a
    child and its parent do not share a CPU while another idles; empty where
    that field or the affinity calls are missing.  Without pinning (a child
    told by a flag that it has one CPU), canonical_io's and nonrel_loop's
    peak_rss_mb read +0.2 MiB in 15 of 16 perfbench pairs; wall_s held."""
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
    order, calling ``collect(k, part)`` with ``part`` rewound.  A job whose
    child exits non-zero, or whose ``os.fork`` raises OSError, first runs
    again here on its emptied part, so every result and every error is
    that of a run in one process.  A later job may write only to its part,
    which makes that second run safe.  Returns what ``jobs[0]`` and each
    ``collect`` returned.  No child outlives the call and every part is
    closed, whether it returns or raises.
    """
    import signal
    import tempfile

    parent = os.getpid()
    cpus = _child_cpus() if len(jobs) > 1 else []
    children = []  # [pid, part] of each later job; pid None if reaped or never forked
    try:
        for k, job in enumerate(jobs[1:]):
            part = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
            children.append([None, part])
            try:
                pid = os.fork()
            except OSError:
                continue  # the job runs here once jobs[0] has
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
