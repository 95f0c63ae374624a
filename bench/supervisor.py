"""Leave no process behind: the benchmark's outermost frame.

A workload starts processes it does not own the end of.  ``ShardPool``
and the service's ``WorkerPool`` stop and join their workers, but every
process that touched a ``multiprocessing`` shared-memory segment -- this
one and each forked worker -- also has a ``resource_tracker`` helper
that only exits once its owner is gone: after the last ``join``, as an
orphan, a few milliseconds *after* the benchmark's own exit.  A caller
that looks at the process table the moment the command returns sees it
still running.

So the command the driver runs is a supervisor.  ``supervise()`` forks
before anything heavy is imported: the child, in a session of its own,
returns and does all the work; the parent adopts whatever the child
orphans (``PR_SET_CHILD_SUBREAPER``), waits for the child and then for
every other member of that session to end -- SIGTERM, then SIGKILL, for
what is still there after ``GRACE_S``, and at once on every other way
out (Ctrl-C, SIGTERM) -- reaps them, and exits with the child's code.
It prints nothing, so the child's last line stays the last line.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

#: Seconds orphans get to end by themselves once the work is done (the
#: resource trackers need milliseconds), and again after each signal.
GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Descendants whose parent dies are re-parented to this process, so
    it can wait for them.  Best effort: where ``prctl`` is missing they
    go to init, and ``_alive`` still sees them end."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _alive(session: int) -> list:
    """Pids of the live (non-zombie) processes of ``session``."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if fields[0] != b"Z" and int(fields[3]) == session:
            pids.append(int(pid))
    return pids


def _reap() -> None:
    """Collect every child (own or adopted) that has already ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _wait_until_gone(session: int, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while True:
        _reap()
        if not _alive(session):
            _reap()  # what ended between the two lines above
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)


def supervise() -> None:
    """Fork; return in the child, which goes on to do the work.  The
    parent never returns: it exits with the child's code once the child
    and everything the child started have ended and been reaped."""
    _adopt_orphans()
    sys.stdout.flush()
    sys.stderr.flush()
    child = os.fork()
    if child == 0:
        os.setsid()  # own session and process group: what the parent waits for and kills
        return

    def _terminated(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminated)
    code, ended = 1, False
    try:
        _, status = os.waitpid(child, 0)
        code, ended = os.waitstatus_to_exitcode(status), True
        if code < 0:
            code = 128 - code  # killed by a signal, as a shell reports it
    except KeyboardInterrupt:
        code = 130
    finally:
        gone = ended and _wait_until_gone(child, GRACE_S)
        # SIGTERM first: workers die of it, while the resource trackers
        # ignore it and, their owners gone, unlink the shared memory
        # those left in /dev/shm before ending by themselves.
        for signum in (signal.SIGTERM, signal.SIGKILL):
            if gone:
                break
            for pid in _alive(child) + ([] if ended else [child]):
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass
            gone = _wait_until_gone(child, GRACE_S)
    os._exit(code)  # noqa: SLF001 - nothing of this process is left to clean up
