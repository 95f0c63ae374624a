"""Forked workers with a pipe each: the one worker primitive.

Both process pools stand on :class:`Workers`: the shard pool that runs
one proof's graphs (:class:`repro.parallel.ShardPool`) and the proving
service's job workers (:class:`repro.service.ProvingService`).  It forks
N processes and gives each its own duplex pipe, so a worker killed
mid-reply tears only its own pipe: the half message reads as EOF, and
every other worker's replies still arrive.

Every worker runs the one loop, :func:`_serve`.  SIGINT is ignored (a
foreground Ctrl-C reaches the whole process group, and shutdown is the
coordinator's to drive), ``None`` or EOF ends it, and an exception in a
task becomes an ``ok: False`` reply instead of a dead worker.  A child
first closes every coordinator pipe end it inherited, so the
coordinator is the only holder of the other end of each worker's pipe:
when it exits or dies, its workers read EOF and exit, and the resource
tracker they share with it then unlinks its shared-memory segments.
There is one level of workers: a worker starts with no pool scoped
(``RUN.pool`` is ``None``, even when its parent forked it inside
:func:`repro.parallel.sharding`), so a proof it runs stays in it on the
inline executor, and it forks nothing.

A dead worker is detected one way: :meth:`Workers.wait` waits on the
result pipes and the process sentinels together and returns ``(replies,
dead)``.  What a death means -- a failed graph, a retried job, a
deadline -- is the caller's policy; :meth:`Workers.replace` forks a
fresh worker into the slot.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import threading
from multiprocessing import connection, util
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..context import RUN

_CTX = mp.get_context("fork")

#: Pipe ends a process forked from this one must close: the coordinator
#: ends of every worker here.
_INHERITED: set = set()
#: Held from pipe creation to fork, so no thread forks a child that
#: inherits a coordinator end not yet in :data:`_INHERITED`.
_FORK_LOCK = threading.Lock()

#: ``handle(worker_id, payload) -> reply fields``, run in the worker.
Handler = Callable[[int, Any], Dict[str, Any]]
#: ``(worker_id, tag, reply)``: one reply, with the tag its task was sent.
Reply = Tuple[int, Any, Dict[str, Any]]


def _serve(worker_id: int, conn, handle: Handler) -> None:
    """The worker loop: take a task, run it, send the reply."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in _INHERITED:
        end.close()
    _INHERITED.clear()
    RUN.pool = None  # a worker is never inside its parent's pool
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break  # the coordinator is gone
        if task is None:
            break
        tag, payload = task
        try:
            reply = {"ok": True, **handle(worker_id, payload)}
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send((tag, reply))
        except OSError:
            break


def _close_ends(conns: List[Any]) -> None:
    for conn in conns:
        _INHERITED.discard(conn)
        conn.close()


class Workers:
    """``count`` forked workers, a duplex pipe each, one worker loop.

    ``handle(worker_id, payload)`` runs each task in a worker and returns
    the reply's fields.  :meth:`start` forks the workers; until then, and
    after :meth:`stop`, there are none.
    """

    def __init__(self, count: int, handle: Handler) -> None:
        self.count = count
        self._handle = handle
        #: Worker processes by slot; a replaced worker's slot keeps its id.
        self.procs: List[Any] = []
        self._conns: List[Any] = []
        #: Workers forked into a slot a dead or killed one left.
        self.restarts = 0
        # At interpreter exit, before multiprocessing joins its children:
        # EOF tells every worker to finish its task and exit.
        util.Finalize(self, _close_ends, args=(self._conns,), exitpriority=0)

    def _fork(self, worker_id: int) -> Tuple[Any, Any]:
        with _FORK_LOCK:
            ours, theirs = _CTX.Pipe()
            _INHERITED.add(ours)
            proc = _CTX.Process(target=_serve, args=(worker_id, theirs, self._handle))
            proc.start()
            theirs.close()
        return proc, ours

    def start(self) -> "Workers":
        """Fork every worker not running yet (idempotent)."""
        for worker_id in range(len(self.procs), self.count):
            proc, conn = self._fork(worker_id)
            self.procs.append(proc)
            self._conns.append(conn)
        return self

    def send(self, worker_id: int, tag: Any, payload: Any) -> None:
        """Hand one task to a worker; its reply comes back with ``tag``.

        A worker that died since the last :meth:`wait` cannot take it;
        the next :meth:`wait` reports it dead.
        """
        try:
            self._conns[worker_id].send((tag, payload))
        except OSError:
            pass

    def wait(self, timeout: Optional[float]) -> Tuple[List[Reply], List[int]]:
        """Block up to ``timeout`` s (``None``: until something happens)
        for replies and deaths: ``([(worker_id, tag, reply)], [dead
        worker_id])``.  A dead worker stays in ``dead`` until replaced."""
        owner: Dict[Any, int] = {}
        for worker_id, (proc, conn) in enumerate(zip(self.procs, self._conns)):
            owner[conn] = owner[proc.sentinel] = worker_id
        replies: List[Reply] = []
        dead: List[int] = []
        for ready in connection.wait(list(owner), timeout):
            worker_id = owner[ready]
            if ready is self._conns[worker_id]:
                try:
                    while ready.poll():
                        replies.append((worker_id, *ready.recv()))
                    continue
                except (EOFError, OSError):
                    pass  # EOF, or a message torn by the writer's death
            if worker_id not in dead:
                dead.append(worker_id)
        return replies, dead

    def replace(self, worker_id: int) -> Optional[int]:
        """SIGKILL a worker if it still runs, reap it, and fork a fresh
        one into its slot; returns the old worker's exit code."""
        proc, conn = self.procs[worker_id], self._conns[worker_id]
        _close_ends([conn])
        proc.kill()
        proc.join()
        code = proc.exitcode
        proc.close()
        self.procs[worker_id], self._conns[worker_id] = self._fork(worker_id)
        self.restarts += 1
        return code

    def stop(self, timeout_s: float = 5.0) -> None:
        """EOF to every worker, then join them; SIGKILL those still
        running once ``timeout_s`` passes with none of them exiting."""
        _close_ends(self._conns)
        running = {proc.sentinel: proc for proc in self.procs}
        while running and (ended := connection.wait(list(running), timeout_s)):
            for sentinel in ended:
                del running[sentinel]
        for proc in running.values():
            proc.kill()
        for proc in self.procs:
            proc.join()
            proc.close()
        self.procs.clear()
        self._conns.clear()
