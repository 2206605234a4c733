"""A persistent worker pool hosting long-lived per-worker state.

:class:`~concurrent.futures.ProcessPoolExecutor` (used by
:mod:`repro.runner.parallel`) is built for one-shot task submission:
every task re-pickles its inputs and no state survives between tasks.
Some work needs the opposite: a worker builds expensive state *once*
(a warm kernel, a loaded cache, a built simulation) and then answers
many small commands against it.

:class:`PersistentWorkerPool` provides exactly that: ``n_workers``
processes, each running a command loop over a duplex pipe and hosting
named **actors** (arbitrary objects built in-worker from a picklable
factory).  Calls are explicitly pipelined: :meth:`call` only sends the
command, :meth:`result` collects the reply, so a caller can issue one
command to every worker and then gather, in one round trip instead of
``n_workers`` sequential ones.

Failures in a worker are caught there and re-raised in the parent as
:class:`WorkerError` carrying the remote traceback text.

A worker that *dies* mid-command (killed, OOM, segfault) is detected at
the next :meth:`~PersistentWorkerPool.result`/:meth:`~PersistentWorkerPool.call`
touching it: the pool raises :class:`WorkerError` with ``died=True`` and
**respawns a fresh process** in the dead worker's slot, so the pool
stays usable — but the replacement starts empty, so every actor the
dead worker hosted must be re-created by the caller.  The job server's
retry path (:mod:`repro.serve.server`) already treats a
:class:`WorkerError` with ``died=True`` that way.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import Any, Callable

__all__ = ["PersistentWorkerPool", "WorkerError"]


class WorkerError(RuntimeError):
    """An exception raised inside a pool worker, with remote traceback.

    ``died`` distinguishes a worker that *raised* (the remote traceback
    is the real stack) from one that *vanished* mid-command (killed or
    crashed before it could answer; the pool has already respawned its
    slot and ``remote_traceback`` describes the death instead).
    """

    def __init__(self, worker: int, remote_traceback: str,
                 *, died: bool = False) -> None:
        verb = "died" if died else "raised"
        super().__init__(
            f"worker {worker} {verb}:\n{remote_traceback}"
        )
        self.worker = worker
        self.remote_traceback = remote_traceback
        self.died = died


def _worker_main(conn) -> None:
    """Command loop run inside each worker process.

    Commands are tuples; the first element selects the operation:

    * ``("create", name, factory, args, kwargs)`` — build an actor;
    * ``("call", name, method, args, kwargs)`` — invoke a method on it;
    * ``("stop",)`` — acknowledge and exit.

    Every command is answered with ``("ok", value)`` or ``("err",
    traceback_text)`` in command order, preserving the parent's
    pipelining contract.
    """
    actors: dict[str, Any] = {}
    while True:
        command = conn.recv()
        op = command[0]
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            if op == "create":
                _, name, factory, args, kwargs = command
                actors[name] = factory(*args, **kwargs)
                conn.send(("ok", None))
            elif op == "call":
                _, name, method, args, kwargs = command
                value = getattr(actors[name], method)(*args, **kwargs)
                conn.send(("ok", value))
            else:
                raise ValueError(f"unknown pool command {op!r}")
        except BaseException:
            conn.send(("err", traceback.format_exc()))


class PersistentWorkerPool:
    """``n_workers`` processes hosting named actors across many calls.

    Use as a context manager; :meth:`close` shuts the workers down and
    joins them.  All factories, methods arguments and return values
    must be picklable; factories and actor classes must be importable
    (module-level) in the worker.
    """

    def __init__(self, n_workers: int, *, mp_context: str | None = None) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self._ctx = mp.get_context(mp_context)
        self._workers: list = [None] * n_workers
        self._conns: list = [None] * n_workers
        self._inflight = [0] * n_workers
        self._closed = False
        self.respawns = 0
        for worker in range(n_workers):
            self._spawn(worker)

    def _spawn(self, worker: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        self._workers[worker] = process
        self._conns[worker] = parent_conn
        self._inflight[worker] = 0

    def _respawn_dead(self, worker: int, context: str) -> WorkerError:
        """Replace a dead worker's slot; returns the error to raise.

        The dead worker's outstanding commands (and its actors) are
        gone; callers that pipelined more commands against it must
        rebuild after catching the returned :class:`WorkerError`.
        """
        process = self._workers[worker]
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - defensive
            pass
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join()
        exitcode = process.exitcode
        self.respawns += 1
        self._spawn(worker)
        return WorkerError(
            worker,
            f"worker process died {context} (exit code {exitcode}); "
            "a fresh worker was respawned but its actors are lost",
            died=True,
        )

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def worker_pid(self, worker: int) -> int:
        """OS pid of one worker process (fault-injection tests)."""
        return self._workers[worker].pid

    # -- pipelined command interface ---------------------------------------

    def create(self, worker: int, name: str, factory: Callable,
               *args: Any, **kwargs: Any) -> None:
        """Build ``factory(*args, **kwargs)`` as actor ``name`` (pipelined)."""
        self._send(worker, ("create", name, factory, args, kwargs))

    def call(self, worker: int, name: str, method: str,
             *args: Any, **kwargs: Any) -> None:
        """Invoke ``name.method(*args, **kwargs)`` in ``worker`` (pipelined)."""
        self._send(worker, ("call", name, method, args, kwargs))

    def result(self, worker: int) -> Any:
        """Collect the oldest outstanding reply from ``worker``.

        Raises :class:`WorkerError` when the remote command failed, or
        (with ``died=True``, after respawning the slot) when the worker
        process vanished before answering.
        """
        if self._inflight[worker] <= 0:
            raise RuntimeError(f"no outstanding command on worker {worker}")
        try:
            status, value = self._conns[worker].recv()
        except (EOFError, ConnectionResetError, OSError):
            raise self._respawn_dead(worker, "mid-command") from None
        self._inflight[worker] -= 1
        if status == "err":
            raise WorkerError(worker, value)
        return value

    def call_sync(self, worker: int, name: str, method: str,
                  *args: Any, **kwargs: Any) -> Any:
        """Convenience: :meth:`call` then :meth:`result` immediately."""
        self.call(worker, name, method, *args, **kwargs)
        return self.result(worker)

    def _send(self, worker: int, command: tuple) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")
        try:
            self._conns[worker].send(command)
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise self._respawn_dead(worker, "before the command was sent") \
                from None
        self._inflight[worker] += 1

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every worker, drain outstanding replies and join."""
        if self._closed:
            return
        self._closed = True
        for worker, conn in enumerate(self._conns):
            try:
                # Drain replies the caller abandoned (e.g. on error).
                while self._inflight[worker] > 0:
                    conn.recv()
                    self._inflight[worker] -= 1
                conn.send(("stop",))
                conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                pass
            finally:
                conn.close()
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
