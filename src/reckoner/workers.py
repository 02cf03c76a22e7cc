"""Independent items run in forked worker processes (Unix).

``fork_map(fn, n_items)`` forks up to one worker per usable CPU. A forked
worker shares everything its parent built before the call copy-on-write,
such as a sweep's prepared data, so nothing but the index and the result is
pickled. The parent should have no threads of its own running when it
calls ``fork_map``. The parent hands each worker its next index when it
reports one, so a slow item holds up only its own worker.
"""

from __future__ import annotations

import os
import signal
import sys
import traceback
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


@dataclass(frozen=True)
class WorkerFailure:
    """What ``fork_map`` yields for an item without a result: ``reason``
    names what the worker raised, or how it ended, before reporting it."""

    reason: str


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def fork_map(fn: Callable[[int], Any], n_items: int) -> Iterator[tuple[int, Any]]:
    """Yield ``(i, fn(i))`` for every ``i`` in ``range(n_items)``, in the
    order the items finish.

    The items run in ``min(n_items, usable_cpus())`` forked workers. In
    place of a result, an item yields a ``WorkerFailure`` when ``fn``
    raised for it or its worker died before reporting it. A worker goes on
    to the next item after an ``Exception``; any other exception
    (``SystemExit``, ``KeyboardInterrupt``) ends the worker, as a signal
    does. Items still unrun once every worker has ended fail too.
    Closing the generator early, or an interrupt while it waits, kills and
    reaps every worker still running.
    """
    n_workers = min(n_items, usable_cpus())
    if n_workers < 1:
        return
    # Imported here, not with the module: the import takes over 10 ms,
    # which every train and audit launch would pay without ever forking.
    from multiprocessing.connection import Pipe, wait

    unrun = iter(range(n_items))
    pids: dict[Connection, int] = {}  # by the parent's end of its pipe
    held: dict[Connection, int | None] = {}  # the index it runs, unreported

    def hand(conn: Connection) -> None:  # its next index, or None to end it
        held[conn] = next(unrun, None)
        with suppress(OSError):  # a dead worker reads as ended at `wait`
            conn.send(held[conn])

    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(n_workers):
            ours, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, theirs, [ours, *pids])
            theirs.close()
            pids[ours] = pid
            hand(ours)
        while pids:
            for conn in wait(list(pids)):
                try:
                    value, goes_on = conn.recv()
                except (EOFError, OSError):  # the worker has ended
                    _, status = os.waitpid(pids[conn], 0)
                    del pids[conn]
                    conn.close()
                    if (i := held.pop(conn)) is not None:
                        yield i, WorkerFailure(_ending(status))
                    continue
                i, held[conn] = held[conn], None
                if goes_on:
                    hand(conn)
                yield i, value
        for i in unrun:
            yield i, WorkerFailure("no worker reported it before every worker ended")
    finally:
        for conn, pid in pids.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            conn.close()


def _ending(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"worker killed by {signal.Signals(-code).name}"
    return f"worker exited with code {code} before reporting"


def _raised(exc: BaseException) -> WorkerFailure:
    return WorkerFailure(f"worker raised {type(exc).__name__}: {exc}")


def _work(fn: Callable[[int], Any], conn: Connection, inherited: list[Connection]) -> None:
    """A worker's whole life: run and report each index it is handed until
    ``None``, then end the process without returning to the caller."""
    code = 0
    try:
        for parent_end in inherited:  # else no pipe would end with the parent
            parent_end.close()
        while (i := conn.recv()) is not None:
            try:
                value = fn(i)
            except Exception as exc:
                traceback.print_exc()
                value = _raised(exc)
            except BaseException as exc:
                conn.send((_raised(exc), False))
                raise
            conn.send((value, True))
    except BaseException:  # the worker ends here whatever happened
        code = 1
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
