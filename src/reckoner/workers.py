"""Independent items run in forked worker processes (Unix).

``fork_map(fn, n_items)`` forks up to one worker per usable CPU. A forked
worker shares everything its parent built before the call copy-on-write,
such as a sweep's prepared data, so nothing but the index and the result is
pickled. The parent should have no threads of its own running when it
calls ``fork_map``. Each worker claims the next unclaimed index from one
shared pipe, so a slow item holds up only its own worker.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# A claim is one 4-byte index. The parent writes claims in blocks of
# PIPE_BUF bytes, each atomic, and a worker reads exactly one claim, so no
# claim is ever split between two workers.
_CLAIM = struct.Struct("<I")
# A message from a worker is a pickled (kind, index, value) tuple after its
# 8-byte length.
_LENGTH = struct.Struct("<Q")


@dataclass(frozen=True)
class WorkerFailure:
    """What ``fork_map`` yields for an item without a result: ``reason``
    names what the worker raised, or how it ended, before reporting it."""

    reason: str


@dataclass
class _Worker:
    pid: int
    claimed: int | None = None  # the index it runs and has not reported
    inbox: bytearray = field(default_factory=bytearray)


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
    does. Items still unclaimed once every worker has ended fail too.
    Closing the generator early, or an interrupt while it waits, kills and
    reaps every worker still running.
    """
    n_workers = min(n_items, usable_cpus())
    if n_workers < 1:
        return
    unclaimed = memoryview(b"".join(_CLAIM.pack(i) for i in range(n_items)))
    claims_r, claims_w = os.pipe()
    os.set_blocking(claims_w, False)
    workers: dict[int, _Worker] = {}  # by the read end of its result pipe
    reported: set[int] = set()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(n_workers):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, claims_r, claims_w, result_w)
            os.close(result_w)
            workers[result_r] = _Worker(pid)
        poller = select.poll()
        poller.register(claims_w, select.POLLOUT)
        for fd in workers:
            poller.register(fd, select.POLLIN)
        while workers:
            for fd, _ in poller.poll():
                if fd == claims_w:
                    try:
                        sent = os.write(claims_w, unclaimed[:select.PIPE_BUF])
                    except BlockingIOError:
                        continue
                    unclaimed = unclaimed[sent:]
                    if not unclaimed:
                        poller.unregister(claims_w)
                        os.close(claims_w)
                        claims_w = -1
                    continue
                worker = workers[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    worker.inbox += chunk
                    for i, value in _delivered(worker):
                        reported.add(i)
                        yield i, value
                    continue
                _, status = os.waitpid(worker.pid, 0)
                poller.unregister(fd)
                os.close(fd)
                del workers[fd]
                if worker.claimed is not None:
                    reported.add(worker.claimed)
                    yield worker.claimed, WorkerFailure(_ending(status))
        for i in range(n_items):
            if i not in reported:
                yield i, WorkerFailure("no worker reported it before every worker ended")
    finally:
        for fd, worker in workers.items():
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
            os.close(fd)
        for fd in (claims_r, claims_w):
            if fd >= 0:
                os.close(fd)


def _delivered(worker: _Worker) -> Iterator[tuple[int, Any]]:
    """The items whose results are complete in the worker's inbox; a claim
    message only records the index the worker runs."""
    inbox = worker.inbox
    while len(inbox) >= _LENGTH.size:
        (size,) = _LENGTH.unpack_from(inbox)
        end = _LENGTH.size + size
        if len(inbox) < end:
            return
        kind, i, value = pickle.loads(inbox[_LENGTH.size:end])
        del inbox[:end]
        if kind == "claim":
            worker.claimed = i
        else:
            worker.claimed = None
            yield i, value


def _ending(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"worker killed by {signal.Signals(-code).name}"
    return f"worker exited with code {code} before reporting"


def _raised(exc: BaseException) -> WorkerFailure:
    return WorkerFailure(f"worker raised {type(exc).__name__}: {exc}")


def _send(out: int, message: tuple) -> None:
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    data = memoryview(_LENGTH.pack(len(body)) + body)
    while data:
        data = data[os.write(out, data):]


def _work(fn: Callable[[int], Any], claims: int, claims_w: int, out: int) -> None:
    """A worker's whole life: claim, run and report items until no claim
    is left, then end the process without returning to the caller."""
    code = 0
    try:
        os.close(claims_w)  # else the claims pipe never reads as ended
        while claim := os.read(claims, _CLAIM.size):
            (i,) = _CLAIM.unpack(claim)
            _send(out, ("claim", i, None))
            try:
                value = fn(i)
            except Exception as exc:
                traceback.print_exc()
                value = _raised(exc)
            except BaseException as exc:
                _send(out, ("result", i, _raised(exc)))
                raise
            _send(out, ("result", i, value))
    except BaseException:  # the worker ends here whatever happened
        code = 1
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
