"""fork_map: forked workers claim items from one pipe and report each item
once, as its result or as the failure that kept it from one. No test starts
more than two workers."""

import os
import signal
import time

import pytest

from conftest import assert_no_child_processes, cap_workers
from reckoner.workers import WorkerFailure, fork_map


def test_every_item_is_reported_once(monkeypatch):
    """More claims than one pipe holds, on two workers: a claim lost or
    taken twice would show as a missing or repeated item."""
    cap_workers(monkeypatch, 2)
    n = 20_000
    seen: dict[int, int] = {}
    for i, value in fork_map(lambda i: i * i, n):
        assert i not in seen
        seen[i] = value
    assert seen == {i: i * i for i in range(n)}
    assert_no_child_processes()


def test_slow_item_holds_up_only_its_own_worker(tmp_path, monkeypatch):
    """Item 0 waits until every other item has run: with two workers that
    claim as they go, the other worker runs them all, where a fixed split
    of the items between the workers would leave some behind item 0."""
    cap_workers(monkeypatch, 2)

    def fn(i):
        if i == 0:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 5:
                if time.monotonic() > deadline:
                    raise TimeoutError("items 1-5 did not all run")
                time.sleep(0.01)
        else:
            (tmp_path / str(i)).touch()
        return os.getpid()

    pids = dict(fork_map(fn, 6))
    assert sorted(pids) == list(range(6))
    assert not any(isinstance(pid, WorkerFailure) for pid in pids.values()), pids
    assert len({pids[i] for i in range(1, 6)}) == 1 and pids[1] != pids[0]
    assert_no_child_processes()


def test_raising_item_fails_alone_and_its_worker_goes_on(monkeypatch):
    cap_workers(monkeypatch, 1)

    def fn(i):
        if i == 1:
            raise ValueError("bad item")
        return os.getpid()

    got = dict(fork_map(fn, 4))
    assert got[1] == WorkerFailure("worker raised ValueError: bad item")
    assert len({got[i] for i in (0, 2, 3)}) == 1
    assert_no_child_processes()


def test_exiting_worker_fails_its_item_and_leaves_the_rest_unrun(monkeypatch):
    cap_workers(monkeypatch, 1)

    def fn(i):
        if i == 1:
            raise SystemExit(0)
        return i

    unrun = WorkerFailure("no worker reported it before every worker ended")
    assert dict(fork_map(fn, 4)) == {
        0: 0, 1: WorkerFailure("worker raised SystemExit: 0"), 2: unrun, 3: unrun}
    assert_no_child_processes()


def test_closing_early_kills_and_reaps_the_workers(monkeypatch):
    cap_workers(monkeypatch, 2)

    def fn(i):
        if i > 0:
            time.sleep(60)
        return i

    start = time.monotonic()
    results = fork_map(fn, 3)
    assert next(results) == (0, 0)
    results.close()
    assert time.monotonic() - start < 30
    assert_no_child_processes()


def test_interrupted_parent_kills_and_reaps_the_workers(monkeypatch):
    cap_workers(monkeypatch, 2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            list(fork_map(lambda i: time.sleep(60), 2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_no_child_processes()
