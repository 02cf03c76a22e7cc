"""fork_map: the parent hands each forked worker its next item as the worker
reports the last, and each item is reported once, as its result or as the
failure that kept it from one. No test starts more than two workers."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import assert_no_child_processes, cap_workers
from reckoner.workers import WorkerFailure, fork_map


def test_every_item_is_reported_once(monkeypatch):
    """Many times more items than workers, on two workers: an item the
    parent lost or handed out twice would show as missing or repeated."""
    cap_workers(monkeypatch, 2)
    n = 20_000
    seen: dict[int, int] = {}
    for i, value in fork_map(lambda i: i * i, n):
        assert i not in seen
        seen[i] = value
    assert seen == {i: i * i for i in range(n)}
    assert_no_child_processes()


def test_slow_item_holds_up_only_its_own_worker(tmp_path, monkeypatch):
    """Item 0 waits until every other item has run: as the parent hands
    each worker its next item only when it reports the last, the other
    worker runs them all, where a fixed split of the items between the
    workers would leave some behind item 0."""
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


def _zero_after(pause):
    time.sleep(pause)
    return 0


class _Zero:
    """Unpickles as 0 after a ``pause`` in the process that unpickles it."""

    def __init__(self, pause):
        self.pause = pause

    def __reduce__(self):
        return _zero_after, (self.pause,)


@pytest.mark.parametrize("pause", [0, 0.3], ids=["handed-before-death", "handed-after-death"])
def test_worker_killed_between_items_fails_the_item_it_was_handed(monkeypatch, pause):
    """The worker reports item 0 and dies of a 50 ms timer it armed there.
    The parent hands it item 1 at once or, as reading item 0's result takes
    ``pause`` seconds, after the death: either way item 1 fails by the
    signal, the rest go unrun and the parent raises nothing."""
    cap_workers(monkeypatch, 1)

    def fn(i):
        if i == 0:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            return _Zero(pause)
        time.sleep(60)

    unrun = WorkerFailure("no worker reported it before every worker ended")
    assert dict(fork_map(fn, 4)) == {
        0: 0, 1: WorkerFailure("worker killed by SIGALRM"), 2: unrun, 3: unrun}
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


def test_cli_import_loads_no_multiprocessing():
    """Only ``fork_map`` imports ``multiprocessing``, so a ``train`` or
    ``audit`` launch, which never forks, does not pay for the import."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, reckoner.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"
