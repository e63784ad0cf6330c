"""The pool protocol itself, with remote functions no caller of the package uses."""

import os
import time
from multiprocessing.connection import Connection
from pathlib import Path
from unittest import mock

import pytest

from anchorkit import forkpool, layers


def workers(n):
    """Open pools as if this process could use ``n`` cores."""
    return mock.patch.object(layers, "_cores", lambda: n)


def test_unpicklable_error_comes_back_named(forks):
    class Unpicklable(Exception):  # a local class: pickle cannot find it by name
        pass

    def remote(pos, item):
        if item == "bad":
            raise Unpicklable(f"item {pos} is bad")
        return item

    with workers(2), forkpool.pool(2, remote) as run:
        got = []
        with pytest.raises(RuntimeError, match="^Unpicklable: item 1 is bad$"):
            got.extend(run(["ok", "bad"]))
        assert got == [(0, "ok")]
    assert len(forks) == 1


def test_worker_that_exits_without_a_reply(forks, children):
    before = children()

    def remote(pos, item):
        os._exit(3)

    with workers(2), pytest.raises(RuntimeError, match=r"^worker process \d+ exited before it replied$") as info:
        with forkpool.pool(2, remote, lambda pos, item: item) as run:
            list(run([0, 1]))
    assert int(str(info.value).split()[2]) != os.getpid()
    assert len(forks) == 1
    assert children() == before


def test_only_runs_get_workers(forks, monkeypatch):
    # 3 processes: no items send nothing, 2 items reach worker 1 only, 3 reach both workers
    sent = []
    real = Connection.send

    def send(self, obj):
        sent.append(obj)
        real(self, obj)

    monkeypatch.setattr(Connection, "send", send)
    me = os.getpid()
    with workers(3), forkpool.pool(3, lambda pos, item: (os.getpid(), item)) as run:
        none, two, three = list(run([])), list(run(["a", "b"])), list(run(["a", "b", "c"]))
    assert sent == [(1, ["b"], False), (1, ["b"], False), (2, ["c"], False)]
    assert none == []
    assert [(pos, item) for pos, (_, item) in two + three] == [(0, "a"), (1, "b"), (0, "a"), (1, "b"), (2, "c")]
    pids = [pid for _, (pid, _) in two + three]
    assert pids[0] == pids[2] == me and pids[1] == pids[3] != me and pids[4] not in (me, pids[1])
    assert len(forks) == 2


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads a worker's state in /proc")
def test_last_run_lets_the_workers_exit(forks):
    # a worker that replied to a last run exits before the pool closes: it is a zombie inside the block
    def state(pid):
        text = Path(f"/proc/{pid}/stat").read_text()
        return text[text.rindex(")") + 2]

    with workers(2), forkpool.pool(2, lambda pos, item: os.getpid()) as run:
        (_, me), (_, pid) = run(["a", "b"], last=True)
        deadline = time.monotonic() + 30
        while state(pid) != "Z" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert me == os.getpid() and state(pid) == "Z"
    assert len(forks) == 1


def test_workers_inherit_one_blas_thread(forks, blas2):
    # the pool pins BLAS before it forks, and a worker sets no count of its own
    get = forkpool.blas_threads()[0]
    with workers(2), forkpool.pool(2, lambda pos, item: (os.getpid(), get())) as run:
        (_, (me, mine)), (_, (pid, theirs)) = run(["a", "b"])
    assert me == os.getpid() != pid and mine == theirs == 1
    assert len(forks) == 1


def test_without_a_settable_blas_one_process_leaves_blas_alone(forks, monkeypatch):
    # the conv-thread share is still the pool's; the BLAS count is the caller's, untouched
    blas = forkpool.blas_threads()
    count = blas[0] if blas else lambda: None
    threads = count()
    monkeypatch.setattr(forkpool, "blas_threads", lambda: None)
    with workers(2), mock.patch.object(layers, "_processes", 3):
        with forkpool.pool(2, lambda pos, item: (os.getpid(), layers._processes, count())) as run:
            got = [result for _, result in run(["a", "b"])]
        assert layers._processes == 3
    assert got == [(os.getpid(), 1, threads)] * 2 and forks == []
