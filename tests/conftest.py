"""Fixtures for every test: none may leave a child process or a changed thread budget behind."""

import os
from pathlib import Path

import pytest

from anchorkit import forkpool, layers


def child_pids() -> set[int]:
    """This process's children, running or exited but not yet waited for."""
    me, pids = os.getpid(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # gone since the listing
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if int(text[text.rindex(")") + 2 :].split()[1]) == me:
            pids.add(int(stat.parent.name))
    return pids


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process behind; found through /proc, never reaped here."""
    if not Path("/proc/self/stat").exists():
        yield
        return
    before = child_pids()
    yield
    left = child_pids() - before
    if left:
        pytest.fail(f"test left child processes {sorted(left)}", pytrace=False)


def thread_budget() -> tuple[int, int | None]:
    """The conv-thread share and the BLAS thread count (None without a settable BLAS) of this process."""
    blas = forkpool.blas_threads()
    return layers._processes, blas[0]() if blas else None


@pytest.fixture(autouse=True)
def no_leaked_thread_budget():
    """Fail a test that leaves ``layers._processes`` or the BLAS thread count changed."""
    before = thread_budget()
    yield
    after = thread_budget()
    if after != before:
        pytest.fail(f"test left (processes, BLAS threads) at {after}, not {before}", pytrace=False)


@pytest.fixture
def blas2():
    """Run BLAS at 2 threads, so that a pool that leaves it at its own 1 is seen."""
    if forkpool.blas_threads() is None:
        pytest.skip("numpy's BLAS is no bundled OpenBLAS whose thread count can be read and set")
    get, put = forkpool.blas_threads()
    threads = get()
    put(2)
    yield
    put(threads)


@pytest.fixture
def children():
    """The function that lists this process's child pids."""
    return child_pids


@pytest.fixture
def forks(monkeypatch):
    """The forks made while a test runs, one entry each."""
    made = []
    real = os.fork

    def fork():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return made
