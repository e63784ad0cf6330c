"""Fixtures for every test: none may leave a child process of the test run behind."""

import os
from pathlib import Path

import pytest


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


@pytest.fixture
def children():
    """The function that lists this process's child pids."""
    return child_pids
