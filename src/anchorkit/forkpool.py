"""Forked worker processes, one per usable core, and the one protocol that hands them items.

Training (:func:`trainer.train`, per batch) and detection
(:func:`pipeline.detect_images`, per call) open a :func:`pool` and hand
it their items; each keeps only what it computes for one item.
``pool(largest, remote, local)`` forks ``n - 1`` workers, where ``n`` =
:func:`_size` is ``min(cores, largest)`` with the cores counted as the
conv threads count them (``layers._cores()``, the CPU affinity mask,
which is the only control). It yields ``run(items, last=False)``, and
every run follows the same protocol:

- The items are cut into contiguous runs over ``min(n, len(items))``
  processes; no items send and compute nothing.
- Each later run goes to its worker as (its first item's position, its
  items), so items must pickle; workers beyond the runs get nothing.
- The calling process computes its run as ``local(position, item)``,
  the workers theirs as ``remote(position, item)``.
- ``run`` yields ``(position, result)`` in item order: the caller's
  results as they are computed, then each worker's reply in turn.
- An item's exception comes out of ``run`` where the item stands,
  after the results before it, as a one-process loop would raise it. A
  worker stops its run there and sends the exception back through
  :func:`_portable`. A worker that exits without a reply makes ``run``
  raise a RuntimeError that names its pid.

A caller reads every result of a run, or leaves the ``with`` block,
before it starts the next run.

Workers are forked when the ``with`` block opens and exit when it ends,
or once they reply to a run marked ``last``, the pool's final run: a
one-run caller marks its run, so that the workers' exit overlaps its
own work. They are forked rather than spawned, so they inherit the net,
the data, the configs and any patched module attribute without pickling
or importing anything again; the only threads the package starts, the
conv pool's, wait idle between convs and are dropped in a forked child.

Every pool, of one process or more, keeps one thread budget: processes
x conv threads x BLAS threads <= usable cores. While its ``with`` block
is open, BLAS runs at one thread and ``layers._processes`` is ``n``, so
that each process's conv threads take a ``1/n`` share of the cores; the
workers inherit both from the fork. On every way out the calling
process gets its own values back, not 1: a pool may open in the calling
process of another, as validation in a training run's epoch callback
does while that run's workers wait for their next batch. Code that runs
a forward outside a pool keeps its own BLAS count.

Also while a pool runs:

- Workers ignore SIGINT (the calling process handles ^C) and leave only
  through ``os._exit``, so no test runner or exit handler of the parent
  runs twice.
- On every way out of the ``with`` block each pipe is closed and each
  worker waited for. When the block raises, the workers are killed
  first: the caller no longer wants their results, and a worker's run
  of 640x640 images could otherwise hold a ^C up for seconds.

Where there is no ``os.fork``, or the thread count of numpy's bundled
OpenBLAS cannot be read and set, :func:`_size` is 1, as on one core,
and the pool leaves BLAS at the caller's count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
from contextlib import contextmanager
from multiprocessing.connection import Connection, Pipe
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import layers

__all__ = ["blas_threads", "pool"]


@functools.cache
def blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe, else a RuntimeError naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _size(items: int) -> int:
    """Processes to split ``items`` over: ``min(cores, items)``, or 1 where none can be forked."""
    n = min(layers._cores(), items)
    if n < 2 or not hasattr(os, "fork") or blas_threads() is None:
        return 1
    return n


def _serve(remote: Callable[[int, Any], Any], conn: Connection) -> None:
    """A worker's loop: run each run of items it is sent, until the last or until its pipe closes."""
    last = False
    while not last:
        try:
            first, items, last = conn.recv()
        except EOFError:
            return
        results, error = [], None
        try:
            for pos, item in enumerate(items, first):
                results.append(remote(pos, item))
        except Exception as exc:
            error = _portable(exc)
        conn.send((results, error))


def _child(remote: Callable[[int, Any], Any], conn: Connection, others: list[Connection]) -> None:
    """Serve ``remote`` on ``conn`` in a forked worker, then ``os._exit``; never returns."""
    code = 0
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the calling process handles ^C
        for other in others:
            other.close()
        _serve(remote, conn)
    except BaseException:  # not re-raised: the worker only ever leaves through os._exit
        code = 1
    finally:
        os._exit(code)


@contextmanager
def pool(
    largest: int,
    remote: Callable[[int, Any], Any],
    local: Callable[[int, Any], Any] | None = None,
) -> Iterator[Callable[..., Iterator[tuple[int, Any]]]]:
    """Yield ``run(items, last=False)``, which yields ``(position, result)`` for each item, in order.

    ``largest`` is the most items a run holds. A worker computes an
    item's result as ``remote(position, item)`` and the calling process
    as ``local(position, item)``, which defaults to ``remote``. After a
    run with ``last`` set the workers exit. The protocol is the module
    docstring's.
    """
    local = local or remote
    n = _size(largest)
    get, put = blas_threads() or (lambda: 1, lambda threads: None)  # no BLAS to pin: _size forks nothing
    made: list[tuple[int, Connection]] = []  # (pid, the calling process's end of its pipe)

    def run(items: Sequence[Any], last: bool = False) -> Iterator[tuple[int, Any]]:
        parts = max(1, min(n, len(items)))
        edges = [k * len(items) // parts for k in range(parts + 1)]
        sent = list(zip(made, edges[1:], edges[2:]))
        for (_, conn), lo, hi in sent:
            conn.send((lo, items[lo:hi], last))
        for pos in range(edges[1]):
            yield pos, local(pos, items[pos])
        for (pid, conn), lo, _ in sent:
            try:
                results, error = conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(f"worker process {pid} exited before it replied") from None
            yield from enumerate(results, lo)
            if error is not None:
                raise error

    threads, processes = get(), layers._processes
    try:
        put(1)
        layers._processes = n
        for _ in range(1, n):
            mine, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                _child(remote, theirs, [mine, *(conn for _, conn in made)])
            theirs.close()
            made.append((pid, mine))
        yield run
    except BaseException:
        for pid, _ in made:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, conn in made:
            conn.close()
        for pid, _ in made:
            os.waitpid(pid, 0)
        layers._processes = processes
        put(threads)
