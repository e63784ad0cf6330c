"""Forked worker processes, one per usable core, under one discipline for every caller.

Training (:func:`trainer.train`, per batch) and detection
(:func:`pipeline.detect_images`, per call) split their items into
contiguous runs over ``min(cores, items)`` processes (:func:`size`), with
the cores counted as the conv threads count them (``layers._cores()``,
the CPU affinity mask, which is the only control). The calling process
runs the first run and :func:`workers` forks one process for each of
the others. They are forked rather than spawned, so they inherit the
net, the data, the configs and any patched module attribute without
pickling or importing anything again; the only threads the package
starts, the conv pool's, wait idle between convs and are dropped in a
forked child.

While a pool runs:

- BLAS runs at one thread in every process, and the calling process
  gets its own count back afterwards: OpenBLAS's threads on top of the
  processes oversubscribe the cores. Three toy epochs of 24 pairs at
  batch 6 took 1.6-2.4 s in one process at 2 BLAS threads, 4.3-10.8 s on
  2 processes at 2 BLAS threads and 1.0-1.3 s on 2 processes at one
  (2-core Xeon, 6 runs each).
- ``layers._processes`` is the pool's size, so that processes x conv
  threads stays within the cores, and the caller's value comes back
  afterwards rather than 1: a pool may open in the calling process of
  another, as validation in a training run's epoch callback does while
  that run's workers wait for their next batch.
- Workers ignore SIGINT (the calling process handles ^C) and leave only
  through ``os._exit``, so no test runner or exit handler of the parent
  runs twice.
- On every way out of the ``with`` block each pipe is closed and each
  worker waited for. When the block raises, the workers are killed
  first: the caller no longer wants their results, and a worker's run
  of 640x640 images could otherwise hold a ^C up for seconds.

An exception a worker catches travels back through :func:`portable`.
Where there is no ``os.fork``, or the thread count of numpy's bundled
OpenBLAS cannot be read and set, :func:`size` is 1 and callers run
every item in the calling process, as they do on one core.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, Pipe
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import layers

__all__ = ["Worker", "blas_threads", "portable", "size", "workers"]


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


def portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe, else a RuntimeError naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def size(items: int) -> int:
    """Processes to split ``items`` over: ``min(cores, items)``, or 1 where none can be forked."""
    n = min(layers._cores(), items)
    if n < 2 or not hasattr(os, "fork") or blas_threads() is None:
        return 1
    return n


@dataclass(frozen=True)
class Worker:
    """The calling process's end of one forked worker."""

    pid: int
    conn: Connection

    def recv(self) -> Any:
        """The worker's next message; RuntimeError if it exited without one."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(f"worker process {self.pid} exited before it replied") from None


def _child(serve: Callable[[Connection, int], None], conn: Connection, k: int, others: list[Connection]) -> None:
    """Run ``serve(conn, k)`` in a forked worker, then ``os._exit``; never returns."""
    code = 0
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the calling process handles ^C
        for other in others:
            other.close()
        blas_threads()[1](1)
        serve(conn, k)
    except BaseException:  # not re-raised: the worker only ever leaves through os._exit
        code = 1
    finally:
        os._exit(code)


@contextmanager
def workers(n: int, serve: Callable[[Connection, int], None]) -> Iterator[list[Worker]]:
    """Yield ``n - 1`` forked workers; worker ``k`` (from 1) runs ``serve(conn, k)`` and exits.

    ``n`` comes from :func:`size`. ``serve`` talks to the caller through
    ``conn``, and its worker exits when it returns. With ``n`` = 1
    nothing is forked or changed, and the list is empty.
    """
    if n < 2:
        yield []
        return
    get, put = blas_threads()
    threads, processes = get(), layers._processes
    made: list[Worker] = []
    try:
        put(1)
        layers._processes = n
        for k in range(1, n):
            mine, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                _child(serve, theirs, k, [mine, *(w.conn for w in made)])
            theirs.close()
            made.append(Worker(pid, mine))
        yield made
    except BaseException:
        for w in made:
            os.kill(w.pid, signal.SIGKILL)
        raise
    finally:
        for w in made:
            w.conn.close()
        for w in made:
            os.waitpid(w.pid, 0)
        layers._processes = processes
        put(threads)
