"""Spans recorded from outside the program by wrapping module attributes.

A :class:`Tracer` replaces a function on the module that *calls* it
(for example ``network.conv2d``, which ``forward_detect`` looks up at
call time) with a wrapper that records one span per call: name, start,
end, parent span and operation id. Spans stay in memory until the run
ends. :meth:`Tracer.restore` puts every original attribute back.

A wrapped name that the module no longer has is skipped and remembered
in :attr:`Tracer.missing`, so a renamed program internal shows up as
"not traced" instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Span", "Tracer", "self_times", "nesting_violations", "summarize"]


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # clock ticks (ns)
    end: int
    parent: int  # index of the enclosing span, -1 at the top level
    op: int  # operation id the span belongs to

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records nested spans and per-name counts for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._records: list[list[Any]] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        self._records.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._records[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(self, fn: Callable, name: str | Callable[..., str], after: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments. ``after(result,
        args, kwargs)`` runs once the span is closed and returns the value
        handed back to the caller (it may wrap it, or count from it).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return result if after is None else after(result, args, kwargs)

        return wrapper

    def patch(
        self,
        module: object,
        attr: str,
        name: str | Callable[..., str],
        after: Callable | None = None,
        label: str | None = None,
    ) -> None:
        """Replace ``module.attr`` by a recording wrapper until :meth:`restore`.

        ``label`` is the metric family the wrapper feeds; it is added to
        :attr:`missing` when the module has no such attribute.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(label or (name if isinstance(name, str) else attr))
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spans(self) -> list[Span]:
        """Every closed span, in the order they were opened."""
        return [Span(n, s, e, p, o) for n, s, e, p, o in self._records if e is not None]


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            kids[sp.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    kids = _children(spans)
    return [
        sp.duration - _covered([(spans[c].start, spans[c].end) for c in kids.get(i, ())], sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


def nesting_violations(spans: list[Span]) -> list[str]:
    """Children that leave their parent's interval or together outlast it."""
    out = []
    for i, kids in _children(spans).items():
        parent = spans[i]
        inside = sum(spans[c].duration for c in kids)
        if inside > parent.duration or any(
            spans[c].start < parent.start or spans[c].end > parent.end for c in kids
        ):
            out.append(f"span {i} ({parent.name}): children cover {inside} of {parent.duration} ns")
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per span name: calls, total (inclusive) ns and self ns."""
    table: dict[str, dict[str, int]] = {}
    for sp, own in zip(spans, self_times(spans)):
        row = table.setdefault(sp.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += sp.duration
        row["self_ns"] += own
    return table
