import types

import pytest

from perfbench.tracing import Span, Tracer, nesting_violations, self_times, summarize


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # parent [0,100] > a [10,30], b [40,70] > c [50,60]
    tr = Tracer(clock=ticking_clock([0, 10, 30, 40, 50, 60, 70, 100]))
    p = tr.open("parent")
    a = tr.open("a")
    tr.close(a)
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    tr.close(p)
    spans = tr.spans()
    assert [s.parent for s in spans] == [-1, 0, 0, 2]
    assert self_times(spans) == [50, 20, 20, 10]
    assert nesting_violations(spans) == []
    table = summarize(spans)
    assert table["parent"] == {"calls": 1, "total_ns": 100, "self_ns": 50}
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0, 100, -1, 0), Span("x", 10, 50, 0, 0), Span("y", 40, 80, 0, 0)]
    assert self_times(spans)[0] == 30


def test_nesting_violation_reported():
    spans = [Span("p", 0, 10, -1, 0), Span("x", 5, 20, 0, 0)]
    assert len(nesting_violations(spans)) == 1


def test_wrapper_records_span_even_when_call_raises():
    tr = Tracer(clock=ticking_clock([0, 5]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "boom")()
    assert [(s.name, s.duration) for s in tr.spans()] == [("boom", 5)]


def test_patch_restore_and_missing_name():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tr = Tracer()
    tr.patch(mod, "f", lambda x: f"f[{x}]", after=lambda r, a, k: r * 10)
    tr.patch(mod, "gone", "mod.gone")
    assert tr.missing == {"mod.gone"}
    assert mod.f(2) == 30
    assert [s.name for s in tr.spans()] == ["f[2]"]
    tr.restore()
    assert mod.f is original
    assert not hasattr(mod, "gone")
