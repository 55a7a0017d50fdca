import time

import pytest

from tracing import OP, Span, Tracer, self_times, summarize


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, 0, None, OP, 0.0, 10.0),
        Span(0, 1, 0, "a.f", 1.0, 4.0),
        Span(0, 2, 0, "b.g", 3.0, 6.0),   # overlaps a.f: the union covers 1..6
        Span(0, 3, 1, "c.h", 2.0, 3.0),
        Span(0, 4, 0, "d.k", 9.0, 12.0),  # only 9..10 lies inside the root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_a_span_without_children_keeps_its_whole_duration():
    assert self_times([Span(0, 7, None, OP, 2.0, 2.5)]) == {7: pytest.approx(0.5)}


def test_traced_self_times_partition_each_op():
    tracer = Tracer()

    def work():
        time.sleep(0.002)

    leaf = tracer.timed("c.leaf", work)

    def _inner():
        work()
        leaf()

    inner = tracer.timed("b.inner", _inner)

    def _outer():
        inner()
        work()

    outer = tracer.timed("a.outer", _outer)
    outer()  # outside an op: no span
    assert tracer.spans == []
    for op in range(2):
        with tracer.trace_op(op):
            outer()
    assert [s.name for s in tracer.spans].count(OP) == 2
    own = self_times(tracer.spans)
    for op in range(2):
        spans = [s for s in tracer.spans if s.op == op]
        root = next(s for s in spans if s.name == OP)
        assert sum(own[s.id] for s in spans) == pytest.approx(root.end - root.start, abs=1e-9)
        by_name = {s.name: s for s in spans}
        assert by_name["c.leaf"].parent == by_name["b.inner"].id
        assert by_name["b.inner"].parent == by_name["a.outer"].id
        assert by_name["a.outer"].parent == root.id
    metrics = summarize(tracer, n_ops=2)
    assert metrics["trace.unattributed_ms"] >= 0.0
    assert metrics["trace.op_ms"] >= 6.0
