import pytest

from e2ebench.trace import Span, Tracer, self_time_by_request, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "request", 0.0, 10.0, None, 1),
        Span(1, "api.execute", 1.0, 7.0, 0, 1),
        Span(2, "exec.harvest", 2.0, 3.0, 1, 1),
        Span(3, "exec.harvest", 4.0, 6.5, 1, 1),
        Span(4, "reporting.csv", 8.0, 9.0, 0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1] == pytest.approx(6.0 - 1.0 - 2.5)
    assert own[2] == pytest.approx(1.0)
    by_name = self_time_by_request(spans)[1]
    assert by_name["exec.harvest"] == pytest.approx(3.5)
    assert sum(by_name.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped():
    spans = [
        Span(0, "parent", 0.0, 4.0, None, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_requests():
    tracer = Tracer()
    tracer.request = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.add("added", 0.0, 0.0)
    outer = next(s for s in tracer.spans if s.name == "outer")
    assert {s.name: s.parent for s in tracer.spans} == {
        "outer": None, "inner": outer.id, "added": outer.id,
    }
    assert {s.request for s in tracer.spans} == {7}
