"""Span tracer: clock-delta measurement, explicit attribution, the
decorator form, state roundtrip, and the no-op disabled path."""

import numpy as np

from repro.telemetry.spans import (NULL_TRACER, SPAN_TAXONOMY, NullSpan,
                                   SpanTracer)


class FakeClock:
    def __init__(self):
        self.cycles = 0.0

    def __call__(self):
        return self.cycles


class TestSpanTracer:
    def test_measures_clock_delta(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.span("execute"):
            clock.cycles += 120.0
        with tracer.span("execute"):
            clock.cycles += 30.0
        span = tracer.span("execute")
        assert span.calls == 2
        assert span.cycles == 150.0

    def test_handles_are_stable(self):
        tracer = SpanTracer()
        assert tracer.span("mutate") is tracer.span("mutate")

    def test_add_deposits_priced_cycles(self):
        tracer = SpanTracer()
        tracer.add("op.scatter", 42.0)
        tracer.add("op.scatter", 8.0, calls=3)
        span = tracer.span("op.scatter")
        assert span.calls == 4
        assert span.cycles == 50.0

    def test_add_many_matches_per_call_add(self):
        """Bulk deposits are per-call adds: one call per element and a
        cycles fold bitwise equal to the ``+=`` chain."""
        cycles = [0.1, 0.2, 0.3, 1e16, 1.0, 1.0, 0.0, 2.5e-9]
        bulk, loop = SpanTracer(), SpanTracer()
        for tracer in (bulk, loop):
            tracer.add("op.execution", 0.7)
        bulk.add_many("op.execution", np.array(cycles))
        for value in cycles:
            loop.add("op.execution", value)
        assert bulk.profile() == loop.profile()
        span = bulk.span("op.execution")
        assert span.calls == len(cycles) + 1
        assert type(span.cycles) is float
        assert np.float64(span.cycles).view(np.uint64) == \
            np.float64(loop.span("op.execution").cycles).view(np.uint64)

    def test_add_many_empty_creates_span_without_calls(self):
        tracer = SpanTracer()
        tracer.add_many("execute", np.zeros(0))
        assert tracer.profile() == {"execute": {"calls": 0,
                                                "cycles": 0.0}}

    def test_trace_decorator(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)

        @tracer.trace("cost_eval")
        def priced():
            clock.cycles += 7.0
            return "ok"

        assert priced() == "ok"
        assert tracer.span("cost_eval").calls == 1
        assert tracer.span("cost_eval").cycles == 7.0

    def test_profile_is_name_sorted(self):
        tracer = SpanTracer()
        tracer.add("zz", 1.0)
        tracer.add("aa", 1.0)
        assert list(tracer.profile()) == ["aa", "zz"]

    def test_state_roundtrip_resets_new_spans(self):
        tracer = SpanTracer()
        tracer.add("execute", 10.0)
        state = tracer.dump_state()
        tracer.add("execute", 5.0)
        tracer.add("late", 3.0)          # created after the capture
        tracer.load_state(state)
        assert tracer.span("execute").cycles == 10.0
        assert tracer.span("late").cycles == 0.0
        assert tracer.span("late").calls == 0

    def test_unbound_tracer_measures_zero(self):
        tracer = SpanTracer()
        with tracer.span("execute"):
            pass
        assert tracer.span("execute").calls == 1
        assert tracer.span("execute").cycles == 0.0


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert SpanTracer().enabled is True

    def test_span_is_shared_noop(self):
        a = NULL_TRACER.span("execute")
        b = NULL_TRACER.span("mutate")
        assert a is b
        assert isinstance(a, NullSpan)
        with a:
            pass
        assert a.calls == 0

    def test_trace_returns_function_unchanged(self):
        def fn():
            return 1
        assert NULL_TRACER.trace("x")(fn) is fn

    def test_profile_and_state_empty(self):
        assert NULL_TRACER.profile() == {}
        assert NULL_TRACER.dump_state() == {}
        NULL_TRACER.load_state({})       # harmless no-op


def test_taxonomy_covers_campaign_hot_path():
    for name in ("run_one", "mutate", "execute", "classify_compare",
                 "cost_eval", "sync"):
        assert name in SPAN_TAXONOMY
