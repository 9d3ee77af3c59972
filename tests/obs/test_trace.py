"""Trace propagation: ids, contextvars, cross-thread hand-off, Run.span.

The acceptance property for the tracing layer lives here: one serve
request — client span → ``engine.submit`` → worker-thread
``engine.process`` — carries **one** trace_id end to end, and concurrent
requests never share span ids.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.nn import profiler
from repro.obs.trace import (Span, SpanRecord, TraceContext, TraceLog,
                             activate, child_context, current,
                             current_trace_id, new_context, span, trace_log)
from repro.serve import BatchingConfig, BatchingEngine, ModelRegistry
from repro.telemetry import NULL_RUN, Run


@pytest.fixture(scope="module")
def loaded(checkpoint_dir):
    return ModelRegistry().load(checkpoint_dir, alias="trace-tests")


class TestTraceContext:
    def test_id_widths_follow_w3c(self):
        ctx = new_context()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16)  # both are hex
        int(ctx.span_id, 16)
        assert ctx.parent_id is None

    def test_child_keeps_trace_id_and_links_parent(self):
        parent = new_context()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id

    def test_child_context_roots_when_nothing_active(self):
        assert current() is None
        ctx = child_context()
        assert ctx.parent_id is None

    def test_as_dict_round_trip(self):
        ctx = TraceContext(trace_id="a" * 32, span_id="b" * 16,
                           parent_id="c" * 16)
        assert ctx.as_dict() == {"trace_id": "a" * 32, "span_id": "b" * 16,
                                 "parent_id": "c" * 16}


class TestSpanScope:
    def test_disabled_span_is_shared_noop(self):
        # No ids minted, no contextvar touched, one shared object.
        assert span("a") is span("b")
        with span("outer"):
            assert current() is None

    def test_nested_spans_share_trace_and_chain_parents(self, registry):
        with span("outer") as outer:
            assert current() is outer.ctx
            with span("inner", detail=1) as inner:
                assert inner.ctx.trace_id == outer.ctx.trace_id
                assert inner.ctx.parent_id == outer.ctx.span_id
            assert current() is outer.ctx
        assert current() is None
        records = trace_log().spans(trace_id=outer.ctx.trace_id)
        assert [r.name for r in records] == ["inner", "outer"]  # exit order
        assert records[0].attrs == {"detail": 1}

    def test_exception_is_recorded_and_propagated(self, registry):
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("nope")
        record, = trace_log().spans(name="boom")
        assert record.attrs["error"] == "RuntimeError"

    def test_one_reading_feeds_caller_and_trace_log(self, registry):
        with span("region") as scope:
            sum(range(10_000))
        record, = trace_log().spans(name="region")
        assert scope.seconds > 0
        assert record.seconds == scope.seconds

    def test_span_is_a_profiler_scope_while_profiler_active(self, registry):
        with span("idle"):
            pass
        assert profiler.get("idle") is None
        with profiler.profile():
            with span("gateway.region"):
                pass
        assert profiler.get("gateway.region").count == 1

    def test_span_times_without_obs(self):
        # A timed span (a run's, a reporting rank's) records nothing
        # while obs is off, but still reads its clock once.
        with Span("run/epoch", {}) as scope:
            pass
        assert scope.seconds >= 0
        assert len(trace_log()) == 0

    def test_activate_adopts_context_on_another_thread(self, registry):
        ctx = new_context()
        seen = {}

        def worker():
            with activate(ctx):
                seen["trace_id"] = current_trace_id()
                seen["child"] = child_context()
            seen["after"] = current()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["trace_id"] == ctx.trace_id
        assert seen["child"].parent_id == ctx.span_id
        assert seen["after"] is None


class TestTraceLog:
    def _record(self, trace_id="t" * 32, name="x"):
        return SpanRecord(name=name, trace_id=trace_id, span_id="s" * 16,
                          parent_id=None, thread="main", start_unix=0.0,
                          seconds=0.1)

    def test_bounded_capacity(self):
        log = TraceLog(capacity=4)
        for i in range(10):
            log.record(self._record(name=f"span-{i}"))
        assert len(log) == 4
        assert [r.name for r in log.spans()] == [
            "span-6", "span-7", "span-8", "span-9"]

    def test_filters_and_clear(self):
        log = TraceLog()
        log.record(self._record(trace_id="a" * 32, name="one"))
        log.record(self._record(trace_id="b" * 32, name="two"))
        assert len(log.spans(trace_id="a" * 32)) == 1
        assert len(log.spans(name="two")) == 1
        assert log.trace_ids() == ["a" * 32, "b" * 32]
        log.clear()
        assert len(log) == 0


class TestEngineTracePropagation:
    def test_single_trace_id_across_threaded_engine(self, registry, loaded,
                                                    windows):
        """Client span → submit → worker-thread process: one trace_id."""
        with BatchingEngine(loaded, BatchingConfig()) as engine:
            with span("client.request") as client:
                request = engine.submit(windows[:4], "encode")
                request.result(timeout=10.0)
        trace_id = client.ctx.trace_id
        submit, = trace_log().spans(trace_id=trace_id, name="engine.submit")
        process, = trace_log().spans(trace_id=trace_id, name="engine.process")
        # submit ran on the caller's thread, process on the engine worker —
        # yet both chain off the client span under one trace_id.
        assert submit.parent_id == client.ctx.span_id
        assert process.parent_id == submit.span_id
        assert process.thread == "serve-batcher"
        assert process.thread != submit.thread

    def test_concurrent_requests_never_share_span_ids(self, registry, loaded,
                                                      windows):
        with BatchingEngine(loaded, BatchingConfig()) as engine:
            def client(offset):
                with span("client.request", offset=offset):
                    engine.submit(windows[offset:offset + 2],
                                  "encode").result(timeout=10.0)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        records = trace_log().spans()
        span_ids = [r.span_id for r in records]
        assert len(span_ids) == len(set(span_ids))
        # Eight independent clients → eight distinct traces, each with the
        # full client → submit → process chain.
        client_records = trace_log().spans(name="client.request")
        assert len({r.trace_id for r in client_records}) == 8
        for record in client_records:
            chain = trace_log().spans(trace_id=record.trace_id)
            assert {r.name for r in chain} == {
                "client.request", "engine.submit", "engine.process"}

    def test_deferred_flush_keeps_caller_trace(self, registry, loaded,
                                               windows):
        engine = BatchingEngine(loaded)
        with span("client.batch") as client:
            request = engine.submit(windows[:4], "encode")
        engine.flush()
        request.result(timeout=5.0)
        process, = trace_log().spans(trace_id=client.ctx.trace_id,
                                     name="engine.process")
        assert process.attrs["cached"] is False


class TestRunSpanIntegration:
    def test_nested_run_spans_chain_parent_ids(self, registry, tmp_path):
        from repro.telemetry.sinks import MemorySink

        sink = MemorySink()
        run = Run.create(root=str(tmp_path), name="trace", sinks=[sink])
        with run.span("epoch", index=0) as outer:
            with run.span("batch") as inner:
                assert inner.ctx.trace_id == outer.ctx.trace_id
                assert inner.ctx.parent_id == outer.ctx.span_id
        run.finish(status="completed")
        starts = {e["span"]: e for e in sink.of_type("span_start")}
        assert starts["batch"]["parent_id"] == starts["epoch"]["span_id"]
        assert starts["batch"]["trace_id"] == starts["epoch"]["trace_id"]
        # With obs enabled the run spans also land in the process trace log
        # under the run/ prefix — one id scheme for training and serving.
        names = [r.name for r in
                 trace_log().spans(trace_id=outer.ctx.trace_id)]
        assert names == ["run/batch", "run/epoch"]
        ends = {e["span"]: e for e in sink.of_type("span_end")}
        assert ends["epoch"]["seconds"] == outer.seconds
        assert trace_log().spans(name="run/epoch")[0].seconds == outer.seconds

    def test_null_run_span_is_the_obs_span(self, registry):
        with NULL_RUN.span("epoch", index=0) as scope:
            pass
        record, = trace_log().spans(name="run/epoch")
        assert record.seconds == scope.seconds
        assert record.attrs == {"index": 0}

    def test_serve_span_inside_run_nests_under_it(self, registry, tmp_path,
                                                  loaded, windows):
        run = Run.create(root=str(tmp_path), name="serve-trace")
        engine = BatchingEngine(loaded)
        with run.span("serve") as handle:
            engine.submit(windows[:2], "encode")
            engine.flush()
        run.finish(status="completed")
        submit, = trace_log().spans(name="engine.submit")
        assert submit.trace_id == handle.ctx.trace_id
        assert submit.parent_id == handle.ctx.span_id
