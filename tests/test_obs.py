"""Observability subsystem: spans, span index, telemetry, exporters.

Unit tests for the recorder/index primitives plus end-to-end checks on a
booted :class:`ApiarySystem`: every completed traced request must produce
a causal span tree whose per-stage cycle sums equal its measured
end-to-end latency, the Chrome trace export must validate structurally,
and everything must be zero-cost (no records, no ids stamped) while
tracing is disabled.
"""

import json

import pytest

from repro.accel import Accelerator
from repro.kernel import ApiarySystem, SystemConfig
from repro.net.rpc import RpcCaller, RpcRequest, RpcResponder
from repro.obs import (
    QUEUE_STAGE,
    SpanIndex,
    SpanRecorder,
    TelemetrySampler,
    chrome_trace,
    export_chrome_trace,
    run_report,
    validate_chrome_trace,
)
from repro.sim import Engine


class MemWorker(Accelerator):
    """alloc -> write -> read -> free; each call becomes one trace."""

    def __init__(self):
        super().__init__("memworker")
        self.readback = None
        self.finished_at = None

    def main(self, shell):
        seg = yield shell.alloc(8 * 1024)
        yield shell.mem_write(seg, 0, b"spans", 5)
        resp = yield shell.mem_read(seg, 0, 5)
        self.readback = resp.payload
        yield shell.free(seg)
        self.finished_at = shell.engine.now


def traced_system():
    system = ApiarySystem(config=SystemConfig.figure1())
    system.enable_tracing()
    system.boot()
    return system


def run_memworker(system):
    app = MemWorker()
    started = system.start_app(4, app, endpoint="app.mem")
    system.run_until(started)
    system.run(until=system.engine.now + 2_000_000)
    assert app.readback == b"spans"
    return app


class TestSpanRecorder:
    def test_disabled_recorder_records_nothing(self):
        spans = SpanRecorder()
        assert not spans.enabled
        assert spans.new_trace() == 0
        assert spans.open(1, "x", "cat", "src", 0) == 0
        spans.close(0, 10)  # must be a silent no-op
        assert len(spans) == 0

    def test_open_close_round_trip(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        sid = spans.open(tid, "work", "service", "tile0", 5, op="read")
        assert spans.open_spans == 1
        spans.close(sid, 17, ok=True)
        (rec,) = spans.records(trace_id=tid)
        assert (rec.start, rec.end, rec.duration) == (5, 17, 12)
        assert rec.detail == {"op": "read", "ok": True}
        assert spans.open_spans == 0

    def test_untraced_open_is_dropped(self):
        spans = SpanRecorder()
        spans.enable()
        assert spans.open(0, "x", "cat", "src", 0) == 0
        assert len(spans) == 0

    def test_category_filtered_query(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        a = spans.open(tid, "a", "noc", "ni0", 0)
        b = spans.open(tid, "b", "dram", "dram", 1)
        spans.close(a, 2)
        spans.close(b, 3)
        assert [r.name for r in spans.records(category="dram")] == ["b"]


class TestSpanIndex:
    def build(self):
        """root [0,100] with two children and an uncovered gap."""
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        root = spans.open(tid, "request:op", "request", "tile1", 0)
        a = spans.open(tid, "stage.a", "noc", "ni1", 10, parent_id=root)
        spans.close(a, 40)
        b = spans.open(tid, "stage.b", "dram", "dram", 40, parent_id=a)
        spans.close(b, 70)
        spans.close(root, 100)
        return SpanIndex(spans), tid

    def test_tree_nesting_follows_parents(self):
        index, tid = self.build()
        tree = index.tree(tid)
        assert tree.record.name == "request:op"
        (child_a,) = tree.children
        assert child_a.record.name == "stage.a"
        (child_b,) = child_a.children
        assert child_b.record.name == "stage.b"

    def test_stage_sums_partition_root_interval(self):
        index, tid = self.build()
        breakdown = index.stage_breakdown(tid)
        assert breakdown == {"stage.a": 30, "stage.b": 30, QUEUE_STAGE: 40}
        assert sum(breakdown.values()) == index.latency(tid) == 100

    def test_critical_path_is_contiguous(self):
        index, tid = self.build()
        path = index.critical_path(tid)
        assert path[0][2] == 0 and path[-1][3] == 100
        for (_, _, _, end), (_, _, start, _) in zip(path, path[1:]):
            assert end == start

    def test_incomplete_trace_is_reported(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        spans.open(tid, "request:op", "request", "tile1", 0)  # never closed
        index = SpanIndex(spans)
        assert not index.complete(tid)
        assert index.complete_traces() == []


class TestEndToEndTracing:
    def test_every_request_gets_a_complete_span_tree(self):
        system = traced_system()
        run_memworker(system)
        index = system.span_index()
        complete = index.complete_traces()
        # the management plane traces the accelerator load itself...
        mgmt = [t for t in complete
                if index.root(t).name.startswith("mgmt.")]
        assert [index.root(t).name for t in mgmt] == ["mgmt.load:app.mem"]
        # ...and alloc + write + read + free = 4 root requests
        requests = [t for t in complete if t not in mgmt]
        assert len(requests) == 4
        ops = [index.root(t).name for t in requests]
        assert ops == ["request:mem.alloc", "request:mem.write",
                       "request:mem.read", "request:mem.free"]

    def test_stage_sums_equal_end_to_end_latency(self):
        """The tentpole invariant for real traffic, not synthetic spans."""
        system = traced_system()
        run_memworker(system)
        index = system.span_index()
        for tid in index.complete_traces():
            breakdown = index.stage_breakdown(tid)
            assert sum(breakdown.values()) == index.latency(tid)

    def test_expected_stages_appear_in_a_memory_read(self):
        system = traced_system()
        run_memworker(system)
        index = system.span_index()
        read_tid = next(t for t in index.complete_traces()
                        if index.root(t).name == "request:mem.read")
        names = {node.record.name for node in index.tree(read_tid).walk()}
        assert {"request:mem.read", "monitor.egress", "noc.transit",
                "monitor.ingress", "service:mem.read",
                "dram.access"} <= names

    def test_disabled_tracing_is_zero_cost(self):
        # no enable_tracing()
        system = ApiarySystem(config=SystemConfig.figure1())
        system.boot()
        app = MemWorker()
        started = system.start_app(4, app, endpoint="app.mem")
        system.run_until(started)
        system.run(until=system.engine.now + 2_000_000)
        assert app.readback == b"spans"
        assert len(system.spans) == 0
        assert system.spans.open_spans == 0

    def test_tracing_does_not_perturb_simulated_time(self):
        def finish_cycle(trace):
            system = ApiarySystem(config=SystemConfig.figure1())
            if trace:
                system.enable_tracing()
            system.boot()
            app = MemWorker()
            started = system.start_app(4, app, endpoint="app.mem")
            system.run_until(started)
            system.run(until=system.engine.now + 2_000_000)
            assert app.finished_at is not None
            return app.finished_at

        assert finish_cycle(trace=False) == finish_cycle(trace=True)


class TestExport:
    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        system = traced_system()
        system.enable_telemetry(interval=500)
        run_memworker(system)
        path = tmp_path / "trace.json"
        export_chrome_trace(str(path), system.spans, sampler=system.sampler)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) > 0
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert "X" in phases  # spans
        assert "C" in phases  # telemetry counters
        assert "M" in phases  # track names

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": 0}  # missing dur
            ]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "I", "pid": 1, "ts": 10, "tid": 0},
                {"name": "b", "ph": "I", "pid": 1, "ts": 5, "tid": 0},
            ]})  # ts not monotonic

    def test_run_report_mentions_stages_and_traces(self):
        system = traced_system()
        run_memworker(system)
        report = run_report(system.span_index())
        assert "request:mem.read" in report
        assert "dram.access" in report


class TestTelemetrySampler:
    def test_series_accumulate_at_interval(self):
        system = ApiarySystem(config=SystemConfig.figure1())
        system.enable_telemetry(interval=500)
        system.boot()
        series = system.sampler.series("inject_backlog", node=0)
        assert len(series) >= 2
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert all(t2 - t1 == 500 for t1, t2 in zip(times, times[1:]))

    def test_ring_buffer_caps_memory(self):
        eng = Engine()
        sampler = TelemetrySampler(eng, interval=10, capacity=8).start()
        eng.run(until=1_000)
        assert len(sampler.series("sampled_at")) == 8

    def test_heatmap_matches_topology(self):
        system = ApiarySystem(config=SystemConfig.figure1())
        system.enable_telemetry(interval=500)
        system.boot()
        grid = system.sampler.noc_heatmap()
        assert len(grid) == 2 and all(len(row) == 3 for row in grid)
        assert "." in system.sampler.heatmap_text() or any(
            v is not None for row in grid for v in row)

    def test_telemetry_cannot_be_enabled_twice(self):
        system = ApiarySystem(config=SystemConfig.figure1())
        system.enable_telemetry()
        with pytest.raises(Exception):
            system.enable_telemetry()


class TestRpcSpans:
    def wire(self, spans=None):
        """Caller and responder glued back-to-back in one engine."""
        eng = Engine()
        parts = {}

        def to_responder(request):
            parts["responder"].dispatch(request)

        def to_caller(_reply_to, response):
            parts["caller"].deliver_response(response)

        parts["caller"] = RpcCaller(eng, to_responder, spans=spans)
        parts["responder"] = RpcResponder(eng, to_caller, spans=spans)
        return eng, parts["caller"], parts["responder"]

    def test_rpc_call_produces_nested_spans(self):
        spans = SpanRecorder()
        spans.enable()
        eng, caller, responder = self.wire(spans)

        def handler(request):
            yield 25
            return ("pong", 4)

        responder.register("ping", handler)
        done = caller.call("ping", body="x")
        eng.run()
        assert done.value.body == "pong"
        index = SpanIndex(spans)
        (tid,) = index.complete_traces()
        tree = index.tree(tid)
        assert tree.record.name == "rpc:ping"
        (handle,) = tree.children
        assert handle.record.name == "rpc.handle:ping"
        assert handle.record.duration == 25

    def test_handler_error_closes_span_with_detail(self):
        spans = SpanRecorder()
        spans.enable()
        eng, caller, responder = self.wire(spans)

        def boom(request):
            yield 1
            raise RuntimeError("nope")

        responder.register("boom", boom)
        done = caller.call("boom")
        eng.run()
        assert done.value.is_error
        (rec,) = spans.records(category="rpc")[1:]
        assert rec.detail.get("error") == "RuntimeError"

    def test_untraced_rpc_stamps_nothing(self):
        eng, caller, responder = self.wire()  # private disabled recorders
        seen = []

        def handler(request):
            seen.append((request.trace_id, request.span_id))
            yield 1
            return ("ok", 2)

        responder.register("m", handler)
        done = caller.call("m")
        eng.run()
        assert seen == [(0, 0)]
        assert done.value.trace_id == 0
        assert len(caller.spans) == 0
