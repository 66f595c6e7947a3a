"""Reusable cluster experiments: the S1 scaling, O1 observability and
availability runs.

One parameterized closed-loop echo harness (:func:`echo_smoke`) is shared
by the unit tests, the S1 and O1 benchmarks, the CI smokes and the
determinism checks, so they all measure the same thing.  S1 runs it bare
(throughput vs board count); O1 arms the observability plane and kills a
board mid-run.  :func:`availability_smoke` is the sharded-kvstore kill
run.

Every quantity is derived from the simulated clock and seeded streams;
two calls with the same arguments produce identical stats dicts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.kernel.config import SystemConfig
from repro.obs.flight import validate_flight_dump
from repro.obs.profile import CycleProfiler
from repro.obs.slo import SLOTarget
from repro.obs.span import SpanRecorder
from repro.policy import RetryPolicy
from repro.sim import Histogram
from repro.workloads.client import ClusterClient

__all__ = ["echo_smoke", "availability_smoke", "span_dump"]

#: the objectives the O1 run states: availability (answered, not
#: rejected/failed) and a latency bound, plus a per-tenant copy of the
#: latency objective so the multi-tenant accounting path stays exercised
ECHO_SLO_TARGETS = (
    SLOTarget("availability", "echo", objective=0.99),
    SLOTarget("latency-p", "echo", objective=0.95, latency_cycles=60_000),
    SLOTarget("latency-p", "echo", objective=0.95, latency_cycles=60_000,
              tenant="tenant0"),
)


def span_dump(spans: SpanRecorder) -> List[tuple]:
    """Flatten a recorder to comparable tuples (the identity-check shape).

    Detail dicts are rendered through ``repr`` of their sorted items so
    any payload compares deterministically.
    """
    return [
        (rec.trace_id, rec.span_id, rec.parent_id, rec.name, rec.category,
         rec.source, rec.start, rec.end, repr(sorted(rec.detail.items())))
        for rec in spans
    ]


def _echo_handler_factory(work_cycles: int):
    """A CPU-bound echo service: every request costs ``work_cycles``."""

    def make():
        def handler(body):
            return work_cycles, {"echo": body.get("x") if isinstance(body, dict) else None}, 64
        return handler

    return make


def _kv_handler_factory(work_cycles: int):
    """A tiny per-shard key-value store (get/put)."""

    def make(shard: int):
        store: Dict[Any, Any] = {}

        def handler(body):
            op = body.get("op")
            if op == "put":
                store[body["key"]] = body["value"]
                return work_cycles, {"ok": True, "shard": shard}, 32
            if op == "get":
                return work_cycles, {"ok": body["key"] in store,
                                     "value": store.get(body["key"]),
                                     "shard": shard}, 64
            return work_cycles, {"ok": False, "error": f"bad op {op!r}"}, 32

        return handler

    return make


def _build(n_fpgas: int, seed: int, swallow_orphan_errors: bool = False,
           backend: str = "shared", cache: bool = False) -> Cluster:
    # fault-injection runs swallow orphan errors and observe faults
    # through the Apiary fault path (the Engine's documented contract);
    # runs without a kill keep them fatal, so a model bug cannot hide
    cluster = Cluster(n_fpgas=n_fpgas,
                      config=replace(SystemConfig.figure1(), seed=seed),
                      backend=backend,
                      swallow_orphan_errors=swallow_orphan_errors)
    if cache:
        # before boot(), so even the OS-service loads route through the
        # per-board compile pipeline (a realistic cold boot)
        cluster.enable_bitstream_cache()
    cluster.boot()
    return cluster


def _identity_payload(cluster: Cluster) -> Dict[str, Any]:
    """What the determinism checks compare between backends."""
    return {
        "spans": span_dump(cluster.merged_spans()),
        "stats": cluster.stats_snapshots(),
    }


def echo_smoke(
    n_fpgas: int = 2,
    seed: int = 0,
    duration: int = 300_000,
    clients: int = 16,
    requests_per_client: int = 200,
    work_cycles: int = 4_000,
    instances_per_fpga: int = 2,
    max_pending: int = 256,
    observability: bool = False,
    kill_index: Optional[int] = None,
    kill_after: int = 150_000,
    backend: str = "shared",
    identity: bool = False,
    dump_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Closed-loop echo workload against ``n_fpgas`` boards.

    Returns aggregate throughput (requests per kilocycle), latency
    percentiles, and front-end counters.  Throughput should scale with
    ``n_fpgas`` while the backends are the bottleneck — the S1 claim.

    ``kill_index`` kills that board ``kill_after`` cycles into serving
    (multi-board runs only).  ``observability=True`` arms the whole
    plane: cluster-wide tracing, per-board flight recorders (dumping on
    the kill, to ``dump_dir`` when given), an SLO engine fed by the
    front-end, and a cycle profiler over the merged span tree; the
    Chrome trace goes to ``trace_path`` when given.  The simulated
    workload is identical with the plane on or off — the O1 overhead
    pair times the two calls from the outside.

    ``identity=True`` records spans and attaches the payload the
    determinism checks compare between runs: spans, per-board stats
    snapshots (sketch summaries included) and, with the plane on, the
    SLO report and per-board flight reports with their dump documents.
    """
    cluster = _build(n_fpgas, seed,
                     swallow_orphan_errors=kill_index is not None,
                     backend=backend)
    if observability or identity:
        cluster.enable_tracing()
    if observability:
        cluster.enable_flight_recorders(dump_dir=dump_dir)
        cluster.enable_slo(ECHO_SLO_TARGETS)
    instances = instances_per_fpga * n_fpgas
    started = cluster.deploy_stateless(
        "echo", _echo_handler_factory(work_cycles), instances=instances)
    # partial reconfiguration is hundreds of kilocycles per bitstream;
    # measure serving, not deployment
    cluster.run_until(started, limit=50_000_000)
    # a saturated (not dead) backend answers after its queue drains; the
    # per-attempt timeout must sit above worst-case queueing delay or
    # health tracking mistakes overload for death
    patient = RetryPolicy(
        deadline=duration,
        attempt_timeout=max(30_000,
                            2 * work_cycles * max(1, clients)),
        backoff_base=200, backoff_cap=2_000)
    frontend = cluster.start_frontend(max_pending=max_pending,
                                      retry=patient)
    cluster.run(until=cluster.engine.now + 5_000)
    cluster.seal()

    hosts = []
    start = cluster.engine.now
    for c in range(clients):
        host = ClusterClient(cluster.engine, cluster.fabric, f"host{c}")
        requests = [{"body": {"x": c * requests_per_client + i},
                     "tenant": f"tenant{c % 2}"}
                    for i in range(requests_per_client)]
        cluster.engine.process(
            host.closed_loop_service("echo", requests, timeout=duration),
            name=f"{host.mac}.loop")
        hosts.append(host)
    if kill_index is not None and n_fpgas > 1:
        cluster.run(until=start + kill_after)
        cluster.kill_fpga(kill_index)
    cluster.run(until=start + duration)
    end = cluster.engine.now
    elapsed = end - start

    ok = sum(h.ok for h in hosts)
    merged = Histogram("cluster.latency")
    for h in hosts:
        merged.merge(h.latency)
    stats: Dict[str, Any] = {
        "n_fpgas": n_fpgas,
        "clients": clients,
        "work_cycles": work_cycles,
        "instances": instances,
        "elapsed_cycles": elapsed,
        "completed": ok,
        "rejected": sum(h.rejected for h in hosts),
        "failed": sum(h.failed for h in hosts),
        "throughput_per_kcycle": round(ok * 1_000 / elapsed, 4) if elapsed else 0.0,
        "p50_cycles": merged.percentile(50) if merged.count else 0.0,
        "p99_cycles": merged.percentile(99) if merged.count else 0.0,
        "frontend": {
            "admitted": frontend.requests_admitted,
            "rejected": frontend.requests_rejected,
            "failed": frontend.requests_failed,
            "batches_sent": frontend.batches_sent,
            "failovers": frontend.failovers,
        },
    }

    if observability:
        stats["slo"] = cluster.slo.report(end)
        stats["slo_text"] = cluster.slo.report_text(end)
        profiler = CycleProfiler(cluster.span_index())
        stats["profile"] = {
            "traces": profiler.traces,
            "total_cycles": profiler.total_cycles,
            "top": profiler.top(10),
        }
        if trace_path is not None:
            from repro.obs.export import export_chrome_trace
            doc = export_chrome_trace(trace_path, cluster.merged_spans())
            stats["trace_events"] = len(doc["traceEvents"])
        # every retained dump must be structurally valid — the same gate
        # CI applies to the on-disk artifact before uploading
        stats["flight"] = {
            board: {
                "seen": report["seen"],
                "ring": len(report["entries"]),
                "dumps": len(report["dumps"]),
                "dump_reasons": [d["reason"] for d in report["dumps"]],
                "dump_entries": [validate_flight_dump(d)
                                 for d in report["dumps"]],
            }
            for board, report in sorted(cluster.flight_reports().items())
        }

    if identity:
        payload = _identity_payload(cluster)
        if observability:
            payload["slo"] = cluster.slo.report(end)
            payload["flight"] = cluster.flight_reports()
        stats["identity"] = payload
    return stats


def availability_smoke(
    n_fpgas: int = 2,
    seed: int = 0,
    n_shards: int = 4,
    replication: int = 2,
    work_cycles: int = 2_000,
    keys: int = 32,
    kill_index: Optional[int] = 1,
    kill_after: int = 150_000,
    post_kill: int = 400_000,
    backend: str = "shared",
    identity: bool = False,
    cache: bool = False,
) -> Dict[str, Any]:
    """Sharded kvstore + mid-run board kill; measures service continuity.

    Phase 1 writes ``keys`` keys (replicated per shard), phase 2 reads
    them back continuously; at ``kill_after`` one board dies.  The stat
    that matters: ``post_kill_hit_rate`` — reads answered correctly from
    surviving replicas after the kill.  On the windowed backend the kill
    lands at a window barrier — the chaos arm of the PDES determinism
    contract.
    ``identity=True`` records spans and attaches the span/stats payload
    the determinism checks compare.
    ``cache=True`` routes every load through the per-board bitstream
    compile-and-cache pipeline, putting its counters/state into the same
    identity payload — the cache arm of that contract.
    """
    cluster = _build(n_fpgas, seed, swallow_orphan_errors=True,
                     backend=backend, cache=cache)
    if identity:
        cluster.enable_tracing()
    started = cluster.deploy_sharded("kv", _kv_handler_factory(work_cycles),
                                     n_shards=n_shards,
                                     replication=replication)
    cluster.run_until(started, limit=50_000_000)
    cluster.start_frontend(max_pending=256)
    cluster.run(until=cluster.engine.now + 5_000)
    cluster.seal()

    host = ClusterClient(cluster.engine, cluster.fabric, "host0")
    key_names = [f"key{i}" for i in range(keys)]
    writes = [{"body": {"op": "put", "key": k, "value": f"v-{k}"},
               "key": k, "write": True} for k in key_names]
    done_writes = cluster.engine.process(
        host.closed_loop_service("kv", writes, timeout=200_000),
        name="host0.writes")
    cluster.run_until([done_writes.done], limit=5_000_000)
    writes_ok = host.ok

    # continuous read phase, kill mid-way through
    outcome = {"pre_ok": 0, "pre_bad": 0, "post_ok": 0, "post_bad": 0}
    killed_at = []

    def reader():
        i = 0
        while True:
            k = key_names[i % len(key_names)]
            i += 1
            phase = "post" if killed_at else "pre"
            try:
                reply = yield host.call_service(
                    "kv", {"op": "get", "key": k}, key=k, timeout=100_000)
            except Exception:
                outcome[f"{phase}_bad"] += 1
                continue
            good = (isinstance(reply, dict) and reply.get("ok")
                    and isinstance(reply.get("body"), dict)
                    and reply["body"].get("value") == f"v-{k}")
            outcome[f"{phase}_ok" if good else f"{phase}_bad"] += 1

    cluster.engine.process(reader(), name="host0.reads")
    start = cluster.engine.now
    if kill_index is not None:
        cluster.run(until=start + kill_after)
        killed_at.append(cluster.engine.now)
        cluster.kill_fpga(kill_index)
    cluster.run(until=start + kill_after + post_kill)

    pre_total = outcome["pre_ok"] + outcome["pre_bad"]
    post_total = outcome["post_ok"] + outcome["post_bad"]
    stats = {
        "n_fpgas": n_fpgas,
        "n_shards": n_shards,
        "replication": replication,
        "writes_ok": writes_ok,
        "keys": keys,
        "killed_fpga": kill_index,
        "pre_kill_reads": pre_total,
        "pre_kill_hit_rate": round(outcome["pre_ok"] / pre_total, 4) if pre_total else 0.0,
        "post_kill_reads": post_total,
        "post_kill_ok": outcome["post_ok"],
        "post_kill_hit_rate": round(outcome["post_ok"] / post_total, 4) if post_total else 0.0,
        "failovers": cluster.frontend.failovers,
        "health": cluster.frontend.health_table(),
    }
    if identity:
        stats["identity"] = _identity_payload(cluster)
    return stats
