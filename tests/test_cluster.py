"""The scale-out cluster layer: sharding determinism, health-aware
failover, admission control, and cross-FPGA trace propagation."""

import pytest

from repro.cluster import (
    Cluster,
    FrontEnd,
    HashRing,
    availability_smoke,
    echo_smoke,
)
from repro.errors import ConfigError
from repro.kernel import SystemConfig
from repro.sim import Engine
from repro.workloads import ClusterClient


def small_cluster(n_fpgas=2, **kwargs):
    kwargs.setdefault("config", SystemConfig.figure1())
    cluster = Cluster(n_fpgas=n_fpgas, **kwargs)
    cluster.boot()
    return cluster


def echo_factory(cycles=500):
    def make():
        def handler(body):
            return cycles, {"echo": body.get("x")}, 64
        return handler
    return make


def kv_factory(cycles=500):
    def make(shard):
        store = {}

        def handler(body):
            if body.get("op") == "put":
                store[body["key"]] = body["value"]
                return cycles, {"ok": True}, 32
            return cycles, {"ok": body.get("key") in store,
                            "value": store.get(body.get("key"))}, 64
        return handler
    return make


def deploy_and_settle(cluster, started):
    cluster.engine.run_until_done(cluster.engine.all_of(started),
                                  limit=50_000_000)


def drive(cluster, gen, limit=10_000_000):
    proc = cluster.engine.process(gen, name="test.drive")
    return cluster.engine.run_until_done(proc.done, limit=limit)


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(n_shards=8)
        b = HashRing(n_shards=8)
        keys = [f"key{i}" for i in range(200)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_covers_all_shards(self):
        ring = HashRing(n_shards=4)
        hit = {ring.shard_for(f"key{i}") for i in range(500)}
        assert hit == {0, 1, 2, 3}

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            HashRing(n_shards=0)


class TestPlacement:
    def test_sharded_replicas_on_distinct_fpgas(self):
        cluster = small_cluster(n_fpgas=2)
        cluster.deploy_sharded("kv", kv_factory(), n_shards=4,
                               replication=2)
        by_shard = {}
        for inst in cluster.directory.services["kv"].instances:
            by_shard.setdefault(inst.shard, set()).add(inst.fpga)
        for shard, fpgas in by_shard.items():
            assert len(fpgas) == 2, f"shard {shard} replicas share an FPGA"

    def test_placement_deterministic(self):
        tables = []
        for _ in range(2):
            cluster = small_cluster(n_fpgas=2)
            cluster.deploy_sharded("kv", kv_factory(), n_shards=2,
                                   replication=2)
            cluster.deploy_stateless("echo", echo_factory(), instances=2)
            tables.append(cluster.directory.placement_table())
        assert tables[0] == tables[1]

    def test_replication_beyond_cluster_rejected(self):
        cluster = small_cluster(n_fpgas=2)
        with pytest.raises(ConfigError):
            cluster.deploy_sharded("kv", kv_factory(), n_shards=2,
                                   replication=3)

    def test_duplicate_service_rejected(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.deploy_stateless("echo", echo_factory(), instances=1)
        with pytest.raises(ConfigError):
            cluster.deploy_stateless("echo", echo_factory(), instances=1)

    def test_directory_is_a_namespace(self):
        cluster = small_cluster(n_fpgas=2)
        cluster.deploy_stateless("echo", echo_factory(), instances=2)
        # instances are bound cluster-wide under their iid
        assert cluster.directory.lookup("echo#0") == (0, 2)
        assert "echo#1" in cluster.directory


class TestServing:
    def test_request_round_trip(self):
        cluster = small_cluster(n_fpgas=1)
        started = cluster.deploy_stateless("echo", echo_factory(),
                                           instances=1)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")

        def go():
            reply = yield host.call_service("echo", {"x": 41},
                                            timeout=200_000)
            return reply

        reply = drive(cluster, go())
        assert reply == {"ok": True, "body": {"echo": 41}}

    def test_unknown_service_errors(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")

        def go():
            reply = yield host.call_service("nope", {"x": 1},
                                            timeout=200_000)
            return reply

        reply = drive(cluster, go())
        assert reply["ok"] is False
        assert "nope" in reply["error"]

    def test_stateless_load_spreads_across_instances(self):
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_stateless("echo", echo_factory(4_000),
                                           instances=2)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        hosts = [ClusterClient(cluster.engine, cluster.fabric, f"h{i}")
                 for i in range(4)]
        for host in hosts:
            reqs = [{"body": {"x": i}} for i in range(10)]
            cluster.engine.process(
                host.closed_loop_service("echo", reqs, timeout=300_000),
                name=f"{host.mac}.loop")
        cluster.run(until=cluster.engine.now + 400_000)
        assert sum(h.ok for h in hosts) == 40
        # both instances took real work (least-loaded spreading)
        assert all(h.served > 0 for h in cluster.frontend.health.values())


class TestAdmissionControl:
    def test_overload_is_rejected_not_queued(self):
        cluster = small_cluster(n_fpgas=1)
        started = cluster.deploy_stateless("echo", echo_factory(20_000),
                                           instances=1)
        deploy_and_settle(cluster, started)
        cluster.start_frontend(max_pending=4)
        hosts = [ClusterClient(cluster.engine, cluster.fabric, f"h{i}")
                 for i in range(12)]
        for host in hosts:
            cluster.engine.process(
                host.closed_loop_service(
                    "echo", [{"body": {"x": 0}}] * 4, timeout=400_000),
                name=f"{host.mac}.loop")
        cluster.run(until=cluster.engine.now + 300_000)
        rejected = sum(h.rejected for h in hosts)
        assert cluster.frontend.requests_rejected == rejected
        assert rejected > 0
        # the budget was enforced, never exceeded
        assert cluster.frontend.inflight <= 4


class TestFailover:
    def test_kill_fpga_marks_instances_dead(self):
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_sharded("kv", kv_factory(), n_shards=2,
                                         replication=2)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        cluster.kill_fpga(1)
        cluster.run(until=cluster.engine.now + 1_000)
        for inst in cluster.directory.instances_on(1):
            assert not cluster.frontend.health[inst.iid].healthy
        for inst in cluster.directory.instances_on(0):
            assert cluster.frontend.health[inst.iid].healthy

    def test_reads_fail_over_to_replica(self):
        stats = availability_smoke(
            keys=8, kill_after=80_000, post_kill=200_000,
            work_cycles=1_000)
        assert stats["writes_ok"] == 8
        assert stats["post_kill_reads"] > 0
        assert stats["post_kill_hit_rate"] == 1.0

    def test_availability_run_is_deterministic(self):
        a = availability_smoke(keys=8, kill_after=80_000,
                               post_kill=150_000, work_cycles=1_000)
        b = availability_smoke(keys=8, kill_after=80_000,
                               post_kill=150_000, work_cycles=1_000)
        assert a == b


class TestScaling:
    def test_two_fpgas_beat_one(self):
        one = echo_smoke(n_fpgas=1, duration=150_000, clients=8,
                         requests_per_client=100)
        two = echo_smoke(n_fpgas=2, duration=150_000, clients=8,
                         requests_per_client=100)
        assert one["completed"] > 0
        speedup = (two["throughput_per_kcycle"]
                   / one["throughput_per_kcycle"])
        assert speedup >= 1.5

    def test_scaling_run_is_deterministic(self):
        a = echo_smoke(n_fpgas=2, duration=100_000, clients=4,
                       requests_per_client=50)
        b = echo_smoke(n_fpgas=2, duration=100_000, clients=4,
                       requests_per_client=50)
        assert a == b


class TestTracing:
    def test_span_crosses_the_fabric_hop(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.enable_tracing()
        started = cluster.deploy_stateless("echo", echo_factory(),
                                           instances=1)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")

        def go():
            return (yield host.call_service("echo", {"x": 1},
                                            timeout=200_000))

        reply = drive(cluster, go())
        assert reply["ok"]
        by_name = {}
        for rec in cluster.spans:
            if rec.category == "cluster":
                by_name[rec.name.split(":")[0]] = rec
        assert set(by_name) == {"frontend", "forward", "backend"}
        fe, fwd, backend = (by_name["frontend"], by_name["forward"],
                            by_name["backend"])
        # one causal chain: frontend -> forward -> backend, one trace
        assert fwd.parent_id == fe.span_id
        assert backend.parent_id == fwd.span_id
        assert fe.trace_id == fwd.trace_id == backend.trace_id
        # the backend span ran on a tile, not on the front-end host
        assert backend.source.startswith("tile")


class TestClusterConstruction:
    def test_per_fpga_configs_are_derived(self):
        cluster = small_cluster(n_fpgas=3)
        assert cluster.macs() == ["fpga0", "fpga1", "fpga2"]
        seeds = [s.config.seed for s in cluster.systems]
        assert seeds == [0, 1, 2]
        # same grid everywhere, derived via dataclasses.replace
        for system in cluster.systems:
            assert system.config.noc == cluster.base_config.noc

    def test_one_shared_span_recorder(self):
        cluster = small_cluster(n_fpgas=2)
        assert cluster.systems[0].spans is cluster.systems[1].spans
        assert cluster.systems[0].spans is cluster.spans

    def test_second_frontend_rejected(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.start_frontend()
        with pytest.raises(ConfigError):
            cluster.start_frontend()
