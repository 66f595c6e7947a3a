"""Windowed discrete-event simulation: backends, envelopes, determinism.

The contract under test (DESIGN.md, "Windowed simulation"): two
identically-seeded windowed cluster runs in one process produce
byte-identical results, span trees, stats snapshots, and flight dumps —
the backend restarts the process-global message-id stream per run, so a
run's ids depend only on its own behaviour.  The chaos variants pin the
same identity through a mid-run board kill.  Against the shared engine
the windowed backend agrees on S1 results and stats snapshots, not on
span ids.
"""

import json
import re

import pytest

from repro.cluster.backend import SPAN_ID_STRIDE
from repro.cluster.cluster import Cluster
from repro.cluster.smoke import availability_smoke, echo_smoke, span_dump
from repro.errors import ConfigError
from repro.net.envelope import FrameEnvelope, PartitionFabric
from repro.net.frame import EthernetFrame
from repro.sim import Engine


# small enough to keep the suite fast, big enough to cross hundreds of
# window barriers and exercise retries, batching, and health probing
S1_ARGS = dict(n_fpgas=2, duration=100_000, clients=8,
               requests_per_client=60, identity=True)
CHAOS_ARGS = dict(n_fpgas=2, kill_after=80_000, post_kill=150_000,
                  identity=True)
OBS_ARGS = dict(duration=200_000, clients=4, requests_per_client=40,
                work_cycles=3_000, instances_per_fpga=1, max_pending=64,
                observability=True, kill_index=1, kill_after=80_000)


def _split(stats):
    identity = stats.pop("identity")
    return stats, identity


class TestEnvelope:
    def test_to_frame_restores_wire_fields(self):
        env = FrameEnvelope(seq=3, src_partition=1, send_cycle=70,
                            src_mac="fpga0", dst_mac="frontend", nbytes=128,
                            payload="hi", ethertype=0x0800, corrupted=True)
        frame = env.to_frame()
        assert isinstance(frame, EthernetFrame)
        assert (frame.src_mac, frame.dst_mac) == ("fpga0", "frontend")
        assert frame.sent_at == 70
        assert frame.corrupted

    def test_sort_key_orders_by_cycle_then_partition_then_seq(self):
        mk = lambda c, p, s: FrameEnvelope(  # noqa: E731
            seq=s, src_partition=p, send_cycle=c, src_mac="x", dst_mac="y",
            nbytes=64, payload=None, ethertype=0, corrupted=False)
        envs = [mk(5, 1, 2), mk(4, 2, 9), mk(5, 0, 7), mk(4, 2, 1)]
        ordered = sorted(envs, key=FrameEnvelope.sort_key)
        assert [(e.send_cycle, e.src_partition, e.seq) for e in ordered] == \
            [(4, 2, 1), (4, 2, 9), (5, 0, 7), (5, 1, 2)]


class TestPartitionFabric:
    def _fabric(self, pid):
        eng = Engine()
        return eng, PartitionFabric(eng, partition_id=pid,
                                    partition_of={"fpga0": 1, "fpga1": 2},
                                    latency_cycles=500)

    def test_local_destination_delivers_in_partition(self):
        eng, fab = self._fabric(1)
        got = []
        fab.attach("fpga0", got.append)
        fab.transmit(EthernetFrame(src_mac="fpga0", dst_mac="fpga0",
                                   nbytes=96, payload="loop"))
        eng.run()
        assert len(got) == 1
        assert not fab.drain_outbox()

    def test_remote_destination_lands_in_outbox(self):
        eng, fab = self._fabric(1)
        fab.transmit(EthernetFrame(src_mac="fpga0", dst_mac="fpga1",
                                   nbytes=96, payload="x"))
        out = fab.drain_outbox()
        assert [e.dst_mac for e in out] == ["fpga1"]
        assert fab.drain_outbox() == []  # drained

    def test_unmapped_mac_belongs_to_host_partition(self):
        eng, fab = self._fabric(0)
        got = []
        fab.attach("host7", got.append)
        fab.transmit(EthernetFrame(src_mac="frontend", dst_mac="host7",
                                   nbytes=64, payload="p"))
        eng.run()
        assert len(got) == 1

    def test_inject_delivers_at_send_plus_latency(self):
        eng, fab = self._fabric(2)
        arrivals = []
        fab.attach("fpga1", lambda f: arrivals.append(eng.now))
        fab.inject(FrameEnvelope(seq=1, src_partition=0, send_cycle=30,
                                 src_mac="frontend", dst_mac="fpga1",
                                 nbytes=64, payload="p", ethertype=0x88B5,
                                 corrupted=False))
        eng.run()
        assert arrivals == [530]

    def test_inject_to_detached_mac_drops_at_delivery(self):
        eng, fab = self._fabric(2)
        fab.inject(FrameEnvelope(seq=1, src_partition=0, send_cycle=0,
                                 src_mac="frontend", dst_mac="fpga1",
                                 nbytes=64, payload="p", ethertype=0x88B5,
                                 corrupted=False))
        eng.run()
        assert fab.frames_dropped == 1

    def test_transmit_to_remote_detached_mac_drops_at_send(self):
        eng, fab = self._fabric(0)
        fab.mark_remote_detached("fpga1")
        fab.transmit(EthernetFrame(src_mac="frontend", dst_mac="fpga1",
                                   nbytes=64, payload="p"))
        assert fab.drain_outbox() == []
        assert fab.frames_dropped == 1


class TestWindowedCluster:
    def test_boot_aligns_all_partitions(self):
        cluster = Cluster(n_fpgas=2, backend="sequential")
        cluster.boot()
        now = cluster.engine.now
        assert now > 0
        for system in cluster.systems:
            assert system.engine.now == now

    def test_span_id_spaces_are_disjoint(self):
        cluster = Cluster(n_fpgas=2, backend="sequential")
        cluster.boot()
        cluster.enable_tracing()
        bases = [rec.id_base for rec in
                 [cluster.spans] + [s.spans for s in cluster.systems]]
        assert bases == [0, SPAN_ID_STRIDE, 2 * SPAN_ID_STRIDE]

    def test_deploy_after_seal_rejected(self):
        cluster = Cluster(n_fpgas=1, backend="sequential")
        cluster.boot()
        cluster.seal()
        with pytest.raises(ConfigError, match="seal"):
            cluster.deploy_stateless("svc", lambda: None, instances=1)

    def test_dynamic_placement_features_need_shared_backend(self):
        cluster = Cluster(n_fpgas=1, backend="sequential")
        with pytest.raises(ConfigError, match="shared"):
            cluster.start_replication()
        with pytest.raises(ConfigError, match="shared"):
            cluster.start_autoscaler("svc")

    def test_windowed_backend_rejects_external_engine(self):
        with pytest.raises(ConfigError, match="per partition"):
            Cluster(n_fpgas=1, backend="sequential", engine=Engine())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            Cluster(n_fpgas=1, backend="warp-drive")
        # the forked backend is gone; the error names what remains
        with pytest.raises(ConfigError,
                           match=re.escape("['sequential', 'shared']")):
            Cluster(n_fpgas=1, backend="parallel")

    def test_windowed_run_needs_a_bound(self):
        cluster = Cluster(n_fpgas=1, backend="sequential")
        cluster.boot()
        with pytest.raises(ConfigError, match="bounded"):
            cluster.run()

    def test_shared_backend_remains_default(self):
        cluster = Cluster(n_fpgas=1)
        assert cluster.backend_name == "shared"
        # every board really is on the one shared engine
        assert all(s.engine is cluster.engine for s in cluster.systems)


class TestDeterminism:
    """The headline contract: two sequential runs, byte for byte."""

    def test_sequential_rerun_is_deterministic(self):
        first_stats, first_id = _split(echo_smoke(backend="sequential",
                                                  **S1_ARGS))
        second_stats, second_id = _split(echo_smoke(backend="sequential",
                                                    **S1_ARGS))
        assert first_stats == second_stats
        assert first_id["spans"] == second_id["spans"]
        assert len(first_id["spans"]) > 0
        assert json.dumps(first_id["stats"], sort_keys=True) == \
            json.dumps(second_id["stats"], sort_keys=True)
        # sanity: the run actually served traffic
        assert first_stats["completed"] > 0

    def test_s1_serving_identical_across_backends(self):
        """Span ids and same-cycle span order differ between the shared
        engine and the windowed backend, but on S1 serving the result and
        every board's stats snapshot agree byte for byte."""
        shared_stats, shared_id = _split(echo_smoke(backend="shared",
                                                    **S1_ARGS))
        seq_stats, seq_id = _split(echo_smoke(backend="sequential",
                                              **S1_ARGS))
        assert shared_stats == seq_stats
        assert len(seq_id["spans"]) == len(shared_id["spans"]) > 0
        assert json.dumps(shared_id["stats"], sort_keys=True) == \
            json.dumps(seq_id["stats"], sort_keys=True)
        assert seq_stats["completed"] > 0

    def test_chaos_kill_identical_on_rerun(self):
        first_stats, first_id = _split(availability_smoke(
            backend="sequential", **CHAOS_ARGS))
        second_stats, second_id = _split(availability_smoke(
            backend="sequential", **CHAOS_ARGS))
        assert first_stats == second_stats
        assert first_id["spans"] == second_id["spans"]
        assert json.dumps(first_id["stats"], sort_keys=True) == \
            json.dumps(second_id["stats"], sort_keys=True)
        # the kill really happened and service survived it
        assert first_stats["killed_fpga"] == 1
        assert first_stats["post_kill_reads"] > 0
        unhealthy = [iid for iid, h in first_stats["health"].items()
                     if not h["healthy"]]
        assert unhealthy, "killing a board must mark its replicas down"

    def test_flight_dumps_identical_on_rerun(self):
        def run():
            return echo_smoke(backend="sequential", identity=True,
                              **OBS_ARGS)

        first, second = run(), run()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        # the kill froze a flight dump on the dead board
        reasons = [r for board in first["flight"].values()
                   if board for r in board["dump_reasons"]]
        assert any(r.startswith("board-kill:") for r in reasons), reasons

    def test_windowed_matches_shared_aggregates(self):
        """Not byte-identity (window quantization reorders same-cycle
        ties), but the serving outcome must agree with the shared oracle
        on this workload."""
        shared = echo_smoke(n_fpgas=2, duration=100_000, clients=8,
                            requests_per_client=60, backend="shared")
        seq = echo_smoke(n_fpgas=2, duration=100_000, clients=8,
                         requests_per_client=60, backend="sequential")
        assert shared["completed"] == seq["completed"]
        assert shared["throughput_per_kcycle"] == seq["throughput_per_kcycle"]
