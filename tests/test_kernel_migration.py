"""Accelerator migration tests (Section 4.4: swap out / repurpose tiles)."""

from dataclasses import replace

import pytest

from repro.accel import Accelerator, EchoAccel, PreemptibleVideoEncoder
from repro.errors import ConfigError
from repro.kernel import ApiarySystem, FaultConfig, FaultPolicy, SystemConfig


def booted():
    system = ApiarySystem(config=replace(
        SystemConfig.figure1(),
        fault=FaultConfig(policy=FaultPolicy.PREEMPT)))
    system.boot()
    return system


class StreamClient(Accelerator):
    """Keeps encoding chunks against an endpoint until told to stop."""

    from repro.hw.resources import ResourceVector

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, endpoint, stream, count, gap=9000):
        super().__init__(f"client-{stream}")
        self.endpoint = endpoint
        self.stream = stream
        self.count = count
        self.gap = gap
        self.ok = 0
        self.failures = 0

    def main(self, shell):
        for i in range(self.count):
            yield self.gap
            try:
                yield shell.call(self.endpoint, "encode",
                                 payload={"stream": self.stream, "seq": i,
                                          "frames": 1, "bytes": 8_000},
                                 timeout=4_000_000)
                self.ok += 1
            except Exception:
                self.failures += 1


def test_migrate_preserves_stream_state():
    system = booted()
    encoder = PreemptibleVideoEncoder("enc")
    system.run_until(system.start_app(2, encoder, endpoint="app.enc"))
    client = StreamClient("app.enc", "s0", count=6, gap=6000)
    started = system.start_app(3, client)
    system.mgmt.grant_send("tile3", "app.enc")
    system.run_until(started)
    # let some chunks land, then migrate tile2 -> tile4
    while encoder.chunks_encoded < 3:
        system.run(until=system.engine.now + 20_000)
    chunks_before = encoder.streams["s0"]["chunks"]
    migration = system.engine.process(system.mgmt.migrate(
        2, 4, lambda: PreemptibleVideoEncoder("enc-v2"), endpoint="app.enc"
    ))
    replacement = system.run_until(migration.done)
    assert system.namespace.lookup("app.enc") == 4
    assert not system.tiles[2].occupied
    # the restored instance carries the stream context forward
    assert replacement.streams["s0"]["chunks"] == chunks_before
    assert replacement.streams["s0"]["last_seq"] >= 0


def test_service_continues_after_migration():
    system = booted()
    encoder = PreemptibleVideoEncoder("enc")
    system.run_until(system.start_app(2, encoder, endpoint="app.enc"))
    client = StreamClient("app.enc", "s0", count=12, gap=15_000)
    started = system.start_app(3, client)
    system.mgmt.grant_send("tile3", "app.enc")
    system.run_until(started)
    while encoder.chunks_encoded < 2:
        system.run(until=system.engine.now + 20_000)
    migration = system.engine.process(system.mgmt.migrate(
        2, 4, lambda: PreemptibleVideoEncoder("enc-v2"), endpoint="app.enc"
    ))
    replacement = system.run_until(migration.done)
    system.run(until=system.engine.now + 20_000_000)
    # the client kept using the same endpoint name across the migration;
    # at most the requests in flight during reconfiguration failed
    assert client.ok + client.failures == 12
    assert client.ok >= 8
    assert replacement.chunks_encoded > 0


def test_migrating_non_preemptible_rejected():
    system = booted()
    echo = EchoAccel("echo")
    system.run_until(system.start_app(2, echo, endpoint="app.echo"))
    with pytest.raises(ConfigError):
        # generator construction is lazy; drive it to raise
        gen = system.mgmt.migrate(2, 4, lambda: EchoAccel("echo2"))
        next(gen)


def test_migrating_empty_tile_rejected():
    system = booted()
    with pytest.raises(ConfigError):
        next(system.mgmt.migrate(4, 5, lambda: EchoAccel("x")))


def test_migrating_to_occupied_destination_rejected():
    """Migration needs an empty destination slot; it never evicts."""
    system = booted()
    encoder = PreemptibleVideoEncoder("enc")
    system.run_until(system.start_app(2, encoder, endpoint="app.enc"))
    squatter = EchoAccel("squatter")
    system.run_until(system.start_app(4, squatter, endpoint="app.sq"))
    with pytest.raises(ConfigError):
        next(system.mgmt.migrate(
            2, 4, lambda: PreemptibleVideoEncoder("enc-v2")))
    # the guard fires before any teardown: both tenants still run
    assert system.tiles[2].accelerator is encoder
    assert system.tiles[4].accelerator is squatter


def test_free_tiles_track_teardown_and_restart():
    system = booted()
    assert system.mgmt.free_tiles() == [1, 2, 3, 4, 5]  # 0 = mem service
    system.run_until(system.start_app(2, EchoAccel("a"), endpoint="app.a"))
    assert system.mgmt.free_tiles() == [1, 3, 4, 5]
    restarted = system.engine.process(
        system.mgmt.restart(2, EchoAccel("a2"), endpoint="app.a"))
    system.run_until(restarted.done)
    # a restart reloads in place: the slot ends occupied, nothing leaks
    assert system.mgmt.free_tiles() == [1, 3, 4, 5]
    assert system.tiles[2].accelerator.name == "a2"
    system.run_until(system.mgmt.teardown(2))
    assert system.mgmt.free_tiles() == [1, 2, 3, 4, 5]


def test_migrated_tile_is_reusable():
    system = booted()
    encoder = PreemptibleVideoEncoder("enc")
    system.run_until(system.start_app(2, encoder, endpoint="app.enc"))
    migration = system.engine.process(system.mgmt.migrate(
        2, 4, lambda: PreemptibleVideoEncoder("enc-v2"), endpoint="app.enc"
    ))
    system.run_until(migration.done)
    # the vacated slot takes a new tenant
    newcomer = EchoAccel("newcomer")
    system.run_until(system.start_app(2, newcomer, endpoint="app.new"))
    assert system.tiles[2].accelerator is newcomer


def test_old_tile_capabilities_do_not_follow():
    """Capability hygiene: the source tile's authority dies with it."""
    system = booted()
    encoder = PreemptibleVideoEncoder("enc")
    system.run_until(system.start_app(2, encoder, endpoint="app.enc"))
    assert system.caps.holder_count("tile2") > 0
    migration = system.engine.process(system.mgmt.migrate(
        2, 4, lambda: PreemptibleVideoEncoder("enc-v2"), endpoint="app.enc"
    ))
    system.run_until(migration.done)
    assert system.caps.holder_count("tile2") == 0
    assert system.caps.holder_count("tile4") > 0  # fresh default wiring
