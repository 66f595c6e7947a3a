"""The fault-injection campaign layer: seeded plans, per-layer injection,
and availability campaigns (recovery on vs. off)."""

import pytest

from repro.chaos import (
    Campaign,
    ChecksumService,
    FaultEvent,
    FaultKind,
    FaultPlan,
    Injector,
    checksum,
)
from repro.errors import ConfigError, DramFault
from repro.kernel import ApiarySystem, SystemConfig
from repro.net.frame import EthernetFabric
from repro.policy import RetryPolicy
from repro.sim import Engine


def small_system():
    system = ApiarySystem(config=SystemConfig.figure1())
    system.boot()
    return system


def plan_with(events, seed=0, duration=1_000_000):
    return FaultPlan(seed=seed, duration=duration, events=list(events))


class TestFaultPlan:
    RATES = {FaultKind.TILE_CRASH: 5.0, FaultKind.NOC_ROUTER_STALL: 3.0}
    TARGETS = {FaultKind.TILE_CRASH: ["svc.a", "svc.b"],
               FaultKind.NOC_ROUTER_STALL: [0, 1, 2, 3]}

    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(9, 2_000_000, self.RATES, self.TARGETS)
        b = FaultPlan.generate(9, 2_000_000, self.RATES, self.TARGETS)
        assert a.describe() == b.describe()
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(1, 2_000_000, self.RATES, self.TARGETS)
        b = FaultPlan.generate(2, 2_000_000, self.RATES, self.TARGETS)
        assert a.describe() != b.describe()

    def test_adding_a_kind_does_not_perturb_others(self):
        """Streams are keyed per kind: sweeping in a new fault kind leaves
        the existing kinds' schedules untouched."""
        base = FaultPlan.generate(
            5, 2_000_000, {FaultKind.TILE_CRASH: 5.0},
            {FaultKind.TILE_CRASH: ["svc.a"]})
        both = FaultPlan.generate(
            5, 2_000_000,
            {FaultKind.TILE_CRASH: 5.0, FaultKind.DRAM_BITFLIP: 4.0},
            {FaultKind.TILE_CRASH: ["svc.a"],
             FaultKind.DRAM_BITFLIP: [0, 4096]})
        crashes = [e for e in both.events if e.kind is FaultKind.TILE_CRASH]
        assert crashes == base.events

    def test_window_bounds_event_times(self):
        plan = FaultPlan.generate(3, 1_000_000,
                                  {FaultKind.TILE_CRASH: 50.0},
                                  {FaultKind.TILE_CRASH: ["x"]},
                                  window=(0.1, 0.4))
        assert plan.events
        for ev in plan.events:
            assert 100_000 <= ev.time < 400_000

    def test_min_events_floor(self):
        plan = FaultPlan.generate(
            3, 1_000_000, {FaultKind.TILE_CRASH: 0.001},
            {FaultKind.TILE_CRASH: ["x"]},
            min_events={FaultKind.TILE_CRASH: 2})
        assert len(plan.events) >= 2

    def test_zero_rate_yields_no_events(self):
        plan = FaultPlan.generate(3, 1_000_000, {FaultKind.TILE_CRASH: 0.0},
                                  {FaultKind.TILE_CRASH: ["x"]})
        assert plan.events == []

    def test_missing_targets_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.generate(3, 1_000_000, {FaultKind.TILE_CRASH: 5.0}, {})

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.generate(3, 1_000_000, {}, {}, window=(0.5, 0.5))

    def test_param_overrides_merge_over_defaults(self):
        plan = FaultPlan.generate(
            3, 1_000_000, {FaultKind.NOC_ROUTER_STALL: 10.0},
            {FaultKind.NOC_ROUTER_STALL: [0]},
            params={FaultKind.NOC_ROUTER_STALL: {"cycles": 777}},
            min_events={FaultKind.NOC_ROUTER_STALL: 1})
        assert plan.events[0].param("cycles") == 777


class TestInjector:
    def run_plan(self, system, events, cycles=300_000):
        injector = Injector(system, plan_with(events))
        injector.arm()
        system.run(until=system.engine.now + cycles)
        return injector

    def test_router_stall_applied(self):
        system = small_system()
        inj = self.run_plan(system, [
            FaultEvent(1_000, FaultKind.NOC_ROUTER_STALL, 2,
                       (("cycles", 5_000),)),
        ])
        assert inj.applied == 1
        assert system.network.router(2).stalls_injected == 1

    def test_ni_drop_window(self):
        system = small_system()
        inj = self.run_plan(system, [
            FaultEvent(1_000, FaultKind.NOC_DROP, 3, (("cycles", 5_000),)),
        ])
        assert inj.applied == 1
        assert system.network.interface(3).drop_until > 0

    def test_link_slow_applied(self):
        system = small_system()
        inj = self.run_plan(system, [
            FaultEvent(1_000, FaultKind.NOC_LINK_SLOW, 0,
                       (("cycles", 5_000), ("extra_latency", 30))),
        ])
        assert inj.applied == 1
        assert system.stats.counters["noc.links_degraded"].value == 1

    def test_dram_bitflip_until_scrubbed(self):
        system = small_system()
        self.run_plan(system, [
            FaultEvent(1_000, FaultKind.DRAM_BITFLIP, 4096),
        ], cycles=10_000)
        assert system.dram.corrupted_in(4096, 1) == [0]
        assert system.dram.scrub(4096, 1) == 1
        assert system.dram.corrupted_in(4096, 1) == []

    def test_dram_bank_fail_rejects_accesses(self):
        system = small_system()
        self.run_plan(system, [
            FaultEvent(1_000, FaultKind.DRAM_BANK_FAIL, 0,
                       (("cycles", 1_000_000),)),
        ], cycles=10_000)
        failed = [bank for ch in system.dram.channels for bank in ch.banks
                  if bank.failed_until > system.engine.now]
        assert len(failed) == 1

    def test_tile_crash_by_endpoint_name(self):
        system = small_system()
        inj = self.run_plan(system, [
            FaultEvent(1_000, FaultKind.TILE_CRASH, "svc.mem"),
        ])
        assert inj.applied == 1
        assert system.tiles[0].failed

    def test_tile_crash_unbound_endpoint_skips(self):
        system = small_system()
        inj = self.run_plan(system, [
            FaultEvent(1_000, FaultKind.TILE_CRASH, "svc.ghost"),
        ])
        assert inj.applied == 0 and inj.skipped == 1
        assert "not bound" in inj.log[0][2]

    def test_eth_burst_applies_and_restores(self):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        system = ApiarySystem(config=SystemConfig.figure1(),
                              engine=engine, fabric=fabric)
        system.boot()
        inj = self.run_plan(system, [
            FaultEvent(1_000, FaultKind.ETH_LOSS_BURST, "fabric",
                       (("cycles", 5_000), ("loss_rate", 0.4))),
            FaultEvent(1_000, FaultKind.ETH_CORRUPT_BURST, "fabric",
                       (("cycles", 5_000), ("corrupt_rate", 0.3))),
        ], cycles=50_000)
        assert inj.applied == 2
        assert fabric.loss_rate == 0.0, "burst must end after its window"
        assert fabric.corrupt_rate == 0.0

    def test_arming_twice_rejected(self):
        system = small_system()
        injector = Injector(system, plan_with([]))
        injector.arm()
        with pytest.raises(ConfigError):
            injector.arm()


class TestChecksumWorkload:
    def test_checksum_is_deterministic_and_content_sensitive(self):
        assert checksum("abc") == checksum("abc")
        assert checksum("abc") != checksum("abd")
        assert checksum(b"abc") == checksum("abc")

    def test_service_replies_with_checksum(self):
        system = small_system()
        started = system.mgmt.load(2, ChecksumService(),
                                   endpoint="svc.checksum")
        system.run_until(started)

        from repro.accel import Accelerator

        class Caller(Accelerator):
            def __init__(self):
                super().__init__("caller")
                self.result = None

            def main(self, shell):
                msg = yield shell.call("svc.checksum", "sum",
                                       payload="hello", retry=RetryPolicy())
                self.result = msg.payload

        caller = Caller()
        started = system.start_app(3, caller)
        system.mgmt.grant_send("tile3", "svc.checksum")
        system.run_until(started)
        system.run(until=system.engine.now + 200_000)
        assert caller.result == checksum("hello")


class TestCampaign:
    def test_report_is_deterministic(self):
        def once():
            campaign = Campaign(seed=21, rates=(0.0, 3.0), clients=2,
                                duration=600_000)
            campaign.run()
            return campaign.report_text()

        assert once() == once()

    def test_report_identical_on_legacy_fast_paths(self, monkeypatch):
        """The pinned pre-overhaul engine + router must reproduce the
        optimized stack's campaign report byte-for-byte — the determinism
        oracle for the simulator hot-path overhaul."""
        from functools import partial

        import repro.chaos.campaign as cm
        import repro.kernel.system as ksys
        from repro.noc import LegacyRouter, Network
        from repro.sim import LegacyEngine

        def once():
            campaign = Campaign(seed=21, rates=(3.0,), clients=2,
                                duration=500_000)
            campaign.run()
            return campaign.report_text()

        fast = once()
        monkeypatch.setattr(cm, "Engine", LegacyEngine)
        monkeypatch.setattr(ksys, "Network",
                            partial(Network, router_cls=LegacyRouter))
        assert once() == fast

    def test_recovery_beats_no_recovery_at_nonzero_rate(self):
        campaign = Campaign(seed=13, rates=(4.0,), clients=2,
                            duration=700_000)
        off = campaign.run_point(4.0, recovery=False)
        on = campaign.run_point(4.0, recovery=True)
        assert off.faults_applied >= 1, "the plan must land a crash"
        assert on.availability > off.availability
        assert on.checksum_errors == 0 and off.checksum_errors == 0

    def test_zero_rate_control_is_fully_available(self):
        campaign = Campaign(seed=13, rates=(0.0,), clients=2,
                            duration=600_000)
        point = campaign.run_point(0.0, recovery=False)
        assert point.requests > 0
        assert point.availability == 1.0
        assert point.faults_applied == 0

    def test_too_many_clients_rejected(self):
        with pytest.raises(ConfigError):
            Campaign(clients=50)._client_nodes()
