#!/usr/bin/env python3
"""Fault handling live: fail-stop vs. preemptible execution (Section 4.4).

Scenario 1 — fail-stop: a crashing accelerator is drained by its monitor;
peers get prompt NACKs instead of hangs; an operator restart recovers the
endpoint.

Scenario 2 — preemption: a multi-context (preemptible) video encoder takes
a fault in one stream's context; the tile keeps running, the other stream
never notices, and the faulted stream resumes from externalized state.

Scenario 3 — chaos + recovery: a seeded fault-injection plan repeatedly
crashes a checksum service while retrying clients keep calling; the
recovery watchdog restarts the service (or fails it over to a spare tile)
fast enough that every request completes — end to end through
``chaos.Injector`` and ``kernel.recovery.RecoveryManager``.

Run:  python examples/fault_injection_demo.py
"""

from dataclasses import replace

from repro.accel import Accelerator, CrashingAccel, EchoAccel, PreemptibleVideoEncoder
from repro.chaos import ChecksumService, FaultKind, FaultPlan, Injector, checksum
from repro.errors import DeadlineExceeded
from repro.kernel import ApiarySystem, FaultConfig, FaultPolicy, SystemConfig
from repro.policy import RetryPolicy


class Caller(Accelerator):
    def __init__(self, name, target, op="ping", payload=None, count=12,
                 gap=6000):
        super().__init__(name)
        self.target = target
        self.op = op
        self.payload_factory = payload or (lambda i: i)
        self.count = count
        self.gap = gap
        self.log = []

    def main(self, shell):
        for i in range(self.count):
            yield self.gap
            t0 = shell.engine.now
            try:
                yield shell.call(self.target, self.op,
                                 payload=self.payload_factory(i),
                                 timeout=500_000)
                self.log.append((i, "ok", shell.engine.now - t0))
            except Exception as err:
                self.log.append((i, type(err).__name__,
                                 shell.engine.now - t0))


def scenario_fail_stop():
    print("=== Scenario 1: fail-stop + operator restart ===")
    system = ApiarySystem(config=replace(
        SystemConfig.figure1(),
        fault=FaultConfig(policy=FaultPolicy.FAIL_STOP)))
    system.boot()
    victim = CrashingAccel("flaky-svc", crash_after=4)
    system.run_until(system.start_app(2, victim, endpoint="app.svc"))
    caller = Caller("caller", "app.svc", count=8)
    s = system.start_app(3, caller)
    system.mgmt.grant_send("tile3", "app.svc")
    system.run_until(s)
    system.run(until=system.engine.now + 4_000_000)

    for i, outcome, latency in caller.log:
        print(f"  request {i}: {outcome:<18} ({latency:,} cyc)")
    record = system.fault_manager.records[0]
    print(f"  fault contained at cycle {record.time:,}: "
          f"{record.error} -> {record.action}")
    print(f"  monitor sent {system.tiles[2].monitor.nacks_sent} NACK(s)")

    print("  operator reloads the endpoint ...")
    restart = system.engine.process(
        system.mgmt.restart(2, EchoAccel("svc-v2"), endpoint="app.svc")
    )
    system.run_until(restart.done)
    caller2 = Caller("caller2", "app.svc", count=3)
    s = system.start_app(4, caller2)
    system.mgmt.grant_send("tile4", "app.svc")
    system.run_until(s)
    system.run(until=system.engine.now + 2_000_000)
    print(f"  after restart: {[o for _i, o, _l in caller2.log]}")
    print()


def scenario_preempt():
    print("=== Scenario 2: preemptible contexts ===")
    system = ApiarySystem(config=replace(
        SystemConfig.figure1(),
        fault=FaultConfig(policy=FaultPolicy.PREEMPT)))
    system.boot()
    encoder = PreemptibleVideoEncoder("enc")
    system.run_until(system.start_app(2, encoder, endpoint="app.enc"))

    def stream_payload(stream):
        def payload(i):
            return {"stream": stream, "seq": i, "frames": 1, "bytes": 8_000}
        return payload

    callers = []
    for node, stream in ((3, "red"), (4, "blue")):
        caller = Caller(f"caller-{stream}", "app.enc", op="encode",
                        payload=stream_payload(stream), count=10, gap=9000,
                        )
        system.start_app(node, caller)
        system.mgmt.grant_send(f"tile{node}", "app.enc")
        callers.append(caller)
    # let everything load and serve a few chunks, then fault one context
    while encoder.chunks_encoded < 5:
        system.run(until=system.engine.now + 50_000)
    print(f"  {encoder.chunks_encoded} chunks served; injecting a fault "
          "into the next context invocation ...")
    encoder.inject_fault_after = 0
    system.run(until=system.engine.now + 20_000_000)

    for caller in callers:
        outcomes = [o for _i, o, _l in caller.log]
        ok = outcomes.count("ok")
        print(f"  {caller.name}: {ok}/10 ok  {outcomes}")
    record = system.fault_manager.records[0]
    print(f"  fault action: {record.action} (context {record.context!r}); "
          f"tile failed: {system.tiles[2].failed}")
    print(f"  encoder still holds state for streams: "
          f"{sorted(encoder.streams)}")


class RetryingCaller(Accelerator):
    """Calls through the retrying shell API, verifying every checksum."""

    def __init__(self, name, target, count=12, gap=30_000):
        super().__init__(name)
        self.target = target
        self.count = count
        self.gap = gap
        self.ok = 0
        self.failed = 0
        self.bad = 0

    def main(self, shell):
        for i in range(self.count):
            body = f"{self.name}/req{i}"
            try:
                msg = yield shell.call(self.target, "sum", payload=body,
                                       retry=RetryPolicy(
                                           deadline=300_000,
                                           attempt_timeout=25_000))
            except DeadlineExceeded:
                self.failed += 1
            else:
                if msg.payload == checksum(body):
                    self.ok += 1
                else:
                    self.bad += 1
            yield self.gap


def scenario_chaos_recovery():
    print("=== Scenario 3: chaos campaign vs. the recovery subsystem ===")
    system = ApiarySystem(config=SystemConfig())
    recovery = system.enable_recovery(spares=[15], prefer_spare=True,
                                      heartbeat_interval=5_000)
    started = recovery.deploy(1, ChecksumService, "svc.checksum")
    system.boot()
    system.run_until(started)

    callers = []
    for node in (2, 3):
        caller = RetryingCaller(f"caller{node}", "svc.checksum")
        s = system.start_app(node, caller)
        system.mgmt.grant_send(f"tile{node}", "svc.checksum")
        system.run_until(s)
        callers.append(caller)

    plan = FaultPlan.generate(
        seed=2026, duration=600_000,
        rates={FaultKind.TILE_CRASH: 6.0,
               FaultKind.NOC_ROUTER_STALL: 3.0},
        targets={FaultKind.TILE_CRASH: ["svc.checksum"],
                 FaultKind.NOC_ROUTER_STALL: list(range(16))},
        min_events={FaultKind.TILE_CRASH: 2},
    )
    print("  plan:")
    for line in plan.describe().split("\n")[1:]:
        print(f"    {line}")
    injector = Injector(system, plan)
    injector.arm()
    system.run(until=system.engine.now + 1_500_000)
    recovery.stop()

    print(f"  faults applied: {injector.applied}, "
          f"skipped: {injector.skipped}")
    for t, ev, outcome in injector.log:
        print(f"    cycle {t:,}: {ev.kind.value} -> {outcome}")
    for r in recovery.recoveries:
        print(f"  recovery: {r.kind} of {r.endpoint} "
              f"tile{r.from_node} -> tile{r.to_node} (MTTR {r.mttr:,} cyc)")
    for caller in callers:
        print(f"  {caller.name}: {caller.ok} ok, {caller.failed} failed, "
              f"{caller.bad} bad checksums")
    node = system.name_table["svc.checksum"]
    print(f"  svc.checksum now lives on tile{node}; "
          f"spares left: {recovery.spares}")


if __name__ == "__main__":
    scenario_fail_stop()
    scenario_preempt()
    scenario_chaos_recovery()
