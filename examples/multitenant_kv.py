#!/usr/bin/env python3
"""Multi-tenant isolation: a KV store, a video tenant, and an attacker.

The Section 2 threat model, live: a KV-store tenant and a video tenant
share one direct-attached FPGA; a third tenant is actively malicious — it
tries to message the KV store without authorization, replays a leaked
capability reference, and probes outside its own segment.  Every attack
bounces off the monitors while both honest tenants keep serving.

Run:  python examples/multitenant_kv.py
"""

from repro.accel import Accelerator, KvStore, SnoopingAccel, VideoEncoder
from repro.kernel import ApiarySystem, SystemConfig
from repro.net import EthernetFabric
from repro.sim import Engine
from repro.workloads import RemoteClientHost


class VideoTenant(Accelerator):
    def __init__(self):
        super().__init__("video-tenant")
        self.ok = 0

    def main(self, shell):
        for i in range(8):
            yield shell.call("app.video", "encode",
                             payload={"stream": "s", "seq": i, "frames": 1,
                                      "bytes": 20_000},
                             payload_bytes=64, timeout=10_000_000)
            self.ok += 1
            yield 5_000


def main():
    engine = Engine()
    fabric = EthernetFabric(engine, latency_cycles=400)
    system = ApiarySystem(config=SystemConfig().with_mac("board0"),
                          engine=engine, fabric=fabric)
    system.boot()
    system.tracer.enable(prefixes=["monitor."])

    # tenant A: KV store serving the datacenter via svc.net
    kv = KvStore("kv")
    system.run_until(system.start_app(4, kv, endpoint="app.kv"))

    # tenant B: a video encoder + its driver
    encoder = VideoEncoder("video")
    system.run_until(system.start_app(6, encoder, endpoint="app.video"))
    driver = VideoTenant()
    s = system.start_app(7, driver)
    system.mgmt.grant_send("tile7", "app.video")
    system.run_until(s)

    # tenant C: hostile — leak tenant B's memory capability to it
    leak = {}

    class Leaky(Accelerator):
        def main(self, shell):
            seg = yield shell.alloc(4096)
            leak["cap"] = seg.cap

    system.run_until(system.start_app(8, Leaky("leaky")))
    system.run(until=engine.now + 3_000_000)

    attacker = SnoopingAccel("attacker", target_endpoint="app.kv",
                             stolen_cap=leak["cap"])
    system.run_until(system.start_app(9, attacker))
    system.run(until=engine.now + 10_000_000)

    print("Attack outcomes (attacker's own log):")
    for attack, outcome in attacker.outcomes:
        verdict = "BLOCKED" if outcome != "ok" and "SUCCEEDED" not in outcome \
            else ("allowed (own resources)" if outcome == "ok" else "!!!")
        print(f"  {attack:<20} -> {outcome:<18} {verdict}")

    print(f"\nHonest tenants during the attack:")
    print(f"  video tenant completed {driver.ok}/8 encodes")
    print(f"  kv store served {kv.gets + kv.puts} requests "
          f"(none from the attacker: {kv.gets == 0 and kv.puts == 0})")

    denials = system.tracer.count("monitor.deny")
    print(f"\nMonitors denied {denials} message(s); "
          f"trace excerpt:")
    for line in system.tracer.format(category="monitor.deny",
                                     limit=5).split("\n"):
        print(f"  {line}")
    print()
    print(system.describe())


if __name__ == "__main__":
    main()
