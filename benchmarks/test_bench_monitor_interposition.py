"""A2 — ablation: the per-message cost of monitor interposition.

Measured end-to-end: tile-to-tile echo RPCs with (a) monitors enforcing
capabilities, (b) enforcement off (bare NoC), (c) enforcement plus a
generous rate limit (the full Section 4.5 datapath).  The added latency
per message is the price of the paper's isolation story.
"""

import pytest

from repro.accel import Accelerator, EchoAccel
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    MemConfig,
    NocConfig,
    SystemConfig,
)

N_PINGS = 60


class PingClient(Accelerator):
    def __init__(self):
        super().__init__("ping")
        self.latencies = []

    def main(self, shell):
        for i in range(N_PINGS):
            t0 = shell.engine.now
            yield shell.call("app.echo", "ping", payload=i, payload_bytes=64,
                             timeout=5_000_000)
            self.latencies.append(shell.engine.now - t0)
            yield 200


def run_config(enforce, rate_limit):
    system = ApiarySystem(config=SystemConfig(
        noc=NocConfig(width=3, height=2, rate_limit_flits=rate_limit),
        mem=MemConfig(enabled=False),
        fault=FaultConfig(enforce=enforce)))
    system.boot()
    echo = EchoAccel("echo", cost=0)
    system.run_until(system.start_app(2, echo, endpoint="app.echo"))
    client = PingClient()
    started = system.start_app(5, client)
    if enforce:
        system.mgmt.grant_send("tile5", "app.echo")
    system.run_until(started)
    system.run(until=system.engine.now + 50_000_000)
    assert len(client.latencies) == N_PINGS
    import numpy as np

    return float(np.median(client.latencies))


def run_all():
    return {
        "no enforcement (bare NoC)": run_config(False, None),
        "capability checks": run_config(True, None),
        "checks + rate limiter": run_config(True, 2.0),
    }


def test_bench_monitor_interposition(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    off = results["no enforcement (bare NoC)"]
    checks = results["capability checks"]
    full = results["checks + rate limiter"]
    added = checks - off
    # the checks cost a handful of cycles per message (egress+ingress on
    # both request and response paths): 6 cycles on this minimal same-row
    # RPC, and proportionally less on any RPC that does real work
    assert 2 <= added <= 30, f"added {added} cycles"
    assert checks / off < 1.5
    # an unsaturated rate limiter adds (near) nothing on top
    assert full <= checks * 1.1

    rows = [[name, lat, f"{lat - off:+.0f}"] for name, lat in results.items()]
    record("A2", f"Monitor interposition: one-tile-hop echo RPC median "
                 f"({N_PINGS} pings, 64B payload)",
           format_table(["configuration", "median RPC (cyc)",
                         "vs bare NoC"], rows))
