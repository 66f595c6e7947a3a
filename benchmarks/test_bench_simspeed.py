"""P1 — simulator throughput: the hot-path overhaul vs its pinned baseline.

The reproduction's experiments are bounded by how many simulated cycles per
wall-clock second the discrete-event engine and the NoC routers sustain.
This benchmark measures that directly, on two workloads:

* an 8x8 NoC flood — every node streams packets at injection-queue rate,
  which saturates the router switch-allocation path;
* a monitor-interposed RPC workload — accelerators calling a service
  through their Apiary monitors on a booted :class:`ApiarySystem`, which
  exercises the engine's timer fast path, channels, and the kernel stack.

Both workloads run twice in the same process: once on the optimized stack
(:class:`~repro.sim.engine.Engine` + :class:`~repro.noc.router.Router`) and
once on the pinned pre-overhaul baseline
(:class:`~repro.sim.legacy.LegacyEngine` +
:class:`~repro.noc.legacy.LegacyRouter`), so the reported speedup is
measured against the real old code rather than remembered numbers.  The
two stacks must also agree flit-for-flit — the overhaul's contract is
"faster, not different".

Documented target: >= 2x simulated cycles/sec on the flood.  The committed
floor (``bench_results/P1_floor.json``) is deliberately conservative so the
CI perf-smoke job (reduced configuration, ``SIMSPEED_REDUCED=1``) fails on
real regressions, not on runner noise.
"""

import json
import os
import time

import pytest

from repro.accel import Accelerator, SinkAccel
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.kernel import ApiarySystem, NocConfig, SystemConfig
from repro.noc import LegacyRouter, Mesh2D, Network, Router
from repro.sim import Engine, LegacyEngine

REDUCED = os.environ.get("SIMSPEED_REDUCED") == "1"
FLOOD_CYCLES = 3_000 if REDUCED else 20_000
RPC_CYCLES = 30_000 if REDUCED else 150_000
#: documented target for the full configuration (ISSUE acceptance bar)
TARGET_SPEEDUP = 2.0
FLOOR_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "P1_floor.json")
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_P1.json")

STACKS = [
    ("baseline", LegacyEngine, LegacyRouter),
    ("optimized", Engine, Router),
]


def run_flood(engine_cls, router_cls, cycles, trace=False):
    """All 64 nodes of an 8x8 mesh stream 96-byte packets continuously."""
    eng = engine_cls()
    topo = Mesh2D(8, 8)
    net = Network(eng, topo, router_cls=router_cls)
    if trace:
        net.spans.enable()
    n = topo.node_count

    def sender(node):
        ni = net.interface(node)
        i = 0
        while True:
            dst = (node * 17 + i * 31 + 5) % n
            if dst == node:
                dst = (dst + 1) % n
            yield ni.send(dst, payload_bytes=96)
            i += 1

    def drain(node):
        ni = net.interface(node)
        while True:
            yield ni.recv()

    for node in range(n):
        eng.process(sender(node), name=f"send{node}")
        eng.process(drain(node), name=f"drain{node}")
    t0 = time.perf_counter()
    eng.run(until=cycles)
    wall = time.perf_counter() - t0
    counters = net.stats.snapshot()["counters"]
    flits = sum(r.flits_forwarded for r in net._routers)
    return {
        "wall_s": wall,
        "cycles": cycles,
        "cycles_per_sec": cycles / wall,
        "flits": flits,
        "flits_per_sec": flits / wall,
        "injected": int(counters["noc.packets_injected"]),
        "delivered": int(counters["noc.packets_delivered"]),
    }


class RpcCaller(Accelerator):
    """Calls the victim service in a tight loop through its monitor."""

    from repro.hw.resources import ResourceVector

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, name, victim, gap=200):
        super().__init__(name)
        self.victim = victim
        self.gap = gap
        self.completed = 0

    def main(self, shell):
        while True:
            yield shell.call(self.victim, "req", payload=self.completed,
                             payload_bytes=64, timeout=1_000_000)
            self.completed += 1
            yield self.gap


def run_rpc(engine_cls, router_cls, window, trace=False):
    """Four accelerators RPC a shared service on a booted 4x4 system."""
    eng = engine_cls()
    system = ApiarySystem(
        config=SystemConfig(noc=NocConfig(router_cls=router_cls)),
        engine=eng)
    if trace:
        system.enable_tracing()
    system.boot()
    victim = SinkAccel("victim", service_cycles=20)
    started = [system.start_app(5, victim, endpoint="app.victim")]
    callers = []
    for node in (2, 7, 10, 12):
        caller = RpcCaller(f"caller{node}", "app.victim")
        started.append(system.start_app(node, caller))
        system.mgmt.grant_send(f"tile{node}", "app.victim")
        callers.append(caller)
    system.run_until(eng.all_of(started))
    start_cycle = eng.now
    t0 = time.perf_counter()
    system.run(until=start_cycle + window)
    wall = time.perf_counter() - t0
    flits = sum(r.flits_forwarded for r in system.network._routers)
    calls = sum(c.completed for c in callers)
    return {
        "wall_s": wall,
        "cycles": window,
        "cycles_per_sec": window / wall,
        "flits": flits,
        "flits_per_sec": flits / wall,
        "calls_completed": calls,
        "served": victim.consumed,
    }


def run_all():
    results = {"flood": {}, "rpc": {}}
    for label, engine_cls, router_cls in STACKS:
        results["flood"][label] = run_flood(engine_cls, router_cls,
                                            FLOOD_CYCLES)
        results["rpc"][label] = run_rpc(engine_cls, router_cls, RPC_CYCLES)
    for workload in results.values():
        workload["speedup"] = (workload["optimized"]["cycles_per_sec"]
                               / workload["baseline"]["cycles_per_sec"])
    # observability cross-check: the same optimized stack with causal span
    # recording turned ON.  Spans must be an observer — every simulated
    # quantity has to match the untraced run exactly — and with tracing OFF
    # (the runs above) the guard branches must stay within the recorded
    # regression allowance vs the pre-obs floor.
    results["flood"]["traced"] = run_flood(Engine, Router, FLOOD_CYCLES,
                                           trace=True)
    results["rpc"]["traced"] = run_rpc(Engine, Router, RPC_CYCLES,
                                       trace=True)
    return results


def test_bench_simspeed(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    flood = results["flood"]
    rpc = results["rpc"]

    # the overhaul's contract: faster, not different.  Both stacks must
    # agree on every simulated quantity.
    for key in ("injected", "delivered", "flits"):
        assert flood["baseline"][key] == flood["optimized"][key], key
    for key in ("flits", "calls_completed", "served"):
        assert rpc["baseline"][key] == rpc["optimized"][key], key
    assert flood["optimized"]["delivered"] > 0
    assert rpc["optimized"]["calls_completed"] > 0

    # span tracing is an observer, never an actor: turning it on must not
    # change a single simulated quantity.
    for key in ("injected", "delivered", "flits"):
        assert flood["traced"][key] == flood["optimized"][key], f"traced {key}"
    for key in ("flits", "calls_completed", "served"):
        assert rpc["traced"][key] == rpc["optimized"][key], f"traced {key}"

    # perf floors: the committed floor is the CI tripwire; the full
    # configuration must additionally clear the documented 2x target.
    # The obs-disabled runs (span guards present but short-circuited) get a
    # small recorded allowance over the pre-obs floor.
    with open(FLOOR_PATH) as fh:
        floor = json.load(fh)
    obs_allowance = 1.0 - floor.get("obs_off_max_regression", 0.0)
    assert flood["speedup"] >= floor["flood_min_speedup"] * obs_allowance, (
        f"flood speedup {flood['speedup']:.2f}x below recorded floor "
        f"{floor['flood_min_speedup']}x (obs-off allowance "
        f"{obs_allowance:.2f})")
    assert rpc["speedup"] >= floor["rpc_min_speedup"] * obs_allowance, (
        f"RPC speedup {rpc['speedup']:.2f}x below recorded floor "
        f"{floor['rpc_min_speedup']}x (obs-off allowance "
        f"{obs_allowance:.2f})")
    if not REDUCED:
        assert flood["speedup"] >= TARGET_SPEEDUP, (
            f"flood speedup {flood['speedup']:.2f}x below the documented "
            f"{TARGET_SPEEDUP}x target")

    rows = []
    for workload, data in (("8x8 flood", flood), ("monitor RPC", rpc)):
        for label in ("baseline", "optimized", "traced"):
            r = data[label]
            rows.append([
                workload, label, f"{r['wall_s']:.2f}",
                f"{r['cycles_per_sec']:,.0f}", f"{r['flits_per_sec']:,.0f}",
            ])
        rows.append([workload, "speedup", "",
                     f"{data['speedup']:.2f}x", ""])
    text = format_table(
        ["workload", "stack", "wall s", "sim cycles/s", "flits/s"], rows,
        title=("Simulator throughput, optimized vs pinned pre-overhaul "
               f"baseline ({'reduced' if REDUCED else 'full'} config):"))
    record("P1", "Simulator hot-path throughput", text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump({"reduced": REDUCED, "target_speedup": TARGET_SPEEDUP,
                   "results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
