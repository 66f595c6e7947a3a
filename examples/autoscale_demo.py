#!/usr/bin/env python3
"""Autoscaling live: a KV service rides out a 4x load step (repro.sched).

Scenario 1 — autoscaling: a stateless KV service starts at one replica.
Open-loop clients quadruple their request rate mid-run; the autoscaler
watches front-end queue depth, sizes the whole deficit in one decision
(each replica costs ~810k cycles of partial reconfiguration), and scales
back down when the step ends.

Scenario 2 — the tile scheduler: jobs from two tenants with quotas and
priorities share one FPGA's slots; a high-priority submission preempts
the youngest low-priority tenant (checkpointing it when the accelerator
is preemptible) and the victim resumes once capacity frees up.

Scenario 3 — the bitstream cache: the same load step, warm vs cold.
Cold, the scale-up board has never seen the design and pays a full
synthesis run before the reconfiguration write; warm, prefetch put the
artifact on every board ahead of time and scale-up pays the write only.

Run:  python examples/autoscale_demo.py
"""

from dataclasses import replace

from repro.accel import Accelerator, EchoAccel
from repro.hw.resources import ResourceVector
from repro.kernel import ApiarySystem, FaultConfig, FaultPolicy, SystemConfig
from repro.sched import JobSpec, JobState, TenantQuota
from repro.sched.smoke import autoscale_smoke, cache_step_smoke


def scenario_autoscale():
    print("=== Scenario 1: KV service under a 4x load step ===")
    out = autoscale_smoke(phase_a=300_000, phase_b=1_400_000,
                          phase_c=500_000, settle_margin=200_000,
                          drain=400_000)
    print(f"  {out['completed']} requests completed, "
          f"{out['failed']} failed "
          f"(reconfiguration: {out['reconfig_cycles_per_replica']:,} "
          "cycles per replica)")
    print("  autoscaler decisions:")
    for t, action, iid, replicas, info in out["event_log"]:
        note = f"  [{info}]" if info else ""
        print(f"    cycle {t:>9,}: {action:<14} {iid:<6} "
              f"replicas={replicas}{note}")
    print("  replica count over time (ready/total):")
    shown = set()
    for t, ready, total, queue, _util in out["replica_series"]:
        if (ready, total) not in shown:
            shown.add((ready, total))
            print(f"    cycle {t:>9,}: {ready}/{total} "
                  f"(queue/replica {queue:.1f})")
    print(f"  pre-step  p50/p99: {out['pre_p50']:,.0f} / "
          f"{out['pre_p99']:,.0f} cycles")
    print(f"  converged p50/p99: {out['post_p50']:,.0f} / "
          f"{out['post_p99']:,.0f} cycles "
          f"({out['post_samples']} samples at {out['peak_replicas']} "
          "replicas)")
    print(f"  final replicas after the step: {out['final_replicas']}")
    print()


class Trainer(Accelerator):
    """Preemptible batch job with a checkpointable step counter."""

    COST = ResourceVector(logic_cells=6_000, bram_kb=16, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 5_000}
    preemptible = True

    def __init__(self, name="trainer"):
        super().__init__(name)
        self.steps = 0

    def main(self, shell):
        while True:
            yield 2_000
            self.steps += 1

    def externalize_state(self):
        return {"steps": self.steps}

    def restore_state(self, state):
        self.steps = state.get("steps", 0)


def scenario_scheduler():
    print("=== Scenario 2: tenant quotas + priority preemption ===")
    system = ApiarySystem(config=replace(
        SystemConfig.figure1(),
        fault=FaultConfig(policy=FaultPolicy.PREEMPT)))
    system.boot()
    sched = system.enable_scheduler(
        quotas={"batch": TenantQuota(max_running=4, max_priority=0)})

    web = sched.submit(JobSpec(name="web-fe", tenant="web",
                               factory=lambda: EchoAccel("web-fe")))
    batch = [sched.submit(JobSpec(name=f"batch{i}", tenant="batch",
                                  factory=lambda: Trainer()))
             for i in range(5)]
    system.run(until=system.engine.now + 400_000)
    print("  after placement (batch quota: 4 running tiles max):")
    for job in [web] + batch:
        where = f"on tile {job.node}" if job.node is not None else "(quota)"
        print(f"    {job.spec.name}: {job.state.value} {where}")

    urgent = sched.submit(JobSpec(name="urgent", tenant="web", priority=5,
                                  factory=lambda: EchoAccel("urgent")))
    system.run(until=system.engine.now + 400_000)
    victim = next(j for j in batch if j.preemptions)
    print("  'urgent' (priority 5) arrives with every slot taken:")
    print(f"    urgent:  {urgent.state.value} on tile {urgent.node}")
    print(f"    victim:  {victim.spec.name} preempted "
          f"(checkpointed {victim.saved_state.get('steps', 0)} steps)")

    system.run_until(sched.finish(urgent))
    system.run(until=system.engine.now + 400_000)
    restored = system.tiles[victim.node].accelerator
    print(f"  'urgent' finishes; {victim.spec.name} is re-placed on tile "
          f"{victim.node}, restored from its checkpoint, and has already "
          f"advanced to step {restored.steps}")
    print("  scheduler event log:")
    for t, kind, job, tenant, node, info in sched.event_log():
        where = f" tile={node}" if node is not None else ""
        note = f"  [{info}]" if info else ""
        print(f"    cycle {t:>9,}: {kind:<13} {job:<8} "
              f"({tenant}){where}{note}")


def scenario_cache():
    print()
    print("=== Scenario 3: warm vs cold bitstream cache ===")
    cold = cache_step_smoke(warm=False, phase_a=300_000)
    warm = cache_step_smoke(warm=True, phase_a=300_000)
    print(f"  cold scale-up ready: {cold['ready_latency']:>9,} cycles "
          "(synthesis + reconfiguration write)")
    print(f"  warm scale-up ready: {warm['ready_latency']:>9,} cycles "
          "(reconfiguration write only)")
    ratio = cold["ready_latency"] / warm["ready_latency"]
    print(f"  -> the prefetched artifact makes scale-up "
          f"{ratio:.1f}x faster")
    board = warm["cache"]["fpga1"]
    print(f"  scale-up board cache: hit rate {board['hit_rate']:.2f}, "
          f"prefetch accuracy {board['prefetch_accuracy']:.2f}")


if __name__ == "__main__":
    scenario_autoscale()
    scenario_scheduler()
    scenario_cache()
