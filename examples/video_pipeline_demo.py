#!/usr/bin/env python3
"""The Section 2 scenario: a video pipeline with a third-party compressor.

Deploys encode -> compress -> encrypt across three tiles, with the
compressor modelled as a *third-party* accelerator that gets its dictionary
memory from the OS (no bespoke memory partitioning), feeds a stream of
video chunks through, and then scales the encoder out to 4 replicas behind
a load balancer to show the throughput difference.

Run:  python examples/video_pipeline_demo.py
"""

from repro.accel import Accelerator
from repro.apps import deploy_pipeline, deploy_replicated_encoder
from repro.kernel import ApiarySystem, SystemConfig
from repro.sim import RngPool
from repro.workloads import video_chunks


class ChunkFeeder(Accelerator):
    """Feeds chunks into an endpoint, one at a time, timing the run."""

    def __init__(self, target, chunks):
        super().__init__("feeder")
        self.target = target
        self.chunks = chunks
        self.elapsed = None

    def main(self, shell):
        t0 = shell.engine.now
        for chunk in self.chunks:
            yield shell.call(self.target, "encode", payload=chunk,
                             payload_bytes=64, timeout=2_000_000_000)
        self.elapsed = shell.engine.now - t0


def run_pipeline():
    print("=== Part 1: encode -> compress -> encrypt pipeline ===")
    system = ApiarySystem(config=SystemConfig())
    system.boot()
    stages, started = deploy_pipeline(system, nodes=[4, 5, 6],
                                      with_crypto=True,
                                      third_party_compressor=True)
    for ev in started:
        system.run_until(ev)
    encoder, compressor, crypto = stages
    print(f"pipeline live at cycle {system.engine.now:,} "
          "(3 tiles + mem/net services)")

    chunks = [dict(c, stream="camera0")
              for c in video_chunks(RngPool(seed=42).stream("video"), 6)]
    feeder = ChunkFeeder("app.pipe.enc", chunks)
    s = system.start_app(8, feeder)
    system.mgmt.grant_send("tile8", "app.pipe.enc")
    system.run_until(s)
    system.run(until=system.engine.now + 2_000_000_000)

    total_in = sum(c["bytes"] for c in chunks)
    print(f"fed {len(chunks)} chunks ({total_in/1e6:.1f} MB) in "
          f"{feeder.elapsed:,} cycles "
          f"({feeder.elapsed * 4 / 1e6:.2f} ms at 250 MHz)")
    print(f"  encoder:    {encoder.chunks_encoded} chunks, "
          f"state for {len(encoder.streams)} stream(s)")
    print(f"  compressor: {compressor.bytes_in:,} B -> "
          f"{compressor.bytes_out:,} B "
          f"(dictionary in OS segment "
          f"sid={compressor.dictionary_seg.sid})")
    print(f"  crypto:     {crypto.blocks_processed:,} blocks")
    print(f"  isolation:  compressor's tile owns "
          f"{len(system.segments.live_segments('tile5'))} segment(s); "
          f"encoder's tile owns "
          f"{len(system.segments.live_segments('tile4'))}")
    print()


def run_scaleout():
    print("=== Part 2: replicated encoder behind a load balancer ===")
    for replicas, nodes in ((1, [4]), (4, [4, 6, 8, 9])):
        system = ApiarySystem(config=SystemConfig())
        system.boot()
        balancer, _encs, started = deploy_replicated_encoder(
            system, lb_node=5, replica_nodes=nodes
        )
        for ev in started:
            system.run_until(ev)
        chunks = [{"stream": f"s{i}", "frames": 4, "bytes": 100_000}
                  for i in range(16)]

        class Burst(Accelerator):
            def __init__(self):
                super().__init__("burst")
                self.elapsed = None

            def main(self, shell):
                t0 = shell.engine.now
                events = [shell.call("app.enc.lb", "encode", payload=c,
                                     payload_bytes=64,
                                     timeout=4_000_000_000)
                          for c in chunks]
                yield shell.engine.all_of(events)
                self.elapsed = shell.engine.now - t0

        burst = Burst()
        s = system.start_app(15, burst)
        system.mgmt.grant_send("tile15", "app.enc.lb")
        system.run_until(s)
        system.run(until=system.engine.now + 8_000_000_000)
        print(f"  {replicas} replica(s): 16-chunk burst in "
              f"{burst.elapsed:,} cycles "
              f"(spread across {dict(balancer.replica_counts)})")
    print()


if __name__ == "__main__":
    run_pipeline()
    run_scaleout()
