"""D9 — composition: the Section 2 pipeline with a third-party stage.

Measures what composing through Apiary costs versus a hand-wired
monolith: the encode->compress pipeline as (a) two Apiary tiles exchanging
capability-checked messages, (b) one hand-wired accelerator doing both
stages back-to-back (the no-OS composition a bespoke design would use),
and (c) the AmorphOS-style alternative where the two stages time-share one
slot and pay reconfiguration on every switch.
"""

import pytest

from repro.accel import Accelerator, ENCODE_CYCLES_PER_FRAME
from repro.accel.compress import COMPRESS_CYCLES_PER_KB, COMPRESS_RATIO
from repro.accel.video import ENCODE_RATIO
from repro.apps import deploy_pipeline
from repro.baselines import Morphlet, MorphletScheduler
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import ApiarySystem, SystemConfig
from repro.sim import Engine

N_CHUNKS = 10
FRAMES = 2
CHUNK_BYTES = 80_000


def encode_cycles():
    return FRAMES * ENCODE_CYCLES_PER_FRAME


def compress_cycles(nbytes):
    return max(1, nbytes * COMPRESS_CYCLES_PER_KB // 1024)


def run_apiary():
    system = ApiarySystem(config=SystemConfig())
    system.boot()
    stages, started = deploy_pipeline(system, nodes=[4, 5],
                                      third_party_compressor=True)
    for ev in started:
        system.run_until(ev)

    class Feeder(Accelerator):
        def __init__(self):
            super().__init__("feeder")
            self.elapsed = None

        def main(self, shell):
            t0 = shell.engine.now
            for i in range(N_CHUNKS):
                yield shell.call("app.pipe.enc", "encode",
                                 payload={"stream": "s0", "seq": i,
                                          "frames": FRAMES,
                                          "bytes": CHUNK_BYTES},
                                 payload_bytes=64, timeout=500_000_000)
            self.elapsed = shell.engine.now - t0

    feeder = Feeder()
    s = system.start_app(8, feeder)
    system.mgmt.grant_send("tile8", "app.pipe.enc")
    system.run_until(s)
    system.run(until=system.engine.now + 2_000_000_000)
    assert feeder.elapsed is not None
    assert stages[1].chunks_compressed == N_CHUNKS
    return feeder.elapsed / N_CHUNKS


def run_handwired():
    """One monolithic accelerator: both stages, zero composition cost."""
    engine = Engine()
    done = {}

    def monolith():
        t0 = engine.now
        for _ in range(N_CHUNKS):
            yield encode_cycles()
            encoded = int(CHUNK_BYTES * ENCODE_RATIO)
            yield compress_cycles(encoded)
        done["elapsed"] = engine.now - t0

    p = engine.process(monolith())
    engine.run_until_done(p.done, limit=2_000_000_000)
    return done["elapsed"] / N_CHUNKS


def run_amorphos():
    """Time-shared slot: encode and compress alternate with reconfig."""
    engine = Engine()
    sched = MorphletScheduler(engine, slots=1)
    sched.register(Morphlet(
        "encode", lambda body: (encode_cycles(), None, 0),
        logic_cells=120_000,
    ))
    sched.register(Morphlet(
        "compress",
        lambda body: (compress_cycles(int(CHUNK_BYTES * ENCODE_RATIO)),
                      None, 0),
        logic_cells=60_000,
    ))
    done = {}

    def driver():
        t0 = engine.now
        for _ in range(N_CHUNKS):
            yield from sched.invoke("encode", None)
            yield from sched.invoke("compress", None)
        done["elapsed"] = engine.now - t0

    p = engine.process(driver())
    engine.run_until_done(p.done, limit=20_000_000_000)
    return done["elapsed"] / N_CHUNKS


def test_bench_composition(benchmark):
    def run_all():
        return run_apiary(), run_handwired(), run_amorphos()

    apiary, handwired, amorphos = benchmark.pedantic(run_all, rounds=1,
                                                     iterations=1)

    overhead = apiary / handwired - 1.0
    # composing through Apiary costs a few percent over hand-wiring —
    # the price of reusing a third-party stage without bespoke integration
    assert overhead < 0.30, f"composition overhead {overhead:.1%}"
    # time-sharing one slot (AmorphOS-style) pays reconfiguration on every
    # stage switch and loses badly on this pipeline
    assert amorphos > 1.5 * apiary

    rows = [
        ["apiary pipeline (2 tiles, caps)", apiary,
         f"{overhead:+.1%} vs hand-wired"],
        ["hand-wired monolith (no OS)", handwired, "baseline"],
        ["AmorphOS-style time-shared slot", amorphos,
         f"{amorphos / handwired - 1:+.1%} vs hand-wired"],
    ]
    record("D9", "Composition cost per chunk: encode->compress "
                 f"({N_CHUNKS} chunks of {CHUNK_BYTES // 1000}KB)",
           format_table(["composition model", "cycles/chunk", "overhead"],
                        rows))
