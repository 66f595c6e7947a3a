"""S1 — scale-out serving: cluster throughput scaling + availability.

The cluster layer's acceptance run.  Three questions:

1. **Scaling** — does aggregate throughput grow with the FPGA count when
   the boards are the bottleneck?  Closed-loop echo workload at 1/2/4
   FPGAs; the 1→2 speedup must clear 1.5x.
2. **Availability** — kill one board mid-run; does the front-end restore
   service from surviving replicas?  Sharded kvstore, replication=2:
   every post-kill read must come back correct.
3. **Determinism** — the same seeded run twice must produce identical
   stats (the property every other benchmark in this repo leans on).

``S1_REDUCED=1`` shrinks durations for the CI smoke job.
"""

import json
import os

from repro.cluster import availability_smoke, echo_smoke
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record

REDUCED = os.environ.get("S1_REDUCED") == "1"
FPGA_COUNTS = [1, 2] if REDUCED else [1, 2, 4]
DURATION = 150_000 if REDUCED else 300_000
CLIENTS = 8 if REDUCED else 16
REQUESTS = 80 if REDUCED else 200
#: documented acceptance bar for 1 -> 2 FPGAs
TARGET_SPEEDUP = 1.5
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_S1.json")


def run_scaling():
    return {
        n: echo_smoke(n_fpgas=n, duration=DURATION, clients=CLIENTS,
                      requests_per_client=REQUESTS)
        for n in FPGA_COUNTS
    }


def run_availability():
    if REDUCED:
        return availability_smoke(keys=16, kill_after=100_000,
                                  post_kill=250_000, work_cycles=1_500)
    return availability_smoke()


def test_bench_cluster_scaleout():
    scaling = run_scaling()
    base = scaling[1]
    assert base["completed"] > 0
    speedups = {
        n: scaling[n]["throughput_per_kcycle"] / base["throughput_per_kcycle"]
        for n in FPGA_COUNTS
    }
    assert speedups[2] >= TARGET_SPEEDUP, (
        f"1->2 FPGA speedup {speedups[2]:.2f}x below the documented "
        f"{TARGET_SPEEDUP}x target")
    # no request was lost or shed in the scaling runs
    for n in FPGA_COUNTS:
        assert scaling[n]["failed"] == 0
        assert scaling[n]["rejected"] == 0

    availability = run_availability()
    assert availability["writes_ok"] == availability["keys"]
    assert availability["post_kill_reads"] > 0, "service never came back"
    assert availability["post_kill_hit_rate"] == 1.0, (
        "reads lost after killing one FPGA despite replicas: "
        f"hit rate {availability['post_kill_hit_rate']}")

    # byte-identical rerun under the same seed
    rerun = echo_smoke(n_fpgas=2, duration=DURATION, clients=CLIENTS,
                       requests_per_client=REQUESTS)
    assert rerun == scaling[2], "cluster run is not deterministic"

    rows = []
    for n in FPGA_COUNTS:
        s = scaling[n]
        rows.append([
            f"{n} FPGA(s)", s["instances"], s["completed"],
            f"{s['throughput_per_kcycle']:.3f}",
            f"{s['p50_cycles']:,.0f}", f"{s['p99_cycles']:,.0f}",
            f"{speedups[n]:.2f}x",
        ])
    text = format_table(
        ["cluster", "instances", "completed", "req/kcycle",
         "p50 cycles", "p99 cycles", "speedup"],
        rows,
        title=("Scale-out serving: closed-loop echo throughput vs FPGA "
               f"count ({'reduced' if REDUCED else 'full'} config):"))
    text += (
        "\n\nAvailability (kill one of "
        f"{availability['n_fpgas']} FPGAs mid-run, "
        f"{availability['n_shards']} shards x "
        f"{availability['replication']} replicas):\n"
        f"  pre-kill reads : {availability['pre_kill_reads']} "
        f"(hit rate {availability['pre_kill_hit_rate']:.2f})\n"
        f"  post-kill reads: {availability['post_kill_reads']} "
        f"(hit rate {availability['post_kill_hit_rate']:.2f})\n"
        f"  front-end failovers: {availability['failovers']}\n")
    record("S1", "Scale-out cluster serving", text)

    availability_json = dict(availability)
    availability_json.pop("health", None)
    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump({
            "reduced": REDUCED,
            "target_speedup": TARGET_SPEEDUP,
            "scaling": {str(n): scaling[n] for n in FPGA_COUNTS},
            "speedups": {str(n): round(speedups[n], 4)
                         for n in FPGA_COUNTS},
            "availability": availability_json,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
