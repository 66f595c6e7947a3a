"""One run of one benchmark workload; prints what it measured as JSON.

    python3 scenbench/measure.py --workload crowd --seed 0 [--traced]

``run.py`` starts one of these per repeat, so every run gets a fresh
interpreter and its own peak RSS.  The last line of standard output is
one JSON object: host timings, the report's sha256 and simulated
outcomes, the output checks, and — with ``--traced`` — the run's
``cProfile`` folded into layers, with the profiler switched on only
once set-up has ended.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.cluster import Cluster  # noqa: E402

#: how many of the traced run's costliest functions the record keeps
TOP_FUNCTIONS = 25


def _counter_sum(stats, prefix: str, suffix: str) -> int:
    return int(sum(c.value for name, c in stats.counters.items()
                   if name.startswith(prefix) and name.endswith(suffix)))


def _packets(stats) -> int:
    packets = stats.counters.get("noc.packets_injected")
    return int(packets.value) if packets else 0


def _worst_tenant(tenants, full_length: bool):
    """The tenant with the highest p99 among those whose p99 is measured
    (enough served requests); a shortened run takes every tenant."""
    served = {name: row for name, row in tenants.items() if row["served"]}
    valid = {name: row for name, row in served.items()
             if row["served"] >= workloads.MIN_P99_SAMPLES}
    pool = valid if (valid or full_length) else served
    if not pool:
        return None, None
    name = max(sorted(pool), key=lambda n: pool[n]["latency_p99"])
    return name, pool[name]


def _checks(work, report, denials, p99_row, full_length: bool):
    data = report.data
    tenants = data["tenants"]
    checks = {
        # every offered request is accounted for exactly once
        "accounting": all(
            row["offered"] == row["served"] + row["rejected"]
            + row["dropped"] + row["failed"] + row["unresolved"]
            and row["unresolved"] >= 0 for row in tenants.values()),
        "expectation": report.matches_expectation(),
        "resolved": (not work.must_resolve
                     or data["totals"]["unresolved"] == 0),
        "no_denials": denials == 0,
    }
    if full_length:
        checks["p99_samples"] = p99_row is not None
    return checks


def _profile_summary(profile: cProfile.Profile):
    stats = pstats.Stats(profile).stats
    split = layers.self_seconds(stats)
    calls = {
        "schedule": layers.calls(stats, "repro/sim/engine.py", "schedule"),
        "run_window": layers.calls(stats, "repro/sim/engine.py",
                                   "run_window"),
        "monitor_submit": layers.calls(stats, "repro/kernel/monitor.py",
                                       "submit"),
        "mac_transmit": (
            layers.calls(stats, "repro/net/ethernet.py", "send_frame")
            + layers.calls(stats, "repro/net/ethernet.py", "tx_push")),
        "envelope_inject": layers.calls(stats, "repro/net/envelope.py",
                                        "inject"),
        "slo_observe": layers.calls(stats, "repro/obs/slo.py", "observe"),
    }
    top = sorted(stats.items(), key=lambda kv: -kv[1][2])[:TOP_FUNCTIONS]
    return {
        "self_s": split,
        "calls": calls,
        # the share builtins take before they are charged to callers
        "builtin_s": sum(row[2] for func, row in stats.items()
                         if func[0] == "~"),
        "arrival_times_s": layers.cumulative(
            stats, "repro/loadgen/arrivals.py", "arrival_times"),
        "top": [[layers.layer_of(f[0]) if f[0] != "~" else "builtin",
                 f"{Path(f[0]).name}:{f[2]}", round(row[2], 6)]
                for f, row in top],
    }


def measure(name: str, seed: int, traced: bool, duration=None) -> dict:
    work = workloads.WORKLOADS[name]
    full_length = duration is None
    runner = workloads.runner(name, seed, duration)
    profile = cProfile.Profile() if traced else None
    sealed = []
    packets_at_seal = []
    seal = Cluster.seal

    def timed_seal(cluster):
        seal(cluster)
        if profile is not None:
            # per-request counts cover the same post-setup span as the
            # profile; read before the clock so timings stay clean
            packets_at_seal.append(_packets(cluster.merged_stats()))
        sealed.append(time.perf_counter())
        if profile is not None:
            profile.enable()

    # the benchmark's own span around the set-up boundary: set-up ends
    # when the cluster is sealed, whatever the backend does in seal()
    Cluster.seal = timed_seal
    try:
        start = time.perf_counter()
        report = runner.run()
        end = time.perf_counter()
    finally:
        if profile is not None:
            profile.disable()
        Cluster.seal = seal

    data = report.data
    totals = data["totals"]
    window = data["window"]
    frontend = data["frontend"]
    stats = runner.cluster.merged_stats()
    denials = _counter_sum(stats, "tile", ".denials")
    rows = {row["name"]: row for row in data["slo"]["rows"]}
    slo_rows = [rows[n] for n in work.slo_rows]
    p99_tenant, p99_row = _worst_tenant(data["tenants"], full_length)
    latency = stats.sketches.get("noc.packet_latency")

    out = {
        "digest": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "checks": _checks(work, report, denials, p99_row, full_length),
        "backend": runner.backend,
        "scenario": work.scenario,
        "start_at": window["start"],
        "duration": window["duration"],
        "drain": window["drain"],
        "wall_s": end - start,
        "setup_s": sealed[0] - start,
        "post_setup_s": end - sealed[0],
        "sim_kcycles": (window["end"] - window["start"]) / 1000.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "offered": totals["offered"],
        "served": totals["served"],
        "admitted": frontend["admitted"],
        "rejected": frontend["rejected"],
        "dropped": frontend["dropped"],
        "failed": frontend["failed"],
        "failovers": frontend["failovers"],
        "alerts": len(data["slo"]["alerts"]),
        "goodput_frac": totals["served"] / totals["offered"],
        "slo_good_frac": (sum(r["good"] for r in slo_rows)
                          / sum(r["total"] for r in slo_rows)),
        "p99_tenant": p99_tenant,
        "p99_samples": p99_row["served"] if p99_row else 0,
        "p50_cycles": p99_row["latency_p50"] if p99_row else None,
        "p99_cycles": p99_row["latency_p99"] if p99_row else None,
        "noc_latency_p99": latency.percentile(99) if latency else None,
        "denials": denials,
        "reconfigs": _counter_sum(stats, "region.", ".reconfigs"),
    }
    if profile is not None:
        summary = _profile_summary(profile)
        summary["noc_packets"] = _packets(stats) - packets_at_seal[0]
        out["profile"] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--duration", type=int, default=None,
                        help="simulated window in cycles (0 = the "
                             "library scenario's own); default: the "
                             "workload's benchmark window")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.traced,
                             args.duration)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
