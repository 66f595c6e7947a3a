"""Scenario benchmark: simulator host time and simulated service outcomes.

    python3 scenbench/run.py --workload crowd --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` repeats the workload's
untraced run, each in a fresh process, until ``--seconds`` have passed
and at least :data:`MIN_REPEATS` runs are done, and reports the
end-to-end metrics (host timings as medians over the repeats).
``--trace 1`` pairs an untraced run with a ``cProfile``-traced one and
reports the per-layer metrics.  Every run's output checks must hold and
every report must hash the same, traced or not.  The last line of
standard output is the result JSON; a record with the environment, the
raw repeats and the layer split is written to ``.scenbench_out/``.
See ``scenbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".scenbench_out"

sys.path.insert(0, str(ROOT / "src"))

from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: untraced runs per invocation at least, so set-up time is a median
MIN_REPEATS = 3
#: the whole invocation must end inside this many seconds
DEADLINE_S = 170.0
#: the layer split must account for this share of traced host time
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "served_per_s": "req/s",
    "peak_rss_mb": "MB",
    "goodput_frac": "fraction",
    "p50_cycles": "cycles",
}


class BenchError(RuntimeError):
    """A run that could not produce a measurement at all."""


def run_once(workload: str, seed: int, traced: bool, timeout: float,
             duration: Optional[int] = None) -> dict:
    """One workload run in a fresh interpreter (``measure.py``)."""
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if duration is not None:
        cmd += ["--duration", str(duration)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} run exceeded {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} run exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload: str, seed: int, seconds: float, traced: bool,
           duration: Optional[int] = None,
           min_repeats: Optional[int] = None) -> List[dict]:
    """Untraced runs — or (untraced, traced) pairs with ``traced`` — until
    ``seconds`` have passed and ``min_repeats`` are done."""
    if min_repeats is None:
        min_repeats = 1 if traced else MIN_REPEATS
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    runs: List[dict] = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(runs) >= min_repeats and (
                elapsed >= seconds or elapsed + longest > DEADLINE_S):
            return runs
        began = time.perf_counter()
        run = run_once(workload, seed, False,
                       deadline - time.perf_counter(), duration)
        if traced:
            run["traced"] = run_once(workload, seed, True,
                                     deadline - time.perf_counter(),
                                     duration)
        runs.append(run)
        longest = max(longest, time.perf_counter() - began)


def _every_run(runs: List[dict]):
    for run in runs:
        yield run
        if "traced" in run:
            yield run["traced"]


def coverage(traced: dict) -> float:
    """Share of the traced run's post-setup host time the layers hold."""
    return sum(traced["profile"]["self_s"].values()) / traced["post_setup_s"]


def verdict(runs: List[dict]) -> Dict[str, bool]:
    """Every check of every run, plus determinism and layer coverage."""
    every = list(_every_run(runs))
    out = {name: all(run["checks"][name] for run in every)
           for name in every[0]["checks"]}
    # one seed, one report: repeats agree, and the profiler only observes
    out["same_digest"] = len({run["digest"] for run in every}) == 1
    if "traced" in runs[0]:
        out["coverage"] = all(coverage(run["traced"]) >= MIN_COVERAGE
                              for run in runs)
    return out


def _median(runs: List[dict], value) -> float:
    return statistics.median(value(run) for run in runs)


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    first = runs[0]
    return {
        "wall_s": _median(runs, lambda r: r["wall_s"]),
        "setup_s": _median(runs, lambda r: r["setup_s"]),
        "sim_kcycles_per_s": _median(
            runs, lambda r: r["sim_kcycles"] / r["post_setup_s"]),
        "served_per_s": _median(
            runs, lambda r: r["served"] / r["post_setup_s"]),
        "peak_rss_mb": _median(runs, lambda r: r["peak_rss_mb"]),
        "goodput_frac": first["goodput_frac"],
        "p50_cycles": first["p50_cycles"],
    }


def per_layer(runs: List[dict]) -> Dict[str, tuple]:
    """Per-layer metrics as ``name -> (value, unit)``."""
    traced = [run["traced"] for run in runs]
    first = traced[0]
    calls = first["profile"]["calls"]
    offered = first["offered"]
    packets = first["profile"]["noc_packets"]

    def self_s(layer: str) -> float:
        return _median(traced, lambda r: r["profile"]["self_s"][layer])

    out = {f"{layer}.self_s": (self_s(layer), "s") for layer in LAYERS}
    out.update({
        "noc.us_per_packet": (1e6 * self_s("noc") / max(1, packets), "us"),
        "noc.packets_per_req": (packets / offered, "count"),
        "sim.schedules_per_req": (calls["schedule"] / offered, "count"),
        "kernel.msgs_per_req": (calls["monitor_submit"] / offered, "count"),
        "kernel.denials": (first["denials"], "count"),
        "net.frames_per_req": (calls["mac_transmit"] / offered, "count"),
        "pdes.windows": (calls["run_window"], "count"),
        "pdes.envelopes": (calls["envelope_inject"], "count"),
        "cluster.failovers_per_req": (
            first["failovers"] / max(1, first["admitted"]), "count"),
        "cluster.admit_frac": (first["admitted"] / offered, "fraction"),
        "cluster.rejected": (first["rejected"], "count"),
        "cluster.dropped": (first["dropped"], "count"),
        "cluster.failed": (first["failed"], "count"),
        "obs.observes_per_req": (calls["slo_observe"] / offered, "count"),
        "obs.alerts": (first["alerts"], "count"),
        "loadgen.schedule_s": (
            _median(traced, lambda r: r["profile"]["arrival_times_s"]), "s"),
        "setup.reconfigs": (first["reconfigs"], "count"),
        "noc.latency_p99_cycles": (first["noc_latency_p99"], "cycles"),
        "trace.overhead": (
            _median(runs, lambda r: r["traced"]["wall_s"] / r["wall_s"]),
            "ratio"),
        "trace.coverage": (_median(traced, coverage), "fraction"),
        "outcome.slo_good_frac": (first["slo_good_frac"], "fraction"),
        "outcome.p99_cycles": (first["p99_cycles"], "cycles"),
        "outcome.p99_samples": (first["p99_samples"], "count"),
    })
    return out


def bench(workload: str, seed: int, seconds: float, traced: bool,
          duration: Optional[int] = None,
          min_repeats: Optional[int] = None) -> dict:
    """Run the workload; the result JSON plus the record behind it."""
    runs = repeat(workload, seed, seconds, traced, duration, min_repeats)
    checks = verdict(runs)
    every = list(_every_run(runs))
    failed = sum(not all(run["checks"].values()) for run in every)
    if traced:
        metrics = per_layer(runs)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(runs).items()}
    result = {
        "correct": all(checks.values()),
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    first = runs[0]
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "commit": _commit(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "scenario": first["scenario"],
        "backend": first["backend"],
        "start_at": first["start_at"],
        "duration": first["duration"],
        "drain": first["drain"],
        "digest": first["digest"],
        "p99_tenant": first["p99_tenant"],
        "p99_samples": first["p99_samples"],
        "checks": checks,
        "result": result,
        "runs": runs,
    }
    return {"result": result, "record": record}


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _summary(record: dict) -> str:
    result = record["result"]
    lines = [
        f"scenbench {record['workload']} seed={record['seed']} "
        f"trace={int(record['traced'])}: {record['scenario']} on "
        f"{record['backend']}, window {record['duration']} + "
        f"{record['drain']} drain cycles, {result['attempted']} run(s), "
        f"digest {record['digest'][:16]}, nproc {record['nproc']}, "
        f"python {record['python']}, commit {record['commit'][:12]}",
        f"  latency of tenant {record['p99_tenant']}: "
        f"{record['p99_samples']} served samples",
        "  checks: " + " ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in record["checks"].items()),
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:28s} {metric['value']!s:>22} "
                     f"{metric['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = bench(args.workload, args.seed, args.seconds,
                    bool(args.trace))
    except BenchError as err:
        print(f"scenbench: {err}", file=sys.stderr)
        return 1
    record, result = out["record"], out["result"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(_summary(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
