"""The benchmark's three workloads, each a library scenario run longer.

Every workload is a canned :mod:`repro.loadgen` scenario built through
the public API — ``get_scenario(name, seed)`` — with only ``duration``
replaced, so arrival rates, tenant mix, chaos plan and SLO targets stay
exactly as the library declares them and each workload keeps its
regime.  The longer window is what gives the reported tenant at least
:data:`MIN_P99_SAMPLES` served requests (ten samples beyond its p99).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.loadgen import Scenario, ScenarioRunner, get_scenario

__all__ = ["Workload", "WORKLOADS", "MIN_P99_SAMPLES", "scenario", "runner"]

#: served requests a tenant needs before its p99 counts as measured
MIN_P99_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which scenario, how long, on what backend.

    ``backend=None`` passes no ``backend=`` at all, so the workload runs
    on whatever the cluster's default is at the commit being measured.
    ``slo_rows`` are the SLO rows that partition the workload's traffic
    (their good/total sum is ``slo_good_frac``).  ``must_resolve`` marks
    workloads whose every request must resolve inside the drain window.
    """

    scenario: str
    duration: int
    backend: Optional[str]
    slo_rows: Tuple[str, ...]
    must_resolve: bool


WORKLOADS = {
    # 4 boards, 8x2 kv shards, a 4x open-loop spike, no failovers: the
    # per-request hot path of sim + noc + kernel; retry code stays idle
    "crowd": Workload("flash_crowd", 2_400_000, None,
                      ("kv-availability",), must_resolve=True),
    # 2 boards, a write-heavy heavy-tailed rogue over capacity beside two
    # polite tenants: frontend retry/admission and policy do most work
    "storm": Workload("tenant_storm", 3_000_000, None,
                      ("alpha-latency", "beta-latency", "rogue-latency"),
                      must_resolve=False),
    # 4 boards through kill, partition and heal on the windowed engine:
    # the only workload that drives the PDES barrier and envelope path
    "soak": Workload("chaos_soak", 3_000_000, "sequential",
                     ("kv-availability",), must_resolve=True),
}


def scenario(name: str, seed: int, duration: Optional[int] = None) -> Scenario:
    """The workload's scenario for ``seed``; ``duration`` overrides the
    benchmark's window (``0`` keeps the library's own, shorter one)."""
    work = WORKLOADS[name]
    scn = get_scenario(work.scenario, seed)
    if duration is None:
        duration = work.duration
    return replace(scn, duration=duration) if duration else scn


def runner(name: str, seed: int, duration: Optional[int] = None
           ) -> ScenarioRunner:
    scn = scenario(name, seed, duration)
    backend = WORKLOADS[name].backend
    if backend is None:
        return ScenarioRunner(scn)
    return ScenarioRunner(scn, backend=backend)
