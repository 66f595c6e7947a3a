"""Checks for the scenario benchmark itself.

    python3 -m pytest scenbench -q

The held-out test runs a shortened pass of every workload on a seed no
tuning or recorded run of this benchmark used, so a later gain claim can
be confirmed on inputs nobody chose the design on.  Each workload runs at
its library scenario's own, shorter window: two untraced repeats and two
traced ones, and every output, determinism and coverage check must hold.
"""

import pytest

import layers
import run

HELD_OUT_SEED = 7


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_held_out_seed_passes_every_check(workload):
    out = run.bench(workload, HELD_OUT_SEED, seconds=0, traced=True,
                    duration=0, min_repeats=2)
    checks = out["record"]["checks"]
    assert {"accounting", "expectation", "resolved", "no_denials",
            "same_digest", "coverage"} <= set(checks)
    assert all(checks.values()), checks
    result = out["result"]
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert set(result["metrics"]) == set(run.per_layer(out["record"]["runs"]))


def test_layer_of_routes_pdes_modules_out_of_their_packages():
    assert layers.layer_of("/x/src/repro/cluster/backend.py") == "pdes"
    assert layers.layer_of("/x/src/repro/net/envelope.py") == "pdes"
    assert layers.layer_of("/x/src/repro/cluster/frontend.py") == "cluster"
    assert layers.layer_of("/x/src/repro/net/ethernet.py") == "net"
    assert layers.layer_of("/x/src/repro/policy.py") == "policy"
    assert layers.layer_of("/x/src/repro/mem/dram.py") == "other"
    assert layers.layer_of("/usr/lib/python3/heapq.py") == "other"


def test_builtin_time_is_charged_to_its_callers_layers():
    engine = ("/x/repro/sim/engine.py", 10, "run")
    router = ("/x/repro/noc/router.py", 20, "_run")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        engine: (1, 1, 2.0, 5.0, {}),
        router: (4, 4, 1.0, 1.5, {engine: (4, 4, 1.0, 1.5)}),
        # 0.25 s of heappop under the engine, 0.5 s under the router and
        # 0.25 s from a frame the profiler never saw
        heappop: (9, 9, 1.0, 1.0, {engine: (3, 3, 0.25, 0.25),
                                   router: (5, 5, 0.5, 0.5)}),
    }
    split = layers.self_seconds(stats)
    assert split["sim"] == pytest.approx(2.25)
    assert split["noc"] == pytest.approx(1.5)
    assert split["other"] == pytest.approx(0.25)
    assert sum(split.values()) == pytest.approx(4.0)
    assert layers.calls(stats, "repro/noc/router.py", "_run") == 4
    assert layers.cumulative(stats, "repro/sim/engine.py", "run") == 5.0
