"""Building and configuring a cluster.

``Cluster`` takes the board count, the base board config, the backend
and the engine's orphan-error policy — nothing else.  Every subsystem
comes on afterwards through its ``enable_*`` / ``start_*`` call.  The
contracts under test: the constructor's signature, out-of-range
settings refused with a typed error before anything runs, each toggle
reaching every board, and the bitstream cache's toggle setting the
prefetch default of autoscalers started later.
"""

import inspect

import pytest

from repro.cluster import Cluster
from repro.errors import ConfigError


def _factory():
    return lambda body: (1_000, {"ok": True}, 32)


def _serving(cache=None):
    """A booted 2-board cluster serving one stateless ``kv`` replica."""
    cluster = Cluster(swallow_orphan_errors=True)
    if cache is not None:
        cluster.enable_bitstream_cache(**cache)
    cluster.boot()
    started = cluster.deploy_stateless("kv", _factory, instances=1)
    cluster.run_until(started, limit=50_000_000)
    cluster.start_frontend()
    return cluster


class TestConstructor:
    def test_only_config_and_runtime_flags(self):
        params = list(inspect.signature(Cluster.__init__).parameters)
        assert params == ["self", "n_fpgas", "config", "backend",
                          "swallow_orphan_errors"]

    def test_window_is_the_fabric_latency(self):
        cluster = Cluster(n_fpgas=2, backend="sequential")
        assert cluster._backend.window == cluster.fabric.latency_cycles


# -- validation ------------------------------------------------------------


class TestValidation:
    def test_recovery_bounds(self):
        cluster = Cluster()
        with pytest.raises(ConfigError, match="heartbeat"):
            cluster.enable_recovery(heartbeat_interval=0)
        with pytest.raises(ConfigError, match="max_restarts"):
            cluster.enable_recovery(max_restarts=-1)

    def test_obs_bounds(self):
        # the obs package reports bad bounds as ValueError throughout
        cluster = Cluster()
        with pytest.raises(ValueError, match="capacity"):
            cluster.enable_flight_recorders(capacity=0)
        with pytest.raises(ValueError, match="bucket_cycles"):
            cluster.enable_slo(bucket_cycles=0)

    def test_sched_bounds(self):
        # replica and threshold bounds: tests/test_sched.py.  A zero tick
        # would divide the queue growth rate by zero and, on a
        # swallow_orphan_errors cluster, kill the controller silently
        cluster = _serving()
        with pytest.raises(ConfigError, match="interval"):
            cluster.start_autoscaler("kv", interval=0)

    def test_replication_bounds(self):
        # refused at construction: a zero probe interval would otherwise
        # spin the prober forever at one simulated cycle
        cluster = Cluster()
        for name in ("probe_interval", "miss_limit", "window"):
            with pytest.raises(ConfigError, match=name):
                cluster.start_replication(**{name: 0})
        assert cluster.replication is None

    def test_cache_bounds(self):
        with pytest.raises(ConfigError):
            Cluster().enable_bitstream_cache(capacity_cells=0)
        with pytest.raises(ConfigError):
            Cluster().enable_bitstream_cache(cycles_per_cell=0)

    def test_cluster_bounds(self):
        with pytest.raises(ConfigError, match="FPGA"):
            Cluster(n_fpgas=0)
        with pytest.raises(ConfigError, match="unknown backend"):
            Cluster(backend="warp-drive")


# -- construction ----------------------------------------------------------


class TestClusterFromConfig:
    def test_config_fields_shape_the_cluster(self):
        cluster = Cluster(n_fpgas=3, backend="sequential")
        assert cluster.n_fpgas == 3
        assert cluster.backend_name == "sequential"
        assert cluster.bitplane is None  # cache off until enabled

    def test_cache_toggle_builds_the_plane(self):
        cluster = Cluster()
        plane = cluster.enable_bitstream_cache(
            capacity_cells=100_000, prefetch=False, warm_placement=False)
        assert cluster.bitplane is plane
        assert not cluster.warm_placement
        for system in cluster.systems:
            assert system.bitstore is not None
            assert system.bitstore.capacity_cells == 100_000

    def test_recovery_toggle_arms_every_board(self):
        cluster = Cluster()
        cluster.enable_recovery(heartbeat_interval=7_000)
        for system in cluster.systems:
            assert system.recovery is not None
            assert system.recovery.heartbeat_interval == 7_000

    def test_obs_toggles(self):
        cluster = Cluster()
        assert cluster.enable_tracing() is cluster.spans
        assert cluster.spans.enabled
        assert cluster.enable_slo() is cluster.slo

    def test_replication_toggle(self):
        cluster = Cluster()
        assert cluster.start_replication() is cluster.replication


class TestSchedDefaultsFlow:
    """``start_autoscaler``'s ``prefetch`` default follows the cache."""

    def test_prefetch_off_without_a_cache(self):
        assert not _serving().start_autoscaler("kv").prefetch

    def test_cache_config_turns_prefetch_on(self):
        assert _serving(cache={}).start_autoscaler("kv").prefetch

    def test_cache_without_prefetch_keeps_it_off(self):
        cluster = _serving(cache={"prefetch": False})
        assert not cluster.start_autoscaler("kv").prefetch

    def test_sched_prefetch_override_wins(self):
        cluster = _serving(cache={})
        assert not cluster.start_autoscaler("kv", prefetch=False).prefetch
