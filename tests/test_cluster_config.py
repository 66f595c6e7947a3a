"""ClusterConfig tests: the config-object redesign of the cluster API.

One frozen, validated object replaces the keyword + post-construction
``enable_*`` toggle chain.  The contracts under test: sub-config
validation raises typed :class:`~repro.errors.ConfigError`, a keyword
that disagrees with a given ClusterConfig is refused, toggles fire
exactly as their imperative counterparts do, the autoscaler inherits
:class:`SchedConfig` defaults (explicit kwargs winning), and — the big
one — a keyword-built cluster and a config-built cluster produce
byte-identical runs.
"""

import dataclasses
import json

import pytest

from repro.cluster import (
    CacheConfig,
    Cluster,
    ClusterConfig,
    ObsConfig,
    RecoveryConfig,
    ReplicationConfig,
    SchedConfig,
)
from repro.cluster.smoke import span_dump
from repro.errors import ConfigError
from repro.kernel.config import SystemConfig


def _factory():
    return lambda body: (1_000, {"ok": True}, 32)


def _booted(config=None, **kwargs):
    cluster = Cluster(config=config, **kwargs)
    cluster.boot()
    return cluster


# -- validation ------------------------------------------------------------


class TestValidation:
    def test_recovery_bounds(self):
        with pytest.raises(ConfigError):
            RecoveryConfig(heartbeat_interval=0)
        with pytest.raises(ConfigError):
            RecoveryConfig(max_restarts=-1)

    def test_obs_bounds(self):
        with pytest.raises(ConfigError):
            ObsConfig(flight_capacity=0)
        with pytest.raises(ConfigError):
            ObsConfig(slo_bucket_cycles=0)

    def test_sched_bounds(self):
        with pytest.raises(ConfigError):
            SchedConfig(min_replicas=0)
        with pytest.raises(ConfigError):
            SchedConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ConfigError):
            SchedConfig(high_queue=1.0, low_queue=2.0)
        with pytest.raises(ConfigError):
            SchedConfig(interval=0)

    def test_replication_bounds(self):
        with pytest.raises(ConfigError):
            ReplicationConfig(probe_interval=0)
        with pytest.raises(ConfigError):
            ReplicationConfig(miss_limit=0)
        with pytest.raises(ConfigError):
            ReplicationConfig(window=0)

    def test_cache_bounds(self):
        with pytest.raises(ConfigError):
            CacheConfig(capacity_cells=0)
        with pytest.raises(ConfigError):
            CacheConfig(synth_cycles_per_cell=0)

    def test_cluster_bounds(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_fpgas=0)
        with pytest.raises(ConfigError):
            ClusterConfig(fabric_latency=-1)

    def test_configs_are_frozen(self):
        cfg = ClusterConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_fpgas = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cache.enabled = True


# -- construction ----------------------------------------------------------


class TestClusterFromConfig:
    def test_config_fields_shape_the_cluster(self):
        cluster = Cluster(config=ClusterConfig(n_fpgas=3,
                                               backend="sequential"))
        assert cluster.n_fpgas == 3
        assert cluster.backend_name == "sequential"
        assert cluster.cluster_config is not None
        assert cluster.bitplane is None  # cache off by default

    def test_flat_construction_has_no_cluster_config(self):
        cluster = Cluster(n_fpgas=2)
        assert cluster.cluster_config is None

    def test_conflicting_keyword_is_refused(self):
        with pytest.raises(ConfigError, match="n_fpgas=4"):
            Cluster(n_fpgas=4, backend="sequential",
                    config=ClusterConfig(n_fpgas=2))
        with pytest.raises(ConfigError, match="backend='sequential'"):
            Cluster(backend="sequential", config=ClusterConfig())
        with pytest.raises(ConfigError, match="fabric_latency"):
            Cluster(fabric_latency=250, config=ClusterConfig())
        with pytest.raises(ConfigError, match="swallow_orphan_errors"):
            Cluster(swallow_orphan_errors=True, config=ClusterConfig())
        # a keyword that agrees with the config is fine
        cluster = Cluster(n_fpgas=3, backend="sequential",
                          config=ClusterConfig(n_fpgas=3,
                                               backend="sequential"))
        assert cluster.n_fpgas == 3
        assert cluster.backend_name == "sequential"

    def test_cache_toggle_builds_the_plane(self):
        cluster = Cluster(config=ClusterConfig(
            cache=CacheConfig(enabled=True, capacity_cells=100_000,
                              prefetch=False, warm_placement=False)))
        assert cluster.bitplane is not None
        assert not cluster.warm_placement
        assert not cluster._cache_prefetch
        for system in cluster.systems:
            assert system.bitstore is not None
            assert system.bitstore.capacity_cells == 100_000

    def test_recovery_toggle_arms_every_board(self):
        cluster = Cluster(config=ClusterConfig(
            recovery=RecoveryConfig(enabled=True, heartbeat_interval=7_000)))
        for system in cluster.systems:
            assert system.recovery is not None
            assert system.recovery.heartbeat_interval == 7_000

    def test_obs_toggles(self):
        cluster = Cluster(config=ClusterConfig(
            obs=ObsConfig(tracing=True, slo=True)))
        assert cluster.spans.enabled
        assert cluster.slo is not None

    def test_replication_toggle(self):
        cluster = Cluster(config=ClusterConfig(
            replication=ReplicationConfig(enabled=True)))
        assert cluster.replication is not None


class TestSchedDefaultsFlow:
    def scaler(self, sched=None, **kwargs):
        cfg = ClusterConfig(swallow_orphan_errors=True,
                            sched=sched if sched is not None
                            else SchedConfig())
        cluster = _booted(config=cfg)
        started = cluster.deploy_stateless("kv", _factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.start_frontend()
        return cluster.start_autoscaler("kv", **kwargs)

    def test_sched_config_supplies_the_defaults(self):
        scaler = self.scaler(sched=SchedConfig(max_replicas=3,
                                               interval=10_000,
                                               high_queue=6.0))
        assert scaler.max_replicas == 3
        assert scaler.interval == 10_000
        assert scaler.high_queue == 6.0

    def test_explicit_kwargs_beat_the_config(self):
        scaler = self.scaler(sched=SchedConfig(max_replicas=3),
                             max_replicas=2)
        assert scaler.max_replicas == 2

    def test_prefetch_off_without_a_cache(self):
        assert not self.scaler().prefetch

    def test_cache_config_turns_prefetch_on(self):
        cfg = ClusterConfig(swallow_orphan_errors=True,
                            cache=CacheConfig(enabled=True))
        cluster = _booted(config=cfg)
        started = cluster.deploy_stateless("kv", _factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.start_frontend()
        assert cluster.start_autoscaler("kv").prefetch

    def test_sched_prefetch_override_wins(self):
        cfg = ClusterConfig(swallow_orphan_errors=True,
                            cache=CacheConfig(enabled=True),
                            sched=SchedConfig(prefetch=False))
        cluster = _booted(config=cfg)
        started = cluster.deploy_stateless("kv", _factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.start_frontend()
        assert not cluster.start_autoscaler("kv").prefetch


# -- byte-identity: keyword spelling vs config object ----------------------


def _mini_run(cluster):
    cluster.boot()
    started = cluster.deploy_stateless("echo", _factory, instances=2)
    cluster.run_until(started, limit=50_000_000)
    cluster.run(until=cluster.engine.now + 50_000)
    payload = {
        "now": cluster.engine.now,
        "spans": span_dump(cluster.merged_spans()),
        "stats": cluster.stats_snapshots(),
    }
    return payload


class TestByteIdentity:
    def test_config_path_matches_flat_path(self):
        flat = _mini_run(Cluster(n_fpgas=2, config=SystemConfig.figure1()))
        cfg = _mini_run(Cluster(config=ClusterConfig(n_fpgas=2)))
        assert json.dumps(flat, sort_keys=True) == \
            json.dumps(cfg, sort_keys=True)

    def test_config_cache_matches_imperative_cache(self):
        imperative = Cluster(n_fpgas=2)
        imperative.enable_bitstream_cache()
        flat = _mini_run(imperative)
        cfg = _mini_run(Cluster(config=ClusterConfig(
            cache=CacheConfig(enabled=True))))
        assert json.dumps(flat, sort_keys=True) == \
            json.dumps(cfg, sort_keys=True)
