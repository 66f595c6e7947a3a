"""Typed configuration for a whole cluster (the scale-out analogue of
:class:`~repro.kernel.config.SystemConfig`).

PR after PR the :class:`~repro.cluster.cluster.Cluster` surface grew one
toggle method at a time — ``enable_recovery``, ``enable_tracing``,
``enable_flight_recorders``, ``enable_slo``, ``start_replication``,
``enable_bitstream_cache`` — each with its own kwargs, each needing to be
called in the right order relative to ``seal()``.  This module folds all
of them into one frozen, validated object::

    cluster = Cluster(config=ClusterConfig(
        n_fpgas=4,
        recovery=RecoveryConfig(enabled=True),
        cache=CacheConfig(enabled=True),
        obs=ObsConfig(tracing=True),
    ))

The short spelling (``Cluster(n_fpgas=4, config=SystemConfig(...))``
followed by toggle calls) builds byte-identical clusters — pinned by
test.  Handing ``Cluster`` a :class:`ClusterConfig` *and* a keyword that
disagrees with it raises :class:`~repro.errors.ConfigError`.

Sub-config defaults mirror the toggle methods' keyword defaults, so
``XConfig(enabled=True)`` with nothing else behaves like calling
``enable_x()`` bare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.kernel.config import SystemConfig

__all__ = [
    "RecoveryConfig",
    "ObsConfig",
    "SchedConfig",
    "ReplicationConfig",
    "CacheConfig",
    "ClusterConfig",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Per-board intra-FPGA recovery watchdogs (``enable_recovery``)."""

    enabled: bool = False
    #: tile indices reserved as spares on every board
    spares: Tuple[int, ...] = ()
    heartbeat_interval: int = 5_000
    prefer_spare: bool = False
    max_restarts: int = 8

    def __post_init__(self):
        if self.heartbeat_interval < 1:
            raise ConfigError("heartbeat_interval must be >= 1")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")

    def kwargs(self) -> Dict[str, Any]:
        return {
            "spares": list(self.spares) or None,
            "heartbeat_interval": self.heartbeat_interval,
            "prefer_spare": self.prefer_spare,
            "max_restarts": self.max_restarts,
        }


@dataclass(frozen=True)
class ObsConfig:
    """Observability plane toggles (tracing / flight recorders / SLO)."""

    tracing: bool = False
    flight_recorders: bool = False
    flight_capacity: int = 256
    flight_dump_dir: Optional[str] = None
    slo: bool = False
    slo_bucket_cycles: int = 10_000
    #: SLOTarget objects registered at build (slo implied when non-empty)
    slo_targets: Tuple[Any, ...] = ()

    def __post_init__(self):
        if self.flight_capacity < 1:
            raise ConfigError("flight_capacity must be >= 1")
        if self.slo_bucket_cycles < 1:
            raise ConfigError("slo_bucket_cycles must be >= 1")

    @property
    def slo_enabled(self) -> bool:
        return self.slo or bool(self.slo_targets)


@dataclass(frozen=True)
class SchedConfig:
    """Autoscaler defaults for :meth:`Cluster.start_autoscaler`.

    The autoscaler still starts explicitly (it needs a service name and a
    running front-end); this object supplies the controller parameters,
    with explicit ``start_autoscaler`` kwargs winning over it.
    ``prefetch=None`` means "follow the cache config" — prefetch turns on
    automatically when the cluster runs a bitstream cache with
    ``prefetch=True``.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    interval: int = 20_000
    high_queue: float = 8.0
    low_queue: float = 1.0
    target_queue: float = 3.0
    down_after: int = 3
    drain_window: int = 5_000
    util_low: Optional[float] = None
    prefetch: Optional[bool] = None

    def __post_init__(self):
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ConfigError(
                f"need 1 <= min <= max, got "
                f"{self.min_replicas}..{self.max_replicas}")
        if self.low_queue >= self.high_queue:
            raise ConfigError("low_queue must sit below high_queue")
        if self.interval < 1:
            raise ConfigError("interval must be >= 1")

    def autoscaler_kwargs(self) -> Dict[str, Any]:
        """The Autoscaler ctor kwargs this config supplies (prefetch is
        resolved by the cluster against its cache config)."""
        return {
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "interval": self.interval,
            "high_queue": self.high_queue,
            "low_queue": self.low_queue,
            "target_queue": self.target_queue,
            "down_after": self.down_after,
            "drain_window": self.drain_window,
            "util_low": self.util_low,
        }


@dataclass(frozen=True)
class ReplicationConfig:
    """Chain-replication control plane (``start_replication``)."""

    enabled: bool = False
    mac: str = "replic"
    rpc_timeout: int = 25_000
    snapshot_timeout: int = 120_000
    probe_interval: int = 20_000
    miss_limit: int = 3
    repair_settle: int = 2_000
    reconfig_timeout: int = 1_200_000
    window: int = 16
    transport_timeout: int = 50_000

    def __post_init__(self):
        if self.probe_interval < 1:
            raise ConfigError("probe_interval must be >= 1")
        if self.miss_limit < 1:
            raise ConfigError("miss_limit must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")

    def kwargs(self) -> Dict[str, Any]:
        return {
            "mac": self.mac,
            "rpc_timeout": self.rpc_timeout,
            "snapshot_timeout": self.snapshot_timeout,
            "probe_interval": self.probe_interval,
            "miss_limit": self.miss_limit,
            "repair_settle": self.repair_settle,
            "reconfig_timeout": self.reconfig_timeout,
            "window": self.window,
            "transport_timeout": self.transport_timeout,
        }


@dataclass(frozen=True)
class CacheConfig:
    """Per-board bitstream compile-and-cache pipeline
    (``enable_bitstream_cache``)."""

    enabled: bool = False
    #: LRU budget per board, in logic cells of cached artifacts
    capacity_cells: int = 256_000
    #: synthesis cost knob (scales the whole cost vector proportionally)
    synth_cycles_per_cell: int = 64
    #: let the autoscaler compile-ahead on scale-up early warning
    prefetch: bool = True
    #: let the directory prefer boards whose cache is already warm
    warm_placement: bool = True

    def __post_init__(self):
        if self.capacity_cells < 1:
            raise ConfigError("capacity_cells must be >= 1")
        if self.synth_cycles_per_cell < 1:
            raise ConfigError("synth_cycles_per_cell must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that shapes one cluster, in one validated object."""

    n_fpgas: int = 2
    #: per-board base config; each board derives its variant (unique MAC,
    #: shifted seed) from it
    system: SystemConfig = field(default_factory=SystemConfig.figure1)
    fabric_latency: int = 500
    backend: str = "shared"
    swallow_orphan_errors: bool = False
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    sched: SchedConfig = field(default_factory=SchedConfig)
    replication: ReplicationConfig = field(
        default_factory=ReplicationConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self):
        if self.n_fpgas < 1:
            raise ConfigError(f"need >= 1 FPGA, got {self.n_fpgas}")
        if self.fabric_latency < 0:
            raise ConfigError("fabric_latency must be >= 0")
