"""Cluster: N Apiary FPGAs on one fabric, managed as a single system.

The scale-out unit the paper gestures at in Section 5: once each FPGA is
a first-class network citizen, a rack of them composes the same way a
rack of servers does — shared Ethernet fabric, a service directory, a
load-balancing front-end.  Construction::

    cluster = Cluster(n_fpgas=2, config=SystemConfig.figure1())
    cluster.boot()
    cluster.directory.deploy_sharded("kv", make_kv_handler, n_shards=4)
    fe = cluster.start_frontend()

Each FPGA derives its per-board config from the base via
``dataclasses.replace`` (unique MAC, shifted seed).  *How* the boards
execute is a :class:`~repro.cluster.backend.ClusterBackend`:

* ``backend="shared"`` (default) — all boards share one
  :class:`~repro.sim.Engine`, one fabric, one span recorder; a single
  causal trace spans client, front-end, and server board.
* ``backend="sequential"`` — each board gets a private engine and
  advances in conservative lookahead windows (see ``backend.py``).
  ``cluster.engine`` / ``cluster.fabric`` / ``cluster.spans`` then name
  the *host* partition's objects (front-end and clients attach there);
  per-board state is reachable through :meth:`merged_spans` /
  :meth:`merged_stats` / :meth:`stats_snapshots`.

``kill_fpga`` is the availability experiment's hammer: it detaches the
board's MAC (frames to it drop on the floor) and reports a fault on
every occupied tile, which reaches the front-end through the same
``on_fault`` hook intra-FPGA recovery uses — shards fail over to their
surviving replicas.  On the windowed backend the kill lands at the
current window barrier.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.cluster.backend import BACKENDS, ClusterBackend
from repro.cluster.config import ClusterConfig
from repro.cluster.directory import ServiceDirectory
from repro.cluster.frontend import FrontEnd
from repro.errors import ConfigError
from repro.kernel.config import SystemConfig
from repro.kernel.system import ApiarySystem
from repro.net.frame import EthernetFabric
from repro.obs.index import SpanIndex
from repro.obs.span import SpanRecorder
from repro.sim import Engine, StatsRegistry

__all__ = ["Cluster"]


class Cluster:
    """A multi-FPGA Apiary deployment on one shared fabric."""

    def __init__(
        self,
        n_fpgas: Optional[int] = None,
        config: Optional[Union[SystemConfig, ClusterConfig]] = None,
        engine: Optional[Engine] = None,
        fabric: Optional[EthernetFabric] = None,
        fabric_latency: Optional[int] = None,
        backend: Optional[str] = None,
        swallow_orphan_errors: Optional[bool] = None,
    ):
        # a ClusterConfig carries everything the keywords + post-build
        # enable_* calls do; a keyword given next to it must agree
        given = {"n_fpgas": n_fpgas, "fabric_latency": fabric_latency,
                 "backend": backend,
                 "swallow_orphan_errors": swallow_orphan_errors}
        if isinstance(config, ClusterConfig):
            for name, value in given.items():
                if value is not None and value != getattr(config, name):
                    raise ConfigError(
                        f"Cluster({name}={value!r}) disagrees with the "
                        f"ClusterConfig's {name}={getattr(config, name)!r}")
            self.cluster_config: Optional[ClusterConfig] = config
            base = config.system
        else:
            self.cluster_config = None
            base = config if config is not None else SystemConfig.figure1()
        # an omitted keyword reads the config (or the dataclass default)
        defaults = self.cluster_config or ClusterConfig
        n_fpgas, fabric_latency, backend, swallow_orphan_errors = (
            getattr(defaults, name) if value is None else value
            for name, value in given.items())
        if n_fpgas < 1:
            raise ConfigError(f"need >= 1 FPGA, got {n_fpgas}")
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; pick one of "
                f"{sorted(BACKENDS)}"
            )
        self.base_config = base
        self.backend_name = backend
        self._backend: ClusterBackend = BACKENDS[backend]()
        # build() populates engine/fabric/spans/systems on self
        self.engine: Engine
        self.fabric: EthernetFabric
        self.spans: SpanRecorder
        self.systems: List[ApiarySystem]
        self._backend.build(self, n_fpgas, engine, fabric, fabric_latency,
                            swallow_orphan_errors)
        self.directory = ServiceDirectory(self)
        self.frontend: Optional[FrontEnd] = None
        self.replication = None
        self.slo = None
        #: BitstreamPlane once enable_bitstream_cache() ran (or the
        #: config asked for it); None = legacy direct-load clusters
        self.bitplane = None
        self.warm_placement = True
        self._cache_prefetch = True
        self.killed: List[int] = []
        self.partitioned: List[int] = []
        if self.cluster_config is not None:
            self._apply_config(self.cluster_config)

    def _apply_config(self, cfg: ClusterConfig) -> None:
        """Run the enable_* toggles the config asks for (build-time).

        Order matters only in that the cache comes first (so every
        subsequent deploy routes through it); ``boot()`` stays the
        caller's move, as in the keyword spelling.
        """
        if cfg.cache.enabled:
            self.enable_bitstream_cache(
                capacity_cells=cfg.cache.capacity_cells,
                cycles_per_cell=cfg.cache.synth_cycles_per_cell,
                prefetch=cfg.cache.prefetch,
                warm_placement=cfg.cache.warm_placement,
            )
        if cfg.recovery.enabled:
            self.enable_recovery(**cfg.recovery.kwargs())
        if cfg.obs.tracing:
            self.enable_tracing()
        if cfg.obs.flight_recorders:
            self.enable_flight_recorders(
                capacity=cfg.obs.flight_capacity,
                dump_dir=cfg.obs.flight_dump_dir)
        if cfg.obs.slo_enabled:
            self.enable_slo(targets=cfg.obs.slo_targets,
                            bucket_cycles=cfg.obs.slo_bucket_cycles)
        if cfg.replication.enabled:
            self.start_replication(**cfg.replication.kwargs())

    @property
    def n_fpgas(self) -> int:
        return len(self.systems)

    @property
    def now(self) -> int:
        """The cluster clock (on windowed backends: the host partition's,
        which every board partition matches at each barrier)."""
        return self.engine.now

    def macs(self) -> List[str]:
        return [s.config.net.mac_addr for s in self.systems]

    def _require_dynamic_placement(self, what: str) -> None:
        if not self._backend.supports_dynamic_placement:
            raise ConfigError(
                f"{what} moves instances at simulated runtime, which only "
                f"the 'shared' backend supports (got "
                f"{self.backend_name!r})"
            )

    # -- lifecycle ---------------------------------------------------------

    def boot(self, extra_cycles: int = 5000) -> None:
        """Bring every board's OS services up."""
        self._backend.boot(extra_cycles)

    def enable_recovery(self, **kwargs) -> None:
        """Attach an intra-FPGA recovery watchdog to every board.

        Cross-FPGA failover stays the front-end's job; recovery handles
        restart-in-place / spare tiles *within* a surviving board.
        """
        self._backend.check_placement_open("enable_recovery()")
        for system in self.systems:
            system.enable_recovery(**kwargs)

    def enable_bitstream_cache(
        self,
        capacity_cells: Optional[int] = None,
        cycles_per_cell: Optional[int] = None,
        prefetch: bool = True,
        warm_placement: bool = True,
    ):
        """Attach the compile-and-cache pipeline to every board (once).

        From this call on, every deploy routes through each board's
        :class:`~repro.cluster.bitcache.BoardBitstreamStore` — cold
        designs pay one realistic synthesis run, warm ones reconfigure
        straight from the content-addressed artifact cache.  Also
        installs the cluster-level :attr:`bitplane` (prefetch + warm
        queries), makes the directory prefer warm boards
        (``warm_placement``), and makes autoscalers started later default
        to compile-ahead prefetch (``prefetch``).  Returns the plane.
        """
        from repro.cluster.bitcache import BitstreamPlane

        self._backend.check_placement_open("enable_bitstream_cache()")
        if self.bitplane is not None:
            raise ConfigError("the bitstream cache is already enabled")
        for i, system in enumerate(self.systems):
            system.enable_bitstream_cache(
                capacity_cells=capacity_cells,
                cycles_per_cell=cycles_per_cell,
                board=f"fpga{i}",
            )
        self.bitplane = BitstreamPlane(self)
        self.warm_placement = warm_placement
        self._cache_prefetch = prefetch
        return self.bitplane

    def start_frontend(self, **kwargs) -> FrontEnd:
        """Attach the load-balancing front-end (once)."""
        if self.frontend is not None:
            raise ConfigError("front-end is already running")
        self.frontend = FrontEnd(self, **kwargs)
        return self.frontend

    def start_autoscaler(self, service: str, **kwargs):
        """Attach a :class:`~repro.sched.Autoscaler` to one service.

        Requires a running front-end (its per-instance queues are the
        scaling signal).  Returns the started autoscaler.
        """
        from repro.sched import Autoscaler  # avoid a cyclic import

        self._require_dynamic_placement("the autoscaler")
        if self.frontend is None:
            raise ConfigError("start the front-end before the autoscaler")
        if self.cluster_config is not None:
            # config-object defaults; explicit kwargs win
            sched = self.cluster_config.sched
            kwargs = {**sched.autoscaler_kwargs(), **kwargs}
            if sched.prefetch is not None:
                kwargs.setdefault("prefetch", sched.prefetch)
            if self.slo is not None:
                kwargs.setdefault("slo", self.slo)
        # cache-aware default: scale-up prefetch follows the cache toggle
        kwargs.setdefault(
            "prefetch", self.bitplane is not None and self._cache_prefetch)
        scaler = Autoscaler(self, service, **kwargs)
        scaler.start()
        return scaler

    def deploy_stateless(self, service, handler_factory, **kwargs):
        self._backend.check_placement_open("deploy_stateless()")
        started = self.directory.deploy_stateless(service, handler_factory,
                                                  **kwargs)
        if self.frontend is not None:
            self.frontend.track_all()
        return started

    def deploy_sharded(self, service, handler_factory, **kwargs):
        self._backend.check_placement_open("deploy_sharded()")
        started = self.directory.deploy_sharded(service, handler_factory,
                                                **kwargs)
        if self.frontend is not None:
            self.frontend.track_all()
        return started

    def start_replication(self, **kwargs):
        """Attach the chain-replication control plane (once)."""
        from repro.replic import ReplicationManager  # avoid a cyclic import

        self._require_dynamic_placement("chain replication")
        if self.replication is not None:
            raise ConfigError("the replication manager is already running")
        self.replication = ReplicationManager(self, **kwargs)
        return self.replication

    def deploy_chain(self, service, machine_factory, **kwargs):
        """Deploy a chain-replicated stateful service.

        Requires :meth:`start_replication` first — chains are inert
        (epoch 0, rejecting everything) until the manager configures
        them.  Returns ``(load_started_events, configured_event)``.
        """
        if self.replication is None:
            raise ConfigError(
                "start_replication() before deploying a chained service"
            )
        started = self.directory.deploy_chain(service, machine_factory,
                                              **kwargs)
        if self.frontend is not None:
            self.frontend.track_all()
        configured = self.replication.manage(service)
        return started, configured

    def seal(self) -> None:
        """Freeze placement: deploys and recovery or bitstream-cache
        attachment after this raise :class:`ConfigError`."""
        self._backend.seal()

    def run(self, until: Optional[int] = None) -> None:
        self._backend.run(until)

    def run_until(self, events, limit: int = 10_000_000) -> None:
        """Advance the cluster until every event has triggered.

        The backend-portable way to wait for deploy/start events: on the
        shared backend this is ``engine.run_until_done(all_of(events))``;
        windowed backends step whole windows until the events settle (so
        the clock lands on the next barrier at or after the trigger).
        """
        self._backend.run_until(list(events), limit=limit)

    def register_fault_listener(self, listener) -> None:
        """Subscribe ``listener.on_board_fault(fpga, node, action,
        endpoint)`` to every board's fault stream — synchronously on the
        shared backend, at the window barrier on windowed ones."""
        self._backend.register_fault_listener(listener)

    # -- observability -----------------------------------------------------

    def enable_tracing(self) -> SpanRecorder:
        """One switch for the whole cluster (every partition's recorder)."""
        self._backend.enable_tracing()
        return self.spans

    def enable_flight_recorders(self, capacity: int = 256,
                                dump_dir: Optional[str] = None) -> None:
        """Attach one always-on flight recorder per board.

        Each board rings its most recent spans and operational events and
        dumps a validated JSON document on fault or kill (to ``dump_dir``
        when given).
        """
        self._backend.enable_flight_recorders(capacity=capacity,
                                              dump_dir=dump_dir)

    def enable_slo(self, targets=(), bucket_cycles: int = 10_000):
        """Attach an :class:`~repro.obs.slo.SLOEngine` to the cluster.

        The front-end feeds it every admission rejection and completion;
        the autoscaler can scale on its burn signal (pass ``slo=`` to
        :meth:`start_autoscaler`).  Returns the engine; add further
        targets later via ``cluster.slo.add_target``.
        """
        from repro.obs.slo import SLOEngine

        if self.slo is None:
            self.slo = SLOEngine(bucket_cycles=bucket_cycles)
        for target in targets:
            self.slo.add_target(target)
        return self.slo

    def merged_spans(self) -> SpanRecorder:
        """Every partition's spans in one recorder (deterministic order)."""
        return self._backend.merged_spans()

    def merged_stats(self) -> StatsRegistry:
        """All boards' registries folded into one cluster roll-up."""
        return self._backend.merged_stats()

    def stats_snapshots(self) -> dict:
        """Per-board ``snapshot()`` dicts, keyed ``fpga0`` .. ``fpgaN-1``."""
        return self._backend.stats_snapshots()

    def flight_reports(self) -> dict:
        """Per-board flight snapshots + dumps, keyed ``fpga0``..``fpgaN-1``
        (``None`` for boards without a recorder)."""
        return self._backend.flight_reports()

    def span_index(self) -> SpanIndex:
        """Cross-FPGA causal index — every board plus the front-end."""
        return SpanIndex(self.merged_spans())

    # -- fault injection ---------------------------------------------------

    def kill_fpga(self, index: int) -> None:
        """Fail-stop a whole board: MAC off the fabric, every tile dead.

        Reported through each tile's fault manager so every subscriber —
        the front-end above all — learns the same way it would for an
        organic fault.  The board's recovery watchdog (if any) is stopped
        first: there is no board left to restart tiles on.
        """
        if index in self.killed:
            return
        self.killed.append(index)
        self._backend.kill_board(index)

    def partition_fpga(self, index: int) -> None:
        """Cut a board off the Ethernet fabric — both directions.

        The board itself keeps running and *believes it is healthy*: its
        tiles heartbeat, its services keep trying to serve.  Nothing
        reports a fault, so only probe misses reveal the partition — the
        asymmetric failure that turns a stale chain head into a
        split-brain unless epochs fence it.
        """
        if index in self.partitioned or index in self.killed:
            return
        self.partitioned.append(index)
        self._backend.partition_board(index)

    def heal_fpga(self, index: int) -> None:
        """Reconnect a partitioned board.

        The board comes back exactly as it left — including any fenced
        stale chain members, which now finally hear their ``chain.fence``
        (and whose buffered writes get nacked).  The replication manager
        is nudged to retry deferred replica placements.
        """
        if index not in self.partitioned:
            return
        self.partitioned.remove(index)
        self._backend.heal_board(index)
        if self.replication is not None:
            self.replication.notify_heal()

    def describe(self) -> str:
        lines = [f"Apiary cluster: {self.n_fpgas} FPGA(s), "
                 f"{len(self.directory.services)} service(s), "
                 f"backend={self.backend_name}"]
        for i, system in enumerate(self.systems):
            status = "KILLED" if i in self.killed else "up"
            insts = self.directory.instances_on(i)
            lines.append(
                f"  fpga{i} [{status}] "
                f"{system.config.noc.width}x{system.config.noc.height}: "
                + ", ".join(inst.iid for inst in insts)
            )
        return "\n".join(lines)
