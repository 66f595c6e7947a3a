"""Cluster execution backends: shared-engine and windowed PDES.

``Cluster`` historically composed every board onto one shared
single-threaded :class:`~repro.sim.Engine`.  This module factors that
assumption behind a :class:`ClusterBackend` and adds a windowed backend
built on conservative-lookahead parallel discrete-event simulation
(PDES):

* :class:`SharedEngineBackend` (``backend="shared"``, the default) — one
  engine, one fabric, one span recorder.  Byte-identical to the
  pre-backend code; every existing test and benchmark pins it.
* :class:`SequentialBackend` (``backend="sequential"``) — each board and
  the host side (front-end + clients) is a *partition* with a private
  engine, fabric view, and span recorder.  Partitions advance in lockstep
  windows as long as the fabric latency (the host fabric's
  ``latency_cycles``, 500 cycles), executed one after another in this
  process, and exchange cross-partition frames only at the window
  barriers.

Soundness of the window (the classic null-message-free lookahead
argument): the Ethernet fabric is the only cross-partition channel and
delivers no earlier than ``latency_cycles`` after send.  With window
length ``w`` equal to that latency, a frame sent at any cycle ``c``
inside the window ``[t, t+w)`` arrives at ``c + latency >= t + w`` — at
or after the next barrier — so no partition can receive anything from the
current window while running it, and the partitions' windows are
independent.  Envelopes collected at the barrier are merge-sorted by
``(send_cycle, src_partition, seq)`` and injected at their exact arrival
cycle, making the global schedule a pure function of simulated behaviour,
not of the order in which partitions ran.

Lifecycle of the windowed backend::

    cluster = Cluster(n_fpgas=4, backend="sequential")
    cluster.boot()
    cluster.deploy_stateless(...)     # placement is open until seal()
    cluster.run_until(started)
    cluster.start_frontend(...)
    cluster.seal()                    # freeze placement
    cluster.run(until=...)            # advance window barriers

Dynamic placement (autoscaler, chain replication) walks board management
planes at arbitrary simulated times, so it stays on the shared backend.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, SimulationError, TileFault
from repro.kernel import message as _message
from repro.kernel.system import ApiarySystem
from repro.net.envelope import FrameEnvelope, PartitionFabric
from repro.net.frame import EthernetFabric
from repro.obs.span import SpanRecorder
from repro.sim import Engine, StatsRegistry

__all__ = ["ClusterBackend", "SharedEngineBackend", "SequentialBackend",
           "BACKENDS"]

#: span/trace id stride between partitions (board i allocates from
#: (i + 1) * SPAN_ID_STRIDE); far above any realistic per-run span count
SPAN_ID_STRIDE = 1_000_000_000


def _board_kill(system: ApiarySystem, fabric: EthernetFabric) -> None:
    """Fail-stop one board in place.

    Mirrors the original shared-engine ``kill_fpga`` body: stop the
    recovery watchdog (no board left to restart tiles on), detach the MAC
    (frames to it drop), report a fault on every live tile.  Fault hooks
    run synchronously inside ``report`` — on the windowed backend that is
    the per-board recorder hook, whose entries the backend forwards to
    the front-end.
    """
    mac = system.config.net.mac_addr
    if system.recovery is not None:
        system.recovery.stop()
    fabric.detach(mac)
    # the black-box moment: freeze the flight ring with the pre-kill
    # history before the per-tile fault storm overwrites it.  The explicit
    # dump carries the "board-kill" reason; the per-fault hook dumps that
    # follow in the same cycle coalesce into it (see FlightRecorder.dump).
    if system.flight is not None:
        system.flight.record_event(system.engine.now, "kill", mac,
                                   "board lost power")
        system.flight.dump(system.engine.now, f"board-kill:{mac}")
    err = TileFault(f"board {mac} lost power")
    err.occurred_at = system.engine.now
    for tile in system.tiles:
        if not tile.failed:
            system.fault_manager.report(tile, "main", err)


class ClusterBackend:
    """How a :class:`~repro.cluster.cluster.Cluster` executes its boards."""

    name = "abstract"
    #: whether board placement may change after construction-time deploys
    #: (autoscaler scale-up, chain repair); only the shared backend walks
    #: board management planes at arbitrary simulated times
    supports_dynamic_placement = False

    def __init__(self) -> None:
        self.cluster = None
        self.sealed = False
        self._fault_listeners: List[Any] = []

    # -- construction ------------------------------------------------------

    def build(self, cluster, n_fpgas: int,
              swallow_orphan_errors: bool) -> None:
        """Create engines/fabrics/systems and attach them to ``cluster``."""
        raise NotImplementedError

    @staticmethod
    def _board_configs(base, n_fpgas: int):
        return [
            replace(base, seed=base.seed + i,
                    net=replace(base.net, mac_addr=f"fpga{i}"))
            for i in range(n_fpgas)
        ]

    # -- execution ---------------------------------------------------------

    def boot(self, extra_cycles: int) -> None:
        raise NotImplementedError

    def run(self, until: Optional[int]) -> None:
        raise NotImplementedError

    def run_until(self, events, limit: int = 10_000_000) -> None:
        raise NotImplementedError

    def seal(self) -> None:
        """Freeze placement: later deploys raise :class:`ConfigError`."""
        self.sealed = True

    def check_placement_open(self, what: str) -> None:
        if self.sealed:
            raise ConfigError(
                f"{what} after seal(): the {self.name!r} backend freezes "
                "board placement at seal()"
            )

    # -- fault injection ---------------------------------------------------

    def kill_board(self, index: int) -> None:
        raise NotImplementedError

    def partition_board(self, index: int) -> None:
        raise NotImplementedError

    def heal_board(self, index: int) -> None:
        raise NotImplementedError

    # -- front-end wiring --------------------------------------------------

    def register_fault_listener(self, listener) -> None:
        """``listener.on_board_fault(fpga, node, action, endpoint)`` will be
        invoked for every board fault — synchronously on the shared
        backend, at the enclosing window's barrier on windowed backends."""
        self._fault_listeners.append(listener)

    # -- observability -----------------------------------------------------

    def enable_tracing(self) -> None:
        self.cluster.spans.enable()
        for system in self.cluster.systems:
            system.spans.enable()

    def enable_flight_recorders(self, capacity: int = 256,
                                dump_dir: Optional[str] = None) -> None:
        """Attach one always-on flight recorder per board.

        On the shared backend all boards share one span recorder, so each
        board's ring sees cluster-wide spans (events stay board-local); the
        windowed backend gives each ring a board-local span view.
        """
        for i, system in enumerate(self.cluster.systems):
            system.enable_flight_recorder(board=f"fpga{i}",
                                          capacity=capacity,
                                          dump_dir=dump_dir)

    def merged_spans(self) -> SpanRecorder:
        raise NotImplementedError

    def merged_stats(self) -> StatsRegistry:
        merged = StatsRegistry()
        for system in self.cluster.systems:
            merged.merge(system.stats)
        return merged

    def stats_snapshots(self) -> Dict[str, Dict]:
        return {f"fpga{i}": system.stats.snapshot()
                for i, system in enumerate(self.cluster.systems)}

    def flight_reports(self) -> Dict[str, Optional[Dict]]:
        """Per-board flight snapshot + retained dumps (None if disabled)."""
        return {f"fpga{i}": (system.flight.report()
                             if system.flight is not None else None)
                for i, system in enumerate(self.cluster.systems)}


class SharedEngineBackend(ClusterBackend):
    """Today's semantics: every board on one engine, one fabric, one
    recorder.  The default, pinned byte-for-byte by the existing suite."""

    name = "shared"
    supports_dynamic_placement = True

    def build(self, cluster, n_fpgas, swallow_orphan_errors):
        self.cluster = cluster
        cluster.engine = Engine(swallow_orphan_errors=swallow_orphan_errors)
        cluster.fabric = EthernetFabric(cluster.engine)
        cluster.spans = SpanRecorder()
        cluster.systems = [
            ApiarySystem(engine=cluster.engine, fabric=cluster.fabric,
                         config=cfg, spans=cluster.spans)
            for cfg in self._board_configs(cluster.base_config, n_fpgas)
        ]

    def boot(self, extra_cycles):
        for system in self.cluster.systems:
            system.boot(extra_cycles=extra_cycles)

    def run(self, until):
        self.cluster.engine.run(until=until)

    def run_until(self, events, limit=10_000_000):
        engine = self.cluster.engine
        engine.run_until_done(engine.all_of(list(events)), limit=limit)

    def kill_board(self, index):
        _board_kill(self.cluster.systems[index], self.cluster.fabric)

    def partition_board(self, index):
        mac = self.cluster.systems[index].config.net.mac_addr
        self.cluster.fabric.partition(mac)

    def heal_board(self, index):
        mac = self.cluster.systems[index].config.net.mac_addr
        self.cluster.fabric.heal(mac)

    def register_fault_listener(self, listener):
        super().register_fault_listener(listener)
        for fpga, system in enumerate(self.cluster.systems):
            def hook(tile, record, fpga=fpga, listener=listener):
                listener.on_board_fault(fpga, tile.node, record.action,
                                        tile.endpoint)
            system.fault_manager.on_fault.append(hook)

    def merged_spans(self):
        return self.cluster.spans


class SequentialBackend(ClusterBackend):
    """Windowed execution, one partition after another, in this process.

    Partition 0 is the host side (front-end, clients, anything attaching
    an unmapped MAC); partition ``i + 1`` is board ``i``.
    """

    name = "sequential"

    def __init__(self):
        super().__init__()
        self.window = 0
        self.partition_of: Dict[str, int] = {}
        self.board_fabrics: List[PartitionFabric] = []
        #: per-board fault entries (node, action, endpoint) captured by the
        #: recorder hook, forwarded to fault listeners at the barrier
        self.fault_logs: List[List[Tuple[int, str, str]]] = []

    # -- construction ------------------------------------------------------

    def build(self, cluster, n_fpgas, swallow_orphan_errors):
        self.cluster = cluster
        # a windowed cluster is a self-contained simulation: restart the
        # process-global mid stream so a run's ids depend only on its own
        # behaviour, not on whatever ran earlier in this process — the
        # identity contract compares mids across two runs
        _message._mid_counter = itertools.count(1)
        configs = self._board_configs(cluster.base_config, n_fpgas)
        self.partition_of = {cfg.net.mac_addr: i + 1
                             for i, cfg in enumerate(configs)}
        cluster.engine = Engine(swallow_orphan_errors=swallow_orphan_errors)
        cluster.fabric = PartitionFabric(
            cluster.engine, partition_id=0, partition_of=self.partition_of)
        # the window is the fabric's lookahead (see the module docstring)
        self.window = cluster.fabric.latency_cycles
        cluster.spans = SpanRecorder(id_base=0)
        cluster.systems = []
        for i, cfg in enumerate(configs):
            board_engine = Engine(swallow_orphan_errors=swallow_orphan_errors)
            board_fabric = PartitionFabric(
                board_engine, partition_id=i + 1,
                partition_of=self.partition_of)
            spans = SpanRecorder(id_base=(i + 1) * SPAN_ID_STRIDE)
            system = ApiarySystem(engine=board_engine, fabric=board_fabric,
                                  config=cfg, spans=spans)
            self.board_fabrics.append(board_fabric)
            cluster.systems.append(system)
            log: List[Tuple[int, str, str]] = []
            self.fault_logs.append(log)

            def recorder(tile, record, log=log):
                log.append((tile.node, record.action, tile.endpoint))

            system.fault_manager.on_fault.append(recorder)

    # -- the window protocol ----------------------------------------------

    @property
    def clock(self) -> int:
        """The barrier cycle every partition is parked on."""
        return self.cluster.engine.now

    def _step(self, end: int) -> int:
        """One window for every partition + the barrier exchange.

        Returns the number of pending events across all partitions (the
        quiescence signal for :meth:`run_until`).
        """
        host = self.cluster.engine
        envelopes: List[FrameEnvelope] = []
        faults = []
        pending = 0
        for i, system in enumerate(self.cluster.systems):
            system.engine.run_window(end)
            envelopes.extend(self.board_fabrics[i].drain_outbox())
            faults.append(self._take_faults(i))
            pending += system.engine.pending_events()
        host.run_window(end)
        envelopes.extend(self.cluster.fabric.drain_outbox())
        envelopes.sort(key=FrameEnvelope.sort_key)
        for env in envelopes:
            pid = self.partition_of.get(env.dst_mac, 0)
            if pid == 0:
                self.cluster.fabric.inject(env)
            else:
                self.board_fabrics[pid - 1].inject(env)
        for fpga, entries in enumerate(faults):
            self._notify(fpga, entries)
        return host.pending_events() + pending + len(envelopes)

    def _take_faults(self, fpga: int) -> List[Tuple[int, str, str]]:
        entries = list(self.fault_logs[fpga])
        del self.fault_logs[fpga][:]
        return entries

    def _notify(self, fpga: int, entries) -> None:
        for node, action, endpoint in entries:
            for listener in self._fault_listeners:
                listener.on_board_fault(fpga, node, action, endpoint)

    # -- execution ---------------------------------------------------------

    def boot(self, extra_cycles):
        # booting is board-local (no cross-board frames before a front-end
        # exists), so each board boots on its own clock; partitions then
        # align on the latest boot-completion cycle and the first barrier
        # exchange drains whatever a boot did emit
        for system in self.cluster.systems:
            system.boot(extra_cycles=extra_cycles)
        target = max([self.cluster.engine.now]
                     + [s.engine.now for s in self.cluster.systems])
        self._step(target)

    def run(self, until):
        if until is None:
            raise ConfigError(
                f"the {self.name!r} backend needs a bounded run(until=...): "
                "partitions advance in windows, not to queue exhaustion"
            )
        now = self.clock
        while now < until:
            end = min(now + self.window, until)
            self._step(end)
            now = end

    def run_until(self, events, limit=10_000_000):
        events = list(events)
        deadline = self.clock + limit

        def settled() -> bool:
            for ev in events:
                if ev.failed:
                    raise ev.value
                if not ev.triggered:
                    return False
            return True

        while not settled():
            if self.clock >= deadline:
                raise SimulationError(
                    f"events not triggered within {limit} cycles"
                )
            pending = self._step(self.clock + self.window)
            if pending == 0 and not settled():
                raise SimulationError(
                    f"all partitions drained at cycle {self.clock} before "
                    "the awaited events triggered"
                )

    # -- fault injection ---------------------------------------------------

    def kill_board(self, index):
        mac = self.cluster.systems[index].config.net.mac_addr
        self.cluster.fabric.mark_remote_detached(mac)
        for i, fabric in enumerate(self.board_fabrics):
            if i != index:
                fabric.mark_remote_detached(mac)
        _board_kill(self.cluster.systems[index], self.board_fabrics[index])
        self._notify(index, self._take_faults(index))

    def partition_board(self, index):
        mac = self.cluster.systems[index].config.net.mac_addr
        self.cluster.fabric.partition(mac)
        for fabric in self.board_fabrics:
            fabric.partition(mac)

    def heal_board(self, index):
        mac = self.cluster.systems[index].config.net.mac_addr
        self.cluster.fabric.heal(mac)
        for fabric in self.board_fabrics:
            fabric.heal(mac)

    # -- observability -----------------------------------------------------

    def merged_spans(self):
        merged = SpanRecorder(id_base=0)
        merged.absorb(self.cluster.spans)
        for system in self.cluster.systems:
            merged.absorb(system.spans)
        return merged


BACKENDS = {
    "shared": SharedEngineBackend,
    "sequential": SequentialBackend,
}
