"""Causal span records — one request followed across every boundary.

The flat :class:`~repro.sim.trace.Tracer` answers "what happened"; spans
answer "what happened *to this request*".  Every :class:`~repro.kernel.
message.Message` optionally carries a ``trace_id`` (one per root request)
and a ``span_id`` (the parent for whatever stage handles it next).  Each
instrumented stage — monitor egress/ingress, NoC transit, service dispatch,
DRAM access — opens a span parented under the id it received and closes it
when its work completes, so the recorder accumulates the raw material for a
per-request tree (:class:`~repro.obs.index.SpanIndex` rebuilds it).

The emit path is zero-cost when disabled, exactly like ``Tracer.emit``:
every instrumented site guards on :attr:`SpanRecorder.enabled` before
building any arguments, and :meth:`SpanRecorder.open` itself returns 0
immediately when disabled, so a recorder that was never enabled costs one
attribute load and branch per site.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecord", "SpanRecorder"]


class SpanRecord:
    """One span: a named interval in one trace, parented under another span.

    ``end`` is -1 while the span is open; an end of -1 in a finished run
    means the stage never completed (the request timed out, the sim stopped
    mid-flight) — :class:`SpanIndex` reports such traces as incomplete.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "source", "start", "end", "detail")

    def __init__(self, trace_id: int, span_id: int, parent_id: int,
                 name: str, category: str, source: str, start: int,
                 detail: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.source = source
        self.start = start
        self.end = -1
        self.detail: Dict[str, Any] = detail if detail is not None else {}

    @property
    def closed(self) -> bool:
        return self.end >= 0

    @property
    def duration(self) -> int:
        """Cycles from open to close (-1 while open)."""
        if self.end < 0:
            return -1
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = self.end if self.closed else "…"
        return (f"<Span t{self.trace_id} s{self.span_id}<-{self.parent_id} "
                f"{self.name} {self.source} [{self.start},{end}]>")


class SpanRecorder:
    """Collects :class:`SpanRecord` objects for causal request tracing.

    Disabled by default and free when disabled: instrumented hot paths
    guard on :attr:`enabled` before touching any span machinery (the same
    contract ``Tracer.emit`` honours, verified by the P1 benchmark's
    obs-overhead floor).
    """

    def __init__(self, id_base: int = 0):
        self._enabled = False
        self._records: List[SpanRecord] = []
        self._open: Dict[int, SpanRecord] = {}
        #: first id minus one; windowed cluster backends give each board's
        #: recorder a disjoint base (partition * 10^9) so trace/span ids
        #: allocated independently per partition never collide and the
        #: merged record set is identical however many processes produced
        #: it.  The default base 0 reproduces the shared-recorder ids.
        self.id_base = id_base
        self._next_trace = id_base
        self._next_span = id_base
        # flight-recorder rings fed every closed span (kept out of the
        # enabled-guard contract: when tracing is off no spans open, so
        # close() never runs and sinks cost nothing)
        self._flight_sinks: List[Any] = []

    def attach_flight(self, sink: Any) -> None:
        """Feed every subsequently closed span to ``sink.record_span``."""
        self._flight_sinks.append(sink)

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        self._records.clear()
        self._open.clear()

    def absorb(self, other: "SpanRecorder") -> None:
        """Append another recorder's records (cluster span merge).

        Record identity is untouched — with disjoint ``id_base`` values the
        id spaces cannot collide — and per-recorder emission order is
        preserved, so absorbing per-partition recorders in partition order
        yields a deterministic merged record list.
        """
        self._records.extend(other._records)
        self._open.update(other._open)

    # -- emission --------------------------------------------------------

    def new_trace(self) -> int:
        """Allocate a trace id for a new root request (0 = untraced)."""
        if not self._enabled:
            return 0
        self._next_trace += 1
        return self._next_trace

    def open(self, trace_id: int, name: str, category: str, source: str,
             start: int, parent_id: int = 0, **detail: Any) -> int:
        """Open a span; returns its id (0 when disabled or untraced)."""
        if not self._enabled or not trace_id:
            return 0
        self._next_span += 1
        record = SpanRecord(trace_id, self._next_span, parent_id, name,
                            category, source, start, detail or None)
        self._records.append(record)
        self._open[self._next_span] = record
        return self._next_span

    def close(self, span_id: int, end: int, **detail: Any) -> None:
        """Close an open span (no-op for id 0 or an unknown/closed span)."""
        if not span_id:
            return
        record = self._open.pop(span_id, None)
        if record is None:
            return
        record.end = end
        if detail:
            record.detail.update(detail)
        if self._flight_sinks:
            for sink in self._flight_sinks:
                sink.record_span(record)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._records)

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def records(self, trace_id: Optional[int] = None,
                category: Optional[str] = None) -> List[SpanRecord]:
        out = []
        for rec in self._records:
            if trace_id is not None and rec.trace_id != trace_id:
                continue
            if category is not None and rec.category != category:
                continue
            out.append(rec)
        return out

    def trace_ids(self) -> List[int]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[int, None] = {}
        for rec in self._records:
            seen.setdefault(rec.trace_id, None)
        return list(seen)
