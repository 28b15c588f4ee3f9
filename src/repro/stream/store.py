"""LSM-style streaming event store: mutable tail + compacted blocks.

:class:`StreamingEventStore` is the append-only count store behind
``FrameworkConfig(streaming=True)``.  It answers the full
:class:`~repro.forms.EdgeCountStore` interface — including the
id-native chain integration the compiled planner uses — over a
two-level layout:

- a **tail** of recent crossings held in a plain
  :class:`~repro.forms.TrackingForm` (lazily-sorted ``_EventSeries``
  per direction, O(1) amortised append, generation-memoised
  aggregates) plus parallel staging columns for later columnarisation;
- **blocks**: immutable, time-sorted
  :class:`~repro.forms.CompiledTrackingForm` CSR indexes, one per
  compaction, each with its own compiled-boundary LRU.

Correctness rests on the same property the sharded engine exploits:
the signed boundary integral of Theorems 4.2/4.3 is **linear over
events**, so any query answer over the store is exactly the sum of the
per-block integrals plus the tail integral.  Streamed results are
therefore field-identical to a batch-built store at every instant —
mid-compaction included, because :meth:`compact` builds the new block
fully *before* swapping it in and resetting the tail.

Consistency rules (the stale-cache sweep this store motivated):

- the store's :attr:`generation` bumps on every accepted append and
  every compaction/merge, so flight-recorder digests and memoised
  standing counts keyed on it can never serve a stale answer;
- block merges go through
  :meth:`~repro.forms.CompiledTrackingForm.append_events`, which
  clears the mutated block's compiled-boundary LRU (the cached merged
  prefix-sum series bake the timestamps in);
- a closed store raises a structured
  :class:`~repro.errors.QueryError` from both ``append_events`` and
  the query surface instead of failing with bare attribute errors.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import QueryError
from ..forms import CompiledTrackingForm, CompressedTrackingForm, TrackingForm
from ..forms.compiled import DEFAULT_BOUNDARY_CACHE_SIZE, edge_ids
from ..forms.snapshot import DirectedEdge
from ..obs import get_registry
from ..trajectories import CrossingEvent, EventColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.continuous import ContinuousCountMonitor
    from ..sampling import SensorNetwork

#: Tail size that triggers an automatic compaction on append.
DEFAULT_COMPACT_EVERY = 4096

#: Compacted blocks kept before the newest is merged into its
#: predecessor (bounds per-query block fan-out).
DEFAULT_MAX_BLOCKS = 8

#: Decoded id-chain cache entries kept for tail integration.
_CHAIN_CACHE_SIZE = 512

#: Compaction listener phases, in firing order.
COMPACT_PHASES = ("built", "swapped")


class StreamingEventStore:
    """Append-only tail+blocks count store over one sensing network."""

    def __init__(
        self,
        network: "SensorNetwork",
        compact_every: int = DEFAULT_COMPACT_EVERY,
        max_blocks: int = DEFAULT_MAX_BLOCKS,
        boundary_cache_size: int = DEFAULT_BOUNDARY_CACHE_SIZE,
        compress: bool = False,
        tick_bits: int = 0,
    ) -> None:
        """``compress=True`` compacts the tail into succinct
        :class:`~repro.forms.CompressedTrackingForm` blocks and
        quantizes timestamps to ``2**tick_bits`` ticks per second at
        the append boundary — the tail holds the *quantized* values,
        so tail and block answers agree at every instant."""
        if compact_every < 1:
            raise QueryError("compact_every must be >= 1")
        if max_blocks < 1:
            raise QueryError("max_blocks must be >= 1")
        self.network = network
        self.compact_every = int(compact_every)
        self.max_blocks = int(max_blocks)
        self._boundary_cache_size = int(boundary_cache_size)
        self._interner = network.domain.edge_interner
        self.compress = bool(compress)
        self.tick_bits = int(tick_bits)
        self._tick_scale = float(2.0 ** self.tick_bits)

        self._tail = TrackingForm()
        #: Staging columns of the tail, columnarised at compact time.
        self._tail_ids: List[int] = []
        self._tail_dirs: List[int] = []
        self._tail_ts: List[float] = []
        self._blocks: List[CompiledTrackingForm] = []
        #: Zone map: ``[t_min, t_max]`` of each block (same order) and
        #: the tail's earliest timestamp, recorded as events arrive and
        #: blocks are built or merged.  A read skips any level wholly
        #: after its time and sums, without a search, any block wholly
        #: at or before it.
        self._zones: List[Tuple[float, float]] = []
        self._tail_min = float("inf")

        self._generation = 0
        self._closed = False
        self.compactions = 0
        self.block_merges = 0
        #: Observed (wall-crossing) events ever accepted.
        self.observed_total = 0
        self._compact_listeners: List[Callable] = []
        self._monitors: List["ContinuousCountMonitor"] = []
        #: Decoded directed-edge chains for tail id-native integration,
        #: keyed on the chain bytes.  Depends only on the interner's
        #: id → edge table, never on event data, so appends do not
        #: invalidate it.
        self._chain_edges: "OrderedDict[object, List[Tuple[DirectedEdge, int]]]" = (
            OrderedDict()
        )

        registry = get_registry()
        self._metric_events = registry.counter(
            "repro_stream_events_total",
            help="Observed crossing events accepted by streaming stores",
        )
        self._metric_compactions = registry.counter(
            "repro_stream_compactions_total",
            help="Tail compactions into immutable CSR blocks",
        )
        self._metric_merges = registry.counter(
            "repro_stream_block_merges_total",
            help="Block merges beyond the max_blocks bound",
        )
        self._gauge_tail = registry.gauge(
            "repro_stream_tail_events",
            help="Events currently in the mutable streaming tail",
        )
        self._gauge_block_events = registry.gauge(
            "repro_stream_block_events",
            help="Events held in compacted streaming blocks",
        )
        self._gauge_blocks = registry.gauge(
            "repro_stream_blocks",
            help="Compacted streaming blocks currently live",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Mark the store closed; later appends and queries raise a
        structured :class:`~repro.errors.QueryError`.  Idempotent."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _guard(self) -> None:
        if self._closed:
            raise QueryError(
                "streaming store is closed; appends and queries need a "
                "live store"
            )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append_events(self, events: Iterable[CrossingEvent]) -> int:
        """Fold an arrival window of crossing events into the tail.

        Events landing on unmonitored edges are dropped (exactly as
        the batch ``build_form`` filter drops them).  Accepting at
        least one event bumps :attr:`generation`; reaching
        ``compact_every`` staged events triggers :meth:`compact`.
        Returns the number of events observed (accepted).
        """
        self._guard()
        lookup = self.network._wall_lookup()
        intern = self._interner.intern
        tail = self._tail
        observed: List[CrossingEvent] = []
        compress = self.compress
        scale = self._tick_scale
        for event in events:
            eid, forward = intern(event.tail, event.head)
            if eid >= len(lookup) or not lookup[eid]:
                continue
            t = float(event.t)
            if compress:
                # Ingest-boundary quantization (see CompressedTrackingForm)
                t = round(t * scale) / scale
            tail.record(event.tail, event.head, t)
            self._tail_ids.append(eid)
            self._tail_dirs.append(0 if forward else 1)
            self._tail_ts.append(t)
            if t < self._tail_min:
                self._tail_min = t
            observed.append(event)
        if observed:
            self._generation += 1
            self.observed_total += len(observed)
            self._metric_events.inc(len(observed))
            for monitor in self._monitors:
                monitor.observe_stream(observed)
        if len(self._tail_ts) >= self.compact_every:
            self.compact()
        else:
            self._update_gauges()
        return len(observed)

    def compact(self) -> bool:
        """Freeze the tail into an immutable time-sorted CSR block.

        The block is built completely while the store still answers
        from the old tail+blocks; only then is it swapped in and the
        tail reset, so a query issued at any point — including from a
        ``built``-phase :meth:`on_compact` listener — sees exactly one
        copy of every event.  Blocks beyond ``max_blocks`` are merged
        into their predecessor through
        :meth:`CompiledTrackingForm.append_events` (which clears that
        block's compiled-boundary cache).  Returns ``True`` if a block
        was produced.
        """
        self._guard()
        if not self._tail_ts:
            return False
        ids = np.asarray(self._tail_ids, dtype=np.int64)
        dirs = np.asarray(self._tail_dirs, dtype=np.int8)
        ts = np.asarray(self._tail_ts, dtype=np.float64)
        order = np.argsort(ts, kind="stable")
        form, options = CompiledTrackingForm, {}
        if self.compress:
            form, options = CompressedTrackingForm, {"tick_bits": self.tick_bits}
        block = form(
            self._interner, ids[order], dirs[order], ts[order],
            boundary_cache_size=self._boundary_cache_size, **options,
        )
        self._fire_compact("built")
        # Atomic swap: the block joins, then the tail resets.  No
        # intermediate state loses or double-counts an event because
        # reads sum tail + blocks and the tail still holds the events
        # until the very last statements below.
        self._blocks.append(block)
        self._zones.append((float(ts.min()), float(ts.max())))
        self._tail = TrackingForm()
        self._tail_ids = []
        self._tail_dirs = []
        self._tail_ts = []
        self._tail_min = float("inf")
        self.compactions += 1
        self._generation += 1
        self._metric_compactions.inc()
        while len(self._blocks) > self.max_blocks:
            newest = self._blocks.pop()
            zone, older = self._zones.pop(), self._zones[-1]
            self._zones[-1] = (min(zone[0], older[0]), max(zone[1], older[1]))
            merged = newest.to_columns()
            self._blocks[-1].append_events(
                merged.edge_id, merged.direction, merged.t
            )
            self.block_merges += 1
            self._generation += 1
            self._metric_merges.inc()
        self._update_gauges()
        self._fire_compact("swapped")
        return True

    def on_compact(self, listener: Callable) -> None:
        """Register ``listener(store, phase)`` fired at every
        compaction, once per phase in :data:`COMPACT_PHASES`:
        ``"built"`` (new block ready, old layout still serving) and
        ``"swapped"`` (new layout live)."""
        self._compact_listeners.append(listener)

    def _fire_compact(self, phase: str) -> None:
        for listener in self._compact_listeners:
            listener(self, phase)

    def attach_monitor(self, monitor: "ContinuousCountMonitor") -> None:
        """Subscribe a standing-query monitor: every accepted arrival
        window is folded into it, and :meth:`resync` can recover its
        exact counts from this store at any time."""
        self._monitors.append(monitor)

    def resync(
        self, monitor: "ContinuousCountMonitor", t: float
    ) -> Dict[str, float]:
        """Recompute the monitor's standing counts from this store at
        time ``t`` (generation-memoised inside the monitor)."""
        return monitor.reevaluate(self, t)

    def _update_gauges(self) -> None:
        self._gauge_tail.set(len(self._tail_ts))
        self._gauge_block_events.set(
            sum(b.total_events for b in self._blocks)
        )
        self._gauge_blocks.set(len(self._blocks))

    # ------------------------------------------------------------------
    # Count-store interface (sum of per-level answers; Theorem 4.2/4.3
    # integrals are linear over events)
    # ------------------------------------------------------------------
    def count_entering(self, edge: DirectedEdge, t: float) -> float:
        self._guard()
        return self._tail.count_entering(edge, t) + sum(
            b.count_entering(edge, t) for b in self._blocks
        )

    def count_leaving(self, edge: DirectedEdge, t: float) -> float:
        self._guard()
        return self._tail.count_leaving(edge, t) + sum(
            b.count_leaving(edge, t) for b in self._blocks
        )

    def net_until(self, edge: DirectedEdge, t: float) -> float:
        self._guard()
        return self._tail.net_until(edge, t) + sum(
            b.net_until(edge, t) for b in self._blocks
        )

    def net_between(self, edge: DirectedEdge, t1: float, t2: float) -> float:
        if t2 < t1:
            raise QueryError(f"inverted time interval [{t1}, {t2}]")
        return self.net_until(edge, t2) - self.net_until(edge, t1)

    def integrate_until(
        self, edges: Iterable[DirectedEdge], t: float
    ) -> float:
        return self.integrate_until_ids(*edge_ids(self._interner, edges), t)

    def integrate_between(
        self, edges: Iterable[DirectedEdge], t1: float, t2: float
    ) -> float:
        return self.integrate_between_ids(
            *edge_ids(self._interner, edges), t1, t2
        )

    # ------------------------------------------------------------------
    # Id-native chain integration (the compiled planner's fast path)
    # ------------------------------------------------------------------
    def _decode_chain(
        self, wall_ids: np.ndarray, signs: np.ndarray
    ) -> List[Tuple[DirectedEdge, int]]:
        """Canonical edge + sign per chain entry, LRU-cached on the
        chain bytes (pure id → edge decoding; append-proof).  The
        arrays are canonicalised to int32/int8 first, so the digest
        matches :meth:`CompiledTrackingForm.compile_boundary_ids`
        regardless of the caller's platform-promoted widths."""
        wall_ids = np.ascontiguousarray(wall_ids, dtype=np.int32)
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        key = (wall_ids.tobytes(), signs.tobytes())
        decoded = self._chain_edges.get(key)
        if decoded is not None:
            self._chain_edges.move_to_end(key)
            return decoded
        edge_of = self._interner.edge
        decoded = [
            (edge_of(int(eid)), int(sign))
            for eid, sign in zip(wall_ids, signs)
        ]
        self._chain_edges[key] = decoded
        while len(self._chain_edges) > _CHAIN_CACHE_SIZE:
            self._chain_edges.popitem(last=False)
        return decoded

    def integrate_at_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, times: Sequence[float]
    ) -> List[int]:
        """Cumulative net of an id-native chain at each of ``times``,
        summed over the levels by the zone map: a block wholly at or
        before a time adds its per-edge totals (no search), a block
        wholly after it adds nothing, and only a block straddling it
        is ranked — one per time when arrivals are time-ordered.  The
        tail folds in only from its earliest timestamp on."""
        self._guard()
        totals = [0] * len(times)
        for block, (t_min, t_max) in zip(self._blocks, self._zones):
            whole = [i for i, t in enumerate(times) if t >= t_max]
            inside = [i for i, t in enumerate(times) if t_min <= t < t_max]
            if whole:
                total = block.net_total_ids(wall_ids, signs)
                for i in whole:
                    totals[i] += total
            if inside:
                nets = block.integrate_at_ids(
                    wall_ids, signs, [times[i] for i in inside]
                )
                for i, net in zip(inside, nets):
                    totals[i] += int(net)
        late = [i for i, t in enumerate(times) if t >= self._tail_min]
        if late:
            tail = self._tail
            chain = self._decode_chain(wall_ids, signs)
            for i in late:
                t = times[i]
                totals[i] += sum(
                    sign * tail.net_until(edge, t) for edge, sign in chain
                )
        return totals

    def integrate_until_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, t: float
    ) -> int:
        return self.integrate_at_ids(wall_ids, signs, (t,))[0]

    def integrate_between_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, t1: float, t2: float
    ) -> int:
        if t2 < t1:
            raise QueryError(f"inverted time interval [{t1}, {t2}]")
        start, end = self.integrate_at_ids(wall_ids, signs, (t1, t2))
        return end - start

    # ------------------------------------------------------------------
    # Introspection / interop
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic content version: bumps on every accepted append,
        compaction and block merge.  Everything memoised on this
        store's answers (flight digests, standing-count caches) keys
        on it."""
        return self._generation

    @property
    def tail_events(self) -> int:
        return len(self._tail_ts)

    @property
    def block_events(self) -> int:
        return sum(b.total_events for b in self._blocks)

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def total_events(self) -> int:
        return self.tail_events + self.block_events

    def edges(self) -> Iterator[DirectedEdge]:
        """Canonical edges with recorded crossings, across all levels."""
        seen = set(self._tail.edges())
        for block in self._blocks:
            seen.update(block.edges())
        return iter(sorted(seen))

    def timestamps(
        self, edge: DirectedEdge
    ) -> Tuple[List[float], List[float]]:
        plus: List[float] = []
        minus: List[float] = []
        for level in [self._tail] + self._blocks:
            p, m = level.timestamps(edge)
            plus.extend(p)
            minus.extend(m)
        return (sorted(plus), sorted(minus))

    def event_count(self, edge: DirectedEdge) -> int:
        return self._tail.event_count(edge) + sum(
            b.event_count(edge) for b in self._blocks
        )

    @property
    def edge_count(self) -> int:
        return len(list(self.edges()))

    def storage_profile(self) -> List[int]:
        return sorted(self.event_count(edge) for edge in self.edges())

    def storage_report(self) -> dict:
        """Bytes-per-component accounting in the unified store schema.

        Block components are aggregated across all compacted blocks
        under a ``blocks.`` prefix (compressed deployments show the
        succinct layout there); the mutable tail is charged its
        nominal columnar cost (8B timestamp + 4B edge id + 1B
        direction per staged event).
        """
        components = {"tail": int(len(self._tail_ts) * 13)}
        derived = 0
        for block in self._blocks:
            report = block.storage_report()
            derived += report["derived_bytes"]
            for name, nbytes in report["components"].items():
                key = f"blocks.{name}"
                components[key] = components.get(key, 0) + int(nbytes)
        return {
            "store": type(self).__name__,
            "events": int(self.total_events),
            "total_bytes": int(sum(components.values())),
            "derived_bytes": derived,
            "components": components,
        }

    def snapshot_columns(self) -> EventColumns:
        """All stored events as one time-sorted
        :class:`~repro.trajectories.EventColumns` (shard-rebuild and
        batch-interop snapshot)."""
        self._guard()
        parts = [block.to_columns() for block in self._blocks]
        columns = EventColumns(
            interner=self._interner,
            edge_id=np.concatenate(
                [p.edge_id for p in parts]
                + [np.asarray(self._tail_ids, dtype=np.int32)]
            ),
            direction=np.concatenate(
                [p.direction for p in parts]
                + [np.asarray(self._tail_dirs, dtype=np.int8)]
            ),
            t=np.concatenate(
                [p.t for p in parts]
                + [np.asarray(self._tail_ts, dtype=np.float64)]
            ),
        )
        return columns.time_sorted()

    def describe(self) -> Dict[str, object]:
        """Layout summary (CLI, dashboards, tests)."""
        return {
            "tail_events": self.tail_events,
            "block_events": self.block_events,
            "blocks": self.block_count,
            "compactions": self.compactions,
            "block_merges": self.block_merges,
            "generation": self.generation,
            "observed_total": self.observed_total,
            "compact_every": self.compact_every,
            "max_blocks": self.max_blocks,
            "compress": self.compress,
            "closed": self.closed,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"StreamingEventStore(tail={self.tail_events}, "
            f"blocks={self.block_count}x{self.block_events}ev, "
            f"generation={self.generation}, {state})"
        )


def replay(
    store: StreamingEventStore,
    events: Sequence[CrossingEvent],
    batch: Optional[int] = None,
) -> int:
    """Feed an event sequence through the store in arrival batches
    (convenience for tests, benchmarks and the CLI demo).  Returns the
    number of observed events."""
    if batch is None:
        batch = store.compact_every
    observed = 0
    for start in range(0, len(events), max(batch, 1)):
        observed += store.append_events(events[start:start + batch])
    return observed
