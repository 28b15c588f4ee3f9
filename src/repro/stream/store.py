"""LSM-style streaming event store: one columnar tail + size-tiered blocks.

:class:`StreamingEventStore` is the append-only count store behind
``FrameworkConfig(streaming=True)``.  It answers the full
:class:`~repro.forms.EdgeCountStore` interface — including the
id-native chain integration the compiled planner uses — over a
two-level layout:

- the **tail**: recent crossings in three preallocated numpy columns
  (``int32`` edge id, ``int8`` direction, ``float64`` time; the dtypes
  :meth:`~StreamingEventStore.storage_report` charges).  An arrival
  window arrives as (or becomes) time-sorted
  :class:`~repro.trajectories.EventColumns`, is wall-filtered once,
  quantized as a whole under ``compress``, and copied in; the store
  itself interns nothing.  Every tail read is a mask over
  the live rows, and a chain folds in with one scatter of its signs
  over the id universe and one masked sum per query time;
- **blocks**: immutable :class:`~repro.forms.CompiledTrackingForm`
  CSR indexes (succinct ones under ``compress``), each with a *tier*
  and a ``[t_min, t_max]`` zone.  A compaction freezes the tail into a
  tier-0 block; while the two newest blocks then have equal tier they
  are merged into one of the next tier — a binary counter, so after
  ``k`` compactions at most ``⌊log2 k⌋ + 1`` blocks are live and an
  event has been written ``1 + O(log k)`` times (5.1 at 47
  compactions, 7.5 at 200, 9.1 at 1000, against 18 / 95 / 495 for
  merging every new block into its predecessor).  ``max_blocks`` is
  the hard cap on top: past it the two newest blocks merge whatever
  their tiers, the result promoted one tier as if it had carried.

Correctness rests on the same property the sharded engine exploits:
the signed boundary integral of Theorems 4.2/4.3 is **linear over
events**, so any query answer over the store is exactly the sum of the
per-block integrals plus the tail integral.  Streamed results are
therefore field-identical to a batch-built store at every instant,
because every layout change is **build, then swap**: a compaction
builds its block while the tail still serves the events and only then
resets the tail; a merge builds its block while its two inputs still
serve and only then replaces them.  An exception anywhere in a build
(or in a ``built`` listener) leaves the old layout whole — nothing is
lost or counted twice, and the next compaction merges what is due.

Consistency rules:

- the store's :attr:`generation` bumps on every accepted append and
  every compaction/merge, so flight-recorder digests keyed on it can
  never serve a stale answer;
- blocks are never mutated, so a block's compiled-boundary LRU cannot
  go stale; a merged block starts with an empty one;
- a closed store raises a structured
  :class:`~repro.errors.QueryError` from both ``append_events`` and
  the query surface instead of failing with bare attribute errors.
"""

from __future__ import annotations

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
    Union,
)

import numpy as np

from ..errors import QueryError
from ..forms import CompiledTrackingForm, CompressedTrackingForm, quantize_times
from ..forms.compiled import DEFAULT_BOUNDARY_CACHE_SIZE, edge_ids
from ..forms.snapshot import DirectedEdge
from ..obs import get_registry
from ..trajectories import CrossingEvent, EventColumns, columnarize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sampling import SensorNetwork

#: Tail size that triggers an automatic compaction on append.
DEFAULT_COMPACT_EVERY = 4096

#: Hard cap on live blocks (bounds per-query block fan-out).  The tier
#: rule alone keeps ``⌊log2 compactions⌋ + 1``; past the cap the two
#: newest blocks merge whatever their tiers.
DEFAULT_MAX_BLOCKS = 8

#: Compaction listener phases, in firing order.
COMPACT_PHASES = ("built", "swapped")

#: Tail column dtypes: edge id, direction, time.
_TAIL_DTYPES = (np.int32, np.int8, np.float64)


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

        #: The tail: preallocated ``(edge id, direction, t)`` columns
        #: of which the first ``_tail_len`` rows are live.
        self._tail = self._empty_tail()
        self._tail_len = 0
        self._blocks: List[CompiledTrackingForm] = []
        #: Tier of each block (same order): 0 for a compacted tail,
        #: one above the higher of its two inputs' for a merge.
        self._tiers: List[int] = []
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
        #: Events held in blocks, and events ever written into a block
        #: by a compaction or a merge (write amplification's numerator).
        self.block_events = 0
        self.rewritten_events = 0
        self._compact_listeners: List[Callable] = []

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
            help="Merges of two streaming blocks into one",
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
    # The tail
    # ------------------------------------------------------------------
    def _empty_tail(self) -> List[np.ndarray]:
        rows = min(self.compact_every, DEFAULT_COMPACT_EVERY)
        return [np.empty(rows, dtype=dtype) for dtype in _TAIL_DTYPES]

    def _live(self) -> List[np.ndarray]:
        """The tail's live rows: ``(edge id, direction, t)`` views."""
        return [column[:self._tail_len] for column in self._tail]

    def _tail_times(
        self, edge: DirectedEdge
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tail timestamps of one directed edge, unsorted: crossings
        along it, crossings against it."""
        ids, dirs, ts = self._live()
        eid, forward = self._interner.id_of(*edge)  # -1: never seen
        on_edge = ids == eid
        along = dirs == (0 if forward else 1)
        return ts[on_edge & along], ts[on_edge & ~along]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append_events(
        self, events: Union[EventColumns, Iterable[CrossingEvent]]
    ) -> int:
        """Land an arrival window of crossing events in the tail.

        Takes what :func:`~repro.trajectories.columnarize` takes:
        :class:`~repro.trajectories.EventColumns` over this network's
        domain as they are (the framework hands over the window it
        just logged), anything else through
        :meth:`EventColumns.from_events
        <repro.trajectories.EventColumns.from_events>` — either way a
        time-sorted window.  Events on unmonitored edges are dropped
        (exactly as the batch ``build_form`` filter drops them).
        Accepting at least one event bumps :attr:`generation`;
        reaching ``compact_every`` tail events triggers
        :meth:`compact`.  Returns the number of events observed
        (accepted).
        """
        self._guard()
        observed = self.network.observed_columns(
            columnarize(self.network.domain, events)
        )
        n = len(observed)
        if n:
            t = observed.t
            if self.compress:
                # Ingest-boundary quantization (see CompressedTrackingForm)
                t = quantize_times(t, self.tick_bits)
            start, end = self._tail_len, self._tail_len + n
            spare = end - len(self._tail[0])
            if spare > 0:
                grow = max(spare, len(self._tail[0]))
                self._tail = [
                    np.concatenate((column, np.empty(grow, column.dtype)))
                    for column in self._tail
                ]
            ids, dirs, ts = self._tail
            ids[start:end] = observed.edge_id
            dirs[start:end] = observed.direction
            ts[start:end] = t
            self._tail_len = end
            self._tail_min = min(self._tail_min, float(t.min()))
            self._generation += 1
            self.observed_total += n
            self._metric_events.inc(n)
        if self._tail_len >= self.compact_every:
            self.compact()
        else:
            self._update_gauges()
        return n

    def _build(
        self, columns: Sequence[Sequence[np.ndarray]]
    ) -> CompiledTrackingForm:
        """A new immutable block over the concatenated ``(edge id,
        direction, t)`` column triples; nothing of the store changes."""
        ids, dirs, ts = (np.concatenate(parts) for parts in zip(*columns))
        order = np.argsort(ts, kind="stable")
        form, options = CompiledTrackingForm, {}
        if self.compress:
            form, options = CompressedTrackingForm, {"tick_bits": self.tick_bits}
        return form(
            self._interner, ids[order], dirs[order], ts[order],
            boundary_cache_size=self._boundary_cache_size, **options,
        )

    def compact(self) -> bool:
        """Freeze the tail into an immutable CSR block, then merge
        while the tier rule or the ``max_blocks`` cap asks for it.

        Build, then swap: the block is built completely while the
        store still answers from the old tail+blocks; only then does
        it join and the tail reset, so a query issued at any point —
        including from a ``built``-phase :meth:`on_compact` listener —
        sees exactly one copy of every event.  Each merge is the same
        two steps over the two newest blocks.  Returns ``True`` if a
        block was produced.
        """
        self._guard()
        if not self._tail_len:
            return False
        live = self._live()
        block = self._build([live])
        self._fire_compact("built")
        # Atomic swap: the block joins, then the tail resets.  No
        # intermediate state loses or double-counts an event because
        # reads sum tail + blocks and the tail still holds the events
        # until the very last statements below.
        self._blocks.append(block)
        self._tiers.append(0)
        self._zones.append((float(live[2].min()), float(live[2].max())))
        self.block_events += self._tail_len
        self.rewritten_events += self._tail_len
        self._tail = self._empty_tail()
        self._tail_len = 0
        self._tail_min = float("inf")
        self.compactions += 1
        self._generation += 1
        self._metric_compactions.inc()
        try:
            # ``<=`` is ``==`` while tiers descend strictly, as they do
            # unless an earlier merge raised; then it is what heals.
            while len(self._blocks) > 1 and (
                self._tiers[-2] <= self._tiers[-1]
                or len(self._blocks) > self.max_blocks
            ):
                self._merge_newest()
        finally:
            self._update_gauges()
            self._fire_compact("swapped")
        return True

    @staticmethod
    def _columns(block: CompiledTrackingForm) -> Sequence[np.ndarray]:
        """A block's events as ``(edge id, direction, t)`` columns."""
        columns = block.to_columns()
        return columns.edge_id, columns.direction, columns.t

    def _merge_newest(self) -> None:
        """Replace the two newest blocks by one block over their
        events, one tier above the higher of theirs."""
        merged = self._build([self._columns(b) for b in self._blocks[-2:]])
        (lo1, hi1), (lo2, hi2) = self._zones[-2:]
        self._blocks[-2:] = [merged]
        self._tiers[-2:] = [max(self._tiers[-2:]) + 1]
        self._zones[-2:] = [(min(lo1, lo2), max(hi1, hi2))]
        self.rewritten_events += merged.total_events
        self.block_merges += 1
        self._generation += 1
        self._metric_merges.inc()

    def on_compact(self, listener: Callable) -> None:
        """Register ``listener(store, phase)`` fired at every
        compaction, once per phase in :data:`COMPACT_PHASES`:
        ``"built"`` (new block ready, old layout still serving) and
        ``"swapped"`` (new layout live, due merges done)."""
        self._compact_listeners.append(listener)

    def _fire_compact(self, phase: str) -> None:
        for listener in self._compact_listeners:
            listener(self, phase)

    def _update_gauges(self) -> None:
        self._gauge_tail.set(self._tail_len)
        self._gauge_block_events.set(self.block_events)
        self._gauge_blocks.set(len(self._blocks))

    # ------------------------------------------------------------------
    # Count-store interface (sum of per-level answers; Theorem 4.2/4.3
    # integrals are linear over events)
    # ------------------------------------------------------------------
    def count_entering(self, edge: DirectedEdge, t: float) -> int:
        self._guard()
        return int(np.count_nonzero(self._tail_times(edge)[0] <= t)) + sum(
            b.count_entering(edge, t) for b in self._blocks
        )

    def count_leaving(self, edge: DirectedEdge, t: float) -> int:
        # Leaving along an edge is entering along its reverse.
        return self.count_entering(edge[::-1], t)

    def net_until(self, edge: DirectedEdge, t: float) -> int:
        return self.count_entering(edge, t) - self.count_leaving(edge, t)

    def net_between(self, edge: DirectedEdge, t1: float, t2: float) -> int:
        if t2 < t1:
            raise QueryError(f"inverted time interval [{t1}, {t2}]")
        return self.net_until(edge, t2) - self.net_until(edge, t1)

    def integrate_until(
        self, edges: Iterable[DirectedEdge], t: float
    ) -> int:
        return self.integrate_until_ids(*edge_ids(self._interner, edges), t)

    def integrate_between(
        self, edges: Iterable[DirectedEdge], t1: float, t2: float
    ) -> int:
        return self.integrate_between_ids(
            *edge_ids(self._interner, edges), t1, t2
        )

    # ------------------------------------------------------------------
    # Id-native chain integration (the compiled planner's fast path)
    # ------------------------------------------------------------------
    def integrate_at_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, times: Sequence[float]
    ) -> List[int]:
        """Cumulative net of an id-native chain at each of ``times``,
        summed over the levels by the zone map: a block wholly at or
        before a time adds its per-edge totals (no search), a block
        wholly after it adds nothing, and only a block straddling it
        is ranked — one per time when arrivals are time-ordered.  The
        tail folds in from its earliest timestamp on: the chain's
        signs scattered over the id universe weigh every tail row at
        once, and each time is one masked sum."""
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
            ids, dirs, ts = self._live()
            weight = np.bincount(
                wall_ids, weights=signs, minlength=len(self._interner)
            )
            signed = weight[ids] * (1 - 2 * dirs)
            for i in late:
                totals[i] += int(signed[ts <= times[i]].sum())
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
        store's answers (flight digests) keys on it."""
        return self._generation

    @property
    def tail_events(self) -> int:
        return self._tail_len

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def total_events(self) -> int:
        return self.tail_events + self.block_events

    def edges(self) -> Iterator[DirectedEdge]:
        """Canonical edges with recorded crossings, across all levels."""
        seen = {
            self._interner.edge(eid)
            for eid in np.unique(self._live()[0]).tolist()
        }
        for block in self._blocks:
            seen.update(block.edges())
        return iter(sorted(seen))

    def timestamps(
        self, edge: DirectedEdge
    ) -> Tuple[List[float], List[float]]:
        plus, minus = (times.tolist() for times in self._tail_times(edge))
        for block in self._blocks:
            p, m = block.timestamps(edge)
            plus.extend(p)
            minus.extend(m)
        return (sorted(plus), sorted(minus))

    def event_count(self, edge: DirectedEdge) -> int:
        return sum(map(len, self._tail_times(edge))) + sum(
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
        succinct layout there); the tail is charged the bytes of its
        live rows (4 B edge id + 1 B direction + 8 B timestamp each).
        """
        components = {"tail": sum(int(c.nbytes) for c in self._live())}
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
        tail = EventColumns(self._interner, *self._live())
        return EventColumns.concat(
            [block.to_columns() for block in self._blocks] + [tail]
        )

    def describe(self) -> Dict[str, object]:
        """Layout summary (CLI, dashboards, tests)."""
        return {
            "tail_events": self.tail_events,
            "block_events": self.block_events,
            "blocks": self.block_count,
            "compactions": self.compactions,
            "block_merges": self.block_merges,
            "rewritten_events": self.rewritten_events,
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
