"""Compiled (columnar/CSR) tracking forms (Eq. 8, vectorised).

:class:`CompiledTrackingForm` stores the same information as
:class:`~repro.forms.tracking.TrackingForm` — the ordered multiset of
crossing timestamps per directed edge — but in two CSR-style contiguous
array pairs (sorted ``values`` + per-edge ``offsets``, one pair per
direction) addressed by interned edge ids.  Counting is a single
``np.searchsorted`` over one contiguous segment instead of a dict hit +
``bisect`` per call.  Boundary integration is **rank-first**: a chain's
first touch ranks every boundary segment at once, and only its second
touch promotes it to a merged, sign-weighted, prefix-summed timestamp
series (LRU-cached), after which the whole boundary is **one** binary
search per query.  The rank has two regimes (:mod:`~repro.forms.rank`),
chosen from the lane count: a single chain's few hundred (edge,
direction, time) lanes search the form's
:class:`~repro.forms.rank.RankIndex` twice, built at construction from
the permutation that builds the column (8 bytes of sorted time plus a
4- or 8-byte key per event, in memory only); a batch's lanes, from
1024 on, run :func:`~repro.forms.rank.segmented_rank`'s halving, whose
cost follows the boundary length as Theorems 4.2/4.3 promise.

Counts are bit-identical to ``TrackingForm``: both stores resolve the
direction through the same canonicalisation and count with
right-continuous ``<= t`` semantics on the same ``float64`` timestamps.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..errors import QueryError
from ..obs import get_registry
from .rank import RankIndex, chain_lanes, csr_take, narrowest, time_lanes
from .snapshot import DirectedEdge, _canonical

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planar import EdgeInterner


#: Default cap of the compiled-boundary LRU cache.  A chain is admitted
#: on its second touch, so the cache holds re-used chains only: 2.5x the
#: few hundred a dashboard replays, about 130 MB in the worst case of
#: 8k merged events a chain.  The seen-once set is bounded by the same
#: number.
DEFAULT_BOUNDARY_CACHE_SIZE = 1024


def edge_ids(
    interner: "EdgeInterner", edges: Iterable[DirectedEdge]
) -> Tuple[np.ndarray, np.ndarray]:
    """A directed-edge chain as id-native ``(wall_ids, signs)``; edges
    the interner never saw have no events and drop out."""
    ids: List[int] = []
    signs: List[int] = []
    for edge in edges:
        key, forward = _canonical(edge)
        eid = interner.id_of_canonical(key)
        if eid >= 0:
            ids.append(eid)
            signs.append(1 if forward else -1)
    return np.asarray(ids, dtype=np.int32), np.asarray(signs, dtype=np.int8)


def _joint_rows(offsets) -> np.ndarray:
    """Offsets of the two directions' segments in one joint column
    (int64, whatever width the stored offsets have)."""
    plus, minus = (o.astype(np.int64) for o in offsets)
    return np.concatenate((plus[:-1], minus + plus[-1]))


class CompiledTrackingForm:
    """CSR-compiled γ⁺/γ⁻ timestamp store with batched integration."""

    def __init__(
        self,
        interner: "EdgeInterner",
        edge_id: np.ndarray,
        direction: np.ndarray,
        t: np.ndarray,
        boundary_cache_size: int = DEFAULT_BOUNDARY_CACHE_SIZE,
    ) -> None:
        """Compile from columnar event arrays (``t`` sorted ascending).

        ``direction`` follows the :class:`~repro.trajectories.EventColumns`
        convention: 0 = along the canonical edge orientation (γ⁺ of the
        canonical direction), 1 = against it.  ``boundary_cache_size``
        caps the compiled-boundary LRU cache (least recently integrated
        chains are evicted first; 0 disables caching entirely).  A
        float64 ``t`` is kept, not copied, as the rank index's sorted
        column: leave it unmodified.
        """
        self._interner = interner
        # Number of ids frozen at compile time; the shared interner may
        # keep growing afterwards, those edges simply have no events.
        self._n_ids = len(interner)
        n_ids = self._n_ids

        # Ids as the narrowest unsigned key that holds them: at 16 bits
        # or fewer numpy's stable argsort is a radix sort.
        edge_id = np.asarray(edge_id).astype(np.min_scalar_type(n_ids))
        direction = np.asarray(direction)
        t = np.ascontiguousarray(t, dtype=np.float64)

        csr = []
        for d in (0, 1):
            src = np.flatnonzero(direction == d)
            ids_d = edge_id[src]
            # Stable sort by edge id keeps each edge's segment in the
            # original (global time) order, i.e. sorted ascending.
            src = src[np.argsort(ids_d, kind="stable")]
            counts = np.bincount(ids_d, minlength=n_ids)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            csr.append((t[src], narrowest(offsets), src))
        self._set_csr(*zip(*csr), t)
        self._init_runtime_state(boundary_cache_size)

    def _set_csr(self, values, offsets, sources, t) -> None:
        """Install freshly built per-direction CSR columns.

        Both directions share one contiguous column (direction 1 after
        direction 0) under one joint offsets array, ``_rows``: row
        ``d * n_ids + eid`` is the segment of ``(eid, d)``, so a
        chain's lanes of both directions rank in a single kernel pass.
        The stored offsets come narrow
        (:func:`~repro.forms.rank.narrowest`); arithmetic runs on the
        int64 ``_rows``.
        ``sources`` are the positions in ``t`` the column was gathered
        from: with ``t`` ascending, an element's source is its place in
        a stable sort of the column, and the rank index needs no sort.
        """
        self._column = np.concatenate(values)
        self._offsets = (offsets[0], offsets[1])
        self._rows = _joint_rows(offsets)
        if t.size and not (t[:-1] <= t[1:]).all():
            sources, t = None, None  # not time-sorted: the index sorts
        else:
            sources = np.concatenate(sources)
        self._index = RankIndex(self._column, self._rows, sources, t)

    def to_columns(self, interner: "EdgeInterner" = None):
        """Reconstruct the stored events as time-sorted
        :class:`~repro.trajectories.EventColumns` (streaming snapshot
        interop; the per-event order of simultaneous crossings is not
        preserved)."""
        from ..trajectories import EventColumns

        ids_parts: List[np.ndarray] = []
        dir_parts: List[np.ndarray] = []
        t_parts: List[np.ndarray] = []
        for d in (0, 1):
            counts = np.diff(self._offsets[d])
            n = int(counts.sum())
            ids_parts.append(
                np.repeat(
                    np.arange(len(counts), dtype=np.int32),
                    counts,
                )
            )
            dir_parts.append(np.full(n, d, dtype=np.int8))
            t_parts.append(self._direction_values(d))
        columns = EventColumns(
            interner=interner if interner is not None else self._interner,
            edge_id=np.concatenate(ids_parts),
            direction=np.concatenate(dir_parts),
            t=np.concatenate(t_parts),
        )
        return columns.time_sorted()

    def _init_runtime_state(self, boundary_cache_size: int) -> None:
        """Per-instance mutable state: boundary cache + metric refs.

        Shared by the compiling constructor and the zero-copy
        :meth:`shm_attach` path (which bypasses ``__init__``).
        """
        #: Compiled boundary chains, LRU-ordered (least recently used
        #: first), keyed on the ``(wall_ids, signs)`` byte digest of
        #: the chain; values are ``(times, prefix)``.
        self._boundaries: "OrderedDict[object, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._boundary_cache_size = int(boundary_cache_size)
        #: Digest hashes of chains ranked once and not yet promoted,
        #: oldest first, at most ``boundary_cache_size`` of them.  A
        #: hash collision promotes a chain one touch early; it cannot
        #: change an answer.
        self._seen: Dict[int, None] = {}

        # Instrument references are bound to the registry current at
        # compile time (swap the global registry before building the
        # pipeline you want measured).
        registry = get_registry()
        self._metric_searchsorted = registry.counter(
            "repro_csr_searchsorted_total",
            help="Evaluations by compiled forms: a chain's, a batch's "
            "first-touch chains together, or one edge's",
        )
        self._metric_boundary_compiles = registry.counter(
            "repro_csr_boundary_cache_total",
            help="Boundary-chain compilations by cache outcome",
            outcome="compile",
        )
        self._metric_boundary_hits = registry.counter(
            "repro_csr_boundary_cache_total",
            help="Boundary-chain compilations by cache outcome",
            outcome="hit",
        )
        self._metric_boundary_evictions = registry.counter(
            "repro_csr_boundary_cache_total",
            help="Boundary-chain compilations by cache outcome",
            outcome="evict",
        )

    # ------------------------------------------------------------------
    # Shared-memory interop (the sharded engine's zero-copy transport)
    # ------------------------------------------------------------------
    def shm_pack(self, hint: str = "form"):
        """Copy the compiled CSR arrays into a shared-memory segment.

        Returns ``(handle, descriptor)``.  The descriptor is JSON-safe
        — segment name, per-array ``(dtype, shape, offset)`` and the
        compile-time id universe ``n_ids`` — and another process turns
        it back into a working form with :meth:`shm_attach` without
        re-sorting anything.  The caller owns the segment: close and
        unlink it (:func:`repro.shm.destroy_segment`) once every
        attached consumer is done.
        """
        from .. import shm as shm_mod

        handle, descriptor = shm_mod.pack_arrays(
            {
                "values": self._column,
                "offsets0": self._offsets[0],
                "offsets1": self._offsets[1],
            },
            hint=hint,
        )
        descriptor["n_ids"] = int(self._n_ids)
        return handle, descriptor

    @classmethod
    def shm_attach(
        cls,
        descriptor,
        interner: "EdgeInterner",
        boundary_cache_size: int = DEFAULT_BOUNDARY_CACHE_SIZE,
    ) -> "CompiledTrackingForm":
        """Zero-copy form over a :meth:`shm_pack` descriptor.

        The CSR arrays are numpy views straight into the packing
        process's segment; only the boundary cache and metric bindings
        are local.  ``n_ids`` comes from the descriptor (the packing
        form's frozen id universe), *not* from the current interner
        length — the shared interner may have grown since the pack, and
        those newer edges must keep reading as "no events" exactly as
        they do on the packing side.
        """
        from .. import shm as shm_mod

        handle, views = shm_mod.attach_arrays(descriptor)
        form = cls.__new__(cls)
        form._interner = interner
        form._n_ids = int(descriptor["n_ids"])
        form._column = views["values"]
        form._offsets = (views["offsets0"], views["offsets1"])
        form._rows = _joint_rows(form._offsets)
        form._index = RankIndex(form._column, form._rows)
        form._init_runtime_state(boundary_cache_size)
        # Pin the mapping for the lifetime of the form.
        form._shm_handle = handle
        return form

    # ------------------------------------------------------------------
    # Per-edge count function C(γ(e), t) (§4.7.3)
    # ------------------------------------------------------------------
    def _segment_ids(self, eid: int, d: int) -> np.ndarray:
        """Sorted timestamp segment of one (edge id, direction).

        The raw-storage access point of the per-edge read path:
        subclasses with a different physical layout (the succinct tier,
        :class:`~repro.forms.succinct.CompressedTrackingForm`) override
        this, :meth:`_direction_values`, :meth:`_direction_slices` and
        :meth:`_rank_lanes` instead of every caller.
        """
        row = d * self._n_ids + eid
        return self._column[self._rows[row]:self._rows[row + 1]]

    def _direction_values(self, d: int) -> np.ndarray:
        """The full contiguous timestamp column of one direction."""
        split = self._offsets[0][-1]
        return self._column[split:] if d else self._column[:split]

    def _direction_slices(
        self, wall_ids: np.ndarray, d: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather many edges' segments of one direction at once.

        Returns ``(values, lens)`` — the concatenation of each wall's
        sorted timestamp segment (in ``wall_ids`` order) and the
        per-wall segment lengths.  This is the bulk-storage access
        point of boundary compilation; the succinct tier overrides it
        to decode straight out of compressed blocks.
        """
        rows = self._rows
        wall_ids = wall_ids + d * self._n_ids
        lens = rows[wall_ids + 1] - rows[wall_ids]
        return self._column[csr_take(rows[wall_ids], lens)], lens

    def _rank_lanes(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Per lane, the rank of time ``t`` in joint-column row
        ``rows`` (the two broadcast: flat lanes, or a chain's rows as a
        column against its times) — the storage hook under every
        first-touch read, a single chain's and a whole batch's alike:
        a chain's few hundred lanes search the rank index twice, a
        batch's from ``_ORDER_FROM`` (1024) lanes on halve
        (:mod:`~repro.forms.rank`)."""
        return self._index.rank(rows, t)

    def _rank_chain(
        self, wall_ids: np.ndarray, signs: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Cumulative net of a chain at each of ``times`` by ranking:
        one lane per (edge, direction, time) — every edge's entering
        segment, then every edge's leaving one — one kernel pass, no
        merged copy.  ``wall_ids`` are int64 ids inside the frozen id
        universe; the result has the shape of ``times``."""
        rows = np.concatenate((wall_ids, wall_ids + self._n_ids))
        ranks = self._rank_lanes(*time_lanes(rows, times))
        ranks = ranks.reshape(rows.size, times.size)
        return (np.concatenate((signs, -signs)) @ ranks).reshape(times.shape)

    def _segment(self, edge: DirectedEdge, entering: bool) -> np.ndarray:
        key, forward = _canonical(edge)
        eid = self._interner.id_of_canonical(key)
        if eid < 0 or eid >= self._n_ids:
            return _EMPTY
        d = 0 if (forward == entering) else 1
        return self._segment_ids(int(eid), d)

    def count_entering(self, edge: DirectedEdge, t: float) -> int:
        """``C(γ⁺(e), t)``: crossings in the direction of ``edge`` to t."""
        segment = self._segment(edge, entering=True)
        self._metric_searchsorted.inc()
        return int(np.searchsorted(segment, t, side="right"))

    def count_leaving(self, edge: DirectedEdge, t: float) -> int:
        """``C(γ⁻(e), t)``: crossings against the direction of ``edge``."""
        segment = self._segment(edge, entering=False)
        self._metric_searchsorted.inc()
        return int(np.searchsorted(segment, t, side="right"))

    def net_until(self, edge: DirectedEdge, t: float) -> int:
        """``C(γ⁺(e), t) - C(γ⁻(e), t)`` — the Theorem 4.2 integrand."""
        return self.count_entering(edge, t) - self.count_leaving(edge, t)

    def net_between(self, edge: DirectedEdge, t1: float, t2: float) -> int:
        """Net crossings during ``(t1, t2]`` (Theorem 4.3 integrand)."""
        if t2 < t1:
            raise QueryError(f"inverted time interval [{t1}, {t2}]")
        return self.net_until(edge, t2) - self.net_until(edge, t1)

    # ------------------------------------------------------------------
    # Batched region integration
    # ------------------------------------------------------------------
    def _cache_get(self, key) -> Tuple[np.ndarray, np.ndarray]:
        compiled = self._boundaries.get(key)
        if compiled is not None:
            self._boundaries.move_to_end(key)
            self._metric_boundary_hits.inc()
        return compiled

    def _cache_put(self, key, compiled) -> None:
        self._metric_boundary_compiles.inc()
        cap = self._boundary_cache_size
        if cap <= 0:
            return
        self._boundaries[key] = compiled
        while len(self._boundaries) > cap:
            self._boundaries.popitem(last=False)
            self._metric_boundary_evictions.inc()

    def _second_touch(self, key) -> bool:
        """Whether this cache miss is the chain's second touch; a
        first touch is remembered (oldest forgotten past the cap)."""
        seen, mark = self._seen, hash(key)
        if mark in seen:
            del seen[mark]
            return True
        cap = self._boundary_cache_size
        if cap > 0:
            if len(seen) >= cap:
                del seen[next(iter(seen))]
            seen[mark] = None
        return False

    @staticmethod
    def _chain_key(wall_ids, signs):
        """Canonical chain arrays and their byte digest.

        Fixed widths (int32 ids, int8 signs) before hashing, so the
        digest — and every downstream consumer of it (boundary LRU,
        seen-once set, flight digests) — is
        identical regardless of the width the caller's platform
        promoted to.  No per-edge tuple hashing: a repeated chain costs
        two ``tobytes`` calls and one dict hit.
        """
        wall_ids = np.ascontiguousarray(wall_ids, dtype=np.int32)
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        return wall_ids, signs, (wall_ids.tobytes(), signs.tobytes())

    def _known(self, wall_ids, signs) -> Tuple[np.ndarray, np.ndarray]:
        """The chain as int64 arrays, without edges interned after
        compile time (they have no recorded events)."""
        wall_ids = wall_ids.astype(np.int64)
        signs = signs.astype(np.int64)
        known = wall_ids < self._n_ids
        if known.all():
            return wall_ids, signs
        return wall_ids[known], signs[known]

    def compile_boundary_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merged signed-event series of a boundary chain (cached).

        ``wall_ids`` are interned canonical-edge ids, ``signs`` is +1
        where the chain traverses the canonical orientation and -1
        against it.  Concatenates every boundary edge's entering
        timestamps with weight +1 and leaving timestamps with weight
        -1, sorts by time and prefix-sums the weights:
        ``prefix[searchsorted(times, t, 'right')]`` is then exactly
        ``sum(net_until(e, t) for e in chain)`` — the whole chain
        integrates with one binary search.  Compiles and caches
        unconditionally; the integration entry points call it only on
        a chain's second touch.
        """
        wall_ids, signs, key = self._chain_key(wall_ids, signs)
        compiled = self._cache_get(key)
        if compiled is not None:
            return compiled
        wall_ids, signs = self._known(wall_ids, signs)
        parts: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        for d, polarity in ((0, 1), (1, -1)):
            vals, lens = self._direction_slices(wall_ids, d)
            parts.append(vals)
            weights.append(np.repeat(polarity * signs, lens))
        times = np.concatenate(parts)
        order = np.argsort(times, kind="stable")
        prefix = np.concatenate(([0], np.cumsum(np.concatenate(weights)[order])))
        compiled = (times[order], prefix)
        self._cache_put(key, compiled)
        return compiled

    def integrate_at_ids(self, wall_ids: np.ndarray, signs: np.ndarray, times):
        """Cumulative net of an id-native chain at each of ``times``
        (a scalar or a sequence; the result has its shape) — the one
        touch every Theorem 4.2/4.3 evaluation reduces to.

        A cached chain is one ``searchsorted``.  Otherwise the chain's
        first touch is answered by ranking its segments directly
        (:meth:`_rank_chain`) and remembered; its second touch promotes
        it through :meth:`compile_boundary_ids` into the LRU, which
        therefore holds re-used chains only.
        """
        wall_ids, signs, key = self._chain_key(wall_ids, signs)
        self._metric_searchsorted.inc()
        compiled = self._cache_get(key)
        if compiled is None:
            if not self._second_touch(key):
                return self._rank_chain(
                    *self._known(wall_ids, signs),
                    np.asarray(times, dtype=np.float64),
                )
            compiled = self.compile_boundary_ids(wall_ids, signs)
        series, prefix = compiled
        return prefix[np.searchsorted(series, times, side="right")]

    def integrate_batch(
        self, chains, touches: np.ndarray, cuts: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Cumulative net at every evaluation point of a batch.
        ``chains`` is a CSR of chains (see
        :func:`~repro.forms.rank.chain_lanes`); the points come grouped
        by chain, chain ``c`` evaluated at
        ``times[cuts[c]:cuts[c + 1]]``.

        Answers what ``touches[c]`` successive :meth:`integrate_at_ids`
        calls per chain would, with the same cache traffic: a cached
        chain counts that many hits, a chain on (or reaching, inside
        this batch) its second touch is compiled once, and either
        answers all its points with **one** ``searchsorted``; every
        first-touch chain × time of the batch becomes a lane of **one**
        kernel call.

        The limit of that equivalence: chains are touched here grouped
        by chain, not in query order, so the cache and the seen-once
        set end up as the loop would leave them only while the
        distinct chains of the batch fit both (``boundary_cache_size``
        each).  Past that the two orders evict — and from then on
        promote — differently; the answers are the same either way.
        """
        out = np.empty(times.size, dtype=np.int64)
        ranked = np.zeros(touches.size, dtype=bool)
        for c in np.flatnonzero(touches).tolist():
            link = chains[c]
            ids, signs, key = self._chain_key(link.wall_ids, link.signs)
            hits = int(touches[c]) - 1
            compiled = self._cache_get(key)
            if compiled is None:
                if not self._second_touch(key):
                    if not hits or self._boundary_cache_size <= 0:
                        ranked[c] = True
                        continue
                    # The batch's own second query promotes the chain.
                    self._second_touch(key)
                    hits -= 1
                compiled = self.compile_boundary_ids(ids, signs)
            self._metric_boundary_hits.inc(hits)
            self._metric_searchsorted.inc()
            series, prefix = compiled
            at = slice(cuts[c], cuts[c + 1])
            out[at] = prefix[np.searchsorted(series, times[at], side="right")]
        chain = np.repeat(np.arange(touches.size), np.diff(cuts))
        at = np.flatnonzero(ranked[chain])
        if at.size:
            self._metric_searchsorted.inc()
            point, walls, signs, t = chain_lanes(
                chains, chain[at], times[at], self._n_ids
            )
            ranks = self._rank_lanes(
                np.concatenate((walls, walls + self._n_ids)),
                np.concatenate((t, t)),
            )
            net = (ranks[:walls.size] - ranks[walls.size:]) * signs
            out[at] = np.bincount(point, weights=net, minlength=at.size)
        return out

    def integrate_until_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, t: float
    ) -> int:
        """Theorem 4.2 over an id-native chain."""
        return int(self.integrate_at_ids(wall_ids, signs, t))

    def integrate_between_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, t1: float, t2: float
    ) -> int:
        """Theorem 4.3 over an id-native chain."""
        if t2 < t1:
            raise QueryError(f"inverted time interval [{t1}, {t2}]")
        lo, hi = self.integrate_at_ids(wall_ids, signs, (t1, t2))
        return int(hi - lo)

    def net_total_ids(self, wall_ids: np.ndarray, signs: np.ndarray) -> int:
        """The chain's net over *every* stored event (``t`` past the
        last one), straight from the offsets: no search."""
        wall_ids, signs = self._known(np.asarray(wall_ids), np.asarray(signs))
        rows, leaving = self._rows, wall_ids + self._n_ids
        lens = (rows[wall_ids + 1] - rows[wall_ids]) - (
            rows[leaving + 1] - rows[leaving]
        )
        return int(signs @ lens)

    def integrate_until(
        self, edges: Iterable[DirectedEdge], t: float
    ) -> int:
        """Theorem 4.2 over a directed-edge boundary chain."""
        return self.integrate_until_ids(*edge_ids(self._interner, edges), t)

    def integrate_between(
        self, edges: Iterable[DirectedEdge], t1: float, t2: float
    ) -> int:
        """Theorem 4.3 over a directed-edge boundary chain."""
        return self.integrate_between_ids(
            *edge_ids(self._interner, edges), t1, t2
        )

    # ------------------------------------------------------------------
    # Introspection / storage accounting (TrackingForm drop-in surface)
    # ------------------------------------------------------------------
    def _per_edge_counts(self) -> np.ndarray:
        counts = np.diff(self._rows)
        return counts[:self._n_ids] + counts[self._n_ids:]

    def edges(self) -> Iterator[DirectedEdge]:
        """Canonical undirected edges that have recorded crossings."""
        edge = self._interner.edge
        for eid in np.flatnonzero(self._per_edge_counts()):
            yield edge(int(eid))

    def timestamps(
        self, edge: DirectedEdge
    ) -> Tuple[List[float], List[float]]:
        """``(γ⁺, γ⁻)`` timestamp lists for the given directed edge."""
        return (
            self._segment(edge, entering=True).tolist(),
            self._segment(edge, entering=False).tolist(),
        )

    def event_count(self, edge: DirectedEdge) -> int:
        """Total stored timestamps (both directions) for an edge."""
        return len(self._segment(edge, True)) + len(self._segment(edge, False))

    @property
    def total_events(self) -> int:
        # Row-based so subclasses without materialised values
        # (the succinct tier) inherit it unchanged.
        return int(self._rows[-1])

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._per_edge_counts()))

    def storage_profile(self) -> List[int]:
        """Per-edge stored timestamp counts (the Fig. 11e CDF input)."""
        counts = self._per_edge_counts()
        return sorted(int(c) for c in counts[counts > 0])

    def _storage_components(self) -> dict:
        return {
            "values": int(self._column.nbytes),
            "offsets": int(
                self._offsets[0].nbytes + self._offsets[1].nbytes
            ),
        }

    def storage_report(self) -> dict:
        """Bytes-per-component accounting in the unified store schema.

        Every store exposes the same shape — ``{"store", "events",
        "total_bytes", "derived_bytes", "components": {name: bytes}}``
        — so the CLI ``--storage`` flag renders any deployment without
        per-class cases.  ``total_bytes``
        is the stored (wire) format; ``derived_bytes``, beside it, is
        what in-memory-only indexes rebuilt from that format cost (the
        succinct tier's decode directory; 0 for stores without one).
        """
        components = self._storage_components()
        return {
            "store": type(self).__name__,
            "events": int(self.total_events),
            "total_bytes": int(sum(components.values())),
            "derived_bytes": self._derived_bytes(),
            "components": components,
        }

    def _derived_bytes(self) -> int:
        return int(self._rows.nbytes) + self._index.nbytes

    def __repr__(self) -> str:
        return (
            f"CompiledTrackingForm(edges={self.edge_count}, "
            f"events={self.total_events}, "
            f"compiled_boundaries={len(self._boundaries)})"
        )


_EMPTY = np.empty(0, dtype=np.float64)
