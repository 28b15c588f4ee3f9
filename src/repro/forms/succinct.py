"""Succinct (delta + bit-packed) tracking forms — the compressed tier.

:class:`CompressedTrackingForm` stores the same per-edge crossing
timestamp multisets as :class:`~repro.forms.compiled.CompiledTrackingForm`
but roughly 4× smaller: per (edge, direction) segment the first
timestamp's **tick** (a dyadic fixed-point integer, see
:func:`quantize_times`) is kept as a 64-bit frame-of-reference head and
the remaining values as consecutive non-negative deltas, chunked into
blocks of :data:`DEFAULT_BLOCK` deltas, each block bit-packed at the
width of its largest delta.  A block of identical timestamps packs to
**zero** payload bits (width 0), so heavy-duplicate edges are nearly
free.

Reads never inflate a column.  A chain's first touch *ranks*: per
(edge, time) lane, the last block whose first tick is ``<= t`` in a
per-block **first-tick directory** — found by the directory's own
:class:`~repro.forms.rank.RankIndex` below 1024 lanes, by
:func:`~repro.forms.rank.segmented_rank` from there on — and exactly
that one block is bit-unpacked —
all lanes together, one 8-byte window + shift + mask per delta; a
batch's lanes decode each block they straddle once.  Chain
compilation (second touch), per-edge reads and the full decode behind
``to_columns`` run the same vectorised block decode over more blocks.
Everything above the storage hooks (the boundary LRU, promotion,
metrics) is inherited from the compiled form unchanged, which is what
makes compressed answers byte-identical to uncompressed ones built from
the same quantized columns.

Wire format vs derived index: offsets, heads, widths and payload are
the stored (and shm-shipped) format, ``storage_report()["total_bytes"]``.
The directory, its rank index and the other decode indexes are
rebuilt from them (or, at construction, taken from the ticks the
encoder already holds) and are reported beside it as
``derived_bytes``.

Exactness contract: timestamps must be quantized **once at the ingest
boundary** (``EventColumns.quantized`` / ``quantize_times``).  A
quantized value is ``k * 2**-tick_bits`` with integer ``k`` — exactly
representable in float64 — so ``decode(encode(t)) == t`` bit-for-bit
and the compressed form is a lossless store of the quantized multiset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .compiled import (
    DEFAULT_BOUNDARY_CACHE_SIZE,
    CompiledTrackingForm,
    _joint_rows,
)
from .rank import RankIndex, csr_take, segmented_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planar import EdgeInterner

#: Default timestamp resolution: ``2**tick_bits`` ticks per second.
#: 0 — whole seconds — is where trajectory workloads sit (sub-second
#: crossing precision is below GPS noise) and clears the 4× floor.
DEFAULT_TICK_BITS = 0

#: Deltas per bit-packed block.  32 measured best at DEFAULT scale:
#: small enough that one large gap only inflates 32 deltas' width,
#: large enough that the per-block width byte stays amortised.
DEFAULT_BLOCK = 32

#: Widest delta the decoder extracts: a field starts up to 7 bits into
#: its first byte and has to end inside one 8-byte window.  2**57 ticks
#: is millennia at the finest resolution the framework accepts.
MAX_WIDTH = 57

#: Lane count from which :meth:`CompressedTrackingForm._rank_lanes`
#: decodes each distinct straddled block once instead of one block per
#: lane, and the most blocks it decodes in one go (32 slots each).
#: Measured on the e2e ``tiered_tolerant`` store (seed 13): a single
#: query's chain (≈ 140 lanes) ranks in 150 µs a lane at a time and in
#: 195 µs deduplicated; the two meet between 512 and 1024 lanes, and a
#: 500-query batch's 61k lanes take 36 ms per lane against 10 ms per
#: block.
_DECODE_LANES = 1024

_EMPTY = np.empty(0, dtype=np.float64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)


def quantize_times(t: np.ndarray, tick_bits: int = DEFAULT_TICK_BITS):
    """Snap timestamps to the dyadic grid ``k * 2**-tick_bits``.

    Monotone (preserves sort order) and idempotent; the result is a
    float64 array every value of which round-trips exactly through the
    integer tick encoding.
    """
    scale = float(2.0 ** tick_bits)
    return np.round(np.asarray(t, dtype=np.float64) * scale) / scale


def _pack_deltas(deltas: np.ndarray, width: int) -> np.ndarray:
    """Bit-pack non-negative int64 deltas at ``width`` bits, MSB first."""
    if width == 0:
        return _EMPTY_U8
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = ((deltas[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel())


def _windows(payload: np.ndarray) -> np.ndarray:
    """Every 8-byte big-endian window of a payload — entry ``i`` reads
    bytes ``i .. i+7`` — as a strided view (a payload shorter than one
    window is zero-padded to it)."""
    if len(payload) < 8:
        payload = np.concatenate(
            (payload, np.zeros(8 - len(payload), dtype=np.uint8))
        )
    return np.ndarray(
        (len(payload) - 7,), dtype=">u8", buffer=payload, strides=(1,)
    )


def _unpack_bits(windows: np.ndarray, bit, width) -> np.ndarray:
    """The ``width``-bit fields (MSB first, ``width <= MAX_WIDTH``)
    starting at absolute bit offsets ``bit``: one window gather, one
    shift, one mask, whatever the shapes ``bit`` and ``width``
    broadcast to."""
    byte = bit >> 3
    # The last window ends with the payload: a field starting in its
    # final bytes is read from there, further from the window's top.
    np.minimum(byte, len(windows) - 1, out=byte)
    shift = byte << 3
    shift -= bit
    shift += 64 - width
    field = windows[byte].astype(np.uint64)
    field >>= shift.view(np.uint64)
    field &= ((1 << width) - 1).view(np.uint64)
    return field.view(np.int64)


def _unpack_deltas(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_deltas` for ``n`` deltas."""
    bit = np.arange(n, dtype=np.int64) * width
    return _unpack_bits(_windows(buf), bit, np.int64(width))


class _Blocks:
    """The compressed joint column (direction 1's segments after
    direction 0's, rows as in ``CompiledTrackingForm._rows``).

    ``heads`` / ``widths`` / ``payload`` are the stored format.  The
    rest is the decode index :meth:`derive` rebuilds from them and the
    row offsets — at construction, shm attach and after an append —
    and that is never stored or shipped.
    """

    __slots__ = (
        "heads", "widths", "payload", "block", "seg_rank", "block_starts",
        "byte_starts", "block_len", "directory", "windows", "index",
    )

    def __init__(self, heads, widths, payload) -> None:
        self.heads = heads    # int64, one per nonempty segment
        self.widths = widths  # uint8, one per block
        self.payload = payload  # uint8 packed delta bits

    @property
    def derived_bytes(self) -> int:
        return int(
            self.seg_rank.nbytes + self.block_starts.nbytes
            + self.byte_starts.nbytes + self.block_len.nbytes
            + self.directory.nbytes + self.index.nbytes
        )

    def derive(
        self, rows: np.ndarray, block: int,
        ticks: Optional[np.ndarray] = None,
    ) -> "_Blocks":
        """Build the decode index.

        Per row the rank of its nonempty segment (-1 if empty); per
        segment its first block; per block its delta count, its byte
        offset into the payload and — the **directory** — the tick its
        deltas accumulate from (the segment's value at index ``32 b``),
        and the directory's rank index (segments as its rows).
        ``ticks`` is the joint tick column when the caller (the
        encoder) still holds it; otherwise the directory is summed out
        of the decoded deltas.
        """
        counts = np.diff(rows)
        nonempty = counts > 0
        self.block = block
        self.seg_rank = np.cumsum(nonempty, dtype=np.int64) - 1
        self.seg_rank[~nonempty] = -1
        # Delta stream of a segment of length L has L-1 entries.
        n_deltas = counts[nonempty] - 1
        n_blocks = -(-n_deltas // block)
        self.block_starts = np.concatenate(([0], np.cumsum(n_blocks)))
        segment = np.repeat(np.arange(len(n_blocks)), n_blocks)
        first = self.block_starts[segment]
        within = np.arange(len(segment)) - first
        block_len = np.minimum(n_deltas[segment] - within * block, block)
        self.block_len = block_len.astype(np.min_scalar_type(block))
        nbytes = (block_len * self.widths + 7) // 8
        self.byte_starts = np.concatenate(([0], np.cumsum(nbytes)))
        self.windows = _windows(self.payload)
        if ticks is not None:
            starts = rows[:-1][nonempty]
            self.directory = ticks[starts[segment] + within * block]
        else:
            every = np.arange(len(segment))
            sums = (self.deltas(every) * self.valid(every)).sum(axis=1)
            before = np.cumsum(sums) - sums
            self.directory = self.heads[segment] + before - before[first]
        self.index = RankIndex(self.directory, self.block_starts)
        return self

    def deltas(self, take: np.ndarray) -> np.ndarray:
        """Bit-unpack blocks ``take``: one row of ``block`` slots per
        block.  Slots past a block's length (:meth:`valid`) hold its
        neighbours' bits — some non-negative number."""
        width = self.widths[take].astype(np.int64)[:, None]
        bit = np.arange(self.block) * width
        bit += (self.byte_starts[take] << 3)[:, None]
        return _unpack_bits(self.windows, bit, width)

    def valid(self, take: np.ndarray) -> np.ndarray:
        return np.arange(self.block) < self.block_len[take][:, None]

    def decode(self, take: np.ndarray) -> np.ndarray:
        """Ticks of blocks ``take`` (rows as in :meth:`deltas`; past a
        block's length they keep ascending, on junk)."""
        ticks = np.cumsum(self.deltas(take), axis=1)
        ticks += self.directory[take][:, None]
        return ticks


def _encode(
    values: np.ndarray, rows: np.ndarray, tick_bits: int, block: int
) -> _Blocks:
    """Compress a joint CSR column into delta blocks."""
    scale = float(2.0 ** tick_bits)
    ticks = np.rint(np.asarray(values, dtype=np.float64) * scale).astype(
        np.int64
    )
    nonempty = np.flatnonzero(np.diff(rows))
    heads = np.empty(len(nonempty), dtype=np.int64)
    widths: List[int] = []
    chunks: List[np.ndarray] = []
    for rank, row in enumerate(nonempty):
        lo = int(rows[row])
        hi = int(rows[row + 1])
        heads[rank] = ticks[lo]
        deltas = np.diff(ticks[lo:hi])
        for start in range(0, len(deltas), block):
            chunk = deltas[start:start + block]
            width = int(chunk.max()).bit_length()
            widths.append(width)
            if width:
                chunks.append(_pack_deltas(chunk, width))
    if widths and max(widths) > MAX_WIDTH:
        raise ValueError(
            f"timestamp gap of {max(widths)} bits exceeds the "
            f"{MAX_WIDTH}-bit block width; lower tick_bits"
        )
    payload = np.concatenate(chunks) if chunks else _EMPTY_U8
    encoded = _Blocks(heads, np.asarray(widths, dtype=np.uint8), payload)
    # The directory comes from the ticks in hand, not from a decode.
    return encoded.derive(rows, block, ticks)


class CompressedTrackingForm(CompiledTrackingForm):
    """Delta-encoded, bit-packed drop-in for the compiled form.

    The public query surface (``count_*``, ``net_*``,
    ``integrate_*``, ``compile_boundary_ids``, shm interop) is the
    parent's; only the raw-storage hooks (:meth:`_set_csr`,
    :meth:`_segment_ids`, :meth:`_direction_values`,
    :meth:`_direction_slices`, :meth:`_rank_lanes`) and the shm layout
    differ.
    """

    def __init__(
        self,
        interner: "EdgeInterner",
        edge_id: np.ndarray,
        direction: np.ndarray,
        t: np.ndarray,
        boundary_cache_size: int = DEFAULT_BOUNDARY_CACHE_SIZE,
        tick_bits: int = DEFAULT_TICK_BITS,
        block: int = DEFAULT_BLOCK,
    ) -> None:
        """Compile and compress columnar events.

        ``t`` must already lie on the ``tick_bits`` dyadic grid
        (callers quantize once at ingest); values are snapped here as
        a belt-and-braces measure so a stray un-quantized call cannot
        silently desynchronise the tick decode.
        """
        self._tick_bits = int(tick_bits)
        self._block = int(block)
        super().__init__(
            interner, edge_id, direction, quantize_times(t, tick_bits),
            boundary_cache_size=boundary_cache_size,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _set_csr(self, values, offsets, sources, t) -> None:
        """Keep the freshly built CSR columns as compressed blocks (the
        directory's rank index is the blocks' own)."""
        self._offsets = tuple(o.astype(np.int32) for o in offsets)
        self._rows = _joint_rows(offsets)
        self._blocks = _encode(
            np.concatenate(values), self._rows, self._tick_bits, self._block
        )

    # ------------------------------------------------------------------
    # Storage hooks (the only read-path overrides)
    # ------------------------------------------------------------------
    def _decode_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(timestamps, lens)`` of joint-column rows, concatenated:
        each nonempty segment's head, then its blocks' ticks."""
        blocks = self._blocks
        lens = self._rows[rows + 1] - self._rows[rows]
        segments = blocks.seg_rank[rows[lens > 0]]
        starts = blocks.block_starts[segments]
        take = csr_take(starts, blocks.block_starts[segments + 1] - starts)
        out = np.empty(int(lens.sum()), dtype=np.int64)
        is_head = np.zeros(len(out), dtype=bool)
        is_head[(np.cumsum(lens) - lens)[lens > 0]] = True
        out[is_head] = blocks.heads[segments]
        out[~is_head] = blocks.decode(take)[blocks.valid(take)]
        return out * float(2.0 ** -self._tick_bits), lens

    def _segment_ids(self, eid: int, d: int) -> np.ndarray:
        return self._decode_rows(np.array([d * self._n_ids + eid]))[0]

    def _direction_slices(
        self, wall_ids: np.ndarray, d: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self._decode_rows(wall_ids + d * self._n_ids)

    def _direction_values(self, d: int) -> np.ndarray:
        n = self._n_ids
        return self._decode_rows(np.arange(d * n, (d + 1) * n))[0]

    def _rank_lanes(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Rank over the directory, then inside one block per lane.

        Lanes broadcast as in the plain form and are flattened first.
        Per (row, time) lane the directory's rank (its index below
        ``_ORDER_FROM`` = 1024 lanes, the halving kernel from there on)
        counts the blocks whose first tick is ``<= t``; the last of
        them is the only block that can straddle ``t``, so it alone is
        decoded — per lane for a single chain, once per distinct block
        for a batch (from :data:`_DECODE_LANES` lanes).  A timestamp is
        ``tick * 2**-tick_bits`` exactly, hence ``value <= t`` iff
        ``tick <= floor(t * 2**tick_bits)``.
        """
        blocks = self._blocks
        rows, t = (a.ravel() for a in np.broadcast_arrays(rows, t))
        limit = float(2 ** 62)
        quantum = np.floor(t * float(2.0 ** self._tick_bits))
        quantum = np.clip(quantum, -limit, limit).astype(np.int64)
        segments = blocks.seg_rank[rows]
        present = np.flatnonzero(segments >= 0)
        segments, q = segments[present], quantum[present]
        lo = blocks.block_starts[segments]
        before = blocks.index.rank(segments, q)
        # The head, then 32 values per block wholly before the
        # straddling one, then that block's share: its ticks keep
        # ascending past its length, so the count caps there.
        rank = (blocks.heads[segments] <= q) + (
            np.maximum(before - 1, 0) * self._block
        )
        inside = np.flatnonzero(before)
        straddling = lo[inside] + before[inside] - 1
        lens = blocks.block_len[straddling]
        if inside.size < _DECODE_LANES:
            within = (blocks.decode(straddling) <= q[inside, None]).sum(axis=1)
            rank[inside] += np.minimum(within, lens)
        else:
            # A batch's lanes straddle far fewer blocks than there are
            # lanes (61k lanes, 6.4k blocks for 500 cold queries): each
            # block is decoded once, into one row of ``ticks``, and
            # every lane ranks inside its own block's row.
            marked = np.zeros(len(blocks.block_len), dtype=bool)
            marked[straddling] = True
            distinct = np.flatnonzero(marked)
            row = np.cumsum(marked)[straddling] - 1
            ticks = np.empty((distinct.size, self._block), dtype=np.int64)
            for start in range(0, distinct.size, _DECODE_LANES):
                take = distinct[start:start + _DECODE_LANES]
                ticks[start:start + take.size] = blocks.decode(take)
            row *= self._block
            rank[inside] += segmented_rank(
                ticks.ravel(), row, row + lens, q[inside]
            )
        ranks = np.zeros(rows.size, dtype=np.int64)
        ranks[present] = rank
        return ranks

    # ------------------------------------------------------------------
    # Shared-memory interop
    # ------------------------------------------------------------------
    def shm_pack(self, hint: str = "form"):
        """Pack the *compressed* arrays — the whole reason sharded
        workers can attach a ~4× smaller segment zero-copy."""
        from .. import shm as shm_mod

        blocks = self._blocks
        handle, descriptor = shm_mod.pack_arrays(
            {
                "offsets0": self._offsets[0],
                "offsets1": self._offsets[1],
                "heads": blocks.heads,
                "widths": blocks.widths,
                "payload": blocks.payload,
            },
            hint=hint,
        )
        descriptor["n_ids"] = int(self._n_ids)
        descriptor["form"] = "compressed"
        descriptor["tick_bits"] = self._tick_bits
        descriptor["block"] = self._block
        return handle, descriptor

    @classmethod
    def shm_attach(
        cls,
        descriptor,
        interner: "EdgeInterner",
        boundary_cache_size: int = DEFAULT_BOUNDARY_CACHE_SIZE,
    ) -> "CompressedTrackingForm":
        """Zero-copy compressed form over a :meth:`shm_pack` segment."""
        from .. import shm as shm_mod

        handle, views = shm_mod.attach_arrays(descriptor)
        form = cls.__new__(cls)
        form._interner = interner
        form._n_ids = int(descriptor["n_ids"])
        form._tick_bits = int(descriptor["tick_bits"])
        form._block = int(descriptor["block"])
        form._offsets = (views["offsets0"], views["offsets1"])
        form._rows = _joint_rows(form._offsets)
        form._blocks = _Blocks(
            views["heads"], views["widths"], views["payload"]
        ).derive(form._rows, form._block)
        form._init_runtime_state(boundary_cache_size)
        form._shm_handle = handle
        return form

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tick_bits(self) -> int:
        """Timestamp resolution: ``2**tick_bits`` ticks per second."""
        return self._tick_bits

    def _storage_components(self) -> dict:
        blocks = self._blocks
        return {
            "offsets": int(
                self._offsets[0].nbytes + self._offsets[1].nbytes
            ),
            "heads": int(blocks.heads.nbytes),
            "block_widths": int(blocks.widths.nbytes),
            "payload": int(blocks.payload.nbytes),
        }

    def _derived_bytes(self) -> int:
        return int(self._rows.nbytes) + self._blocks.derived_bytes

    def __repr__(self) -> str:
        report = self.storage_report()
        return (
            f"CompressedTrackingForm(edges={self.edge_count}, "
            f"events={self.total_events}, "
            f"bytes={report['total_bytes']}, "
            f"tick_bits={self._tick_bits})"
        )
