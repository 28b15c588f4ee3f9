"""Succinct (delta + bit-packed) tracking forms — the compressed tier.

:class:`CompressedTrackingForm` stores the same per-edge crossing
timestamp multisets as :class:`~repro.forms.compiled.CompiledTrackingForm`
but roughly 4× smaller: per (edge, direction) segment the first
timestamp's **tick** (a dyadic fixed-point integer, see
:func:`quantize_times`) is kept as a frame-of-reference head (the
column at the narrowest width its ticks need) and the remaining values
as consecutive non-negative deltas, chunked into blocks of
:data:`DEFAULT_BLOCK` deltas, each block bit-packed at the width of its
largest delta.  A block of identical timestamps packs to
**zero** payload bits (width 0), so heavy-duplicate edges are nearly
free.

Reads never inflate a column.  Every row owns one **unit** per block
(an empty one for a one-event segment), and a per-row **directory**
holds each unit's first value.  A chain's first touch *ranks*: per
(row, time) lane, the row's last unit whose directory value is
``<= t`` — found by the directory's own
:class:`~repro.forms.rank.RankIndex`, keyed by rows — and exactly that
one unit is bit-unpacked, all lanes together, one 8-byte window +
shift + mask per delta; a batch's lanes decode each unit they
straddle once.  Chain compilation (second touch), per-edge reads and
the full decode behind ``to_columns`` run the same vectorised unit
decode over more units.
Everything above the storage hooks (the boundary LRU, promotion,
metrics) is inherited from the compiled form unchanged, which is what
makes compressed answers byte-identical to uncompressed ones built from
the same quantized columns.

Wire format vs derived index: offsets, heads, widths and payload are
the stored format, ``storage_report()["total_bytes"]``.
The unit index — directory, its rank index, per-unit lengths, widths
and payload bits — is rebuilt from them (or, at construction, taken from the ticks the
encoder already holds) and are reported beside it as
``derived_bytes``.

Exactness contract: timestamps must be quantized **once at the ingest
boundary** (``EventColumns.quantized`` / ``quantize_times``).  A
quantized value is ``k * 2**-tick_bits`` with integer ``k`` — exactly
representable in float64 — so ``decode(encode(t)) == t`` bit-for-bit
and the compressed form is a lossless store of the quantized multiset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .compiled import (
    DEFAULT_BOUNDARY_CACHE_SIZE,
    CompiledTrackingForm,
    _joint_rows,
)
from .rank import RankIndex, csr_take, grid_floor, narrowest, segmented_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planar import EdgeInterner

#: Default timestamp resolution: ``2**tick_bits`` ticks per second.
#: 0 — whole seconds — is where trajectory workloads sit (sub-second
#: crossing precision is below GPS noise) and clears the 4× floor.
DEFAULT_TICK_BITS = 0

#: Deltas per bit-packed block.  A single query bit-unpacks one block
#: per lane, so the block is as short as the width bytes allow: on the
#: e2e ``tiered_tolerant`` store (195 950 events, int64 heads) 8
#: stores 456 183 bytes, 4 476 215, 16 460 233 and 32 470 141 — a large
#: gap inflates fewer deltas' width, which pays for the extra width
#: bytes.
DEFAULT_BLOCK = 8

#: Widest delta the decoder extracts: a field starts up to 7 bits into
#: its first byte and has to end inside one 8-byte window.  2**57 ticks
#: is millennia at the finest resolution the framework accepts.
MAX_WIDTH = 57

#: Lane count from which :meth:`CompressedTrackingForm._rank_lanes`
#: decodes each distinct straddled unit once instead of one unit per
#: lane, and the most units it decodes in one go (8 slots each).
#: Measured on the e2e ``tiered_tolerant`` store (seed 13, 2-vCPU
#: guest), on runs of a cold 500-query batch's lanes, per lane against
#: per unit: 256 lanes 0.17 / 0.40 ms, 512 0.22 / 0.51, 1024 0.53 /
#: 0.68, 2048 0.86 / 0.99, 4096 1.37 / 1.56, 8192 2.6 / 2.2, all 61.5k
#: 24 / 9 ms.  A single query's chain (≈ 160 lanes) stays far below;
#: from 1024 on, where the directory's rank halves as well, a lane set
#: is a batch's, and per unit costs it at most 0.2 ms until the two
#: meet (between 4096 and 8192 lanes).
_DECODE_LANES = 1024


def quantize_times(t: np.ndarray, tick_bits: int = DEFAULT_TICK_BITS):
    """Snap timestamps to the dyadic grid ``k * 2**-tick_bits``.

    Monotone (preserves sort order) and idempotent; the result is a
    float64 array every value of which round-trips exactly through the
    integer tick encoding.
    """
    scale = float(2.0 ** tick_bits)
    return np.round(np.asarray(t, dtype=np.float64) * scale) / scale


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
    """The first ``n`` ``width``-bit fields of ``buf`` (MSB first)."""
    bit = np.arange(n, dtype=np.int64) * width
    return _unpack_bits(_windows(buf), bit, np.int64(width))


def _units(rows: np.ndarray, block: int):
    """``(unit_offsets, row, first, len)``: per row its units' offsets
    (see :meth:`_Blocks.derive`), per unit its row, the index in the
    row of its directory value and its delta count."""
    counts = np.diff(rows)
    n_deltas = np.maximum(counts - 1, 0)
    units = np.where(counts > 0, np.maximum(-(-n_deltas // block), 1), 0)
    offsets = np.concatenate(([0], np.cumsum(units)))
    row = np.repeat(np.arange(counts.size), units)
    first = (np.arange(row.size) - offsets[row]) * block
    return offsets, row, first, np.minimum(n_deltas[row] - first, block)


class _Blocks:
    """The compressed joint column (direction 1's segments after
    direction 0's, rows as in ``CompiledTrackingForm._rows``).

    ``heads`` / ``widths`` / ``payload`` are the stored format.  The
    rest is the decode index :meth:`derive` rebuilds from them and the
    row offsets — at construction and after an append — and that is
    never stored.
    """

    __slots__ = (
        "heads", "widths", "payload", "block", "unit_offsets", "unit_len",
        "unit_width", "bit_starts", "directory", "windows", "index",
    )

    def __init__(self, heads, widths, payload) -> None:
        self.heads = heads    # narrowest ints, one per nonempty segment
        self.widths = widths  # uint8, one per block
        self.payload = payload  # uint8 packed delta bits

    @property
    def derived_bytes(self) -> int:
        return int(
            self.unit_offsets.nbytes + self.unit_len.nbytes
            + self.unit_width.nbytes + self.bit_starts.nbytes
            + self.directory.nbytes + self.index.nbytes
        )

    def derive(
        self, rows: np.ndarray, block: int, directory: np.ndarray
    ) -> "_Blocks":
        """Build the decode index over **units**.

        Every nonempty row owns units ``unit_offsets[r]:unit_offsets[r
        + 1]``, one per block of its segment; a one-event segment owns
        one empty unit instead.  Unit ``k`` of a row holds the deltas
        up to values ``block * k + 1 .. block * k + len`` and its
        **directory** value is the value at index ``block * k`` (for
        ``k = 0`` the head).  Per unit: its delta count, width, first
        payload bit and directory value, and the directory's rank index
        with rows as its rows.  The encoder hands the directory in,
        taken from the ticks it holds.
        """
        self.block = block
        self.unit_offsets, row, first, unit_len = _units(rows, block)
        self.unit_len = unit_len.astype(np.min_scalar_type(block))
        self.unit_width = np.zeros(row.size, dtype=np.uint8)
        self.unit_width[unit_len > 0] = self.widths
        nbytes = (unit_len * self.unit_width + 7) // 8
        self.bit_starts = (np.cumsum(nbytes) - nbytes) << 3
        self.windows = _windows(self.payload)
        self.directory = directory
        self.index = RankIndex(self.directory, self.unit_offsets)
        return self

    def deltas(self, take: np.ndarray) -> np.ndarray:
        """Bit-unpack units ``take`` (any shape): ``block`` slots per
        unit on a new last axis.  Slots past a unit's length
        (:meth:`valid`) hold its neighbours' bits — some non-negative
        number."""
        width = self.unit_width[take].astype(np.int64)[..., None]
        bit = np.arange(self.block) * width
        bit += self.bit_starts[take][..., None]
        return _unpack_bits(self.windows, bit, width)

    def valid(self, take: np.ndarray) -> np.ndarray:
        return np.arange(self.block) < self.unit_len[take][..., None]

    def decode(self, take: np.ndarray) -> np.ndarray:
        """Ticks of units ``take`` (slots as in :meth:`deltas`; past a
        unit's length they keep ascending, on junk)."""
        ticks = np.cumsum(self.deltas(take), axis=-1)
        ticks += self.directory[take][..., None]
        return ticks


def _encode(
    values: np.ndarray, rows: np.ndarray, tick_bits: int, block: int
) -> _Blocks:
    """Compress a joint CSR column into delta blocks: per nonempty row
    its head tick, per ``block`` deltas of a row one width (that of the
    block's largest delta) and the deltas bit-packed MSB first from
    the block's first byte."""
    scale = float(2.0 ** tick_bits)
    ticks = np.rint(np.asarray(values, dtype=np.float64) * scale)
    ticks = ticks.astype(np.int64)
    starts = rows[:-1][np.diff(rows) > 0]
    _, row, first, lens = _units(rows, block)
    directory = ticks[rows[row] + first]
    # The deltas inside rows, rows after each other.
    deltas = np.delete(np.diff(ticks), starts[1:] - 1)
    heads = narrowest(ticks[starts])
    del ticks
    lens = lens[lens > 0]
    first = np.cumsum(lens) - lens
    widest = np.maximum.reduceat(deltas, first) if first.size else first
    # Exact integer bit lengths: past 2**53 a float exponent can round
    # up to the next power of two.
    widths = sum((widest >> bit) > 0 for bit in range(63))
    if widths.size and widths.max() > MAX_WIDTH:
        raise ValueError(
            f"timestamp gap of {widths.max()} bits exceeds the "
            f"{MAX_WIDTH}-bit block width; lower tick_bits"
        )
    nbytes = (lens * widths + 7) // 8
    # Field by field at its absolute bit offset, into big-endian 64-bit
    # words: its top part into the word it starts in (fields starting
    # in one word share no bit, so OR-ing them fills it) and, if it
    # runs past that word, its low ``spill`` bits into the next one
    # (one field at most crosses a word's end).  In place where it can
    # be: one int64 per delta is what the column itself weighs.
    spill = np.repeat(widths, lens)
    word = np.arange(deltas.size) * spill
    base = ((np.cumsum(nbytes) - nbytes) << 3) - first * widths
    word += np.repeat(base, lens)
    spill += (word & 63) - 64
    word >>= 6
    u64 = deltas.view(np.uint64)
    cross = np.flatnonzero(spill > 0)
    low = u64[cross] << (64 - spill[cross]).view(np.uint64)
    u64 >>= np.maximum(spill, 0).view(np.uint64)
    u64 <<= np.clip(-spill, 0, 63, out=spill).view(np.uint64)
    # A width-0 field may start just past the last byte: one spare word.
    words = np.zeros(int(nbytes.sum()) // 8 + 1, dtype=np.uint64)
    if word.size:
        at = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[at]] = np.bitwise_or.reduceat(u64, at)
    words[word[cross] + 1] |= low
    payload = words.astype(">u8").view(np.uint8)[:int(nbytes.sum())]
    encoded = _Blocks(heads, widths.astype(np.uint8), payload)
    # The directory comes from the ticks in hand, not from a decode.
    return encoded.derive(rows, block, directory)


class CompressedTrackingForm(CompiledTrackingForm):
    """Delta-encoded, bit-packed drop-in for the compiled form.

    The public query surface (``count_*``, ``net_*``,
    ``integrate_*``, ``compile_boundary_ids``) is the parent's; only
    the raw-storage hooks (:meth:`_set_csr`, :meth:`_segment_ids`,
    :meth:`_direction_values`, :meth:`_direction_slices`,
    :meth:`_rank_lanes`) differ.
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
        self._offsets = offsets
        self._rows = _joint_rows(offsets)
        self._blocks = _encode(
            np.concatenate(values), self._rows, self._tick_bits, self._block
        )

    # ------------------------------------------------------------------
    # Storage hooks (the only read-path overrides)
    # ------------------------------------------------------------------
    def _decode_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(timestamps, lens)`` of joint-column rows, concatenated:
        each nonempty row's head, then its units' ticks."""
        blocks = self._blocks
        lens = self._rows[rows + 1] - self._rows[rows]
        lo = blocks.unit_offsets[rows]
        take = csr_take(lo, blocks.unit_offsets[rows + 1] - lo)
        out = np.empty(int(lens.sum()), dtype=np.int64)
        is_head = np.zeros(len(out), dtype=bool)
        is_head[(np.cumsum(lens) - lens)[lens > 0]] = True
        out[is_head] = blocks.directory[lo[lens > 0]]
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
        """Rank over the unit directory, then inside one unit per lane.

        Lanes broadcast as in the plain form.  Per (row, time) lane the
        directory's rank index counts the row's units whose directory
        value is ``<= t``; the last of them is the only unit that can
        straddle ``t``, so it alone is decoded — per lane for a single
        chain, once per distinct unit for a batch (from
        :data:`_DECODE_LANES` lanes).  The rank is 0 if no unit
        counts, else ``block`` values per unit wholly before the
        straddling one, its directory value, and its deltas' share.  A
        timestamp is ``tick * 2**-tick_bits`` exactly, hence ``value
        <= t`` iff ``tick <= floor(t * 2**tick_bits)``.
        """
        blocks = self._blocks
        q = grid_floor(t, 2.0 ** -self._tick_bits)
        before = blocks.index.rank(rows, q)
        if not blocks.directory.size:
            return before
        # A lane with ``before == 0`` reads unit -1 or its row's
        # neighbour's: junk, and masked out below.
        unit = blocks.unit_offsets[rows] + before - 1
        lens = blocks.unit_len[unit]
        if before.size < _DECODE_LANES:
            # The unit's ticks keep ascending past its length, so the
            # count caps there.
            below = q - blocks.directory[unit]
            within = np.cumsum(blocks.deltas(unit), axis=-1)
            within = np.count_nonzero(within <= below[..., None], axis=-1)
        else:
            # A batch's lanes straddle far fewer units than there are
            # lanes: each unit is decoded once, into one row of
            # ``ticks``, and every lane ranks inside its own unit's row.
            at = np.flatnonzero((before > 0) & (lens > 0))
            straddling = unit.ravel()[at]
            marked = np.zeros(blocks.directory.size, dtype=bool)
            marked[straddling] = True
            distinct = np.flatnonzero(marked)
            row = np.cumsum(marked)[straddling] - 1
            ticks = np.empty((distinct.size, self._block), dtype=np.int64)
            for start in range(0, distinct.size, _DECODE_LANES):
                take = distinct[start:start + _DECODE_LANES]
                ticks[start:start + take.size] = blocks.decode(take)
            row *= self._block
            within = np.zeros(before.shape, dtype=np.int64)
            within.flat[at] = segmented_rank(
                ticks.ravel(), row, row + lens.ravel()[at],
                np.broadcast_to(q, before.shape).ravel()[at],
            )
        rank = np.minimum(within, lens) + self._block * (before - 1) + 1
        return np.where(before > 0, rank, 0)

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
