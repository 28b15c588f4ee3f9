"""Error-bounded per-edge count sketches (the approximate fast tier).

:class:`EdgeCountSketch` summarises an event stream as, per directed
canonical edge, the **net** crossing count accumulated through each
touched time bin plus the bin's total activity.  A boundary-chain
range count is then answered from bin boundaries alone — no timestamp
decode, no chain compilation — with a rigorous error bound: the only
uncertainty is the order of events inside the partial bin containing
the query time, and each of those events moves the net count by at
most one, so

    |exact - estimate| <= activity(partial bin)          (static)
    |exact - estimate| <= activity(t1 bin) + activity(t2 bin)
                                                         (transient)

The bound *always* contains the exact answer (it is a worst-case
count, not a probabilistic tail), which is what lets the query engine
serve a sketch answer whenever the caller's ``max_error`` tolerance
admits it and silently fall back to the exact compiled path when not.
Sketch answers ride the existing :class:`~repro.query.QueryDegradation`
machinery with ``strategy="sketch"`` so observability (degradation
metrics, flight records) needs no new plumbing.

Storage is a CSR over *touched* ``(edge, bin)`` pairs only, each
column at the narrowest integer width its values need
(:func:`~repro.forms.rank.narrowest`): a bin, a cumulative net and an
activity of one byte each while bins, per-edge nets and per-pair
activity stay within a byte, so 3 B a pair plus the per-edge offsets.
The rank index over the bins (:class:`~repro.forms.rank.RankIndex`) is
built at construction, kept in memory only and reported as
``derived_bytes``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .rank import RankIndex, chain_lanes, grid_floor, narrowest, time_lanes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectories import EventColumns

#: Default number of time bins across the observed span when a caller
#: asks for a sketch without sizing it.
DEFAULT_SKETCH_BINS = 64


class EdgeCountSketch:
    """Per-edge binned net-count summary with worst-case error bounds."""

    def __init__(
        self,
        edge_offsets: np.ndarray,
        bins: np.ndarray,
        cum_net: np.ndarray,
        activity: np.ndarray,
        bin_width: float,
        n_ids: int,
    ) -> None:
        # Stored narrow: n_ids + 1 offsets; per pair its bin (ascending
        # per edge), the edge's net through it, the events inside it.
        self._edge_offsets = narrowest(edge_offsets)
        self._bins = narrowest(bins)
        self._cum_net = narrowest(cum_net)
        self._activity = narrowest(activity)
        self._bin_width = float(bin_width)
        self._n_ids = int(n_ids)
        self._index = RankIndex(self._bins, self._edge_offsets)  # in memory

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls, columns: "EventColumns", bins: int = DEFAULT_SKETCH_BINS
    ) -> "EdgeCountSketch":
        """Build from observed event columns with ``bins`` time bins.

        ``bins`` divides the ``[0, t_max]`` span; events are assigned
        by ``floor(t / width)``, so the bin universe is sparse and
        nothing is allocated for untouched ``(edge, bin)`` pairs.
        """
        if bins < 1:
            raise ValueError("sketch bins must be >= 1")
        n_ids = len(columns.interner)
        t = np.asarray(columns.t, dtype=np.float64)
        if len(t) == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(
                edge_offsets=np.zeros(n_ids + 1, dtype=np.int64),
                bins=empty, cum_net=empty, activity=empty,
                bin_width=1.0, n_ids=n_ids,
            )
        t_max = float(t.max())
        width = (t_max / bins) if t_max > 0 else 1.0
        # Ids as the narrowest unsigned key that holds them: at 16 bits
        # or fewer numpy's stable argsort is a radix sort.
        edge_id = np.asarray(columns.edge_id).astype(np.min_scalar_type(n_ids))
        sign = np.where(
            np.asarray(columns.direction) == 0, 1, -1
        ).astype(np.int64)
        bin_of = np.floor(t / width).astype(np.int64)

        # Collapse to unique (edge, bin) pairs, summing signs and
        # counting activity per pair.  The columns are time-sorted, so
        # a stable sort by edge id leaves each edge's bins ascending.
        order = np.argsort(edge_id, kind="stable")
        eid_s = edge_id[order]
        bin_s = bin_of[order]
        sign_s = sign[order]
        new_pair = np.empty(len(eid_s), dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (eid_s[1:] != eid_s[:-1]) | (bin_s[1:] != bin_s[:-1])
        pair_idx = np.cumsum(new_pair) - 1
        n_pairs = int(pair_idx[-1]) + 1
        net = np.bincount(
            pair_idx, weights=sign_s, minlength=n_pairs
        ).astype(np.int64)
        activity = np.bincount(pair_idx, minlength=n_pairs)
        pair_eid = eid_s[new_pair]
        pair_bin = bin_s[new_pair]

        # Per-edge cumulative net through each bin: global cumsum minus
        # the running total at each edge's first pair.
        running = np.cumsum(net)
        edge_counts = np.bincount(pair_eid, minlength=n_ids)
        edge_offsets = np.concatenate(([0], np.cumsum(edge_counts)))
        base = np.repeat(
            running[edge_offsets[:-1][edge_counts > 0]] -
            net[edge_offsets[:-1][edge_counts > 0]],
            edge_counts[edge_counts > 0],
        )
        return cls(
            edge_offsets=edge_offsets,
            bins=pair_bin,
            cum_net=running - base,
            activity=activity,
            bin_width=width,
            n_ids=n_ids,
        )

    # ------------------------------------------------------------------
    # Chain estimation
    # ------------------------------------------------------------------
    def _lane_estimates(
        self, walls: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per (edge, time) lane, the edge's net through the last bin
        wholly before the time's bin and the activity of that partial
        bin: one rank over the touched-bin column — two searches of
        the bins' rank index for a single chain, the halving kernel
        from 1024 lanes on (a batch) — then two gathers."""
        q = grid_floor(times, self._bin_width)
        if not walls.size or not self._bins.size:  # nothing to gather from
            zeros = np.zeros(np.broadcast(walls, q).shape, dtype=np.int64)
            return zeros, zeros
        lo, hi = self._edge_offsets[walls], self._edge_offsets[walls + 1]
        # Bins are integers: "before bin q" is "<= q - 1".
        at = lo + self._index.rank(walls, q - 1)
        # Gathers from the narrow columns widen to int64: sums and sign
        # flips of them cannot wrap.
        net = np.where(at > lo, self._cum_net[at - 1].astype(np.int64), 0)
        partial = np.minimum(at, len(self._bins) - 1)
        inside = (at < hi) & (self._bins[partial] == q)
        activity = self._activity[partial].astype(np.int64)
        return net, np.where(inside, activity, 0)

    def _estimate(
        self, wall_ids: np.ndarray, signs: np.ndarray, times
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(estimates, bounds)`` of the chain's net count up to each
        of ``times``."""
        wall_ids = np.asarray(wall_ids, dtype=np.int64)
        known = (wall_ids >= 0) & (wall_ids < self._n_ids)
        wall_ids = wall_ids[known]
        times = np.asarray(times, dtype=np.float64)
        net, bound = self._lane_estimates(*time_lanes(wall_ids, times))
        shape = (len(wall_ids), times.size)
        return (
            np.asarray(signs, dtype=np.int64)[known] @ net.reshape(shape),
            bound.reshape(shape).sum(axis=0),
        )

    def estimate_batch(
        self, chains, chain: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_estimate` at every evaluation point of a batch
        (chain ``chain[p]`` of ``chains`` at ``times[p]``, see
        :func:`~repro.forms.rank.chain_lanes`), all points' lanes in
        one rank."""
        point, walls, signs, t = chain_lanes(chains, chain, times, self._n_ids)
        net, bound = self._lane_estimates(walls, t)

        def per_point(lanes):
            return np.bincount(point, weights=lanes, minlength=chain.size)

        return per_point(net * signs).astype(int), per_point(bound).astype(int)

    def estimate_until_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, t: float
    ) -> Tuple[int, int]:
        """Chain static count estimate: Σ sign · edge estimate.

        Returns ``(estimate, bound)`` with the worst-case guarantee
        ``|exact - estimate| <= bound``.
        """
        estimate, bound = self._estimate(wall_ids, signs, (t,))
        return int(estimate[0]), int(bound[0])

    def estimate_between_ids(
        self, wall_ids: np.ndarray, signs: np.ndarray, t1: float, t2: float
    ) -> Tuple[int, int]:
        """Chain transient count estimate over ``(t1, t2]``."""
        estimate, bound = self._estimate(wall_ids, signs, (t1, t2))
        return int(estimate[1] - estimate[0]), int(bound.sum())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pair_count(self) -> int:
        """Touched ``(edge, bin)`` pairs stored."""
        return len(self._bins)

    @property
    def activity(self) -> np.ndarray:
        """Events per touched ``(edge, bin)`` pair — each entry is the
        worst-case error bound a query cut inside that bin reports."""
        return self._activity

    def storage_report(self) -> dict:
        """Unified bytes-per-component schema (see compiled form)."""
        components = {
            "edge_offsets": int(self._edge_offsets.nbytes),
            "bins": int(self._bins.nbytes),
            "cum_net": int(self._cum_net.nbytes),
            "activity": int(self._activity.nbytes),
        }
        return {
            "store": type(self).__name__,
            "events": int(self._activity.sum()) if len(self._activity) else 0,
            "total_bytes": int(sum(components.values())),
            "derived_bytes": self._index.nbytes,
            "components": components,
        }

    def __repr__(self) -> str:
        return (
            f"EdgeCountSketch(pairs={self.pair_count}, "
            f"bin_width={self._bin_width:.3g})"
        )
