"""The operational sensing network: full (``G``) or sampled (``G~``).

A :class:`SensorNetwork` is defined by its *walls* — the sensing edges
that are actively monitored.  In the full network every sensing edge is
a wall; in a sampled network the walls are the sensing edges crossed by
the shortest dual-graph paths that materialise the logical sampled
edges (§4.5), or the boundaries of submodular-selected regions (§4.4).

The faces of ``G~`` are recovered combinatorially: they are the
connected components of the mobility graph (plus the external junction
EXT) after removing wall edges — two junctions are in the same sensing
region exactly when an object can travel between them without being
detected.  This is the vertex-edge duality of §4.7.1 made operational,
and it is robust: no geometric tracing of the routed graph is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from typing import Union

from ..errors import QueryError, SelectionError
from ..forms import CompiledTrackingForm, TrackingForm
from ..mobility import EXT, MobilityDomain
from ..obs import get_registry
from ..planar import NodeId, canonical_edge
from ..trajectories import CrossingEvent, EventColumns
from .connectivity import knn_edges, triangulation_edges

Wall = Tuple[NodeId, NodeId]
DirectedEdge = Tuple[NodeId, NodeId]


@dataclass
class SensorNetwork:
    """A wall-defined sensing configuration over a mobility domain."""

    domain: MobilityDomain
    sensors: Tuple[int, ...]
    walls: FrozenSet[Wall]
    name: str = "network"
    #: wall -> communication-sensor blocks responsible for it
    wall_owners: Dict[Wall, FrozenSet[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._compute_regions()
        self._compiled_index: Optional["CompiledNetworkIndex"] = None

    # ------------------------------------------------------------------
    # Region structure (faces of G~)
    # ------------------------------------------------------------------
    def _compute_regions(self) -> None:
        domain = self.domain
        region_of: Dict[NodeId, int] = {}
        regions: Dict[int, Set[NodeId]] = {}
        nodes = [EXT, *domain.junctions]
        next_region = 0
        for start in nodes:
            if start in region_of:
                continue
            members = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbour in domain.sensing_neighbors(node):
                    if neighbour in members:
                        continue
                    if canonical_edge(node, neighbour) in self.walls:
                        continue
                    members.add(neighbour)
                    stack.append(neighbour)
            for member in members:
                region_of[member] = next_region
            regions[next_region] = members
            next_region += 1

        self._region_of = region_of
        self._regions = regions
        self.ext_region: int = region_of[EXT]
        self._regions[self.ext_region] = regions[self.ext_region] - {EXT}

        # Inward-directed boundary walls per region.
        region_walls: Dict[int, List[DirectedEdge]] = {r: [] for r in regions}
        for u, v in self.walls:
            ru = region_of[u]
            rv = region_of[v]
            if ru == rv:
                continue  # dangling wall interior to a region
            region_walls[rv].append((u, v))
            region_walls[ru].append((v, u))
        self._region_walls = region_walls

    @property
    def region_count(self) -> int:
        """Number of proper sensing regions (excluding the EXT region)."""
        return len(self._regions) - 1

    @property
    def region_ids(self) -> List[int]:
        return [r for r in self._regions if r != self.ext_region]

    def region_of(self, junction: NodeId) -> int:
        try:
            return self._region_of[junction]
        except KeyError:
            raise QueryError(f"unknown junction {junction!r}") from None

    def region_junctions(self, region: int) -> Set[NodeId]:
        try:
            return set(self._regions[region])
        except KeyError:
            raise QueryError(f"unknown region {region!r}") from None

    def region_boundary(self, regions: Iterable[int]) -> List[DirectedEdge]:
        """Inward-directed boundary chain of a union of regions.

        Walls between two selected regions cancel (they are interior),
        mirroring the chain-cancellation of the boundary operator.
        """
        selected = set(regions)
        if self.ext_region in selected:
            raise QueryError("query regions cannot include the EXT region")
        chain: List[DirectedEdge] = []
        for region in selected:
            for u, v in self._region_walls.get(region, ()):
                if self._region_of[u] not in selected:
                    chain.append((u, v))
        return chain

    # ------------------------------------------------------------------
    # Region approximation for junction-set queries (§4.6, Fig. 7)
    # ------------------------------------------------------------------
    def lower_regions(self, junctions: Set[NodeId]) -> List[int]:
        """Maximal union of regions fully inside the junction set (R2).

        Returned sorted by region id, so the Python and compiled
        planners agree on the region tuple of a query result.
        """
        candidates = {
            self._region_of[j] for j in junctions if j in self._region_of
        }
        candidates.discard(self.ext_region)
        return sorted(
            region
            for region in candidates
            if self._regions[region] <= junctions
        )

    def upper_regions(self, junctions: Set[NodeId]) -> Tuple[List[int], bool]:
        """Minimal union of regions covering the junction set (R1).

        Returns ``(regions, covered)``; ``covered`` is False when part
        of the query region falls in the EXT region (the un-enclosed
        remainder of the domain), in which case no bounded superset
        exists and the query counts as a miss for upper-bound mode.
        """
        candidates = {
            self._region_of[j] for j in junctions if j in self._region_of
        }
        covered = self.ext_region not in candidates
        candidates.discard(self.ext_region)
        return (sorted(candidates), covered)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def build_form(
        self,
        events: Union[EventColumns, Iterable[CrossingEvent]],
        compress: bool = False,
        tick_bits: int = 0,
    ):
        """Tracking form of all crossings this network's walls observe.

        Columnar input (:class:`~repro.trajectories.EventColumns`) takes
        the vectorised path: one boolean wall mask over the interned
        edge-id column + fancy indexing, compiled straight into a
        :class:`~repro.forms.CompiledTrackingForm` (CSR timestamp
        arrays) — or, with ``compress=True``, the succinct
        :class:`~repro.forms.CompressedTrackingForm` over ``tick_bits``
        dyadic ticks.  Row-wise event iterables keep the legacy
        per-event loop and return a plain
        :class:`~repro.forms.TrackingForm`; all stores answer the count
        interface identically.
        """
        if isinstance(events, EventColumns):
            return self.build_form_columnar(
                events, compress=compress, tick_bits=tick_bits
            )
        return self.build_form_loop(events)

    def build_form_columnar(
        self,
        columns: EventColumns,
        compress: bool = False,
        tick_bits: int = 0,
    ) -> CompiledTrackingForm:
        """Vectorised ingestion of a columnar event stream."""
        observed = columns.filter_edges(self._wall_lookup())
        registry = get_registry()
        registry.counter(
            "repro_ingest_builds_total",
            help="Tracking-form builds, by ingestion path",
            path="columnar",
        ).inc()
        registry.counter(
            "repro_ingest_events_observed_total",
            help="Events landing on a monitored wall during form builds",
        ).inc(len(observed.t))
        if compress:
            from ..forms import CompressedTrackingForm

            return CompressedTrackingForm(
                columns.interner,
                observed.edge_id,
                observed.direction,
                observed.t,
                tick_bits=tick_bits,
            )
        return CompiledTrackingForm(
            columns.interner,
            observed.edge_id,
            observed.direction,
            observed.t,
        )

    def build_form_loop(
        self, events: Iterable[CrossingEvent]
    ) -> TrackingForm:
        """Reference per-event ingestion loop (kept for benchmarking the
        columnar path against, and for ad-hoc row-wise streams)."""
        form = TrackingForm()
        walls = self.walls
        observed = 0
        for event in events:
            if canonical_edge(event.tail, event.head) in walls:
                form.record(event.tail, event.head, event.t)
                observed += 1
        registry = get_registry()
        registry.counter(
            "repro_ingest_builds_total",
            help="Tracking-form builds, by ingestion path",
            path="loop",
        ).inc()
        registry.counter(
            "repro_ingest_events_observed_total",
            help="Events landing on a monitored wall during form builds",
        ).inc(observed)
        return form

    def _wall_lookup(self) -> np.ndarray:
        """Boolean mask over interned edge ids flagging this network's
        walls (cached; rebuilt if the domain's table grew)."""
        interner = self.domain.edge_interner
        lookup = getattr(self, "_wall_lookup_cache", None)
        if lookup is None or len(lookup) < len(interner):
            lookup = np.zeros(len(interner), dtype=bool)
            ids = [interner.id_of_canonical(w) for w in self.walls]
            ids = np.asarray(
                [i for i in ids if i >= 0], dtype=np.int64
            )
            if len(ids):
                lookup[ids] = True
            self._wall_lookup_cache = lookup
        return lookup

    def observed_events(
        self, events: Union[EventColumns, Iterable[CrossingEvent]]
    ) -> List[CrossingEvent]:
        """The subset of an event stream that hits a wall."""
        if isinstance(events, EventColumns):
            return events.filter_edges(self._wall_lookup()).to_events()
        walls = self.walls
        return [
            e for e in events if canonical_edge(e.tail, e.head) in walls
        ]

    def observed_columns(self, columns: EventColumns) -> EventColumns:
        """Columnar subset of a columnar stream that hits a wall."""
        return columns.filter_edges(self._wall_lookup())

    # ------------------------------------------------------------------
    # Accounting (communication-cost proxies, §4.9)
    # ------------------------------------------------------------------
    def wall_sensors(self, u: NodeId, v: NodeId) -> Set[int]:
        """Communication sensors responsible for one wall.

        Sampled networks map the wall to the sensors owning the routed
        edge it belongs to; wall-only configurations fall back to the
        blocks incident to the wall.
        """
        wall = canonical_edge(u, v)
        owners = self.wall_owners.get(wall)
        if owners:
            return set(owners)
        return self._incident_blocks(wall)

    def sensors_for_boundary(
        self, boundary: Sequence[DirectedEdge]
    ) -> Set[int]:
        """Communication sensors that must be contacted for a boundary."""
        contacted: Set[int] = set()
        for u, v in boundary:
            contacted.update(self.wall_sensors(u, v))
        return contacted

    def _incident_blocks(self, wall: Wall) -> Set[int]:
        domain = self.domain
        u, v = wall
        if u == EXT or v == EXT:
            junction = v if u == EXT else u
            blocks: Set[int] = set()
            for neighbour in domain.graph.neighbors(junction):
                left, right = domain.dual.faces_of_primal_edge(
                    junction, neighbour
                )
                blocks.update(
                    b for b in (left, right) if b != domain.dual.outer_node
                )
            return blocks
        left, right = domain.dual.faces_of_primal_edge(u, v)
        return {b for b in (left, right) if b != domain.dual.outer_node}

    # ------------------------------------------------------------------
    # Compiled (CSR) query indexes
    # ------------------------------------------------------------------
    def compiled_index(self) -> "CompiledNetworkIndex":
        """Int32/CSR indexes of this network's region structure (cached).

        Built once on first use and shared by every
        :class:`~repro.query.CompiledQueryPlanner` attached to this
        network.
        """
        index = self._compiled_index
        if index is None:
            index = CompiledNetworkIndex.build(self)
            self._compiled_index = index
        return index

    @property
    def size_fraction(self) -> float:
        """|sensors| / |blocks| — the x-axis of Figs. 11a/12a."""
        return len(self.sensors) / max(self.domain.block_count, 1)

    def __repr__(self) -> str:
        return (
            f"SensorNetwork({self.name!r}, sensors={len(self.sensors)}, "
            f"walls={len(self.walls)}, regions={self.region_count})"
        )


# ----------------------------------------------------------------------
# Compiled network indexes (the read-path analogue of EventColumns)
# ----------------------------------------------------------------------
@dataclass
class CompiledNetworkIndex:
    """Int32/CSR compilation of a network's region structure.

    Everything the query planner's resolution pipeline needs, as flat
    contiguous arrays addressed by dense ids:

    - junctions by their index in ``domain.junctions`` (the same order
      as :meth:`MobilityDomain.junction_ids_in_bbox` results);
    - regions by the dense ids :meth:`SensorNetwork._compute_regions`
      assigns (including the EXT region, which queries must exclude);
    - walls by their interned canonical-edge id (shared with the
      columnar event store and compiled tracking forms through
      ``domain.edge_interner``), plus an orientation sign: ``+1`` when
      the region-inward direction equals the canonical orientation,
      ``-1`` against it.

    The wall→owner CSR bakes in the :meth:`SensorNetwork.wall_sensors`
    fallback (incident blocks when a wall has no explicit owners), so a
    gather over it reproduces perimeter sensor accounting exactly.
    """

    ext_region: int
    n_regions: int
    #: Region id of each junction (indexed by junction index).
    region_of_junction: np.ndarray
    #: Region id of each entry of the domain's sorted-coordinate bbox
    #: index (:meth:`MobilityDomain.bbox_index`, x order).
    region_by_x: np.ndarray
    #: ``(4, n_regions)`` junction extent of each region — rows min x,
    #: min y, max x, max y; NaN for the EXT region and for empty ones,
    #: so no box encloses either.
    region_extent: np.ndarray
    #: CSR region → junction indices (sorted within each region).
    rj_offsets: np.ndarray
    rj_junctions: np.ndarray
    #: CSR region → inward boundary walls (interned ids + signs).
    rw_offsets: np.ndarray
    rw_wall_ids: np.ndarray
    rw_signs: np.ndarray
    #: Per CSR entry, the region listing the same wall from its other
    #: side.
    rw_across: np.ndarray
    #: The sides table: every wall two regions list (ascending id), the
    #: ``(2, walls)`` regions listing it and the inward sign of the
    #: first (the second's is its negation).  A dangling wall — both
    #: sides in one region — is listed by no region, hence not here.
    side_walls: np.ndarray
    side_regions: np.ndarray
    side_signs: np.ndarray
    #: CSR wall id → owning communication sensors (sorted per wall).
    wo_offsets: np.ndarray
    wo_sensors: np.ndarray
    #: Lazily built CSR junction index → incident blocks (flood mode).
    jb_offsets: Optional[np.ndarray] = None
    jb_blocks: Optional[np.ndarray] = None
    #: Lazily built dense wall id → owners matrix (perimeter mode).
    wo_dense: Optional[np.ndarray] = None

    @classmethod
    def build(cls, network: "SensorNetwork") -> "CompiledNetworkIndex":
        domain = network.domain
        interner = domain.edge_interner
        junction_index = domain.junction_index
        n_regions = len(network._regions)

        region_of_junction = np.empty(domain.junction_count, dtype=np.int32)
        for node, region in network._region_of.items():
            if node != EXT:
                region_of_junction[junction_index[node]] = region

        # CSR region → junctions: a stable argsort groups junction
        # indices by region, ascending within each region.
        counts = np.bincount(region_of_junction, minlength=n_regions)
        rj_offsets = np.concatenate(([0], np.cumsum(counts)))
        rj_junctions = np.argsort(region_of_junction, kind="stable").astype(np.int32)

        # CSR region → inward walls with orientation signs, by wall id
        # within a region: a single region's slice is already a
        # canonical ascending chain (the planner's fast path).
        intern = interner.intern
        region, eid, forward = np.array([
            (region, *intern(u, v))
            for region, inward in network._region_walls.items() for u, v in inward
        ], dtype=np.int64).reshape(-1, 3).T
        by_region = np.lexsort((eid, region))
        own = region[by_region]
        rw_offsets = np.concatenate(([0], np.cumsum(np.bincount(own, minlength=n_regions))))
        rw_wall_ids = eid[by_region].astype(np.int32)
        rw_signs = np.where(forward[by_region] > 0, 1, -1).astype(np.int8)

        # Extents, from the coordinates of the bbox index.
        xs, ys, order = domain.bbox_index()
        region_by_x = region_of_junction[order]
        corners = np.stack((xs, ys))[:, np.argsort(region_by_x, kind="stable")]
        full = counts > 0
        region_extent = np.full((4, n_regions), np.nan)
        region_extent[:2, full] = np.minimum.reduceat(corners, rj_offsets[:-1][full], axis=1)
        region_extent[2:, full] = np.maximum.reduceat(corners, rj_offsets[:-1][full], axis=1)
        region_extent[:, network.ext_region] = np.nan

        # Sides: a wall between two regions is listed once by each, so
        # its two entries are adjacent in wall order.
        by_wall = np.argsort(rw_wall_ids, kind="stable")
        first, second = by_wall[0::2], by_wall[1::2]
        assert np.array_equal(rw_wall_ids[first], rw_wall_ids[second])
        rw_across = np.empty_like(own)
        rw_across[first], rw_across[second] = own[second], own[first]

        # CSR wall id → owners, over the interner's full id space so
        # chain gathers can index it directly.  Walls are interned
        # first: dangling walls of ad-hoc networks may lie outside the
        # pre-seeded sensing-edge table.
        wall_ids = {wall: intern(*wall)[0] for wall in network.walls}
        owner_lists: List[Sequence[int]] = [()] * len(interner)
        for wall, wall_id in wall_ids.items():
            owner_lists[wall_id] = sorted(network.wall_sensors(*wall))
        wo_offsets = np.concatenate(([0], np.cumsum([len(o) for o in owner_lists], dtype=np.int64)))
        wo_sensors = np.array(
            [s for owners in owner_lists for s in owners], dtype=np.int32
        )

        return cls(
            ext_region=network.ext_region,
            n_regions=n_regions,
            region_of_junction=region_of_junction,
            region_by_x=region_by_x,
            region_extent=region_extent,
            rj_offsets=rj_offsets,
            rj_junctions=rj_junctions,
            rw_offsets=rw_offsets,
            rw_wall_ids=rw_wall_ids,
            rw_signs=rw_signs,
            rw_across=rw_across,
            side_walls=rw_wall_ids[first],
            side_regions=np.stack((own[first], own[second])),
            side_signs=rw_signs[first],
            wo_offsets=wo_offsets,
            wo_sensors=wo_sensors,
        )

    def wall_owners_dense(self) -> np.ndarray:
        """Dense wall id → owners matrix (lazy), each owner stored as
        its sensor id **plus one** and padded with 0: a gather indexes
        a per-sensor table directly, the padding landing in slot 0.

        Owner lists are tiny (one or two sensors per wall), so a matrix
        row gather beats a CSR gather on the hot perimeter path.
        """
        if self.wo_dense is None:
            counts = np.diff(self.wo_offsets)
            width = int(counts.max()) if len(counts) else 0
            dense = np.zeros((len(counts), max(width, 1)), dtype=np.intp)
            for column in range(width):
                rows = np.flatnonzero(counts > column)
                dense[rows, column] = self.wo_sensors[
                    self.wo_offsets[rows] + column
                ] + 1
            self.wo_dense = dense
        return self.wo_dense

    def junction_blocks(
        self, domain: MobilityDomain
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR junction index → incident sensor blocks (lazy; flood)."""
        if self.jb_offsets is None:
            dual = domain.dual
            outer = dual.outer_node
            per_junction: List[List[int]] = []
            for junction in domain.junctions:
                blocks = set()
                for neighbour in domain.graph.neighbors(junction):
                    left, right = dual.faces_of_primal_edge(
                        junction, neighbour
                    )
                    blocks.update(
                        b for b in (left, right) if b != outer
                    )
                per_junction.append(sorted(blocks))
            lens = np.fromiter(
                (len(b) for b in per_junction),
                dtype=np.int64,
                count=len(per_junction),
            )
            self.jb_offsets = np.concatenate(
                ([0], np.cumsum(lens))
            ).astype(np.int64)
            self.jb_blocks = np.array(
                [b for blocks in per_junction for b in blocks],
                dtype=np.int32,
            )
        return self.jb_offsets, self.jb_blocks


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def full_network(domain: MobilityDomain) -> SensorNetwork:
    """The unsampled sensing graph ``G``: every sensing edge is a wall.

    Every junction becomes its own sensing region; this is the paper's
    exact-count reference configuration ([34] without sampling).
    """
    walls = frozenset(
        canonical_edge(u, v) for u, v in domain.sensing_edges()
    )
    sensors = tuple(sorted(domain.dual.interior_nodes))
    return SensorNetwork(
        domain=domain, sensors=sensors, walls=walls, name="full"
    )


def sampled_network(
    domain: MobilityDomain,
    sensor_blocks: Sequence[int],
    connectivity: str = "triangulation",
    k: int = 5,
    name: Optional[str] = None,
) -> SensorNetwork:
    """Materialise a sampled graph ``G~`` from selected sensor blocks.

    Logical edges between the selected blocks (Delaunay triangulation
    or symmetric k-NN) are routed along shortest paths in the sensing
    dual graph — avoiding the infinity node, so routes stay inside the
    domain — and every primal edge crossed becomes a monitored wall
    owned by the two endpoint sensors (Fig. 6b/e).
    """
    blocks = list(dict.fromkeys(sensor_blocks))
    if len(blocks) < 2:
        raise SelectionError("a sampled network needs at least two sensors")
    outer = domain.dual.outer_node
    if outer in blocks:
        raise SelectionError("the infinity node cannot be a sensor")
    positions = np.array([domain.dual.position(b) for b in blocks])

    if connectivity == "triangulation":
        logical = triangulation_edges(positions)
    elif connectivity == "knn":
        logical = knn_edges(positions, k)
    else:
        raise SelectionError(
            f"unknown connectivity {connectivity!r}; "
            "use 'triangulation' or 'knn'"
        )

    walls: Set[Wall] = set()
    owners: Dict[Wall, Set[int]] = {}
    forbidden = {outer} if outer is not None else set()
    for i, j in logical:
        route = domain.dual.shortest_path(
            blocks[i], blocks[j], forbidden=forbidden
        )
        if route is None:
            continue  # unreachable without leaving the domain; skip
        _, crossings = route
        for wall in crossings:
            wall = canonical_edge(*wall)
            walls.add(wall)
            owners.setdefault(wall, set()).add(blocks[i])
            owners[wall].add(blocks[j])

    label = name or f"sampled-{connectivity}"
    return SensorNetwork(
        domain=domain,
        sensors=tuple(blocks),
        walls=frozenset(walls),
        name=label,
        wall_owners={w: frozenset(o) for w, o in owners.items()},
    )


def wall_network(
    domain: MobilityDomain,
    walls: Iterable[Wall],
    sensors: Sequence[int],
    name: str = "walls",
) -> SensorNetwork:
    """A network directly defined by walls (submodular plans, tests)."""
    return SensorNetwork(
        domain=domain,
        sensors=tuple(sensors),
        walls=frozenset(canonical_edge(u, v) for u, v in walls),
        name=name,
    )
