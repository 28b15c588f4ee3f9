"""Energy accounting for the in-network system.

§3.1 motivates in-network processing partly with energy: *"substantial
network bandwidth and power are needed for centralized systems if
sensors are far from the servers (e.g., high-power radios for
long-distance data transmission, which can quickly drain
battery-powered sensors)"*.  This module quantifies that argument with
a standard first-order radio energy model (transmit cost grows with a
distance power law, receive cost constant) and compares the update
cost of two regimes:

- ``centralized``: every crossing event is sent from its detecting
  sensor directly to the server (long-range radio, continuous sync);
- ``in-network``: events stay local, one short hop to the owning
  communication sensor of the wall that observed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry import Point, distance
from repro.network import default_server_position
from repro.planar import canonical_edge
from repro.sampling import SensorNetwork
from repro.trajectories import CrossingEvent


@dataclass(frozen=True)
class RadioParameters:
    """First-order radio model (Heinzelman-style).

    Energy to transmit one message over distance ``d``:
    ``tx_electronics + amplifier * d**path_loss_exponent``; receive
    cost is ``rx_electronics``.  Units are arbitrary-but-consistent
    (nanojoule-ish per message); only ratios matter to the analysis.
    """

    tx_electronics: float = 50.0
    rx_electronics: float = 50.0
    amplifier: float = 10.0
    path_loss_exponent: float = 2.0

    def __post_init__(self) -> None:
        if min(self.tx_electronics, self.rx_electronics, self.amplifier) < 0:
            raise ConfigurationError("radio energies must be non-negative")
        if not 1.0 <= self.path_loss_exponent <= 6.0:
            raise ConfigurationError("path_loss_exponent must be in [1, 6]")

    def transmit(self, d: float) -> float:
        return self.tx_electronics + self.amplifier * (
            d**self.path_loss_exponent
        )

    def receive(self) -> float:
        return self.rx_electronics


@dataclass
class EnergyReport:
    """Total energy of one regime plus its per-sensor peak."""

    regime: str
    update_energy: float
    peak_sensor_energy: float


class EnergyModel:
    """Energy accounting over a sensing network and an event stream."""

    def __init__(
        self,
        network: SensorNetwork,
        radio: RadioParameters = RadioParameters(),
        server_position: Optional[Point] = None,
    ) -> None:
        self.network = network
        self.radio = radio
        # Default server location: just outside the north-east corner
        # (the shared helper, so the simulator's hop accounting and
        # this model's distance accounting describe the same legs).
        self.server_position = server_position or default_server_position(
            network.domain
        )
        self._mean_hop = network.domain.dual.mean_interior_edge_length()

    def _sensor_position(self, wall: Tuple) -> Point:
        """Position of the sensor detecting a wall crossing (midpoint
        of the wall's incident blocks, or the rim for EXT edges)."""
        domain = self.network.domain
        u, v = wall
        if u == "__ext__" or v == "__ext__":
            junction = v if u == "__ext__" else u
            return domain.position(junction)
        left, right = domain.dual.faces_of_primal_edge(u, v)
        positions = [
            domain.dual.position(b)
            for b in (left, right)
            if b != domain.dual.outer_node
        ]
        if not positions:
            return domain.position(u)
        x = sum(p[0] for p in positions) / len(positions)
        y = sum(p[1] for p in positions) / len(positions)
        return (x, y)

    # ------------------------------------------------------------------
    def centralized_updates(
        self, events: Sequence[CrossingEvent]
    ) -> EnergyReport:
        """Every event transmitted long-range to the server."""
        per_sensor: Dict[Tuple, float] = {}
        total = 0.0
        for event in events:
            wall = canonical_edge(event.tail, event.head)
            position = self._sensor_position(wall)
            cost = self.radio.transmit(
                distance(position, self.server_position)
            )
            total += cost
            per_sensor[wall] = per_sensor.get(wall, 0.0) + cost
        peak = max(per_sensor.values(), default=0.0)
        return EnergyReport(
            regime="centralized",
            update_energy=total,
            peak_sensor_energy=peak,
        )

    def in_network_updates(
        self, events: Sequence[CrossingEvent]
    ) -> EnergyReport:
        """Events recorded locally: one short-range hop to the owning
        communication sensor (or free when the detector is the owner)."""
        walls = self.network.walls
        per_sensor: Dict[Tuple, float] = {}
        total = 0.0
        hop_cost = self.radio.transmit(self._mean_hop) + self.radio.receive()
        for event in events:
            wall = canonical_edge(event.tail, event.head)
            if wall not in walls:
                continue  # undetected: no sensing, no energy
            total += hop_cost
            per_sensor[wall] = per_sensor.get(wall, 0.0) + hop_cost
        peak = max(per_sensor.values(), default=0.0)
        return EnergyReport(
            regime="in-network updates",
            update_energy=total,
            peak_sensor_energy=peak,
        )
