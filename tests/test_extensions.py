"""Unit tests for the energy model."""

import pytest

from lib.energy import EnergyModel, RadioParameters
from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# Energy model (§3.1 motivation)
# ----------------------------------------------------------------------
class TestEnergyModel:
    def test_radio_validation(self):
        with pytest.raises(ConfigurationError):
            RadioParameters(tx_electronics=-1)
        with pytest.raises(ConfigurationError):
            RadioParameters(path_loss_exponent=9)

    def test_transmit_grows_with_distance(self):
        radio = RadioParameters()
        assert radio.transmit(10.0) > radio.transmit(1.0)

    def test_centralized_updates_cost_more(
        self, sampled_net, events
    ):
        model = EnergyModel(sampled_net)
        observed = sampled_net.observed_events(events)
        central = model.centralized_updates(observed)
        local = model.in_network_updates(observed)
        # Long-range sync dominates short local hops (§3.1).
        assert central.total > 3 * local.total
        assert central.peak_sensor_energy > local.peak_sensor_energy

    def test_in_network_ignores_unsensed_events(self, sampled_net, events):
        model = EnergyModel(sampled_net)
        all_events_report = model.in_network_updates(events)
        observed_report = model.in_network_updates(
            sampled_net.observed_events(events)
        )
        assert all_events_report.total == observed_report.total

    def test_query_energy_scales_with_perimeter(self, sampled_net):
        model = EnergyModel(sampled_net)
        few = model.query_energy(list(sampled_net.sensors[:3]))
        many = model.query_energy(list(sampled_net.sensors[:12]))
        assert many > few

    def test_query_energy_empty(self, sampled_net):
        assert EnergyModel(sampled_net).query_energy([]) == 0.0
