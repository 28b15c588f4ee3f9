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
        assert central.update_energy > 3 * local.update_energy
        assert central.peak_sensor_energy > local.peak_sensor_energy

    def test_in_network_ignores_unsensed_events(self, sampled_net, events):
        model = EnergyModel(sampled_net)
        all_events_report = model.in_network_updates(events)
        observed_report = model.in_network_updates(
            sampled_net.observed_events(events)
        )
        assert all_events_report.update_energy == observed_report.update_energy

