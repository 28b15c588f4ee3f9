"""Shared fixtures: one small domain + workload reused across tests.

Session-scoped so the expensive pieces (road generation, trip planning,
event extraction, full-network ingestion) are built once.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.forms import TrackingForm
from repro.mobility import MobilityDomain, grid_city, organic_city
from repro.sampling import full_network, sampled_network
from repro.selection import QuadTreeSelector, SensorCandidates
from repro.trajectories import WorkloadConfig, generate_workload, ingest

# Hypothesis profiles, selected by HYPOTHESIS_PROFILE: "dev" explores
# with fresh randomness; "ci" replays the same examples on every run
# and has no deadline, so a slow shared runner cannot flake a generated
# test, and prints the reproduction blob of any failure.
settings.register_profile("dev")
settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def grid_domain() -> MobilityDomain:
    """A small, perfectly regular domain (easy to reason about)."""
    return MobilityDomain(
        grid_city(rows=7, cols=7, jitter=0.0, drop_fraction=0.0)
    )


@pytest.fixture(scope="session")
def organic_domain() -> MobilityDomain:
    """A small organic (Voronoi) domain — the realistic city shape."""
    return MobilityDomain(
        organic_city(blocks=80, rng=np.random.default_rng(42))
    )


@pytest.fixture(scope="session")
def workload(organic_domain):
    """A small but busy trip workload on the organic domain."""
    return generate_workload(
        organic_domain,
        WorkloadConfig(
            n_trips=400,
            horizon_days=1.0,
            mean_dwell=3600.0,
            seed=11,
        ),
    )


@pytest.fixture(scope="session")
def events(organic_domain, workload):
    return workload.events(organic_domain)


@pytest.fixture(scope="session")
def full_net(organic_domain):
    return full_network(organic_domain)


@pytest.fixture(scope="session")
def full_form(full_net, events) -> TrackingForm:
    return full_net.build_form(events)


@pytest.fixture(scope="session")
def sampled_net(organic_domain):
    candidates = SensorCandidates.from_domain(organic_domain)
    chosen = QuadTreeSelector().select(
        candidates, 16, np.random.default_rng(7)
    )
    return sampled_network(organic_domain, chosen)


@pytest.fixture(scope="session")
def sampled_form(sampled_net, events) -> TrackingForm:
    return sampled_net.build_form(events)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
