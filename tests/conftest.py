"""Shared builders: hand-sized topologies, scenarios and the seeded
micro-instance family used by the oracle-comparison tests."""

import random

import pytest

from cranplace.model import DEFAULT_CLASSES, DEFAULT_VM_CATALOG
from cranplace.model import (CapacityVector, Scenario, ServiceRequest)
from cranplace.topology import LinkParams, build_topology, bs_node_id


def micro_link_params() -> LinkParams:
    return LinkParams(backhaul_gbps=40.0,
                      cloud_capacity_total=CapacityVector(400.0, 3000.0,
                                                          200.0),
                      cloud_service_rate_total=1.2e8)


def micro_scenario(seed: int) -> Scenario:
    """Small seeded instance within the exact solver's search budget:
    at most 4 base stations, 3 clouds, 2 VM types and 4 requests, with
    enough capacity that every request is placeable."""
    rng = random.Random(seed)
    n_bs = rng.randint(2, 4)
    n_clouds = rng.randint(2, 3)
    n_req = rng.randint(2, 4)
    topo = build_topology(n_bs, n_clouds, 2, micro_link_params())
    vms = [DEFAULT_VM_CATALOG[2], DEFAULT_VM_CATALOG[3]]
    classes = list(DEFAULT_CLASSES)
    requests = [
        ServiceRequest(
            id=i, origin=bs_node_id(rng.randrange(n_bs), n_bs),
            class_name=rng.choice(classes).name,
            volume_packets=1000.0, packet_size_bytes=500.0,
            arrival_time=0.001 * i, holding_time=0.008)
        for i in range(n_req)]
    return Scenario(topology=topo, vm_catalog=vms, classes=classes,
                    requests=requests, cost_threshold=10000.0,
                    degradation_fraction=0.2, k_paths=2,
                    resource_cap_total=50000.0,
                    params={"packet_size_bytes": 500.0})


@pytest.fixture
def tiny_scenario() -> Scenario:
    """Fixed 2-BS / 2-cloud instance for targeted state and solver tests."""
    return micro_scenario(7)
