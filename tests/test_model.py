import math
from dataclasses import replace

import pytest

from cranplace.errors import ScenarioError
from cranplace.model import (CapacityVector, Link, Node, ServiceClass,
                             ServiceRequest, Topology, VmType, capacity_fits,
                             demand_of, with_requests)


class TestCapacityVector:
    def test_arithmetic(self):
        a = CapacityVector(1.0, 2.0, 3.0)
        b = CapacityVector(0.5, 1.0, 1.5)
        assert a + b == CapacityVector(1.5, 3.0, 4.5)
        assert a - b == CapacityVector(0.5, 1.0, 1.5)
        assert a.scale(2.0) == CapacityVector(2.0, 4.0, 6.0)

    def test_covers_is_componentwise(self):
        big = CapacityVector(2.0, 2.0, 2.0)
        assert big.covers(CapacityVector(2.0, 2.0, 2.0))
        assert not big.covers(CapacityVector(2.0, 2.1, 0.0))

    def test_zero_and_nonnegative(self):
        assert CapacityVector().is_zero()
        assert CapacityVector(0.0, 0.0, 0.0).nonnegative()
        assert not CapacityVector(-1e-12, 0.0, 0.0).nonnegative()


class TestCapacityFits:
    def test_storage_never_degraded(self):
        demand = CapacityVector(10.0, 100.0, 10.0)
        residual = CapacityVector(8.0, 99.9, 8.0)
        assert not capacity_fits(demand, residual, 0.2)

    def test_cpu_and_network_degrade(self):
        demand = CapacityVector(10.0, 100.0, 10.0)
        residual = CapacityVector(8.0, 100.0, 8.0)
        assert capacity_fits(demand, residual, 0.2)
        assert not capacity_fits(demand, residual, 0.1)

    def test_degradation_range(self):
        d = CapacityVector(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            capacity_fits(d, d, 1.0)
        with pytest.raises(ValueError):
            capacity_fits(d, d, -0.1)


class TestNodesAndLinks:
    def test_non_cloud_capacity_rejected(self):
        with pytest.raises(ScenarioError):
            Node("r0", "router", capacity=CapacityVector(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("rate", [0.0, -5.0, math.nan, math.inf])
    def test_cloud_service_rate_must_be_finite_and_positive(self, rate):
        # a zero or negative rate would drop the M/M/1 term of every
        # request placed there
        with pytest.raises(ScenarioError, match="service_rate"):
            Node("c0", "cloud", service_rate=rate)
        Node("c0", "cloud", service_rate=1e6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            Node("x", "switch")

    def test_link_needs_positive_rates(self):
        with pytest.raises(ScenarioError):
            Link("a", "b", 0.0, 1.0)
        with pytest.raises(ScenarioError):
            Link("a", "b", 1.0, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ScenarioError):
                Link("a", "b", bad, 1.0)
            with pytest.raises(ScenarioError):
                Link("a", "b", 1.0, bad)

    def test_topology_rejects_duplicates_and_dangling(self):
        a = Node("a", "router")
        b = Node("b", "router")
        with pytest.raises(ScenarioError):
            Topology([a, a], [])
        with pytest.raises(ScenarioError):
            Topology([a, b], [Link("a", "c", 1.0, 1.0)])
        l = Link("a", "b", 1.0, 1.0)
        with pytest.raises(ScenarioError):
            Topology([a, b], [l, l])

    def test_neighbors_sorted(self):
        nodes = [Node(n, "router") for n in ("m", "a", "z")]
        links = [Link("m", "z", 1.0, 1.0), Link("m", "a", 1.0, 1.0)]
        topo = Topology(nodes, links)
        assert topo.neighbors("m") == ["a", "z"]


class TestCatalogAndClasses:
    def test_vm_resource_units(self):
        vm = VmType("t", CapacityVector(8.0, 61.0, 5.0), 0.5)
        assert vm.resource_units == 13.0

    def test_vm_validation(self):
        with pytest.raises(ScenarioError):
            VmType("t", CapacityVector(0.0, 1.0, 1.0), 0.5)
        for cost in (0.0, math.nan, math.inf):
            with pytest.raises(ScenarioError):
                VmType("t", CapacityVector(1.0, 1.0, 1.0), cost)

    def test_class_validation(self):
        with pytest.raises(ScenarioError):
            ServiceClass("c", CapacityVector(-1.0, 0.0, 0.0), 1.0)
        for bound in (0.0, math.nan, math.inf):
            with pytest.raises(ScenarioError):
                ServiceClass("c", CapacityVector(1.0, 1.0, 1.0), bound)

    def test_rejects_non_finite_or_negative(self):
        # capacities are checked where they enter, not on every sum; a
        # negative cloud capacity would silently drop every request there
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            for i in range(3):
                parts = [1.0, 1.0, 1.0]
                parts[i] = bad
                cap = CapacityVector(*parts)
                with pytest.raises(ScenarioError):
                    Node("c0", "cloud", capacity=cap, service_rate=1e6)
                with pytest.raises(ScenarioError):
                    VmType("t", cap, 0.5)
                with pytest.raises(ScenarioError):
                    ServiceClass("c", cap, 1.0)


class TestRequests:
    def test_rate_and_offered_gbps(self):
        r = ServiceRequest(0, "bs0", "physical", volume_packets=1000.0,
                           packet_size_bytes=500.0, holding_time=0.008)
        assert r.rate_pps == 125000.0
        assert r.offered_gbps == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            ServiceRequest(0, "bs0", "c", 0.0, 500.0)
        for holding in (0.0, math.nan, math.inf):
            with pytest.raises(ScenarioError):
                ServiceRequest(0, "bs0", "c", 1.0, 500.0,
                               holding_time=holding)
        for volume in (math.nan, math.inf):
            with pytest.raises(ScenarioError):
                ServiceRequest(0, "bs0", "c", volume, 500.0)
        for arrival in (-1.0, math.nan, math.inf):
            with pytest.raises(ScenarioError):
                ServiceRequest(0, "bs0", "c", 1.0, 500.0,
                               arrival_time=arrival)

    @pytest.mark.parametrize("rid", ["x", "3", 3.5, 3.0, True, None])
    def test_id_must_be_an_integer(self, rid):
        # ids key the allocations and sort the output rows
        with pytest.raises(ScenarioError, match="request id"):
            ServiceRequest(rid, "bs0", "c", 1.0, 500.0)
        ServiceRequest(-3, "bs0", "c", 1.0, 500.0)


class TestScenario:
    def test_demand_scales_with_offered_rate(self, tiny_scenario):
        req = tiny_scenario.requests[0]
        cls = tiny_scenario.service_class(req.class_name)
        demand = demand_of(req, tiny_scenario)
        factor = req.offered_gbps / 10.0
        assert demand == cls.demand_per_10gbps.scale(factor)

    def test_unknown_class_rejected(self, tiny_scenario):
        bad = ServiceRequest(99, tiny_scenario.requests[0].origin, "nope",
                             1000.0, 500.0)
        with pytest.raises(ScenarioError):
            with_requests(tiny_scenario, [bad])

    def test_duplicate_request_ids_rejected(self, tiny_scenario):
        # per-run caches and the request lookup key on the id
        first = tiny_scenario.requests[0]
        with pytest.raises(ScenarioError):
            with_requests(tiny_scenario, [first, first])

    def test_duplicate_vm_type_names_rejected(self, tiny_scenario):
        # the oracle replays its choice by name, so a twin would make it
        # return a VM it did not choose
        cheap, dear = tiny_scenario.vm_catalog
        twin = replace(dear, name=cheap.name)
        with pytest.raises(ScenarioError, match="VM type names"):
            replace(tiny_scenario, vm_catalog=[cheap, twin])

    def test_duplicate_class_names_rejected(self, tiny_scenario):
        # a lookup by name would find the twin, whose SLA would replace
        # the first class's
        first = tiny_scenario.classes[0]
        twin = replace(first, sla_delay_bound=2 * first.sla_delay_bound)
        with pytest.raises(ScenarioError, match="service class names"):
            replace(tiny_scenario, classes=tiny_scenario.classes + [twin])

    def test_origin_must_be_base_station(self, tiny_scenario):
        bad = ServiceRequest(99, "cloud0", "physical", 1000.0, 500.0)
        with pytest.raises(ScenarioError):
            with_requests(tiny_scenario, [bad])

    def test_mixed_packet_sizes_rejected(self, tiny_scenario):
        # link rates are converted at the scenario's packet size, request
        # rates at their own, so the two must agree
        first = tiny_scenario.requests[0]
        odd = ServiceRequest(99, first.origin, first.class_name, 1000.0,
                             1500.0)
        with pytest.raises(ScenarioError):
            with_requests(tiny_scenario, [first, odd])
        # without a params entry the default packet size applies
        bare = replace(tiny_scenario, params={})
        assert bare.requests == tiny_scenario.requests
        with pytest.raises(ScenarioError):
            replace(bare, requests=[odd])
        replace(bare, params={"packet_size_bytes": 1500.0}, requests=[odd])

    def test_cost_threshold_and_resource_cap_validated(self, tiny_scenario):
        for bad in (0.0, math.nan):
            with pytest.raises(ScenarioError):
                replace(tiny_scenario, cost_threshold=bad)
        for bad in (-1.0, math.nan):
            with pytest.raises(ScenarioError):
                replace(tiny_scenario, resource_cap_total=bad)

    def test_lookup_errors(self, tiny_scenario):
        with pytest.raises(ScenarioError):
            tiny_scenario.service_class("nope")
        with pytest.raises(ScenarioError):
            tiny_scenario.vm_type("nope")
