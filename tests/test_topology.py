import math

import pytest

from cranplace.errors import ScenarioError
from cranplace.model import ROUTER, CapacityVector
from cranplace.topology import (LinkParams, average_bs_cloud_hops,
                                bs_node_id, build_topology, chain_depth,
                                core_attachment, group_size,
                                hops_to_nearest_cloud)


class TestHelpers:
    def test_bs_node_id_padding(self):
        assert bs_node_id(3, 9) == "bs3"
        assert bs_node_id(3, 10) == "bs3"
        assert bs_node_id(3, 11) == "bs03"
        assert bs_node_id(42, 100) == "bs42"

    def test_group_size_rounds_half_up(self):
        assert group_size(60, 6) == 10
        assert group_size(60, 9) == 7
        assert group_size(50, 4) == 13

    def test_chain_depth_thresholds(self):
        # thresholds at 8 * 1.5^k: 8, 12, 18, 27, 40.5, 60.75, ...
        assert chain_depth(7) == 0
        assert chain_depth(8) == 1
        assert chain_depth(12) == 2
        assert chain_depth(27) == 4
        assert chain_depth(60) == 5

    def test_mu_for(self):
        p = LinkParams(packet_size_bytes=500.0)
        assert p.mu_for(40.0) == pytest.approx(1e7)


class TestBuildTopology:
    def test_node_inventory(self):
        topo = build_topology(8, 2, 4)
        # 8 BS, 2 aggregators, 2 heads, 2 clouds, no backhaul chain
        # (group size 4 < 8)
        assert len(topo.base_stations()) == 8
        assert len(topo.clouds()) == 2
        routers = [n.id for n in topo.of_kind(ROUTER)]
        assert sorted(routers) == ["agg0", "agg1", "head0", "head1"]

    def test_chain_depth_materialized(self):
        topo = build_topology(24, 2, 4)  # group size 12 -> depth 2
        names = set(topo.nodes)
        assert {"bh0_0", "bh0_1", "bh1_0", "bh1_1"} <= names
        assert ("head0", "bh0_0") in topo.links
        assert ("bh0_1", "cloud0") in topo.links

    def test_aggregators_round_robin_on_heads(self):
        topo = build_topology(20, 3, 4)  # 5 aggregators over 3 heads
        for a in range(5):
            assert (f"agg{a}", f"head{a % 3}") in topo.links

    def test_ring_wiring(self):
        topo = build_topology(12, 3, 4)
        for k in range(3):
            assert (f"head{k}", f"head{(k + 1) % 3}") in topo.links
        # two clouds share a single bidirectional pair, no self-loop ring
        topo2 = build_topology(12, 2, 4)
        assert ("head0", "head1") in topo2.links
        assert ("head1", "head0") in topo2.links
        topo1 = build_topology(12, 1, 4)
        assert ("head0", "head0") not in topo1.links

    def test_cloud_capacity_split_evenly(self):
        p = LinkParams()
        topo = build_topology(12, 3, 4, p)
        for c in topo.clouds():
            assert c.capacity == p.cloud_capacity_total.scale(1.0 / 3.0)
            assert c.service_rate == pytest.approx(
                p.cloud_service_rate_total / 3.0)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            build_topology(0, 1, 1)
        with pytest.raises(ScenarioError, match="n_bs"):
            build_topology("8", 1, 1)
        with pytest.raises(ScenarioError, match="chain_gbps"):
            LinkParams(chain_gbps=math.nan)
        with pytest.raises(ScenarioError, match="cloud_capacity_total"):
            LinkParams(cloud_capacity_total=CapacityVector(1.0, 0.0, 1.0))


class TestHopCounts:
    def test_core_attachment(self):
        topo = build_topology(8, 2, 4)
        assert core_attachment(topo, "bs0") == "head0"
        assert core_attachment(topo, "bs4") == "head1"

    def test_hops_to_nearest_cloud(self):
        topo = build_topology(8, 2, 4)  # heads attach clouds directly
        assert hops_to_nearest_cloud(topo, "head0") == 1

    def test_average_hops_known_fleet(self):
        # 60 base stations: one giant cloud needs a deep chain, nine
        # shallow clouds sit right behind their core routers
        assert average_bs_cloud_hops(build_topology(60, 1, 4)) == 6.0
        assert average_bs_cloud_hops(build_topology(60, 6, 4)) == 2.0
        assert average_bs_cloud_hops(build_topology(60, 9, 4)) == 1.0

    def test_average_hops_monotone_in_clouds(self):
        hops = [average_bs_cloud_hops(build_topology(60, n, 4))
                for n in range(1, 10)]
        assert all(b <= a for a, b in zip(hops, hops[1:]))
