import pytest

from cranplace.errors import NoPath
from cranplace.paths import build_sorted_lists, k_shortest_paths, refresh_one
from cranplace.topology import build_topology


@pytest.fixture
def ring_topo():
    # 3 clouds on a core ring: multiple distinct routes between any
    # aggregator and any cloud
    return build_topology(12, 3, 4)


class TestKShortestPaths:
    def test_shortest_first_and_loopless(self, ring_topo):
        entries = k_shortest_paths(ring_topo, "agg0", "cloud0", 3)
        assert 1 <= len(entries) <= 3
        hops = [len(e.nodes) - 1 for e in entries]
        assert hops == sorted(hops)
        for e in entries:
            assert len(set(e.nodes)) == len(e.nodes)
            assert e.nodes[0] == "agg0" and e.nodes[-1] == "cloud0"
            assert e.link_keys == tuple(l.key for l in e.links)

    def test_direct_route_wins(self, ring_topo):
        entries = k_shortest_paths(ring_topo, "agg0", "cloud0", 1)
        assert entries[0].nodes == ("agg0", "head0", "cloud0")

    def test_deterministic(self, ring_topo):
        a = k_shortest_paths(ring_topo, "agg1", "cloud2", 3)
        b = k_shortest_paths(ring_topo, "agg1", "cloud2", 3)
        assert [e.nodes for e in a] == [e.nodes for e in b]

    def test_does_not_relay_through_other_clouds(self, ring_topo):
        for e in k_shortest_paths(ring_topo, "agg0", "cloud2", 3):
            assert "cloud0" not in e.nodes and "cloud1" not in e.nodes

    def test_k_validation_and_no_path(self, ring_topo):
        with pytest.raises(ValueError):
            k_shortest_paths(ring_topo, "agg0", "cloud0", 0)
        with pytest.raises(NoPath):
            k_shortest_paths(ring_topo, "agg0", "nowhere", 1)


class TestSortedLists:
    def test_every_bs_covered(self, ring_topo):
        lists = build_sorted_lists(ring_topo, 2)
        for bs in ring_topo.base_stations():
            entries = lists.list_for_bs(bs.id)
            assert entries, bs.id
            delays = [e.current_delay for e in entries]
            assert delays == sorted(delays)

    def test_shared_aggregator_shares_list(self, ring_topo):
        lists = build_sorted_lists(ring_topo, 2)
        assert lists.list_for_bs("bs00") is lists.list_for_bs("bs01")

    def test_refresh_resorts_under_load(self, ring_topo):
        lists = build_sorted_lists(ring_topo, 2)
        entries = lists.list_for_bs("bs00")
        first = entries[0]
        # saturate the preferred path's last hop almost fully (the first
        # hop is shared by every alternative, so loading it can't reorder)
        key = first.links[-1].key
        mu = first.links[-1].service_rate_mu
        refresh_one(lists, lists.first_hop_of["bs00"], {key: 0.999 * mu})
        reordered = lists.list_for_bs("bs00")
        assert reordered[0] is not first
        delays = [e.current_delay for e in reordered]
        assert delays == sorted(delays)

    def test_refresh_delays_idempotent_when_idle(self, ring_topo):
        lists = build_sorted_lists(ring_topo, 2)
        before = {hop: [e.id for e in entries]
                  for hop, entries in lists.by_first_hop.items()}
        for hop in lists.by_first_hop:
            refresh_one(lists, hop, {})
        assert {hop: [e.id for e in entries] for hop, entries
                in lists.by_first_hop.items()} == before

    def test_path_ids_unique(self, ring_topo):
        lists = build_sorted_lists(ring_topo, 3)
        ids = list(lists.paths_by_id)
        assert len(ids) == len(set(ids))
