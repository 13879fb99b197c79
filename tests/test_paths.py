import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranplace.errors import NoPath
from cranplace.model import BASE_STATION, CLOUD, ROUTER, Link, Node, Topology
from cranplace.paths import build_sorted_lists, k_shortest_paths, refresh_one
from cranplace.queueing import path_delay
from cranplace.topology import build_topology

from conftest import micro_scenario


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


# -- the lists built a second way ----------------------------------------

def _reference_paths(topology, src, k):
    """Per cloud, the (id, nodes, delay repr) of its kept paths from src:
    every loopless path by depth-first search, relaying through routers
    only, numbered in (hop count, node sequence) order; then every path up
    to the k-th path's hop count, ordered by hop count, idle delay and node
    sequence, and the first k kept."""
    kind = {nid: n.kind for nid, n in topology.nodes.items()}
    walks = []
    stack = [(src,)]
    while stack:
        nodes = stack.pop()
        walks.append(nodes)
        if len(nodes) == 1 or kind[nodes[-1]] == ROUTER:
            stack.extend(nodes + (nbr,)
                         for nbr in topology.neighbors(nodes[-1])
                         if nbr not in nodes and kind[nbr] != BASE_STATION)
    out = {}
    for cloud in (nid for nid in kind if kind[nid] == CLOUD):
        ranked = sorted((w for w in walks if w[-1] == cloud),
                        key=lambda w: (len(w), w))
        if len(ranked) > k:
            ranked = [w for w in ranked if len(w) <= len(ranked[k - 1])]
        rows = []
        for idx, nodes in enumerate(ranked):
            links = [topology.links[key] for key in zip(nodes, nodes[1:])]
            rows.append((f"{src}=>{cloud}#{idx}", nodes,
                         path_delay(links, {})))
        rows.sort(key=lambda r: (len(r[1]), r[2], r[1]))
        out[cloud] = [(i, n, repr(d)) for i, n, d in rows[:k]]
    return out


def _rows(entries):
    return [(e.id, e.nodes, repr(e.current_delay)) for e in entries]


def _assert_matches_reference(topology, k):
    lists = build_sorted_lists(topology, k)
    hops = {topology.first_hop(bs.id) for bs in topology.base_stations()}
    assert set(lists.by_first_hop) == hops
    for hop in hops:
        per_cloud = _reference_paths(topology, hop, k)
        merged = sorted((r for rows in per_cloud.values() for r in rows),
                        key=lambda r: (float(r[2]), len(r[1]), r[0]))
        assert _rows(lists.by_first_hop[hop]) == merged
        for cloud, rows in per_cloud.items():
            if rows:
                assert _rows(k_shortest_paths(topology, hop, cloud, k)) \
                    == rows
            else:
                with pytest.raises(NoPath):
                    k_shortest_paths(topology, hop, cloud, k)


@settings(max_examples=40, deadline=None)
@given(n_bs=st.integers(1, 20), n_clouds=st.integers(1, 9),
       per_aggregator=st.integers(1, 4), k=st.integers(1, 4))
def test_generated_lists_match_the_reference(n_bs, n_clouds, per_aggregator,
                                             k):
    _assert_matches_reference(build_topology(n_bs, n_clouds, per_aggregator),
                              k)


@settings(max_examples=60, deadline=None)
@given(n_bs=st.integers(1, 60), n_clouds=st.integers(1, 9),
       per_aggregator=st.integers(1, 8), k=st.integers(1, 4))
def test_generated_paths_pass_through_no_base_station(n_bs, n_clouds,
                                                      per_aggregator, k):
    # paths start at the first hop, so no path holds a base station's
    # access link, and no delay counts one
    topology = build_topology(n_bs, n_clouds, per_aggregator)
    stations = {n.id for n in topology.base_stations()}
    lists = build_sorted_lists(topology, k)
    for entries in lists.by_first_hop.values():
        assert entries
        for entry in entries:
            assert stations.isdisjoint(entry.nodes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 200), k=st.integers(1, 4))
def test_micro_lists_match_the_reference(seed, k):
    _assert_matches_reference(micro_scenario(seed).topology, k)


@st.composite
def _graphs(draw):
    """Small directed graphs of base stations, routers and clouds with
    random wiring and link rates, so that equal hop counts tie or differ
    in delay, clouds can be unreachable and first hops can be clouds or
    base stations."""
    n_bs = draw(st.integers(1, 3))
    ids = ([f"b{i}" for i in range(n_bs)]
           + [f"r{i}" for i in range(draw(st.integers(0, 5)))]
           + [f"c{i}" for i in range(draw(st.integers(1, 4)))])
    kinds = {"b": BASE_STATION, "r": ROUTER, "c": CLOUD}
    nodes = [Node(i, kinds[i[0]], service_rate=1e6 if i[0] == "c" else 0.0)
             for i in ids]
    pairs = [(u, v) for u in ids for v in ids if u != v]
    wired = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    edges = {p for p, w in zip(pairs, wired) if w}
    for bs in ids[:n_bs]:   # every base station needs a first hop
        edges.add((bs, draw(st.sampled_from(ids[n_bs:]))))
    mu = st.sampled_from([1e5, 2e5, 5e5])
    return Topology(nodes, [Link(u, v, draw(mu), 10.0)
                            for u, v in sorted(edges)])


@settings(max_examples=150, deadline=None)
@given(topology=_graphs(), k=st.integers(1, 6))
def test_random_graph_lists_match_the_reference(topology, k):
    _assert_matches_reference(topology, k)


def test_sparse_wiring_matches_the_reference():
    # bs0 is wired straight to cloud c0, from which no other cloud is
    # reachable; from r0, c0 has two paths, the second popped being the
    # faster, and c2 and cA one each, so k = 3 exceeds every cloud's path
    # count
    nodes = ([Node(b, BASE_STATION) for b in ("bs0", "bs1")]
             + [Node(r, ROUTER) for r in ("r0", "r1", "r2")]
             + [Node(c, CLOUD, service_rate=1e6) for c in ("c0", "c2", "cA")])
    links = [Link(u, v, mu, 10.0) for u, v, mu in (
        ("bs0", "c0", 1e5), ("bs1", "r0", 1e5), ("r0", "r1", 2e5),
        ("r1", "c0", 1e5), ("r0", "r2", 5e5), ("r2", "c0", 1e5),
        ("r2", "c2", 1e5), ("r0", "cA", 1e5), ("c0", "r1", 5e5))]
    topology = Topology(nodes, links)
    lists = build_sorted_lists(topology, 3)
    assert lists.first_hop_of == {"bs0": "c0", "bs1": "r0"}
    assert [e.nodes for e in lists.by_first_hop["c0"]] == [("c0",)]
    assert sorted(e.nodes for e in lists.by_first_hop["r0"]) == [
        ("r0", "cA"), ("r0", "r1", "c0"), ("r0", "r2", "c0"),
        ("r0", "r2", "c2")]
    with pytest.raises(NoPath):
        k_shortest_paths(topology, "c0", "c2", 3)
    for k in range(1, 5):
        _assert_matches_reference(topology, k)
