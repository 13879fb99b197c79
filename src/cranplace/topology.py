"""Three-tier topology generator: base stations -> aggregation routers ->
core ring with per-cloud backhaul chains -> clouds."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from . import defaults
from .errors import ScenarioError
from .model import (BASE_STATION, CLOUD, ROUTER, CapacityVector, Link, Node,
                    Topology, check_count, check_number)


@dataclass(frozen=True)
class LinkParams:
    """Rates and capacities used when generating a topology."""

    backhaul_gbps: float = defaults.DEFAULT_BACKHAUL_GBPS
    bs_link_gbps: float = defaults.DEFAULT_BS_LINK_GBPS
    chain_gbps: float = defaults.DEFAULT_CHAIN_GBPS
    # converts Gbps to packets/s
    packet_size_bytes: float = defaults.DEFAULT_PACKET_SIZE_BYTES
    cloud_capacity_total: CapacityVector = field(
        default_factory=lambda: CapacityVector(
            *defaults.DEFAULT_CLOUD_CAPACITY_TOTAL))
    cloud_service_rate_total: float = defaults.DEFAULT_CLOUD_RATE_TOTAL

    def __post_init__(self):
        for name in ("backhaul_gbps", "bs_link_gbps", "chain_gbps",
                     "packet_size_bytes", "cloud_service_rate_total"):
            check_number(name, getattr(self, name))
        for amount in self.cloud_capacity_total:
            check_number("cloud_capacity_total", amount)

    def mu_for(self, gbps: float) -> float:
        return gbps * 1e9 / (self.packet_size_bytes * 8.0)


def bs_node_id(index: int, n_bs: int) -> str:
    """Zero-padded base-station node id, stable for a given fleet size."""
    width = len(str(max(n_bs - 1, 0)))
    return f"bs{index:0{width}d}"


def chain_depth(group_size: int) -> int:
    """Number of backhaul routers between a core router and its cloud.

    Grows roughly logarithmically with the number of base stations a cloud
    serves; small groups attach their cloud straight to the core router.
    """
    d = 0
    threshold = 8.0
    while group_size >= threshold - 1e-9:
        d += 1
        threshold *= 1.5
    return d


def group_size(n_bs: int, n_clouds: int) -> int:
    """Base stations served per cloud, rounded half-up."""
    return int(math.floor(n_bs / n_clouds + 0.5))


def build_topology(n_bs: int, n_clouds: int, bs_per_aggregator: int,
                   link_params: LinkParams | None = None) -> Topology:
    """Deterministic generator.

    Each cloud owns one core router ("head") plus a chain of backhaul
    routers whose depth scales with the per-cloud base-station group size.
    Aggregation routers attach round-robin to heads; heads form a ring.
    """
    check_count("n_bs", n_bs, 1)
    check_count("n_clouds", n_clouds, 1)
    check_count("bs_per_aggregator", bs_per_aggregator, 1)
    p = link_params or LinkParams()

    n_agg = math.ceil(n_bs / bs_per_aggregator)
    g = group_size(n_bs, n_clouds)
    depth = chain_depth(g)

    bs_id = lambda b: bs_node_id(b, n_bs)

    nodes: list[Node] = []
    links: list[Link] = []

    for b in range(n_bs):
        nodes.append(Node(bs_id(b), BASE_STATION))
    for a in range(n_agg):
        nodes.append(Node(f"agg{a}", ROUTER))
    for k in range(n_clouds):
        nodes.append(Node(f"head{k}", ROUTER))
        for r in range(depth):
            nodes.append(Node(f"bh{k}_{r}", ROUTER))
        nodes.append(Node(
            f"cloud{k}", CLOUD,
            capacity=p.cloud_capacity_total.scale(1.0 / n_clouds),
            service_rate=p.cloud_service_rate_total / n_clouds))

    def both_ways(src, dst, gbps):
        mu = p.mu_for(gbps)
        links.append(Link(src, dst, mu, gbps))
        links.append(Link(dst, src, mu, gbps))

    # access and aggregation
    for b in range(n_bs):
        both_ways(bs_id(b), f"agg{b // bs_per_aggregator}", p.bs_link_gbps)
    for a in range(n_agg):
        both_ways(f"agg{a}", f"head{a % n_clouds}", p.backhaul_gbps)

    # per-cloud backhaul chain; fat shared segment so that adding clouds
    # thins the per-chain load
    chain_gbps = p.chain_gbps
    for k in range(n_clouds):
        hops = [f"head{k}"] + [f"bh{k}_{r}" for r in range(depth)] \
            + [f"cloud{k}"]
        for u, v in zip(hops, hops[1:]):
            both_ways(u, v, chain_gbps)

    # core ring
    if n_clouds == 2:
        both_ways("head0", "head1", chain_gbps)
    elif n_clouds > 2:
        for k in range(n_clouds):
            both_ways(f"head{k}", f"head{(k + 1) % n_clouds}", chain_gbps)

    return Topology(nodes, links)


def core_attachment(topology: Topology, bs: str) -> str:
    """Core router behind a base station's aggregator."""
    agg = topology.first_hop(bs)
    for nbr in topology.neighbors(agg):
        if topology.nodes[nbr].kind == ROUTER:
            return nbr
    raise ScenarioError(f"aggregator {agg} has no core attachment")


def hops_to_nearest_cloud(topology: Topology, start: str) -> int:
    """BFS link count from a router to the closest cloud node."""
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        node, dist = queue.popleft()
        if topology.nodes[node].kind == CLOUD:
            return dist
        for nbr in topology.neighbors(node):
            if nbr not in seen and topology.nodes[nbr].kind != BASE_STATION:
                seen.add(nbr)
                queue.append((nbr, dist + 1))
    raise ScenarioError(f"no cloud reachable from {start}")


def average_bs_cloud_hops(topology: Topology) -> float:
    """Mean hop count over the inter-cloud segment: from each base
    station's core router to its nearest cloud."""
    stations = topology.base_stations()
    total = sum(hops_to_nearest_cloud(topology, core_attachment(topology, n.id))
                for n in stations)
    return total / len(stations)
