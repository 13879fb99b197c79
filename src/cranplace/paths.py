"""K-shortest loopless path precomputation and the per-BS delay-sorted
path lists driving every placement heuristic."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import NoPath, ScenarioError
from .model import BASE_STATION, CLOUD, Topology
from .queueing import path_delay

_ENUMERATION_LIMIT = 200_000


@dataclass
class PathEntry:
    id: str
    nodes: tuple[str, ...]
    links: tuple  # Link objects, in traversal order
    current_delay: float = 0.0
    link_keys: tuple[tuple[str, str], ...] = field(init=False)
    # (key, service rate mu) of each link, for the per-request delay screen
    link_rates: tuple[tuple[tuple[str, str], float], ...] = field(
        init=False)
    cloud: str = field(init=False)

    def __post_init__(self):
        # a link's key is its (src, dst) pair of consecutive nodes
        self.link_keys = tuple(zip(self.nodes, self.nodes[1:]))
        self.link_rates = tuple(zip(self.link_keys,
                                    [l.service_rate_mu for l in self.links]))
        self.cloud = self.nodes[-1]


def _paths_to(topology: Topology, src: str, targets, k: int):
    """Loopless node sequences from src to each target, found by one
    best-first search over (hop count, node tuple).

    A target's list holds every path up to its k-th path's hop count, in
    pop order, which is (hop count, lexicographic) order. A target is
    terminal and closes once it has k paths and a longer path is popped;
    the search stops when every target is closed or nothing is left to
    expand. Base stations and non-target clouds never relay traffic; the
    source is expanded whatever its kind.
    """
    found = {t: [] for t in targets}
    if src in found:
        # a loopless path never returns to its source
        found[src].append((src,))
    open_ = {t for t in found if t != src}
    relay = {nid for nid, n in topology.nodes.items()
             if n.kind not in (BASE_STATION, CLOUD)}
    heap = [(0, (src,))]
    level = 0
    pops = 0
    while heap and open_:
        pops += 1
        if pops > _ENUMERATION_LIMIT:
            raise ScenarioError(f"enumerating the paths from {src} "
                                f"exceeded {_ENUMERATION_LIMIT} steps")
        hops, nodes = heapq.heappop(heap)
        if hops > level:
            # every path of the previous hop count has been popped
            level = hops
            open_ = {t for t in open_ if len(found[t]) < k}
            if not open_:
                break
        tail = nodes[-1]
        if hops and tail in found:
            if tail in open_:
                found[tail].append(nodes)
            continue
        for nbr in topology.neighbors(tail):
            if nbr in nodes or not (nbr in relay or nbr in open_):
                continue
            heapq.heappush(heap, (hops + 1, nodes + (nbr,)))
    return found


def _entries(topology: Topology, src: str, dst: str, collected,
             k: int) -> list[PathEntry]:
    """The first k path entries of the collected node sequences, numbered
    in pop order and ordered by hop count, then idle-network delay, then
    node sequence."""
    entries = []
    for idx, nodes in enumerate(collected):
        links = tuple(topology.links[(u, v)]
                      for u, v in zip(nodes, nodes[1:]))
        entry = PathEntry(id=f"{src}=>{dst}#{idx}", nodes=nodes, links=links)
        entry.current_delay = path_delay(links, {})
        entries.append(entry)
    entries.sort(key=lambda e: (len(e.nodes), e.current_delay, e.nodes))
    return entries[:k]


def k_shortest_paths(topology: Topology, src: str, dst: str,
                     k: int) -> list[PathEntry]:
    """Up to k distinct loopless paths from src to dst.

    Ordered by hop count, then idle-network delay, then lexicographic node
    sequence; deterministic for identical inputs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if src not in topology.nodes or dst not in topology.nodes:
        raise NoPath(f"unknown endpoint {src!r} or {dst!r}")
    collected = _paths_to(topology, src, (dst,), k)[dst]
    if not collected:
        raise NoPath(f"{dst} unreachable from {src}")
    return _entries(topology, src, dst, collected, k)


@dataclass
class SortedPathLists:
    """Per first-hop node, all candidate paths to every cloud, kept sorted
    ascending by current delay. Base stations sharing an aggregator share
    the underlying entries. `intercloud_links` caches, per (source,
    destination) cloud pair, the (link key, capacity_bw) pairs of the
    shortest path between them, or None when there is none; migration
    fills it on first use."""

    by_first_hop: dict[str, list[PathEntry]] = field(default_factory=dict)
    first_hop_of: dict[str, str] = field(default_factory=dict)
    paths_by_id: dict[str, PathEntry] = field(default_factory=dict)
    intercloud_links: dict[tuple[str, str], tuple | None] = field(
        default_factory=dict)

    def list_for_bs(self, bs: str) -> list[PathEntry]:
        return self.by_first_hop[self.first_hop_of[bs]]


def build_sorted_lists(topology: Topology, k: int) -> SortedPathLists:
    """Precompute k-shortest paths from every base station's first hop to
    every cloud, with one search per first hop, and sort them by idle
    delay."""
    lists = SortedPathLists()
    clouds = sorted(c.id for c in topology.clouds())
    for bs in sorted(n.id for n in topology.base_stations()):
        hop = topology.first_hop(bs)
        lists.first_hop_of[bs] = hop
        if hop in lists.by_first_hop:
            continue
        entries: list[PathEntry] = []
        for cloud, collected in _paths_to(topology, hop, clouds, k).items():
            entries.extend(_entries(topology, hop, cloud, collected, k))
        entries.sort(key=lambda e: (e.current_delay, len(e.nodes), e.id))
        lists.by_first_hop[hop] = entries
        for e in entries:
            lists.paths_by_id[e.id] = e
    return lists


def refresh_one(lists: SortedPathLists, first_hop: str, link_loads) -> None:
    """Recompute and re-sort a single first-hop list (event-driven use)."""
    entries = lists.by_first_hop[first_hop]
    for e in entries:
        e.current_delay = path_delay(e.links, link_loads)
    entries.sort(key=lambda e: e.current_delay)

