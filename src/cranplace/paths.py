"""K-shortest loopless path precomputation and the per-BS delay-sorted
path lists driving every placement heuristic."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import NoPath
from .model import BASE_STATION, CLOUD, Topology
from .queueing import path_delay

_ENUMERATION_LIMIT = 200_000


@dataclass
class PathEntry:
    id: str
    nodes: tuple[str, ...]
    links: tuple  # Link objects, in traversal order
    current_delay: float = 0.0

    @property
    def link_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(l.key for l in self.links)

    @property
    def cloud(self) -> str:
        return self.nodes[-1]


def _simple_paths_by_hops(topology: Topology, src: str, dst: str):
    """Yield loopless node sequences from src to dst grouped by hop count,
    in (hop count, lexicographic) order.

    Best-first expansion over partial paths; base stations other than the
    endpoints never relay traffic and are not expanded through.
    """
    heap = [(0, (src,))]
    pops = 0
    while heap:
        pops += 1
        if pops > _ENUMERATION_LIMIT:
            raise RuntimeError("path enumeration limit exceeded")
        hops, nodes = heapq.heappop(heap)
        tail = nodes[-1]
        if tail == dst:
            yield nodes
            continue
        for nbr in topology.neighbors(tail):
            if nbr in nodes:
                continue
            if nbr != dst and topology.nodes[nbr].kind in (BASE_STATION,
                                                           CLOUD):
                continue
            heapq.heappush(heap, (hops + 1, nodes + (nbr,)))


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
    collected: list[tuple[str, ...]] = []
    level = None
    for nodes in _simple_paths_by_hops(topology, src, dst):
        hops = len(nodes) - 1
        if len(collected) >= k and hops > level:
            break
        collected.append(nodes)
        level = hops
    if not collected:
        raise NoPath(f"{dst} unreachable from {src}")

    entries = []
    for idx, nodes in enumerate(collected):
        links = tuple(topology.links[(u, v)]
                      for u, v in zip(nodes, nodes[1:]))
        entry = PathEntry(id=f"{src}=>{dst}#{idx}", nodes=nodes, links=links)
        entry.current_delay = path_delay(links, {})
        entries.append(entry)
    entries.sort(key=lambda e: (len(e.nodes), e.current_delay, e.nodes))
    return entries[:k]


@dataclass
class SortedPathLists:
    """Per first-hop node, all candidate paths to every cloud, kept sorted
    ascending by current delay. Base stations sharing an aggregator share
    the underlying entries. `intercloud_links` caches, per (source,
    destination) cloud pair, the links of the shortest path between them,
    or None when there is none; migration fills it on first use."""

    topology: Topology
    by_first_hop: dict[str, list[PathEntry]] = field(default_factory=dict)
    first_hop_of: dict[str, str] = field(default_factory=dict)
    paths_by_id: dict[str, PathEntry] = field(default_factory=dict)
    intercloud_links: dict[tuple[str, str], tuple | None] = field(
        default_factory=dict)

    def list_for_bs(self, bs: str) -> list[PathEntry]:
        return self.by_first_hop[self.first_hop_of[bs]]


def build_sorted_lists(topology: Topology, k: int) -> SortedPathLists:
    """Precompute k-shortest paths from every base station's first hop to
    every cloud and sort them by idle delay."""
    lists = SortedPathLists(topology)
    clouds = sorted(c.id for c in topology.clouds())
    for bs in sorted(n.id for n in topology.base_stations()):
        hop = topology.first_hop(bs)
        lists.first_hop_of[bs] = hop
        if hop in lists.by_first_hop:
            continue
        entries: list[PathEntry] = []
        for cloud in clouds:
            try:
                found = k_shortest_paths(topology, hop, cloud, k)
            except NoPath:
                continue
            entries.extend(found)
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


def refresh_delays(lists: SortedPathLists, link_loads) -> SortedPathLists:
    """Recompute every entry's delay from the given link loads and re-sort
    each list; the sort is stable so exact ties keep their prior order."""
    for hop in lists.by_first_hop:
        refresh_one(lists, hop, link_loads)
    return lists
