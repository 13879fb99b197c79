"""Core domain types: capacities, nodes, links, VM catalog, service classes,
requests and scenario assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ScenarioError

BASE_STATION = "base_station"
ROUTER = "router"
CLOUD = "cloud"

NODE_KINDS = (BASE_STATION, ROUTER, CLOUD)

#: Table-5 style class demands are quoted for this offered bit rate (Gbps).
REFERENCE_GBPS = 10.0


@dataclass(frozen=True)
class CapacityVector:
    """3D resource triple: vCPUs, storage (GB), network (Gbps)."""

    cpu: float = 0.0
    storage: float = 0.0
    network: float = 0.0

    def __post_init__(self):
        for c in (self.cpu, self.storage, self.network):
            if not math.isfinite(c):
                raise ValueError("capacity components must be finite")

    def __add__(self, other: "CapacityVector") -> "CapacityVector":
        return CapacityVector(self.cpu + other.cpu,
                              self.storage + other.storage,
                              self.network + other.network)

    def __sub__(self, other: "CapacityVector") -> "CapacityVector":
        return CapacityVector(self.cpu - other.cpu,
                              self.storage - other.storage,
                              self.network - other.network)

    def scale(self, factor: float) -> "CapacityVector":
        return CapacityVector(self.cpu * factor,
                              self.storage * factor,
                              self.network * factor)

    def covers(self, other: "CapacityVector") -> bool:
        return (self.cpu >= other.cpu
                and self.storage >= other.storage
                and self.network >= other.network)

    def min_with(self, other: "CapacityVector") -> "CapacityVector":
        return CapacityVector(min(self.cpu, other.cpu),
                              min(self.storage, other.storage),
                              min(self.network, other.network))

    def nonnegative(self) -> bool:
        return self.cpu >= 0 and self.storage >= 0 and self.network >= 0

    def is_zero(self) -> bool:
        return self.cpu == 0 and self.storage == 0 and self.network == 0

    @staticmethod
    def zero() -> "CapacityVector":
        return CapacityVector(0.0, 0.0, 0.0)


def capacity_fits(demand: CapacityVector, residual: CapacityVector,
                  degradation: float) -> bool:
    """Degraded admission test: storage must be covered in full, CPU and
    network only up to a (1 - degradation) fraction."""
    if not 0.0 <= degradation < 1.0:
        raise ValueError("degradation must be in [0, 1)")
    keep = 1.0 - degradation
    return (residual.storage >= demand.storage
            and residual.cpu >= keep * demand.cpu
            and residual.network >= keep * demand.network)


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    capacity: CapacityVector = field(default_factory=CapacityVector.zero)
    traffic: float = 0.0          # packets/s generated, base stations only
    service_rate: float = 0.0     # packets/s processing rate, clouds only

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ScenarioError(f"unknown node kind {self.kind!r}")
        if self.kind != CLOUD and not self.capacity.is_zero():
            raise ScenarioError(f"non-cloud node {self.id} has capacity")
        if self.kind != BASE_STATION and self.traffic != 0:
            raise ScenarioError(f"non-BS node {self.id} generates traffic")
        if self.kind != CLOUD and self.service_rate != 0:
            raise ScenarioError(f"non-cloud node {self.id} has service rate")


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    service_rate_mu: float        # packets/s
    capacity_bw: float            # Gbps
    ignore_load: bool = False     # BS->aggregator backhaul links

    def __post_init__(self):
        if self.service_rate_mu <= 0 or self.capacity_bw <= 0:
            raise ScenarioError(f"link {self.src}->{self.dst} needs positive "
                                "rate and bandwidth")

    @property
    def key(self):
        return (self.src, self.dst)


class Topology:
    """Directed graph of base stations, routers and clouds."""

    def __init__(self, nodes, links):
        self.nodes: dict[str, Node] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ScenarioError(f"duplicate node id {n.id}")
            self.nodes[n.id] = n
        self.links: dict[tuple[str, str], Link] = {}
        for l in links:
            if l.src not in self.nodes or l.dst not in self.nodes:
                raise ScenarioError(f"link {l.src}->{l.dst} references "
                                    "unknown node")
            if l.key in self.links:
                raise ScenarioError(f"duplicate link {l.src}->{l.dst}")
            self.links[l.key] = l
        self._adj: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for (src, dst) in self.links:
            self._adj[src].append(dst)
        for nid in self._adj:
            self._adj[nid].sort()

    def neighbors(self, node_id: str) -> list[str]:
        return self._adj[node_id]

    def of_kind(self, kind: str) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def base_stations(self) -> list[Node]:
        return self.of_kind(BASE_STATION)

    def clouds(self) -> list[Node]:
        return self.of_kind(CLOUD)

    def first_hop(self, bs_id: str) -> str:
        """The routing element a base station attaches to."""
        nbrs = self._adj[bs_id]
        if not nbrs:
            raise ScenarioError(f"base station {bs_id} is isolated")
        return nbrs[0]


@dataclass(frozen=True)
class VmType:
    name: str
    capacity: CapacityVector
    hourly_cost: float

    def __post_init__(self):
        if self.capacity.cpu <= 0 or self.capacity.storage <= 0 \
                or self.capacity.network <= 0:
            raise ScenarioError(f"VM type {self.name}: capacity must be "
                                "strictly positive")
        if self.hourly_cost <= 0:
            raise ScenarioError(f"VM type {self.name}: cost must be positive")

    @property
    def resource_units(self) -> float:
        """Normalized deployment size charged against the resource cap."""
        return self.capacity.cpu + self.capacity.network


@dataclass(frozen=True)
class ServiceClass:
    name: str
    demand_per_10gbps: CapacityVector
    sla_delay_bound: float  # seconds

    def __post_init__(self):
        if not self.demand_per_10gbps.nonnegative():
            raise ScenarioError(f"class {self.name}: negative demand")
        if self.sla_delay_bound <= 0:
            raise ScenarioError(f"class {self.name}: SLA bound must be "
                                "positive")


@dataclass(frozen=True)
class ServiceRequest:
    id: int
    origin: str                 # base station node id
    class_name: str
    volume_packets: float
    packet_size_bytes: float
    arrival_time: float = 0.0
    holding_time: float = 1.0

    def __post_init__(self):
        if self.volume_packets <= 0:
            raise ScenarioError(f"request {self.id}: volume must be positive")
        if self.packet_size_bytes <= 0:
            raise ScenarioError(f"request {self.id}: packet size must be "
                                "positive")
        if self.holding_time <= 0:
            raise ScenarioError(f"request {self.id}: holding time must be "
                                "positive")

    @property
    def rate_pps(self) -> float:
        """Offered packet rate while the request is active."""
        return self.volume_packets / self.holding_time

    @property
    def offered_gbps(self) -> float:
        return self.rate_pps * self.packet_size_bytes * 8.0 / 1e9


@dataclass
class Scenario:
    topology: Topology
    vm_catalog: list[VmType]
    classes: list[ServiceClass]
    requests: list[ServiceRequest]
    cost_threshold: float
    degradation_fraction: float = 0.2
    k_paths: int = 3
    resource_cap_total: float = 50000.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cost_threshold <= 0:
            raise ScenarioError("cost_threshold must be positive")
        if not 0.0 <= self.degradation_fraction < 1.0:
            raise ScenarioError("degradation_fraction must be in [0, 1)")
        if self.k_paths < 1:
            raise ScenarioError("k_paths must be >= 1")
        self._classes = {c.name: c for c in self.classes}
        self._vms = {v.name: v for v in self.vm_catalog}
        self._requests = {r.id: r for r in self.requests}
        for r in self.requests:
            if r.class_name not in self._classes:
                raise ScenarioError(f"request {r.id}: unknown class "
                                    f"{r.class_name!r}")
            origin = self.topology.nodes.get(r.origin)
            if origin is None or origin.kind != BASE_STATION:
                raise ScenarioError(f"request {r.id}: origin {r.origin!r} is "
                                    "not a base station")

    def service_class(self, name: str) -> ServiceClass:
        try:
            return self._classes[name]
        except KeyError:
            raise ScenarioError(f"unknown service class {name!r}") from None

    def vm_type(self, name: str) -> VmType:
        try:
            return self._vms[name]
        except KeyError:
            raise ScenarioError(f"unknown VM type {name!r}") from None

    def request(self, request_id: int) -> ServiceRequest:
        try:
            return self._requests[request_id]
        except KeyError:
            raise ScenarioError(f"unknown request id {request_id!r}") \
                from None


def demand_of(request: ServiceRequest, scenario: Scenario) -> CapacityVector:
    """Resource demand of a request: its class demand scaled linearly by the
    offered bit rate relative to the 10 Gbps reference."""
    cls = scenario.service_class(request.class_name)
    return cls.demand_per_10gbps.scale(request.offered_gbps / REFERENCE_GBPS)


def with_requests(scenario: Scenario, requests) -> Scenario:
    """Scenario copy over a different request sequence."""
    return replace(scenario, requests=list(requests))
