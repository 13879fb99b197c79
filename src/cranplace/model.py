"""Core domain types: capacities, nodes, links, VM catalog, service classes,
requests and scenario assembly, and the stock VM catalog and service
classes."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from numbers import Number
from typing import NamedTuple

from . import defaults
from .errors import ScenarioError

BASE_STATION = "base_station"
ROUTER = "router"
CLOUD = "cloud"

NODE_KINDS = (BASE_STATION, ROUTER, CLOUD)

#: Table-5 style class demands are quoted for this offered bit rate (Gbps).
REFERENCE_GBPS = 10.0


#: the largest finite float; an int beyond it cannot become a float
_MAX = sys.float_info.max


def _shown(value) -> str:
    """`repr(value)`, or the size of an int too long for Python to print
    (over 4300 digits by default)."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def check_number(name: str, value, nonnegative: bool = False,
                 signed: bool = False) -> None:
    """A `ScenarioError` naming `name` unless `value` is a finite number
    above 0, at least 0 when `nonnegative`, or of any sign when `signed`.
    A number is an int or a float, a float subclass such as
    `numpy.float64` too: the numbers JSON writes. It is finite when it is
    at most the largest float in size, so an int converts to a float. A
    bool would be taken as 1 or 0; a `Decimal`, a `Fraction` or a numpy
    integer or float32 fails arithmetic mid-run or cannot be saved."""
    kind = value.__class__   # tested before isinstance, which is slower
    if not ((kind is float or kind is int
             or kind is not bool and isinstance(value, (int, float)))
            and (0 < value <= _MAX
                 or (signed or nonnegative and value == 0)
                 and -_MAX <= value <= _MAX)):
        sign = "" if signed else \
            "non-negative " if nonnegative else "positive "
        raise ScenarioError(f"{name} must be a finite {sign}number, not "
                            f"{_shown(value)}")


def check_count(name: str, value, least: int | None = None) -> None:
    """A `ScenarioError` naming `name` unless `value` is an integer, of at
    least `least` if one is given: a bool, a float or a string would be
    taken as 1, slice wrongly or raise mid-run."""
    kind = value.__class__
    if not (kind is int or kind is not bool and isinstance(value, int)) or (
            least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ScenarioError(f"{name} must be an integer{bound}, not "
                            f"{_shown(value)}")


class CapacityVector(NamedTuple):
    """3D resource triple: vCPUs, storage (GB), network (Gbps). The
    arithmetic checks nothing: `Node`, `VmType` and `ServiceClass` reject a
    non-finite capacity where it enters."""

    cpu: float = 0.0
    storage: float = 0.0
    network: float = 0.0

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

    def nonnegative(self) -> bool:
        return self.cpu >= 0 and self.storage >= 0 and self.network >= 0

    def is_zero(self) -> bool:
        return self.cpu == 0 and self.storage == 0 and self.network == 0


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
    capacity: CapacityVector = CapacityVector()
    service_rate: float = 0.0     # packets/s processing rate, clouds only

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ScenarioError(f"unknown node kind {self.kind!r}")
        cloud = self.kind == CLOUD
        try:
            for amount in self.capacity:
                check_number("capacity", amount, nonnegative=True)
            # the M/M/1 term of every request placed at a cloud divides
            # by it
            check_number("service_rate", self.service_rate,
                         nonnegative=not cloud)
        except ScenarioError as exc:
            raise ScenarioError(f"node {self.id}: {exc}") from None
        if not cloud and not self.capacity.is_zero():
            raise ScenarioError(f"non-cloud node {self.id} has capacity")
        if not cloud and self.service_rate != 0:
            raise ScenarioError(f"non-cloud node {self.id}: service_rate "
                                f"must be 0, not {self.service_rate!r}")


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    service_rate_mu: float        # packets/s
    capacity_bw: float            # Gbps

    def __post_init__(self):
        try:
            check_number("service_rate_mu", self.service_rate_mu)
            check_number("capacity_bw", self.capacity_bw)
        except ScenarioError as exc:
            raise ScenarioError(f"link {self.src}->{self.dst}: {exc}") \
                from None

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
        try:
            for amount in self.capacity:
                check_number("capacity", amount)
            check_number("hourly_cost", self.hourly_cost)
        except ScenarioError as exc:
            raise ScenarioError(f"VM type {self.name}: {exc}") from None

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
        try:
            for amount in self.demand_per_10gbps:
                check_number("demand_per_10gbps", amount, nonnegative=True)
            check_number("sla_delay_bound", self.sla_delay_bound)
        except ScenarioError as exc:
            raise ScenarioError(f"class {self.name}: {exc}") from None


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
        # ids key the allocations and sort the output rows
        check_count("request id", self.id)
        try:
            check_number("volume_packets", self.volume_packets)
            check_number("packet_size_bytes", self.packet_size_bytes)
            check_number("arrival_time", self.arrival_time, nonnegative=True)
            check_number("holding_time", self.holding_time)
        except ScenarioError as exc:
            raise ScenarioError(f"request {self.id}: {exc}") from None

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
    degradation_fraction: float = defaults.DEFAULT_DEGRADATION_FRACTION
    k_paths: int = defaults.DEFAULT_K_PATHS
    resource_cap_total: float = defaults.DEFAULT_RESOURCE_CAP
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_number("cost_threshold", self.cost_threshold)
        check_number("degradation_fraction", self.degradation_fraction,
                     nonnegative=True)
        if not self.degradation_fraction < 1.0:
            raise ScenarioError("degradation_fraction must be below 1, not "
                                f"{self.degradation_fraction!r}")
        check_count("k_paths", self.k_paths, 1)
        check_number("resource_cap_total", self.resource_cap_total,
                     nonnegative=True)
        # the generator's seed, which `compare` and `sweep` also seed the
        # heuristics with; `random.Random` takes any int, negative too
        check_count("seed", self.setting("seed"))
        for name in ("migration_eviction_limit", "migration_target_limit"):
            limit = self.setting(name)
            if limit is not None:   # None is no limit
                check_count(name, limit, 0)
        for name in ("packet_size_bytes", "migration_page_bytes",
                     "migration_image_bytes", "migration_link_speed_bps"):
            check_number(name, self.setting(name))
        check_number("migration_overhead_s",
                     self.setting("migration_overhead_s"), nonnegative=True)
        # any other setting may be a string, None or a list, but a number
        # in it meets the same rule, of any sign
        for name, value in self.params.items():
            for item in value if isinstance(value, (list, tuple)) \
                    else (value,):
                if isinstance(item, Number):
                    check_number(name, item, signed=True)
        self._classes = {c.name: c for c in self.classes}
        self._vms = {v.name: v for v in self.vm_catalog}
        self._requests = {r.id: r for r in self.requests}
        # a duplicate would be found in place of the first by its key
        for what, index, records in (
                ("service class names", self._classes, self.classes),
                ("VM type names", self._vms, self.vm_catalog),
                ("request ids", self._requests, self.requests)):
            if len(index) != len(records):
                raise ScenarioError(f"{what} must be unique")
        # link rates are converted at this size, request rates at their own
        packet_size = self.setting("packet_size_bytes")
        for r in self.requests:
            if r.packet_size_bytes != packet_size:
                raise ScenarioError(f"request {r.id}: packet size "
                                    f"{r.packet_size_bytes} differs from "
                                    f"the scenario's {packet_size}")
            if r.class_name not in self._classes:
                raise ScenarioError(f"request {r.id}: unknown class "
                                    f"{r.class_name!r}")
            origin = self.topology.nodes.get(r.origin)
            if origin is None or origin.kind != BASE_STATION:
                raise ScenarioError(f"request {r.id}: origin {r.origin!r} is "
                                    "not a base station")

    def setting(self, name: str):
        """The run setting `name`: the scenario's own value, else the
        shipped one in `defaults.DEFAULT_PARAMS`."""
        return self.params.get(name, defaults.DEFAULT_PARAMS[name])

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


#: static public-cloud price sheet ($/h); capacities are vCPU / GB / Gbps
DEFAULT_VM_CATALOG = [
    VmType("2xLarge", CapacityVector(8.0, 61.0, 5.0), 0.532),
    VmType("4xLarge", CapacityVector(16.0, 122.0, 10.0), 1.064),
    VmType("8xLarge", CapacityVector(32.0, 244.0, 10.0), 2.128),
    VmType("16xLarge", CapacityVector(64.0, 488.0, 20.0), 6.669),
    VmType("32xLarge", CapacityVector(128.0, 1952.0, 20.0), 13.338),
]

#: BBU functional split; demands are per 10 Gbps of offered traffic.
#: CPU and network follow the published functional division; the state
#: image each service pins on its host VM is our own sizing.
DEFAULT_CLASSES = [
    ServiceClass(name, CapacityVector(*demand), defaults.DEFAULT_SLA_SECONDS)
    for name, demand in (("physical", (2.0, 1280.0, 5.0)),
                         ("mac_lower", (4.0, 1600.0, 2.0)),
                         ("mac_upper", (6.0, 3280.0, 1.5)),
                         ("nw", (8.0, 3600.0, 0.5)))]

DEFAULT_CLASS_NAMES = [c.name for c in DEFAULT_CLASSES]
