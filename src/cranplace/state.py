"""Mutable placement state: allocations, live VM instances, residual
capacities, queue loads, run counters, each cloud's launch record, two
per-cloud indexes (instances by remaining capacity, allocations by
consumed demand) and an undo journal for trial changes; and the admission
rules every solver reads them by: a request's delay on a path, its SLA
limit, and the VM launch test."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CranplaceError
from .model import CapacityVector, Scenario, ServiceRequest, VmType, demand_of
from .paths import PathEntry
from .queueing import md1, mm1

_MISSING = object()
_EPS = 1e-9


@dataclass
class DelayBreakdown:
    link_delay: float = 0.0
    compute_delay: float = 0.0
    migration_delay: float = 0.0

    @property
    def total(self) -> float:
        return self.link_delay + self.compute_delay + self.migration_delay


@dataclass
class VmInstance:
    id: int
    cloud: str
    vm_type: VmType
    residual: CapacityVector
    assigned: dict[int, CapacityVector] = field(default_factory=dict)

    def clone(self) -> "VmInstance":
        return VmInstance(self.id, self.cloud, self.vm_type, self.residual,
                          dict(self.assigned))


def residual_key(residual: CapacityVector) -> float:
    """Index key of an instance: its total remaining capacity."""
    return residual.cpu + residual.storage + residual.network


class Mark(NamedTuple):
    """A point to roll back to; see PlacementState.checkpoint."""
    length: int          # journal entries written before the mark
    outermost: bool      # the journal was opened by this mark
    counters: tuple


class Allocation(NamedTuple):
    request_id: int
    cloud: str
    instance_id: int
    path: PathEntry
    consumed: CapacityVector
    rate_pps: float

    @property
    def path_id(self) -> str:
        return self.path.id


class PlacementState:
    """Single-writer state mutated by one placement run at a time.

    Trial changes run on the state itself: `checkpoint()` opens a mark,
    and until the outermost mark is committed or rolled back, `admit`,
    `release`, `launch_instance` and `retire_instance` journal every value
    they overwrite. `rollback(mark)` writes those values back, so every
    float is restored bit for bit; a dict key it puts back moves to the end
    of that dict's iteration order. Outside a trial the journal is None and
    nothing is recorded.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.allocations: dict[int, Allocation] = {}
        self.instances: dict[int, VmInstance] = {}
        self.residual_cloud: dict[str, CapacityVector] = {
            c.id: c.capacity for c in scenario.topology.clouds()}
        self.link_load: dict[tuple[str, str], float] = {}
        self.cloud_load: dict[str, float] = {}
        self.dropped: list[int] = []
        self.migrations: int = 0
        self.instances_launched: int = 0   # also the next instance id
        self.resources_used: float = 0.0   # cumulative normalized units
        self.cost_accrued: float = 0.0     # cumulative $/h of launches
        self._live_cost: float = 0.0
        # ids launched at each cloud, in launch order; retired ids stay
        self.launched: dict[str, list[int]] = {
            cloud: [] for cloud in self.residual_cloud}
        # live instances of each cloud as (residual_key, id), ascending
        self.residual_index: dict[str, list[tuple[float, int]]] = {
            cloud: [] for cloud in self.residual_cloud}
        # allocations of each cloud as (consumed cpu + storage + network,
        # request id), ascending: the order migration evicts them in
        self.evictee_index: dict[str, list[tuple[float, int]]] = {
            cloud: [] for cloud in self.residual_cloud}
        # request id -> demand_of(request); a pure function of the
        # scenario, so clones share it and rollbacks leave it alone
        self._demands: dict[int, CapacityVector] = {}
        # (undo callable, its arguments) per overwritten value, while a
        # checkpoint is open
        self._journal: list | None = None

    # -- trials ------------------------------------------------------------

    def _counters(self) -> tuple:
        return (self.migrations, self.instances_launched,
                self.resources_used, self.cost_accrued, self._live_cost)

    def checkpoint(self) -> Mark:
        """Open a mark; marks nest. Every change from here on can be undone
        with `rollback(mark)` until the outermost mark is closed."""
        outermost = self._journal is None
        if outermost:
            self._journal = []
        return Mark(len(self._journal), outermost, self._counters())

    def rollback(self, mark: Mark) -> None:
        """Restore the state as it was at `mark`, counters included, and
        close the journal if `mark` is the outermost one."""
        journal = self._journal
        if journal is None or len(journal) < mark.length:
            raise CranplaceError("rollback to a mark that is not open")
        while len(journal) > mark.length:
            undo, args = journal.pop()
            undo(*args)
        (self.migrations, self.instances_launched, self.resources_used,
         self.cost_accrued, self._live_cost) = mark.counters
        if mark.outermost:
            self._journal = None

    def commit(self, mark: Mark) -> None:
        """Keep every change made since `mark`. Committing the outermost
        mark closes the journal; an inner mark's changes stay undoable by
        the marks around it, so an inner mark needs no commit."""
        if mark.outermost:
            self._journal = None

    def _save(self, d: dict, key) -> None:
        """Journal the current value of d[key], or its absence."""
        old = d.get(key, _MISSING)
        if old is _MISSING:
            self._journal.append((d.__delitem__, (key,)))
        else:
            self._journal.append((d.__setitem__, (key, old)))

    # -- per-cloud indexes -------------------------------------------------

    def _index_insert(self, lst: list, item: tuple) -> None:
        """Insert `item` into the ascending index `lst`, journaled."""
        pos = bisect_left(lst, item)
        lst.insert(pos, item)
        if self._journal is not None:
            self._journal.append((lst.pop, (pos,)))

    def _index_remove(self, lst: list, item: tuple) -> None:
        """Remove `item` from the ascending index `lst`, journaled."""
        pos = bisect_left(lst, item)
        if pos == len(lst) or lst[pos] != item:
            raise CranplaceError("index out of sync")
        del lst[pos]
        if self._journal is not None:
            self._journal.append((lst.insert, (pos, item)))

    def _set_residual(self, inst: VmInstance,
                      residual: CapacityVector) -> None:
        lst = self.residual_index[inst.cloud]
        self._index_remove(lst, (residual_key(inst.residual), inst.id))
        if self._journal is not None:
            self._journal.append((setattr, (inst, "residual", inst.residual)))
        inst.residual = residual
        self._index_insert(lst, (residual_key(residual), inst.id))

    # -- instance lifecycle ------------------------------------------------

    def launch_instance(self, cloud: str, vm_type: VmType) -> VmInstance:
        residual = self.residual_cloud[cloud]
        if not residual.covers(vm_type.capacity):
            raise CranplaceError(f"cloud {cloud} cannot host {vm_type.name}")
        inst = VmInstance(self.instances_launched, cloud, vm_type,
                          vm_type.capacity)
        launched = self.launched[cloud]
        if self._journal is not None:
            self._journal.append((self.instances.__delitem__, (inst.id,)))
            self._journal.append((launched.pop, ()))
            self._save(self.residual_cloud, cloud)
        self.instances[inst.id] = inst
        launched.append(inst.id)
        self.residual_cloud[cloud] = residual - vm_type.capacity
        self._index_insert(self.residual_index[cloud],
                           (residual_key(inst.residual), inst.id))
        self.instances_launched += 1
        self.resources_used += vm_type.resource_units
        self.cost_accrued += vm_type.hourly_cost
        self._live_cost += vm_type.hourly_cost
        return inst

    def retire_instance(self, instance_id: int) -> None:
        inst = self.instances[instance_id]
        if inst.assigned:
            raise CranplaceError(f"instance {instance_id} still has "
                                 "assignments")
        self._index_remove(self.residual_index[inst.cloud],
                           (residual_key(inst.residual), inst.id))
        if self._journal is not None:
            self._journal.append((self.instances.__setitem__,
                                  (instance_id, inst)))
            self._save(self.residual_cloud, inst.cloud)
        del self.instances[instance_id]
        self.residual_cloud[inst.cloud] = (self.residual_cloud[inst.cloud]
                                           + inst.vm_type.capacity)
        self._live_cost -= inst.vm_type.hourly_cost

    # -- request lifecycle -------------------------------------------------

    def demand(self, request: ServiceRequest) -> CapacityVector:
        """`demand_of(request)`, computed once per request id."""
        demand = self._demands.get(request.id)
        if demand is None:
            demand = self._demands[request.id] = demand_of(request,
                                                           self.scenario)
        return demand

    def consumed_for(self, request: ServiceRequest,
                     instance: VmInstance) -> CapacityVector:
        """Capacity actually subtracted on admission: storage in full,
        CPU/network clipped to what is left (degraded admission)."""
        demand = self.demand(request)
        r = instance.residual
        return CapacityVector(min(demand.cpu, r.cpu), demand.storage,
                              min(demand.network, r.network))

    def admit(self, request: ServiceRequest, instance_id: int,
              path: PathEntry) -> Allocation:
        if request.id in self.allocations:
            raise CranplaceError(f"request {request.id} already admitted")
        inst = self.instances[instance_id]
        consumed = self.consumed_for(request, inst)
        new_residual = inst.residual - consumed
        if not new_residual.nonnegative():
            raise CranplaceError(f"instance {instance_id} over-committed")
        links = path.link_keys
        journal = self._journal
        if journal is not None:
            journal.append((inst.assigned.__delitem__, (request.id,)))
            journal.append((self.allocations.__delitem__, (request.id,)))
            for key in links:
                self._save(self.link_load, key)
            self._save(self.cloud_load, inst.cloud)
        self._set_residual(inst, new_residual)
        inst.assigned[request.id] = consumed
        self._index_insert(self.evictee_index[inst.cloud],
                           (consumed.cpu + consumed.storage + consumed.network,
                            request.id))
        alloc = Allocation(request.id, inst.cloud, instance_id, path,
                           consumed, request.rate_pps)
        self.allocations[request.id] = alloc
        rate = request.rate_pps
        for key in links:
            self.link_load[key] = self.link_load.get(key, 0.0) + rate
        self.cloud_load[inst.cloud] = (self.cloud_load.get(inst.cloud, 0.0)
                                       + rate)
        return alloc

    def release(self, request_id: int) -> Allocation:
        """Undo an admission; retires the instance if it becomes empty,
        leaving the retired instance's residual as it was."""
        try:
            alloc = self.allocations.pop(request_id)
        except KeyError:
            raise CranplaceError(f"request {request_id} is not admitted") \
                from None
        inst = self.instances[alloc.instance_id]
        links = alloc.path.link_keys
        journal = self._journal
        if journal is not None:
            journal.append((self.allocations.__setitem__,
                            (request_id, alloc)))
            self._save(inst.assigned, request_id)
            for key in links:
                self._save(self.link_load, key)
            self._save(self.cloud_load, alloc.cloud)
        del inst.assigned[request_id]
        consumed = alloc.consumed
        self._index_remove(self.evictee_index[alloc.cloud],
                           (consumed.cpu + consumed.storage + consumed.network,
                            request_id))
        if inst.assigned:
            self._set_residual(inst, inst.residual + alloc.consumed)
        else:
            self.retire_instance(alloc.instance_id)
        for key in links:
            left = self.link_load[key] - alloc.rate_pps
            if left <= 1e-12:
                del self.link_load[key]
            else:
                self.link_load[key] = left
        cloud_left = self.cloud_load[alloc.cloud] - alloc.rate_pps
        if cloud_left <= 1e-12:
            del self.cloud_load[alloc.cloud]
        else:
            self.cloud_load[alloc.cloud] = cloud_left
        return alloc

    def drop(self, request_id: int) -> None:
        self.dropped.append(request_id)

    # -- bookkeeping -------------------------------------------------------

    def live_cost(self) -> float:
        """Hourly cost of currently running instances."""
        return self._live_cost

    def instances_at(self, cloud: str) -> list[VmInstance]:
        # nothing in the program calls this; perfbench's probe on it still
        # needs it to exist, so it goes when that probe goes
        return [i for i in self.instances.values() if i.cloud == cloud]

    def clone(self) -> "PlacementState":
        other = PlacementState.__new__(PlacementState)
        other.scenario = self.scenario
        other.allocations = dict(self.allocations)
        other.instances = {k: v.clone() for k, v in self.instances.items()}
        other.residual_cloud = dict(self.residual_cloud)
        other.link_load = dict(self.link_load)
        other.cloud_load = dict(self.cloud_load)
        other.dropped = list(self.dropped)
        other.migrations = self.migrations
        other.instances_launched = self.instances_launched
        other.resources_used = self.resources_used
        other.cost_accrued = self.cost_accrued
        other._live_cost = self._live_cost
        other.launched = {cloud: list(ids) for cloud, ids
                          in self.launched.items()}
        other.residual_index = {cloud: list(lst) for cloud, lst
                                in self.residual_index.items()}
        other.evictee_index = {cloud: list(lst) for cloud, lst
                               in self.evictee_index.items()}
        other._demands = self._demands
        other._journal = None
        return other

    def signature(self):
        """Hashable snapshot used by atomicity tests."""
        return (
            tuple(sorted((k, v.cloud, v.instance_id, v.path_id)
                         for k, v in self.allocations.items())),
            tuple(sorted((i, inst.residual) for i, inst in
                         self.instances.items())),
            tuple(sorted(self.link_load.items())),
            tuple(sorted(self.cloud_load.items())),
            tuple(self.dropped),
            self.migrations,
            self.instances_launched,
            round(self.resources_used, 9),
            tuple(sorted((cloud, tuple(ids))
                         for cloud, ids in self.launched.items())),
        )


# -- admission rules -------------------------------------------------------

def projected_delay(state: PlacementState, entry: PathEntry,
                    rate: float) -> tuple[float, float] | None:
    """(link delay, compute delay) a request of `rate` would have on a
    path entry if admitted now: the M/D/1 terms of the entry's
    `link_rates` in path order and the M/M/1 term of its cloud, at the
    state's loads plus `rate`. None if a link or the cloud would be
    unstable. An admitted request's delay is
    `projected_delay(state, alloc.path, 0.0)`: its rate is already in the
    loads."""
    link_load = state.link_load
    link_d = 0.0
    for key, mu in entry.link_rates:
        lam = link_load.get(key, 0.0) + rate
        if lam >= mu:
            return None
        link_d += md1(lam, mu)
    cloud = entry.cloud
    upsilon = state.scenario.topology.nodes[cloud].service_rate
    psi = state.cloud_load.get(cloud, 0.0) + rate
    if psi >= upsilon:
        return None
    return link_d, mm1(psi, upsilon)


def sla_limit(scenario: Scenario, request: ServiceRequest) -> float:
    """The largest end-to-end delay `request` may have: its class's SLA
    bound plus 1e-9."""
    return scenario.service_class(request.class_name).sla_delay_bound + _EPS


def launch_allowed(scenario: Scenario, residual: CapacityVector,
                   resources_used: float, live_cost: float,
                   vm: VmType) -> bool:
    """The launch rule: whether one `vm` can launch at a cloud with
    `residual` left, after `resources_used` resource units and at
    `live_cost` $/h: the residual covers the VM, and the scenario's
    resource cap and cost threshold hold with it."""
    return (residual.covers(vm.capacity)
            and resources_used + vm.resource_units
            <= scenario.resource_cap_total + _EPS
            and live_cost + vm.hourly_cost
            <= scenario.cost_threshold + _EPS)


def can_launch(state: PlacementState, cloud: str, vm: VmType) -> bool:
    """Whether `cloud` can launch one `vm` now: `launch_allowed` at its
    residual and the state's resource total and live cost."""
    return launch_allowed(state.scenario, state.residual_cloud[cloud],
                          state.resources_used, state._live_cost, vm)
