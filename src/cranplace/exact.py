"""Constraint evaluation and the branch-and-bound optimal-placement search
used as correctness oracle on micro instances."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import BudgetExceeded, InfeasibleError, StabilityViolation
from .model import CLOUD, CapacityVector, Scenario, capacity_fits, demand_of
from .paths import PathEntry, build_sorted_lists
from .state import PlacementState, can_launch, projected_delay, sla_limit

_EPS = 1e-9


@dataclass
class ConstraintReport:
    results: dict[str, tuple[bool, tuple | None]] = field(
        default_factory=dict)

    @property
    def feasible(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def failures(self) -> list[str]:
        return [name for name, (ok, _) in self.results.items() if not ok]


def request_delay(state: PlacementState, scenario: Scenario,
                  request_id: int) -> tuple[float, float] | None:
    """(link delay, compute delay) of an admitted request under the
    state's committed loads, or None if a link of its path or its cloud
    is at or over its service rate."""
    return projected_delay(state, state.allocations[request_id].path, 0.0)


def sla_limits(scenario: Scenario) -> dict[int, float]:
    """Per request id, its `sla_limit`."""
    return {r.id: sla_limit(scenario, r) for r in scenario.requests}


def evaluate_node(state: PlacementState,
                  limits: dict[int, float]) -> float | None:
    """Partial objective of a search node: every admitted request's delay,
    summed in allocation order. None at the first request that is over its
    SLA limit or on an unstable link or cloud."""
    total = 0.0
    for rid, alloc in state.allocations.items():
        delays = projected_delay(state, alloc.path, 0.0)
        delay = math.inf if delays is None else delays[0] + delays[1]
        if delay > limits[rid]:
            return None
        total += delay
    return total


def least_delay(state: PlacementState, request, entries) -> float:
    """Least delay `request` can have in any placement that extends
    `state`: the least `projected_delay` over `entries`, its origin's
    paths. Loads only grow as requests are admitted and both queue terms
    grow with load, so the request's delay once placed is never below
    this. inf when no entry is stable."""
    delays = (projected_delay(state, entry, request.rate_pps)
              for entry in entries)
    return min((d[0] + d[1] for d in delays if d is not None),
               default=math.inf)


def score_child(state, limits: dict[int, float], request,
                entry, later) -> tuple[float | None, float, _PathNode]:
    """(partial objective, bound, child) of the search child that admits
    `request` on `entry` below `state`. The child's value depends only on
    its loads and paths, so it is the same under any instance choice.
    `state` is a `PlacementState` or anything with its `scenario`,
    `link_load`, `cloud_load` and `allocations` (whose values need only a
    `path`); it is read, never written.

    The child is a new `_PathNode`: `state`'s loads raised by the
    request's rate on the entry's links and cloud as `admit` raises them,
    and its allocations with the request's `_Routed(entry)` last. Its
    partial objective is `evaluate_node` on it; the bound adds each
    `later` (request, its origin's entries) pair's `least_delay` at the
    child's loads. The objective is None and the bound inf when the entry
    is unstable, or when an admitted request, the new one included, would
    be over its SLA limit."""
    rate = request.rate_pps
    link_load = dict(state.link_load)
    for key in entry.link_keys:
        link_load[key] = link_load.get(key, 0.0) + rate
    cloud_load = dict(state.cloud_load)
    cloud_load[entry.cloud] = cloud_load.get(entry.cloud, 0.0) + rate
    child = _PathNode(state.scenario, link_load, cloud_load,
                      {**state.allocations, request.id: _Routed(entry)})
    obj = evaluate_node(child, limits)
    if obj is None:
        return None, math.inf, child
    bound = obj
    for other, entries in later:
        bound += least_delay(child, other, entries)
    return obj, bound, child


def check_cloud_capacity(state, scenario):
    """Eq.-style bound: installed instance demands within each cloud's
    capacity vector (boundary inclusive)."""
    per_cloud = {}
    for inst in state.instances.values():
        per_cloud[inst.cloud] = per_cloud.get(
            inst.cloud, CapacityVector()) + inst.vm_type.capacity
    for cloud, used in sorted(per_cloud.items()):
        cap = scenario.topology.nodes[cloud].capacity
        if (used.cpu > cap.cpu + _EPS or used.storage > cap.storage + _EPS
                or used.network > cap.network + _EPS):
            return False, (cloud,)
    return True, None


def check_vm_capacity(state, scenario):
    """Per-instance: consumed shares within the VM capacity; every
    assignment's demand satisfied up to the degradation slack on
    CPU/network and fully on storage."""
    deg = scenario.degradation_fraction
    for iid, inst in sorted(state.instances.items()):
        used = CapacityVector()
        for rid, consumed in inst.assigned.items():
            used = used + consumed
            demand = demand_of(scenario.request(rid), scenario)
            keep = 1.0 - deg
            if (consumed.storage < demand.storage - _EPS
                    or consumed.cpu < keep * demand.cpu - _EPS
                    or consumed.network < keep * demand.network - _EPS):
                return False, (iid, rid)
        cap = inst.vm_type.capacity
        if (used.cpu > cap.cpu + _EPS or used.storage > cap.storage + _EPS
                or used.network > cap.network + _EPS):
            return False, (iid,)
    return True, None


def check_link_load_consistency(state, scenario):
    """Committed link and cloud loads must equal a from-scratch
    recomputation out of the allocation matrix."""
    links = {}
    clouds = {}
    for rid, alloc in state.allocations.items():
        rate = scenario.request(rid).rate_pps
        for key in alloc.path.link_keys:
            links[key] = links.get(key, 0.0) + rate
        clouds[alloc.cloud] = clouds.get(alloc.cloud, 0.0) + rate
    for key, expected in links.items():
        if abs(state.link_load.get(key, 0.0) - expected) \
                > 1e-6 * max(1.0, expected):
            return False, key
    for key in state.link_load:
        if key not in links and state.link_load[key] > 1e-6:
            return False, key
    for cloud, expected in clouds.items():
        if abs(state.cloud_load.get(cloud, 0.0) - expected) \
                > 1e-6 * max(1.0, expected):
            return False, (cloud,)
    return True, None


def check_stability(state, scenario):
    """Strict lambda < mu on every loaded link and psi < upsilon at every
    loaded cloud."""
    topo = scenario.topology
    for key, lam in sorted(state.link_load.items()):
        if lam >= topo.links[key].service_rate_mu:
            return False, key
    for cloud, psi in sorted(state.cloud_load.items()):
        if psi >= topo.nodes[cloud].service_rate:
            return False, (cloud,)
    return True, None


def check_cost(state, scenario):
    """Hourly cost of everything installed on open clouds within the cost
    threshold."""
    if state.live_cost() > scenario.cost_threshold + _EPS:
        return False, ()
    return True, None


def check_sla(state, scenario):
    """Per-request end-to-end delay within its `sla_limit`; a request on an
    unstable link or cloud has no finite delay, so it is over."""
    for rid in sorted(state.allocations):
        delays = request_delay(state, scenario, rid)
        if delays is None or delays[0] + delays[1] > sla_limit(
                scenario, scenario.request(rid)):
            return False, (rid,)
    return True, None


def check_integrity(state, scenario):
    """Allocations must target cloud nodes hosting the assigned instance."""
    topo = scenario.topology
    for rid, alloc in sorted(state.allocations.items()):
        if topo.nodes[alloc.cloud].kind != CLOUD:
            return False, (rid, alloc.cloud)
        inst = state.instances.get(alloc.instance_id)
        if inst is None or inst.cloud != alloc.cloud \
                or rid not in inst.assigned:
            return False, (rid, alloc.instance_id)
        if alloc.path.cloud != alloc.cloud:
            return False, (rid, alloc.path_id)
    return True, None


_CHECKS = {
    "cloud_capacity": check_cloud_capacity,
    "vm_capacity": check_vm_capacity,
    "link_load_consistency": check_link_load_consistency,
    "stability": check_stability,
    "cost_threshold": check_cost,
    "sla": check_sla,
    "integrity": check_integrity,
}
#: the checker names, in report order
CONSTRAINTS = tuple(_CHECKS)


def evaluate_constraints(state, scenario) -> ConstraintReport:
    report = ConstraintReport()
    for name in CONSTRAINTS:
        report.results[name] = _CHECKS[name](state, scenario)
    return report


def objective(state: PlacementState, scenario: Scenario,
              check_feasible: bool = True) -> float:
    """Total response time: sum over admitted requests of chosen-path link
    delay plus cloud compute delay, in request id order, so the float sum
    does not depend on the order the requests were admitted in."""
    if check_feasible:
        report = evaluate_constraints(state, scenario)
        if not report.feasible:
            raise InfeasibleError(
                f"state violates: {', '.join(report.failures())}")
    total = 0.0
    for rid in sorted(state.allocations):
        delays = request_delay(state, scenario, rid)
        if delays is None:
            raise StabilityViolation(f"request {rid} is on an unstable "
                                     "link or cloud")
        total += delays[0] + delays[1]
    return total


#: the largest instance `solve_exact` takes
MAX_BS = 4
MAX_CLOUDS = 3
MAX_VM_TYPES = 2
MAX_REQUESTS = 12
MAX_PATHS = 3


def _enforce_budget(scenario: Scenario):
    topo = scenario.topology
    checks = (
        (len(topo.base_stations()), MAX_BS, "base stations"),
        (len(topo.clouds()), MAX_CLOUDS, "clouds"),
        (len(scenario.vm_catalog), MAX_VM_TYPES, "VM types"),
        (len(scenario.requests), MAX_REQUESTS, "requests"),
        (scenario.k_paths, MAX_PATHS, "paths per pair"),
    )
    for actual, limit, label in checks:
        if actual > limit:
            raise BudgetExceeded(f"{actual} {label} exceed the exact-search "
                                 f"budget of {limit}")


def _choices(state: PlacementState, demand, cloud: str, catalog) -> list:
    """(choice, VM type to launch or None) for every instance that can take
    a request of `demand` at `cloud`, in step order: the VM types of
    `catalog` (sorted by name) that fit and can launch, then fitting live
    instances in id order."""
    deg = state.scenario.degradation_fraction
    out = [(("new", vm.name), vm) for vm in catalog
           if capacity_fits(demand, vm.capacity, deg)
           and can_launch(state, cloud, vm)]
    index = state.residual_index[cloud]
    if index:   # skip the sort where no instance runs, as on the empty state
        for iid in sorted([iid for _, iid in index]):
            if capacity_fits(demand, state.instances[iid].residual, deg):
                out.append((("use", iid), None))
    return out


def pack_instances(scenario: Scenario, requests, paths) -> list | None:
    """The least assignment vector that admits each of `requests` on the
    path entry at its index in `paths`, or None when no instance sequence
    fits. A depth-first search over `_choices` on one state, each choice
    undone by `rollback`; it visits the choices in step order, so the
    first complete sequence it finds is the least.

    The result depends on `paths` only through their clouds: the choices,
    launches and residuals are per cloud, and admission never reads a
    path's links to accept or reject. Two path sequences with the same
    clouds fit or fail together, and their least vectors differ only in
    the path ids."""
    catalog = sorted(scenario.vm_catalog, key=lambda v: v.name)
    state = PlacementState(scenario)
    vec = []

    def place(depth):
        if depth == len(requests):
            return True
        request, entry = requests[depth], paths[depth]
        for choice, vm in _choices(state, state.demand(request), entry.cloud,
                                   catalog):
            mark = state.checkpoint()
            if vm is not None:
                iid = state.launch_instance(entry.cloud, vm).id
            else:
                iid = choice[1]
            state.admit(request, iid, entry)
            vec.append((entry.cloud, entry.id) + choice)
            if place(depth + 1):
                return True
            vec.pop()
            state.rollback(mark)
        return False

    return vec if place(0) else None


def pack_leaf(packings: dict, scenario: Scenario, requests,
              paths) -> list | None:
    """`pack_instances(scenario, requests, paths)`, packed once per
    sequence of the paths' clouds. `packings` maps each sequence packed so
    far to the choice part of each step of its least vector, or to None
    when it has none; a sequence met again gets its vector rebuilt from
    that, each step led by its own (cloud, path id)."""
    key = tuple(entry.cloud for entry in paths)
    if key not in packings:
        vec = pack_instances(scenario, requests, paths)
        packings[key] = None if vec is None else [step[2:] for step in vec]
    choices = packings[key]
    if choices is None:
        return None
    return [(entry.cloud, entry.id) + choice
            for entry, choice in zip(paths, choices)]


class _Routed(NamedTuple):
    """A path-search node's record of an admitted request: its path entry,
    the one field of an `Allocation` that `evaluate_node` reads."""
    path: PathEntry


class _PathNode(NamedTuple):
    """A node of the path search: the scenario, the loads and each admitted
    request's path in admission order; what `score_child` reads of a
    `PlacementState`, and nothing of instances. Never written after it
    is built."""
    scenario: Scenario
    link_load: dict[tuple[str, str], float]
    cloud_load: dict[str, float]
    allocations: dict[int, _Routed]


def solve_exact(scenario: Scenario) -> PlacementState:
    """Optimal placement by depth-first branch and bound; ties broken by
    the lexicographically smallest assignment vector. Every request must
    be placed. An instance larger than a `MAX_*` limit above raises
    `BudgetExceeded`.

    The delay objective reads only paths and loads, so the bound runs
    over path entries alone, on `_PathNode` values. `score_child` builds
    each child of a node once per entry, a copy of the node's loads and
    paths with the request added, and scores it; that child is then
    descended into or packed, and no node is written after it is built.
    A node's bound is its partial objective plus, for each request still
    to place, its `least_delay` at the node's loads. A node is pruned when
    the bound exceeds the incumbent, or when a request still to place has
    no stable path left. The bound never exceeds the objective of a
    placement below the node, so no node that could tie or beat the
    incumbent is pruned. Capacity prunes an entry only when its cloud
    could host none of the request's instances even on the empty state: no
    VM type there holds the request's degraded demand and can launch.

    A node scores all its children first, then visits them best bound
    first: in ascending (bound, entry order), stopping at the first whose
    bound exceeds the incumbent by more than 1e-15, since every later one
    does too. The order only speeds the search up: a good incumbent is
    found early and prunes more, but no node that could tie or beat it is
    pruned, and tied leaves are compared by vector, so the winner is the
    least vector at the optimum in any order, that of the unbounded
    search. The one case where the order could matter is a chain of
    leaves each within 1e-15 of the next but more than 1e-15 apart end to
    end.

    At a path leaf that can tie or beat the incumbent, `pack_instances`
    finds the least instance sequence for the leaf's paths; a leaf with
    none is skipped. Vectors of one path sequence differ only in their
    instance steps, so the least of all the vectors at a tied objective is
    some tied path sequence's least packing. Packing reads the paths only
    through their clouds, so `pack_leaf` packs each sequence of leaf
    clouds once per solve and rebuilds the vector of a later leaf with the
    same clouds."""
    _enforce_budget(scenario)
    lists = build_sorted_lists(scenario.topology, scenario.k_paths)
    requests = sorted(scenario.requests, key=lambda r: r.id)
    limits = sla_limits(scenario)
    best: dict = ({"obj": None, "vec": None} if requests
                  else {"obj": 0.0, "vec": []})
    # each origin's paths in (cloud, id) order; the lists do not change
    # during the search
    by_origin = {r.origin: sorted(lists.list_for_bs(r.origin),
                                  key=lambda e: (e.cloud, e.id))
                 for r in requests}
    # per depth, each request placed after it with its origin's paths
    later = [[(r, by_origin[r.origin]) for r in requests[depth + 1:]]
             for depth in range(len(requests))]
    # per request, the clouds that have an instance for it on the empty
    # state: a VM type that holds its degraded demand and can launch
    empty = PlacementState(scenario)
    clouds = [c.id for c in scenario.topology.clouds()]
    hosts = {r.id: {cloud for cloud in clouds
                    if _choices(empty, empty.demand(r), cloud,
                                scenario.vm_catalog)}
             for r in requests}
    packings: dict = {}

    def search(node, depth):
        """Search below `node`, whose admitted requests all meet their
        SLA."""
        request = requests[depth]
        leaf = depth == len(requests) - 1
        children = []
        for index, entry in enumerate(by_origin[request.origin]):
            if entry.cloud not in hosts[request.id]:
                continue
            obj, bound, child = score_child(node, limits, request, entry,
                                            later[depth])
            if bound != math.inf:
                children.append((bound, index, obj, child))
        children.sort(key=lambda kid: kid[:2])
        for bound, _, obj, child in children:
            incumbent = best["obj"]
            if incumbent is not None and bound > incumbent + 1e-15:
                break
            if leaf:
                if incumbent is None or obj < incumbent - 1e-15 \
                        or abs(obj - incumbent) <= 1e-15:
                    paths = [a.path for a in child.allocations.values()]
                    vec = pack_leaf(packings, scenario, requests, paths)
                    if vec is not None and (incumbent is None
                                            or obj < incumbent - 1e-15
                                            or vec < best["vec"]):
                        best["obj"] = obj
                        best["vec"] = vec
            else:
                search(child, depth + 1)

    if requests:
        search(_PathNode(scenario, {}, {}, {}), 0)
    if best["vec"] is None:
        raise InfeasibleError("no feasible placement of all requests")

    # replay the winning assignment on a fresh state for clean counters
    final = PlacementState(scenario)
    for request, step in zip(requests, best["vec"]):
        cloud, path_id, kind, key = step
        entry = lists.paths_by_id[path_id]
        if kind == "new":
            inst = final.launch_instance(cloud, scenario.vm_type(key))
            iid = inst.id
        else:
            iid = key
        final.admit(request, iid, entry)
    return final
