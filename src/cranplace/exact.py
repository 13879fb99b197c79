"""Constraint evaluation and the exhaustive optimal-placement search used
as correctness oracle on micro instances."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded, InfeasibleError
from .model import CLOUD, Scenario, capacity_fits, demand_of
from .paths import build_sorted_lists
from .queueing import QueueLoad, md1_delay, mm1_delay
from .state import DelayBreakdown, PlacementState

_EPS = 1e-9

CONSTRAINTS = ("cloud_capacity", "vm_capacity", "link_load_consistency",
               "stability", "cost_threshold", "sla", "integrity")


@dataclass
class ConstraintReport:
    results: dict[str, tuple[bool, tuple | None]] = field(
        default_factory=dict)

    @property
    def feasible(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def failures(self) -> list[str]:
        return [name for name, (ok, _) in self.results.items() if not ok]


def _cloud_service_rate(scenario, cloud):
    return scenario.topology.nodes[cloud].service_rate


def request_delay(state: PlacementState, scenario: Scenario,
                  request_id: int) -> tuple[float, float]:
    """(link delay, compute delay) of an admitted request under the
    state's committed loads."""
    alloc = state.allocations[request_id]
    topo = scenario.topology
    link_d = 0.0
    for key in alloc.links:
        link = topo.links[key]
        link_d += md1_delay(QueueLoad(state.link_load.get(key, 0.0),
                                      link.service_rate_mu))
    upsilon = _cloud_service_rate(scenario, alloc.cloud)
    comp_d = 0.0
    if upsilon > 0:
        comp_d = mm1_delay(QueueLoad(state.cloud_load.get(alloc.cloud, 0.0),
                                     upsilon))
    return link_d, comp_d


def check_cloud_capacity(state, scenario):
    """Eq.-style bound: installed instance demands within each cloud's
    capacity vector (boundary inclusive)."""
    per_cloud = {}
    for inst in state.instances.values():
        per_cloud[inst.cloud] = per_cloud.setdefault(
            inst.cloud, inst.vm_type.capacity.scale(0.0)) \
            + inst.vm_type.capacity
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
        used = inst.vm_type.capacity.scale(0.0)
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
        for key in alloc.links:
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
        upsilon = _cloud_service_rate(scenario, cloud)
        if upsilon > 0 and psi >= upsilon:
            return False, (cloud,)
    return True, None


def check_cost(state, scenario):
    """Hourly cost of everything installed on open clouds within the cost
    threshold."""
    if state.live_cost() > scenario.cost_threshold + _EPS:
        return False, ()
    return True, None


def check_sla(state, scenario):
    """Per-request end-to-end delay within the class SLA bound."""
    for rid in sorted(state.allocations):
        bound = scenario.service_class(
            scenario.request(rid).class_name).sla_delay_bound
        link_d, comp_d = request_delay(state, scenario, rid)
        if link_d + comp_d > bound + _EPS:
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
        if alloc.links and alloc.links[-1][1] != alloc.cloud:
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


def evaluate_constraints(state, scenario) -> ConstraintReport:
    report = ConstraintReport()
    for name in CONSTRAINTS:
        report.results[name] = _CHECKS[name](state, scenario)
    return report


def objective(state: PlacementState, scenario: Scenario,
              check_feasible: bool = True) -> float:
    """Total response time: sum over admitted requests of chosen-path link
    delay plus cloud compute delay, iterated in (request, origin, cloud)
    order so the term sequence matches a dense-matrix expansion exactly."""
    if check_feasible:
        report = evaluate_constraints(state, scenario)
        if not report.feasible:
            raise InfeasibleError(
                f"state violates: {', '.join(report.failures())}")
    total = 0.0
    order = sorted(state.allocations.items(),
                   key=lambda kv: (kv[0], state.allocations[kv[0]].cloud))
    for rid, alloc in order:
        link_d, comp_d = request_delay(state, scenario, rid)
        total += link_d + comp_d
    return total


@dataclass(frozen=True)
class ExactBudget:
    max_bs: int = 4
    max_clouds: int = 3
    max_vm_types: int = 2
    max_requests: int = 4
    max_paths: int = 3


def _enforce_budget(scenario: Scenario, budget: ExactBudget):
    topo = scenario.topology
    checks = (
        (len(topo.base_stations()), budget.max_bs, "base stations"),
        (len(topo.clouds()), budget.max_clouds, "clouds"),
        (len(scenario.vm_catalog), budget.max_vm_types, "VM types"),
        (len(scenario.requests), budget.max_requests, "requests"),
        (scenario.k_paths, budget.max_paths, "paths per pair"),
    )
    for actual, limit, label in checks:
        if actual > limit:
            raise BudgetExceeded(f"{actual} {label} exceed the exact-search "
                                 f"budget of {limit}")


def solve_exact(scenario: Scenario,
                budget: ExactBudget | None = None) -> PlacementState:
    """Optimal placement by exhaustive recursive search with feasibility
    and partial-objective pruning; ties broken by the lexicographically
    smallest assignment vector. Every request must be placed."""
    budget = budget or ExactBudget()
    _enforce_budget(scenario, budget)
    lists = build_sorted_lists(scenario.topology, scenario.k_paths)
    requests = sorted(scenario.requests, key=lambda r: r.id)
    deg = scenario.degradation_fraction
    catalog = sorted(scenario.vm_catalog, key=lambda v: (v.hourly_cost,
                                                         v.name))
    cloud_rate = {c.id: c.service_rate for c in scenario.topology.clouds()}
    best: dict = {"obj": None, "vec": None}

    def partial_objective(state):
        total = 0.0
        for rid in state.allocations:
            link_d, comp_d = request_delay(state, scenario, rid)
            total += link_d + comp_d
        return total

    def sla_ok(state):
        for rid in state.allocations:
            req = requests[rid_index[rid]]
            bound = scenario.service_class(req.class_name).sla_delay_bound
            link_d, comp_d = request_delay(state, scenario, rid)
            if link_d + comp_d > bound + _EPS:
                return False
        return True

    rid_index = {r.id: i for i, r in enumerate(requests)}

    def candidates(state, request):
        demand = demand_of(request, scenario)
        rate = request.rate_pps
        for entry in sorted(lists.list_for_bs(request.origin),
                            key=lambda e: (e.cloud, e.id)):
            stable = True
            for link in entry.links:
                if state.link_load.get(link.key, 0.0) + rate \
                        >= link.service_rate_mu:
                    stable = False
                    break
            upsilon = cloud_rate[entry.cloud]
            if upsilon > 0 and state.cloud_load.get(entry.cloud, 0.0) \
                    + rate >= upsilon:
                stable = False
            if not stable:
                continue
            for iid in sorted(i.id for i in
                              state.instances_at(entry.cloud)):
                inst = state.instances[iid]
                if capacity_fits(demand, inst.residual, deg):
                    yield entry, ("use", iid), None
            for vm in catalog:
                if not capacity_fits(demand, vm.capacity, deg):
                    continue
                if not state.residual_cloud[entry.cloud].covers(vm.capacity):
                    continue
                if state.resources_used + vm.resource_units \
                        > scenario.resource_cap_total + _EPS:
                    continue
                if state.live_cost() + vm.hourly_cost \
                        > scenario.cost_threshold + _EPS:
                    continue
                yield entry, ("new", vm.name), vm

    def recurse(state, depth, vec):
        if depth == len(requests):
            if not sla_ok(state):
                return
            obj = partial_objective(state)
            if best["obj"] is None or obj < best["obj"] - 1e-15 \
                    or (abs(obj - best["obj"]) <= 1e-15
                        and vec < best["vec"]):
                best["obj"] = obj
                best["vec"] = list(vec)
            return
        request = requests[depth]
        for entry, choice, vm in candidates(state, request):
            work = state.clone()
            if choice[0] == "new":
                inst = work.launch_instance(entry.cloud, vm)
                iid = inst.id
            else:
                iid = choice[1]
            work.admit(request, iid, entry.id, entry.link_keys)
            if not sla_ok(work):
                continue
            if best["obj"] is not None \
                    and partial_objective(work) > best["obj"] + 1e-15:
                continue
            vec.append((entry.cloud, entry.id) + choice)
            recurse(work, depth + 1, vec)
            vec.pop()

    recurse(PlacementState(scenario), 0, [])
    if best["vec"] is None:
        raise InfeasibleError("no feasible placement of all requests")

    # replay the winning assignment on a fresh state for clean counters
    final = PlacementState(scenario)
    breakdown: dict[int, DelayBreakdown] = {}
    for request, step in zip(requests, best["vec"]):
        cloud, path_id, kind, key = step
        entry = lists.paths_by_id[path_id]
        if kind == "new":
            inst = final.launch_instance(cloud, scenario.vm_type(key))
            iid = inst.id
        else:
            iid = key
        final.admit(request, iid, entry.id, entry.link_keys)
        link_d, comp_d = request_delay(final, scenario, request.id)
        breakdown[request.id] = DelayBreakdown(link_d, comp_d)
    final.breakdown = breakdown
    return final
