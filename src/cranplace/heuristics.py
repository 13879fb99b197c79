"""Placement heuristics: plain / sorted branch-and-bound scans and
best-of-Y random sampling, over static or arrival-ordered request streams."""

from __future__ import annotations

import heapq
import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import ScenarioError
from .migration import MigrationParams, try_migrate_for_fit
from .model import CapacityVector, Scenario, capacity_fits, demand_of
from .paths import build_sorted_lists, refresh_one
from .queueing import QueueLoad, md1_delay, mm1_delay
from .state import Allocation, DelayBreakdown, PlacementState

BNB_PLAIN = "bnb_plain"
BNB_SORTED_ASC = "bnb_sorted_asc"
BNB_SORTED_DESC = "bnb_sorted_desc"
SA_SHORT = "sa_short"
SA_LONG = "sa_long"

BNB_KINDS = (BNB_PLAIN, BNB_SORTED_ASC, BNB_SORTED_DESC)
SA_KINDS = (SA_SHORT, SA_LONG)
ALL_KINDS = BNB_KINDS + SA_KINDS

_EPS = 1e-9


@dataclass(frozen=True)
class HeuristicConfig:
    kind: str
    seed: int = 0
    mode: str = "dynamic"  # "dynamic" (arrival order + releases) or "static"
    degradation_fraction: float | None = None
    k_paths: int | None = None
    resource_cap_total: float | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ScenarioError(f"unknown heuristic kind {self.kind!r}")
        if self.mode not in ("dynamic", "static"):
            raise ScenarioError(f"unknown mode {self.mode!r}")


@dataclass
class PlacementResult:
    kind: str
    state: PlacementState
    satisfied: int
    dropped: int
    migrations: int
    instances_launched: int
    total_resources_used: float
    total_cost: float
    wall_time: float
    total_link_delay: float
    total_compute_delay: float
    total_migration_delay: float
    first_drop_index: int | None = None
    breakdown: dict = field(default_factory=dict)
    work_units: int = 0  # deterministic operation count (modeled time)

    @property
    def total_delay(self) -> float:
        return (self.total_link_delay + self.total_compute_delay
                + self.total_migration_delay)


def fit_floor(demand: CapacityVector, degradation: float) -> float:
    """A `residual_key` below which no residual passes `capacity_fits` for
    `demand`. Exactly, a fitting residual's total is at least the degraded
    demand's; the 1e-12 margin exceeds the rounding of both sums for
    components that are zero or normal floats."""
    return ((1.0 - degradation) * (demand.cpu + demand.network)
            + demand.storage) * (1.0 - 1e-12)


def sa_iterations(n_requests: int, mode: str) -> int:
    """Best-of-Y sample count: ceil(sqrt(n/20)) for short runs,
    ceil(2*sqrt(n)) for long runs, at least 1."""
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if mode == "short":
        return max(1, math.ceil(math.sqrt(n_requests / 20.0)))
    if mode == "long":
        return max(1, math.ceil(2.0 * math.sqrt(n_requests)))
    raise ValueError(f"unknown SA mode {mode!r}")


class _Run:
    """Single placement run; owns the state and the launch history."""

    def __init__(self, scenario: Scenario, config: HeuristicConfig):
        self.scenario = scenario
        self.config = config
        params = scenario.params
        self.degradation = (config.degradation_fraction
                            if config.degradation_fraction is not None
                            else scenario.degradation_fraction)
        self.k_paths = (config.k_paths if config.k_paths is not None
                        else scenario.k_paths)
        self.resource_cap = (config.resource_cap_total
                             if config.resource_cap_total is not None
                             else scenario.resource_cap_total)
        self.packet_size = params.get("packet_size_bytes", 500.0)
        self.mig_params = MigrationParams(
            overhead=params.get("migration_overhead_s", 0.5),
            page_size=params.get("migration_page_bytes", 4096.0),
            link_speed=params.get("migration_link_speed_bps", 10e9),
            image_bytes=params.get("migration_image_bytes", 65536.0))
        self.eviction_limit = params.get("migration_eviction_limit", 12)
        self.target_limit = params.get("migration_target_limit")
        self.state = PlacementState(scenario)
        self.lists = build_sorted_lists(scenario.topology, self.k_paths)
        self.catalog = sorted(scenario.vm_catalog,
                              key=lambda v: (v.hourly_cost, v.name))
        self.rng = random.Random(config.seed)
        self.cloud_rate = {c.id: c.service_rate
                           for c in scenario.topology.clouds()}
        # append-only launch history per cloud: the plain scan walks it
        # and skips retired ids
        self.launch_order: dict[str, list[int]] = {}
        self.first_drop_index: int | None = None
        self.breakdown: dict[int, DelayBreakdown] = {}
        self.sa_probe_limit = 8
        self.work = 0

    def _launch(self, cloud, vm):
        inst = self.state.launch_instance(cloud, vm)
        self.launch_order.setdefault(cloud, []).append(inst.id)
        return inst

    def _note_launches(self, first_id):
        """Add the instances a migration launched, ids `first_id` on, that
        are still live to the launch history."""
        instances = self.state.instances
        for iid in range(first_id, self.state._next_instance_id):
            if iid in instances:
                self.launch_order.setdefault(instances[iid].cloud,
                                             []).append(iid)

    # -- feasibility ------------------------------------------------------

    def _entry_feasible(self, state, request, entry):
        """Stability + SLA screen for placing `request` on `entry`'s path
        and cloud. Returns projected (link_delay, compute_delay) or None."""
        self.work += 1 + len(entry.links)
        rate = request.rate_pps
        link_d = 0.0
        for link in entry.links:
            lam = state.link_load.get(link.key, 0.0) + rate
            if lam >= link.service_rate_mu:
                return None
            link_d += md1_delay(QueueLoad(lam, link.service_rate_mu))
        upsilon = self.cloud_rate[entry.cloud]
        comp_d = 0.0
        if upsilon > 0:
            psi = state.cloud_load.get(entry.cloud, 0.0) + rate
            if psi >= upsilon:
                return None
            comp_d = mm1_delay(QueueLoad(psi, upsilon))
        bound = self.scenario.service_class(request.class_name).sla_delay_bound
        if link_d + comp_d > bound + _EPS:
            return None
        return link_d, comp_d

    def _launchable_vm(self, state, cloud, demand):
        """Cheapest VM type the request fits on, launchable at this cloud
        under the cloud residual, resource cap and cost threshold."""
        residual = state.residual_cloud[cloud]
        for vm in self.catalog:
            if not capacity_fits(demand, vm.capacity, self.degradation):
                continue
            if not residual.covers(vm.capacity):
                continue
            if state.resources_used + vm.resource_units \
                    > self.resource_cap + _EPS:
                continue
            if state.live_cost() + vm.hourly_cost \
                    > self.scenario.cost_threshold + _EPS:
                continue
            return vm
        return None

    # -- instance selection (main state, indexed) -------------------------

    def _pick_instance(self, cloud, demand):
        kind = self.config.kind
        if kind in SA_KINDS:
            # random-fit: bounded probe scan from a seeded random offset
            lst = self.state.residual_index[cloud]
            if not lst:
                return None
            start = self.rng.randrange(len(lst))
            for j in range(min(len(lst), self.sa_probe_limit)):
                self.work += 1
                inst = self.state.instances[lst[(start + j) % len(lst)][1]]
                if capacity_fits(demand, inst.residual, self.degradation):
                    return inst
            return None
        if kind == BNB_PLAIN:
            for iid in self.launch_order.get(cloud, ()):
                self.work += 1
                inst = self.state.instances.get(iid)
                if inst is None:  # long since retired
                    continue
                if capacity_fits(demand, inst.residual, self.degradation):
                    return inst
            return None
        lst = self.state.residual_index[cloud]
        # no instance whose total remaining capacity is below this can fit
        need_key = (1.0 - self.degradation) * (demand.cpu + demand.network) \
            + demand.storage
        if kind == BNB_SORTED_ASC:
            start = bisect_left(lst, (need_key, -1))
            for j in range(start, len(lst)):
                self.work += 1
                inst = self.state.instances[lst[j][1]]
                if capacity_fits(demand, inst.residual, self.degradation):
                    return inst
            return None
        # descending: largest residual first
        for j in range(len(lst) - 1, -1, -1):
            self.work += 1
            if lst[j][0] < need_key:
                break
            inst = self.state.instances[lst[j][1]]
            if capacity_fits(demand, inst.residual, self.degradation):
                return inst
        return None

    # -- committing --------------------------------------------------------

    def _commit(self, request, entry, instance) -> Allocation:
        alloc = self.state.admit(request, instance.id, entry.id,
                                 entry.link_keys)
        self._record_delays(alloc)
        return alloc

    def _record_delays(self, alloc: Allocation):
        """(Re)compute the admitted-time link and compute delay of one
        allocation against the current main state."""
        st = self.state
        topo_links = self.scenario.topology.links
        link_d = 0.0
        for key in alloc.links:
            link_d += md1_delay(QueueLoad(
                st.link_load[key], topo_links[key].service_rate_mu))
        upsilon = self.cloud_rate[alloc.cloud]
        comp_d = (mm1_delay(QueueLoad(st.cloud_load[alloc.cloud], upsilon))
                  if upsilon > 0 else 0.0)
        bd = self.breakdown.setdefault(alloc.request_id, DelayBreakdown())
        bd.link_delay = link_d
        bd.compute_delay = comp_d

    def _main_admit_on_entry(self, request, entry, demand):
        """Admission attempt on one path entry of the main state."""
        if self._entry_feasible(self.state, request, entry) is None:
            return None
        inst = self._pick_instance(entry.cloud, demand)
        if inst is None:
            vm = self._launchable_vm(self.state, entry.cloud, demand)
            if vm is None:
                return None
            inst = self._launch(entry.cloud, vm)
        return self._commit(request, entry, inst)

    # -- policy used inside migration trials --------------------------------

    def trial_admitter(self, state, request, exclude_clouds):
        """Ascending best fit: the fitting instance with the least total
        remaining capacity on the first feasible entry, else a new one.
        Commits with `state.admit`, so no delays are recorded mid-trial,
        and leaves the launch history to the caller."""
        demand = demand_of(request, self.scenario)
        floor = fit_floor(demand, self.degradation)
        for entry in self.lists.list_for_bs(request.origin):
            if entry.cloud in exclude_clouds:
                continue
            if self._entry_feasible(state, request, entry) is None:
                continue
            lst = state.residual_index[entry.cloud]
            for j in range(bisect_left(lst, (floor, -1)), len(lst)):
                iid = lst[j][1]
                if capacity_fits(demand, state.instances[iid].residual,
                                 self.degradation):
                    return state.admit(request, iid, entry.id,
                                       entry.link_keys)
            vm = self._launchable_vm(state, entry.cloud, demand)
            if vm is not None:
                inst = state.launch_instance(entry.cloud, vm)
                return state.admit(request, inst.id, entry.id,
                                   entry.link_keys)
        return None

    # -- per-request placement policies ------------------------------------

    def _place_bnb_request(self, request):
        entries = self.lists.by_first_hop[self.lists.first_hop_of[
            request.origin]]
        self.work += sum(len(e.links) for e in entries)
        refresh_one(self.lists, self.lists.first_hop_of[request.origin],
                    self.state.link_load)
        demand = demand_of(request, self.scenario)
        for entry in self.lists.list_for_bs(request.origin):
            alloc = self._main_admit_on_entry(request, entry, demand)
            if alloc is not None:
                return alloc
        return None

    def _place_sa_request(self, request, draws):
        """Best-of-Y sampling: draw candidate (path, VM-slot) tuples
        uniformly by rejection, rank by the stored (periodically refreshed)
        path delays, then validate exactly before committing."""
        entries = self.lists.list_for_bs(request.origin)
        if not entries:
            return None
        demand = demand_of(request, self.scenario)
        rng = self.rng
        state = self.state
        candidates = {}  # (entry_idx, slot) -> (score, order)
        launchable = {}  # cloud -> vm or None, lazily filled
        for attempt in range(draws):
            self.work += 1
            ei = rng.randrange(len(entries))
            entry = entries[ei]
            live = state.residual_index[entry.cloud]
            slot = rng.randrange(len(live) + 1)
            if slot < len(live):
                iid = live[slot][1]
                inst = state.instances[iid]
                if not capacity_fits(demand, inst.residual,
                                     self.degradation):
                    continue
                key = (ei, iid)
            else:
                cloud = entry.cloud
                if cloud not in launchable:
                    launchable[cloud] = self._launchable_vm(state, cloud,
                                                            demand)
                if launchable[cloud] is None:
                    continue
                key = (ei, -1)
            if key not in candidates:
                candidates[key] = (entry.current_delay, attempt)
        ranked = sorted(candidates.items(), key=lambda kv: kv[1])
        for (ei, slot), _score in ranked:
            entry = entries[ei]
            if self._entry_feasible(state, request, entry) is None:
                continue
            if slot >= 0:
                inst = state.instances.get(slot)
                if inst is None or not capacity_fits(
                        demand, inst.residual, self.degradation):
                    continue
                return self._commit(request, entry, inst)
            vm = self._launchable_vm(state, entry.cloud, demand)
            if vm is None:
                continue
            return self._commit(request, entry, self._launch(entry.cloud, vm))
        # sampling found nothing workable; fall back to a plain pass over
        # the entry list before giving up on the request
        for entry in entries:
            alloc = self._main_admit_on_entry(request, entry, demand)
            if alloc is not None:
                return alloc
        return None

    # -- run loop -----------------------------------------------------------

    def run(self) -> PlacementResult:
        cfg = self.config
        scenario = self.scenario
        dynamic = cfg.mode == "dynamic"
        if dynamic:
            ordered = sorted(scenario.requests,
                             key=lambda r: (r.arrival_time, r.id))
        else:
            ordered = sorted(scenario.requests, key=lambda r: r.id)
        draws = 0
        if cfg.kind in SA_KINDS:
            draws = sa_iterations(len(ordered),
                                  "short" if cfg.kind == SA_SHORT else "long")
        expiry: list[tuple[float, int]] = []
        t0 = time.perf_counter()
        for pos, request in enumerate(ordered, start=1):
            if dynamic:
                now = request.arrival_time
                while expiry and expiry[0][0] <= now:
                    _, rid = heapq.heappop(expiry)
                    if rid in self.state.allocations:
                        self.state.release(rid)
            if cfg.kind in BNB_KINDS:
                alloc = self._place_bnb_request(request)
            else:
                alloc = self._place_sa_request(request, draws)
            if alloc is None:
                events: list[tuple[int, float]] = []
                first_id = self.state._next_instance_id
                _, ok, _ = try_migrate_for_fit(
                    self.state, request, self.lists, self.trial_admitter,
                    self.mig_params, self.packet_size, self.eviction_limit,
                    events, self.target_limit)
                if ok:
                    self._note_launches(first_id)
                    alloc = self.state.allocations[request.id]
                    for rid, delay in events:
                        bd = self.breakdown.setdefault(rid, DelayBreakdown())
                        bd.migration_delay += delay
                        self._record_delays(self.state.allocations[rid])
                    self._record_delays(alloc)
            if alloc is None:
                self.state.drop(request.id)
                if self.first_drop_index is None:
                    self.first_drop_index = pos
            elif dynamic:
                heapq.heappush(
                    expiry,
                    (request.arrival_time + request.holding_time, request.id))
        wall = time.perf_counter() - t0
        return self._result(len(ordered), wall)

    def _result(self, total, wall) -> PlacementResult:
        st = self.state
        link_d = sum(b.link_delay for b in self.breakdown.values())
        comp_d = sum(b.compute_delay for b in self.breakdown.values())
        mig_d = sum(b.migration_delay for b in self.breakdown.values())
        return PlacementResult(
            kind=self.config.kind,
            state=st,
            satisfied=total - len(st.dropped),
            dropped=len(st.dropped),
            migrations=st.migrations,
            instances_launched=st.instances_launched,
            total_resources_used=st.resources_used,
            total_cost=st.cost_accrued,
            wall_time=wall,
            total_link_delay=link_d,
            total_compute_delay=comp_d,
            total_migration_delay=mig_d,
            first_drop_index=self.first_drop_index,
            breakdown=self.breakdown,
            work_units=self.work,
        )


def place_bnb(scenario: Scenario, config: HeuristicConfig) -> PlacementResult:
    """Branch-and-bound style first-fit scan over delay-sorted path lists
    with plain / ascending / descending VM-instance ordering."""
    if config.kind not in BNB_KINDS:
        raise ScenarioError(f"{config.kind!r} is not a BnB variant")
    return _Run(scenario, config).run()


def place_sa(scenario: Scenario, config: HeuristicConfig) -> PlacementResult:
    """Best-of-Y random candidate sampling per request."""
    if config.kind not in SA_KINDS:
        raise ScenarioError(f"{config.kind!r} is not an SA variant")
    return _Run(scenario, config).run()


def place(scenario: Scenario, config: HeuristicConfig) -> PlacementResult:
    if config.kind in BNB_KINDS:
        return place_bnb(scenario, config)
    return place_sa(scenario, config)
