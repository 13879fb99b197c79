"""Placement heuristics: plain / sorted branch-and-bound scans and
best-of-Y random sampling, over static or arrival-ordered request streams."""

from __future__ import annotations

import heapq
import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ScenarioError
from .migration import try_migrate_for_fit
from .model import CapacityVector, Scenario, VmType, capacity_fits
from .paths import build_sorted_lists, refresh_one
from .state import (Allocation, DelayBreakdown, PlacementState, can_launch,
                    projected_delay, sla_limit)

BNB_PLAIN = "bnb_plain"
BNB_SORTED_ASC = "bnb_sorted_asc"
BNB_SORTED_DESC = "bnb_sorted_desc"
SA_SHORT = "sa_short"
SA_LONG = "sa_long"

BNB_KINDS = (BNB_PLAIN, BNB_SORTED_ASC, BNB_SORTED_DESC)
SA_KINDS = (SA_SHORT, SA_LONG)
ALL_KINDS = BNB_KINDS + SA_KINDS

#: instances the SA random-fit scan probes from its random offset
_SA_PROBE_LIMIT = 8


@dataclass(frozen=True)
class HeuristicConfig:
    kind: str
    seed: int = 0
    mode: str = "dynamic"  # "dynamic" (arrival order + releases) or "static"

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ScenarioError(f"unknown heuristic kind {self.kind!r}")
        if self.mode not in ("dynamic", "static"):
            raise ScenarioError(f"unknown mode {self.mode!r}")


@dataclass
class PlacementResult:
    """A finished run: its final state and per-request delays, and the
    totals read from them."""
    kind: str
    state: PlacementState
    wall_time: float
    first_drop_index: int | None = None
    breakdown: dict = field(default_factory=dict)
    work_units: int = 0  # deterministic operation count (modeled time)

    @property
    def dropped(self) -> int:
        return len(self.state.dropped)

    @property
    def satisfied(self) -> int:
        return len(self.state.scenario.requests) - self.dropped

    @property
    def migrations(self) -> int:
        return self.state.migrations

    @property
    def instances_launched(self) -> int:
        return self.state.instances_launched

    @property
    def total_resources_used(self) -> float:
        return self.state.resources_used

    @property
    def total_cost(self) -> float:
        return self.state.cost_accrued

    @property
    def total_link_delay(self) -> float:
        return sum(b.link_delay for b in self.breakdown.values())

    @property
    def total_compute_delay(self) -> float:
        return sum(b.compute_delay for b in self.breakdown.values())

    @property
    def total_migration_delay(self) -> float:
        return sum(b.migration_delay for b in self.breakdown.values())

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


class _Fit:
    """What a run needs to know of one demand: the VM types of `catalog`,
    which is in cost order, that it fits on, and, when first asked,
    whether the cheapest of them is the least and what `capacity_fits`
    asks of a residual."""

    def __init__(self, demand, catalog, degradation):
        self.demand = demand
        self.degradation = degradation
        self.fitting = [vm for vm in catalog
                        if capacity_fits(demand, vm.capacity, degradation)]

    @cached_property
    def needs(self):
        """(cpu, storage, network) a residual must hold, cpu and network
        degraded, and the demand's `fit_floor`."""
        demand, degradation = self.demand, self.degradation
        keep = 1.0 - degradation
        return (keep * demand.cpu, demand.storage, keep * demand.network,
                fit_floor(demand, degradation))

    @cached_property
    def cheapest_dominates(self):
        """Whether every fitting type's capacity covers the cheapest's.
        Resource units are cpu + network and the catalog is in cost order,
        so then no type can launch where the cheapest cannot."""
        cheapest = self.fitting[0]
        return all(vm.capacity.covers(cheapest.capacity)
                   for vm in self.fitting[1:])


class _Run:
    """Single placement run: its state, the delay breakdown it records
    and its work count."""

    def __init__(self, scenario: Scenario, config: HeuristicConfig):
        self.scenario = scenario
        self.config = config
        self.degradation = scenario.degradation_fraction
        self.state = PlacementState(scenario)
        self.lists = build_sorted_lists(scenario.topology, scenario.k_paths)
        self.catalog = sorted(scenario.vm_catalog,
                              key=lambda v: (v.hourly_cost, v.name))
        self.rng = random.Random(config.seed)
        self.first_drop_index: int | None = None
        self.breakdown: dict[int, DelayBreakdown] = {}
        self.work = 0
        # demand -> its `_Fit`
        self._fits: dict[CapacityVector, _Fit] = {}

    # -- feasibility ------------------------------------------------------

    def _entry_feasible(self, state, request, entry):
        """Stability + SLA screen for placing `request` on `entry`'s path
        and cloud. Returns projected (link_delay, compute_delay) or None."""
        self.work += 1 + len(entry.links)
        delays = projected_delay(state, entry, request.rate_pps)
        if delays is None or delays[0] + delays[1] > sla_limit(
                self.scenario, request):
            return None
        return delays

    def _fit(self, demand):
        """The `_Fit` of `demand`, made once per distinct demand, of which
        a generated stream has one per service class."""
        fit = self._fits.get(demand)
        if fit is None:
            fit = self._fits[demand] = _Fit(demand, self.catalog,
                                            self.degradation)
        return fit

    def _launchable_vm(self, state, cloud, fit):
        """Cheapest VM type of `fit.fitting` launchable at this cloud under
        the cloud residual, resource cap and cost threshold. When the
        cheapest cannot launch and is the least of them, none can."""
        fitting = fit.fitting
        if not fitting:
            return None
        if can_launch(state, cloud, fitting[0]):
            return fitting[0]
        if fit.cheapest_dominates:
            return None
        for vm in fitting[1:]:
            if can_launch(state, cloud, vm):
                return vm
        return None

    # -- instance selection (main state, indexed) -------------------------

    def _pick_instance(self, cloud, demand):
        kind = self.config.kind
        if kind in SA_KINDS:
            # random-fit: bounded probe scan from a seeded random offset
            lst = self.state.residual_index[cloud]
            n = len(lst)
            if not n:
                return None
            # Random.randrange(n), replayed as `_place_sa_request` does
            getrandbits = self.rng.getrandbits
            k = n.bit_length()
            start = getrandbits(k)
            while start >= n:
                start = getrandbits(k)
            # capacity_fits(demand, residual, self.degradation), unrolled
            need_cpu, need_storage, need_network, _ = self._fit(demand).needs
            instances = self.state.instances
            for j in range(min(n, _SA_PROBE_LIMIT)):
                self.work += 1
                inst = instances[lst[(start + j) % n][1]]
                r = inst.residual
                if (r.storage >= need_storage and r.cpu >= need_cpu
                        and r.network >= need_network):
                    return inst
            return None
        if kind == BNB_PLAIN:
            for iid in self.state.launched[cloud]:
                self.work += 1
                inst = self.state.instances.get(iid)
                if inst is None:  # long since retired
                    continue
                if capacity_fits(demand, inst.residual, self.degradation):
                    return inst
            return None
        lst = self.state.residual_index[cloud]
        floor = fit_floor(demand, self.degradation)
        if kind == BNB_SORTED_ASC:
            start = bisect_left(lst, (floor, -1))
            for j in range(start, len(lst)):
                self.work += 1
                inst = self.state.instances[lst[j][1]]
                if capacity_fits(demand, inst.residual, self.degradation):
                    return inst
            return None
        # descending: largest residual first
        for j in range(len(lst) - 1, -1, -1):
            self.work += 1
            if lst[j][0] < floor:
                break
            inst = self.state.instances[lst[j][1]]
            if capacity_fits(demand, inst.residual, self.degradation):
                return inst
        return None

    # -- committing --------------------------------------------------------

    def _commit(self, request, entry, instance, delays) -> Allocation:
        """Admit `request` on `instance` over `entry` and record `delays`,
        the (link, compute) pair the screen projected. Admission raises
        each load by the rate as the screen did, so they are the delays
        `_record_delays` would compute."""
        alloc = self.state.admit(request, instance.id, entry)
        self.breakdown[request.id] = DelayBreakdown(*delays)
        return alloc

    def _record_delays(self, alloc: Allocation):
        """Recompute the admitted-time link and compute delay of one
        allocation against the current main state, after a migration."""
        link_d, comp_d = projected_delay(self.state, alloc.path, 0.0)
        bd = self.breakdown.setdefault(alloc.request_id, DelayBreakdown())
        bd.link_delay = link_d
        bd.compute_delay = comp_d

    def _first_fit(self, request, entries, demand, launchable):
        """Admit `request` on the first of `entries` that passes the screen
        and has an instance from `_pick_instance` or a launchable VM type.
        `launchable` maps a cloud to its `_launchable_vm` result and is
        filled on first use; nothing changes the state before the commit,
        so what it holds stays true for the whole pass."""
        state = self.state
        for entry in entries:
            delays = self._entry_feasible(state, request, entry)
            if delays is None:
                continue
            cloud = entry.cloud
            inst = self._pick_instance(cloud, demand)
            if inst is None:
                if cloud not in launchable:
                    launchable[cloud] = self._launchable_vm(
                        state, cloud, self._fit(demand))
                vm = launchable[cloud]
                if vm is None:
                    continue
                inst = state.launch_instance(cloud, vm)
            return self._commit(request, entry, inst, delays)
        return None

    # -- policy used inside migration trials --------------------------------

    def _room(self, state, cloud, fit):
        """Where the trial policy would put a demand with the `_Fit` `fit`
        at `cloud` now: the id of the fitting instance with the least
        total remaining capacity, else the cheapest launchable VM type it
        fits on, else None."""
        need_cpu, need_storage, need_network, floor = fit.needs
        lst = state.residual_index[cloud]
        instances = state.instances
        # capacity_fits on each residual from the floor up, unrolled
        for j in range(bisect_left(lst, (floor, -1)), len(lst)):
            iid = lst[j][1]
            r = instances[iid].residual
            if (r.storage >= need_storage and r.cpu >= need_cpu
                    and r.network >= need_network):
                return iid
        return self._launchable_vm(state, cloud, fit)

    def room(self, state, request, cloud):
        """`admit`'s room for `request` at `cloud` now (an instance id or
        a VM type), or None: the room test `try_migrate_for_fit` screens
        its targets with."""
        return self._room(state, cloud, self._fit(state.demand(request)))

    def admit(self, state, request, exclude_clouds):
        """The trial policy's admission, ascending best fit: the fitting
        instance with the least total remaining capacity on the first
        feasible entry, else a new one. Commits with `state.admit`, so no
        delays are recorded mid-trial. Nothing changes before the commit,
        so each cloud's room (`_room`) is found once, and only entries on
        a cloud with room are screened; a skipped screen still counts its
        work."""
        fit = self._fit(state.demand(request))
        room = {}
        for entry in self.lists.list_for_bs(request.origin):
            cloud = entry.cloud
            if cloud in exclude_clouds:
                continue
            if cloud not in room:
                room[cloud] = self._room(state, cloud, fit)
            where = room[cloud]
            if where is None:
                self.work += 1 + len(entry.links)
                continue
            if self._entry_feasible(state, request, entry) is None:
                continue
            if isinstance(where, VmType):
                where = state.launch_instance(cloud, where).id
            return state.admit(request, where, entry)
        return None

    # -- per-request placement policies ------------------------------------

    def _place_bnb_request(self, request):
        entries = self.lists.by_first_hop[self.lists.first_hop_of[
            request.origin]]
        self.work += sum(len(e.links) for e in entries)
        refresh_one(self.lists, self.lists.first_hop_of[request.origin],
                    self.state.link_load)
        return self._first_fit(request,
                               self.lists.list_for_bs(request.origin),
                               self.state.demand(request), {})

    def _place_sa_request(self, request, draws):
        """Best-of-Y sampling: draw candidate (path, VM-slot) tuples
        uniformly by rejection, rank them by each path's idle-network delay
        as `build_sorted_lists` computed it (an SA run never refreshes the
        stored delays), then validate exactly before committing."""
        entries = self.lists.list_for_bs(request.origin)
        if not entries:
            return None
        state = self.state
        demand = state.demand(request)
        fit = self._fit(demand)
        # capacity_fits(demand, residual, self.degradation), unrolled
        need_cpu, need_storage, need_network, _ = fit.needs
        getrandbits = self.rng.getrandbits
        index = state.residual_index
        instances = state.instances
        candidates = {}  # (entry_idx, slot) -> (score, order)
        launchable = {}  # cloud -> vm or None, lazily filled
        self.work += draws
        n_entries = len(entries)
        k_entries = n_entries.bit_length()
        for attempt in range(draws):
            # both draws replay Random.randrange(n) bit for bit: the same
            # rejection loop over getrandbits(n.bit_length())
            ei = getrandbits(k_entries)
            while ei >= n_entries:
                ei = getrandbits(k_entries)
            entry = entries[ei]
            live = index[entry.cloud]
            n = len(live) + 1
            k = n.bit_length()
            slot = getrandbits(k)
            while slot >= n:
                slot = getrandbits(k)
            if slot < n - 1:
                iid = live[slot][1]
                r = instances[iid].residual
                if not (r.storage >= need_storage and r.cpu >= need_cpu
                        and r.network >= need_network):
                    continue
                key = (ei, iid)
            else:
                cloud = entry.cloud
                if cloud not in launchable:
                    launchable[cloud] = self._launchable_vm(state, cloud, fit)
                if launchable[cloud] is None:
                    continue
                key = (ei, -1)
            if key not in candidates:
                candidates[key] = (entry.current_delay, attempt)
        for ei, slot in sorted(candidates, key=candidates.__getitem__):
            entry = entries[ei]
            delays = self._entry_feasible(state, request, entry)
            if delays is None:
                continue
            if slot >= 0:
                # the draw found it fits, and nothing has changed since
                inst = state.instances[slot]
            else:
                # a launch candidate's cloud has a launchable VM in the map
                cloud = entry.cloud
                inst = state.launch_instance(cloud, launchable[cloud])
            return self._commit(request, entry, inst, delays)
        # sampling found nothing workable; fall back to a plain pass over
        # the entry list, sharing the map, before giving up on the request
        return self._first_fit(request, entries, demand, launchable)

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
        if cfg.kind in SA_KINDS and ordered:
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
                moves, ok = try_migrate_for_fit(self.state, request,
                                                self.lists, self)
                if ok:
                    alloc = self.state.allocations[request.id]
                    for rid, delay in moves:
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
        return PlacementResult(
            kind=cfg.kind,
            state=self.state,
            wall_time=time.perf_counter() - t0,
            first_drop_index=self.first_drop_index,
            breakdown=self.breakdown,
            work_units=self.work,
        )


def place(scenario: Scenario, config: HeuristicConfig) -> PlacementResult:
    """Place the scenario's requests with the heuristic `config` names:
    a branch-and-bound style first-fit scan over delay-sorted path lists
    with plain / ascending / descending VM-instance ordering, or best-of-Y
    random candidate sampling per request."""
    return _Run(scenario, config).run()
