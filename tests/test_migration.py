import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranplace.defaults import DEFAULT_PARAMS
from cranplace.errors import ScenarioError
from cranplace import migration
from cranplace.heuristics import ALL_KINDS, HeuristicConfig, _Run, place
from cranplace.migration import (evictee_order, intercloud_link_speed,
                                 migration_time, try_migrate_for_fit)
from cranplace.model import (CapacityVector, Scenario, ServiceRequest,
                             Topology, VmType, capacity_fits, demand_of)
from cranplace.paths import build_sorted_lists
from cranplace.state import PlacementState, can_launch
from cranplace.topology import LinkParams, build_topology
from cranplace.workload import make_scenario

from cranplace.model import DEFAULT_CLASSES, DEFAULT_VM_CATALOG


def _two_cloud_scenario(requests, **params):
    lp = LinkParams(backhaul_gbps=40.0,
                    cloud_capacity_total=CapacityVector(400.0, 300.0, 200.0),
                    cloud_service_rate_total=1.2e8)
    topo = build_topology(4, 2, 2, lp)
    return Scenario(topology=topo,
                    vm_catalog=[DEFAULT_VM_CATALOG[1]],  # one mid-size type
                    classes=list(DEFAULT_CLASSES),
                    requests=requests, cost_threshold=10000.0,
                    degradation_fraction=0.2, k_paths=2,
                    resource_cap_total=50000.0,
                    params={"packet_size_bytes": 500.0, **params})


class TestMigrationTime:
    def test_formula(self):
        scenario = _two_cloud_scenario([], migration_overhead_s=0.5,
                                       migration_page_bytes=4096.0)
        size = 2.0 ** 20
        want = 0.5 + (5.0 * size - 4096.0) * 8.0 / 1e9
        assert migration_time(scenario, size, 1e9) == pytest.approx(want)

    def test_faster_link_takes_less_time(self):
        scenario = _two_cloud_scenario([], migration_overhead_s=0.0)
        slow = migration_time(scenario, 1e6, 1e9)
        fast = migration_time(scenario, 1e6, 1e10)
        assert fast == pytest.approx(slow / 10.0)

    def test_monotone_in_size(self):
        scenario = _two_cloud_scenario([])
        assert migration_time(scenario, 2e6, 1e9) > \
            migration_time(scenario, 1e6, 1e9)

    def test_sub_page_rejected(self):
        scenario = _two_cloud_scenario([], migration_page_bytes=4096.0)
        with pytest.raises(ValueError):
            migration_time(scenario, 100.0, 1e9)


class TestMigrationSettings:
    @pytest.mark.parametrize("name", [
        "packet_size_bytes", "migration_page_bytes", "migration_image_bytes",
        "migration_link_speed_bps", "migration_overhead_s"])
    @pytest.mark.parametrize("value", [
        "x", "4096", [1], True, math.nan, math.inf, -1.0])
    def test_a_setting_that_is_no_finite_number_is_rejected(self, name,
                                                            value):
        with pytest.raises(ScenarioError, match=name):
            _two_cloud_scenario([], **{name: value})

    @pytest.mark.parametrize("name", [
        "packet_size_bytes", "migration_page_bytes", "migration_image_bytes",
        "migration_link_speed_bps"])
    def test_a_size_or_speed_of_zero_is_rejected(self, name):
        with pytest.raises(ScenarioError, match=name):
            _two_cloud_scenario([], **{name: 0.0})

    def test_zero_overhead_is_accepted(self):
        scenario = _two_cloud_scenario([], migration_overhead_s=0)
        assert scenario.setting("migration_overhead_s") == 0


def _req(i, origin, cls, volume=1000.0):
    return ServiceRequest(i, origin, cls, volume, 500.0,
                          arrival_time=0.001 * i, holding_time=0.008)


class _FirstFitPolicy:
    """A first-fit trial policy for direct calls: its admission and the
    room test that goes with it. It takes the fitting instance of least
    id, else launches the catalog's first type where `can_launch` allows
    it."""

    def __init__(self, scenario, lists):
        self.scenario = scenario
        self.lists = lists

    def room(self, state, request, cloud):
        deg = self.scenario.degradation_fraction
        demand = demand_of(request, self.scenario)
        for iid in sorted(iid for _, iid in state.residual_index[cloud]):
            if capacity_fits(demand, state.instances[iid].residual, deg):
                return iid
        vm = self.scenario.vm_catalog[0]
        if capacity_fits(demand, vm.capacity, deg) \
                and can_launch(state, cloud, vm):
            return vm
        return None

    def admit(self, state, request, exclude_clouds):
        for entry in self.lists.list_for_bs(request.origin):
            if entry.cloud in exclude_clouds:
                continue
            where = self.room(state, request, entry.cloud)
            if where is None:
                continue
            if isinstance(where, VmType):
                where = state.launch_instance(entry.cloud, where).id
            return state.admit(request, where, entry)
        return None


def _seed_state(scenario, lists, placements):
    """placements: (request, cloud) pairs admitted onto one VM per cloud."""
    state = PlacementState(scenario)
    insts = {}
    for request, cloud in placements:
        if cloud not in insts:
            insts[cloud] = state.launch_instance(cloud,
                                                 scenario.vm_catalog[0])
        entry = next(e for e in lists.list_for_bs(request.origin)
                     if e.cloud == cloud)
        state.admit(request, insts[cloud].id, entry)
    return state


class TestTryMigrateForFit:
    def _success_setup(self, **params):
        # cloud0's only VM is blocked by a small tenant; cloud1 is empty,
        # so relocating the tenant frees room for the bigger newcomer
        victim = _req(0, "bs0", "physical")
        newcomer = _req(1, "bs0", "mac_lower")
        scenario = _two_cloud_scenario([victim, newcomer], **params)
        lists = build_sorted_lists(scenario.topology, scenario.k_paths)
        state = _seed_state(scenario, lists, [(victim, "cloud0")])
        return scenario, lists, state, newcomer

    def test_relocation_succeeds_and_reports_moves(self):
        scenario, lists, state, newcomer = self._success_setup()
        moves, ok = try_migrate_for_fit(
            state, newcomer, lists, _FirstFitPolicy(scenario, lists))
        assert ok and len(moves) == 1
        # trials run on the caller's state, and success closes the journal
        assert state._journal is None
        assert state.migrations == 1
        rid, delay = moves[0]
        assert rid == 0 and delay > 0.0
        assert state.allocations[0].cloud == "cloud1"
        assert state.allocations[1].cloud == "cloud0"

    def test_failure_is_atomic(self):
        # both clouds blocked and nowhere to put a victim
        r0 = _req(0, "bs0", "physical")
        r1 = _req(1, "bs2", "physical")
        newcomer = _req(2, "bs0", "mac_lower")
        scenario = _two_cloud_scenario([r0, r1, newcomer])
        lists = build_sorted_lists(scenario.topology, scenario.k_paths)
        state = _seed_state(scenario, lists, [(r0, "cloud0"),
                                              (r1, "cloud1")])
        before = state.signature()
        moves, ok = try_migrate_for_fit(
            state, newcomer, lists, _FirstFitPolicy(scenario, lists))
        assert not ok and moves == []
        assert state.signature() == before

    def test_eviction_limit_zero_blocks_relocation(self):
        scenario, lists, state, newcomer = self._success_setup(
            migration_eviction_limit=0)
        moves, ok = try_migrate_for_fit(
            state, newcomer, lists, _FirstFitPolicy(scenario, lists))
        assert not ok and len(moves) == 0

    def test_target_limit_restricts_clouds_tried(self):
        scenario, lists, state, newcomer = self._success_setup(
            migration_target_limit=1)
        # with only the nearest cloud allowed the relocation still works
        # (the victim sits exactly there)
        moves, ok = try_migrate_for_fit(
            state, newcomer, lists, _FirstFitPolicy(scenario, lists))
        assert ok and len(moves) == 1


class TestMigrationLimits:
    @pytest.mark.parametrize("name", ["migration_eviction_limit",
                                      "migration_target_limit"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", -1, True, [2]])
    def test_a_limit_that_is_no_count_is_rejected(self, name, value):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")])
        with pytest.raises(ScenarioError, match=name):
            replace(scenario, params={**scenario.params, name: value})

    @pytest.mark.parametrize("value", [None, 0, 4])
    def test_none_or_a_count_is_accepted(self, value):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")],
                                       migration_eviction_limit=value,
                                       migration_target_limit=value)
        assert scenario.setting("migration_eviction_limit") == \
            scenario.setting("migration_target_limit") == value

    @staticmethod
    def _evict_all(n_tenants, volume, **limits):
        """`try_migrate_for_fit`'s (moves made, success) when `n_tenants`
        physical tenants of `volume` share cloud0's only VM and only moving
        all of them frees room for the newcomer: cloud1 has room for one
        VM, which takes the tenants but not the newcomer."""
        tenants = [_req(i, "bs0", "physical", volume=volume)
                   for i in range(n_tenants)]
        newcomer = _req(n_tenants, "bs0", "mac_lower", volume=1400.0)
        scenario = _two_cloud_scenario(tenants + [newcomer], **limits)
        lists = build_sorted_lists(scenario.topology, scenario.k_paths)
        state = _seed_state(scenario, lists, [(t, "cloud0") for t in tenants])
        moves, ok = try_migrate_for_fit(state, newcomer, lists,
                                        _FirstFitPolicy(scenario, lists))
        return len(moves), ok

    def test_no_limit_tries_every_evictee(self):
        # five tenants of 16 storage share cloud0's VM (122); the newcomer
        # needs 112
        assert self._evict_all(5, 250.0, migration_eviction_limit=None,
                               migration_target_limit=1) == (5, True)
        assert self._evict_all(5, 250.0, migration_eviction_limit=4,
                               migration_target_limit=1) == (0, False)

    def test_a_direct_call_keeps_the_default_limits(self):
        # seven tenants of 12.8 storage: a scenario without limits gets
        # the default of 6 evictees, so the seventh stays and the newcomer
        # (112) still finds no room
        assert self._evict_all(7, 200.0) == (0, False)
        assert self._evict_all(7, 200.0,
                               migration_eviction_limit=None) == (7, True)


def _scan_order(state, cloud):
    """The evictee order as a scan of every allocation computes it."""
    return [a.request_id for a in sorted(
        (a for a in state.allocations.values() if a.cloud == cloud),
        key=lambda a: (a.consumed.cpu + a.consumed.storage
                       + a.consumed.network, a.request_id))]


def test_evictee_order_survives_checkpoint_rollback_cycles(
        saturated_scenario):
    # the run's own migration trials rolled the state back many times;
    # each further cycle's rollback moves the allocations it puts back to
    # the end of the allocation and assignment dicts
    result = place(saturated_scenario, HeuristicConfig("sa_short", seed=42))
    state = result.state
    assert result.migrations > 0 and len(state.allocations) > 60
    clouds = sorted(state.residual_index)
    rng = random.Random(1)
    for cycle in range(12):
        mark = state.checkpoint()
        for rid in rng.sample(sorted(state.allocations), 10):
            state.release(rid)
            assert all(evictee_order(state, c) == _scan_order(state, c)
                       for c in clouds)
        if cycle % 4 == 3:
            state.commit(mark)
        else:
            state.rollback(mark)
        assert all(evictee_order(state, c) == _scan_order(state, c)
                   for c in clouds)


class TestIntercloudLinkSpeed:
    def test_same_cloud_uses_configured_speed(self):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")],
                                       migration_link_speed_bps=3e9)
        state = PlacementState(scenario)
        assert intercloud_link_speed(state, "cloud0", "cloud0", {}) == 3e9

    def test_idle_path_reports_full_bandwidth(self):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")],
                                       migration_link_speed_bps=3e9)
        state = PlacementState(scenario)
        speed = intercloud_link_speed(state, "cloud0", "cloud1", {})
        # core links are provisioned far above the fallback speed
        assert speed > 3e9

    def test_no_path_falls_back_and_is_cached(self):
        # without the core link the two clouds are in separate components
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")],
                                       migration_link_speed_bps=3e9)
        topo = scenario.topology
        cut = Topology(topo.nodes.values(),
                       [l for l in topo.links.values()
                        if {l.src, l.dst} != {"head0", "head1"}])
        state = PlacementState(replace(scenario, topology=cut))
        cache = {}
        assert intercloud_link_speed(state, "cloud0", "cloud1", cache) == 3e9
        assert cache == {("cloud0", "cloud1"): None}
        with mock.patch.object(migration, "k_shortest_paths") as search:
            assert intercloud_link_speed(state, "cloud0", "cloud1",
                                         cache) == 3e9
        assert not search.called

    def test_a_saturated_path_falls_back(self):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")],
                                       migration_link_speed_bps=3e9)
        state = PlacementState(scenario)
        cache = {}
        intercloud_link_speed(state, "cloud0", "cloud1", cache)
        (key, bw), *_ = cache[("cloud0", "cloud1")]
        # the link's capacity in packets/s at the scenario's packet size
        full = bw * 1e9 / (scenario.setting("packet_size_bytes") * 8.0)
        state.link_load[key] = full / 2
        assert intercloud_link_speed(state, "cloud0", "cloud1",
                                     cache) == pytest.approx(bw / 2 * 1e9)
        for load in (full, 2 * full):
            state.link_load[key] = load
            assert intercloud_link_speed(state, "cloud0", "cloud1",
                                         cache) == 3e9


# Criterion 4's scenario at 500 requests with cloud capacity cut to 60%:
# every heuristic drops and migrates past request 360 or so. Per kind:
# dropped, migrations, first_drop_index, work_units, then the link, compute
# and migration delay totals as repr. work_units counts only the migration
# trials that run, not the targets the room screen skips.
SATURATED_OUTPUTS = {
    "sa_short": (69, 21, 362, 18014, "6.64846899777965e-05",
                 "2.438762291528243e-05", "0.0022945964032428635"),
    "bnb_sorted_asc": (60, 9, 404, 34622, "6.376261689390311e-05",
                       "2.4875514389858682e-05", "0.00098362352828198"),
    "bnb_plain": (60, 17, 398, 72523, "6.399303343789218e-05",
                  "2.5025079368679603e-05", "0.0018584050812984175"),
    "bnb_sorted_desc": (65, 58, 369, 38345, "6.402071242182666e-05",
                        "2.520237756532123e-05", "0.006336561014580863"),
    "sa_long": (61, 43, 375, 38109, "6.800197597652478e-05",
                "2.5150775953110974e-05", "0.00470112170984969"),
}


def _saturated_scenario():
    return make_scenario(n_bs=50, n_clouds=5, n_requests=500, seed=42,
                         load_fraction=0.6,
                         params={"cloud_capacity_total": [14400.0, 54000.0,
                                                          7200.0]})


@pytest.fixture(scope="module")
def saturated_scenario():
    return _saturated_scenario()


@pytest.mark.parametrize("kind", sorted(SATURATED_OUTPUTS))
def test_saturated_run_outputs_are_pinned(saturated_scenario, kind):
    r = place(saturated_scenario, HeuristicConfig(kind, seed=42))
    assert (r.dropped, r.migrations, r.first_drop_index, r.work_units,
            repr(r.total_link_delay), repr(r.total_compute_delay),
            repr(r.total_migration_delay)) == SATURATED_OUTPUTS[kind]
    assert r.state._journal is None


@pytest.mark.parametrize("kind", sorted(SATURATED_OUTPUTS))
def test_scenario_without_default_params_places_the_same(saturated_scenario,
                                                         kind):
    # a hand-written file that leaves the stock params out gets the stock
    # values, so it places exactly as the generated scenario does
    bare = replace(saturated_scenario, params={
        k: v for k, v in saturated_scenario.params.items()
        if k not in DEFAULT_PARAMS})
    r = place(bare, HeuristicConfig(kind, seed=42))
    assert (r.dropped, r.migrations, r.first_drop_index, r.work_units,
            repr(r.total_link_delay), repr(r.total_compute_delay),
            repr(r.total_migration_delay)) == SATURATED_OUTPUTS[kind]


def _outputs(r):
    """Every output of a run but its `work_units`."""
    return (r.state.signature(), r.dropped, r.migrations,
            r.first_drop_index, r.instances_launched,
            repr(r.total_resources_used), repr(r.total_cost),
            repr(r.total_link_delay), repr(r.total_compute_delay),
            repr(r.total_migration_delay),
            sorted((rid, repr(b.link_delay), repr(b.compute_delay),
                    repr(b.migration_delay))
                   for rid, b in r.breakdown.items()))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n_bs=st.integers(8, 30),
       n_clouds=st.integers(2, 6), n_requests=st.integers(100, 200),
       load=st.floats(0.6, 0.9), cut=st.sampled_from([0.2, 0.3, 0.45]),
       cost_threshold=st.sampled_from([40.0, 120.0, 400.0, 1e4]),
       resource_cap=st.sampled_from([3000.0, 1e9]),
       eviction_limit=st.sampled_from([2, 6]))
def test_the_room_screen_skips_only_trials_that_fail(
        seed, n_bs, n_clouds, n_requests, load, cut, cost_threshold,
        resource_cap, eviction_limit):
    # saturated streams whose cloud capacity, resource cap or cost
    # threshold binds: most examples migrate, and skip many targets
    scenario = make_scenario(
        n_bs, n_clouds, n_requests, load_fraction=load, seed=seed,
        cost_threshold=cost_threshold, resource_cap_total=resource_cap,
        params={"cloud_capacity_total": [24000.0 * cut, 90000.0 * cut,
                                         12000.0 * cut],
                "migration_eviction_limit": eviction_limit})
    for kind in ALL_KINDS:
        screened = place(scenario, HeuristicConfig(kind, seed=seed))
        with mock.patch.object(migration, "evictions_cannot_make_room",
                               lambda state, demand, evictee_ids, clouds:
                               False):
            every_trial = place(scenario, HeuristicConfig(kind, seed=seed))
        assert _outputs(screened) == _outputs(every_trial), kind
        assert screened.work_units <= every_trial.work_units, kind


#: (cost threshold, resource cap, storage volumes of the tenants of the VM
#: at the newcomer's nearest cloud and at the other cloud, the newcomer's
#: volume, eviction limit). A physical request takes 64 GB of storage per
#: 1000 packets; each cloud runs one small VM (70 GB, 13 resource units),
#: and the big type (122 GB, 26 units) costs as much as two small ones.
SCREEN_CASES = {
    # the newcomer fits only the big type, and the cost threshold admits
    # it only once the emptied small VM retires: (c) fails
    "retirement": (3.5, 5e4, [1000.0], [50.0], 1250.0, 6),
    # the near VM fits the newcomer once its smaller tenant leaves, and
    # no VM can launch: (b) fails
    "release": (2.5, 5e4, [250.0, 500.0], [700.0], 500.0, 1),
    # as "release", but the eviction budget would empty the near VM and
    # the resource cap forbids every launch, retirement or not: (b) fails
    # on the emptied VM, and the trial wins once one tenant has left
    "partial": (1e4, 30.0, [250.0, 500.0], [700.0], 500.0, 2),
    # the newcomer fits only the big type, which can launch now: (a) and
    # (c) fail
    "launch": (1e4, 5e4, [250.0, 500.0], [700.0], 1250.0, 1),
    # as "retirement", but the resource cap forbids the big type even
    # with the emptied VM retired, as no retirement lowers the resource
    # total: all three hold, so the target is skipped
    "retire-no-launch": (1e4, 45.0, [1000.0], [50.0], 1250.0, 6),
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_a_trial_that_one_condition_lets_win_runs(case):
    cost, cap, near_tenants, far_tenants, volume, limit = SCREEN_CASES[case]
    small = VmType("small", CapacityVector(8.0, 70.0, 5.0), 1.0)
    big = VmType("big", CapacityVector(16.0, 122.0, 10.0), 2.0)
    lp = LinkParams(backhaul_gbps=40.0,
                    cloud_capacity_total=CapacityVector(4000.0, 3000.0,
                                                        2000.0),
                    cloud_service_rate_total=1.2e8)
    tenants = [_req(i, "bs0", "physical", volume=v)
               for i, v in enumerate(near_tenants + far_tenants)]
    newcomer = _req(len(tenants), "bs0", "physical", volume=volume)
    scenario = Scenario(topology=build_topology(4, 2, 2, lp),
                        vm_catalog=[small, big],
                        classes=list(DEFAULT_CLASSES),
                        requests=tenants + [newcomer],
                        cost_threshold=cost, degradation_fraction=0.2,
                        k_paths=2, resource_cap_total=cap,
                        params={"packet_size_bytes": 500.0,
                                "migration_eviction_limit": limit,
                                "migration_target_limit": 1})
    run = _Run(scenario, HeuristicConfig("bnb_sorted_asc"))
    state = run.state
    near = run.lists.list_for_bs("bs0")[0].cloud
    far = ({"cloud0", "cloud1"} - {near}).pop()
    for cloud, group in ((near, tenants[:len(near_tenants)]),
                         (far, tenants[len(near_tenants):])):
        inst = state.launch_instance(cloud, small)
        for request in group:
            entry = next(e for e in run.lists.list_for_bs(request.origin)
                         if e.cloud == cloud)
            state.admit(request, inst.id, entry)
    # the screen's three conditions, and whether the evictions empty the
    # near VM, each tested here from first principles
    demand = state.demand(newcomer)
    deg = scenario.degradation_fraction
    home = state.instances[0]
    evictees = evictee_order(state, near)[:limit]
    released = home.residual
    for rid in evictees:
        released = released + state.allocations[rid].consumed
    emptied = len(evictees) == len(home.assigned)
    room_now = any(
        capacity_fits(demand, inst.residual, deg)
        for inst in state.instances.values()) or any(
        capacity_fits(demand, vm.capacity, deg) and can_launch(state, c, vm)
        for vm in (small, big) for c in (near, far))
    residual_after = dict(state.residual_cloud)
    live_cost_after = state.live_cost()
    if emptied:
        residual_after[near] = residual_after[near] + small.capacity
        live_cost_after -= small.hourly_cost
    launch_after = any(
        capacity_fits(demand, vm.capacity, deg)
        and residual_after[c].covers(vm.capacity)
        and state.resources_used + vm.resource_units <= cap
        and live_cost_after + vm.hourly_cost <= cost
        for vm in (small, big) for c in (near, far))
    assert (not room_now, not capacity_fits(demand, released, deg),
            not launch_after, emptied) == {
        "retirement": (True, True, False, True),
        "release": (True, False, True, False),
        "partial": (True, False, True, True),
        "launch": (False, True, False, False),
        "retire-no-launch": (True, True, True, True)}[case]
    before = state.signature()
    with mock.patch.object(state, "checkpoint",
                           wraps=state.checkpoint) as checkpoint:
        moves, ok = try_migrate_for_fit(state, newcomer, run.lists, run)
    if case == "retire-no-launch":
        assert (moves, ok) == ([], False) and not checkpoint.called
        assert state.signature() == before
        # and the trial it skipped would have failed
        with mock.patch.object(migration, "evictions_cannot_make_room",
                               lambda state, demand, evictee_ids, clouds:
                               False):
            assert try_migrate_for_fit(state, newcomer, run.lists,
                                       run) == ([], False)
        return
    assert (len(moves), ok) == (1, True)
    assert state.allocations[0].cloud == far
    home = state.instances[state.allocations[newcomer.id].instance_id]
    assert home.vm_type is (big if case in ("retirement", "launch")
                            else small)


def test_criterion_4_default_bnb_plain_is_pinned():
    # a room screen that did not test emptied instances for a partial
    # release skipped request 6923's winning trial here: instance 20 at
    # cloud0 hosts three evictees, and two of them leaving frees exactly
    # the request's 180 GB of storage
    r = place(make_scenario(50, 5, 10000, seed=42),
              HeuristicConfig("bnb_plain", seed=42))
    assert (r.dropped, r.migrations, r.first_drop_index) == (1531, 668, 1789)


if __name__ == "__main__":
    # each kind's place() on criterion 4's default scenario and on the
    # 500-request saturated scenario above: wall time, drops, migrations,
    # work units, the migration trials opened, counted as outermost
    # checkpoints, and the targets considered, counted as calls of
    # `evictee_order`, which runs once per target; a target considered and
    # not tried was skipped by the room screen. The figures quoted for a
    # change to the migration trials
    trials = targets = 0
    _checkpoint = PlacementState.checkpoint
    _evictee_order = migration.evictee_order

    def _counted_checkpoint(state):
        global trials
        if state._journal is None:
            trials += 1
        return _checkpoint(state)

    def _counted_evictee_order(state, cloud, limit=None):
        global targets
        targets += 1
        return _evictee_order(state, cloud, limit)

    PlacementState.checkpoint = _counted_checkpoint
    migration.evictee_order = _counted_evictee_order
    for name, scenario in (("default", make_scenario(50, 5, 10000, seed=42)),
                           ("saturated", _saturated_scenario())):
        for kind in ALL_KINDS:
            trials = targets = 0
            r = place(scenario, HeuristicConfig(kind, seed=42))
            print(f"{name} {kind}: {r.wall_time:.2f} s, dropped "
                  f"{r.dropped}, migrations {r.migrations}, work_units "
                  f"{r.work_units}, trials {trials}, targets {targets}, "
                  f"skipped {targets - trials}")
