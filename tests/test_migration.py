import pytest

from cranplace.heuristics import HeuristicConfig, place
from cranplace.migration import (MigrationParams, intercloud_link_speed,
                                 migration_time, try_migrate_for_fit)
from cranplace.model import (CapacityVector, Scenario, ServiceRequest,
                             capacity_fits, demand_of)
from cranplace.paths import build_sorted_lists
from cranplace.state import PlacementState
from cranplace.topology import LinkParams, build_topology
from cranplace.workload import make_scenario

from cranplace.defaults import DEFAULT_CLASSES, DEFAULT_VM_CATALOG


class TestMigrationTime:
    def test_formula(self):
        p = MigrationParams(overhead=0.5, page_size=4096.0, link_speed=1e9)
        size = 2.0 ** 20
        want = 0.5 + (5.0 * size - 4096.0) * 8.0 / 1e9
        assert migration_time(size, p) == pytest.approx(want)

    def test_explicit_speed_overrides_default(self):
        p = MigrationParams(overhead=0.0, link_speed=1e9)
        slow = migration_time(1e6, p)
        fast = migration_time(1e6, p, link_speed=1e10)
        assert fast == pytest.approx(slow / 10.0)

    def test_monotone_in_size(self):
        p = MigrationParams()
        assert migration_time(2e6, p) > migration_time(1e6, p)

    def test_sub_page_rejected(self):
        p = MigrationParams(page_size=4096.0)
        with pytest.raises(ValueError):
            migration_time(100.0, p)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MigrationParams(overhead=-1.0)
        with pytest.raises(ValueError):
            MigrationParams(page_size=0.0)
        with pytest.raises(ValueError):
            MigrationParams(image_bytes=0.0)


def _two_cloud_scenario(requests):
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
                    params={"packet_size_bytes": 500.0})


def _req(i, origin, cls):
    return ServiceRequest(i, origin, cls, 1000.0, 500.0,
                          arrival_time=0.001 * i, holding_time=0.008)


def _first_fit_admitter(scenario, lists):
    deg = scenario.degradation_fraction

    def admitter(state, request, exclude_clouds):
        demand = demand_of(request, scenario)
        for entry in lists.list_for_bs(request.origin):
            if entry.cloud in exclude_clouds:
                continue
            for inst in sorted(state.instances_at(entry.cloud),
                               key=lambda i: i.id):
                if capacity_fits(demand, inst.residual, deg):
                    return state.admit(request, inst.id, entry.id,
                                       entry.link_keys)
            vm = scenario.vm_catalog[0]
            if capacity_fits(demand, vm.capacity, deg) \
                    and state.residual_cloud[entry.cloud].covers(vm.capacity):
                inst = state.launch_instance(entry.cloud, vm)
                return state.admit(request, inst.id, entry.id,
                                   entry.link_keys)
        return None

    return admitter


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
        state.admit(request, insts[cloud].id, entry.id, entry.link_keys)
    return state


class TestTryMigrateForFit:
    def _success_setup(self):
        # cloud0's only VM is blocked by a small tenant; cloud1 is empty,
        # so relocating the tenant frees room for the bigger newcomer
        victim = _req(0, "bs0", "physical")
        newcomer = _req(1, "bs0", "mac_lower")
        scenario = _two_cloud_scenario([victim, newcomer])
        lists = build_sorted_lists(scenario.topology, scenario.k_paths)
        state = _seed_state(scenario, lists, [(victim, "cloud0")])
        return scenario, lists, state, newcomer

    def test_relocation_succeeds_and_reports_events(self):
        scenario, lists, state, newcomer = self._success_setup()
        admitter = _first_fit_admitter(scenario, lists)
        events = []
        moved, ok, out = try_migrate_for_fit(state, newcomer, lists,
                                             admitter, events=events)
        assert ok and moved == 1
        # trials run on the caller's state, and success closes the journal
        assert out is state
        assert state._journal is None
        assert out.migrations == 1
        assert len(events) == 1
        rid, delay = events[0]
        assert rid == 0 and delay > 0.0
        assert out.allocations[0].cloud == "cloud1"
        assert out.allocations[1].cloud == "cloud0"

    def test_failure_is_atomic(self):
        # both clouds blocked and nowhere to put a victim
        r0 = _req(0, "bs0", "physical")
        r1 = _req(1, "bs2", "physical")
        newcomer = _req(2, "bs0", "mac_lower")
        scenario = _two_cloud_scenario([r0, r1, newcomer])
        lists = build_sorted_lists(scenario.topology, scenario.k_paths)
        state = _seed_state(scenario, lists, [(r0, "cloud0"),
                                              (r1, "cloud1")])
        admitter = _first_fit_admitter(scenario, lists)
        before = state.signature()
        events = []
        moved, ok, out = try_migrate_for_fit(state, newcomer, lists,
                                             admitter, events=events)
        assert not ok and moved == 0
        assert out is state
        assert state.signature() == before
        assert events == []

    def test_eviction_limit_zero_blocks_relocation(self):
        scenario, lists, state, newcomer = self._success_setup()
        admitter = _first_fit_admitter(scenario, lists)
        moved, ok, _ = try_migrate_for_fit(state, newcomer, lists, admitter,
                                           eviction_limit=0)
        assert not ok and moved == 0

    def test_target_limit_restricts_clouds_tried(self):
        scenario, lists, state, newcomer = self._success_setup()
        admitter = _first_fit_admitter(scenario, lists)
        # with only the nearest cloud allowed the relocation still works
        # (the victim sits exactly there)
        moved, ok, _ = try_migrate_for_fit(state, newcomer, lists, admitter,
                                           target_limit=1)
        assert ok and moved == 1


class TestIntercloudLinkSpeed:
    def test_same_cloud_uses_configured_speed(self):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")])
        state = PlacementState(scenario)
        p = MigrationParams(link_speed=3e9)
        assert intercloud_link_speed(state, "cloud0", "cloud0", p,
                                     500.0, {}) == 3e9

    def test_idle_path_reports_full_bandwidth(self):
        scenario = _two_cloud_scenario([_req(0, "bs0", "physical")])
        state = PlacementState(scenario)
        p = MigrationParams(link_speed=3e9)
        speed = intercloud_link_speed(state, "cloud0", "cloud1", p, 500.0,
                                      {})
        # core links are provisioned far above the fallback speed
        assert speed > p.link_speed


# Criterion 4's scenario at 500 requests with cloud capacity cut to 60%:
# every heuristic drops and migrates past request 360 or so. Per kind:
# dropped, migrations, first_drop_index, work_units, then the link, compute
# and migration delay totals as repr, as the clone-per-trial migration
# produced them.
SATURATED_OUTPUTS = {
    "sa_short": (69, 21, 362, 68780, "6.64846899777965e-05",
                 "2.438762291528243e-05", "0.0022945964032428635"),
    "bnb_sorted_asc": (60, 9, 404, 73613, "6.376261689390311e-05",
                       "2.4875514389858682e-05", "0.00098362352828198"),
    "bnb_plain": (60, 17, 398, 113425, "6.399303343789218e-05",
                  "2.5025079368679603e-05", "0.0018584050812984175"),
    "bnb_sorted_desc": (65, 58, 369, 87569, "6.402071242182666e-05",
                        "2.520237756532123e-05", "0.006336561014580863"),
    "sa_long": (61, 43, 375, 82940, "6.800197597652478e-05",
                "2.5150775953110974e-05", "0.00470112170984969"),
}


@pytest.fixture(scope="module")
def saturated_scenario():
    return make_scenario(n_bs=50, n_clouds=5, n_requests=500, seed=42,
                         load_fraction=0.6,
                         params={"cloud_capacity_total": [14400.0, 54000.0,
                                                          7200.0]})


@pytest.mark.parametrize("kind", sorted(SATURATED_OUTPUTS))
def test_saturated_run_outputs_are_pinned(saturated_scenario, kind):
    r = place(saturated_scenario, HeuristicConfig(kind, seed=42))
    assert (r.dropped, r.migrations, r.first_drop_index, r.work_units,
            repr(r.total_link_delay), repr(r.total_compute_delay),
            repr(r.total_migration_delay)) == SATURATED_OUTPUTS[kind]
    assert r.state._journal is None
