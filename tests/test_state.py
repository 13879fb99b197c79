import pytest
from hypothesis import given, settings, strategies as st

from cranplace.errors import CranplaceError
from cranplace.model import demand_of
from cranplace.paths import build_sorted_lists
from cranplace.state import PlacementState, residual_key

from conftest import micro_scenario


def _entry_for(scenario, request):
    lists = build_sorted_lists(scenario.topology, scenario.k_paths)
    return lists.list_for_bs(request.origin)[0]


class TestInstanceLifecycle:
    def test_launch_reserves_cloud_residual(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        vm = tiny_scenario.vm_catalog[0]
        cloud = tiny_scenario.topology.clouds()[0].id
        before = state.residual_cloud[cloud]
        inst = state.launch_instance(cloud, vm)
        assert state.residual_cloud[cloud] == before - vm.capacity
        assert inst.residual == vm.capacity
        assert state.instances_launched == 1
        assert state.resources_used == vm.resource_units
        assert state.cost_accrued == vm.hourly_cost
        assert state.live_cost() == vm.hourly_cost

    def test_retire_returns_capacity_keeps_counters(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        vm = tiny_scenario.vm_catalog[0]
        cloud = tiny_scenario.topology.clouds()[0].id
        before = state.residual_cloud[cloud]
        inst = state.launch_instance(cloud, vm)
        state.retire_instance(inst.id)
        assert state.residual_cloud[cloud] == before
        assert state.live_cost() == 0.0
        # cumulative charges survive the retirement
        assert state.resources_used == vm.resource_units
        assert state.cost_accrued == vm.hourly_cost

    def test_launch_rejected_without_room(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        vm = tiny_scenario.vm_catalog[1]
        cloud = tiny_scenario.topology.clouds()[0].id
        while state.residual_cloud[cloud].covers(vm.capacity):
            state.launch_instance(cloud, vm)
        with pytest.raises(CranplaceError):
            state.launch_instance(cloud, vm)


class TestAdmitRelease:
    def test_admit_updates_loads_and_instance(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        req = tiny_scenario.requests[0]
        entry = _entry_for(tiny_scenario, req)
        inst = state.launch_instance(entry.cloud, tiny_scenario.vm_catalog[0])
        alloc = state.admit(req, inst.id, entry.id, entry.link_keys)
        demand = demand_of(req, tiny_scenario)
        assert alloc.consumed == demand  # full fit, nothing clipped
        assert inst.residual == tiny_scenario.vm_catalog[0].capacity - demand
        for key in entry.link_keys:
            assert state.link_load[key] == req.rate_pps
        assert state.cloud_load[entry.cloud] == req.rate_pps
        assert state.path_load[entry.id] == req.rate_pps

    def test_release_is_exact_inverse(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        req = tiny_scenario.requests[0]
        entry = _entry_for(tiny_scenario, req)
        inst = state.launch_instance(entry.cloud, tiny_scenario.vm_catalog[0])
        before = state.signature()
        state.admit(req, inst.id, entry.id, entry.link_keys)
        state.release(req.id)
        # the instance emptied and was retired; loads must vanish
        assert not state.link_load and not state.cloud_load
        assert req.id not in state.allocations
        assert inst.id not in state.instances
        assert state.signature() != before  # retirement is visible

    def test_double_admit_and_missing_release_rejected(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        req = tiny_scenario.requests[0]
        entry = _entry_for(tiny_scenario, req)
        inst = state.launch_instance(entry.cloud, tiny_scenario.vm_catalog[0])
        state.admit(req, inst.id, entry.id, entry.link_keys)
        with pytest.raises(CranplaceError):
            state.admit(req, inst.id, entry.id, entry.link_keys)
        with pytest.raises(CranplaceError):
            state.release(12345)

    def test_degraded_admission_clips_cpu_and_network(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        req = tiny_scenario.requests[0]
        entry = _entry_for(tiny_scenario, req)
        vm = tiny_scenario.vm_catalog[0]
        inst = state.launch_instance(entry.cloud, vm)
        demand = demand_of(req, tiny_scenario)
        consumed = state.consumed_for(req, inst)
        assert consumed.storage == demand.storage
        assert consumed.cpu <= demand.cpu
        assert consumed.network <= demand.network


class TestCloneAndSignature:
    def test_clone_is_independent(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        req = tiny_scenario.requests[0]
        entry = _entry_for(tiny_scenario, req)
        inst = state.launch_instance(entry.cloud, tiny_scenario.vm_catalog[0])
        state.admit(req, inst.id, entry.id, entry.link_keys)
        sig = state.signature()
        other = state.clone()
        other.release(req.id)
        other.drop(req.id)
        other.migrations += 1
        assert state.signature() == sig
        assert other.signature() != sig

    def test_signature_detects_load_changes(self, tiny_scenario):
        state = PlacementState(tiny_scenario)
        sig = state.signature()
        state.link_load[("a", "b")] = 1.0
        assert state.signature() != sig


# -- checkpoint / rollback ---------------------------------------------------

def _apply(state, lists, steps):
    """Apply each (kind, a, b) step that is valid on `state`: launch,
    admit, release, or retire an empty instance and count a migration.
    Steps with no valid target are skipped."""
    scenario = state.scenario
    clouds = sorted(state.residual_cloud)
    for kind, a, b in steps:
        if kind == 0:
            cloud = clouds[a % len(clouds)]
            vm = scenario.vm_catalog[b % len(scenario.vm_catalog)]
            if state.residual_cloud[cloud].covers(vm.capacity):
                state.launch_instance(cloud, vm)
        elif kind == 1:
            req = scenario.requests[a % len(scenario.requests)]
            entries = lists.list_for_bs(req.origin)
            entry = entries[b % len(entries)]
            hosts = state.residual_index[entry.cloud]
            if req.id in state.allocations or not hosts:
                continue
            iid = hosts[(a + b) % len(hosts)][1]
            try:
                state.admit(req, iid, entry.id, entry.link_keys)
            except CranplaceError:   # over-committed: rejected untouched
                pass
        elif kind == 2:
            if state.allocations:
                rids = sorted(state.allocations)
                state.release(rids[a % len(rids)])
        else:
            empty = sorted(i for i, inst in state.instances.items()
                           if not inst.assigned)
            if empty:
                state.retire_instance(empty[a % len(empty)])
            state.migrations += 1


def _snapshot(state):
    """Everything a rollback must restore, compared with exact float
    equality."""
    return (
        state.signature(),
        dict(state.allocations),
        dict(state.link_load),
        dict(state.cloud_load),
        dict(state.path_load),
        dict(state.residual_cloud),
        {iid: (inst.cloud, inst.residual, dict(inst.assigned))
         for iid, inst in state.instances.items()},
        {cloud: list(lst) for cloud, lst in state.residual_index.items()},
        (state.migrations, state.instances_launched, state.resources_used,
         state.cost_accrued, state.live_cost(), state._next_instance_id),
    )


def _rebuilt_index(state):
    index = {cloud: [] for cloud in state.residual_cloud}
    for inst in state.instances.values():
        index[inst.cloud].append((residual_key(inst.residual), inst.id))
    return {cloud: sorted(lst) for cloud, lst in index.items()}


_steps = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1000),
                            st.integers(0, 1000)), max_size=30)
_micro = st.integers(0, 200).map(micro_scenario)


@settings(max_examples=150, deadline=None)
@given(scenario=_micro, before=_steps, outer=_steps, inner=_steps,
       after=_steps)
def test_rollback_restores_state_exactly(scenario, before, outer, inner,
                                         after):
    lists = build_sorted_lists(scenario.topology, scenario.k_paths)
    state = PlacementState(scenario)
    _apply(state, lists, before)
    at_outer = _snapshot(state)
    outer_mark = state.checkpoint()
    _apply(state, lists, outer)
    at_inner = _snapshot(state)
    inner_mark = state.checkpoint()
    _apply(state, lists, inner)
    assert state.residual_index == _rebuilt_index(state)
    state.rollback(inner_mark)
    assert _snapshot(state) == at_inner
    assert state._journal is not None   # the outer mark is still open
    _apply(state, lists, after)
    state.rollback(outer_mark)
    assert _snapshot(state) == at_outer
    assert state.residual_index == _rebuilt_index(state)
    assert state._journal is None


@settings(max_examples=100, deadline=None)
@given(scenario=_micro, before=_steps, trial=_steps)
def test_commit_keeps_what_an_unjournaled_run_gives(scenario, before, trial):
    lists = build_sorted_lists(scenario.topology, scenario.k_paths)
    plain = PlacementState(scenario)
    _apply(plain, lists, before + trial)
    state = PlacementState(scenario)
    _apply(state, lists, before)
    mark = state.checkpoint()
    _apply(state, lists, trial)
    state.commit(mark)
    assert state._journal is None
    assert _snapshot(state) == _snapshot(plain)
    assert state.residual_index == _rebuilt_index(state)


def test_rollback_reuses_the_instance_id(tiny_scenario):
    state = PlacementState(tiny_scenario)
    vm = tiny_scenario.vm_catalog[0]
    cloud = tiny_scenario.topology.clouds()[0].id
    mark = state.checkpoint()
    first = state.launch_instance(cloud, vm)
    state.rollback(mark)
    assert not state.instances and state.instances_launched == 0
    assert state.launch_instance(cloud, vm).id == first.id


def test_rollback_needs_an_open_mark(tiny_scenario):
    state = PlacementState(tiny_scenario)
    mark = state.checkpoint()
    state.commit(mark)
    with pytest.raises(CranplaceError):
        state.rollback(mark)
