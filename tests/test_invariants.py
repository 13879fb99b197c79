"""The seven constraint checkers of `evaluate_constraints` hold after every
step of a placement run, not only on its final state, and so do the
state's launch record and the delays a main-pass admission records."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranplace import heuristics
from cranplace.exact import evaluate_constraints
from cranplace.heuristics import ALL_KINDS, HeuristicConfig, _Run
from cranplace.migration import try_migrate_for_fit
from cranplace.state import projected_delay
from cranplace.workload import make_scenario

from conftest import micro_scenario


class _CheckedRun(_Run):
    """A run that checks its state after each request's placement attempt
    and after each committed migration. An attempt that places nothing
    leaves the state as it was, and so does a migration that fails, so
    the state a drop leaves is checked too."""

    def __init__(self, scenario, config):
        super().__init__(scenario, config)
        self.checked = Counter()   # step -> states checked after it
        self.cloud_of = {}   # instance id -> cloud of its latest launch
        launch = self.state.launch_instance

        def noted(cloud, vm_type):
            inst = launch(cloud, vm_type)
            self.cloud_of[inst.id] = cloud
            return inst
        self.state.launch_instance = noted

    def check(self, request, step):
        report = evaluate_constraints(self.state, self.scenario)
        assert report.feasible, (self.config.kind, request.id, step,
                                 report.results)
        self.check_launch_record()
        self.checked[step] += 1

    def check_launch_record(self):
        """Each cloud's record is strictly ascending, holds only ids last
        launched there and every live instance there, and the records
        together hold every launch kept."""
        state = self.state
        for cloud, ids in state.launched.items():
            assert all(a < b for a, b in zip(ids, ids[1:])), (cloud, ids)
            assert all(self.cloud_of[i] == cloud for i in ids), (cloud, ids)
            live = {i for i, inst in state.instances.items()
                    if inst.cloud == cloud}
            assert live <= set(ids), (cloud, live - set(ids))
        assert sum(map(len, state.launched.values())) == \
            state.instances_launched

    def check_recorded_delays(self, alloc):
        """A main-pass admission records the delays its allocation has."""
        if alloc is not None:
            bd = self.breakdown[alloc.request_id]
            assert (bd.link_delay, bd.compute_delay) == projected_delay(
                self.state, alloc.path, 0.0)

    def _place_bnb_request(self, request):
        alloc = super()._place_bnb_request(request)
        self.check(request, "placement")
        self.check_recorded_delays(alloc)
        return alloc

    def _place_sa_request(self, request, draws):
        alloc = super()._place_sa_request(request, draws)
        self.check(request, "placement")
        self.check_recorded_delays(alloc)
        return alloc


def _checked_migrate(state, request, lists, policy):
    outcome = try_migrate_for_fit(state, request, lists, policy)
    if outcome[1]:
        policy.check(request, "migration")
    return outcome


def _run_checked(scenario, config):
    """Place `scenario` under `config`, checking every step, and return
    the run."""
    run = _CheckedRun(scenario, config)
    with mock.patch.object(heuristics, "try_migrate_for_fit",
                           _checked_migrate):
        run.run()
    assert run.checked["placement"] == len(scenario.requests)
    return run


def _saturated(seed, n_bs, n_clouds, n_requests, load, cut, cost_threshold,
               resource_cap):
    """A stream whose cloud capacity, resource cap or cost threshold
    binds, so that requests drop and migrations are tried."""
    return make_scenario(
        n_bs, n_clouds, n_requests, load_fraction=load, seed=seed,
        cost_threshold=cost_threshold, resource_cap_total=resource_cap,
        params={"cloud_capacity_total": [24000.0 * cut, 90000.0 * cut,
                                         12000.0 * cut]})


_saturated_scenarios = st.builds(
    _saturated, seed=st.integers(0, 10**6), n_bs=st.integers(8, 30),
    n_clouds=st.integers(2, 6), n_requests=st.integers(60, 120),
    load=st.floats(0.6, 0.9), cut=st.sampled_from([0.2, 0.3, 0.45]),
    cost_threshold=st.sampled_from([40.0, 120.0, 400.0, 1e4]),
    resource_cap=st.sampled_from([3000.0, 1e9]))


@settings(max_examples=40, deadline=None)
@given(scenario=st.one_of(st.builds(micro_scenario, st.integers(0, 10**6)),
                          _saturated_scenarios),
       seed=st.integers(0, 10**6),
       mode=st.sampled_from(["dynamic", "static"]))
def test_constraints_hold_after_every_step(scenario, seed, mode):
    for kind in ALL_KINDS:
        _run_checked(scenario, HeuristicConfig(kind, seed=seed, mode=mode))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_constraints_hold_after_each_committed_migration(kind):
    # every kind drops requests and relocates 11 to 24 services on this
    # stream
    scenario = _saturated(42, 30, 4, 150, 0.6, 0.2, 1e4, 1e9)
    run = _run_checked(scenario, HeuristicConfig(kind, seed=42))
    assert run.checked["migration"] > 0
