import hashlib
import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranplace.errors import ScenarioError
from cranplace.exact import evaluate_constraints
from cranplace import heuristics
from cranplace.heuristics import (ALL_KINDS, BNB_KINDS, BNB_SORTED_ASC,
                                  BNB_SORTED_DESC, HeuristicConfig,
                                  _Run, fit_floor, place, sa_iterations)
from cranplace.model import CapacityVector, VmType, capacity_fits
from cranplace.state import PlacementState, can_launch, residual_key
from cranplace.workload import make_scenario

from conftest import micro_scenario


@pytest.fixture(scope="module")
def easy_scenario():
    # plenty of room: nothing should ever be dropped or migrated
    return make_scenario(8, 2, 200, seed=3, resource_cap_total=1e9,
                         cost_threshold=1e9)


class TestConfig:
    def test_unknown_kind_and_mode_rejected(self):
        with pytest.raises(ScenarioError):
            HeuristicConfig("greedy")
        with pytest.raises(ScenarioError):
            HeuristicConfig("bnb_plain", mode="batch")

    # a run reads the degradation fraction and k_paths from its scenario,
    # the one place they are set

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1, math.nan,
                                          math.inf])
    def test_degradation_outside_unit_interval_rejected(self, easy_scenario,
                                                        fraction):
        with pytest.raises(ScenarioError):
            replace(easy_scenario, degradation_fraction=fraction)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_paths_below_one_rejected(self, easy_scenario, k):
        with pytest.raises(ScenarioError):
            replace(easy_scenario, k_paths=k)

    @pytest.mark.parametrize("k", [1.5, 2.0, math.inf, True, "3", None])
    def test_k_paths_that_is_no_count_rejected(self, easy_scenario, k):
        with pytest.raises(ScenarioError, match="k_paths"):
            replace(easy_scenario, k_paths=k)

    def test_boundary_overrides_accepted(self, easy_scenario):
        for fraction, k in ((0.0, 1), (0.999, 3)):
            scenario = replace(easy_scenario, degradation_fraction=fraction,
                               k_paths=k)
            run = _Run(scenario, HeuristicConfig("sa_short"))
            assert run.degradation == fraction
            per_pair = Counter((e.nodes[0], e.cloud)
                               for e in run.lists.paths_by_id.values())
            assert max(per_pair.values()) <= k


class TestSaIterations:
    def test_formulas(self):
        assert sa_iterations(2000, "short") == 10
        assert sa_iterations(8000, "short") == 20
        assert sa_iterations(2000, "long") == math.ceil(2 * math.sqrt(2000))
        assert sa_iterations(1, "short") == 1
        assert sa_iterations(1, "long") == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            sa_iterations(0, "short")
        with pytest.raises(ValueError):
            sa_iterations(100, "medium")


class TestAllKindsOnEasyLoad:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_everything_placed_and_consistent(self, easy_scenario, kind):
        res = place(easy_scenario, HeuristicConfig(kind, seed=3))
        assert res.kind == kind
        assert res.dropped == 0
        assert res.migrations == 0
        assert res.satisfied == len(easy_scenario.requests)
        assert res.first_drop_index is None
        assert evaluate_constraints(res.state, easy_scenario).feasible
        assert res.total_link_delay > 0.0
        assert res.total_compute_delay > 0.0
        assert res.total_migration_delay == 0.0
        assert res.work_units > 0
        assert res.total_delay == pytest.approx(
            res.total_link_delay + res.total_compute_delay)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_breakdown_covers_admissions(self, easy_scenario, kind):
        res = place(easy_scenario, HeuristicConfig(kind, seed=3))
        # dynamic mode releases expired services, but their delay records
        # must survive in the result
        assert len(res.breakdown) == res.satisfied

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_seeded_determinism(self, easy_scenario, kind):
        a = place(easy_scenario, HeuristicConfig(kind, seed=3))
        b = place(easy_scenario, HeuristicConfig(kind, seed=3))
        assert a.state.signature() == b.state.signature()
        assert a.work_units == b.work_units
        assert a.total_delay == b.total_delay


@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_scenario_with_no_requests_places_nothing(kind, mode):
    # SA draws as many samples as its request count asks for, so it must
    # not ask when there is none
    empty = replace(micro_scenario(0), requests=[])
    r = place(empty, HeuristicConfig(kind, mode=mode))
    assert (r.satisfied, r.dropped, r.migrations, r.work_units) \
        == (0, 0, 0, 0)
    assert not r.state.allocations and not r.breakdown


class TestPackingPolicies:
    def test_static_mode_holds_everything(self):
        scenario = micro_scenario(5)
        res = place(scenario, HeuristicConfig("bnb_plain", mode="static"))
        # static runs never release, so all requests stay allocated
        assert len(res.state.allocations) == res.satisfied

    def test_asc_packs_tighter_than_desc(self):
        scenario = make_scenario(8, 2, 400, seed=11, resource_cap_total=1e9,
                                 cost_threshold=1e9)
        asc = place(scenario, HeuristicConfig("bnb_sorted_asc", seed=11))
        desc = place(scenario, HeuristicConfig("bnb_sorted_desc", seed=11))
        # best-fit reuses instances; worst-fit spreads and launches more
        assert asc.instances_launched <= desc.instances_launched
        assert asc.total_resources_used <= desc.total_resources_used

    def test_resource_cap_respected(self):
        scenario = make_scenario(8, 2, 400, seed=11, cost_threshold=1e9,
                                 resource_cap_total=200.0)
        for kind in BNB_KINDS:
            res = place(scenario, HeuristicConfig(kind, seed=11))
            assert res.total_resources_used <= 200.0
            assert res.dropped > 0  # the cap must actually bind


class TestSaSampling:
    def test_different_seeds_may_differ_but_stay_feasible(self,
                                                          easy_scenario):
        for seed in (0, 1, 2):
            res = place(easy_scenario, HeuristicConfig("sa_short",
                                                       seed=seed))
            assert evaluate_constraints(res.state, easy_scenario).feasible

    def test_long_run_samples_more(self, easy_scenario):
        short = place(easy_scenario, HeuristicConfig("sa_short", seed=0))
        long_ = place(easy_scenario, HeuristicConfig("sa_long", seed=0))
        assert long_.work_units > short.work_units

    def test_a_candidate_that_fails_the_screen_is_passed_over(
            self, easy_scenario, monkeypatch):
        # the cloud of the best-ranked path is at its service rate, so
        # every candidate there fails the exact screen; the next-ranked
        # candidate elsewhere is committed, with no fallback pass
        run = _Run(easy_scenario, HeuristicConfig("sa_short", seed=0))
        request = easy_scenario.requests[0]
        entries = run.lists.list_for_bs(request.origin)
        full = min(entries, key=lambda e: e.current_delay).cloud
        assert any(e.cloud != full for e in entries)
        run.state.cloud_load[full] = \
            easy_scenario.topology.nodes[full].service_rate
        screened = []
        screen = run._entry_feasible

        def recording_screen(state, request, entry):
            delays = screen(state, request, entry)
            screened.append((entry, delays))
            return delays

        def no_fallback(*args):
            raise AssertionError("the sampled candidates hold a fit")

        monkeypatch.setattr(run, "_entry_feasible", recording_screen)
        monkeypatch.setattr(run, "_first_fit", no_fallback)
        alloc = run._place_sa_request(request, 64)
        *passed_over, (committed, delays) = screened
        assert passed_over and all(e.cloud == full and d is None
                                   for e, d in passed_over)
        assert delays is not None and committed.cloud != full
        assert alloc.path is committed
        ranks = [e.current_delay for e, _ in screened]
        assert ranks == sorted(ranks)



def test_fit_floor_is_below_every_fitting_residual():
    # the tightest residuals that still fit: without the margin, rounding
    # puts the bound above a few percent of them
    rng = random.Random(5)
    for _ in range(20000):
        cpu, storage, network = (rng.choice((0.0, rng.uniform(1e-3, 1e3)))
                                 for _ in range(3))
        degradation = rng.choice((0.2, rng.uniform(0.0, 0.99)))
        demand = CapacityVector(cpu, storage, network)
        keep = 1.0 - degradation
        residual = CapacityVector(keep * cpu, storage, keep * network)
        assert capacity_fits(demand, residual, degradation)
        assert residual_key(residual) >= fit_floor(demand, degradation)


@pytest.mark.parametrize("kind", [BNB_SORTED_ASC, BNB_SORTED_DESC])
def test_sorted_scans_pick_a_tight_fit_whose_key_rounds_low(kind):
    # the residual fits exactly, but its summed key rounds below the
    # summed degraded demand, so a scan bounded by that sum skips it
    scenario = micro_scenario(7)
    demand = CapacityVector(7.6, 42.5, 38.4)
    keep = 1.0 - scenario.degradation_fraction
    tight = CapacityVector(keep * demand.cpu, demand.storage,
                           keep * demand.network)
    need = keep * (demand.cpu + demand.network) + demand.storage
    assert capacity_fits(demand, tight, scenario.degradation_fraction)
    assert residual_key(tight) < need
    run = _Run(scenario, HeuristicConfig(kind))
    cloud = scenario.topology.clouds()[0].id
    inst = run.state.launch_instance(cloud, VmType("tight", tight, 1.0))
    assert run._pick_instance(cloud, demand) is inst


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64),
       ns=st.lists(st.integers(1, 4096), min_size=1, max_size=60))
def test_inlined_sampler_replays_randrange(seed, ns):
    # the SA draw loop inlines Random.randrange(n) as this rejection loop;
    # a CPython that draws differently fails here, not in a placement
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    got = []
    for n in ns:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        got.append(r)
    want = random.Random(seed)
    assert got == [want.randrange(n) for n in ns]
    assert rng.getstate() == want.getstate()


# Criterion 5's scenario at 1000 requests: nothing drops or migrates, so
# every request takes the per-request path. Per kind: work_units,
# instances_launched, the link and compute delay totals as repr, and a
# digest of the (request, instance, path) admissions in order, as the
# QueueLoad-based delay screen and Random.randrange produced them.
LIGHT_OUTPUTS = {
    "bnb_plain": (81137, 390, "0.00014672922277142797",
                  "6.0670967548752184e-05", "876673855384ccf6"),
    "bnb_sorted_asc": (54253, 336, "0.00014672922277142797",
                       "6.0670967548752184e-05", "81223d3e29b808a0"),
    "bnb_sorted_desc": (52619, 479, "0.00014672922277142797",
                        "6.0670967548752184e-05", "edfa0bd2b9028d88"),
    "sa_short": (15816, 495, "0.00016020875440512792",
                 "5.9909205443608684e-05", "35b874bc11ed05a9"),
    "sa_long": (68982, 436, "0.00015536508806181956",
                "6.012526637374083e-05", "ce905d1fbb0c5638"),
}


@pytest.fixture(scope="module")
def light_scenario():
    return make_scenario(50, 5, 1000, seed=7, load_fraction=0.3,
                         resource_cap_total=1e9, cost_threshold=1e9,
                         params={"cloud_capacity_total": [1e6, 1e7, 1e6],
                                 "holding_time": 0.002,
                                 "volume_packets": 250.0})


@pytest.mark.parametrize("kind", sorted(LIGHT_OUTPUTS))
def test_light_stream_outputs_are_pinned(light_scenario, kind, monkeypatch):
    admitted = []
    admit = PlacementState.admit

    def recording_admit(state, request, instance_id, path):
        admitted.append((request.id, instance_id, path.id))
        return admit(state, request, instance_id, path)

    monkeypatch.setattr(PlacementState, "admit", recording_admit)
    r = place(light_scenario, HeuristicConfig(kind, seed=7))
    assert (r.dropped, r.migrations, len(admitted)) == (0, 0, 1000)
    digest = hashlib.sha256(repr(admitted).encode()).hexdigest()[:16]
    assert (r.work_units, r.instances_launched, repr(r.total_link_delay),
            repr(r.total_compute_delay), digest) == LIGHT_OUTPUTS[kind]


def _catalog_scan(run, state, cloud, demand):
    """The cheapest VM type of the run's catalog that `demand` fits on and
    `cloud` can launch now, tested type by type."""
    for vm in run.catalog:
        if capacity_fits(demand, vm.capacity, run.degradation) \
                and can_launch(state, cloud, vm):
            return vm
    return None


def _reference_trial_admitter(run, state, request, exclude_clouds):
    """`_Run.admit` as it was before it found each cloud's room
    once per call and refused a launch on the least fitting type: every
    non-excluded entry is screened, then its cloud's instances and the
    whole VM catalog are scanned."""
    demand = state.demand(request)
    floor = fit_floor(demand, run.degradation)
    for entry in run.lists.list_for_bs(request.origin):
        if entry.cloud in exclude_clouds:
            continue
        if run._entry_feasible(state, request, entry) is None:
            continue
        lst = state.residual_index[entry.cloud]
        for j in range(bisect_left(lst, (floor, -1)), len(lst)):
            iid = lst[j][1]
            if capacity_fits(demand, state.instances[iid].residual,
                             run.degradation):
                return state.admit(request, iid, entry)
        vm = _catalog_scan(run, state, entry.cloud, demand)
        if vm is not None:
            inst = state.launch_instance(entry.cloud, vm)
            return state.admit(request, inst.id, entry)
    return None


#: dearer types are leaner: fewer resource units, and the dearest holds
#: more storage than the middle one, so a binding cap or cloud residual can
#: leave only a dear type launchable
LEAN_CATALOG = [
    VmType("wide", CapacityVector(64.0, 488.0, 20.0), 1.0),
    VmType("mid", CapacityVector(16.0, 244.0, 10.0), 2.0),
    VmType("lean", CapacityVector(8.0, 300.0, 5.0), 4.0),
]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n_bs=st.integers(2, 8),
       n_clouds=st.integers(1, 3), n_requests=st.integers(5, 40),
       load=st.floats(0.2, 0.9),
       storage=st.sampled_from([400.0, 1000.0, 3000.0, 10000.0]),
       volume=st.sampled_from([250.0, 1000.0, 4000.0]),
       cost_threshold=st.sampled_from([5.0, 20.0, 1e4]),
       resource_cap=st.sampled_from([40.0, 200.0, 5e4]),
       lean=st.booleans())
def test_trial_admitter_matches_the_screen_every_entry_loop(
        seed, n_bs, n_clouds, n_requests, load, storage, volume,
        cost_threshold, resource_cap, lean):
    # small clouds, caps and budgets: about three admissions in four find
    # no room, and the rest launch or reuse an instance; with the lean
    # catalog the cap and the cloud residual often leave only the dearer
    # types launchable
    scenario = make_scenario(
        n_bs, n_clouds, n_requests, load_fraction=load, seed=seed,
        cost_threshold=cost_threshold, resource_cap_total=resource_cap,
        params={"cloud_capacity_total": [200.0, storage, 100.0],
                "volume_packets": volume})
    if lean:
        scenario = replace(scenario, vm_catalog=list(LEAN_CATALOG))
    run = _Run(scenario, HeuristicConfig(BNB_SORTED_ASC, seed=seed))
    clouds = [c.id for c in scenario.topology.clouds()]
    rng = random.Random(seed)
    state = run.state
    for request in scenario.requests:
        exclude = {c for c in clouds if rng.random() < 0.3}
        reference = state.clone()
        work = run.work
        want = _reference_trial_admitter(run, reference, request, exclude)
        want_work, work = run.work - work, run.work
        before = state.signature()
        got = run.admit(state, request, exclude)
        assert run.work - work == want_work
        if want is None:
            assert got is None
            assert state.signature() == before
        else:
            assert (got.instance_id, got.path_id, got.cloud) == (
                want.instance_id, want.path_id, want.cloud)
            assert state.signature() == reference.signature()
        if state.allocations and rng.random() < 0.3:
            state.release(rng.choice(sorted(state.allocations)))


@pytest.mark.parametrize("block,lean,want,calls", [
    ("residual", True, None, 3), ("cap", True, None, 3),
    ("cost", True, None, 3), ("cost", False, None, 1),
    ("cap", True, "lean", 3), ("residual", True, "lean", 3)])
def test_trial_launch_test_matches_the_catalog_scan(monkeypatch, block,
                                                    lean, want, calls):
    # A request at a cloud with no instance. With the lean catalog it fits
    # every type, and either the cloud residual, the resource cap or the
    # cost threshold blocks every type, or they block all but the dearest;
    # the cheapest type is not the least, so the room test asks each type.
    # In the shipped catalog each dearer type is at least as large in
    # every component, so the cheapest type it fits on is their least and
    # its one `can_launch` refuses.
    tight = want is None
    # resource units: wide 84, mid 26, lean 13
    cap = {"cap": 10.0 if tight else 20.0}.get(block, 5e4)
    cost = 0.5 if block == "cost" else 1e4
    base = micro_scenario(7)
    catalog = LEAN_CATALOG if lean else base.vm_catalog
    scenario = replace(base, vm_catalog=list(catalog),
                       cost_threshold=cost, resource_cap_total=cap)
    run = _Run(scenario, HeuristicConfig(BNB_SORTED_ASC))
    cloud = scenario.topology.clouds()[0].id
    state = run.state
    if block == "residual":
        # less storage than any type holds, or too few vCPUs for all but
        # the lean type's 8
        state.residual_cloud[cloud] = (CapacityVector(1e3, 200.0, 1e3)
                                       if tight else
                                       CapacityVector(10.0, 1e3, 1e3))
    request = scenario.requests[0]
    demand = state.demand(request)
    assert all(capacity_fits(demand, vm.capacity, run.degradation)
               for vm in LEAN_CATALOG)
    log = []

    def counted(state, cloud, vm):
        log.append(vm)
        return can_launch(state, cloud, vm)

    monkeypatch.setattr(heuristics, "can_launch", counted)
    got = run.room(state, request, cloud)
    assert got == _catalog_scan(run, state, cloud, demand)
    assert len(log) == calls
    assert (got is None) if tight else (got.name == want)


@pytest.mark.parametrize("cut,fits", [(0.9, True), (0.7, False)])
def test_room_scan_degrades_cpu_and_network(cut, fits):
    # an instance that holds the request's storage but only `cut` of its
    # cpu and network: at degradation 0.2 it takes the request at 0.9 and
    # not at 0.7, as `capacity_fits` says
    scenario = micro_scenario(7)
    run = _Run(scenario, HeuristicConfig(BNB_SORTED_ASC))
    state = run.state
    cloud = scenario.topology.clouds()[0].id
    request = scenario.requests[0]
    demand = state.demand(request)
    tight = VmType("tight", CapacityVector(cut * demand.cpu, demand.storage,
                                           cut * demand.network), 1.0)
    inst = state.launch_instance(cloud, tight)
    assert capacity_fits(demand, inst.residual, run.degradation) is fits
    where = run.room(state, request, cloud)
    assert (where == inst.id) is fits
