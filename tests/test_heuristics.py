import math
import random

import pytest

from cranplace.errors import ScenarioError
from cranplace.exact import evaluate_constraints
from cranplace.heuristics import (ALL_KINDS, BNB_KINDS, SA_KINDS,
                                  HeuristicConfig, fit_floor, place,
                                  place_bnb, place_sa, sa_iterations)
from cranplace.model import CapacityVector, capacity_fits
from cranplace.state import residual_key
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

    def test_dispatch_guards(self, easy_scenario):
        with pytest.raises(ScenarioError):
            place_bnb(easy_scenario, HeuristicConfig("sa_short"))
        with pytest.raises(ScenarioError):
            place_sa(easy_scenario, HeuristicConfig("bnb_plain"))


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

    def test_config_cap_overrides_scenario(self):
        scenario = make_scenario(8, 2, 400, seed=11, cost_threshold=1e9,
                                 resource_cap_total=1e9)
        res = place(scenario, HeuristicConfig("bnb_sorted_asc", seed=11,
                                              resource_cap_total=200.0))
        assert res.total_resources_used <= 200.0


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
