import math

import pytest

from cranplace.defaults import DEFAULT_PARAMS
from cranplace.errors import ScenarioError
from cranplace.model import (DEFAULT_CLASS_NAMES, DEFAULT_VM_CATALOG,
                             CapacityVector)
from cranplace.workload import (generate_workload, link_params_from,
                                make_scenario)


class TestGenerateWorkload:
    def test_count_ids_and_ordering(self):
        reqs = generate_workload(10, 500, seed=1)
        assert len(reqs) == 500
        assert [r.id for r in reqs] == list(range(500))
        times = [r.arrival_time for r in reqs]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_seed_determinism(self):
        a = generate_workload(10, 200, seed=4)
        b = generate_workload(10, 200, seed=4)
        c = generate_workload(10, 200, seed=5)
        assert a == b
        assert a != c

    def test_origins_and_classes_valid(self):
        reqs = generate_workload(6, 300, seed=2)
        for r in reqs:
            assert r.origin.startswith("bs")
            assert 0 <= int(r.origin[2:]) < 6
            assert r.class_name in DEFAULT_CLASS_NAMES

    def test_load_targeting(self):
        # offered traffic per aggregation link should track the target
        n_bs, load = 16, 0.6
        reqs = generate_workload(n_bs, 20_000, seed=0, load_fraction=load)
        span = reqs[-1].arrival_time
        n_agg = math.ceil(n_bs / 4)
        bits = sum(r.volume_packets * r.packet_size_bytes * 8.0
                   for r in reqs)
        offered_gbps = bits / span / 1e9 / n_agg
        assert offered_gbps == pytest.approx(load * 40.0, rel=0.05)

    def test_classes_are_drawn_uniformly(self):
        reqs = generate_workload(4, 20_000, seed=0)
        for name in DEFAULT_CLASS_NAMES:
            share = sum(r.class_name == name for r in reqs) / len(reqs)
            assert share == pytest.approx(1 / len(DEFAULT_CLASS_NAMES),
                                          rel=0.05)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            generate_workload(0, 10)
        with pytest.raises(ScenarioError):
            generate_workload(4, 0)
        with pytest.raises(ScenarioError):
            generate_workload(4, 10, load_fraction=1.0)

    @pytest.mark.parametrize("size", [10 ** 200, 1e200],
                             ids=["int", "float"])
    def test_a_payload_past_the_float_range_is_named(self, size):
        # each factor is in range; the int product cannot become a float,
        # and the float product is inf, which leaves no arrival rate
        with pytest.raises(ScenarioError, match="volume_packets"):
            generate_workload(8, 10, volume_packets=size,
                              packet_size_bytes=size)


class TestLinkParamsFrom:
    def test_defaults_fill_in(self):
        lp = link_params_from({})
        assert lp.backhaul_gbps == 40.0
        assert lp.packet_size_bytes == 500.0

    def test_capacity_sequence_coerced(self):
        lp = link_params_from({"cloud_capacity_total": [1.0, 2.0, 3.0]})
        assert lp.cloud_capacity_total == CapacityVector(1.0, 2.0, 3.0)


class TestMakeScenario:
    def test_stock_pieces_and_params_record(self):
        sc = make_scenario(8, 2, 50, seed=9, load_fraction=0.5)
        assert sc.vm_catalog == list(DEFAULT_VM_CATALOG)
        assert len(sc.requests) == 50
        assert sc.params["n_bs"] == 8
        assert sc.params["seed"] == 9
        assert sc.params["load_fraction"] == 0.5
        # stock migration knobs ride along for later consumers
        for key in DEFAULT_PARAMS:
            assert key in sc.params

    def test_param_overrides_merge(self):
        sc = make_scenario(8, 2, 50, params={"holding_time": 0.5,
                                             "custom_flag": 7})
        assert sc.params["holding_time"] == 0.5
        assert sc.params["custom_flag"] == 7
        assert all(r.holding_time == 0.5 for r in sc.requests)

    def test_topology_matches_requested_shape(self):
        sc = make_scenario(12, 3, 10)
        assert len(sc.topology.clouds()) == 3
        assert len(sc.topology.base_stations()) == 12

    def test_determinism(self):
        a = make_scenario(8, 2, 50, seed=1)
        b = make_scenario(8, 2, 50, seed=1)
        assert a.requests == b.requests
        assert sorted(a.topology.links) == sorted(b.topology.links)
