import pytest

from cranplace.errors import ScenarioError
from cranplace.experiments import (MS_PER_WORK_UNIT, SweepPoint,
                                   compare_heuristics, optimal_cloud_count,
                                   run_sweep, scenario_for_clouds, write_csv,
                                   write_sweep_csv)
from cranplace.heuristics import HeuristicConfig
from cranplace.workload import make_scenario


@pytest.fixture(scope="module")
def base_scenario():
    return make_scenario(12, 3, 60, seed=1, resource_cap_total=1e9,
                         cost_threshold=1e9)


class TestScenarioForClouds:
    def test_rebuilds_topology_keeps_workload_model(self, base_scenario):
        rebuilt = scenario_for_clouds(base_scenario, 4)
        assert len(rebuilt.topology.clouds()) == 4
        assert len(rebuilt.requests) == len(base_scenario.requests)
        # same generator seed: identical request stream
        assert rebuilt.requests == base_scenario.requests

    def test_params_that_disagree_with_the_arguments_are_not_recorded(self):
        # the arguments generate the stream, so the record must hold them
        s = make_scenario(8, 2, 30, seed=0,
                          params={"seed": 3, "load_fraction": 0.3})
        assert (s.params["seed"], s.params["load_fraction"]) == (0, 0.6)
        assert scenario_for_clouds(s, 2).requests == s.requests

    def test_load_override_changes_arrivals(self, base_scenario):
        hot = scenario_for_clouds(base_scenario, 3, load_fraction=0.9)
        assert hot.params["load_fraction"] == 0.9
        assert hot.requests[-1].arrival_time \
            < base_scenario.requests[-1].arrival_time

    def test_absent_generator_settings_take_the_defaults(self,
                                                          base_scenario):
        import dataclasses
        bare = dataclasses.replace(base_scenario, params={
            k: base_scenario.params[k]
            for k in ("n_bs", "seed", "load_fraction")})
        full = scenario_for_clouds(base_scenario, 4)
        rebuilt = scenario_for_clouds(bare, 4)
        assert rebuilt.requests == full.requests
        assert rebuilt.topology.links == full.topology.links

    def test_requires_generator_settings(self, base_scenario):
        import dataclasses
        stripped = dataclasses.replace(base_scenario, params={})
        with pytest.raises(ScenarioError):
            scenario_for_clouds(stripped, 4)


class TestRunSweep:
    def test_points_and_optimum(self, base_scenario):
        points = run_sweep(base_scenario, range(2, 5), 0.6,
                           HeuristicConfig("bnb_sorted_asc", seed=0))
        assert [p.n_clouds for p in points] == [2, 3, 4]
        for p in points:
            assert p.total_delay == pytest.approx(p.link_delay
                                                  + p.migration_delay)
            assert p.load_fraction == 0.6
            assert p.avg_hops >= 1
        best = optimal_cloud_count(points)
        assert best in (2, 3, 4)

    def test_cloud_range_validation(self, base_scenario):
        cfg = HeuristicConfig("bnb_plain")
        with pytest.raises(ScenarioError):
            run_sweep(base_scenario, [], 0.6, cfg)
        with pytest.raises(ScenarioError):
            run_sweep(base_scenario, [3, 2], 0.6, cfg)

    def test_optimal_tie_breaks_to_fewer_clouds(self):
        pts = [SweepPoint(4, 2, 1.0, 0.0, 5.0, 0.6),
               SweepPoint(5, 2, 1.0, 0.0, 5.0, 0.6),
               SweepPoint(6, 1, 2.0, 4.0, 6.0, 0.6)]
        assert optimal_cloud_count(pts) == 4
        with pytest.raises(ValueError):
            optimal_cloud_count([])


class TestCompareHeuristics:
    def test_axis_prefixes_and_csv_files(self, base_scenario, tmp_path):
        configs = [HeuristicConfig("bnb_plain", seed=0),
                   HeuristicConfig("sa_short", seed=0)]
        report = compare_heuristics(base_scenario, [0, 20, 60], configs,
                                    out_dir=str(tmp_path))
        assert report.axis == [0, 20, 60]
        assert report.results["bnb_plain"][0] is None
        assert report.results["bnb_plain"][1].satisfied \
            + report.results["bnb_plain"][1].dropped == 20
        names = sorted(p.rsplit("/", 1)[-1] for p in report.files)
        assert names == sorted(["exec_time_ms.csv", "unsatisfied.csv",
                                "migrations.csv", "total_delay.csv",
                                "resources.csv", "cost.csv"])
        text = (tmp_path / "unsatisfied.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "n_requests,bnb_plain,sa_short"
        assert lines[1].startswith("0,0,0")

    def test_exec_time_is_modeled_not_measured(self, base_scenario):
        report = compare_heuristics(base_scenario, [10],
                                    [HeuristicConfig("bnb_plain", seed=0)])
        r = report.results["bnb_plain"][0]
        assert r.work_units * MS_PER_WORK_UNIT > 0.0

    def test_axis_validation(self, base_scenario):
        cfg = [HeuristicConfig("bnb_plain")]
        with pytest.raises(ScenarioError):
            compare_heuristics(base_scenario, [], cfg)
        with pytest.raises(ScenarioError):
            compare_heuristics(base_scenario, [10, 10], cfg)
        with pytest.raises(ScenarioError):
            compare_heuristics(base_scenario, [10, 10_000], cfg)
        with pytest.raises(ScenarioError):
            compare_heuristics(base_scenario, [10],
                               [HeuristicConfig("bnb_plain"),
                                HeuristicConfig("bnb_plain")])


class TestCsvEmission:
    def test_write_csv_formats_deterministically(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [(1, 0.1), (True, 2.0)],
                  comment="note")
        assert path.read_bytes() == (b"# note\na,b\r\n"
                                     b"1,0.1\r\n1,2.0\r\n")

    def test_write_sweep_csv_round_trips_values(self, tmp_path):
        pts = [SweepPoint(2, 3, 1.5, 0.25, 1.75, 0.6)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(pts, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[1] == ("n_clouds,avg_hops,link_delay,"
                            "migration_delay,total_delay,load_fraction")
        assert lines[2] == "2,3,1.5,0.25,1.75,0.6"
