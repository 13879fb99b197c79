import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import cranplace
from cranplace import paths
from cranplace.cli import HEURISTIC_NAMES, main
from cranplace.scenario_io import (load_scenario, save_scenario,
                                   scenario_to_dict)
from cranplace.workload import make_scenario

from conftest import micro_scenario


def _digest_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "micro.yaml"
    save_scenario(micro_scenario(2), str(path))
    return str(path)


class TestGenerate:
    def test_writes_loadable_scenario(self, tmp_path, capsys):
        out = tmp_path / "gen.yaml"
        rc = main(["generate", "--bs", "8", "--clouds", "2",
                   "--requests", "20", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        scenario = load_scenario(str(out))
        assert len(scenario.requests) == 20

    @pytest.mark.parametrize("load", ["0.99999", "0.004", "0.6"])
    def test_prints_the_load_as_given(self, tmp_path, capsys, load):
        # a percentage rounded 0.99999 up to 100% and 0.004 down to 0%
        rc = main(["generate", "--bs", "8", "--clouds", "2",
                   "--requests", "5", "--load", load,
                   "--out", str(tmp_path / "gen.json")])
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith(f"at load {load}")


class TestSolveExact:
    def test_reports_objective(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "exact.yaml"
        rc = main(["solve-exact", "--scenario", scenario_file,
                   "--out", str(out)])
        assert rc == 0
        assert "objective" in capsys.readouterr().out
        assert out.exists()


class TestPlace:
    @pytest.mark.parametrize("name", sorted(HEURISTIC_NAMES))
    def test_each_heuristic_runs(self, scenario_file, tmp_path, name):
        out = tmp_path / name
        rc = main(["place", "--scenario", scenario_file,
                   "--heuristic", name, "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "summary.csv").exists()
        assert (out / "delays.csv").exists()

    @pytest.mark.parametrize("name", sorted(HEURISTIC_NAMES))
    def test_a_scenario_with_no_requests_runs(self, tmp_path, name):
        data = scenario_to_dict(micro_scenario(2))
        data["requests"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        out = tmp_path / name
        assert main(["place", "--scenario", str(path), "--heuristic", name,
                     "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[1].split(",")[1:3] == ["0", "0"]
        assert (out / "delays.csv").read_text().splitlines()[1:] == []


class TestSweepAndCompare:
    def test_sweep_prints_optimum(self, tmp_path, capsys):
        scen = tmp_path / "sweep_in.yaml"
        main(["generate", "--bs", "8", "--clouds", "2", "--requests", "30",
              "--seed", "3", "--out", str(scen)])
        capsys.readouterr()
        rc = main(["sweep", "--scenario", str(scen), "--clouds", "2..3",
                   "--load", "0.5", "--out", str(tmp_path / "sweep_out")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("optimal_clouds ")
        assert (tmp_path / "sweep_out" / "sweep.csv").exists()

    def test_compare_emits_metric_files(self, scenario_file, tmp_path,
                                        capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--scenario", scenario_file,
                   "--axis", "1,2", "--out", str(out)])
        assert rc == 0
        assert "6 metric files" in capsys.readouterr().out


class TestSimulate:
    def test_prints_summary(self, capsys):
        rc = main(["simulate", "--discipline", "md1", "--rho", "0.5",
                   "--mu", "1.0", "--packets", "5000", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_sojourn" in out and "analytic" in out


class TestExitCodes:
    def test_infeasible_exact_is_one(self, tmp_path, capsys):
        scenario = micro_scenario(2)
        scenario.cost_threshold = 1e-9
        path = tmp_path / "broke.yaml"
        save_scenario(scenario, str(path))
        rc = main(["solve-exact", "--scenario", str(path),
                   "--out", str(tmp_path / "x.yaml")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unstable_simulation_is_one(self, capsys):
        assert main(["simulate", "--discipline", "md1", "--rho", "1.0",
                     "--mu", "1.0", "--packets", "100"]) == 1
        err = capsys.readouterr().err
        assert "unstable" in err and "Traceback" not in err

    def test_bad_input_is_two(self, scenario_file, tmp_path, capsys):
        assert main(["place", "--scenario", str(tmp_path / "missing.yaml"),
                     "--heuristic", "bnb",
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["sweep", "--scenario", scenario_file,
                     "--clouds", "nonsense",
                     "--out", str(tmp_path / "o2")]) == 2
        assert main(["simulate", "--discipline", "mm1", "--rho", "0.5",
                     "--mu", "1.0", "--packets", "3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("rho, mu", [("0.5", "inf"), ("inf", "1.0")])
    def test_infinite_simulate_rate_is_two(self, rho, mu, capsys):
        assert main(["simulate", "--discipline", "md1", "--rho", rho,
                     "--mu", mu, "--packets", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_scenario_key_is_two(self, tmp_path, capsys):
        data = scenario_to_dict(micro_scenario(2))
        data["requests"][0]["holding_tme"] = 0.008
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(data))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "holding_tme" in err and "Traceback" not in err

    @pytest.mark.parametrize("limit", [2.5, "3", -1])
    def test_migration_limit_that_is_no_count_is_two(self, tmp_path, capsys,
                                                     limit):
        data = scenario_to_dict(micro_scenario(2))
        data["params"]["migration_eviction_limit"] = limit
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(data))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "migration_eviction_limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["place", "--heuristic", "bnb"], ["compare", "--axis", "1,2"]])
    @pytest.mark.parametrize("name,value", [
        ("migration_page_bytes", "x"), ("migration_link_speed_bps", [1])])
    def test_malformed_migration_setting_is_two(self, tmp_path, capsys,
                                                command, name, value):
        data = scenario_to_dict(micro_scenario(2))
        data["params"][name] = value
        path = tmp_path / "setting.json"
        path.write_text(json.dumps(data))
        rc = main([command[0], "--scenario", str(path)] + command[1:]
                  + ["--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["compare", "--axis", "1,2"],
        ["sweep", "--clouds", "2..3", "--load", "0.5"]])
    @pytest.mark.parametrize("seed", [[1], "abc", 1.5, True])
    def test_seed_that_is_no_integer_is_two(self, tmp_path, capsys, command,
                                            seed):
        scen = tmp_path / "seeded.json"
        main(["generate", "--bs", "8", "--clouds", "2", "--requests", "30",
              "--seed", "3", "--out", str(scen)])
        data = json.loads(scen.read_text())
        data["params"]["seed"] = seed
        scen.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main([command[0], "--scenario", str(scen)] + command[1:]
                  + ["--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_negative_seed_generates_and_compares(self, tmp_path):
        scen = tmp_path / "negative.json"
        assert main(["generate", "--bs", "8", "--clouds", "2",
                     "--requests", "30", "--seed", "-1",
                     "--out", str(scen)]) == 0
        assert json.loads(scen.read_text())["params"]["seed"] == -1
        assert main(["compare", "--scenario", str(scen), "--axis", "1,2",
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("name,value", [
        ("chain_gbps", "x"), ("backhaul_gbps", "x"), ("n_bs", "8"),
        ("volume_packets", "x"),
        ("cloud_capacity_total", [24000.0, 90000.0, 12000.0, 1.0]),
        ("cloud_capacity_total", [24000.0])])
    def test_malformed_generator_setting_is_two(self, tmp_path, capsys,
                                                name, value):
        scen = tmp_path / "sweep_in.json"
        main(["generate", "--bs", "8", "--clouds", "2", "--requests", "30",
              "--seed", "3", "--out", str(scen)])
        data = json.loads(scen.read_text())
        data["params"][name] = value
        scen.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(["sweep", "--scenario", str(scen), "--clouds", "2..3",
                   "--load", "0.5", "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert name in captured.err and "Traceback" not in captured.err
        assert "optimal_clouds" not in captured.out

    @pytest.mark.parametrize("k", ["1.5", "1e400", "true"])
    def test_k_paths_that_is_no_count_is_two(self, tmp_path, capsys, k):
        text = json.dumps(scenario_to_dict(micro_scenario(2)))
        assert text.count('"k_paths": 2,') == 1
        path = tmp_path / "k.json"
        path.write_text(text.replace('"k_paths": 2,', f'"k_paths": {k},'))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "k_paths" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,flag", [
        ("cost_threshold", "true"), ("resource_cap_total", "true"),
        ("degradation_fraction", "false")])
    def test_bool_for_a_number_is_two(self, tmp_path, capsys, field, flag):
        data = scenario_to_dict(micro_scenario(2))
        data[field] = flag == "true"
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(data))
        assert f'"{field}": {flag}' in path.read_text()
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["cost_threshold",
                                       "resource_cap_total"])
    def test_infinite_cap_is_two(self, tmp_path, capsys, field):
        data = scenario_to_dict(micro_scenario(2))
        data[field] = float("inf")
        path = tmp_path / "cap.yaml"
        path.write_text(yaml.safe_dump(data))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_an_int_beyond_the_float_range_is_two(self, tmp_path, capsys):
        text = json.dumps(scenario_to_dict(micro_scenario(2)))
        path = tmp_path / "huge.json"
        path.write_text(text.replace('"volume_packets": 1000.0',
                                     '"volume_packets": 1' + "0" * 400, 1))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "request 0: volume_packets" in err and "Traceback" not in err

    def test_an_int_too_long_to_read_is_two(self, tmp_path, capsys):
        data = scenario_to_dict(micro_scenario(2))
        data["cost_threshold"] = 12345.0
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data).replace("12345.0",
                                                 "1" + "0" * 5000))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: unreadable value" in err and "Traceback" not in err

    @pytest.mark.parametrize("size", [10 ** 200, 1e200],
                             ids=["int", "float"])
    def test_a_sweep_payload_past_the_float_range_is_two(self, tmp_path,
                                                         capsys, size):
        # the sweep regenerates the workload from the file's params
        data = scenario_to_dict(make_scenario(8, 2, 20, seed=1))
        for record in [data["params"], *data["requests"]]:
            record["volume_packets"] = record["packet_size_bytes"] = size
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(data))
        rc = main(["sweep", "--scenario", str(path), "--clouds", "1..2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "volume_packets" in err and "Traceback" not in err

    @pytest.mark.parametrize("rate", [0, -5.0, float("nan"), float("inf")])
    def test_bad_cloud_service_rate_is_two(self, tmp_path, capsys, rate):
        data = scenario_to_dict(micro_scenario(2))
        cloud = next(n for n in data["topology"]["nodes"]
                     if n["kind"] == "cloud")
        cloud["service_rate"] = rate
        path = tmp_path / "rate.yaml"
        path.write_text(yaml.safe_dump(data))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "service_rate" in err and "Traceback" not in err

    def test_negative_cloud_capacity_is_two(self, tmp_path, capsys):
        data = scenario_to_dict(micro_scenario(2))
        cloud = next(n for n in data["topology"]["nodes"]
                     if n["kind"] == "cloud")
        cloud["capacity"] = [-1.0, 45000.0, 6000.0]
        path = tmp_path / "capacity.json"
        path.write_text(json.dumps(data))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "capacity" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["solve-exact"], ["place", "--heuristic", "bnb"]])
    @pytest.mark.parametrize("records,what", [
        ("vm_catalog", "VM type names"), ("classes", "service class names")])
    def test_duplicate_name_is_two(self, tmp_path, capsys, command, records,
                                   what):
        data = scenario_to_dict(micro_scenario(0))
        first, second = data[records][:2]
        second["name"] = first["name"]
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(data))
        rc = main([command[0], "--scenario", str(path)] + command[1:]
                  + ["--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert what in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rid", ["x", 3.5, True])
    def test_request_id_that_is_no_integer_is_two(self, tmp_path, capsys,
                                                   rid):
        data = scenario_to_dict(micro_scenario(2))
        data["requests"][0]["id"] = rid
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(data))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert " id " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_path_enumeration_limit_is_two(self, scenario_file, tmp_path,
                                           capsys, monkeypatch):
        monkeypatch.setattr(paths, "_ENUMERATION_LIMIT", 1)
        rc = main(["place", "--scenario", scenario_file,
                   "--heuristic", "bnb", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["solve-exact"], ["place", "--heuristic", "bnb"]])
    def test_malformed_yaml_is_two(self, tmp_path, capsys, command):
        path = tmp_path / "bad.yaml"
        path.write_text("topology: [1, 2\nnodes: {\n")
        rc = main([command[0], "--scenario", str(path)] + command[1:]
                  + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "malformed YAML" in capsys.readouterr().err


class TestDeterminism:
    def test_place_reruns_byte_identical(self, scenario_file, tmp_path,
                                         capsys):
        digests = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            assert main(["place", "--scenario", scenario_file,
                         "--heuristic", "sa-short", "--seed", "7",
                         "--out", str(out)]) == 0
            digests.append(_digest_tree(str(out)))
        capsys.readouterr()
        assert digests[0] == digests[1]


def test_importing_the_cli_leaves_yaml_unloaded():
    # scenario files are JSON; yaml loads only for a file that is not, and
    # for solve-exact's output
    src = str(Path(cranplace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cranplace.cli; print('yaml' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"
