import json
import math
import os
import sys
import tempfile
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cranplace.cli import main
from cranplace.errors import ScenarioError
from cranplace.model import (CapacityVector, Link, Node, Scenario,
                             ServiceClass, ServiceRequest, Topology, VmType,
                             with_requests)
from cranplace.scenario_io import (load_scenario, save_scenario,
                                   scenario_from_dict, scenario_to_dict)
from cranplace.workload import make_scenario

from conftest import micro_scenario


def _assert_scenarios_equal(a, b):
    assert sorted(a.topology.nodes) == sorted(b.topology.nodes)
    for key in a.topology.nodes:
        assert a.topology.nodes[key] == b.topology.nodes[key]
    assert sorted(a.topology.links) == sorted(b.topology.links)
    for key in a.topology.links:
        assert a.topology.links[key] == b.topology.links[key]
    assert a.vm_catalog == b.vm_catalog
    assert a.classes == b.classes
    assert a.requests == b.requests
    assert a.cost_threshold == b.cost_threshold
    assert a.degradation_fraction == b.degradation_fraction
    assert a.k_paths == b.k_paths
    assert a.resource_cap_total == b.resource_cap_total
    assert a.params == b.params


class TestRoundTrip:
    def test_dict_round_trip(self, tiny_scenario):
        again = scenario_from_dict(scenario_to_dict(tiny_scenario))
        _assert_scenarios_equal(tiny_scenario, again)

    def test_file_round_trip(self, tmp_path):
        scenario = micro_scenario(2)
        path = tmp_path / "scenario.yaml"
        save_scenario(scenario, str(path))
        again = load_scenario(str(path))
        _assert_scenarios_equal(scenario, again)

    def test_generated_scenario_round_trip(self, tmp_path):
        scenario = make_scenario(8, 2, 30, seed=5)
        path = tmp_path / "gen.yaml"
        save_scenario(scenario, str(path))
        _assert_scenarios_equal(scenario, load_scenario(str(path)))

    def test_capacity_vectors_in_params_survive(self, tmp_path):
        scenario = micro_scenario(2)
        scenario.params["cloud_capacity_total"] = \
            CapacityVector(1.0, 2.0, 3.0)
        path = tmp_path / "cap.yaml"
        save_scenario(scenario, str(path))
        again = load_scenario(str(path))
        assert again.params["cloud_capacity_total"] == [1.0, 2.0, 3.0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_micro_scenarios_survive_a_file_round_trip(self, seed):
        scenario = micro_scenario(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.yaml")
            save_scenario(scenario, path)
            _assert_scenarios_equal(scenario, load_scenario(path))

    def test_legacy_traffic_key_still_loads(self, tmp_path):
        # older files carry a `traffic: 0.0` on every node
        scenario = micro_scenario(2)
        data = scenario_to_dict(scenario)
        assert all("traffic" not in n for n in data["topology"]["nodes"])
        for n in data["topology"]["nodes"]:
            n["traffic"] = 0.0
        path = tmp_path / "legacy.yaml"
        path.write_text(yaml.safe_dump(data))
        _assert_scenarios_equal(scenario, load_scenario(str(path)))

    @pytest.mark.parametrize("fmt", ["json", "yaml"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_legacy_ignore_load_key_is_ignored(self, tmp_path, fmt, flag):
        # older files carry an `ignore_load` on every link, true on a base
        # station's access link; no path holds such a link
        for scenario in (micro_scenario(2), make_scenario(8, 2, 30, seed=5)):
            data = scenario_to_dict(scenario)
            assert all("ignore_load" not in l
                       for l in data["topology"]["links"])
            for l in data["topology"]["links"]:
                l["ignore_load"] = flag
            path = tmp_path / f"legacy.{fmt}"
            path.write_text(json.dumps(data) if fmt == "json"
                            else yaml.safe_dump(data))
            _assert_scenarios_equal(scenario, load_scenario(str(path)))

    def test_omitted_keys_take_the_field_defaults(self, tiny_scenario):
        data = scenario_to_dict(tiny_scenario)
        for key in ("degradation_fraction", "k_paths", "resource_cap_total",
                    "params"):
            del data[key]
        for n in data["topology"]["nodes"]:
            del n["capacity"]
            if n["kind"] != "cloud":   # a cloud has no default rate
                del n["service_rate"]
        for r in data["requests"]:
            del r["arrival_time"], r["holding_time"]
        got = scenario_from_dict(data)
        want = Scenario(
            Topology([Node(n.id, n.kind, service_rate=n.service_rate)
                      for n in tiny_scenario.topology.nodes.values()],
                     [Link(l.src, l.dst, l.service_rate_mu, l.capacity_bw)
                      for l in tiny_scenario.topology.links.values()]),
            tiny_scenario.vm_catalog, tiny_scenario.classes,
            [ServiceRequest(r.id, r.origin, r.class_name, r.volume_packets,
                            r.packet_size_bytes)
             for r in tiny_scenario.requests],
            tiny_scenario.cost_threshold)
        _assert_scenarios_equal(want, got)

    def test_save_is_byte_deterministic(self, tmp_path):
        scenario = micro_scenario(2)
        p1, p2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_scenario(scenario, str(p1))
        save_scenario(scenario, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


_finite_times = st.floats(min_value=0.0, max_value=1e6,
                          allow_subnormal=True)


@st.composite
def _scenarios(draw):
    """Generated and micro scenarios, with arbitrary finite arrival times
    and an extra float in params, so exponent and subnormal values occur."""
    if draw(st.booleans()):
        scenario = micro_scenario(draw(st.integers(0, 10_000)))
    else:
        scenario = make_scenario(draw(st.integers(4, 12)),
                                 draw(st.integers(1, 4)),
                                 draw(st.integers(1, 30)),
                                 load_fraction=draw(st.floats(0.05, 0.9)),
                                 seed=draw(st.integers(0, 10_000)))
    requests = [replace(r, arrival_time=draw(_finite_times))
                for r in scenario.requests]
    scenario = with_requests(scenario, requests)
    scenario.params["extra"] = draw(st.floats(allow_nan=False,
                                              allow_infinity=False))
    return scenario


def _numbers(nonnegative=False):
    """Finite numbers above zero, or at least zero when `nonnegative`,
    each an int, a float or a `numpy.float64`."""
    floats = st.floats(0.0, 1e300, exclude_min=not nonnegative)
    return st.one_of(st.integers(0 if nonnegative else 1, 2**64), floats,
                     floats.map(np.float64))


@st.composite
def _built_scenarios(draw):
    """Scenarios whose records are built in code, so that an int stands
    where the stock records hold a float, and a `numpy.float64` too."""
    positive, nonnegative = _numbers(), _numbers(nonnegative=True)
    vector = lambda part: CapacityVector(*draw(st.tuples(part, part, part)))
    bs = [f"bs{i}" for i in range(draw(st.integers(1, 3)))]
    clouds = [f"cloud{i}" for i in range(draw(st.integers(1, 2)))]
    nodes = [Node(n, "base_station") for n in bs] + [Node("r0", "router")]
    nodes += [Node(n, "cloud", vector(nonnegative), draw(positive))
              for n in clouds]
    links = [Link(a, b, draw(positive), draw(positive))
             for a, b in [(n, "r0") for n in bs] + [("r0", n) for n in clouds]]
    vms = [VmType(f"vm{i}", vector(positive), draw(positive))
           for i in range(draw(st.integers(1, 2)))]
    classes = [ServiceClass(f"class{i}", vector(nonnegative), draw(positive))
               for i in range(draw(st.integers(1, 2)))]
    packet_size = draw(positive)
    requests = [ServiceRequest(i, draw(st.sampled_from(bs)),
                               draw(st.sampled_from(classes)).name,
                               draw(positive), packet_size,
                               draw(nonnegative), draw(positive))
                for i in range(draw(st.integers(0, 4)))]
    params = {"packet_size_bytes": packet_size,
              "seed": draw(st.integers(-2**64, 2**64)),
              "migration_overhead_s": draw(nonnegative),
              "migration_link_speed_bps": draw(positive),
              "migration_eviction_limit": draw(st.integers(0, 10)),
              "extra": [draw(nonnegative), -draw(positive)]}
    return Scenario(Topology(nodes, links), vms, classes, requests,
                    cost_threshold=draw(positive),
                    degradation_fraction=draw(st.one_of(
                        st.just(0), st.floats(0.0, 1.0, exclude_max=True))),
                    k_paths=draw(st.integers(1, 5)),
                    resource_cap_total=draw(nonnegative), params=params)


class TestFileFormat:
    @settings(max_examples=60, deadline=None)
    @given(scenario=_scenarios())
    def test_save_then_load_gives_the_same_dict(self, scenario):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            save_scenario(scenario, path)
            again = load_scenario(path)
        assert scenario_to_dict(again) == scenario_to_dict(scenario)

    @settings(max_examples=60, deadline=None)
    @given(scenario=_built_scenarios())
    def test_any_scenario_that_builds_can_be_saved(self, scenario):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            save_scenario(scenario, path)
            again = load_scenario(path)
        assert scenario_to_dict(again) == scenario_to_dict(scenario)

    @pytest.mark.parametrize("value", [{1, 2}, np.int64(3)], ids=repr)
    def test_a_param_json_cannot_hold_is_not_written(self, tmp_path, value):
        scenario = micro_scenario(2)
        scenario.params["extra"] = value
        path = tmp_path / "odd.json"
        with pytest.raises(ScenarioError, match="odd.json"):
            save_scenario(scenario, str(path))

    def test_file_is_json_with_one_line_per_record(self, tmp_path):
        scenario = make_scenario(8, 2, 30, seed=5)
        path = tmp_path / "gen.yaml"
        save_scenario(scenario, str(path))
        text = path.read_text()
        data = scenario_to_dict(scenario)
        assert json.loads(text) == data
        lines = text.splitlines()
        records = (data["topology"]["nodes"] + data["topology"]["links"]
                   + data["vm_catalog"] + data["classes"] + data["requests"])
        for record in records:
            assert json.dumps(record) + "," in lines \
                or json.dumps(record) in lines
        for key in ("cost_threshold", "k_paths", "params"):
            assert any(line.startswith(f'"{key}": ') for line in lines)

    def test_records_hold_their_class_fields_in_order(self):
        data = scenario_to_dict(make_scenario(8, 2, 30, seed=5))
        names = lambda cls: [f.name for f in fields(cls)]
        assert list(data) == names(Scenario)
        for cls, records in ((Node, data["topology"]["nodes"]),
                             (Link, data["topology"]["links"]),
                             (VmType, data["vm_catalog"]),
                             (ServiceClass, data["classes"]),
                             (ServiceRequest, data["requests"])):
            assert records
            for record in records:
                assert list(record) == names(cls)

    @pytest.mark.parametrize("style", ["flow_leaves", "block"])
    def test_older_yaml_files_load_the_same(self, tmp_path, style):
        # the former writer (flow style for leaves), and block-style files
        # such as yaml.safe_dump writes
        for scenario in (micro_scenario(3), make_scenario(8, 2, 30, seed=5)):
            data = scenario_to_dict(scenario)
            if style == "flow_leaves":
                text = yaml.dump(data, Dumper=yaml.CSafeDumper,
                                 sort_keys=False, default_flow_style=None)
            else:
                text = yaml.safe_dump(data)
            path = tmp_path / "old.yaml"
            path.write_text(text)
            assert scenario_to_dict(load_scenario(str(path))) == data

    def test_exponent_floats_round_trip(self, tmp_path):
        scenario = micro_scenario(2)
        scenario.params["migration_overhead_s"] = 1e-05
        scenario = with_requests(scenario, [
            replace(r, arrival_time=r.id * 3e-07)
            for r in scenario.requests])
        path = tmp_path / "exp.yaml"
        save_scenario(scenario, str(path))
        assert '"migration_overhead_s": 1e-05' in path.read_text()
        again = load_scenario(str(path))
        assert again.params["migration_overhead_s"] == 1e-05
        assert [r.arrival_time for r in again.requests] == \
            [r.arrival_time for r in scenario.requests]

    def test_non_finite_value_is_not_written(self, tmp_path):
        scenario = micro_scenario(2)
        scenario.params["migration_overhead_s"] = float("nan")
        with pytest.raises(ScenarioError, match="non-finite"):
            save_scenario(scenario, str(tmp_path / "nan.yaml"))


def _with_leaf(data: dict, where, value) -> dict:
    """`data` with the leaf at `where`, a path of keys and indices, set
    to `value`."""
    *parents, last = where
    holder = data
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return data


def _rebuilt_with(scenario, where, value):
    """The record that holds the number at `where`, a path into
    `scenario_to_dict(scenario)`, rebuilt by `replace` with `value` in
    its place."""
    if where[0] == "params":
        return replace(scenario, params={**scenario.params, where[1]: value})
    if len(where) == 1:
        return replace(scenario, **{where[0]: value})
    topo = scenario.topology
    records = {"nodes": [topo.nodes[k] for k in sorted(topo.nodes)],
               "links": [topo.links[k] for k in sorted(topo.links)],
               "vm_catalog": scenario.vm_catalog,
               "classes": scenario.classes, "requests": scenario.requests}
    section, index, name, *item = where[where[0] == "topology":]
    record = records[section][index]
    if item:
        vector = getattr(record, name)
        value = vector._replace(**{vector._fields[item[0]]: value})
    return replace(record, **{name: value})


def _number_leaves(data, where=()):
    """The path of each number in a scenario dict."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _number_leaves(value, where + (key,))
        elif isinstance(value, (int, float)):
            yield where + (key,)


#: number fields that must be above zero wherever they occur
_POSITIVE = {"cost_threshold", "k_paths", "hourly_cost", "service_rate_mu",
             "capacity_bw", "sla_delay_bound", "volume_packets",
             "packet_size_bytes", "holding_time"}


def _must_be_positive(data: dict, where) -> bool:
    """Whether the number at `where` must be above zero, not just at
    least zero: a VM type's capacity and a cloud's service rate must too."""
    name = next(k for k in reversed(where) if isinstance(k, str))
    if name in _POSITIVE or where[0] == "vm_catalog":
        return True
    if name == "service_rate":
        return data["topology"]["nodes"][where[2]]["kind"] == "cloud"
    return False


class TestMalformedInput:
    def test_missing_sections_rejected(self, tiny_scenario):
        data = scenario_to_dict(tiny_scenario)
        del data["vm_catalog"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "junk.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    @pytest.mark.parametrize("where", ["requests", "nodes", "top"])
    def test_unknown_key_is_rejected(self, tmp_path, where):
        data = scenario_to_dict(micro_scenario(2))
        entry = {"requests": data["requests"][0],
                 "nodes": data["topology"]["nodes"][0], "top": data}[where]
        entry["holding_tme"] = 0.008
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioError, match="holding_tme"):
            load_scenario(str(path))

    # where a JSON number goes, as a path into the scenario dict
    NUMBER_FIELDS = [
        ("cost_threshold",), ("resource_cap_total",),
        ("degradation_fraction",),
        ("vm_catalog", 0, "hourly_cost"), ("vm_catalog", 0, "capacity", 1),
        ("topology", "links", 0, "service_rate_mu"),
        ("topology", "nodes", 0, "service_rate"),
        ("topology", "nodes", 0, "capacity", 0),
        ("classes", 0, "sla_delay_bound"),
        ("classes", 0, "demand_per_10gbps", 2),
        ("requests", 0, "id"), ("requests", 0, "volume_packets"),
        ("requests", 0, "arrival_time"),
        ("params", "packet_size_bytes")]

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("where", NUMBER_FIELDS,
                             ids=lambda w: ".".join(map(str, w)))
    def test_bool_for_a_number_is_rejected(self, where, flag):
        scenario = micro_scenario(2)
        data = _with_leaf(scenario_to_dict(scenario), where, flag)
        name = next(k for k in reversed(where) if isinstance(k, str))
        with pytest.raises(ScenarioError, match=name):
            scenario_from_dict(json.loads(json.dumps(data)))
        # the record itself rejects it, built without a file
        with pytest.raises(ScenarioError, match=name):
            _rebuilt_with(scenario, where, flag)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_bad_number_anywhere_is_rejected_by_name(self, data):
        scenario = micro_scenario(data.draw(st.integers(0, 1000)))
        as_dict = scenario_to_dict(scenario)
        where = data.draw(st.sampled_from(list(_number_leaves(as_dict))))
        name = next(k for k in reversed(where) if isinstance(k, str))
        bad = [True, False, math.nan, math.inf]
        if name != "id":   # a request id is any integer
            bad.append(data.draw(st.floats(-1e6, -1e-6)))
        # in params None is no limit, and generator settings are checked
        # when a sweep runs
        if where[0] != "params":
            bad += ["abc", None]
        if _must_be_positive(as_dict, where):
            bad.append(0)
        value = data.draw(st.sampled_from(bad))
        with pytest.raises(ScenarioError, match=name):
            scenario_from_dict(_with_leaf(as_dict, where, value))
        # numbers that no file can hold, too
        value = data.draw(st.sampled_from(bad + self.OTHER_NUMBERS))
        with pytest.raises(ScenarioError, match=name):
            _rebuilt_with(scenario, where, value)

    #: numbers of other types than int and float
    OTHER_NUMBERS = [Decimal("1"), Fraction(1, 2), np.int64(1),
                     np.float32(1)]

    @pytest.mark.parametrize("value", OTHER_NUMBERS, ids=repr)
    def test_a_number_of_another_type_is_rejected_everywhere(self, value):
        # arithmetic on a Decimal fails mid-run, and none of them can be
        # saved
        scenario = micro_scenario(2)
        scenario = replace(scenario, params={**scenario.params,
                                             "extra": [1.0, -2]})
        for where in _number_leaves(scenario_to_dict(scenario)):
            name = next(k for k in reversed(where) if isinstance(k, str))
            with pytest.raises(ScenarioError, match=name):
                _rebuilt_with(scenario, where, value)

    @pytest.mark.parametrize(
        "where", [w for w in NUMBER_FIELDS if w[-1] != "id"],
        ids=lambda w: ".".join(map(str, w)))
    def test_an_int_beyond_the_float_range_is_rejected_by_name(
            self, tmp_path, where):
        # it would build, then fail converting to a float mid-run
        scenario = micro_scenario(2)
        data = _with_leaf(scenario_to_dict(scenario), where, 10 ** 400)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert "1" + "0" * 400 in path.read_text()
        name = next(k for k in reversed(where) if isinstance(k, str))
        with pytest.raises(ScenarioError, match=name):
            load_scenario(str(path))
        # past Python's 4300-digit int-to-str limit too, where the message
        # gives the int's size
        with pytest.raises(ScenarioError,
                           match=f"{name}.*integer of 16610 bits"):
            _rebuilt_with(scenario, where, 10 ** 5000)

    @pytest.mark.parametrize("suffix, dump", [
        (".json", json.dumps), (".yaml", yaml.safe_dump)])
    def test_an_int_too_long_to_read_names_the_file(self, tmp_path, suffix,
                                                      dump):
        # Python reads no int of more than 4300 digits from text
        data = scenario_to_dict(micro_scenario(2))
        data["cost_threshold"] = 12345.0
        path = tmp_path / ("long" + suffix)
        path.write_text(dump(data).replace("12345.0", "1" + "0" * 5000))
        assert "0" * 5000 in path.read_text()
        with pytest.raises(ScenarioError,
                           match=f"{path}: unreadable value.*4300"):
            load_scenario(str(path))

    def test_the_largest_float_as_an_int_is_accepted(self):
        # the bound is inclusive: this int converts to a float exactly
        top = int(sys.float_info.max)
        assert float(top) == sys.float_info.max
        replace(micro_scenario(2), cost_threshold=top,
                resource_cap_total=top)
        with pytest.raises(ScenarioError, match="cost_threshold"):
            replace(micro_scenario(2), cost_threshold=top + 1)

    @pytest.mark.parametrize("field", ["cost_threshold",
                                       "resource_cap_total"])
    def test_infinite_cap_is_rejected(self, tmp_path, field):
        # no file that holds it could be written again
        data = scenario_to_dict(micro_scenario(2))
        data[field] = math.inf
        path = tmp_path / "cap.yaml"
        path.write_text(yaml.safe_dump(data))
        assert f"{field}: .inf" in path.read_text()
        with pytest.raises(ScenarioError, match=field):
            load_scenario(str(path))

    @pytest.mark.parametrize("seed", [[1], "abc", 1.5, True, None])
    def test_seed_that_is_no_integer_is_rejected(self, tmp_path, seed):
        data = scenario_to_dict(make_scenario(8, 2, 10, seed=3))
        data["params"]["seed"] = seed
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(str(path))

    @pytest.mark.parametrize("seed", [0, 3, -1, 2**70])
    def test_seed_that_is_an_integer_loads(self, seed):
        data = scenario_to_dict(make_scenario(8, 2, 10, seed=3))
        data["params"]["seed"] = seed
        assert scenario_from_dict(data).params["seed"] == seed

    @pytest.mark.parametrize("rate", [0, -5.0, float("nan"), float("inf")])
    def test_bad_cloud_service_rate_is_rejected(self, tmp_path, rate):
        data = scenario_to_dict(micro_scenario(2))
        cloud = next(n for n in data["topology"]["nodes"]
                     if n["kind"] == "cloud")
        cloud["service_rate"] = rate
        with pytest.raises(ScenarioError, match="service_rate"):
            scenario_from_dict(data)
        # YAML, since a JSON file cannot hold NaN or inf
        path = tmp_path / "rate.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioError, match="service_rate"):
            load_scenario(str(path))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_is_rejected(self, tmp_path, capsys, constant):
        path = tmp_path / "nan.yaml"
        save_scenario(micro_scenario(2), str(path))
        text = path.read_text().replace('"service_rate_mu": ',
                                        f'"service_rate_mu": {constant}, '
                                        '"x": ', 1)
        path.write_text(text)
        with pytest.raises(ScenarioError, match="non-finite"):
            load_scenario(str(path))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ['{"topology": {"nodes": [',
                                      '{"topology": ]}',
                                      '{\n"a": 1,,\n}'])
    def test_malformed_json_is_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        with pytest.raises(ScenarioError):
            load_scenario(str(path))
        rc = main(["place", "--scenario", str(path), "--heuristic", "bnb",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
