"""Scenario (de)serialization. Files are written as JSON, which is also
YAML 1.2; a YAML file, hand-written or from an older version, still
loads."""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from itertools import chain, repeat

from .errors import ScenarioError
from .model import (CapacityVector, Link, Node, Scenario, ServiceClass,
                    ServiceRequest, Topology, VmType)


def _cap_to_list(cap: CapacityVector):
    return [cap.cpu, cap.storage, cap.network]


def scenario_to_dict(scenario: Scenario) -> dict:
    topo = scenario.topology
    params = {k: (_cap_to_list(v) if isinstance(v, CapacityVector) else v)
              for k, v in sorted(scenario.params.items())}
    return {
        "topology": {
            "nodes": [
                {"id": n.id, "kind": n.kind,
                 "capacity": _cap_to_list(n.capacity),
                 "service_rate": n.service_rate}
                for n in (topo.nodes[k] for k in sorted(topo.nodes))],
            "links": [
                {"src": l.src, "dst": l.dst,
                 "service_rate_mu": l.service_rate_mu,
                 "capacity_bw": l.capacity_bw,
                 "ignore_load": l.ignore_load}
                for l in (topo.links[k] for k in sorted(topo.links))],
        },
        "vm_catalog": [
            {"name": v.name, "capacity": _cap_to_list(v.capacity),
             "hourly_cost": v.hourly_cost} for v in scenario.vm_catalog],
        "classes": [
            {"name": c.name,
             "demand_per_10gbps": _cap_to_list(c.demand_per_10gbps),
             "sla_delay_bound": c.sla_delay_bound}
            for c in scenario.classes],
        "requests": [
            {"id": r.id, "origin": r.origin, "class_name": r.class_name,
             "volume_packets": r.volume_packets,
             "packet_size_bytes": r.packet_size_bytes,
             "arrival_time": r.arrival_time,
             "holding_time": r.holding_time}
            for r in scenario.requests],
        "cost_threshold": scenario.cost_threshold,
        "degradation_fraction": scenario.degradation_fraction,
        "k_paths": scenario.k_paths,
        "resource_cap_total": scenario.resource_cap_total,
        "params": params,
    }


#: keys older files carry that name no field any more; they are ignored
_LEGACY_KEYS = {Node: {"traffic"}}


@cache
def _field_names(cls) -> tuple[tuple[str, ...], frozenset[str]]:
    """The field names of `cls` in order, and every key a file may give
    it."""
    names = tuple(f.name for f in fields(cls))
    return names, frozenset(names).union(_LEGACY_KEYS.get(cls, ()))


#: field annotations that mean a number, or a [cpu, storage, network] list
_NUMBER_TYPES = ("int", "float", "CapacityVector")


@cache
def _number_fields(cls) -> tuple[str, ...]:
    """The names of the fields of `cls` that hold numbers."""
    return tuple(f.name for f in fields(cls)
                 if getattr(f.type, "__name__", f.type) in _NUMBER_TYPES)


def _reject_bools(owner: str, records, names, vectors=()) -> None:
    """A JSON `true`/`false` where a record should give a number is a
    `ScenarioError`: Python would take it as 1 or 0. Each name is checked
    as one column over all the records, so that a long list of requests
    costs no Python loop; a name in `vectors` holds a list per record,
    whose items are checked."""
    for name in names:
        column = map(dict.get, records, repeat(name))
        if name in vectors:
            column = chain.from_iterable(filter(None, column))
        if bool in set(map(type, column)):
            raise ScenarioError(f"{owner} {name} must be a number, not "
                                "true or false")


def _build(cls, d: dict, vector: str | None = None, **given):
    """`cls(**given)` plus the keys of `d` that name its other fields, so
    that a key the file lacks takes the field's default; a key that names
    no field, other than a legacy one, is a `ScenarioError`. The field
    named `vector` is read as a [cpu, storage, network] list."""
    names, allowed = _field_names(cls)
    if not allowed.issuperset(d):
        unknown = set(d).difference(allowed)
        raise ScenarioError(f"unknown {cls.__name__} key(s): "
                            f"{', '.join(sorted(map(str, unknown)))}")
    kwargs = {name: d[name] for name in names
              if name in d and name not in given}
    if vector in kwargs:
        kwargs[vector] = CapacityVector(*kwargs[vector])
    return cls(**kwargs, **given)


def _build_all(cls, records, vector: str | None = None) -> list:
    """`_build(cls, d, vector)` for each record, once no record gives a
    bool for a number."""
    _reject_bools(cls.__name__, records, _number_fields(cls), (vector,))
    return [_build(cls, d, vector) for d in records]


def scenario_from_dict(data: dict) -> Scenario:
    try:
        topo_data = data["topology"]
        params = dict(data.get("params", {}))
        _reject_bools("Scenario", [data], _number_fields(Scenario))
        _reject_bools("params", [params], params,
                      [k for k, v in params.items() if type(v) is list])
        return _build(
            Scenario, data,
            topology=Topology(_build_all(Node, topo_data["nodes"], "capacity"),
                              _build_all(Link, topo_data["links"])),
            vm_catalog=_build_all(VmType, data["vm_catalog"], "capacity"),
            classes=_build_all(ServiceClass, data["classes"],
                               "demand_per_10gbps"),
            requests=_build_all(ServiceRequest, data["requests"]),
            params=params)
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario data: {exc}") from exc


#: the C encoder; NaN and inf raise `ValueError`, since no file that
#: holds them loads
_encode = json.JSONEncoder(allow_nan=False).encode


def _json_text(value) -> str:
    """`value` as JSON: a list of mappings gets one line per mapping, a
    mapping that holds such a list, or a mapping, one line per key, and
    anything else one line."""
    if isinstance(value, dict) and any(
            isinstance(v, dict) or _is_records(v) for v in value.values()):
        return "{\n" + ",\n".join(f"{_encode(k)}: {_json_text(v)}"
                                   for k, v in value.items()) + "\n}"
    if _is_records(value):
        return "[\n" + ",\n".join(map(_encode, value)) + "\n]"
    return _encode(value)


def _is_records(value) -> bool:
    return isinstance(value, list) and bool(value) \
        and isinstance(value[0], dict)


def save_scenario(scenario: Scenario, path) -> None:
    try:
        text = _json_text(scenario_to_dict(scenario))
    except ValueError:
        raise ScenarioError(f"{path}: cannot write a non-finite number") \
            from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_scenario(path) -> Scenario:
    """Load a scenario file: JSON as `save_scenario` writes it, or any
    YAML."""
    def reject(name):
        raise ScenarioError(f"{path}: non-finite number {name}")

    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError:
        import yaml   # only a file that is not JSON needs it
        try:
            data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                                  yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: not a scenario file")
    return scenario_from_dict(data)
