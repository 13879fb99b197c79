"""Scenario (de)serialization. Files are written as JSON, which is also
YAML 1.2; a YAML file, hand-written or from an older version, still
loads."""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from operator import attrgetter

from .errors import ScenarioError
from .model import (CapacityVector, Link, Node, Scenario, ServiceClass,
                    ServiceRequest, Topology, VmType)

#: keys older files carry that name no field any more; they are ignored
_LEGACY_KEYS = {Node: {"traffic"}, Link: {"ignore_load"}}


@cache
def _field_names(cls) -> tuple[tuple[str, ...], frozenset[str],
                                tuple[str, ...]]:
    """The field names of `cls` in order, every key a file may give it,
    and the names of its capacity fields, which a file holds as
    [cpu, storage, network] lists."""
    names = tuple(f.name for f in fields(cls))
    vectors = tuple(f.name for f in fields(cls)
                    if _type_name(f) == "CapacityVector")
    return names, frozenset(names).union(_LEGACY_KEYS.get(cls, ())), vectors


def _type_name(field) -> str:
    return getattr(field.type, "__name__", field.type)


def _records(cls, objs) -> list[dict]:
    """Each object of `cls` as a record: its fields by name, in field
    order, a capacity as a list."""
    names, _, vectors = _field_names(cls)
    records = [dict(zip(names, values))
               for values in map(attrgetter(*names), objs)]
    for name in vectors:
        for record in records:
            record[name] = list(record[name])
    return records


def scenario_to_dict(scenario: Scenario) -> dict:
    """The scenario as the record `scenario_from_dict` reads: its fields,
    in field order, each object among them a record of its own."""
    topo = scenario.topology
    data = _records(Scenario, [scenario])[0]
    data.update(
        topology={
            "nodes": _records(Node, map(topo.nodes.get, sorted(topo.nodes))),
            "links": _records(Link, map(topo.links.get, sorted(topo.links)))},
        vm_catalog=_records(VmType, scenario.vm_catalog),
        classes=_records(ServiceClass, scenario.classes),
        requests=_records(ServiceRequest, scenario.requests),
        params={k: list(v) if isinstance(v, CapacityVector) else v
                for k, v in sorted(scenario.params.items())})
    return data


def _build(cls, d: dict, **given):
    """`cls(**given)` plus the keys of `d` that name its other fields, so
    that a key the file lacks takes the field's default; a key that names
    no field, other than a legacy one, is a `ScenarioError`. A capacity
    field is read as a [cpu, storage, network] list."""
    names, allowed, vectors = _field_names(cls)
    if not allowed.issuperset(d):
        unknown = set(d).difference(allowed)
        raise ScenarioError(f"unknown {cls.__name__} key(s): "
                            f"{', '.join(sorted(map(str, unknown)))}")
    kwargs = {name: d[name] for name in names
              if name in d and name not in given}
    for name in vectors:
        if name in kwargs:
            kwargs[name] = CapacityVector(*kwargs[name])
    return cls(**kwargs, **given)


def scenario_from_dict(data: dict) -> Scenario:
    try:
        topo_data = data["topology"]
        return _build(
            Scenario, data,
            topology=Topology([_build(Node, d) for d in topo_data["nodes"]],
                              [_build(Link, d) for d in topo_data["links"]]),
            vm_catalog=[_build(VmType, d) for d in data["vm_catalog"]],
            classes=[_build(ServiceClass, d) for d in data["classes"]],
            requests=[_build(ServiceRequest, d) for d in data["requests"]],
            params=dict(data.get("params", {})))
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario data: {exc}") from exc


#: the C encoder; NaN and inf raise `ValueError`, since no file that
#: holds them loads, and a value JSON has no type for, such as a set or
#: a numpy integer in params, `TypeError`
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
    except TypeError as exc:
        raise ScenarioError(f"{path}: cannot write {exc}") from None
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
        try:
            data = json.loads(text, parse_constant=reject)
        except json.JSONDecodeError:
            import yaml   # only a file that is not JSON needs it
            try:
                data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                                      yaml.SafeLoader))
            except yaml.YAMLError as exc:
                raise ScenarioError(f"{path}: malformed YAML: {exc}") \
                    from exc
    except ValueError as exc:
        # either parser: e.g. an int of more digits than Python reads
        raise ScenarioError(f"{path}: unreadable value: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: not a scenario file")
    return scenario_from_dict(data)
