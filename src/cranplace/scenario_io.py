"""Scenario (de)serialization. Files are written as JSON, which is also
YAML 1.2; a YAML file, hand-written or from an older version, still
loads."""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from itertools import chain, repeat
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


#: field annotations that mean a number, or a [cpu, storage, network] list
_NUMBER_TYPES = ("int", "float", "CapacityVector")


@cache
def _number_fields(cls) -> tuple[str, ...]:
    """The names of the fields of `cls` that hold numbers."""
    return tuple(f.name for f in fields(cls)
                 if _type_name(f) in _NUMBER_TYPES)


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


def _build_all(cls, records) -> list:
    """`_build(cls, d)` for each record, once no record gives a bool for
    a number."""
    _reject_bools(cls.__name__, records, _number_fields(cls),
                  _field_names(cls)[2])
    return [_build(cls, d) for d in records]


def scenario_from_dict(data: dict) -> Scenario:
    try:
        topo_data = data["topology"]
        params = dict(data.get("params", {}))
        _reject_bools("Scenario", [data], _number_fields(Scenario))
        _reject_bools("params", [params], params,
                      [k for k, v in params.items() if type(v) is list])
        return _build(
            Scenario, data,
            topology=Topology(_build_all(Node, topo_data["nodes"]),
                              _build_all(Link, topo_data["links"])),
            vm_catalog=_build_all(VmType, data["vm_catalog"]),
            classes=_build_all(ServiceClass, data["classes"]),
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
