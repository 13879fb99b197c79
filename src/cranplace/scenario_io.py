"""Scenario (de)serialization to YAML files."""

from __future__ import annotations

from dataclasses import fields

import yaml

from .errors import ScenarioError
from .model import (CapacityVector, Link, Node, Scenario, ServiceClass,
                    ServiceRequest, Topology, VmType)

try:
    _Loader = yaml.CSafeLoader
    _Dumper = yaml.CSafeDumper
except AttributeError:  # libyaml not available
    _Loader = yaml.SafeLoader
    _Dumper = yaml.SafeDumper


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


def _build(cls, d: dict, vector: str | None = None, **given):
    """`cls(**given)` plus the keys of `d` that name its other fields, so
    that a key the file lacks takes the field's default; a key that names
    no field, other than a legacy one, is a `ScenarioError`. The field
    named `vector` is read as a [cpu, storage, network] list."""
    names = [f.name for f in fields(cls)]
    unknown = set(d).difference(names, _LEGACY_KEYS.get(cls, ()))
    if unknown:
        raise ScenarioError(f"unknown {cls.__name__} key(s): "
                            f"{', '.join(sorted(map(str, unknown)))}")
    kwargs = {name: d[name] for name in names
              if name in d and name not in given}
    if vector in kwargs:
        kwargs[vector] = CapacityVector(*kwargs[vector])
    return cls(**kwargs, **given)


def scenario_from_dict(data: dict) -> Scenario:
    try:
        topo_data = data["topology"]
        return _build(
            Scenario, data,
            topology=Topology(
                [_build(Node, d, "capacity") for d in topo_data["nodes"]],
                [_build(Link, d) for d in topo_data["links"]]),
            vm_catalog=[_build(VmType, d, "capacity")
                        for d in data["vm_catalog"]],
            classes=[_build(ServiceClass, d, "demand_per_10gbps")
                     for d in data["classes"]],
            requests=[_build(ServiceRequest, d) for d in data["requests"]],
            params=dict(data.get("params", {})))
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario data: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.dump(scenario_to_dict(scenario), fh, Dumper=_Dumper,
                  sort_keys=False, default_flow_style=None)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: not a scenario file")
    return scenario_from_dict(data)
