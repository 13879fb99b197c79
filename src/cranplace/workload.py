"""Workload generation: seeded Poisson request streams whose aggregate
traffic targets a chosen fraction of the backhaul link capacity."""

from __future__ import annotations

import math
import random

from . import defaults
from .errors import ScenarioError
from .model import (DEFAULT_CLASS_NAMES, DEFAULT_CLASSES,
                    DEFAULT_VM_CATALOG, CapacityVector, Scenario,
                    ServiceRequest, check_count, check_number)
from .topology import LinkParams, bs_node_id, build_topology


def generate_workload(n_bs: int, n_requests: int, seed: int = 0,
                      load_fraction: float = defaults.DEFAULT_LOAD_FRACTION,
                      bs_per_aggregator: int = defaults.DEFAULT_BS_PER_AGGREGATOR,
                      backhaul_gbps: float = defaults.DEFAULT_BACKHAUL_GBPS,
                      packet_size_bytes: float = defaults.DEFAULT_PACKET_SIZE_BYTES,
                      volume_packets: float = defaults.DEFAULT_VOLUME_PACKETS,
                      holding_time: float = defaults.DEFAULT_HOLDING_TIME_S
                      ) -> list[ServiceRequest]:
    """Exponential inter-arrivals, origins uniform over base stations,
    classes drawn uniformly.

    The arrival rate is chosen so that the long-run mean offered traffic on
    each aggregation link equals `load_fraction` of its capacity: each
    request carries volume * packet_size bits, so the per-link request rate
    must be load * capacity / that payload.
    """
    check_count("n_bs", n_bs, 1)
    check_count("n_requests", n_requests, 1)
    check_count("bs_per_aggregator", bs_per_aggregator, 1)
    for name, value in (("backhaul_gbps", backhaul_gbps),
                        ("packet_size_bytes", packet_size_bytes),
                        ("volume_packets", volume_packets),
                        ("holding_time", holding_time)):
        check_number(name, value)
    check_number("load_fraction", load_fraction)
    if not load_fraction < 1.0:
        raise ScenarioError("load_fraction must be in (0, 1)")

    try:
        bits_per_request = volume_packets * packet_size_bytes * 8.0
    except OverflowError:   # an int product past the float range
        bits_per_request = math.inf
    rate_per_link = load_fraction * backhaul_gbps * 1e9 / bits_per_request
    n_agg = math.ceil(n_bs / bs_per_aggregator)
    total_rate = rate_per_link * n_agg
    if not total_rate > 0.0:
        raise ScenarioError("volume_packets * packet_size_bytes is too "
                            "large: no arrival rate reaches load_fraction")

    rng = random.Random(seed)
    requests = []
    t = 0.0
    for i in range(n_requests):
        t += rng.expovariate(total_rate)
        origin = bs_node_id(rng.randrange(n_bs), n_bs)
        cls = rng.choices(DEFAULT_CLASS_NAMES)[0]
        requests.append(ServiceRequest(
            id=i, origin=origin, class_name=cls,
            volume_packets=volume_packets,
            packet_size_bytes=packet_size_bytes,
            arrival_time=t, holding_time=holding_time))
    return requests


_LINK_PARAM_KEYS = ("backhaul_gbps", "bs_link_gbps", "chain_gbps",
                    "packet_size_bytes", "cloud_service_rate_total")


def link_params_from(params: dict) -> LinkParams:
    """Topology link/capacity settings out of a scenario's params block;
    `LinkParams`' own defaults fill the keys it lacks."""
    kwargs = {k: params[k] for k in _LINK_PARAM_KEYS if k in params}
    cap = params.get("cloud_capacity_total")
    if cap is not None:
        # unpacking would pad a shorter list with zeros
        if not isinstance(cap, (list, tuple)) or len(cap) != 3:
            raise ScenarioError("cloud_capacity_total must be a [cpu, "
                                f"storage, network] list, not {cap!r}")
        kwargs["cloud_capacity_total"] = CapacityVector(*cap)
    return LinkParams(**kwargs)


def make_scenario(n_bs: int, n_clouds: int, n_requests: int,
                  load_fraction: float = defaults.DEFAULT_LOAD_FRACTION,
                  seed: int = 0,
                  cost_threshold: float = defaults.DEFAULT_COST_THRESHOLD,
                  resource_cap_total: float = defaults.DEFAULT_RESOURCE_CAP,
                  params: dict | None = None) -> Scenario:
    """Stock scenario: generated topology, stock VM catalog and
    service classes, and a load-targeted workload. Everything needed to
    rebuild the topology for a different cloud count is kept in params;
    `n_bs`, `load_fraction` and `seed` are recorded from the arguments,
    over any value `params` holds, since those generate the scenario."""
    merged = {**defaults.DEFAULT_PARAMS, **(params or {}), "n_bs": n_bs,
              "load_fraction": load_fraction, "seed": seed}
    merged.setdefault("bs_per_aggregator", defaults.DEFAULT_BS_PER_AGGREGATOR)
    merged.setdefault("volume_packets", defaults.DEFAULT_VOLUME_PACKETS)
    merged.setdefault("holding_time", defaults.DEFAULT_HOLDING_TIME_S)
    merged.setdefault("backhaul_gbps", defaults.DEFAULT_BACKHAUL_GBPS)

    lp = link_params_from(merged)
    topology = build_topology(n_bs, n_clouds, merged["bs_per_aggregator"], lp)
    requests = generate_workload(
        n_bs, n_requests, seed=seed, load_fraction=load_fraction,
        bs_per_aggregator=merged["bs_per_aggregator"],
        backhaul_gbps=merged["backhaul_gbps"],
        packet_size_bytes=merged["packet_size_bytes"],
        volume_packets=merged["volume_packets"],
        holding_time=merged["holding_time"])
    return Scenario(
        topology=topology,
        vm_catalog=list(DEFAULT_VM_CATALOG),
        classes=list(DEFAULT_CLASSES),
        requests=requests,
        cost_threshold=cost_threshold,
        resource_cap_total=resource_cap_total,
        params=merged,
    )
