"""Experiment harness: cloud-count sweeps, heuristic comparisons over a
growing request axis, and deterministic CSV emission."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

from .defaults import DEFAULT_LOAD_FRACTION
from .errors import ScenarioError
from .heuristics import HeuristicConfig, place
from .model import Scenario, with_requests
from .topology import average_bs_cloud_hops
from .workload import make_scenario

#: modeled milliseconds per unit of deterministic placement work
MS_PER_WORK_UNIT = 1e-3


@dataclass(frozen=True)
class SweepPoint:
    n_clouds: int
    avg_hops: int
    link_delay: float
    migration_delay: float
    total_delay: float
    load_fraction: float


@dataclass
class RunReport:
    axis: list
    results: dict        # heuristic kind -> list of PlacementResult
    files: list          # emitted CSV paths


def scenario_for_clouds(base_scenario: Scenario, n_clouds: int,
                        load_fraction: float | None = None) -> Scenario:
    """Same fleet and workload model, different cloud count (and
    optionally a different target load): `make_scenario` over the base's
    params, keeping the base's VM catalog, classes, cost threshold and
    resource cap."""
    params = dict(base_scenario.params)
    if "n_bs" not in params:
        raise ScenarioError("scenario params lack the generator settings "
                            "needed to rebuild the topology")
    load = (params.get("load_fraction", DEFAULT_LOAD_FRACTION)
            if load_fraction is None else load_fraction)
    params["load_fraction"] = load
    built = make_scenario(params["n_bs"], n_clouds,
                          len(base_scenario.requests), load_fraction=load,
                          seed=base_scenario.setting("seed"), params=params)
    return replace(base_scenario, topology=built.topology,
                   requests=built.requests, params=params)


def run_sweep(base_scenario: Scenario, cloud_range, load_fraction: float,
              heuristic_config: HeuristicConfig) -> list[SweepPoint]:
    """Place the same workload for each cloud count and collect the link
    and migration delay aggregates (sums over admitted requests)."""
    counts = list(cloud_range)
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ScenarioError("cloud_range must be non-empty and ascending")
    points = []
    for n in counts:
        scenario = scenario_for_clouds(base_scenario, n, load_fraction)
        result = place(scenario, heuristic_config)
        link_d = result.total_link_delay
        points.append(SweepPoint(
            n_clouds=n,
            avg_hops=round(average_bs_cloud_hops(scenario.topology)),
            link_delay=link_d,
            migration_delay=result.total_migration_delay,
            total_delay=link_d + result.total_migration_delay,
            load_fraction=load_fraction))
    return points


def optimal_cloud_count(points) -> int:
    """Cloud count with the smallest total delay; ties go to fewer clouds."""
    pts = list(points)
    if not pts:
        raise ValueError("no sweep points")
    return min(pts, key=lambda p: (p.total_delay, p.n_clouds)).n_clouds


def _fmt(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_sweep_csv(points, path) -> None:
    write_csv(
        path,
        ["n_clouds", "avg_hops", "link_delay", "migration_delay",
         "total_delay", "load_fraction"],
        [(p.n_clouds, p.avg_hops, p.link_delay, p.migration_delay,
          p.total_delay, p.load_fraction) for p in points],
        comment="link_delay: sum over admitted requests of their path "
                "delay at admission; migration_delay: sum of modeled "
                "relocation times")


_METRICS = {
    "exec_time_ms": lambda r: r.work_units * MS_PER_WORK_UNIT,
    "unsatisfied": lambda r: r.dropped,
    "migrations": lambda r: r.migrations,
    "total_delay": lambda r: r.total_delay,
    "resources": lambda r: r.total_resources_used,
    "cost": lambda r: r.total_cost,
}


def compare_heuristics(scenario: Scenario, request_axis, configs,
                       out_dir=None) -> RunReport:
    """Run every config on growing prefixes of the workload; optionally
    emit one CSV per metric with a column per heuristic."""
    axis = list(request_axis)
    if any(b <= a for a, b in zip(axis, axis[1:])) or not axis:
        raise ScenarioError("request_axis must be non-empty and ascending")
    if any(m < 0 for m in axis):
        raise ScenarioError("request_axis counts must be >= 0")
    configs = list(configs)
    ordered = sorted(scenario.requests, key=lambda r: r.id)
    if axis[-1] > len(ordered):
        raise ScenarioError(f"axis point {axis[-1]} exceeds the "
                            f"{len(ordered)} available requests")

    results: dict[str, list] = {c.kind: [] for c in configs}
    if len(results) != len(configs):
        raise ScenarioError("duplicate heuristic kinds in configs")
    for m in axis:
        for config in configs:
            if m == 0:
                results[config.kind].append(None)
                continue
            sub = with_requests(scenario, ordered[:m])
            results[config.kind].append(place(sub, config))

    files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        kinds = [c.kind for c in configs]
        for metric, getter in _METRICS.items():
            rows = []
            for i, m in enumerate(axis):
                row = [m]
                for kind in kinds:
                    r = results[kind][i]
                    row.append(0 if r is None else getter(r))
                rows.append(row)
            path = os.path.join(out_dir, f"{metric}.csv")
            write_csv(path, ["n_requests"] + kinds, rows)
            files.append(path)
    return RunReport(axis=axis, results=results, files=files)
