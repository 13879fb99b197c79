"""Command-line interface: scenario generation, exact and heuristic
placement, cloud-count sweeps, queue simulation and heuristic comparison."""

from __future__ import annotations

import argparse
import os
import sys

from . import des
from .defaults import DEFAULT_LOAD_FRACTION
from .errors import BudgetExceeded, CranplaceError, ScenarioError
from .exact import evaluate_constraints, objective, solve_exact
from .experiments import (MS_PER_WORK_UNIT, compare_heuristics,
                          optimal_cloud_count, run_sweep, write_csv,
                          write_sweep_csv)
from .heuristics import (ALL_KINDS, BNB_PLAIN, BNB_SORTED_ASC,
                         BNB_SORTED_DESC, SA_LONG, SA_SHORT, HeuristicConfig,
                         place)
from .queueing import QueueLoad, md1_delay, mm1_delay
from .scenario_io import load_scenario, save_scenario
from .workload import make_scenario

HEURISTIC_NAMES = {
    "bnb": BNB_PLAIN,
    "bnb-sa": BNB_SORTED_ASC,
    "bnb-sd": BNB_SORTED_DESC,
    "sa-short": SA_SHORT,
    "sa-long": SA_LONG,
}


def _cmd_generate(args) -> int:
    scenario = make_scenario(args.bs, args.clouds, args.requests,
                             load_fraction=args.load, seed=args.seed)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}: {args.bs} BS, {args.clouds} clouds, "
          f"{args.requests} requests at load {args.load}")
    return 0


def _cmd_solve_exact(args) -> int:
    scenario = load_scenario(args.scenario)
    state = solve_exact(scenario)
    obj = objective(state, scenario)
    report = evaluate_constraints(state, scenario)
    payload = {
        "objective": obj,
        "feasible": report.feasible,
        "assignments": [
            {"request_id": rid, "cloud": a.cloud,
             "instance_id": a.instance_id, "path_id": a.path_id,
             "vm_type": state.instances[a.instance_id].vm_type.name}
            for rid, a in sorted(state.allocations.items())],
        "instances_launched": state.instances_launched,
        "total_cost": state.cost_accrued,
    }
    import yaml   # only this command writes YAML
    with open(args.out, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=False)
    print(f"objective {obj:.9g} over {len(state.allocations)} requests "
          f"-> {args.out}")
    return 0


def _cmd_place(args) -> int:
    scenario = load_scenario(args.scenario)
    kind = HEURISTIC_NAMES[args.heuristic]
    result = place(scenario, HeuristicConfig(kind=kind, seed=args.seed))
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.csv")
    write_csv(
        summary_path,
        ["heuristic", "satisfied", "unsatisfied", "migrations",
         "instances_launched", "resources", "cost", "exec_time_ms",
         "link_delay", "compute_delay", "migration_delay",
         "first_drop_index"],
        [(kind, result.satisfied, result.dropped, result.migrations,
          result.instances_launched, result.total_resources_used,
          result.total_cost, result.work_units * MS_PER_WORK_UNIT,
          result.total_link_delay, result.total_compute_delay,
          result.total_migration_delay,
          -1 if result.first_drop_index is None
          else result.first_drop_index)])
    delays_path = os.path.join(args.out, "delays.csv")
    write_csv(
        delays_path,
        ["request_id", "link_delay", "compute_delay", "migration_delay",
         "total"],
        [(rid, b.link_delay, b.compute_delay, b.migration_delay, b.total)
         for rid, b in sorted(result.breakdown.items())])
    print(f"{kind}: {result.satisfied} satisfied, {result.dropped} dropped, "
          f"{result.migrations} migrations (wall {result.wall_time:.3f} s) "
          f"-> {args.out}")
    return 0


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ScenarioError(f"bad cloud range {text!r}, expected LO..HI") \
            from None
    if lo < 1 or hi < lo:
        raise ScenarioError(f"bad cloud range {text!r}")
    return range(lo, hi + 1)


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    clouds = _parse_range(args.clouds)
    config = HeuristicConfig(kind=BNB_SORTED_ASC,
                             seed=scenario.setting("seed"))
    points = run_sweep(scenario, clouds, args.load, config)
    os.makedirs(args.out, exist_ok=True)
    write_sweep_csv(points, os.path.join(args.out, "sweep.csv"))
    print(f"optimal_clouds {optimal_cloud_count(points)}")
    return 0


def _cmd_simulate(args) -> int:
    load = QueueLoad(args.rho * args.mu, args.mu)
    discipline = args.discipline.upper()
    result = des.simulate_queue(discipline, load, args.packets,
                                seed=args.seed)
    analytic = (md1_delay(load) if discipline == des.MD1
                else mm1_delay(load))
    print(f"discipline {discipline} rho {args.rho} mu {args.mu}")
    print(f"mean_sojourn {result.mean_sojourn:.9g}")
    print(f"ci95_halfwidth {result.ci95_halfwidth:.9g}")
    print(f"analytic {analytic:.9g}")
    return 0


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        axis = [int(x) for x in args.axis.split(",") if x.strip() != ""]
    except ValueError:
        raise ScenarioError(f"bad axis {args.axis!r}") from None
    seed = scenario.setting("seed")
    configs = [HeuristicConfig(kind=k, seed=seed) for k in ALL_KINDS]
    report = compare_heuristics(scenario, axis, configs, out_dir=args.out)
    print(f"wrote {len(report.files)} metric files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cranplace",
        description="BBU service placement across multi-cloud topologies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a scenario file")
    p.add_argument("--bs", type=int, required=True)
    p.add_argument("--clouds", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--load", type=float, default=DEFAULT_LOAD_FRACTION)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve-exact",
                       help="optimal placement by branch and bound")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("place", help="heuristic placement")
    p.add_argument("--scenario", required=True)
    p.add_argument("--heuristic", choices=sorted(HEURISTIC_NAMES),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("sweep", help="cloud-count sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--clouds", required=True, metavar="LO..HI")
    p.add_argument("--load", type=float, default=DEFAULT_LOAD_FRACTION)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="single-queue event simulation")
    p.add_argument("--discipline", choices=["mm1", "md1"], required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--packets", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="heuristic comparison CSVs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--axis", required=True,
                   help="comma-separated request counts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CranplaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
